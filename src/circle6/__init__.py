"""circle6: exact toolkit for fixed-point weight data of circle actions on
6-manifolds.

Capabilities, one module each:

* :mod:`circle6.core` -- the dataset model (fixed points with integer
  weight multisets, optional homology profile), validation, JSON I/O;
* :mod:`circle6.localization` -- exact localized invariants: the c1^3
  degree sum, chi_y coefficients, Todd genus, c1c2;
* :mod:`circle6.classifier` -- the six weight families of 4-fixed-point
  actions, generation and inverse matching with parameter recovery;
* :mod:`circle6.multigraph` -- opposite-weight pairing multigraphs,
  connectivity verdicts, the linear-model isotropy graph on S^4 x S^2;
* :mod:`circle6.surgery` -- fiber connect sum bookkeeping: the mod-8
  admissibility/uniqueness gate, framing parity calculus, homology
  composition, diffeotype recognition, and the numeric collar gluing
  check;
* :mod:`circle6.cli` -- the `circle6` command (also `python -m circle6`).
"""

from .core import (
    FixedPoint,
    FixedPointData,
    HomologyProfile,
    RationalScalar,
    SPHERE_PROFILE,
    Violation,
    WeightVector,
    dataset,
    disjoint_union,
    document,
    format_rational,
    load,
    negate_all,
    parse_rational,
    save,
    validate,
)
from .errors import (
    BadArgument,
    BadDimensions,
    BadParams,
    BadWeights,
    CapExceeded,
    InvalidData,
    MissingProfile,
    NonIntegralChernNumber,
    NotAdmissible,
    NotSimplyConnected,
    ParseError,
    ToolkitError,
    UnpairableWeights,
    ValidationError,
    WrongDimension,
    WrongPointCount,
)
from .localization import ChernReport, c1_cubed, chern_report, chi_y_profile, todd_genus
from .classifier import (
    CaseMatch,
    CaseTag,
    ClassificationResult,
    JangCase,
    classify,
    gen_family,
    jang_case,
    param_names,
)
from .multigraph import (
    ConnectivityVerdict,
    DEFAULT_MATCHING_CAP,
    Multigraph,
    build_multigraphs,
    connectivity_verdict,
    exoticness_obstruction,
    linear_action_isotropy,
    make_graph,
    raw_pairing_count,
)
from .surgery import (
    Admissibility,
    DimensionPair,
    GluingCheck,
    HomotopyGroup,
    KustarevSum,
    NONTRIVIAL_CLASS,
    QUADRIC_Q3,
    S4_X_S2,
    SumReport,
    TRIVIAL_CLASS,
    equivariant_normal_framing_class,
    equivariantly_formal,
    is_sphere_summand,
    kustarev_admissible,
    kustarev_sum,
    psi_flip,
    recognize_diffeotype,
    rotation_loop_class,
    stable_pi_so_mod_u,
    standard_sphere,
    verify_framing_reversal_identity,
)

__version__ = "0.1.0"
