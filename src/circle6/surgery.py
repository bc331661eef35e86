"""Fiber connect sum of circle actions: gates, framings, and bookkeeping.

Gluing two 2n-manifolds with almost complex T^k-actions along tubular
neighborhoods of free orbits produces a new action, but an invariant
almost complex structure on the glue region only exists when the relevant
obstruction groups vanish. Those obstructions live in the stable homotopy
of SO/U, which is 8-periodic, so both existence and uniqueness reduce to
the residue of 2n - k mod 8:

    existence  <=>  2n - k = 2, 4, 5, 6   (mod 8)
    uniqueness <=>  2n - k = 4, 5         (mod 8)

(existence needs pi_{2n-k-1}(SO/U) = 0, uniqueness additionally
pi_{2n-k}(SO/U) = 0; the vanishing residues are {1, 3, 4, 5}. Other
conventions appear in the literature -- requiring the *next* pair of
groups to vanish would give residues {3, 4} -- but only the gate above is
implemented; see README. For circle actions on 6-manifolds, 2n - k = 5,
so the sum exists and its invariant structure is unique up to homotopy.)

This module also computes the parity calculus of circle framings: an
embedded circle in a manifold of dimension >= 4 has exactly two framing
classes (pi_1 of the rotation group), a free orbit has a canonical
equivariant framing, and for the standard sphere actions that class is
always the nontrivial one. `recognize_diffeotype` names two
diffeomorphism types, both on four-point n = 3 data with an integrally
formal profile: S^4 x S^2 for a two-sphere sum with zero-sum rows, the
quadric Q^3 for case-F data.

Everything here is exact except `verify_framing_reversal_identity`, the
one floating-point computation in the package, which samples the collar
gluing identity numerically and is quarantined behind an explicit
tolerance and seed; a NaN or infinite deviation fails it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from enum import Enum
from math import inf
from numbers import Real
from typing import TYPE_CHECKING, Callable, Iterable

from .core import (FixedPoint, FixedPointData, HomologyProfile, SPHERE_PROFILE,
                   Violation, _is_int, _json_fields, _require_dataset,
                   _require_integer_weights, _require_valid, _union_points)
from .classifier import CaseTag, _classify
from .errors import (BadArgument, BadDimensions, InvalidData, MissingProfile,
                     NotAdmissible, NotSimplyConnected, WrongDimension, _shown)

if TYPE_CHECKING:
    import numpy as np


class HomotopyGroup(Enum):
    ZERO = "0"
    Z = "Z"
    Z2 = "Z/2"


# pi_q(SO(2n)/U(n)) in the stable range q < 2n - 1, indexed by q mod 8.
_SO_MOD_U = (
    HomotopyGroup.Z2,    # 0
    HomotopyGroup.ZERO,  # 1
    HomotopyGroup.Z,     # 2
    HomotopyGroup.ZERO,  # 3
    HomotopyGroup.ZERO,  # 4
    HomotopyGroup.ZERO,  # 5
    HomotopyGroup.Z,     # 6
    HomotopyGroup.Z2,    # 7
)


def stable_pi_so_mod_u(q: int) -> HomotopyGroup:
    """Stable pi_q(SO(2n)/U(n)); independent of n for q < 2n - 1."""
    if not _is_int(q) or q < 0:
        raise BadArgument(f"homotopy degree must be a nonnegative integer, got {_shown(q)}")
    return _SO_MOD_U[q % 8]


@dataclass(frozen=True)
class DimensionPair:
    """Manifold dimension 2n with an acting torus of dimension k (0 < k < 2n)."""

    n: int
    k: int

    def __post_init__(self):
        if not (_is_int(self.n) and _is_int(self.k)):
            raise BadDimensions(f"n, k must be integers, got ({_shown(self.n)}, {_shown(self.k)})")
        if self.k <= 0 or self.n <= 0 or self.k >= 2 * self.n:
            raise BadDimensions(f"need 0 < k < 2n, got n={_shown(self.n)}, k={_shown(self.k)}")

    @property
    def slice_dim(self) -> int:
        """Dimension 2n - k of the normal slice to a free orbit."""
        return 2 * self.n - self.k


@dataclass(frozen=True)
class Admissibility:
    exists: bool
    unique: bool


def kustarev_admissible(dim: DimensionPair) -> Admissibility:
    """Mod-8 gate for the fiber connect sum of almost complex T^k-actions."""
    if not isinstance(dim, DimensionPair):
        raise BadArgument(f"expected a DimensionPair, got {_shown(dim)}")
    m = dim.slice_dim
    exists = stable_pi_so_mod_u(m - 1) is HomotopyGroup.ZERO
    unique = exists and stable_pi_so_mod_u(m) is HomotopyGroup.ZERO
    return Admissibility(exists=exists, unique=unique)


# ---------------------------------------------------------------------------
# framing parity calculus
# ---------------------------------------------------------------------------

# The two homotopy classes of circle framings, as elements of Z/2.
TRIVIAL_CLASS = 0
NONTRIVIAL_CLASS = 1

Z2Class = int


def rotation_loop_class(speeds: Iterable[int]) -> Z2Class:
    """Class in pi_1 of the rotation group of a block-diagonal loop of 2x2
    rotations at the given integer speeds: the parity of their sum."""
    ks = tuple(speeds) if isinstance(speeds, Iterable) else None
    if ks is None or not all(map(_is_int, ks)):
        raise BadArgument(f"rotation speeds must be integers, got {_shown(speeds)}")
    return sum(ks) % 2


def psi_flip(normal_class: Z2Class) -> Z2Class:
    """Translate between normal framings of a circle in the 6-sphere and
    tangent framings of the ambient 7-space.

    Writing a framed circle's tangent data as a loop of frames shows the
    trivial normal framing maps to the nontrivial tangent class and vice
    versa, so the translation is the swap 0 <-> 1 (an involution).
    """
    if not _is_int(normal_class) or normal_class not in (0, 1):
        raise BadArgument(f"a Z/2 framing class must be 0 or 1, got {_shown(normal_class)}")
    return 1 - normal_class


def _check_sphere_weights(a, b) -> None:
    if not (_is_int(a) and _is_int(b) and a >= 1 and b >= 1):
        raise BadArgument(f"sphere action weights must be positive integers, got ({_shown(a)}, {_shown(b)})")


def equivariant_normal_framing_class(a: int, b: int) -> Z2Class:
    """Framing class of a free orbit of the standard weight-(a, b) sphere action.

    The action t.(z1, z2, z3, x) = (t^-a z1, t^b z2, t^(a+b) z3, x) moves a
    frame around a free orbit by the rotation loop of speeds (-a, b, a+b),
    whose parity -a + b + a + b = 2b is always even; translating back from
    tangent to normal data flips the class, so the equivariant framing is
    nontrivial for every choice of weights. (Any two equivariant framings
    of a free orbit are homotopic, so the class is canonical: it is
    computed, never configured.)
    """
    _check_sphere_weights(a, b)
    return psi_flip(rotation_loop_class((-a, b, a + b)))


# ---------------------------------------------------------------------------
# the sum itself
# ---------------------------------------------------------------------------

def standard_sphere(a: int, b: int) -> FixedPointData:
    """Fixed-point data of the standard weight-(a, b) circle action on the
    6-sphere: two fixed points with opposite weight multisets {a, b, -a-b}
    and {-a, -b, a+b}, with the sphere's homology profile attached."""
    _check_sphere_weights(a, b)
    pts = (FixedPoint("p1", (a, b, -a - b)),
           FixedPoint("p2", (-a, -b, a + b)))
    return FixedPointData(3, pts, homology=SPHERE_PROFILE)


def is_sphere_summand(data: FixedPointData) -> bool:
    """Whether `data` is a standard sphere action: n = 3, two fixed points
    with opposite zero-sum weight multisets and sphere homology attached."""
    _require_integer_weights(data)
    return _is_sphere(data)


def _is_sphere(data: FixedPointData) -> bool:   # `is_sphere_summand` past its gate
    if data.homology != SPHERE_PROFILE or data.n != 3 or len(data.points) != 2:
        return False
    w1, w2 = data.points[0].weights, data.points[1].weights
    return sum(w1) == 0 and sorted(w2) == sorted(-w for w in w1)


# the provenance label `kustarev_sum` writes and `recognize_diffeotype` reads
_KUSTAREV_SUM = "kustarev-sum"

QUADRIC_Q3 = "quadric Q^3"
S4_X_S2 = "S^4 x S^2"


@dataclass(frozen=True)
class SumReport:
    """What the composition gate and bookkeeping concluded."""

    n: int
    k: int
    exists: bool
    unique: bool
    b2: int
    b3: int
    euler: int
    summands: tuple[str, str]
    diffeotype: str | None

    def as_json_dict(self) -> dict:
        return _json_fields(self)


@dataclass(frozen=True)
class KustarevSum:
    data: FixedPointData
    report: SumReport

    @property
    def homology(self) -> HomologyProfile:
        """The profile of the sum: the one its dataset carries."""
        return self.data.homology


def kustarev_sum(
    d1: FixedPointData,
    h1: HomologyProfile | None,
    d2: FixedPointData,
    h2: HomologyProfile | None,
) -> KustarevSum:
    """Compose two circle actions along free orbits, at the bookkeeping level.

    Fixed points pass to the sum untouched (the gluing happens away from
    them), so the output dataset is the disjoint union with names prefixed
    "m1." / "m2.". For simply connected summands the sum is simply
    connected with b2 = b2_1 + b2_2 + 1 and b3 = b3_1 + b3_2; direct sums
    preserve torsion-freeness, so the torsion flag is the conjunction.
    Non-simply-connected inputs are refused rather than extrapolated.

    A profile given as h1 or h2 stands for the summand `replace(d,
    homology=h)`; None keeps the dataset's own. Each summand is validated
    with the profile the sum reads, so one whose Euler characteristic
    contradicts the point count raises InvalidData; the sum of two valid
    summands is valid by the composition formulas. The report records the
    uniqueness flag of the mod-8 gate and, when the summands are
    recognized, the diffeomorphism type of the result; the output labels
    carry the same provenance so it survives a save/load round trip.
    """
    _require_dataset(d1)
    _require_dataset(d2)
    if h1 is not None or h2 is not None:
        return kustarev_sum(d1 if h1 is None else replace(d1, homology=h1), None,
                            d2 if h2 is None else replace(d2, homology=h2), None)
    if d1.n != d2.n:
        raise WrongDimension(f"summands must have equal n, got {_shown(d1.n, str)} and "
                             f"{_shown(d2.n, str)}")
    h1, h2 = d1.homology, d2.homology
    if h1 is None or h2 is None:
        raise MissingProfile("both summands need a homology profile")
    adm = kustarev_admissible(DimensionPair(d1.n, 1))
    if not adm.exists:
        raise NotAdmissible(
            f"2n - k = {_shown(2 * d1.n - 1, str)} is not 2, 4, 5, 6 mod 8; no invariant "
            f"almost complex structure on the glue region")
    for d in (d1, d2):
        _require_valid(d)
        if not d.points:
            raise InvalidData([Violation(
                "EmptyFixedPointSet", None,
                "fiber connect sum needs summands with nonempty fixed point sets")])
    if not (h1.simply_connected and h2.simply_connected):
        raise NotSimplyConnected("composition formulas need simply connected summands")

    homology = HomologyProfile(
        simply_connected=True,
        b2=h1.b2 + h2.b2 + 1,
        b3=h1.b3 + h2.b3,
        torsion_free=h1.torsion_free and h2.torsion_free,
    )
    # both summands are valid, so the sphere test and the union skip their gates
    kinds = tuple("S^6" if _is_sphere(d) else "generic" for d in (d1, d2))
    labels = {"construction": _KUSTAREV_SUM, "summands": ",".join(kinds)}
    data = FixedPointData(d1.n, _union_points(d1, d2), homology, labels)
    diffeotype = _diffeotype(data)   # valid by the composition formulas
    report = SumReport(
        n=d1.n, k=1, exists=True, unique=adm.unique,
        b2=homology.b2, b3=homology.b3, euler=len(data.points),
        summands=kinds, diffeotype=diffeotype,
    )
    return KustarevSum(data=data, report=report)


def equivariantly_formal(profile: HomologyProfile, integral: bool = False) -> bool:
    """Whether the profile has no odd cohomology (over Q, or over Z when
    `integral`, where torsion matters too). For isolated nonempty fixed
    sets this is the equivariant formality criterion."""
    if profile is None:
        raise MissingProfile("formality needs a homology profile")
    if not isinstance(profile, HomologyProfile):
        raise BadArgument(f"expected a HomologyProfile, got {_shown(profile)}")
    if not profile.simply_connected or profile.b3 != 0:
        return False
    return profile.torsion_free if integral else True


def recognize_diffeotype(data: FixedPointData) -> str | None:
    """Name the diffeomorphism type when one of the recognition rules applies.

    The data is validated first, with the profile it carries, which is
    the one the rules read. Both rules share one precondition: an
    integrally formal profile (`equivariantly_formal(data.homology,
    integral=True)`: simply connected, torsion-free, b3 = 0), checked
    first, then n = 3 and four points; other data returns None. Then two
    exclusive rules; anything else returns None rather than guessing:

    * data that `kustarev_sum` labelled as the sum of two standard 6-spheres,
      every row of weights summing to zero, is S^4 x S^2;
    * data that matches case F is the quadric 3-fold. Only this rule
      classifies.
    """
    _require_valid(data)
    return _diffeotype(data)


def _diffeotype(data: FixedPointData) -> str | None:
    """The recognition rules of `recognize_diffeotype`, on valid data."""
    # the rules' one precondition; formality first, so profile errors keep
    # their precedence
    if not (equivariantly_formal(data.homology, integral=True) and data.n == 3
            and len(data.points) == 4):
        return None
    # the rules are exclusive (case-F rows have nonzero weight sums), so the
    # cheap provenance check goes first and spares sums a classification pass
    labels = data.labels
    if (labels.get("construction") == _KUSTAREV_SUM and labels.get("summands") == "S^6,S^6"
            and not any(sum(p.weights) for p in data.points)):
        return S4_X_S2
    if any(m.case.tag is CaseTag.F_BlC_S6 for m in _classify(data).matches):
        return QUADRIC_Q3
    return None


# ---------------------------------------------------------------------------
# collar gluing identity (the only floating-point check in the package)
# ---------------------------------------------------------------------------

CollarMap = Callable[["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"], tuple]


def _twist(z1, z2, z3, t):
    # reframing diffeomorphism of S^1 x R^5 in coordinates
    # {(z1,z2,z3,t) in C^3 x R : |z1| = 1}: multiply z2 by the base point
    return z1, z1 * z2, z3, t


def _twist_inverse(z1, z2, z3, t):
    return z1, z2 / z1, z3, t


@dataclass(frozen=True)
class GluingCheck:
    passed: bool
    samples: int
    tolerance: float
    worst_deviation: float
    seed: int

    def __bool__(self) -> bool:
        return self.passed

    def as_json_dict(self) -> dict:
        return _json_fields(self)


def verify_framing_reversal_identity(
    samples: int = 1000,
    tolerance: float = 1e-9,
    seed: int = 0,
    collar_map: CollarMap | None = None,
    collar_map_inverse: CollarMap | None = None,
    alpha: Callable[[np.ndarray], np.ndarray] | None = None,
) -> GluingCheck:
    """Sample the identity h o alpha_E o h^-1 = alpha_E on S^1 x (R^5 \\ 0).

    Here h(z1, z2, z3, t) = (z1, z1 z2, z3, t) is the reframing twist that
    turns a trivially framed tubular neighborhood of a circle into a
    nontrivially framed one, and alpha_E is the radial gluing map of the
    fiber connect sum,

        alpha_E(z1, z2, z3, t) = (z1, 0, 0, 0)
                                 + alpha(r)/r * (0, z2, z3, t),   r = |(z2, z3, t)|,

    for an orientation-reversing alpha on (0, infinity) (default 1/r).
    Because the two maps commute in this way, gluing with the nontrivial
    framing on both sides produces the same manifold as gluing with the
    trivial framing on both sides.

    The check evaluates both compositions at `samples` seeded pseudo-random
    points with radii in [0.3, 3] (keeping coordinates of order one, so
    float roundoff stays far below any sensible tolerance) and reports the
    worst componentwise deviation. It never raises on failure: a mutated
    collar map simply comes back with passed=False and the deviation it
    produced, and a NaN or infinite deviation fails too. Same seed, same
    verdict. Each collar-map hook must return (z1, z2, z3, t) as a tuple or
    list of four components; anything else is a BadArgument.
    """
    # a NaN or infinite tolerance decides nothing
    if isinstance(tolerance, bool) or not isinstance(tolerance, Real) or not 0 < tolerance < inf:
        raise BadArgument(f"tolerance must be positive and finite, got {_shown(tolerance)}")
    if not _is_int(samples) or samples < 1:
        raise BadArgument(f"need an integer number of samples >= 1, got {_shown(samples)}")
    if samples > sys.maxsize:   # numpy refuses a longer array with a bare ValueError
        raise BadArgument(f"need at most {sys.maxsize} samples, got {_shown(samples)}")
    if not _is_int(seed) or seed < 0:
        raise BadArgument(f"seed must be a nonnegative integer, got {_shown(seed)}")
    h = collar_map if collar_map is not None else _twist
    h_inv = collar_map_inverse if collar_map_inverse is not None else _twist_inverse
    radial = alpha if alpha is not None else (lambda r: 1.0 / r)

    # imported here, not at module level: numpy costs ~14 MB of resident
    # memory, and only this check needs it
    import numpy as np

    rng = np.random.default_rng(seed)
    z1 = np.exp(2j * np.pi * rng.random(samples))
    direction = rng.normal(size=(samples, 5))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = np.exp(rng.uniform(np.log(0.3), np.log(3.0), size=samples))
    vec = direction * radius[:, None]
    z2 = vec[:, 0] + 1j * vec[:, 1]
    z3 = vec[:, 2] + 1j * vec[:, 3]
    t = vec[:, 4]

    def alpha_e(p):
        pz1, pz2, pz3, pt = p
        r = np.sqrt(np.abs(pz2) ** 2 + np.abs(pz3) ** 2 + pt ** 2)
        s = radial(r) / r
        return pz1, s * pz2, s * pz3, s * pt

    def collar(hook, name, p):   # four components: zip below compares no more than it gets
        out = hook(*p)
        if isinstance(out, (tuple, list)) and len(out) == 4:
            return out
        raise BadArgument(f"{name} must return the four components (z1, z2, z3, t)")

    lhs = collar(h, "collar_map", alpha_e(collar(h_inv, "collar_map_inverse", (z1, z2, z3, t))))
    rhs = alpha_e((z1, z2, z3, t))
    # one np.max, so a NaN propagates; a hook's components may differ in shape
    worst = float(np.max([np.max(np.abs(a - b)) for a, b in zip(lhs, rhs)]))
    return GluingCheck(
        passed=worst <= tolerance,
        samples=samples,
        tolerance=tolerance,
        worst_deviation=worst,
        seed=seed,
    )
