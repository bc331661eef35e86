"""Connect-sum gates, framing parity, homology composition, gluing check."""

from __future__ import annotations

import random
import sys
from dataclasses import replace

import numpy as np
import pytest

from circle6 import (
    Admissibility,
    BadArgument,
    BadDimensions,
    DimensionPair,
    HomologyProfile,
    HomotopyGroup,
    InvalidData,
    MissingProfile,
    NotAdmissible,
    NotSimplyConnected,
    QUADRIC_Q3,
    S4_X_S2,
    SPHERE_PROFILE,
    ToolkitError,
    WrongDimension,
    c1_cubed,
    chi_y_profile,
    classify,
    dataset,
    equivariant_normal_framing_class,
    equivariantly_formal,
    gen_family,
    is_sphere_summand,
    jang_case,
    kustarev_admissible,
    kustarev_sum,
    negate_all,
    psi_flip,
    recognize_diffeotype,
    rotation_loop_class,
    stable_pi_so_mod_u,
    standard_sphere,
    todd_genus,
    validate,
    verify_framing_reversal_identity,
)
from circle6.classifier import _classify


# ---- stable homotopy table -------------------------------------------------

def test_stable_table_vanishing_residues():
    for q in range(0, 64):
        expected_zero = q % 8 in (1, 3, 4, 5)
        assert (stable_pi_so_mod_u(q) is HomotopyGroup.ZERO) == expected_zero


def test_stable_table_nonzero_entries():
    assert stable_pi_so_mod_u(0) is HomotopyGroup.Z2
    assert stable_pi_so_mod_u(2) is HomotopyGroup.Z
    assert stable_pi_so_mod_u(4) is HomotopyGroup.ZERO
    assert stable_pi_so_mod_u(5) is HomotopyGroup.ZERO
    assert stable_pi_so_mod_u(6) is HomotopyGroup.Z
    assert stable_pi_so_mod_u(7) is HomotopyGroup.Z2
    with pytest.raises(ValueError):
        stable_pi_so_mod_u(-1)


# ---- admissibility gate ------------------------------------------------------

def test_circle_actions_on_6_manifolds_are_admissible_and_unique():
    assert kustarev_admissible(DimensionPair(3, 1)) == Admissibility(True, True)


def test_8_manifolds_are_not_admissible():
    assert kustarev_admissible(DimensionPair(4, 1)) == Admissibility(False, False)


def test_2_torus_on_6_manifolds():
    assert kustarev_admissible(DimensionPair(3, 2)) == Admissibility(True, True)


def test_residue_truth_table():
    for m in range(1, 17):
        # realize slice dimension m with k = 1 or 2
        n, k = ((m + 1) // 2, 1) if m % 2 else ((m + 2) // 2, 2)
        dim = DimensionPair(n, k)
        assert dim.slice_dim == m
        adm = kustarev_admissible(dim)
        assert adm.exists == (m % 8 in (2, 4, 5, 6)), m
        assert adm.unique == (m % 8 in (4, 5)), m


@pytest.mark.parametrize("n,k", [(3, 0), (3, -1), (3, 6), (2, 7), (0, 1), (True, True),
                                 (3.0, 1), (3, "1")])
def test_bad_dimension_pairs(n, k):
    with pytest.raises(BadDimensions):
        DimensionPair(n, k)


# ---- framing parity ---------------------------------------------------------

def test_orbit_rotation_loop_is_always_even():
    for a in range(1, 8):
        for b in range(1, 8):
            assert rotation_loop_class((-a, b, a + b)) == 0


def test_single_block_loop_generates():
    assert rotation_loop_class((1,)) == 1
    assert rotation_loop_class((2, 3, 5)) == 0
    assert rotation_loop_class(()) == 0


def test_loop_class_is_additive_under_concatenation():
    rng = random.Random(3)
    for _ in range(50):
        xs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
        ys = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
        assert rotation_loop_class(xs + ys) == (
            rotation_loop_class(xs) + rotation_loop_class(ys)) % 2


def test_psi_flip_swaps_and_involutes():
    assert psi_flip(0) == 1
    assert psi_flip(1) == 0
    for x in (0, 1):
        assert psi_flip(psi_flip(x)) == x
    with pytest.raises(ValueError):
        psi_flip(2)


def test_equivariant_framing_is_always_nontrivial():
    assert equivariant_normal_framing_class(1, 1) == 1
    assert equivariant_normal_framing_class(2, 5) == 1
    assert equivariant_normal_framing_class(7, 3) == 1
    with pytest.raises(ValueError):
        equivariant_normal_framing_class(0, 1)


# ---- the sum ---------------------------------------------------------------

def test_sum_of_two_spheres():
    ks = kustarev_sum(standard_sphere(1, 2), None, standard_sphere(3, 4), None)
    assert ks.data.names() == ("m1.p1", "m1.p2", "m2.p1", "m2.p2")
    assert ks.homology == HomologyProfile(True, 1, 0, True)
    assert ks.report.unique is True
    assert ks.report.euler == 4
    assert ks.report.summands == ("S^6", "S^6")
    assert ks.report.diffeotype == S4_X_S2
    assert ks.data.labels["construction"] == "kustarev-sum"
    assert validate(ks.data) == []          # includes the euler consistency check
    assert ks.homology is ks.data.homology     # one profile, on the dataset


def test_sum_of_sphere_and_projective_space():
    cp3 = gen_family(jang_case("A", 1, 2, 3))
    cp3_profile = HomologyProfile(True, 1, 0, True)
    ks = kustarev_sum(standard_sphere(1, 1), None, cp3, cp3_profile)
    assert ks.homology.b2 == 2
    assert ks.homology.b3 == 0
    assert ks.report.euler == 6 == len(ks.data.points)
    assert ks.report.summands == ("S^6", "generic")
    assert ks.report.diffeotype is None


def test_sum_classifies_as_the_sphere_union_case():
    ks = kustarev_sum(standard_sphere(2, 3), None, standard_sphere(1, 4), None)
    result = classify(ks.data)
    assert any(m.case == jang_case("D", 2, 3, 1, 4) and not m.reversed
               for m in result.matches)


def test_sum_localization_is_additive():
    d1, d2 = standard_sphere(1, 2), gen_family(jang_case("F", 2, 1))
    f_profile = HomologyProfile(True, 1, 0, True)
    ks = kustarev_sum(d1, None, d2, f_profile)
    assert c1_cubed(ks.data) == c1_cubed(d1) + c1_cubed(d2)
    assert todd_genus(ks.data) == todd_genus(d1) + todd_genus(d2)
    assert chi_y_profile(ks.data) == [
        x + y for x, y in zip(chi_y_profile(d1), chi_y_profile(d2))]


def test_sum_gates():
    with pytest.raises(NotAdmissible):
        kustarev_sum(dataset(4, [("p", (1, 2, 3, 4))]), SPHERE_PROFILE,
                     dataset(4, [("q", (-1, -2, -3, -4))]), SPHERE_PROFILE)
    not_sc = HomologyProfile(False, 0, 0, True)
    with pytest.raises(NotSimplyConnected):
        kustarev_sum(standard_sphere(1, 1), not_sc, standard_sphere(1, 1), None)
    with pytest.raises(MissingProfile):
        kustarev_sum(standard_sphere(1, 1), None,
                     dataset(3, [("p", (1, 2, -3)), ("q", (-1, -2, 3))]), None)
    with pytest.raises(WrongDimension):
        kustarev_sum(standard_sphere(1, 1), None,
                     dataset(2, [("p", (1, -1)), ("q", (-1, 1))]), SPHERE_PROFILE)
    with pytest.raises(InvalidData):
        kustarev_sum(dataset(3, []), SPHERE_PROFILE, standard_sphere(1, 1), None)
    # a pointless summand with euler 2 + 2*b2 - b3 = 0 is valid data, and
    # the sum still refuses it
    pointless = HomologyProfile(True, 0, 2, True)
    assert validate(dataset(3, [], homology=pointless)) == []
    with pytest.raises(InvalidData) as err:
        kustarev_sum(dataset(3, []), pointless, standard_sphere(1, 1), None)
    assert [v.rule for v in err.value.violations] == ["EmptyFixedPointSet"]


def test_sum_validates_summands_against_the_composed_profiles(validate_calls):
    # a 4-point summand cannot carry the sphere's profile (euler 2)
    with pytest.raises(InvalidData) as err:
        kustarev_sum(gen_family(jang_case("D", 1, 2, 3, 4)), SPHERE_PROFILE,
                     standard_sphere(1, 1), None)
    assert [v.rule for v in err.value.violations] == ["EulerMismatch"]
    # nor a 2-point one a b2 = 1 profile; refused before any classification
    validate_calls.clear()
    sphere_like = dataset(3, [("p1", (1, 2, -3)), ("p2", (-1, -2, 3))])
    with pytest.raises(InvalidData) as err:
        kustarev_sum(sphere_like, HomologyProfile(True, 1, 0, True),
                     standard_sphere(1, 1), None)
    assert [v.rule for v in err.value.violations] == ["EulerMismatch"]
    assert len(validate_calls) == 1


def _outcome(call):
    try:
        return call()
    except ToolkitError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("profile", [
    SPHERE_PROFILE, HomologyProfile(True, 1, 0, True), HomologyProfile(False, 0, 0, True),
    HomologyProfile(True, 0, 0, False), HomologyProfile(1, 0, 0, True), "x",
], ids=repr)
def test_a_given_profile_is_the_summand_with_that_profile(profile):
    left = standard_sphere(1, 2)
    right = dataset(3, [("p", (1, 2, -3)), ("q", (-1, -2, 3))])
    assert (_outcome(lambda: kustarev_sum(left, None, right, profile))
            == _outcome(lambda: kustarev_sum(left, None, replace(right, homology=profile), None)))
    assert (_outcome(lambda: kustarev_sum(right, profile, left, None))
            == _outcome(lambda: kustarev_sum(replace(right, homology=profile), None, left, None)))


def test_torsion_flag_is_conjunction():
    torsion = HomologyProfile(True, 0, 0, False)
    sphere_like = dataset(3, [("p1", (1, 2, -3)), ("p2", (-1, -2, 3))])
    ks = kustarev_sum(sphere_like, torsion, standard_sphere(1, 1), None)
    assert ks.homology.torsion_free is False
    assert ks.report.summands[0] == "generic"  # torsion disqualifies the sphere shape
    assert ks.report.diffeotype is None


def test_is_sphere_summand():
    assert is_sphere_summand(standard_sphere(3, 7))
    reordered = dataset(3, [("x", (-4, 1, 3)), ("y", (4, -1, -3))], homology=SPHERE_PROFILE)
    assert is_sphere_summand(reordered)
    assert not is_sphere_summand(replace(gen_family(jang_case("F", 1, 1)),
                                         homology=HomologyProfile(True, 1, 0, True)))
    assert not is_sphere_summand(replace(standard_sphere(1, 1), homology=None))
    three = dataset(3, [("x", (1, 2, -3)), ("y", (-1, -2, 3)), ("z", (1, 1, -2))],
                    homology=SPHERE_PROFILE)
    assert not is_sphere_summand(three)


def test_a_two_point_n2_action_is_not_a_sphere_summand():
    assert not is_sphere_summand(dataset(2, [("x", (1, -1)), ("y", (-1, 1))],
                                         homology=SPHERE_PROFILE))


# valid two-point summands with n = 7, where 2n - 1 = 13 = 5 mod 8 admits the
# sum; the diffeotype rules name 6-manifolds only

def test_a_sum_of_generic_n7_summands_is_not_recognized():
    generic = dataset(7, [("p", (1, 2, 3, -6, 1, 2, -4)), ("q", (-1, -2, -3, 6, -1, -2, 4))],
                      homology=SPHERE_PROFILE)
    ks = kustarev_sum(generic, None, generic, None)
    assert ks.report.summands == ("generic", "generic")
    assert ks.report.diffeotype is None


def test_a_sum_of_zero_sum_n7_summands_is_not_s4_x_s2():
    zero_sum = dataset(7, [("p", (1, 2, 3, -6, 1, 2, -3)), ("q", (-1, -2, -3, 6, -1, -2, 3))],
                       homology=SPHERE_PROFILE)
    ks = kustarev_sum(zero_sum, None, negate_all(zero_sum), None)
    assert ks.report.summands == ("generic", "generic")
    assert ks.report.diffeotype is None
    assert recognize_diffeotype(ks.data) is None


def test_recognition_of_four_point_n2_data_is_none():
    d = dataset(2, [("a", (1, -1)), ("b", (-1, 1)), ("c", (2, -2)), ("d", (-2, 2))])
    assert recognize_diffeotype(replace(d, homology=HomologyProfile(True, 1, 0, True))) is None
    with pytest.raises(MissingProfile):     # profile errors come first
        recognize_diffeotype(d)


def test_iterated_sums_keep_names_unique():
    ks1 = kustarev_sum(standard_sphere(1, 2), None, standard_sphere(1, 1), None)
    ks2 = kustarev_sum(ks1.data, None, standard_sphere(2, 3), None)
    assert len(set(ks2.data.names())) == 6
    assert ks2.homology.b2 == 2
    assert ks2.report.summands == ("generic", "S^6")


# ---- formality --------------------------------------------------------------

def test_formality():
    assert equivariantly_formal(SPHERE_PROFILE)
    assert equivariantly_formal(SPHERE_PROFILE, integral=True)
    assert not equivariantly_formal(HomologyProfile(True, 1, 2, True))
    assert not equivariantly_formal(HomologyProfile(False, 0, 0, True))
    assert equivariantly_formal(HomologyProfile(True, 0, 0, False))
    assert not equivariantly_formal(HomologyProfile(True, 0, 0, False), integral=True)
    with pytest.raises(MissingProfile):
        equivariantly_formal(None)
    ks = kustarev_sum(standard_sphere(1, 1), None, standard_sphere(2, 1), None)
    assert equivariantly_formal(ks.homology, integral=True)


def test_recognition_classifies_only_on_a_formal_profile(monkeypatch):
    calls = []

    def counting_classify(data):
        calls.append(data)
        return _classify(data)

    # patched where recognize_diffeotype looks up the classifier's entry
    # for data it has already validated
    monkeypatch.setitem(recognize_diffeotype.__globals__, "_classify", counting_classify)
    d = gen_family(jang_case("F", 1, 1))
    for not_formal in (HomologyProfile(True, 2, 2, True), HomologyProfile(True, 1, 0, False)):
        assert recognize_diffeotype(replace(d, homology=not_formal)) is None
    assert calls == []
    formal = replace(d, homology=HomologyProfile(True, 1, 0, True))
    assert recognize_diffeotype(formal) == QUADRIC_Q3
    assert calls == [formal]



@pytest.mark.parametrize("data, euler_12_or_16, name", [
    pytest.param(gen_family(jang_case("F", 1, 1)), HomologyProfile(True, 5, 0, True),
                 QUADRIC_Q3, id="case F"),
    pytest.param(kustarev_sum(standard_sphere(1, 2), None, standard_sphere(2, 3), None).data,
                 HomologyProfile(True, 7, 0, True), S4_X_S2, id="two-sphere sum"),
])
def test_recognition_refuses_a_profile_that_contradicts_the_points(data, euler_12_or_16, name):
    # the rules read the profile that validation checks, so a profile whose
    # Euler characteristic is not the 4 fixed points names nothing
    with pytest.raises(InvalidData) as err:
        recognize_diffeotype(replace(data, homology=euler_12_or_16))
    assert [v.rule for v in err.value.violations] == ["EulerMismatch"]
    assert recognize_diffeotype(replace(data, homology=HomologyProfile(True, 1, 0, True))) == name


def test_recognition_validates_the_data_first():
    # the case-C member at a = 0 carries zero weights: it is refused on a
    # formal and on a non-formal profile, and sum labels do not vouch for it
    bad = gen_family(jang_case("C", 0))
    labels = kustarev_sum(standard_sphere(1, 1), None, standard_sphere(1, 2), None).data.labels
    for d in (bad, replace(bad, labels=labels)):
        for profile in (HomologyProfile(True, 1, 0, True), HomologyProfile(True, 2, 2, True)):
            with pytest.raises(InvalidData):
                recognize_diffeotype(replace(d, homology=profile))


# the labels a real two-sphere sum writes, and its profile b2 = 1
_SUM = kustarev_sum(standard_sphere(1, 2), None, standard_sphere(2, 3), None).data
_B2 = HomologyProfile(True, 1, 0, True)


@pytest.mark.parametrize("data, name", [
    pytest.param(standard_sphere(1, 2), None, id="two points"),
    pytest.param(replace(gen_family(jang_case("A", 1, 2, 3)), homology=_B2), None, id="case A"),
    pytest.param(replace(gen_family(jang_case("F", 1, 2)), homology=_B2), QUADRIC_Q3,
                 id="case F"),
    pytest.param(replace(_SUM, homology=HomologyProfile(True, 2, 2, True)), None, id="b3 = 2"),
    pytest.param(replace(_SUM, homology=HomologyProfile(True, 1, 0, False)), None, id="torsion"),
])
def test_sum_labels_name_only_formal_four_point_data_with_zero_sum_rows(data, name):
    assert recognize_diffeotype(replace(data, labels=_SUM.labels)) == name


# ---- gluing identity ---------------------------------------------------------

def test_gluing_identity_holds():
    check = verify_framing_reversal_identity(samples=1000, tolerance=1e-9, seed=7)
    assert check.passed
    assert check                  # a check is true exactly when it passed
    assert check.worst_deviation < 1e-12


def test_gluing_check_is_deterministic_per_seed():
    a = verify_framing_reversal_identity(samples=500, tolerance=1e-9, seed=11)
    b = verify_framing_reversal_identity(samples=500, tolerance=1e-9, seed=11)
    assert a == b


def test_gluing_identity_for_other_radial_maps():
    for alpha in (lambda r: 2.0 / r, lambda r: 1.0 / r**3):
        check = verify_framing_reversal_identity(samples=400, tolerance=1e-9,
                                                 seed=5, alpha=alpha)
        assert check.passed, check


def test_mutated_collar_map_fails():
    def stretched(z1, z2, z3, t):
        return z1, z1 * z2, 2.0 * z3, t

    def stretched_inverse(z1, z2, z3, t):
        return z1, z2 / z1, z3 / 2.0, t

    check = verify_framing_reversal_identity(
        samples=400, tolerance=1e-9, seed=5,
        collar_map=stretched, collar_map_inverse=stretched_inverse)
    assert not check.passed
    assert not check
    assert check.worst_deviation > 1e-3


def test_phase_twisted_collar_is_the_same_map():
    # conj(z1) * z2 * z1^2 equals z1 * z2 on |z1| = 1, so this "mutation"
    # does not change the map at all and the identity still holds
    def twisted(z1, z2, z3, t):
        return z1, np.conj(z1) * z2 * z1**2, z3, t

    def twisted_inverse(z1, z2, z3, t):
        return z1, z2 / z1, z3, t

    check = verify_framing_reversal_identity(
        samples=400, tolerance=1e-9, seed=5,
        collar_map=twisted, collar_map_inverse=twisted_inverse)
    assert check.passed


@pytest.mark.parametrize("hooks", [
    pytest.param({"collar_map": lambda z1, z2, z3, t: (z1, np.nan * z2, z3, t),
                  "collar_map_inverse": lambda z1, z2, z3, t: (z1, np.nan * z2, z3, t)},
                 id="collar map"),
    pytest.param({"alpha": lambda r: np.where(r > 1, np.nan, 1.0 / r)}, id="alpha"),
])
def test_a_nan_deviation_fails_the_check(hooks):
    check = verify_framing_reversal_identity(samples=400, seed=5, **hooks)
    assert check.passed is False
    assert np.isnan(check.worst_deviation)


@pytest.mark.parametrize("hook", ["collar_map", "collar_map_inverse"])
@pytest.mark.parametrize("returns", [
    pytest.param(lambda z1, z2, z3, t: (z1, z1 * z2), id="two components"),
    pytest.param(lambda z1, z2, z3, t: (), id="no components"),
    pytest.param(lambda z1, z2, z3, t: (z1, z2, z3, t, t), id="five components"),
    pytest.param(lambda z1, z2, z3, t: z1, id="one array"),
])
def test_a_collar_map_must_return_four_components(hook, returns):
    # zip would compare only as many components as the hook returns
    with pytest.raises(BadArgument, match=f"{hook} must return the four components"):
        verify_framing_reversal_identity(samples=50, **{hook: returns})


@pytest.mark.parametrize("call", [
    lambda: stable_pi_so_mod_u(2.5),
    lambda: stable_pi_so_mod_u(True),
    lambda: standard_sphere(None, 1),
    lambda: standard_sphere(1.5, 2),
    lambda: standard_sphere(True, 1),
    lambda: equivariant_normal_framing_class("a", 2),
    lambda: equivariant_normal_framing_class(1.5, 2),
    lambda: psi_flip(1.0),
    lambda: psi_flip(False),
    lambda: verify_framing_reversal_identity(samples=2.5),
    lambda: verify_framing_reversal_identity(seed=1.5),
    lambda: verify_framing_reversal_identity(tolerance="x"),
    lambda: verify_framing_reversal_identity(tolerance=True),
    lambda: rotation_loop_class((1.5, 2)),
    lambda: rotation_loop_class("ab"),
    lambda: rotation_loop_class(3),
    lambda: kustarev_sum(standard_sphere(1, 1), "x", standard_sphere(1, 1), None),
], ids=["pi-float", "pi-bool", "sphere-none", "sphere-float", "sphere-bool",
        "framing-str", "framing-float", "flip-float", "flip-bool", "samples-float",
        "seed-float", "tolerance-str", "tolerance-bool", "loop-float", "loop-str",
        "loop-int", "sum-profile-str"])
def test_non_integer_arguments_are_bad_arguments(call):
    with pytest.raises(BadArgument):
        call()


def test_gluing_check_argument_validation():
    with pytest.raises(ValueError):
        verify_framing_reversal_identity(samples=0)
    with pytest.raises(ValueError):
        verify_framing_reversal_identity(tolerance=0.0)
    # numpy refuses an array longer than sys.maxsize with a bare ValueError;
    # lengths within the bound are not tried, since they allocate the array
    for samples in (sys.maxsize + 1, 2 ** 64, 10 ** 21):
        with pytest.raises(BadArgument) as err:
            verify_framing_reversal_identity(samples=samples)
        assert str(err.value) == f"need at most {sys.maxsize} samples, got {samples}"
