"""Localized invariants: exactness, worked values, symmetry properties."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circle6 import (
    BadParams,
    CaseTag,
    InvalidData,
    NonIntegralChernNumber,
    WrongDimension,
    c1_cubed,
    chern_report,
    chi_y_profile,
    dataset,
    disjoint_union,
    gen_family,
    jang_case,
    negate_all,
    param_names,
    todd_genus,
)
from conftest import sphere_data


# weight rows with every weight sum zero contribute nothing
def test_c1_cubed_vanishes_when_every_weight_sum_is_zero():
    assert c1_cubed(sphere_data(1, 2)) == 0


def test_c1_cubed_of_curve_blowup_family_member():
    # (-a-b, 2a+b, b), ... at a = b = 1
    d = dataset(3, [("p1", (-2, 3, 1)), ("p2", (-3, 1, 1)),
                    ("p3", (-1, -3, 2)), ("p4", (-1, -1, 3))])
    assert c1_cubed(d) == -2


def test_c1_cubed_term_by_term():
    # the four points of the projective-space family at (1, 2, 3) contribute
    # 36 - 4 - 4 + 36 = 64, checkable one point at a time
    rows = [("p1", (1, 2, 3)), ("p2", (-1, 1, 2)), ("p3", (-2, -1, 1)), ("p4", (-3, -2, -1))]
    terms = [c1_cubed(dataset(3, [row])) for row in rows]
    assert terms == [36, -4, -4, 36]
    assert c1_cubed(dataset(3, rows)) == 64


def test_chi_y_profile_counts_negative_weights():
    rows = [("p1", (1, 2, 3)), ("p2", (-1, 1, 2)), ("p3", (-2, -1, 1)), ("p4", (-3, -2, -1))]
    assert chi_y_profile(dataset(3, rows)) == [1, 1, 1, 1]
    assert chi_y_profile(sphere_data(1, 2)) == [0, 1, 1, 0]
    assert chi_y_profile(dataset(3, [])) == [0, 0, 0, 0]


def test_todd_genus_is_the_all_positive_count():
    rows = [("p1", (1, 2, 3)), ("p2", (-1, 1, 2)), ("p3", (-2, -1, 1)), ("p4", (-3, -2, -1))]
    assert todd_genus(dataset(3, rows)) == 1
    assert todd_genus(sphere_data()) == 0
    assert todd_genus(dataset(3, [("p1", (-2, 3, 1)), ("p2", (-3, 1, 1)),
                                  ("p3", (-1, -3, 2)), ("p4", (-1, -1, 3))])) == 0


def test_chern_report_full_fields():
    d = dataset(3, [("p1", (-2, 3, 1)), ("p2", (-3, 1, 1)),
                    ("p3", (-1, -3, 2)), ("p4", (-1, -1, 3))])
    rep = chern_report(d)
    assert rep.c1_cubed == -2
    assert rep.todd == 0
    assert rep.c1c2 == 0
    assert rep.euler == 4
    assert rep.chi_y_coeffs == (0, 2, 2, 0)
    assert rep.as_json_dict()["c1_cubed"] == "-2/1"


def test_chern_report_rejects_non_integral_sum():
    single = dataset(3, [("p", (1, 2, 4))])  # 7^3 / 8 is not an integer
    assert c1_cubed(single) == Fraction(343, 8)
    with pytest.raises(NonIntegralChernNumber) as err:
        chern_report(single)
    assert err.value.value == Fraction(343, 8)
    # while (1, 1, 2) gives 64 / 2 = 32, which passes
    assert chern_report(dataset(3, [("p", (1, 1, 2))])).c1_cubed == 32


def test_two_spheres_concatenated():
    rep = chern_report(disjoint_union(sphere_data(1, 2), sphere_data(1, 2)))
    assert (rep.c1_cubed, rep.todd, rep.euler) == (0, 0, 4)


def test_errors():
    with pytest.raises(InvalidData):
        c1_cubed(dataset(3, [("p", (0, 1, 2))]))
    with pytest.raises(WrongDimension):
        c1_cubed(dataset(2, [("p", (1, 2))]))
    # chi_y is dimension-agnostic
    assert chi_y_profile(dataset(2, [("p", (1, -2))])) == [0, 1, 0]


# ---- properties ----------------------------------------------------------

def _random_valid(rng: random.Random, k: int = 4):
    rows = [(f"p{i}", tuple(rng.choice([-7, -3, -2, -1, 1, 2, 3, 5]) for _ in range(3)))
            for i in range(k)]
    return dataset(3, rows)


def test_chi_y_is_permutation_invariant():
    rng = random.Random(23)
    for _ in range(30):
        d = _random_valid(rng)
        rows = [(p.name, tuple(rng.sample(p.weights, 3))) for p in d.points]
        rng.shuffle(rows)
        assert chi_y_profile(dataset(3, rows)) == chi_y_profile(d)
        assert c1_cubed(dataset(3, rows)) == c1_cubed(d)


def test_reversing_the_action_reverses_the_profile():
    rng = random.Random(29)
    for _ in range(30):
        d = _random_valid(rng, k=rng.randint(0, 5))
        assert chi_y_profile(negate_all(d)) == chi_y_profile(d)[::-1]


def test_euler_always_counts_fixed_points():
    rng = random.Random(31)
    for _ in range(30):
        k = rng.randint(0, 6)
        d = _random_valid(rng, k=k)
        assert sum(chi_y_profile(d)) == k


@st.composite
def integral_data(draw):
    """A standard sphere or a family member, possibly reversed: data whose
    c1^3 sum is an integer, so chern_report answers."""
    if draw(st.booleans()):
        d = sphere_data(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    else:
        tag = draw(st.sampled_from(list(CaseTag)))
        lo = -5 if tag is CaseTag.C_Fano else 1
        params = draw(st.lists(st.integers(lo, 5).filter(bool),
                               min_size=len(param_names(tag)),
                               max_size=len(param_names(tag))))
        try:
            d = gen_family(jang_case(tag, *params))
        except BadParams:
            assume(False)
    return negate_all(d) if draw(st.booleans()) else d


@settings(max_examples=150, deadline=None)
@given(d1=integral_data(), d2=integral_data())
def test_chern_report_is_additive_over_disjoint_union(d1, d2):
    r1, r2 = chern_report(d1), chern_report(d2)
    union = chern_report(disjoint_union(d1, d2))
    assert union.c1_cubed == r1.c1_cubed + r2.c1_cubed
    assert union.todd == r1.todd + r2.todd
    assert union.c1c2 == r1.c1c2 + r2.c1c2
    assert union.euler == r1.euler + r2.euler
    assert union.chi_y_coeffs == tuple(
        x + y for x, y in zip(r1.chi_y_coeffs, r2.chi_y_coeffs))
