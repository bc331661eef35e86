"""Family generation and the inverse matching problem."""

from __future__ import annotations

import random
from dataclasses import replace
from functools import cache
from itertools import permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circle6 import (
    BadParams,
    CaseTag,
    HomologyProfile,
    InvalidData,
    MissingProfile,
    QUADRIC_Q3,
    S4_X_S2,
    SPHERE_PROFILE,
    WrongDimension,
    WrongPointCount,
    classify,
    dataset,
    gen_family,
    jang_case,
    kustarev_sum,
    negate_all,
    param_names,
    recognize_diffeotype,
    standard_sphere,
    todd_genus,
    validate,
)
from conftest import random_symmetric_dataset

ALL_TAGS = list(CaseTag)


def _multisets(data):
    return sorted(sorted(p.weights) for p in data.points)


# ---- generation ----------------------------------------------------------

def test_projective_space_family():
    d = gen_family(jang_case("A", 1, 2, 3))
    assert _multisets(d) == _multisets(dataset(3, [
        ("q1", (1, 2, 3)), ("q2", (-1, 1, 2)), ("q3", (-2, -1, 1)), ("q4", (-3, -2, -1))]))


def test_sphere_union_family():
    d = gen_family(jang_case("D", 1, 2, 3, 4))
    assert d.weight_rows() == ((1, 2, -3), (-1, -2, 3), (3, 4, -7), (-3, -4, 7))


def test_curve_blowup_family():
    d = gen_family(jang_case("F", 1, 1))
    assert d.weight_rows() == ((-2, 3, 1), (-3, 1, 1), (-1, -3, 2), (-1, -1, 3))


@pytest.mark.parametrize("tag,params", [
    ("A", (1, 1, 2)),      # distinctness
    ("A", (0, 1, 2)),      # positivity
    ("B", (1,)),           # arity
    ("B", (0, 1)),
    ("D", (1, 2, 3, -4)),
    ("E", (1, 0)),
    ("F", (1, 2, 3)),      # arity
])
def test_bad_params_rejected(tag, params):
    with pytest.raises(BadParams):
        gen_family(jang_case(tag, *params))


@pytest.mark.parametrize("params", [(1.0, 2), (True, 2), ("1", 2)])
def test_non_integer_params_rejected(params):
    with pytest.raises(BadParams, match="integers"):
        gen_family(jang_case("F", *params))


def test_unknown_case_tag_is_bad_params():
    with pytest.raises(BadParams, match="unknown case tag"):
        jang_case("Z")


def test_case_c_takes_any_integer_even_zero():
    assert gen_family(jang_case("C", -5)).weight_rows()[1] == (-1, 1, -5)
    # a = 0 is accepted syntactically, but the generated data carries zero
    # weights and is refused by validation downstream
    degenerate = gen_family(jang_case("C", 0))
    assert any(v.rule == "ZeroWeight" for v in validate(degenerate))


def test_templates_are_affine_in_the_parameters():
    # the matcher derives linear forms from the family functions by probing;
    # affineness is what makes that sound
    from circle6.classifier import _FAMILIES, _affine_forms
    rng = random.Random(17)
    for tag, (names, fn, _) in _FAMILIES.items():
        k = len(names)
        forms = _affine_forms(fn, k)
        for _ in range(20):
            params = [rng.randint(-9, 9) for _ in range(k)]
            rows = fn(*params)
            for s in range(4):
                for e in range(3):
                    coeffs, const = forms[s][e]
                    assert rows[s][e] == const + sum(c * p for c, p in zip(coeffs, params))


def test_pinning_slots_are_derived_from_the_templates():
    from circle6.classifier import _FAMILIES, _PLANS, _affine_forms
    slots = {tag.letter: tuple(pin.slot for pin in plan.pins) for tag, plan in _PLANS.items()}
    assert slots == {"A": (0,), "B": (1,), "C": (1,), "D": (0, 2), "E": (0,), "F": (1,)}
    # the sign prefilter: case A's slot 0 is the all-positive point, case D
    # pins points of sign pattern (+, +, -), case C forces only constants
    assert _PLANS[CaseTag.A_CP3].pins[0].keys == {(True, True, True)}
    assert [pin.keys for pin in _PLANS[CaseTag.D_S6_union].pins] == [
        {(True, True, False)}, {(True, True, False)}]
    assert _PLANS[CaseTag.C_Fano].pins[0].keys == {(False, True, True), (False, True, False)}
    # the self-check's premise: every entry of a pinned slot depends only
    # on the parameters that pin reads
    for tag, plan in _PLANS.items():
        names, fn, _ = _FAMILIES[tag]
        forms = _affine_forms(fn, len(names))
        for pin in plan.pins:
            read = {i for _, i, _ in pin.reads}
            used = {i for coeffs, _ in forms[pin.slot] for i, c in enumerate(coeffs) if c}
            assert used <= read, (tag, pin.slot)


def test_every_case_reads_each_parameter_exactly_once():
    from circle6.classifier import _PLANS
    for tag, plan in _PLANS.items():
        read = sorted(i for pin in plan.pins for _, i, _ in pin.reads)
        assert read == list(range(len(param_names(tag)))), tag
    # case B reads -a and b off slot 1
    assert _PLANS[CaseTag.B_Q3].pins[0].reads == ((0, 0, -1), (1, 1, 1))


def test_a_parameter_no_entry_reads_fails_the_plan(monkeypatch):
    from circle6 import classifier
    monkeypatch.setitem(classifier._FAMILIES, CaseTag.C_Fano, (("a",), lambda a: (
        (1, 2, 3), (-1, 1, a + 1), (-1, 1, -a - 1), (-1, -2, -3)), False))
    with pytest.raises(ValueError, match="reads"):
        classifier._plan(CaseTag.C_Fano)


def test_a_slot_depending_on_a_parameter_it_does_not_read_is_not_pinned(monkeypatch):
    # slot 0 reads a and b but its last entry also depends on c, so it is
    # not a function of exactly what it reads; slots 1 and 2 are, and the
    # matcher still recovers the member's parameters off them
    from circle6 import classifier
    def fn(a, b, c, d):
        return (a, b, -a - b - c), (-a, -b, a + b), (c, d, -c - d), (-c, -d, c + d)
    monkeypatch.setitem(classifier._FAMILIES, CaseTag.D_S6_union, (("a", "b", "c", "d"), fn, True))
    plan = classifier._plan(CaseTag.D_S6_union)
    assert tuple(pin.slot for pin in plan.pins) == (1, 2)
    assert (2, 3, 9, 4) in classifier._candidates(plan, fn(2, 3, 9, 4))


@pytest.mark.parametrize("tag, template", [
    # case A with slot 1 = (a, b - a, c - a): its member at (1, 2, 3) has
    # two all-positive points, not the one slot 0 counts
    (CaseTag.A_CP3, (("a", "b", "c"), lambda a, b, c: (
        (a, b, c), (a, b - a, c - a), (-b, a - b, c - b), (-c, a - c, b - c)), True)),
    # case D with slot 0 = (a, b, c - a - b): signs +, + and undetermined
    (CaseTag.D_S6_union, (("a", "b", "c", "d"), lambda a, b, c, d: (
        (a, b, c - a - b), (-a, -b, a + b), (c, d, -c - d), (-c, -d, c + d)), True)),
])
def test_a_slot_neither_all_positive_nor_forced_negative_fails_the_plan(monkeypatch, tag, template):
    # n0 counts the all-positive slots as the Todd genus of every member,
    # which needs every other slot to carry a forced-negative entry
    from circle6 import classifier
    monkeypatch.setitem(classifier._FAMILIES, tag, template)
    with pytest.raises(ValueError, match="forced-negative"):
        classifier._plan(tag)


def test_reading_the_pinned_slots_recovers_the_parameters():
    from circle6.classifier import _FAMILIES, _PLANS, _admissible
    rng = random.Random(31)
    for _ in range(600):
        tag = rng.choice(ALL_TAGS)
        k = len(param_names(tag))
        lo = -40 if tag is CaseTag.C_Fano else 1
        params = tuple(rng.randint(lo, 40) for _ in range(k))
        if not _admissible(tag, _FAMILIES[tag][2], params):
            continue
        rows = gen_family(jang_case(tag, *params)).weight_rows()
        read = {i: sign * rows[pin.slot][e]
                for pin in _PLANS[tag].pins for e, i, sign in pin.reads}
        assert tuple(read[i] for i in range(k)) == params, (tag, params)


# ---- classification ------------------------------------------------------

def test_round_trip_recovers_case_and_params():
    samples = [
        ("A", (2, 5, 9)), ("B", (1, 1)), ("B", (3, 2)), ("C", (4,)), ("C", (-7,)),
        ("D", (1, 2, 1, 1)), ("D", (2, 2, 2, 2)), ("E", (1, 2)), ("E", (4, 1)),
        ("F", (2, 3)), ("F", (5, 5)),
    ]
    for letter, params in samples:
        case = jang_case(letter, *params)
        result = classify(gen_family(case))
        assert any(m.case == case and not m.reversed for m in result.matches), (letter, params)


def test_matching_is_exhaustive_for_the_worked_example():
    d = dataset(3, [("p1", (1, 2, -3)), ("p2", (-1, -2, 3)),
                    ("p3", (1, 1, -2)), ("p4", (-1, -1, 2))])
    result = classify(d)
    assert any(m.case == jang_case("D", 1, 2, 1, 1) for m in result.matches)
    # halves can be swapped, so the transposed parameters match too
    assert any(m.case == jang_case("D", 1, 1, 1, 2) for m in result.matches)


def test_all_positive_data_matches_nothing():
    d = dataset(3, [("p1", (1, 1, 1)), ("p2", (2, 2, 2)),
                    ("p3", (3, 3, 3)), ("p4", (4, 4, 4))])
    assert classify(d).matches == ()
    assert not classify(d)        # a result is true exactly when something matched
    assert classify(gen_family(jang_case("F", 1, 1)))


def test_reversed_family_is_found_with_the_flag_set():
    for letter, params in [("E", (2, 5)), ("E", (1, 3)), ("B", (2, 1))]:
        data = negate_all(gen_family(jang_case(letter, *params)))
        result = classify(data)
        match = [m for m in result.matches if m.case == jang_case(letter, *params)]
        assert any(m.reversed for m in match), (letter, params)
    # blow-up-at-a-point families are chirally asymmetric: the reversed data
    # matches in no other way
    data = negate_all(gen_family(jang_case("E", 2, 5)))
    assert all(m.reversed for m in classify(data).matches)


def test_projective_space_data_also_fits_the_fano_family():
    # the same weight data arises as case A at (1,2,3) and case C at a = 2;
    # every match is reported
    result = classify(gen_family(jang_case("A", 1, 2, 3)))
    assert jang_case("A", 1, 2, 3) in [m.case for m in result.matches]
    assert jang_case("C", 2) in [m.case for m in result.matches]


def test_classification_is_invariant_under_shuffles():
    rng = random.Random(41)
    base = gen_family(jang_case("E", 3, 2))
    expected = {(m.case.tag, m.case.params, m.reversed) for m in classify(base).matches}
    for _ in range(5):
        rows = [(p.name, tuple(rng.sample(p.weights, 3))) for p in base.points]
        rng.shuffle(rows)
        rows = [(f"v{i}", ws) for i, (_, ws) in enumerate(rows)]
        shuffled = classify(dataset(3, rows))
        assert {(m.case.tag, m.case.params, m.reversed) for m in shuffled.matches} == expected


def test_matches_are_deduplicated_and_sorted():
    result = classify(gen_family(jang_case("D", 1, 2, 3, 4)))
    keys = [(m.case.tag, m.case.params, m.reversed) for m in result.matches]
    assert len(keys) == len(set(keys))
    assert keys == sorted(keys, key=lambda k: (k[0].value, k[1], k[2]))


def test_assignment_maps_slots_to_point_names():
    d = gen_family(jang_case("F", 2, 7))
    m = [m for m in classify(d).matches if m.case == jang_case("F", 2, 7)][0]
    regenerated = gen_family(m.case)
    by_name = {p.name: p.weights for p in d.points}
    for slot, name in enumerate(m.assignment):
        assert sorted(by_name[name]) == sorted(regenerated.points[slot].weights)


def test_todd_genus_per_family():
    expected = {"A": 1, "B": 1, "C": 1, "D": 0, "E": 0, "F": 0}
    cases = [("A", (2, 3, 9)), ("B", (2, 3)), ("C", (5,)),
             ("D", (1, 2, 3, 4)), ("E", (2, 3)), ("F", (4, 1))]
    from circle6.classifier import _PLANS
    for letter, params in cases:
        case = jang_case(letter, *params)
        assert todd_genus(gen_family(case)) == expected[letter]
        # the all-positive slot count derived from the forced signs
        assert _PLANS[case.tag].n0 == expected[letter]


def test_chern_number_key_per_family():
    # the frozen c1^3 constants; case C varies as 72 - 2a^2 and is not keyed
    from circle6.classifier import _PLANS
    expected = {"A": 64, "B": 54, "C": None, "D": 0, "E": -8, "F": -2}
    assert {tag.letter: plan.c1 for tag, plan in _PLANS.items()} == expected


def test_each_keyed_template_has_constant_chern_number():
    # the key is sampled off a few members; symbolically, the c1^3 sum of
    # every keyed template is that constant, so the key never drops a
    # true match, and case C's sum depends on its parameter
    sympy = pytest.importorskip("sympy")
    from circle6.classifier import _FAMILIES, _PLANS
    for tag, (names, fn, _) in _FAMILIES.items():
        symbols = sympy.symbols(names)
        total = sympy.cancel(sympy.together(
            sum(sum(ws) ** 3 / sympy.Mul(*ws) for ws in fn(*symbols))))
        if tag is CaseTag.C_Fano:
            assert _PLANS[tag].c1 is None
            assert sympy.expand(total - (72 - 2 * symbols[0] ** 2)) == 0
        else:
            assert total == _PLANS[tag].c1, tag


def test_classify_input_gates():
    with pytest.raises(WrongPointCount):
        classify(dataset(3, [("p1", (1, 2, -3)), ("p2", (-1, -2, 3)), ("p3", (1, 1, -2))]))
    with pytest.raises(InvalidData):
        classify(dataset(3, [("p1", (0, 2, -3))] + [(f"q{i}", (1, 2, -3)) for i in range(3)]))
    with pytest.raises(WrongDimension):
        classify(dataset(2, [("p1", (1, -1)), ("p2", (-1, 1)), ("p3", (2, -2)), ("p4", (-2, 2))]))


def test_param_names():
    assert param_names("A") == ("a", "b", "c")
    assert param_names("C") == ("a",)
    assert param_names("D") == ("a", "b", "c", "d")


# ---- classification against a brute-force reference -----------------------

# Every family parameter is (up to sign) a weight entry of its family member,
# so data whose weights are bounded by M can only match parameters in
# [1, M] (case C: [-M, M] without 0). Tabulating every such member, reversed
# or not, gives the full answer for all data with |w| <= M.
TABLE_BOUND = 12


def _key(rows):
    return tuple(sorted(tuple(sorted(ws)) for ws in rows))


@cache
def _reference_table():
    table: dict = {}
    for tag in CaseTag:
        k = len(param_names(tag))
        values = (range(-TABLE_BOUND, TABLE_BOUND + 1) if tag is CaseTag.C_Fano
                  else range(1, TABLE_BOUND + 1))
        for params in product(values, repeat=k):
            try:
                rows = gen_family(jang_case(tag, *params)).weight_rows()
            except BadParams:
                continue
            if any(w == 0 for ws in rows for w in ws):
                continue
            for rev in (False, True):
                signed = [tuple(-w for w in ws) for ws in rows] if rev else rows
                table.setdefault(_key(signed), set()).add((tag, params, rev))
    return table


def _check_against_reference(data):
    assert max(abs(w) for p in data.points for w in p.weights) <= TABLE_BOUND
    result = classify(data)
    got = {(m.case.tag, m.case.params, m.reversed) for m in result.matches}
    assert got == _reference_table().get(_key(data.weight_rows()), set()), data
    by_name = {p.name: sorted(p.weights) for p in data.points}
    for m in result.matches:
        assert sorted(m.assignment) == sorted(by_name)
        sign = -1 if m.reversed else 1
        for slot, ws in enumerate(gen_family(m.case).weight_rows()):
            assert by_name[m.assignment[slot]] == sorted(sign * w for w in ws)


def test_classify_agrees_with_the_table_on_all_sphere_sums():
    for a, b, c, d in product(range(1, 7), repeat=4):
        _check_against_reference(dataset(3, [
            ("p1", (a, b, -a - b)), ("p2", (-a, -b, a + b)),
            ("p3", (c, d, -c - d)), ("p4", (-c, -d, c + d))]))


def _random_inputs():
    rng = random.Random(23)
    nonzero = [w for w in range(-4, 5) if w]
    return [dataset(3, [(f"p{i}", tuple(rng.choice(nonzero) for _ in range(3)))
                        for i in range(4)]) for _ in range(400)]


def _member_inputs():
    rng = random.Random(29)
    members = sorted(key for key in _reference_table()
                     if max(abs(w) for ws in key for w in ws) <= TABLE_BOUND)
    inputs = []
    for key in rng.sample(members, 300):
        rows = [tuple(rng.sample(ws, 3)) for ws in key]
        rng.shuffle(rows)
        inputs.append(dataset(3, [(f"p{i}", ws) for i, ws in enumerate(rows)]))
    return inputs


def test_classify_agrees_with_the_table_on_random_data():
    for data in _random_inputs():
        _check_against_reference(data)


def test_classify_agrees_with_the_table_on_family_members():
    for data in _member_inputs():
        _check_against_reference(data)


def test_the_chern_number_key_changes_no_result(monkeypatch):
    # with every case unkeyed, classify searches all cases of the right
    # Todd genus, as it did before the key
    from circle6 import classifier
    inputs = _random_inputs() + _member_inputs()
    keyed = [classify(data) for data in inputs]
    for tag, plan in classifier._PLANS.items():
        monkeypatch.setitem(classifier._PLANS, tag, plan._replace(c1=None))
    assert [classify(data) for data in inputs] == keyed


def test_case_d_candidates_are_exactly_the_matches_on_sphere_sums():
    # pinned slots take distinct points, so no candidate puts both of case
    # D's pins on one point and every candidate is a match
    from circle6.classifier import _PLANS, _candidates
    plan = _PLANS[CaseTag.D_S6_union]
    for a, b, c, d in product(range(1, 7), repeat=4):
        rows = ((a, b, -a - b), (-a, -b, a + b), (c, d, -c - d), (-c, -d, c + d))
        matches = classify(dataset(3, [(f"p{i}", ws) for i, ws in enumerate(rows)])).matches
        for rev in (False, True):
            pts = tuple(tuple(-w for w in ws) for ws in rows) if rev else rows
            assert _candidates(plan, pts) == {
                m.case.params for m in matches
                if m.case.tag is CaseTag.D_S6_union and m.reversed is rev}, (rows, rev)


def _self_reverse_inputs():
    """4-point data whose reversal has the same weight multisets: random
    points followed by their negatives, mostly not family members."""
    rng = random.Random(31)
    inputs = []
    while len(inputs) < 500:
        data = random_symmetric_dataset(rng, max_points=2)
        if len(data.points) == 4:
            inputs.append(data)
    return inputs


def test_classify_agrees_with_the_table_on_self_reverse_data():
    for data in _self_reverse_inputs():
        _check_against_reference(data)


def _member(letter, *params):
    return gen_family(jang_case(letter, *params))


@pytest.mark.parametrize("data, searches", [
    pytest.param(_member("B", 1, 2), 1, id="B(1,2)"),
    pytest.param(_member("C", 2), 1, id="C(2)"),
    pytest.param(_member("D", 1, 2, 3, 4), 1, id="D(1,2,3,4)"),
    pytest.param(_member("F", 1, 2), 1, id="F(1,2)"),
    pytest.param(_member("A", 1, 2, 3), 1, id="A(1,2,3)"),
    pytest.param(negate_all(_member("B", 1, 2)), 1, id="reversed B(1,2)"),
    pytest.param(kustarev_sum(standard_sphere(1, 2), None, standard_sphere(2, 3), None).data, 1,
                 id="sum of two spheres"),
    pytest.param(_member("A", 1, 2, 4), 2, id="A(1,2,4)"),
    pytest.param(_member("E", 1, 1), 2, id="E(1,1)"),
])
def test_a_reversal_with_the_same_weight_multisets_is_searched_once(monkeypatch, data, searches):
    # each search passes its orientation's rows to _candidates: the reversed
    # orientation reuses the forward hits when its weight multisets are the
    # data's own
    from circle6 import classifier
    searched = set()
    original = classifier._candidates

    def counting(plan, pts):
        searched.add(pts)
        return original(plan, pts)

    monkeypatch.setattr(classifier, "_candidates", counting)
    matches = classify(data).matches
    assert len(searched) == searches
    if searches == 1:
        # every match is found in both orientations
        assert {(m.case, m.reversed) for m in matches} == {
            (m.case, rev) for m in matches for rev in (False, True)}


_NONZERO = st.integers(-5, 5).filter(bool)


@st.composite
def four_point_data(draw):
    """A family member (possibly reversed) or random data, as weight rows."""
    if draw(st.booleans()):
        return [tuple(draw(st.lists(_NONZERO, min_size=3, max_size=3))) for _ in range(4)]
    tag = draw(st.sampled_from(list(CaseTag)))
    k = len(param_names(tag))
    lo = -5 if tag is CaseTag.C_Fano else 1
    params = draw(st.lists(st.integers(lo, 5).filter(bool), min_size=k, max_size=k))
    try:
        rows = gen_family(jang_case(tag, *params)).weight_rows()
    except BadParams:
        rows = gen_family(jang_case("A", 1, 2, 3)).weight_rows()
    return [tuple(-w for w in ws) for ws in rows] if draw(st.booleans()) else list(rows)


def _triples(result):
    return {(m.case.tag, m.case.params, m.reversed) for m in result.matches}


@settings(max_examples=300, deadline=None)
@given(tag=st.sampled_from(ALL_TAGS), data=st.data())
def test_the_self_check_never_prunes_the_generating_parameters(tag, data):
    from circle6.classifier import _FAMILIES, _PLANS, _admissible, _candidates
    plan = _PLANS[tag]
    k = len(param_names(tag))
    lo = -30 if tag is CaseTag.C_Fano else 1
    params = tuple(data.draw(st.lists(st.integers(lo, 30).filter(bool), min_size=k, max_size=k)))
    assume(_admissible(tag, _FAMILIES[tag][2], params))
    member = gen_family(jang_case(tag, *params)).weight_rows()
    rows = [tuple(data.draw(st.permutations(ws))) for ws in member]
    reversed_ = data.draw(st.booleans())
    if reversed_:
        rows = [tuple(-w for w in ws) for ws in rows]
    names = data.draw(st.permutations(["a", "b", "c", "zz"]))
    shuffled = dataset(3, data.draw(st.permutations(list(zip(names, rows)))))
    # classify undoes a reversal before it reads the pinned slots
    pts = tuple(tuple(-w for w in ws) if reversed_ else ws for ws in shuffled.weight_rows())
    assert params in _candidates(plan, pts)


@settings(max_examples=150, deadline=None)
@given(rows=four_point_data(), data=st.data())
def test_classify_is_invariant_under_point_and_weight_permutations(rows, data):
    named = [(f"p{i}", ws) for i, ws in enumerate(rows)]
    shuffled = data.draw(st.permutations(named))
    shuffled = [(name, tuple(data.draw(st.permutations(ws)))) for name, ws in shuffled]
    assert classify(dataset(3, shuffled)) == classify(dataset(3, named))


@settings(max_examples=150, deadline=None)
@given(rows=four_point_data(), data=st.data())
def test_classify_is_invariant_under_renaming(rows, data):
    names = data.draw(st.permutations(["a", "b", "c", "zz"]))
    renamed = classify(dataset(3, list(zip(names, rows))))
    original = classify(dataset(3, [(f"p{i}", ws) for i, ws in enumerate(rows)]))
    assert _triples(renamed) == _triples(original)


@settings(max_examples=150, deadline=None)
@given(rows=four_point_data())
def test_negating_all_weights_flips_every_reversed_flag(rows):
    d = dataset(3, [(f"p{i}", ws) for i, ws in enumerate(rows)])
    flipped = {(tag, params, not rev) for tag, params, rev in _triples(classify(d))}
    assert _triples(classify(negate_all(d))) == flipped


def _smallest_point_order(data, match):
    """By brute force: the lexicographically smallest order of the data's
    point names whose weight multisets are the match's generated slots."""
    sign = -1 if match.reversed else 1
    slots = [sorted(sign * w for w in ws) for ws in gen_family(match.case).weight_rows()]
    return min(tuple(p.name for p in order) for order in permutations(data.points)
               if [sorted(p.weights) for p in order] == slots)


def _check_smallest_assignments(data):
    matches = classify(data).matches
    for m in matches:
        assert m.assignment == _smallest_point_order(data, m), (data, m)
    return matches


@st.composite
def doubled_sphere_rows(draw):
    """Two copies of one standard sphere's points, shuffled, weights in any
    order: every weight multiset is carried by two points."""
    a, b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = [(a, b, -a - b), (-a, -b, a + b)] * 2
    return [tuple(draw(st.permutations(ws))) for ws in draw(st.permutations(rows))]


@settings(max_examples=200, deadline=None)
@given(rows=st.one_of(four_point_data(), doubled_sphere_rows()), data=st.data())
def test_each_assignment_is_the_smallest_point_order_with_the_generated_multisets(rows, data):
    names = data.draw(st.permutations(["a", "b", "c", "zz"]))
    _check_smallest_assignments(dataset(3, list(zip(names, rows))))


@pytest.mark.parametrize("names", [("p1", "p2", "p3", "p4"), ("z", "b", "y", "a"),
                                   ("b", "z", "a", "y")])
@pytest.mark.parametrize("rows", [
    pytest.param(kustarev_sum(standard_sphere(1, 2), None, standard_sphere(1, 2), None)
                 .data.weight_rows(), id="sum of two equal spheres"),
    pytest.param(_member("D", 2, 3, 2, 3).weight_rows(), id="D(2,3,2,3)"),
    pytest.param(_member("D", 1, 1, 1, 1).weight_rows(), id="D(1,1,1,1)"),
])
def test_repeated_points_take_their_names_in_slot_order(rows, names):
    # a weight multiset carried by two points goes to two slots; the
    # smallest assignment names those slots in ascending order
    assert _check_smallest_assignments(dataset(3, list(zip(names, rows))))


# ---- diffeotype recognition ----------------------------------------------

FORMAL_4PT = HomologyProfile(simply_connected=True, b2=1, b3=0, torsion_free=True)


def test_case_f_with_formal_profile_is_the_quadric():
    d = gen_family(jang_case("F", 1, 1))
    assert recognize_diffeotype(replace(d, homology=FORMAL_4PT)) == QUADRIC_Q3


def test_case_f_without_formality_is_not_recognized():
    d = gen_family(jang_case("F", 1, 1))
    not_formal = HomologyProfile(True, 2, 2, True)
    assert recognize_diffeotype(replace(d, homology=not_formal)) is None
    with_torsion = HomologyProfile(True, 1, 0, False)
    assert recognize_diffeotype(replace(d, homology=with_torsion)) is None


def test_case_a_is_not_recognized():
    d = gen_family(jang_case("A", 1, 2, 4))
    assert recognize_diffeotype(replace(d, homology=FORMAL_4PT)) is None


def test_sum_provenance_is_recognized():
    d = dataset(3, [("m1.p1", (1, 2, -3)), ("m1.p2", (-1, -2, 3)),
                    ("m2.p1", (1, 1, -2)), ("m2.p2", (-1, -1, 2))],
                labels={"construction": "kustarev-sum", "summands": "S^6,S^6"})
    profile = HomologyProfile(True, 1, 0, True)
    assert recognize_diffeotype(replace(d, homology=profile)) == S4_X_S2
    bare = dataset(3, [(p.name, p.weights) for p in d.points], homology=profile)
    assert recognize_diffeotype(bare) is None


def test_recognition_needs_a_profile():
    with pytest.raises(MissingProfile):
        recognize_diffeotype(gen_family(jang_case("F", 1, 1)))


def test_recognition_accepts_two_point_data():
    # nothing is recognized for a lone sphere, but it must not error out
    d = dataset(3, [("p1", (1, 2, -3)), ("p2", (-1, -2, 3))], homology=SPHERE_PROFILE)
    assert recognize_diffeotype(d) is None
