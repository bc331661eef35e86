"""Dataset model: validation rules, JSON round trips, exact rationals."""

from __future__ import annotations

import inspect
import io
import json
import os
import random
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import circle6
from circle6 import (
    BadArgument,
    BadDimensions,
    BadParams,
    BadWeights,
    CaseTag,
    DimensionPair,
    FixedPoint,
    FixedPointData,
    HomologyProfile,
    InvalidData,
    JangCase,
    NonIntegralChernNumber,
    NotAdmissible,
    ParseError,
    SPHERE_PROFILE,
    UnpairableWeights,
    ValidationError,
    WrongDimension,
    build_multigraphs,
    c1_cubed,
    chern_report,
    chi_y_profile,
    classify,
    connectivity_verdict,
    dataset,
    disjoint_union,
    document,
    equivariantly_formal,
    exoticness_obstruction,
    format_rational,
    gen_family,
    is_sphere_summand,
    jang_case,
    kustarev_admissible,
    kustarev_sum,
    linear_action_isotropy,
    load,
    make_graph,
    negate_all,
    parse_rational,
    psi_flip,
    raw_pairing_count,
    recognize_diffeotype,
    rotation_loop_class,
    save,
    stable_pi_so_mod_u,
    standard_sphere,
    todd_genus,
    validate,
    verify_framing_reversal_identity,
)
from conftest import sphere_data, sphere_points, too_many_digits_document


# ---- validation ----------------------------------------------------------

def test_wellformed_data_has_no_violations():
    assert validate(sphere_data()) == []


def test_zero_weight_is_flagged_at_the_offending_point():
    d = dataset(3, [("p1", (1, 0, 3))])
    violations = validate(d)
    assert [(v.rule, v.point) for v in violations] == [("ZeroWeight", "p1")]


def test_arity_mismatch_is_flagged_only_where_it_occurs():
    d = dataset(3, [("p1", (1, 2)), ("p2", (1, 2, 3))])
    assert [(v.rule, v.point) for v in validate(d)] == [("WrongArity", "p1")]


def test_duplicate_and_empty_names():
    d = dataset(3, [("p1", (1, 2, 3)), ("p1", (4, 5, 6)), ("", (7, 8, 9))])
    rules = {(v.rule, v.point) for v in validate(d)}
    assert ("DuplicateName", "p1") in rules
    assert ("EmptyName", "") in rules


def test_bad_half_dimension():
    assert any(v.rule == "BadHalfDimension" for v in validate(dataset(0, [])))


def test_non_integer_weights_rejected():
    d = dataset(3, [("p1", (1.5, 2, 3))])
    assert any(v.rule == "NonIntegerWeight" for v in validate(d))
    d = dataset(3, [("p1", (True, 2, 3))])
    assert any(v.rule == "NonIntegerWeight" for v in validate(d))


def test_homology_profile_rules():
    ok = dataset(3, sphere_points(1, 2), homology=SPHERE_PROFILE)
    assert validate(ok) == []
    odd_b3 = dataset(3, sphere_points(1, 2),
                     homology=HomologyProfile(True, 0, 3, True))
    assert any(v.rule == "OddB3" for v in validate(odd_b3))
    negative = dataset(3, sphere_points(1, 2),
                       homology=HomologyProfile(True, -1, 0, True))
    assert any(v.rule == "NegativeBetti" for v in validate(negative))
    # 2 + 2*1 - 0 = 4 fixed points expected, but the sphere data has 2
    mismatch = dataset(3, sphere_points(1, 2),
                       homology=HomologyProfile(True, 1, 0, True))
    assert any(v.rule == "EulerMismatch" for v in validate(mismatch))
    # Betti numbers are ranks, so torsion leaves the Euler check standing
    torsion = dataset(3, sphere_points(1, 2),
                      homology=HomologyProfile(True, 1, 0, False))
    assert [v.rule for v in validate(torsion)] == ["EulerMismatch"]
    # without simple connectivity b1 is not known to vanish
    not_sc = dataset(3, sphere_points(1, 2),
                     homology=HomologyProfile(False, 1, 0, True))
    assert validate(not_sc) == []


def test_validate_is_order_independent_up_to_location():
    rng = random.Random(11)
    rows = [("a", (0, 1, 2)), ("b", (3, 4)), ("c", (5, 6, 7)), ("c", (1, 1, 1))]
    baseline = {(v.rule, v.point) for v in validate(dataset(3, rows))}
    for _ in range(10):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        d = dataset(3, shuffled)
        got = {(v.rule, v.point) for v in validate(d)}
        # DuplicateName depends on which occurrence comes second, but the
        # (rule, point) pairs agree because the duplicates share a name
        assert got == baseline


def _validate_reference(data):
    """`validate` as it read before plain ints skipped the per-weight type
    call: the rules, their messages and their order, kept verbatim as a
    reference, but for the Euler rule, which now holds with torsion too."""
    from circle6.core import Violation, _is_int, _require_dataset
    from circle6.errors import _shown
    _require_dataset(data)
    out = []
    if not _is_int(data.n) or data.n < 1:
        out.append(Violation("BadHalfDimension", None, f"n must be a positive integer, got {_shown(data.n)}"))
    seen = set()
    for p in data.points:
        if not isinstance(p.name, str) or not p.name:
            out.append(Violation("EmptyName", p.name if isinstance(p.name, str) else None,
                                 "point names must be nonempty strings"))
            continue
        if p.name in seen:
            out.append(Violation("DuplicateName", p.name, "point names must be unique"))
        seen.add(p.name)
        bad_type = [w for w in p.weights if not _is_int(w)]
        if bad_type:
            out.append(Violation("NonIntegerWeight", p.name, f"weights must be integers, got {_shown(bad_type)}"))
            continue
        if _is_int(data.n) and data.n >= 1 and len(p.weights) != data.n:
            out.append(Violation("WrongArity", p.name,
                                 f"expected {_shown(data.n)} weights, got {len(p.weights)}"))
        if any(w == 0 for w in p.weights):
            out.append(Violation("ZeroWeight", p.name, "weights must be nonzero"))
    h = data.homology
    if h is not None:
        if not _is_int(h.b2) or h.b2 < 0 or not _is_int(h.b3) or h.b3 < 0:
            out.append(Violation("NegativeBetti", None, f"b2={_shown(h.b2)}, b3={_shown(h.b3)} must be nonnegative integers"))
        elif h.b3 % 2 != 0:
            out.append(Violation("OddB3", None, f"b3 must be even, got {_shown(h.b3)}"))
        elif h.simply_connected and h.euler() != len(data.points):
            out.append(Violation(
                "EulerMismatch", None,
                f"2 + 2*b2 - b3 = {_shown(h.euler())} but the dataset has {len(data.points)} fixed points"))
    return out


class _Int(int):
    """An int subclass: an integer weight, but not of type int."""


# malformed weights: bools, int subclasses (zero among them), zeros,
# floats and strings, beside plain nonzero ints
_ODD_WEIGHTS = st.sampled_from([1, -1, 2, -3, 0, True, False, _Int(2), _Int(0), _Int(-1), 1.0, "1"])
_ODD_POINTS = st.lists(st.tuples(st.sampled_from(["p", "q", "r", "", 7]),
                                 st.lists(_ODD_WEIGHTS, max_size=4).map(tuple)), max_size=5)
_ODD_PROFILES = st.none() | st.builds(HomologyProfile, st.booleans(),
                                      st.sampled_from([0, 1, -1, True, _Int(1), 1.5]),
                                      st.sampled_from([0, 2, 3, -2, False, _Int(2)]), st.booleans())


_ODD_N = st.sampled_from([3, 2, 1, 0, -1, True, _Int(3), 3.0, "3"])


@settings(max_examples=300, deadline=None)
@given(n=_ODD_N, points=_ODD_POINTS, homology=_ODD_PROFILES)
def test_validate_reports_what_the_reference_reports(n, points, homology):
    # wrong arity, duplicate and empty names, bool, int-subclass and zero
    # weights: the same violations, messages and order
    data = FixedPointData(n, tuple(FixedPoint(name, ws) for name, ws in points), homology)
    assert validate(data) == _validate_reference(data)


_JUNK = [None, "x", 1.5, 0, [], {"n": 3}, sphere_points(1, 2)]


@pytest.mark.parametrize("junk", _JUNK, ids=repr)
@pytest.mark.parametrize("op", [
    c1_cubed, chi_y_profile, todd_genus, chern_report, classify, build_multigraphs,
    validate, raw_pairing_count, negate_all, document,
    pytest.param(lambda junk: disjoint_union(junk, sphere_data()), id="disjoint_union-1"),
    pytest.param(lambda junk: disjoint_union(sphere_data(), junk), id="disjoint_union-2"),
    pytest.param(lambda junk: kustarev_sum(junk, None, sphere_data(), None), id="kustarev_sum-1"),
    pytest.param(lambda junk: kustarev_sum(sphere_data(), SPHERE_PROFILE, junk, SPHERE_PROFILE),
                 id="kustarev_sum-2"),
    recognize_diffeotype, is_sphere_summand,
], ids=lambda op: op.__name__)
def test_an_argument_that_is_not_a_dataset_is_a_bad_argument(op, junk):
    with pytest.raises(BadArgument, match="FixedPointData"):
        op(junk)


@pytest.mark.parametrize("weight", ["a", 1.5, True, None], ids=repr)
@pytest.mark.parametrize("op", [
    negate_all, raw_pairing_count,
    is_sphere_summand,
], ids=lambda op: op.__name__)
def test_a_dataset_with_a_non_integer_weight_is_a_bad_argument(op, weight):
    # these operations compute on data they do not validate
    with pytest.raises(BadArgument, match="integers"):
        op(dataset(3, [("p1", (weight, 2, -3)), ("p2", (-1, -2, 3))]))


# Datasets that `save` would write and `load` refuse or change: labels that
# do not map str to str, homology flags that are not bools.
_UNSAVABLE = [FixedPointData(3, standard_sphere(1, 2).points, labels={"note": 1}),
              FixedPointData(3, standard_sphere(1, 2).points, labels={1: "x"}),
              FixedPointData(3, standard_sphere(1, 2).points,
                             homology=HomologyProfile("yes", 0, 0, True)),
              FixedPointData(3, standard_sphere(1, 2).points,
                             homology=HomologyProfile(1, 0, 0, 1))]


@pytest.mark.parametrize("data", _UNSAVABLE, ids=["int-label", "int-key", "str-flag", "int-flags"])
def test_validate_and_save_refuse_what_load_would_not_read_back(data):
    with pytest.raises(BadArgument):
        validate(data)
    with pytest.raises(BadArgument):
        save(data, io.StringIO())


# The junk pool of the API contract below; extend it rather than adding a
# test per leak.
_POOL = [None, "x", 1.5, True, -1, 0, [], (1,), standard_sphere(1, 2),
         gen_family(jang_case("F", 1, 1)), JangCase("A", (1, 2, 3)),
         JangCase(CaseTag.A_CP3, None),
         # datasets whose fields have the wrong shape
         FixedPointData(3, list(standard_sphere(1, 2).points)),
         FixedPointData(3, (FixedPoint("a", 7),)), FixedPointData(3, ((1, 2),)),
         FixedPointData(3, standard_sphere(1, 2).points, homology="x"),
         FixedPointData(3, standard_sphere(1, 2).points, labels=None)] + _UNSAVABLE


def test_every_public_function_returns_or_raises_a_toolkit_error():
    """Call every public function of circle6 with every tuple of its
    required positional arguments drawn from the pool; only a return or a
    ToolkitError is allowed. Classes, save and load are left out, and so
    are functions with more than three required arguments."""
    leaks = []
    for name in sorted(dir(circle6)):
        fn = getattr(circle6, name)
        if name.startswith("_") or not inspect.isfunction(fn) or name in ("save", "load"):
            continue
        required = [p for p in inspect.signature(fn).parameters.values() if p.default is p.empty
                    and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        if len(required) > 3:
            continue
        for args in product(_POOL, repeat=len(required)):
            try:
                fn(*args)
            except circle6.ToolkitError:
                pass
            except Exception as exc:
                leaks.append(f"{name}{args!r}: {type(exc).__name__}: {exc}")
    assert not leaks, "\n".join(leaks[:20])


@pytest.mark.parametrize("junk", _JUNK + [[sphere_data()]], ids=repr)
@pytest.mark.parametrize("op", [connectivity_verdict, exoticness_obstruction],
                         ids=lambda op: op.__name__)
def test_an_argument_that_is_not_a_graph_list_is_a_bad_argument(op, junk):
    with pytest.raises(BadArgument):
        op(junk)


# ---- JSON I/O ------------------------------------------------------------

def test_load_wellformed_sphere_document(tmp_path):
    path = tmp_path / "s6.json"
    path.write_text(json.dumps({
        "n": 3,
        "fixed_points": [
            {"name": "p1", "weights": [1, 2, -3]},
            {"name": "p2", "weights": [-1, -2, 3]},
        ],
        "homology": {"simply_connected": True, "b2": 0, "b3": 0,
                     "torsion_free": True},
    }))
    data = load(path)
    assert len(data.points) == 2
    assert data.homology == SPHERE_PROFILE


def test_load_rejects_duplicate_names(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "n": 3,
        "fixed_points": [
            {"name": "p", "weights": [1, 2, -3]},
            {"name": "p", "weights": [-1, -2, 3]},
        ],
    }))
    with pytest.raises(ValidationError) as err:
        load(path)
    assert any(v.rule == "DuplicateName" for v in err.value.violations)


def test_load_refuses_invalid_data_as_invalid_data(tmp_path):
    path = tmp_path / "zero.json"
    save(dataset(3, [("p1", (0, 1, -1))]), path)
    # the base class catches it, so `except ValidationError` keeps working
    with pytest.raises(ValidationError) as err:
        load(path)
    assert type(err.value) is InvalidData
    assert [v.rule for v in err.value.violations] == ["ZeroWeight"]


def test_load_rejects_truncated_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 3, "fixed_points": [{"name"')
    with pytest.raises(ParseError):
        load(path)


def test_load_refuses_too_deeply_nested_json():
    with pytest.raises(ParseError, match="^malformed JSON: "):
        load(io.StringIO("[" * 100_000 + "]" * 100_000))


@pytest.mark.parametrize("doc", [
    [],
    {"fixed_points": []},
    {"n": 3, "fixed_points": {}},
    {"n": 3, "fixed_points": [{"name": "p"}]},
    {"n": 3, "fixed_points": [{"name": "p", "weights": 1}]},
    {"n": 3, "fixed_points": [], "extra": 1},
    {"n": 3, "fixed_points": [], "homology": {"b2": 0}},
    {"n": 3, "fixed_points": [], "labels": {"k": 1}},
    {"n": 3, "fixed_points": [], "homology": {
        "simply_connected": 1, "b2": 0, "b3": 0, "torsion_free": True}},
])
def test_load_rejects_schema_violations(doc):
    with pytest.raises(ParseError):
        load(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("doc, message", [
    ({"n": 3, "fixed_points": [], "labels": {"k": 1}}, "labels must map strings to strings"),
    ({"n": 3, "fixed_points": [], "homology": {
        "simply_connected": True, "b2": 0, "b3": 0, "torsion_free": "yes"}},
     "homology must be None or a HomologyProfile with bool flags"),
], ids=["int-label", "str-flag"])
def test_read_refuses_what_the_dataset_gate_refuses_with_its_message(doc, message):
    with pytest.raises(ParseError, match=message):
        circle6.core._read(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("doc, rule", [
    ({"n": "3", "fixed_points": []}, "BadHalfDimension"),
    ({"n": 3, "fixed_points": [{"name": "p", "weights": ["x"]}]}, "NonIntegerWeight"),
    ({"n": 3, "fixed_points": [{"name": 1, "weights": [1, 2, -3]}]}, "EmptyName"),
    ({"n": 3, "fixed_points": [], "homology": {
        "simply_connected": True, "b2": 0.5, "b3": 0, "torsion_free": True}}, "NegativeBetti"),
], ids=["str-n", "str-weight", "int-name", "float-b2"])
def test_a_wrong_typed_value_is_read_and_named_by_validate(doc, rule):
    text = json.dumps(doc)
    data = circle6.core._read(io.StringIO(text))
    assert document(data) == doc
    assert [v.rule for v in validate(data)] == [rule]
    with pytest.raises(InvalidData) as err:
        load(io.StringIO(text))
    assert [v.rule for v in err.value.violations] == [rule]


@settings(max_examples=300, deadline=None)
@given(n=_ODD_N, points=_ODD_POINTS, homology=_ODD_PROFILES,
       labels=st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=2))
def test_save_writes_only_what_read_reads_back(n, points, homology, labels):
    # any dataset past the type gate, valid or not
    data = FixedPointData(n, tuple(FixedPoint(name, ws) for name, ws in points), homology, labels)
    buf = io.StringIO()
    try:
        save(data, buf)
    except BadArgument:
        return
    again = io.StringIO()
    save(circle6.core._read(io.StringIO(buf.getvalue())), again)
    assert again.getvalue() == buf.getvalue()


@pytest.mark.parametrize("data", [dataset(3, [("p", (1, 2, Fraction(1, 2)))]),
                                  dataset(3, [(frozenset("p"), (1, 2, -3))])],
                         ids=["Fraction-weight", "frozenset-name"])
def test_save_of_a_value_json_cannot_carry_is_a_bad_argument_and_writes_nothing(tmp_path, data):
    path, stream = tmp_path / "x.json", io.StringIO()
    for target in (path, stream):
        with pytest.raises(BadArgument, match="cannot write as JSON"):
            save(data, target)
    assert not path.exists()
    assert stream.getvalue() == ""


def test_save_load_round_trip_is_identity(tmp_path):
    rng = random.Random(5)
    for i in range(25):
        k = rng.randint(0, 4)
        rows = [(f"pt{j}", tuple(rng.choice([-9, -2, -1, 1, 2, 5]) for _ in range(3)))
                for j in range(k)]
        homology = None
        if rng.random() < 0.5:
            b2 = (k - 2 + rng.randint(0, 2) * 0) // 2  # anything consistent-ish
            homology = HomologyProfile(False, max(b2, 0), 0, False)
        labels = {"run": str(i)} if rng.random() < 0.5 else None
        d = dataset(3, rows, homology=homology, labels=labels)
        if validate(d):
            continue
        path = tmp_path / f"rt{i}.json"
        save(d, path)
        assert load(path) == d
        buf = io.StringIO()
        save(d, buf)
        assert load(io.StringIO(buf.getvalue())) == d


_ROWS = st.lists(st.tuples(st.text(min_size=1, max_size=4),
                           st.tuples(*[st.sampled_from([w for w in range(-9, 10) if w])] * 3)),
                 max_size=4, unique_by=lambda row: row[0])
_PROFILES = st.none() | st.builds(HomologyProfile, st.booleans(), st.integers(0, 3),
                                  st.integers(0, 2).map(lambda k: 2 * k), st.booleans())


@settings(max_examples=100, deadline=None)
@given(rows=_ROWS, homology=_PROFILES,
       labels=st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=3))
def test_every_dataset_validate_accepts_survives_a_save_load_round_trip(rows, homology, labels):
    d = dataset(3, rows, homology=homology, labels=labels)
    assume(validate(d) == [])
    buf = io.StringIO()
    save(d, buf)
    assert load(io.StringIO(buf.getvalue())) == d


def test_datasets_hash_by_value_and_labels_count_in_equality_only():
    a, b = standard_sphere(1, 2), standard_sphere(1, 2)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    labelled = dataset(a.n, [(p.name, p.weights) for p in a.points], a.homology,
                       {"run": "1"})
    assert labelled != a
    assert len({a, labelled}) == 2
    # a sum result holds a labelled dataset, so it hashes too
    total = kustarev_sum(a, None, b, None)
    assert hash(total) == hash(kustarev_sum(a, None, b, None))


@pytest.mark.parametrize("target", ["directory", "missing/x.json"])
def test_save_to_an_unwritable_path_is_a_bad_argument(tmp_path, target):
    (tmp_path / "directory").mkdir()
    with pytest.raises(BadArgument, match="cannot write"):
        save(sphere_data(), tmp_path / target)


def test_load_of_a_file_descriptor_is_a_bad_argument_and_leaves_it_open():
    r, w = os.pipe()
    os.close(w)     # a read of r ends at once instead of blocking
    try:
        with pytest.raises(BadArgument, match="path or a stream"):
            load(r)
        os.fstat(r)     # still open
    finally:
        os.close(r)


@pytest.mark.parametrize("junk", [None, 1.5], ids=repr)
def test_load_refuses_a_source_that_is_neither_path_nor_stream(junk):
    with pytest.raises(BadArgument, match="path or a stream"):
        load(junk)


@pytest.mark.parametrize("junk", [5, None, 1.5, True], ids=repr)
def test_save_refuses_a_target_that_is_neither_path_nor_stream(junk):
    with pytest.raises(BadArgument, match="path or a stream"):
        save(sphere_data(), junk)


def test_document_omits_empty_optionals():
    doc = document(sphere_data())
    assert set(doc) == {"n", "fixed_points"}


# ---- integers past Python's int/str digit limit --------------------------

STAND_IN = "<too many digits to print>"


def test_load_of_an_integer_past_the_digit_limit_is_a_parse_error(tmp_path, digit_limit):
    path = tmp_path / "big.json"
    path.write_text(too_many_digits_document(digit_limit + 1))
    for read in (load, circle6.core._read):
        for source in (path, str(path), io.StringIO(path.read_text())):
            with pytest.raises(ParseError, match="digits"):
                read(source)


def test_save_past_the_digit_limit_is_a_bad_argument_and_writes_nothing(tmp_path, digit_limit):
    data = dataset(3, [("p", (1, 2, -10 ** digit_limit))])
    path, stream = tmp_path / "big.json", io.StringIO()
    for target in (path, stream):
        with pytest.raises(BadArgument, match="too long"):
            save(data, target)
    assert not path.exists()
    assert stream.getvalue() == ""
    # the digit-limit refusal leaves the type gate's message alone
    with pytest.raises(BadArgument, match="expected a FixedPointData"):
        save(None, stream)


def test_format_rational_past_the_digit_limit_is_a_bad_argument(digit_limit):
    for x in (10 ** digit_limit, Fraction(1, 10 ** digit_limit)):
        with pytest.raises(BadArgument, match="too long"):
            format_rational(x)
    assert format_rational(Fraction(1, 10 ** (digit_limit - 1))) == "1/1" + "0" * (digit_limit - 1)
    # a str has no digit limit, so a string of digits is echoed whole
    digits = "1" + "0" * digit_limit
    with pytest.raises(BadArgument) as err:
        format_rational(digits)
    assert str(err.value) == f"expected an exact rational, got {digits!r}"


def test_validate_messages_do_not_print_integers_past_the_digit_limit(digit_limit):
    big = 10 ** digit_limit
    sphere = sphere_points(1, 2)
    cases = [
        (dataset(3, sphere, homology=HomologyProfile(True, -big, 0, True)), "NegativeBetti"),
        (dataset(3, sphere, homology=HomologyProfile(True, big, 0, True)), "EulerMismatch"),
        (dataset(3, sphere, homology=HomologyProfile(True, 0, big + 1, True)), "OddB3"),
        (dataset(-big, []), "BadHalfDimension"),
        (dataset(big, [("p", (1,))]), "WrongArity"),
        (dataset(3, [("p", (1, 2, Fraction(big, 3)))]), "NonIntegerWeight"),
    ]
    for data, rule in cases:
        [violation] = validate(data)
        assert violation.rule == rule
        assert STAND_IN in violation.message
        with pytest.raises(InvalidData) as err:
            circle6.core._require_valid(data)
        assert STAND_IN in str(err.value)


def test_a_non_integral_chern_number_past_the_digit_limit_keeps_its_exact_value(digit_limit):
    # e_p of each point has about 3 * 250 digits, past the lowered limit
    w = 10 ** 250
    p = (w + 1, w + 3, w + 7)
    data = dataset(3, [("p", p), ("q", tuple(-x for x in p))])
    with pytest.raises(NonIntegralChernNumber) as err:
        chern_report(data)
    assert err.value.value == c1_cubed(data) == Fraction(2 * sum(p) ** 3, p[0] * p[1] * p[2])
    assert str(err.value) == f"c_1^3 localization sum is not an integer: {STAND_IN}"


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda big: classify(dataset(big, [])), WrongDimension, id="classify"),
    pytest.param(lambda big: chern_report(dataset(big, [])), WrongDimension, id="chern_report"),
    pytest.param(lambda big: gen_family(jang_case("A", -big, 1, 2)), BadParams, id="gen_family"),
    pytest.param(lambda big: validate(dataset(3, [], labels={"k": big})), BadArgument,
                 id="validate-labels"),
    pytest.param(lambda big: standard_sphere(-big, 1), BadArgument, id="standard_sphere"),
    pytest.param(lambda big: DimensionPair(big, -1), BadDimensions, id="DimensionPair-range"),
    pytest.param(lambda big: DimensionPair(big, 1.5), BadDimensions, id="DimensionPair-type"),
    pytest.param(lambda big: build_multigraphs(sphere_data(), cap=-big), BadArgument,
                 id="build_multigraphs-cap"),
    pytest.param(lambda big: stable_pi_so_mod_u(-big), BadArgument, id="stable_pi_so_mod_u"),
    pytest.param(lambda big: psi_flip(big), BadArgument, id="psi_flip"),
    pytest.param(lambda big: rotation_loop_class((Fraction(big, 3),)), BadArgument,
                 id="rotation_loop_class-speeds"),
    pytest.param(lambda big: rotation_loop_class(big), BadArgument, id="rotation_loop_class"),
    pytest.param(lambda big: verify_framing_reversal_identity(samples=-big), BadArgument,
                 id="verify_framing_reversal_identity-samples"),
    pytest.param(lambda big: verify_framing_reversal_identity(seed=-big), BadArgument,
                 id="verify_framing_reversal_identity-seed"),
    pytest.param(lambda big: kustarev_sum(dataset(big, []), None, standard_sphere(1, 2), None),
                 WrongDimension, id="kustarev_sum-n"),
    pytest.param(lambda big: kustarev_sum(
                     *[dataset(4 * big, [], homology=SPHERE_PROFILE), None] * 2), NotAdmissible,
                 id="kustarev_sum-admissible"),
    pytest.param(lambda big: kustarev_admissible(big), BadArgument, id="kustarev_admissible"),
    pytest.param(lambda big: equivariantly_formal(big), BadArgument, id="equivariantly_formal"),
    pytest.param(lambda big: linear_action_isotropy(big, big, 3), BadWeights,
                 id="linear_action_isotropy"),
    pytest.param(lambda big: make_graph(["a"], []).to_dot(big), BadArgument, id="to_dot"),
    pytest.param(lambda big: disjoint_union(dataset(big, []), standard_sphere(1, 2)), BadArgument,
                 id="disjoint_union"),
    pytest.param(lambda big: validate(FixedPointData(3, (FixedPoint("p", [big]),))), BadArgument,
                 id="validate-list-weights"),
    pytest.param(lambda big: validate(dataset(3, [], homology=HomologyProfile(1, big, 0, True))),
                 BadArgument, id="validate-profile"),
    pytest.param(lambda big: negate_all(dataset(3, [("p", (1, 2, Fraction(big, 3)))])),
                 BadArgument, id="negate_all"),
    pytest.param(lambda big: format_rational([big]), BadArgument, id="format_rational"),
    pytest.param(lambda big: parse_rational(big), BadArgument, id="parse_rational"),
    pytest.param(lambda big: save(sphere_data(), big), BadArgument, id="save"),
    pytest.param(lambda big: load(big), BadArgument, id="load"),
    pytest.param(lambda big: jang_case(big), BadParams, id="jang_case"),
    pytest.param(lambda big: gen_family(big), BadArgument, id="gen_family-case"),
    pytest.param(lambda big: gen_family(JangCase(CaseTag.A_CP3, (big, 1, 1.5))), BadParams,
                 id="gen_family-params"),
    pytest.param(lambda big: verify_framing_reversal_identity(tolerance=-big), BadArgument,
                 id="verify_framing_reversal_identity-tolerance"),
    pytest.param(lambda big: linear_action_isotropy(big, 0, 3), BadWeights,
                 id="linear_action_isotropy-range"),
    pytest.param(lambda big: build_multigraphs(dataset(3, [("p", (big, 1, -1))])),
                 UnpairableWeights, id="build_multigraphs-unpairable"),
])
def test_argument_messages_do_not_print_integers_past_the_digit_limit(digit_limit, call, error):
    with pytest.raises(error) as err:
        call(10 ** digit_limit)
    assert STAND_IN in str(err.value)


def test_messages_within_the_digit_limit_are_unchanged():
    [violation] = validate(dataset(3, sphere_points(1, 2), homology=HomologyProfile(True, -7, 0, True)))
    assert violation.message == "b2=-7, b3=0 must be nonnegative integers"
    assert str(NonIntegralChernNumber(Fraction(343, 8))) == \
        "c_1^3 localization sum is not an integer: 343/8"
    for call, message in [
            (lambda: stable_pi_so_mod_u(-1),
             "homotopy degree must be a nonnegative integer, got -1"),
            (lambda: jang_case(7), "unknown case tag 7; expected A..F or one of ['A_CP3', "
                                   "'B_Q3', 'C_Fano', 'D_S6_union', 'E_BlP_S6', 'F_BlC_S6']"),
            (lambda: linear_action_isotropy(2, 4, 3), "weights 2 and 4 are not coprime"),
            (lambda: linear_action_isotropy(2, 1, 3),
             "isotropy weights must be integers > 1, got (2, 1, 3)"),
            (lambda: kustarev_sum(dataset(2, []), None, standard_sphere(1, 2), None),
             "summands must have equal n, got 2 and 3"),
            (lambda: format_rational([7]), "expected an exact rational, got [7]"),
            (lambda: gen_family(JangCase(CaseTag.A_CP3, (1, 2, 1.5))),
             "parameters must be integers, got (1, 2, 1.5)")]:
        with pytest.raises(circle6.ToolkitError) as err:
            call()
        assert str(err.value) == message


# ---- helpers -------------------------------------------------------------

def test_negate_all_flips_every_weight():
    d = sphere_data(2, 5)
    nd = negate_all(d)
    assert nd.weight_rows() == ((-2, -5, 7), (2, 5, -7))
    assert negate_all(nd) == d


def test_disjoint_union_prefixes_names():
    u = disjoint_union(sphere_data(1, 1), sphere_data(2, 3))
    assert u.names() == ("m1.p1", "m1.p2", "m2.p1", "m2.p2")
    assert validate(u) == []
    with pytest.raises(ValueError):
        disjoint_union(sphere_data(), dataset(2, [("q", (1, -1))]))


def test_rational_formatting_and_parsing():
    assert format_rational(Fraction(-2)) == "-2/1"
    assert format_rational(Fraction(7, -14)) == "-1/2"
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational("3/6") == Fraction(1, 2)
    for bad in ("1.5", "1e3", "x", "1/0", "", "1/x"):
        with pytest.raises(ParseError):
            parse_rational(bad)
