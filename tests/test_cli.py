"""Command-line behavior: exit codes, JSON reports, byte stability."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from circle6 import cli, kustarev_sum, load, save, standard_sphere
from circle6.cli import run
from conftest import too_many_digits_document

SRC = Path(__file__).resolve().parent.parent / "src"


def _write_sphere(path, a=1, b=2, homology=True):
    doc = {
        "n": 3,
        "fixed_points": [
            {"name": "p1", "weights": [a, b, -a - b]},
            {"name": "p2", "weights": [-a, -b, a + b]},
        ],
    }
    if homology:
        doc["homology"] = {"simply_connected": True, "b2": 0, "b3": 0,
                           "torsion_free": True}
    path.write_text(json.dumps(doc))
    return path


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_validate_ok(tmp_path, capsys):
    f = _write_sphere(tmp_path / "s6.json")
    code, payload = _run_json(capsys, ["validate", str(f)])
    assert code == 0
    assert payload == {"ok": True, "violations": []}


def test_validate_reports_violations(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"n": 3, "fixed_points": [
        {"name": "p1", "weights": [0, 1, 2]}]}))
    code, payload = _run_json(capsys, ["validate", str(f)])
    assert code == 1
    assert payload["violations"][0]["rule"] == "ZeroWeight"
    assert payload["violations"][0]["point"] == "p1"


def test_localize_sphere(tmp_path, capsys):
    f = _write_sphere(tmp_path / "s6.json")
    code, payload = _run_json(capsys, ["localize", str(f)])
    assert code == 0
    assert payload["c1_cubed"] == "0/1"
    assert payload["chi_y_coeffs"] == [0, 1, 1, 0]
    assert payload["euler"] == 2


def test_localize_non_integral_is_an_error(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"n": 3, "fixed_points": [
        {"name": "p", "weights": [1, 2, 4]}]}))
    code, payload = _run_json(capsys, ["localize", str(f)])
    assert code == 1
    assert payload["error"] == "NonIntegralChernNumber"
    # the raw value is still reachable for exploration
    code, payload = _run_json(capsys, ["localize", str(f), "--raw"])
    assert code == 0
    assert payload["c1_cubed"] == "343/8"


@pytest.mark.parametrize("command", ["validate", "localize", "classify", "graph"])
def test_an_integer_past_the_digit_limit_is_a_parse_error(tmp_path, capsys, digit_limit, command):
    f = tmp_path / "big.json"
    f.write_text(too_many_digits_document(digit_limit + 1))
    code, payload = _run_json(capsys, [command, str(f)])
    assert code == 1
    assert payload["error"] == "ParseError"


def test_localize_past_the_digit_limit_is_an_error_payload(tmp_path, capsys, digit_limit):
    # valid weights whose c_1^3 has a denominator of about 3 * 250 digits
    w = 10 ** 250
    p = [w + 1, w + 3, w + 7]
    f = tmp_path / "big.json"
    f.write_text(json.dumps({"n": 3, "fixed_points": [
        {"name": "p", "weights": p}, {"name": "q", "weights": [-x for x in p]}]}))
    assert _run_json(capsys, ["validate", str(f)]) == (0, {"ok": True, "violations": []})
    code, payload = _run_json(capsys, ["localize", str(f)])
    assert code == 1
    assert payload["error"] == "NonIntegralChernNumber"
    code, payload = _run_json(capsys, ["localize", str(f), "--raw"])
    assert code == 1
    assert payload["error"] == "BadArgument"


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "--out"])
def test_a_payload_integer_past_the_digit_limit_is_a_bad_argument(tmp_path, capsys, digit_limit, out):
    # B(a, b) carries the weight a + 2b, one digit longer than a and b
    big = "9" * digit_limit
    target = tmp_path / "b.json"
    argv = ["generate", "B", big, big] + (["--out", str(target)] if out else [])
    assert cli.run(argv) == 1
    text = target.read_text() if out else capsys.readouterr().out
    payload = json.loads(text)
    assert payload["error"] == "BadArgument"
    assert "too long" in payload["message"]


def test_validate_reports_an_euler_number_past_the_digit_limit(tmp_path, capsys, digit_limit):
    # b2 fits the limit, 2 + 2*b2 - b3 has one digit more
    f = _write_sphere(tmp_path / "s6.json")
    doc = json.loads(f.read_text())
    doc["homology"]["b2"] = 9 * 10 ** (digit_limit - 1)
    f.write_text(json.dumps(doc))
    code, payload = _run_json(capsys, ["validate", str(f)])
    assert code == 1
    [violation] = payload["violations"]
    assert violation["rule"] == "EulerMismatch"
    assert "<too many digits to print>" in violation["message"]


def test_classify_round_trip_via_files(tmp_path, capsys):
    code, doc = _run_json(capsys, ["generate", "F", "1", "1"])
    assert code == 0
    f = tmp_path / "f11.json"
    f.write_text(json.dumps(doc))
    code, payload = _run_json(capsys, ["classify", str(f)])
    assert code == 0
    assert {"case": "F_BlC_S6", "params": [1, 1],
            "assignment": ["p1", "p2", "p3", "p4"],
            "reversed": False} in payload["matches"]


def test_classify_wrong_point_count(tmp_path, capsys):
    f = tmp_path / "three.json"
    f.write_text(json.dumps({"n": 3, "fixed_points": [
        {"name": "p1", "weights": [1, 2, -3]},
        {"name": "p2", "weights": [-1, -2, 3]},
        {"name": "p3", "weights": [1, 1, -2]}]}))
    code, payload = _run_json(capsys, ["classify", str(f)])
    assert code == 1
    assert payload["error"] == "WrongPointCount"


def test_missing_file_is_a_json_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    for command in ("localize", "classify"):
        code, payload = _run_json(capsys, [command, missing])
        assert code == 1
        assert payload["error"] == "ParseError"
        assert payload["message"].startswith(f"cannot read {missing}")


def test_generate_bad_params(capsys):
    code, payload = _run_json(capsys, ["generate", "A", "1", "1", "2"])
    assert code == 1
    assert payload["error"] == "BadParams"


def test_graph_with_dot_export(tmp_path, capsys):
    f = _write_sphere(tmp_path / "s6.json", homology=False)
    dot = tmp_path / "out.dot"
    code, payload = _run_json(capsys, ["graph", str(f), "--dot", str(dot)])
    assert code == 0
    assert payload["count"] == 1
    assert payload["verdict"] == "AlwaysConnected"
    text = dot.read_text()
    assert 'graph g0 {' in text and '"p1" -- "p2" [label="3"];' in text


def test_graph_payload_keys(tmp_path, capsys):
    f = _write_sphere(tmp_path / "s6.json", homology=False)
    code, payload = _run_json(capsys, ["graph", str(f)])
    assert code == 0
    assert list(payload) == ["count", "graphs", "verdict"]
    assert payload["graphs"] == [{
        "components": [["p1", "p2"]],
        "connected": True,
        "edges": [["p1", "p2", 1], ["p1", "p2", 2], ["p1", "p2", 3]],
        "vertices": ["p1", "p2"],
    }]


def test_sum_writes_a_loadable_document(tmp_path, capsys):
    f1 = _write_sphere(tmp_path / "a.json", 1, 2)
    f2 = _write_sphere(tmp_path / "b.json", 4, 5)
    out = tmp_path / "composed.json"
    code, payload = _run_json(capsys, ["sum", str(f1), str(f2), "--out", str(out)])
    assert code == 0
    assert payload["report"]["diffeotype"] == "S^4 x S^2"
    assert payload["report"]["unique"] is True
    assert payload["written_to"] == str(out)
    composed = load(out)
    assert composed.homology.b2 == 1
    assert composed.labels["summands"] == "S^6,S^6"
    # and the composed document feeds straight back into other commands
    code, payload = _run_json(capsys, ["graph", str(out)])
    assert code == 0
    assert payload["verdict"] == "NeverConnected"


def test_sum_with_out_and_quiet_writes_the_document_only(tmp_path, capsys):
    f1 = _write_sphere(tmp_path / "a.json", 1, 2)
    out = tmp_path / "composed.json"
    assert run(["sum", str(f1), str(f1), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert load(out).labels["summands"] == "S^6,S^6"


def test_sum_without_out_embeds_the_dataset(tmp_path, capsys):
    f1 = _write_sphere(tmp_path / "a.json", 1, 1)
    f2 = _write_sphere(tmp_path / "b.json", 1, 1)
    code, payload = _run_json(capsys, ["sum", str(f1), str(f2)])
    assert code == 0
    assert payload["dataset"]["homology"]["b2"] == 1
    assert len(payload["dataset"]["fixed_points"]) == 4


def test_sum_gate_failure(tmp_path, capsys):
    f1 = _write_sphere(tmp_path / "a.json")
    f2 = tmp_path / "nsc.json"
    doc = json.loads(f1.read_text())
    doc["homology"]["simply_connected"] = False
    doc["homology"]["b2"] = 1   # keep euler 2 + 2 - 2 = 2 consistent... not checked when not sc
    doc["homology"]["b3"] = 2
    f2.write_text(json.dumps(doc))
    code, payload = _run_json(capsys, ["sum", str(f1), str(f2)])
    assert code == 1
    assert payload["error"] == "NotSimplyConnected"


def test_admissible(capsys):
    code, payload = _run_json(capsys, ["admissible", "3", "1"])
    assert code == 0
    assert payload == {"n": 3, "k": 1, "slice_dim": 5, "exists": True, "unique": True}
    code, payload = _run_json(capsys, ["admissible", "4", "1"])
    assert payload["exists"] is False


def test_framing(capsys):
    code, payload = _run_json(capsys, ["framing", "2", "5"])
    assert code == 0
    assert payload["rotation_loop_class"] == 0
    assert payload["equivariant_normal_framing_class"] == 1
    assert payload["nontrivial"] is True


def test_verify_gluing(capsys):
    code, payload = _run_json(capsys, ["verify-gluing", "--samples", "200",
                                       "--tol", "1e-9", "--seed", "4"])
    assert code == 0
    assert payload["passed"] is True
    assert payload["samples"] == 200


def test_verify_gluing_refuses_more_samples_than_an_array_holds(capsys):
    code, payload = _run_json(capsys, ["verify-gluing", "--samples", "1" + "0" * 21])
    assert code == 1
    assert payload == {"error": "BadArgument", "message": f"need at most {sys.maxsize} "
                       f"samples, got {10 ** 21}"}


def test_sweep_curve_blowup_constancy(capsys):
    code, payload = _run_json(capsys, [
        "sweep", "--case", "F", "--a", "1..6", "--b", "1..6",
        "--assert", "c1_cubed=-2", "--assert", "todd=0", "--assert", "c1c2=0"])
    assert code == 0
    assert payload["ok"] is True
    assert payload["checked"] == 36


def test_sweep_reports_first_failures_in_order(capsys):
    code, payload = _run_json(capsys, [
        "sweep", "--case", "D", "--a", "1..2", "--b", "1..2", "--c", "1..2",
        "--d", "1..2", "--assert", "c1_cubed=1"])
    assert code == 1
    assert payload["ok"] is False
    assert payload["failures"][0]["params"] == [1, 1, 1, 1]
    assert payload["failures"][0]["actual"] == "0/1"


def test_sweep_skips_constraint_violating_tuples(capsys):
    code, payload = _run_json(capsys, [
        "sweep", "--case", "A", "--a", "1..3", "--b", "1..3", "--c", "1..3",
        "--assert", "c1_cubed=64"])
    assert code == 0
    assert payload["checked"] == 6   # ordered distinct triples from 27 tuples
    assert payload["skipped"] == 21


def test_sweep_counts_failures_beyond_the_listed_ones(capsys):
    code, payload = _run_json(capsys, [
        "sweep", "--case", "D", "--a", "1..2", "--b", "1..2", "--c", "1..2",
        "--d", "1..2", "--assert", "c1_cubed=1", "--max-failures", "1"])
    assert code == 1
    assert payload == {
        "case": "D_S6_union",
        "assertions": ["c1_cubed=1/1"],
        "checked": 16,
        "skipped": 0,
        "failures": [{"params": [1, 1, 1, 1], "invariant": "c1_cubed",
                      "expected": "1/1", "actual": "0/1"}],
        "failures_not_listed": 15,
        "ok": False,
    }


def test_sweep_rejects_float_assertions(capsys):
    code = run(["sweep", "--case", "F", "--a", "1..2", "--b", "1..2",
                "--assert", "c1_cubed=-2.0"])
    capsys.readouterr()
    assert code == 2


def test_sweep_requires_matching_param_flags(capsys):
    code, payload = _run_json(capsys, ["sweep", "--case", "F", "--a", "1..2"])
    assert code == 1
    assert "needs --b" in payload["message"]


def test_sweep_refuses_a_flag_its_case_does_not_read(capsys):
    code, payload = _run_json(capsys, ["sweep", "--case", "C", "--a", "1", "--b", "1"])
    assert code == 1
    assert payload == {"error": "ParseError", "message": "unused: --b"}


@pytest.mark.parametrize("argv, complaint", [
    (["sweep", "--case", "F", "--a", "x", "--b", "1"], "expected an integer or lo..hi range"),
    (["sweep", "--case", "F", "--a", "1", "--b", "1", "--assert", "foo=1"], "expected NAME=VALUE"),
    (["generate", "Z", "1"], "unknown case tag"),
], ids=" ".join)
def test_a_malformed_value_is_a_usage_error(argv, complaint, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""      # usage errors go to stderr
    assert complaint in captured.err


def test_unknown_flag_is_a_usage_error(tmp_path, capsys):
    f = _write_sphere(tmp_path / "s6.json")
    code = run(["localize", str(f), "--frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_usage_error_without_subcommand(capsys):
    code = run([])
    capsys.readouterr()
    assert code == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("validate", "localize", "classify", "generate", "graph",
                 "sum", "admissible", "framing", "verify-gluing", "sweep"):
        assert name in out


def test_output_is_byte_stable(tmp_path, capsys):
    f = _write_sphere(tmp_path / "s6.json")
    run(["localize", str(f)])
    first = capsys.readouterr().out
    run(["localize", str(f)])
    second = capsys.readouterr().out
    assert first == second
    run(["verify-gluing", "--samples", "100", "--seed", "9"])
    g1 = capsys.readouterr().out
    run(["verify-gluing", "--samples", "100", "--seed", "9"])
    g2 = capsys.readouterr().out
    assert g1 == g2


def test_out_flag_redirects(tmp_path, capsys):
    f = _write_sphere(tmp_path / "s6.json")
    target = tmp_path / "report.json"
    code = run(["localize", str(f), "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["c1_cubed"] == "0/1"


@pytest.mark.parametrize("argv", [
    ["localize", "{file}", "--out", "{dir}"],
    ["localize", "{file}", "--out", "{dir}/missing/x.json"],
    ["graph", "{file}", "--dot", "{dir}/missing/x.dot"],
    ["sum", "{file}", "{file}", "--out", "{dir}"],
], ids=["out-dir", "out-missing", "dot-missing", "sum-out-dir"])
def test_an_unwritable_output_path_is_a_json_error(argv, tmp_path, capsys):
    f = _write_sphere(tmp_path / "s6.json")
    argv = [arg.replace("{file}", str(f)).replace("{dir}", str(tmp_path)) for arg in argv]
    code, payload = _run_json(capsys, argv)
    assert code == 1
    assert payload["error"] == "BadArgument"
    assert payload["message"].startswith("cannot write ")
    assert run([*argv, "--quiet"]) == 1
    assert capsys.readouterr().out == ""


def test_only_verify_gluing_takes_a_seed(tmp_path, capsys):
    f = _write_sphere(tmp_path / "s6.json")
    assert run(["localize", str(f), "--seed", "3"]) == 2
    assert run(["verify-gluing", "--samples", "5", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 3


def test_quiet_suppresses_stdout(tmp_path, capsys):
    f = _write_sphere(tmp_path / "s6.json")
    code = run(["localize", str(f), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + '{"n": 3}'.encode("utf-16-le"))
    good = _write_sphere(tmp_path / "s6.json")
    for argv in (["validate", str(bad)], ["localize", str(bad)],
                 ["classify", str(bad)], ["graph", str(bad)],
                 ["sum", str(bad), str(good)]):
        code, payload = _run_json(capsys, argv)
        assert code == 1, argv
        assert payload["error"] == "ParseError", argv


def test_validate_reports_malformed_json_like_every_subcommand(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text('{"n": 3,')
    code, payload = _run_json(capsys, ["validate", str(f)])
    assert code == 1
    assert payload["error"] == "ParseError"
    assert payload["message"].startswith("malformed JSON: ")


def test_sweep_asserts_on_validated_data_only(capsys):
    # a = 0 puts zero weights in case C; euler is not counted on such data
    code, payload = _run_json(capsys, ["sweep", "--case", "C", "--a=-1..1",
                                       "--assert", "euler=4"])
    assert code == 1
    assert payload["checked"] == 3
    [failure] = payload["failures"]
    assert failure["params"] == [0]
    assert failure["actual"].startswith("InvalidData: ZeroWeight")


def test_sweep_without_assertions_still_validates_every_tuple(capsys):
    code, payload = _run_json(capsys, ["sweep", "--case", "C", "--a=0..0"])
    assert code == 1
    assert payload["ok"] is False
    assert payload["checked"] == 1
    [failure] = payload["failures"]
    assert failure["params"] == [0]
    assert failure["invariant"] is None and failure["expected"] is None
    assert failure["actual"].startswith("InvalidData: ZeroWeight")


def test_graph_with_a_negative_cap_is_a_bad_argument(tmp_path, capsys):
    f = _write_sphere(tmp_path / "s6.json", homology=False)
    code, payload = _run_json(capsys, ["graph", str(f), "--cap", "-1"])
    assert code == 1
    assert payload["error"] == "BadArgument"


def test_graph_refuses_a_sphere_chain_with_the_same_bytes(tmp_path, capsys):
    # 7 summed copies of standard_sphere(1, 1): refused by counting the
    # magnitude-1 tables, with the message the enumeration gave
    data = standard_sphere(1, 1)
    for _ in range(6):
        data = kustarev_sum(data, None, standard_sphere(1, 1), None).data
    f = tmp_path / "chain.json"
    save(data, f)
    assert run(["graph", str(f)]) == 1
    assert capsys.readouterr().out == (
        "{\n"
        '  "error": "CapExceeded",\n'
        '  "message": "more than 10000 pairings for one weight magnitude"\n'
        "}\n"
    )


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


# numeric arguments at zero, negative and out-of-range values; "{file}" is
# a sphere dataset
_EDGE_ARGUMENTS = [
    ["framing", "0", "1"], ["framing", "1", "0"], ["framing", "0", "0"],
    ["framing", "-1", "-1"], ["framing", "10000000000000000000000", "3"],
    ["verify-gluing", "--samples", "0"], ["verify-gluing", "--samples", "-5"],
    ["verify-gluing", "--tol", "0"], ["verify-gluing", "--tol", "-1"],
    ["verify-gluing", "--tol", "nan"], ["verify-gluing", "--tol", "inf"],
    ["verify-gluing", "--tol=-inf"], ["verify-gluing", "--samples", "1", "--seed", "-1"],
    ["admissible", "0", "0"], ["admissible", "-1", "1"], ["admissible", "3", "0"],
    ["admissible", "3", "6"], ["admissible", "3", "-1"],
    ["admissible", "100000000000000000000", "1"],
    ["generate", "A", "0", "0", "0"], ["generate", "A", "-1", "2", "3"],
    ["generate", "A", "1"], ["generate", "C", "0"], ["generate", "C", "-1000000"],
    ["generate", "D", "0", "0", "0", "0"], ["generate", "F", "0", "0"],
    ["generate", "E", "-3", "-3"], ["generate", "B", "1", "2", "3", "4", "5"],
    ["graph", "{file}", "--cap", "0"], ["graph", "{file}", "--cap", "-1"],
    ["graph", "{file}", "--cap", "-100000000000000000000"],
    ["graph", "{file}", "--seed", "-1"],
    ["sweep", "--case", "A", "--a=0", "--b=-1..1", "--c=-3..-1"],
    ["sweep", "--case", "A", "--a=3..1", "--b=1", "--c=2"],
    ["sweep", "--case", "C", "--a=-2..2", "--assert", "euler=4"],
    ["sweep", "--case", "D", "--a=-1..0", "--b=0", "--c=0", "--d=-2..0",
     "--max-failures=-1", "--assert", "todd=1"],
    ["sweep", "--case", "E", "--a=-2..2", "--b=-2..2", "--max-failures", "0",
     "--assert", "euler=5"],
    ["sweep", "--case", "F", "--a=-2..2", "--b=-2..2", "--max-failures=-3",
     "--assert", "c1c2=24"],
]


@pytest.mark.parametrize("argv", _EDGE_ARGUMENTS, ids=" ".join)
def test_numeric_edge_arguments_give_an_exit_code_and_json(argv, tmp_path, capsys):
    f = _write_sphere(tmp_path / "s6.json")
    code = run([arg.replace("{file}", str(f)) for arg in argv])
    assert isinstance(code, int) and code in (0, 1, 2)
    out = capsys.readouterr().out
    if code == 2:
        assert out == ""            # usage errors go to stderr
    else:
        payload = _strict_json(out)
        if code == 1 and "error" in payload:
            assert set(payload) == {"error", "message"}


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def _outcome(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


# call sequences that could leak state from one parse into the next, with
# their exit codes; "{file}" is a sum of two standard spheres with 8 pairings
_REUSE_SEQUENCES = {
    "sweep assertions": [
        (["sweep", "--case", "F", "--a", "1..3", "--b", "1..3",
          "--assert", "c1_cubed=-2", "--assert", "todd=0"], 0),
        (["sweep", "--case", "F", "--a", "1..3", "--b", "1..3"], 0),
    ],
    "usage error, help, valid": [
        (["admissible", "3", "--bogus"], 2),
        (["--help"], 0),
        (["admissible", "3", "1"], 0),
    ],
    "graph cap": [
        (["graph", "{file}", "--cap", "1"], 1),
        (["graph", "{file}"], 0),
    ],
}


@pytest.mark.parametrize("sequence", _REUSE_SEQUENCES.values(), ids=_REUSE_SEQUENCES)
def test_a_reused_parser_carries_no_state_between_calls(sequence, tmp_path, capsys):
    f = tmp_path / "sum.json"
    save(kustarev_sum(standard_sphere(1, 2), None, standard_sphere(1, 2), None).data, f)
    argvs = [[arg.replace("{file}", str(f)) for arg in argv] for argv, _ in sequence]
    cli._parser.cache_clear()
    in_sequence = [_outcome(capsys, argv) for argv in argvs]
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _ in in_sequence] == [code for _, code in sequence]
    for argv, outcome in zip(argvs, in_sequence):
        cli._parser.cache_clear()   # as if argv were the process's first call
        assert outcome == _outcome(capsys, argv), argv


def test_sweep_without_assert_after_one_with_it(capsys):
    [(with_assert, _), (without, _)] = _REUSE_SEQUENCES["sweep assertions"]
    _outcome(capsys, with_assert)
    code, payload = _run_json(capsys, without)
    assert code == 0 and payload["assertions"] == []


def test_run_builds_the_parser_once(monkeypatch, tmp_path, capsys):
    f = _write_sphere(tmp_path / "s6.json")
    builds = []
    original = cli.build_parser

    def counting():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    argvs = [
        ["validate", str(f)], ["localize", str(f)], ["localize", str(f), "--raw"],
        ["classify", str(f)], ["generate", "F", "1", "1"], ["generate", "C", "0"],
        ["graph", str(f)], ["graph", str(f), "--cap", "0"], ["sum", str(f), str(f)],
        ["admissible", "3", "1"], ["admissible", "x", "1"], ["framing", "2", "5"],
        ["framing", "0", "1"], ["verify-gluing", "--samples", "10"],
        ["sweep", "--case", "B", "--a", "1..2", "--b", "1..2", "--assert", "todd=1"],
        ["sweep", "--case", "B", "--a", "1..2"], ["validate", str(f), "--bogus"],
        [], ["--help"], ["validate", str(f), "--quiet"],
    ]
    codes = [run(argv) for argv in argvs]
    capsys.readouterr()
    assert len(argvs) == 20 and set(codes) == {0, 1, 2}
    assert len(builds) == 1


def test_importing_the_cli_builds_no_parser():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import circle6.cli as cli; print(cli._parser.cache_info().currsize)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


@pytest.mark.parametrize("argv", [["admissible", "3", "1"], ["generate", "F", "1", "1"]],
                         ids=" ".join)
def test_python_dash_m_prints_what_run_prints(argv, capsys):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "circle6", *argv], env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert run(argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()


def test_generate_refuses_a_dataset_that_validation_refuses(capsys):
    code, payload = _run_json(capsys, ["generate", "C", "0"])
    assert code == 1
    assert payload == {
        "error": "InvalidData",
        "message": "ZeroWeight at p2: weights must be nonzero; "
                   "ZeroWeight at p3: weights must be nonzero",
    }


def test_sweep_with_negative_max_failures_is_a_bad_argument(capsys):
    code, payload = _run_json(capsys, [
        "sweep", "--case", "D", "--a", "1..2", "--b", "1..2", "--c", "1..2",
        "--d", "1..2", "--assert", "c1_cubed=1", "--max-failures", "-1"])
    assert code == 1
    assert payload["error"] == "BadArgument"
    assert "--max-failures" in payload["message"]
