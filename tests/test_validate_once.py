"""Each public operation validates its dataset argument exactly once, and
runs the localization layer's integer pass at most once."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from circle6 import (QUADRIC_Q3, HomologyProfile, build_multigraphs, c1_cubed,
                     chern_report, chi_y_profile, classify, gen_family, jang_case,
                     kustarev_sum, recognize_diffeotype, save, standard_sphere)
from circle6.cli import run

from conftest import sphere_data


def test_each_layer_validates_once(validate_calls):
    d = sphere_data()
    for op in (c1_cubed, chi_y_profile, chern_report, build_multigraphs):
        validate_calls.clear()
        op(d)
        assert validate_calls == [d], op.__name__
    validate_calls.clear()
    classify(gen_family(jang_case("A", 1, 2, 3)))
    assert len(validate_calls) == 1


def test_sum_of_two_spheres_validates_each_summand_once(validate_calls):
    kustarev_sum(standard_sphere(1, 2), None, standard_sphere(3, 4), None)
    assert [len(d.points) for d in validate_calls] == [2, 2]


def test_a_binary_sum_gates_each_summand_at_most_twice(monkeypatch, validate_calls):
    # once at the top and once inside validate; the union, the sphere test
    # and the sum's own dataset take no gate of their own
    from circle6 import core, surgery
    gated = []
    original = core._require_dataset

    def counting(data):
        gated.append(data)
        return original(data)

    for module in (core, surgery):
        monkeypatch.setattr(module, "_require_dataset", counting)
    left, right = standard_sphere(1, 2), standard_sphere(3, 4)
    kustarev_sum(left, None, right, None)
    assert len(gated) <= 4
    assert {id(d) for d in gated} <= {id(left), id(right)}
    assert validate_calls == [left, right]


def test_recognition_validates_once(validate_calls):
    # the case-F rule classifies data that recognition has already validated
    member = replace(gen_family(jang_case("F", 1, 1)), homology=HomologyProfile(True, 1, 0, True))
    assert recognize_diffeotype(member) == QUADRIC_Q3
    assert validate_calls == [member]


def test_cli_localize_validates_once(tmp_path, capsys, validate_calls):
    f = tmp_path / "s6.json"
    save(standard_sphere(1, 2), f)
    assert run(["localize", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["euler"] == 2
    assert len(validate_calls) == 1


@pytest.mark.parametrize("argv, calls", [
    (["validate", "{s}"], 1),
    (["localize", "{s}"], 1),
    (["localize", "--raw", "{s}"], 1),
    (["classify", "{f}"], 1),
    (["graph", "{s}"], 1),
    (["sum", "{s}", "{f}"], 2),
    (["generate", "F", "1", "1"], 1),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_cli_validates_each_input_file_once(argv, calls, tmp_path, capsys, validate_calls):
    files = {"s": tmp_path / "s6.json", "f": tmp_path / "f.json"}
    save(standard_sphere(1, 2), files["s"])
    save(replace(gen_family(jang_case("F", 1, 1)), homology=HomologyProfile(True, 1, 0, True)),
         files["f"])
    assert run([a.format(**files) for a in argv]) == 0
    capsys.readouterr()
    assert len(validate_calls) == calls


def test_each_operation_runs_the_integer_pass_once(pass_calls):
    d = sphere_data()
    for op in (c1_cubed, chi_y_profile, chern_report):
        pass_calls.clear()
        op(d)
        assert pass_calls == [d.weight_rows()], op.__name__
    member = gen_family(jang_case("A", 1, 2, 3))
    pass_calls.clear()
    classify(member)
    assert pass_calls == [member.weight_rows()]


def test_cli_localize_raw_validates_once_and_runs_the_integer_pass_once(
        tmp_path, capsys, validate_calls, pass_calls):
    f = tmp_path / "s6.json"
    save(standard_sphere(1, 2), f)
    assert run(["localize", "--raw", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["chi_y_coeffs"] == [0, 1, 1, 0]
    assert len(validate_calls) == 1
    assert len(pass_calls) == 1


def test_sweep_validates_once_per_checked_tuple(capsys, validate_calls):
    code = run(["sweep", "--case", "F", "--a", "1..3", "--b", "1..2",
                "--assert", "c1_cubed=-2", "--assert", "todd=0",
                "--assert", "euler=4"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["checked"] == 6
    assert len(validate_calls) == 6
