"""Pairing multigraphs: enumeration, verdicts, the linear isotropy model."""

from __future__ import annotations

import random
import re
from itertools import permutations

import pytest

from circle6 import (
    BadWeights,
    CapExceeded,
    ConnectivityVerdict,
    InvalidData,
    UnpairableWeights,
    build_multigraphs,
    connectivity_verdict,
    dataset,
    exoticness_obstruction,
    gen_family,
    jang_case,
    linear_action_isotropy,
    raw_pairing_count,
    standard_sphere,
    kustarev_sum,
)
from conftest import random_symmetric_dataset, sphere_data


def test_sphere_has_one_connected_pairing():
    graphs = build_multigraphs(sphere_data(1, 2))
    assert len(graphs) == 1
    g = graphs[0]
    assert g.edges == (("p1", "p2", 1), ("p1", "p2", 2), ("p1", "p2", 3))
    assert g.is_connected
    assert g.degree("p1") == g.degree("p2") == 3
    assert connectivity_verdict(graphs) is ConnectivityVerdict.ALWAYS_CONNECTED


def test_sphere_union_family_is_never_connected_for_disjoint_magnitudes():
    # halves {1,2,3} and {4,5,9} share no magnitude, so no pairing can cross
    graphs = build_multigraphs(gen_family(jang_case("D", 1, 2, 4, 5)))
    assert graphs
    for g in graphs:
        assert len(g.components) == 2
        assert g.components == (("p1", "p2"), ("p3", "p4"))
    assert connectivity_verdict(graphs) is ConnectivityVerdict.NEVER_CONNECTED


def test_sphere_union_family_with_shared_magnitude_depends_on_pairing():
    # at (1,2,3,4) the halves share magnitude 3 = 1+2 = 3, and pairing the
    # opposite 3s across the halves produces a connected graph; the
    # half-respecting pairing is still disconnected
    graphs = build_multigraphs(gen_family(jang_case("D", 1, 2, 3, 4)))
    assert connectivity_verdict(graphs) is ConnectivityVerdict.DEPENDS_ON_PAIRING
    assert any(g.components == (("p1", "p2"), ("p3", "p4")) for g in graphs)


def test_empty_dataset_yields_the_empty_graph():
    graphs = build_multigraphs(dataset(3, []))
    assert len(graphs) == 1
    assert graphs[0].vertices == ()
    assert graphs[0].edges == ()
    assert graphs[0].is_connected  # zero components


def test_loop_pairings_are_allowed():
    d = dataset(3, [("p1", (1, -1, 2)), ("p2", (-1, 1, -2))])
    graphs = build_multigraphs(d)
    assert len(graphs) == 2
    loops = [g for g in graphs if ("p1", "p1", 1) in g.edges]
    assert len(loops) == 1
    assert ("p2", "p2", 1) in loops[0].edges
    # the magnitude-2 edge bridges the points either way
    assert connectivity_verdict(graphs) is ConnectivityVerdict.ALWAYS_CONNECTED
    for g in graphs:
        assert g.degree("p1") == 3 and g.degree("p2") == 3


def test_asymmetric_weights_are_unpairable():
    d = dataset(3, [("p1", (1, 2, -3)), ("p2", (-1, -2, 4))])
    with pytest.raises(UnpairableWeights):
        build_multigraphs(d)


def test_invalid_data_is_refused():
    with pytest.raises(InvalidData):
        build_multigraphs(dataset(3, [("p1", (0, 1, -1))]))


def test_cap_aborts_instead_of_sampling():
    rows = [(f"a{i}", (1, 1, -2)) for i in range(6)]
    rows += [(f"b{i}", (-1, -1, 2)) for i in range(6)]
    with pytest.raises(CapExceeded):
        build_multigraphs(dataset(3, rows))
    # a tight cap trips already on modest data
    with pytest.raises(CapExceeded):
        build_multigraphs(dataset(3, [("p1", (1, 1, -2)), ("p2", (-1, -1, 2)),
                                      ("p3", (1, 1, -2)), ("p4", (-1, -1, 2))]), cap=1)


# ---- brute-force cross-checks ---------------------------------------------

def _brute_force(data):
    """Enumerate occurrence-level bijections directly; return (raw count,
    distinct edge multisets)."""
    pos: dict[int, list[str]] = {}
    neg: dict[int, list[str]] = {}
    for p in data.points:
        for w in p.weights:
            (pos if w > 0 else neg).setdefault(abs(w), []).append(p.name)
    raw = 1
    per_mag = []
    for m in sorted(pos):
        options = set()
        count = 0
        for perm in permutations(range(len(neg[m]))):
            count += 1
            edges = tuple(sorted(
                tuple(sorted((pos[m][i], neg[m][j]))) + (m,)
                for i, j in enumerate(perm)))
            options.add(edges)
        raw *= count
        per_mag.append(options)
    distinct = {()}
    for options in per_mag:
        distinct = {prev + e for prev in distinct for e in options}
    return raw, {tuple(sorted(edges)) for edges in distinct}


def test_pairing_counts_match_brute_force():
    rng = random.Random(13)
    for _ in range(40):
        d = random_symmetric_dataset(rng, max_points=2, max_weight=3)
        raw, distinct = _brute_force(d)
        assert raw_pairing_count(d) == raw
        graphs = build_multigraphs(d, cap=100_000)
        assert {g.edges for g in graphs} == distinct


def test_degree_equals_n_in_every_pairing():
    rng = random.Random(19)
    for _ in range(25):
        d = random_symmetric_dataset(rng)
        for g in build_multigraphs(d, cap=100_000):
            for v in g.vertices:
                assert g.degree(v) == 3


def test_sphere_union_components_for_disjoint_magnitudes():
    rng = random.Random(37)
    for _ in range(20):
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        c, d = rng.randint(1, 6), rng.randint(1, 6)
        if {a, b, a + b} & {c, d, c + d}:
            continue
        data = gen_family(jang_case("D", a, b, c, d))
        for g in build_multigraphs(data):
            assert len(g.components) == 2


# ---- linear model and the obstruction -------------------------------------

def test_linear_isotropy_graph_shape():
    g = linear_action_isotropy(2, 3, 5)
    assert len(g.vertices) == 4
    assert len(g.edges) == 6
    assert g.is_connected
    assert sorted(label for _, _, label in g.edges) == [2, 2, 3, 3, 5, 5]
    assert all(g.degree(v) == 3 for v in g.vertices)


@pytest.mark.parametrize("weights", [(1, 2, 3), (2, 4, 5), (0, 3, 5), (2, 3, 9)])
def test_linear_isotropy_rejects_bad_weights(weights):
    with pytest.raises(BadWeights):
        linear_action_isotropy(*weights)


def test_exoticness_for_magnitude_disjoint_sum():
    ks = kustarev_sum(standard_sphere(2, 3), None, standard_sphere(6, 7), None)
    graphs = build_multigraphs(ks.data)
    assert connectivity_verdict(graphs) is ConnectivityVerdict.NEVER_CONNECTED
    assert exoticness_obstruction(graphs) is True


def test_no_obstruction_for_connected_data():
    assert exoticness_obstruction(build_multigraphs(sphere_data(2, 3))) is False
    assert exoticness_obstruction(
        build_multigraphs(gen_family(jang_case("A", 1, 2, 3)))) is False


def test_dot_export_is_deterministic():
    g = build_multigraphs(sphere_data(1, 2))[0]
    assert g.to_dot() == (
        "graph pairing {\n"
        '  "p1";\n'
        '  "p2";\n'
        '  "p1" -- "p2" [label="1"];\n'
        '  "p1" -- "p2" [label="2"];\n'
        '  "p1" -- "p2" [label="3"];\n'
        "}\n"
    )


def test_dot_export_escapes_quotes_and_backslashes():
    names = ['say "hi"', "back\\slash", 'both\\"']
    d = dataset(3, [(names[0], (1, 2, -3)), (names[1], (-1, -2, 3)),
                    (names[2], (1, 1, -2)), ("plain", (-1, -1, 2))])
    text = "".join(g.to_dot() for g in build_multigraphs(d))
    # every double-quoted DOT string closes where it should, and unescapes
    # back to a point name or an edge label
    quoted = re.findall(r'"((?:[^"\\]|\\.)*)"', text)
    unescaped = {re.sub(r"\\(.)", r"\1", q) for q in quoted}
    assert set(names) | {"plain"} <= unescaped
    assert unescaped - set(names) - {"plain"} <= {"1", "2", "3"}
    assert re.sub(r'"(?:[^"\\]|\\.)*"', "", text).count('"') == 0
