"""Pairing multigraphs: enumeration, verdicts, the linear isotropy model."""

from __future__ import annotations

import random
import re
import sys
from collections import Counter
from functools import cache
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circle6 import (
    BadArgument,
    BadWeights,
    CapExceeded,
    ConnectivityVerdict,
    InvalidData,
    Multigraph,
    UnpairableWeights,
    build_multigraphs,
    connectivity_verdict,
    dataset,
    exoticness_obstruction,
    gen_family,
    jang_case,
    linear_action_isotropy,
    make_graph,
    negate_all,
    raw_pairing_count,
    standard_sphere,
    kustarev_sum,
)
from circle6 import multigraph
from circle6.multigraph import _distinct_pairings, _table_count
from conftest import random_symmetric_dataset, sphere_data


def test_sphere_has_one_connected_pairing():
    graphs = build_multigraphs(sphere_data(1, 2))
    assert len(graphs) == 1
    g = graphs[0]
    assert g.edges == (("p1", "p2", 1), ("p1", "p2", 2), ("p1", "p2", 3))
    assert g.is_connected
    assert g.degree("p1") == g.degree("p2") == 3
    assert connectivity_verdict(graphs) is ConnectivityVerdict.ALWAYS_CONNECTED


def test_multigraph_is_a_named_tuple_record():
    assert Multigraph._fields == ("vertices", "edges", "components")
    g = build_multigraphs(sphere_data(1, 2))[0]
    assert repr(g) == ("Multigraph(vertices=('p1', 'p2'), edges=(('p1', 'p2', 1), "
                       "('p1', 'p2', 2), ('p1', 'p2', 3)), components=(('p1', 'p2'),))")
    twin = make_graph(("p1", "p2"), [("p2", "p1", 3), ("p1", "p2", 1), ("p1", "p2", 2)])
    assert twin is not g and twin == g and hash(twin) == hash(g)
    assert len({g, twin}) == 1
    vertices, edges, components = g
    assert (vertices, edges, components) == (g.vertices, g.edges, g.components)
    assert g._replace(components=()).components == ()
    for name in ("vertices", "edges", "components", "label"):
        with pytest.raises(AttributeError):
            setattr(g, name, ())


def test_the_fold_over_twelve_two_choice_magnitudes():
    # 8 spheres: 16 points, 12 magnitudes carried by two spheres each; per
    # sphere pair, 2 of its 8 choices keep the two spheres apart
    data = standard_sphere(1, 2)
    for a, b in [(1, 2), (4, 8), (4, 8), (16, 32), (16, 32), (64, 128), (64, 128)]:
        data = kustarev_sum(data, None, standard_sphere(a, b), None).data
    assert len(data.points) == 16
    graphs = build_multigraphs(data)
    assert len(graphs) == 4_096 == raw_pairing_count(data)
    assert connectivity_verdict(graphs) is ConnectivityVerdict.NEVER_CONNECTED
    # C(4, j) 6^j 2^(4-j) graphs with j sphere pairs merged
    assert Counter(len(g.components) for g in graphs) == {
        4: 1296, 5: 1728, 6: 864, 7: 192, 8: 16}


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
    # raw_pairing_count reads the enumerator's balance rule, so it refuses too
    for weights in ([(1, 2, -3), (-1, -2, 4)], [(1, 1, -2), (1, 1, -2)], [(1, 2, 3)]):
        d = dataset(3, [(f"p{i}", w) for i, w in enumerate(weights, 1)])
        for count in (build_multigraphs, raw_pairing_count):
            with pytest.raises(UnpairableWeights):
                count(d)


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


def test_cap_counts_the_empty_pairing_too():
    empty = dataset(3, [])
    with pytest.raises(CapExceeded):
        build_multigraphs(empty, cap=0)
    assert len(build_multigraphs(empty, cap=1)) == 1
    with pytest.raises(CapExceeded):
        build_multigraphs(sphere_data(1, 2), cap=0)
    assert len(build_multigraphs(sphere_data(1, 2), cap=1)) == 1


@pytest.mark.parametrize("cap", [-1, -10**20, 2.5, 1.0, "10", None, True])
def test_a_cap_that_is_not_a_nonnegative_int_is_a_bad_argument(cap):
    for data in (sphere_data(1, 2), dataset(3, [])):
        with pytest.raises(BadArgument, match="cap"):
            build_multigraphs(data, cap=cap)


def test_long_sphere_chain_is_refused_not_a_recursion_error():
    # 1200 points whose magnitude-1 table has 600 rows and 600 columns; a
    # cap below the default keeps the stored pairings small, and the walk
    # goes just as deep before it trips
    data = standard_sphere(1, 1)
    for _ in range(599):
        data = kustarev_sum(data, None, standard_sphere(1, 1), None).data
    with pytest.raises(CapExceeded):
        build_multigraphs(data, cap=1_000)


def test_union_of_700_magnitude_disjoint_spheres():
    # 2100 magnitudes, each with one row and one column: one graph with
    # 700 components
    rows = []
    for i in range(700):
        a, b = 4 * i + 1, 4 * i + 2
        rows += [(f"s{i}+", (a, b, -a - b)), (f"s{i}-", (-a, -b, a + b))]
    graphs = build_multigraphs(dataset(3, rows))
    assert len(graphs) == 1
    assert len(graphs[0].components) == 700
    assert connectivity_verdict(graphs) is ConnectivityVerdict.NEVER_CONNECTED


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


# ---- the occurrence-level enumerator as a frozen reference ----------------

def _occurrence_pairings(pos, neg, cap):
    """Pair the first remaining positive occurrence with each distinct
    remaining partner in sorted order, recursively; dedup the edge
    multisets in first-seen order. The cap trips when the magnitude has
    more than `cap` distinct multisets."""
    out = {}

    def rec(pos_left, neg_left, acc):
        if not pos_left:
            out.setdefault(tuple(sorted(acc)))
            return
        head, rest = pos_left[0], pos_left[1:]
        for i, partner in enumerate(neg_left):
            if partner in neg_left[:i]:
                continue
            acc.append((head, partner) if head <= partner else (partner, head))
            rec(rest, neg_left[:i] + neg_left[i + 1:], acc)
            acc.pop()

    rec(tuple(sorted(pos)), tuple(sorted(neg)), [])
    if len(out) > cap:
        raise CapExceeded(f"more than {cap} pairings for one weight magnitude")
    return list(out)


def _partition(vertices, edges):
    comp = {v: frozenset([v]) for v in vertices}
    for u, v, _ in edges:
        if comp[u] is not comp[v]:
            merged = comp[u] | comp[v]
            for x in merged:
                comp[x] = merged
    return tuple(sorted({tuple(sorted(c)) for c in comp.values()}))


def _occurrence_graphs(data, cap):
    """The graphs of every combination of per-magnitude pairings, in
    itertools.product order, each built from scratch. The cap trips
    overall once the running product of the pairing counts passes it."""
    pos, neg = {}, {}
    for p in data.points:
        for w in p.weights:
            (pos if w > 0 else neg).setdefault(abs(w), []).append(p.name)
    per_magnitude = []
    total = 1
    for m in sorted(pos):
        choices = _occurrence_pairings(pos[m], neg[m], cap)
        total *= len(choices)
        if total > cap:
            raise CapExceeded(f"more than {cap} distinct pairings overall")
        per_magnitude.append([[(u, v, m) for u, v in key] for key in choices])
    if total > cap:     # a dataset with no weights has the one empty pairing
        raise CapExceeded(f"more than {cap} distinct pairings overall")
    graphs = []
    for combo in product(*per_magnitude):
        edges = tuple(sorted(e for part in combo for e in part))
        graphs.append(Multigraph(data.names(), edges, _partition(data.names(), edges)))
    return graphs


def _outcome(build, data, cap):
    try:
        return build(data, cap=cap)
    except CapExceeded as exc:
        return str(exc)


def _differential_inputs():
    rng = random.Random(41)
    for _ in range(60):
        yield random_symmetric_dataset(rng)
    # case C points carry both +1 and -1, so tables can coincide as edge
    # multisets; the extra rows add loops
    for a in (-4, -3, -2, -1, 1, 2, 3, 4):
        yield gen_family(jang_case("C", a))
        yield negate_all(gen_family(jang_case("C", a)))
    yield dataset(3, [("p1", (1, -1, 2)), ("p2", (-1, 1, -2)), ("p3", (1, -1, 1)),
                      ("p4", (-1, 1, -1))])
    # magnitude 2 has one row against two columns (one column against two
    # rows once negated), next to an enumerated magnitude 1
    forced = dataset(3, [("a", (2, 2, 1)), ("b", (-2, 1, -1)), ("c", (-2, -1, 3)),
                         ("d", (-3, 1, -1))])
    yield forced
    yield negate_all(forced)
    # magnitudes 3 and 7 have one pairing each and fold ahead of the two
    # choices of magnitude 1 and of magnitude 2
    ahead = dataset(3, [("a", (1, 2, 7)), ("b", (1, -2, -7)), ("c", (-1, 2, 3)),
                        ("d", (-1, -2, -3))])
    yield ahead
    yield negate_all(ahead)
    # p carries both +3 and -3, yet magnitude 3 has one row and so one
    # pairing (a loop at p and an edge to q); magnitudes 1 and 2 have two
    loop = dataset(3, [("p", (3, 3, -3)), ("q", (-3, 1, 2)), ("r", (-1, -2, 1)),
                       ("s", (-1, 2, -2))])
    yield loop
    yield negate_all(loop)
    for k in (2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4):
        data = standard_sphere(rng.randint(1, 3), rng.randint(1, 3))
        for _ in range(k - 1):
            data = kustarev_sum(data, None, standard_sphere(rng.randint(1, 3), rng.randint(1, 3)),
                                None).data
        yield data
    # string labellings past one byte per vertex: a 300-point cycle of
    # one-pairing magnitudes folds into one component
    yield dataset(2, [(f"c{i}", (i + 1, -((i + 1) % 300 + 1))) for i in range(300)])
    yield dataset(1, [("a", (1,)), ("b", (-1,))])     # a single edge


def test_graph_lists_match_the_occurrence_enumerator(monkeypatch):
    calls = _recording_enumerator(monkeypatch)
    for data in _differential_inputs():
        want = _occurrence_graphs(data, 100_000)
        calls.clear()
        assert build_multigraphs(data, cap=100_000) == want
        _check_walks(data, calls)
        # the exact cap boundary, and the message the refusal gives
        n = len(want)
        assert build_multigraphs(data, cap=n) == want
        for cap in {n - 1, 1, 0}:
            if cap < n:
                calls.clear()
                assert _outcome(build_multigraphs, data, cap) == _outcome(
                    _occurrence_graphs, data, cap)
                # a refusal enumerates no counted magnitude
                assert all(overlap for *_, overlap in _enumerated(calls))


@st.composite
def _shared_margins(draw):
    """One magnitude's record: (point, occurrences) rows and columns with
    equal totals, their names drawn from one pool so that a point often
    carries both signs."""
    counts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    total = sum(counts)
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), max_size=3))) if total > 1 else []
    bounds = [0, *cuts, total]
    split = [b - a for a, b in zip(bounds, bounds[1:])]
    row_names = draw(st.permutations("pqrs"))[:len(counts)]
    col_names = draw(st.permutations("pqrs"))[:len(split)]
    return sorted(zip(row_names, counts)), sorted(zip(col_names, split))


@settings(max_examples=150, deadline=None)
@given(margins=_shared_margins())
def test_one_pairing_exactly_when_one_row_or_one_column(margins):
    rows, cols = margins
    want = _occurrence_pairings([p for p, k in rows for _ in range(k)],
                                [q for q, k in cols for _ in range(k)], 10**9)
    assert [tuple((u, v) for u, v, _ in key)
            for key in _distinct_pairings(1, rows, cols, 10**9)] == want
    assert (len(want) == 1) == (len(rows) == 1 or len(cols) == 1)


@settings(max_examples=150, deadline=None)
@given(margins=_shared_margins(), one_row=st.booleans(), shared=st.booleans())
def test_one_row_or_one_column_is_answered_as_the_walk_answers_it(margins, one_row, shared):
    # collapse one side of a record to a single point; when `shared` it is
    # named after a point of the other side, which then carries both +m and -m
    rows, cols = margins
    line, other = (rows, cols) if one_row else (cols, rows)
    line = [(other[0][0] if shared else "t", sum(k for _, k in line))]
    rows, cols = (line, other) if one_row else (other, line)
    # a zero row and a zero column add no edge, but take the enumerator
    # off its base case and through its walk
    walked = _distinct_pairings(5, rows + [("~", 0)], cols + [("~", 0)], 10**9)
    assert _distinct_pairings(5, rows, cols, 10**9) == walked
    assert _distinct_pairings(5, rows, cols, 0) == walked
    want = _occurrence_pairings([p for p, k in rows for _ in range(k)],
                                [q for q, k in cols for _ in range(k)], 10**9)
    assert [tuple((u, v) for u, v, _ in key) for key in walked] == want
    # the count: the single line as the first of two rows, the second
    # empty, walks whenever the other side has two points or more
    counts = [k for _, k in other]
    assert _table_count([k for _, k in rows], [k for _, k in cols], 10**9) == 1
    assert _table_count([line[0][1], 0], counts, 10**9) == 1
    assert _table_count([k for _, k in rows], [k for _, k in cols], 1) == 1


def _point_rows(halves):
    rows = [(f"q{i}", ws) for i, ws in enumerate(halves)]
    return rows + [(f"r{i}", tuple(-w for w in ws)) for i, ws in enumerate(halves)]


def _shape(graphs):
    return (len(graphs), connectivity_verdict(graphs),
            sorted(sorted(len(c) for c in g.components) for g in graphs))


_weight = st.sampled_from([-3, -2, -1, 1, 2, 3])


@settings(max_examples=80, deadline=None)
@given(halves=st.lists(st.tuples(_weight, _weight, _weight), min_size=1, max_size=3),
       data=st.data())
def test_renaming_and_permuting_points_keep_count_verdict_and_sizes(halves, data):
    rows = _point_rows(halves)
    order = data.draw(st.permutations(range(len(rows))))
    names = data.draw(st.permutations([f"v{i}" for i in range(len(rows))]))
    moved = [(names[i], rows[i][1]) for i in order]
    assert _shape(build_multigraphs(dataset(3, moved))) == _shape(
        build_multigraphs(dataset(3, rows)))


def test_components_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(29)
    for _ in range(25):
        for g in build_multigraphs(random_symmetric_dataset(rng), cap=100_000)[:200]:
            multi = nx.MultiGraph()
            multi.add_nodes_from(g.vertices)
            multi.add_edges_from((u, v) for u, v, _ in g.edges)
            assert g.components == tuple(sorted(
                tuple(sorted(c)) for c in nx.connected_components(multi)))


def test_make_graph_canonicalizes_edges_and_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(41)
    for _ in range(300):
        names = [f"v{i}" for i in range(rng.randint(1, 9))]
        rng.shuffle(names)      # vertex order is kept, not sorted
        # loops, parallel edges, and (with few edges) isolated vertices
        edges = [(rng.choice(names), rng.choice(names), rng.randint(1, 3))
                 for _ in range(rng.randint(0, 2 * len(names)))]
        g = make_graph(names, edges)
        assert g.vertices == tuple(names)
        assert g.edges == tuple(sorted((min(u, v), max(u, v), w) for u, v, w in edges))
        multi = nx.MultiGraph()
        multi.add_nodes_from(names)
        multi.add_edges_from((u, v) for u, v, _ in edges)
        assert g.components == tuple(sorted(
            tuple(sorted(c)) for c in nx.connected_components(multi)))


@pytest.mark.parametrize("vertices, edges", [
    (["a", "a"], []), (["a", "b", "a"], [("a", "b", 1)]), (["a"], [("a", "b", 1)]),
    ([], [("a", "a", 2)]), (["a"], [("a", "a", "x")]), (["a"], [("a", "a", 1.0)]),
    (["a"], [("a", "a", True)]), (["a"], [("a", "a", 0)]), ([1, "a"], []),
    ([1, 2], [(1, 2, 1)]), ([""], [])])
def test_make_graph_refuses_repeated_vertices_and_foreign_endpoints(vertices, edges):
    with pytest.raises(BadArgument):
        make_graph(vertices, edges)


def test_graphs_refuse_more_vertices_than_labelling_characters(monkeypatch):
    # a component labelling spends one character per vertex
    assert make_graph(["a", "b"], [("a", "b", 1)]).is_connected
    monkeypatch.setattr(multigraph.sys, "maxunicode", 0)
    with pytest.raises(BadArgument, match="at most 1 vertices"):
        make_graph(["a", "b"], [("a", "b", 1)])
    with pytest.raises(BadArgument, match="at most 1 vertices"):
        build_multigraphs(sphere_data(1, 2))


# ---- counting tables before enumerating them ------------------------------

def test_table_count_matches_the_enumerator_on_small_margins():
    # every pair of occurrence counts with up to 4 points a side, counts
    # 1..3 and equal totals
    checked = 0
    for r, c in product(range(1, 5), repeat=2):
        for rows in product(range(1, 4), repeat=r):
            for cols in product(range(1, 4), repeat=c):
                if sum(rows) != sum(cols):
                    continue
                pos = [(f"a{i}", count) for i, count in enumerate(rows)]
                neg = [(f"b{j}", count) for j, count in enumerate(cols)]
                tables = len(_distinct_pairings(1, pos, neg, cap=10**9))
                assert _table_count(list(rows), list(cols), 10**9) == tables, (rows, cols)
                checked += 1
    assert checked == 1912


def _cellwise_count(rows, cols):
    """Tables counted one cell at a time, row-major: a second decomposition
    of the same number."""
    @cache
    def count(i, j, left, rem):
        if j == len(cols):
            if left:
                return 0
            return 1 if i + 1 == len(rows) else count(i + 1, 0, rows[i + 1], rem)
        return sum(count(i, j + 1, left - t, rem[:j] + (rem[j] - t,) + rem[j + 1:])
                   for t in range(min(left, rem[j]) + 1))
    return count(0, 0, rows[0], tuple(cols))


@st.composite
def _margin_pairs(draw):
    rows = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    total = sum(rows)
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), max_size=5))) if total > 1 else []
    bounds = [0, *cuts, total]
    return rows, [b - a for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=60, deadline=None)
@given(margins=_margin_pairs(), data=st.data())
def test_table_count_is_exact_below_the_limit_and_saturates_at_it(margins, data):
    rows, cols = margins
    exact = _cellwise_count(rows, cols)
    assert _table_count(rows, cols, 10**12) == exact
    limit = data.draw(st.integers(1, exact + 2))
    assert _table_count(rows, cols, limit) == min(exact, limit)


def test_table_count_walks_600_rows_without_recursion():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        # one row of 600 takes the single 1: exactly 600 tables, 599 rows deep
        assert _table_count([1] * 600, [599, 1], 10**9) == 600
        # the magnitude-1 table of 600 summed standard_sphere(1, 1)
        assert _table_count([2] * 600, [2] * 600, 10_002) == 10_002
    finally:
        sys.setrecursionlimit(old)


def _sphere_chain(length):
    data = standard_sphere(1, 1)
    for _ in range(length - 1):
        data = kustarev_sum(data, None, standard_sphere(1, 1), None).data
    return data


def _recording_enumerator(monkeypatch):
    """Monkeypatch both table walkers to record every magnitude they walk:
    `_distinct_pairings` as ("enumerate", row counts, column counts,
    whether some point carries both +m and -m) and `_table_count` as
    ("count", row counts, column counts, None), the counts sorted."""
    calls = []
    enumerate_, count = multigraph._distinct_pairings, multigraph._table_count

    def enumerating(m, rows, cols, cap):
        overlap = bool({p for p, _ in rows} & {q for q, _ in cols})
        calls.append(("enumerate", sorted(k for _, k in rows), sorted(k for _, k in cols),
                      overlap))
        return enumerate_(m, rows, cols, cap)

    def counting(rows, cols, limit):
        calls.append(("count", sorted(rows), sorted(cols), None))
        return count(rows, cols, limit)

    monkeypatch.setattr(multigraph, "_distinct_pairings", enumerating)
    monkeypatch.setattr(multigraph, "_table_count", counting)
    return calls


def _enumerated(calls):
    return [call for call in calls if call[0] == "enumerate"]


def _check_walks(data, calls):
    """The walks of a build that was not refused: the count pass takes each
    magnitude once and enumerates only those where some point carries both
    +m and -m; then the magnitudes it counted are enumerated, in order."""
    count_pass = calls[:len({abs(w) for p in data.points for w in p.weights})]
    rest = calls[len(count_pass):]
    assert all(overlap for walker, *_, overlap in count_pass if walker == "enumerate")
    assert [(r, c) for walker, r, c, _ in count_pass if walker == "count"] == [
        (r, c) for _, r, c, _ in rest]
    assert all(walker == "enumerate" and overlap is False for walker, *_, overlap in rest)


@pytest.mark.parametrize("length", [6, 7])
def test_sphere_chain_is_refused_by_counting_not_enumerating(length, monkeypatch):
    # magnitude 1 (two +1 at each of `length` points) has more than 10 001
    # tables and comes first, so nothing is enumerated
    calls = _recording_enumerator(monkeypatch)
    with pytest.raises(CapExceeded) as exc:
        build_multigraphs(_sphere_chain(length))
    assert str(exc.value) == "more than 10000 pairings for one weight magnitude"
    assert [walker for walker, *_ in calls] == ["count"]


# data, the occurrence counts of its counted magnitude (the same on both
# sides) and its number of tables: 3 points of (1, 1, 1) against 3 of
# (-1, -1, -1) have 55, 2 against 2 have 4; (1, 2, 2) twice against
# (-1, -2, -2) twice have 2 pairings of magnitude 1, then 3 of magnitude 2,
# the one counted; (1, -1, 2) twice against (1, -1, -2) twice have 17
# pairings of magnitude 1, enumerated since every point carries both +1 and
# -1, then 2 tables of magnitude 2, counted
_COUNTED = [
    (dataset(3, [(f"a{i}", (1, 1, 1)) for i in range(3)]
             + [(f"b{i}", (-1, -1, -1)) for i in range(3)]), [3, 3, 3], 55),
    (dataset(3, [(f"a{i}", (1, 1, 1)) for i in range(2)]
             + [(f"b{i}", (-1, -1, -1)) for i in range(2)]), [3, 3], 4),
    (dataset(3, [("x", (1, 2, 2)), ("z", (1, 2, 2)), ("y", (-1, -2, -2)),
                 ("w", (-1, -2, -2))]), [2, 2], 3),
    (dataset(3, [("a0", (1, -1, 2)), ("a1", (1, -1, 2)), ("b0", (1, -1, -2)),
                 ("b1", (1, -1, -2))]), [1, 1], 2),
]


@pytest.mark.parametrize("data, rows, tables", _COUNTED)
def test_refusals_at_the_counted_boundary_match_the_occurrence_enumerator(
        data, rows, tables, monkeypatch):
    assert _table_count(rows, rows, 10**9) == tables
    want = _occurrence_graphs(data, 100_000)
    calls = _recording_enumerator(monkeypatch)
    for cap in range(max(tables - 2, 0), len(want) + 2):
        calls.clear()
        outcome = _outcome(build_multigraphs, data, cap)
        assert outcome == _outcome(_occurrence_graphs, data, cap)
        # a refusal never enumerates the counted magnitude, and enumerates
        # only magnitudes where some point carries both +m and -m
        if isinstance(outcome, str):
            assert rows not in [counts for _, counts, _, _ in _enumerated(calls)]
            assert all(overlap for *_, overlap in _enumerated(calls))
        else:
            _check_walks(data, calls)


def test_a_counted_magnitude_is_not_enumerated_when_a_later_one_passes_the_cap(monkeypatch):
    # magnitude 1 (9 positive occurrences) is counted and fits the cap;
    # magnitude 2 (4 occurrences, also counted) carries the product past it
    data = standard_sphere(1, 1)
    for a, b in [(1, 1)] * 3 + [(1, 3)]:
        data = kustarev_sum(data, None, standard_sphere(a, b), None).data
    rows = {}
    for p in data.points:
        for w in p.weights:
            if w > 0:
                rows.setdefault(w, Counter())[p.name] += 1
    assert sorted(rows[1].values()) == [1, 2, 2, 2, 2]
    assert _table_count(list(rows[1].values()), list(rows[1].values()), 10**9) <= 10_000
    calls = _recording_enumerator(monkeypatch)
    with pytest.raises(CapExceeded) as exc:
        build_multigraphs(data)
    assert str(exc.value) == "more than 10000 distinct pairings overall"
    assert _enumerated(calls) == []


# ---- linear model and the obstruction -------------------------------------

def test_linear_isotropy_graph_shape():
    g = linear_action_isotropy(2, 3, 5)
    assert len(g.vertices) == 4
    assert len(g.edges) == 6
    assert g.is_connected
    assert sorted(label for _, _, label in g.edges) == [2, 2, 3, 3, 5, 5]
    assert all(g.degree(v) == 3 for v in g.vertices)


@pytest.mark.parametrize("weights", [(1, 2, 3), (2, 4, 5), (0, 3, 5), (2, 3, 9),
                                     (2.0, 3, 5), (True, 3, 5)])
def test_linear_isotropy_rejects_bad_weights(weights):
    with pytest.raises(BadWeights):
        linear_action_isotropy(*weights)


def test_verdict_of_no_graphs_is_a_bad_argument():
    with pytest.raises(BadArgument):
        connectivity_verdict([])


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


def test_dot_graph_name_is_quoted_unless_a_plain_id():
    g = build_multigraphs(sphere_data(1, 2))[0]
    first = {name: g.to_dot(name=name).split("\n", 1)[0]
             for name in ("pairing", "g0", "_x9", "my graph", "2x", 'say "hi"', "Graph")}
    assert first == {
        "pairing": "graph pairing {",
        "g0": "graph g0 {",
        "_x9": "graph _x9 {",
        "my graph": 'graph "my graph" {',
        "2x": 'graph "2x" {',
        'say "hi"': 'graph "say \\"hi\\"" {',
        "Graph": 'graph "Graph" {',     # a DOT keyword in any case
    }


@pytest.mark.parametrize("name", [5, None, b"g0"], ids=repr)
def test_dot_graph_name_that_is_not_a_str_is_a_bad_argument(name):
    with pytest.raises(BadArgument, match="str"):
        build_multigraphs(sphere_data(1, 2))[0].to_dot(name=name)
