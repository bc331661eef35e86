"""Opposite-weight pairing multigraphs and their connectivity.

Pairing every occurrence of a weight w at some fixed point with an
occurrence of -w (possibly at the same point, giving a loop) turns a
dataset into a multigraph on the fixed points with edges labeled |w| --
the combinatorial shadow of the isotropy-sphere graph of the action.
The pairing is usually not unique, so `build_multigraphs` enumerates all
of them (deduplicated by resulting edge multiset) and
`connectivity_verdict` summarizes connectivity over the whole list.

Occurrences at one point are interchangeable, so each magnitude m is
read once into one record: the sorted (point, occurrences) pairs carrying
+m (rows) and -m (columns). Its pairings are the contingency tables with
those margins, in lexicographic order. A magnitude has exactly one
distinct pairing iff it has one row or one column: with two of each, some
table has cells (i, j) and (i', j'), i != i' and j != j', and moving them
to (i, j') and (i', j) changes the edge multiset, even where points carry
both signs. Every magnitude is one level of choices, its distinct
pairings; the graphs form the product of the levels, ascending, the
largest varying fastest. One breadth-first fold builds every graph,
`make_graph`'s included. It folds the levels of one choice into one
leading level, keys each distinct (u, v, m) edge by its rank in sorted
order and keeps each prefix of choices once, as its int keys and a string
labelling whose character per vertex is chr(least rank in its component);
a link between two components relabels the larger by the smaller.

Refusal comes first, by one rule for every magnitude. In ascending
order, a magnitude is enumerated when some point carries both +m and -m
(only then can two tables be one pairing), and has its tables counted
otherwise (memoized, and only up to cap + 1). A magnitude with more than
cap pairings is refused for itself; once the running product passes the
cap, the data is refused overall. Only then are the counted magnitudes
enumerated. A table with one row or one nonzero column is each walk's
base case, answered without a walk: each cell takes its smaller margin.
One row-fill generator serves both walks, and every walk keeps its own
stack, so data with thousands of points or magnitudes cannot exhaust the
interpreter's recursion limit.
"""

from __future__ import annotations

import re
import sys
from enum import Enum
from math import factorial, gcd, prod
from operator import attrgetter, itemgetter, mul, sub
from typing import NamedTuple

from .core import FixedPointData, _is_int, _require_integer_weights, _require_valid
from .errors import BadArgument, BadWeights, CapExceeded, UnpairableWeights, _shown

#: Abort threshold for pairing enumeration (verdicts must be exact, so the
#: enumerator refuses to sample when there are too many matchings).
DEFAULT_MATCHING_CAP = 10_000


class Multigraph(NamedTuple):
    """Undirected multigraph on fixed points; loops allowed. A named tuple:
    it unpacks, compares and hashes as the plain 3-tuple.

    edges are canonical (u, v, label) triples with u <= v, sorted;
    components is the sorted partition of the vertices. A loop contributes
    2 to its vertex degree, so every vertex of a pairing graph has degree
    n: each weight participates in exactly one pairing.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, int], ...]
    components: tuple[tuple[str, ...], ...]

    @property
    def is_connected(self) -> bool:
        return len(self.components) <= 1

    def degree(self, vertex: str) -> int:
        return sum((u == vertex) + (v == vertex) for u, v, _ in self.edges)

    def to_dot(self, name: str = "pairing") -> str:
        """Graphviz source; vertex and edge order is reproducible. The graph
        name is written bare when it is a plain DOT ID, else quoted; a name
        that is not a str is a BadArgument."""
        if not isinstance(name, str):
            raise BadArgument(f"a DOT graph name must be a str, got {_shown(name)}")
        plain = _PLAIN_DOT_ID.fullmatch(name) and name.lower() not in _DOT_KEYWORDS
        lines = [f"graph {name if plain else _dot_id(name)} {{"]
        for v in sorted(self.vertices):
            lines.append(f"  {_dot_id(v)};")
        for u, v, label in sorted(self.edges):
            lines.append(f'  {_dot_id(u)} -- {_dot_id(v)} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


_PLAIN_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# reserved words of the DOT language (case-insensitive), which no bare ID
# may spell
_DOT_KEYWORDS = frozenset({"graph", "digraph", "subgraph", "node", "edge", "strict"})


def _dot_id(text: str) -> str:
    """A double-quoted DOT identifier; backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


class ConnectivityVerdict(Enum):
    ALWAYS_CONNECTED = "AlwaysConnected"
    NEVER_CONNECTED = "NeverConnected"
    DEPENDS_ON_PAIRING = "DependsOnPairing"


def make_graph(vertices, edges) -> Multigraph:
    """Canonicalize raw (u, v, label) triples into a Multigraph; the
    vertices must be distinct nonempty strings, every edge must join two
    of them and every label must be a positive integer."""
    try:    # junk of any shape fails one of these steps
        verts = tuple(vertices)
        canon = tuple((u, v, label) if u <= v else (v, u, label) for u, v, label in edges)
        ok = (all(isinstance(v, str) and v for v in verts) and len(set(verts)) == len(verts)
              and {x for u, v, _ in canon for x in (u, v)} <= set(verts)
              and all(_is_int(label) and label > 0 for _, _, label in canon))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise BadArgument("make_graph needs distinct nonempty string vertices, edges "
                          "between them and positive integer labels")
    return _graphs(verts, [[canon]])[0]


def _distinct_pairings(m: int, rows: list, cols: list, cap: int) -> list[tuple]:
    """Distinct ways to pair each positive occurrence with a negative one,
    given one magnitude's record (m, rows, cols); at most cap + 1 of them.

    Returns canonical edge multisets (sorted tuples of (u, v, m) triples,
    u <= v) in lexicographic order of the contingency tables on the rows
    and columns, each row in turn taking a nondecreasing multiset of the
    remaining partners, smallest first: the first-seen order of pairing
    occurrences one at a time. Distinct tables give distinct edge
    multisets unless a point carries both +m and -m (then (p, q) and
    (q, p) are one edge), so the dedup by key merges only those.

    A depth-first search over the rows on an explicit stack of `_fills`
    generators; the last row takes what is left. The walk stops once it
    holds more than `cap` keys, which is all a caller needs to refuse.
    """
    if len(rows) == 1 or len(cols) == 1:    # one table: each cell takes its smaller margin
        return [tuple(sorted((p, q, m) if p <= q else (q, p, m)
                             for p, k in rows for q, c in cols for _ in range(min(k, c))))]
    # each cell's edge as a 1-tuple, so that cell * units repeats it
    cells = [[((p, q, m) if p <= q else (q, p, m),) for q, _ in cols] for p, _ in rows]
    last = len(rows) - 1
    out: dict[tuple, None] = {}
    # per row being filled: its fills, the column sums left before it and
    # the edges of the rows above it
    rem = tuple(c for _, c in cols)
    stack = [(_fills(rows[0][1], rem), rem, ())]
    while stack:
        fills, above, acc = stack[-1]
        got = next(fills, None)
        if got is None:
            stack.pop()
            continue
        i = len(stack)          # the next row
        rem = tuple(map(sub, above, got))
        # only the cells a row fills (no more than its occurrences) copy
        # the edges above it here; adding an empty tuple copies nothing
        taken = sum(map(mul, cells[i - 1], got), acc)
        if i < last:
            stack.append((_fills(rows[i][1], rem), rem, taken))
        else:
            out[tuple(sorted(sum(map(mul, cells[last], rem), taken)))] = None
            if len(out) > cap:
                break
    return list(out)


def _table_count(rows: list[int], cols: list[int], limit: int) -> int:
    """Number of tables of nonnegative integers with these row and column
    sums (equal totals), or `limit` once there are that many.

    A depth-first walk over the rows on an explicit stack. A frame holds a
    row, the column sums left before it (sorted, zeros dropped), the fills
    of the row still to try and the tables counted below it so far; a
    finished frame is memoized on (row, column sums left). Every fill
    leaves margins with at least one table, so no frame counts more than
    the total, and the walk stops as soon as one frame has counted `limit`.
    """
    start = tuple(sorted(c for c in cols if c))
    if len(rows) == 1 or len(start) < 2:    # one row or one nonzero column: one table
        return min(1, limit)
    last = len(rows) - 1
    memo: dict[tuple, int] = {}
    stack = [[0, start, _fills(rows[0], start), 0]]
    while True:
        frame = stack[-1]
        i = frame[0] + 1
        for got in frame[2]:
            left = tuple(sorted(c - g for c, g in zip(frame[1], got) if c != g))
            if i == last or len(left) < 2:
                frame[3] += 1
            else:
                count = memo.get((i, left))
                if count is None:
                    stack.append([i, left, _fills(rows[i], left), 0])
                    break
                frame[3] += count
            if frame[3] >= limit:
                return limit
        else:
            stack.pop()
            count = memo[frame[0], frame[1]] = frame[3]
            if not stack:
                return count
            stack[-1][3] += count
            if stack[-1][3] >= limit:
                return limit


def _fills(take: int, cols: tuple[int, ...]):
    """Each way of taking `take` units from columns with sums `cols`, as
    the units taken per column, one way at a time: the columns fill left
    to right as full as they can, and the next way moves one unit from the
    rightmost column that can give one to the columns on its right."""
    n = len(cols)
    got = [0] * n
    j, left = 0, take
    while True:
        while left:
            got[j] = t = cols[j] if cols[j] < left else left
            left -= t
            j += 1
        yield tuple(got)
        # find the column that gives, emptying the ones passed for the
        # refill; room is the sum of their column sums
        room = 0
        for j in range(n - 2, -1, -1):
            left += got[j + 1]
            room += cols[j + 1]
            got[j + 1] = 0
            if got[j] and left < room:
                got[j] -= 1
                left += 1
                j += 1
                break
        else:
            return


def _magnitudes(data: FixedPointData) -> list[tuple[int, list, list]]:
    """Each weight magnitude m, ascending, as (m, rows, cols): the sorted (point,
    occurrences) pairs carrying +m and -m. UnpairableWeights where their totals differ."""
    at: dict[int, dict[str, int]] = {}
    for p in data.points:
        for w in p.weights:
            side = at.setdefault(w, {})
            side[p.name] = side.get(p.name, 0) + 1
    out = []
    for m in sorted({abs(w) for w in at}):
        pos, neg = at.get(m, {}), at.get(-m, {})
        plus, minus = sum(pos.values()), sum(neg.values())
        if plus != minus:
            raise UnpairableWeights(
                f"weight magnitude {_shown(m, str)}: {plus} positive vs {minus} "
                f"negative occurrences")
        out.append((m, sorted(pos.items()), sorted(neg.items())))
    return out


def build_multigraphs(data: FixedPointData, cap: int = DEFAULT_MATCHING_CAP) -> list[Multigraph]:
    """One Multigraph per distinct perfect pairing of opposite weights.

    Raises UnpairableWeights when the signed weight multiset over all
    points is asymmetric (some w without a matching -w), and CapExceeded
    when there are more than `cap` distinct pairings; the verdict must be
    exact, so the enumerator never samples. An empty dataset has the
    single empty pairing, whose graph has no vertices. A cap that is not a
    nonnegative int raises BadArgument. One rule serves every magnitude,
    whatever its shape: its distinct pairings are one level of `_graphs`.
    """
    if not _is_int(cap) or cap < 0:
        raise BadArgument(f"cap must be a nonnegative integer, got {_shown(cap)}")
    _require_valid(data)
    magnitudes = _magnitudes(data)
    # the count pass, before any counted magnitude is enumerated: one where
    # some point carries both +m and -m (then two tables can be one
    # pairing) is enumerated here, any other counted
    choices: dict[int, list[tuple]] = {}
    total = 1
    for m, rows, cols in magnitudes:
        if {p for p, _ in rows} & {q for q, _ in cols}:
            choices[m] = _distinct_pairings(m, rows, cols, cap)
            count = len(choices[m])
        else:
            count = _table_count([k for _, k in rows], [k for _, k in cols], cap + 1)
        if count > cap:
            raise CapExceeded(f"more than {cap} pairings for one weight magnitude")
        total *= count
        if total > cap:
            break
    if total > cap:     # also the empty pairing of a dataset with no weights
        raise CapExceeded(f"more than {cap} distinct pairings overall")
    return _graphs(data.names(), [choices[m] if m in choices else _distinct_pairings(
        m, rows, cols, cap) for m, rows, cols in magnitudes])


def _graphs(vertices: tuple[str, ...], levels: list[list[tuple]]) -> list[Multigraph]:
    """One Multigraph per pick of one choice from every level, in
    itertools.product order (last level fastest). A choice is a sequence
    of canonical (u, v, label) triples.

    Every level with one choice folds into one leading level, which leaves
    the product order as it is. Each distinct triple is keyed by its rank
    in sorted order. The fold keeps each prefix of choices once, as its
    keys and a component labelling: a string whose character r is
    chr(least vertex rank in the component of rank r). What a level's
    choices make of a labelling is cached by that labelling, and so are
    the components of a joined labelling; each graph's keys are sorted
    once, and one itemgetter over them emits its edges.
    """
    names = sorted(vertices)
    if len(names) > sys.maxunicode + 1:     # one character per vertex rank
        raise BadArgument(f"pairing graphs take at most {sys.maxunicode + 1} vertices")
    rank = {v: r for r, v in enumerate(names)}
    triples = sorted({t for level in levels for choice in level for t in choice})
    key = {t: k for k, t in enumerate(triples)}
    lead = [t for level in levels if len(level) == 1 for t in level[0]]
    # each choice as its keys and the distinct rank pairs it joins
    *upper, bottom = [[(tuple(map(key.__getitem__, choice)), tuple(dict.fromkeys(
        (rank[u], rank[v]) for u, v, _ in choice if u != v))) for choice in level]
        for level in [[lead], *(level for level in levels if len(level) > 1)]]
    prefixes = [((), "".join(map(chr, range(len(names)))))]
    for level in upper:
        steps: dict[str, list[str]] = {}
        grown = []
        for keys, label in prefixes:
            after = steps.get(label)
            if after is None:
                after = steps[label] = [_join(label, links) for _, links in level]
            grown += [(keys + more, j) for (more, _), j in zip(level, after)]
        prefixes = grown
    # all graphs have equally many edges; itemgetter makes a tuple of two or more
    pick = itemgetter if len(prefixes[0][0] + bottom[0][0]) > 1 else (
        lambda *keys: lambda seq: tuple(seq[k] for k in keys))
    steps, parts, graphs = {}, {}, []
    for keys, label in prefixes:
        row = steps.get(label)
        if row is None:
            row = steps[label] = []
            for _, links in bottom:
                joined = _join(label, links)
                comps = parts.get(joined)
                if comps is None:
                    groups: dict[str, list[str]] = {}
                    for name, least in zip(names, joined):
                        groups.setdefault(least, []).append(name)
                    # groups appear in order of their least rank, i.e. sorted
                    comps = parts[joined] = tuple(map(tuple, groups.values()))
                row.append(comps)
        for (more, _), comps in zip(bottom, row):
            graphs.append(Multigraph(vertices, pick(*sorted(keys + more))(triples), comps))
    return graphs


def _join(label: str, links) -> str:
    """The component labelling after adding edges between the rank pairs
    in `links`: each link between two components relabels the one with
    the larger least rank by the smaller."""
    for a, b in links:
        x, y = label[a], label[b]
        if x < y:
            label = label.replace(y, x)
        elif y < x:
            label = label.replace(x, y)
    return label


def raw_pairing_count(data: FixedPointData) -> int:
    """Number of occurrence-level pairings, before dedup by edge multiset.

    A closed formula: the product over the nonzero weight magnitudes of k!,
    k the number of positive occurrences of the magnitude. It reads the
    magnitudes `build_multigraphs` reads, so unbalanced data is UnpairableWeights.
    """
    _require_integer_weights(data)
    return prod(factorial(sum(k for _, k in rows)) for m, rows, _ in _magnitudes(data) if m)


def connectivity_verdict(graphs: list[Multigraph]) -> ConnectivityVerdict:
    """Summarize connectivity over every pairing (the list must be nonempty)."""
    if not graphs:
        raise BadArgument("connectivity_verdict needs at least one graph")
    try:    # the type gate costs nothing on a list of graphs
        flags = {n <= 1 for n in set(map(len, map(attrgetter("components"), graphs)))}
    except (AttributeError, TypeError):
        raise BadArgument("connectivity_verdict needs a list of Multigraph values") from None
    if flags == {True}:
        return ConnectivityVerdict.ALWAYS_CONNECTED
    if flags == {False}:
        return ConnectivityVerdict.NEVER_CONNECTED
    return ConnectivityVerdict.DEPENDS_ON_PAIRING


# ---------------------------------------------------------------------------
# linear model on S^4 x S^2
# ---------------------------------------------------------------------------

# Fixed points of a linear circle action on S^4 x S^2: products of the two
# poles of each factor, written p(<S^4 pole>,<S^2 pole>).
_POLES = ("p(+,+)", "p(+,-)", "p(-,+)", "p(-,-)")


def linear_action_isotropy(w1: int, w2: int, w3: int) -> Multigraph:
    """Isotropy-sphere graph of the effective linear action with rotation
    speeds (w1, w2) on the S^4 factor and w3 on the S^2 factor.

    For pairwise coprime speeds all > 1 there are exactly six isotropy
    spheres: at each S^2 pole one sphere of weight w1 and one of weight w2
    joining the two S^4 poles, and at each S^4 pole one sphere of weight w3
    joining the two S^2 poles. The graph is connected.
    """
    ws = (w1, w2, w3)
    if not all(_is_int(w) and w > 1 for w in ws):
        raise BadWeights(f"isotropy weights must be integers > 1, got {_shown(ws, str)}")
    for i in range(3):
        for j in range(i + 1, 3):
            if gcd(ws[i], ws[j]) != 1:
                raise BadWeights(f"weights {_shown(ws[i], str)} and {_shown(ws[j], str)} "
                                 f"are not coprime")
    pp, pm, mp, mm = _POLES
    edges = [
        (mp, pp, w1), (mm, pm, w1),   # S^4-pole pairs at each S^2 pole
        (mp, pp, w2), (mm, pm, w2),
        (pm, pp, w3), (mm, mp, w3),   # S^2-pole pairs at each S^4 pole
    ]
    return make_graph(_POLES, edges)


def exoticness_obstruction(sum_graphs: list[Multigraph]) -> bool:
    """True when pairing graphs certify the action cannot be linear.

    A linear circle action on S^4 x S^2 with isolated fixed points has a
    connected isotropy graph, so if every pairing of the data is
    disconnected the action cannot be equivariantly diffeomorphic to a
    linear one. Only NeverConnected certifies this; DependsOnPairing means
    the weight data alone cannot exclude a connected isotropy structure.
    """
    return connectivity_verdict(sum_graphs) is ConnectivityVerdict.NEVER_CONNECTED
