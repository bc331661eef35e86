"""Opposite-weight pairing multigraphs and their connectivity.

Pairing every occurrence of a weight w at some fixed point with an
occurrence of -w (possibly at the same point, giving a loop) turns a
dataset into a multigraph on the fixed points with edges labeled |w| --
the combinatorial shadow of the isotropy-sphere graph of the action.
The pairing is usually not unique, so `build_multigraphs` enumerates all
of them (deduplicated by resulting edge multiset) and
`connectivity_verdict` summarizes connectivity over the whole list.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from math import gcd

from .core import FixedPointData, validate
from .errors import BadWeights, CapExceeded, InvalidData, UnpairableWeights

#: Abort threshold for pairing enumeration (verdicts must be exact, so the
#: enumerator refuses to sample when there are too many matchings).
DEFAULT_MATCHING_CAP = 10_000


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph on fixed points; loops allowed.

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
        """Graphviz source; vertex and edge order is reproducible."""
        lines = [f"graph {name} {{"]
        for v in sorted(self.vertices):
            lines.append(f"  {_dot_id(v)};")
        for u, v, label in sorted(self.edges):
            lines.append(f'  {_dot_id(u)} -- {_dot_id(v)} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_id(text: str) -> str:
    """A double-quoted DOT identifier; backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


class ConnectivityVerdict(Enum):
    ALWAYS_CONNECTED = "AlwaysConnected"
    NEVER_CONNECTED = "NeverConnected"
    DEPENDS_ON_PAIRING = "DependsOnPairing"


def _components(vertices: tuple[str, ...], edges) -> tuple[tuple[str, ...], ...]:
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v, _ in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[str, list[str]] = {}
    for v in vertices:
        groups.setdefault(find(v), []).append(v)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def make_graph(vertices, edges) -> Multigraph:
    """Canonicalize raw (u, v, label) triples into a Multigraph."""
    verts = tuple(vertices)
    canon = tuple(sorted((u, v, label) if u <= v else (v, u, label)
                         for u, v, label in edges))
    return Multigraph(verts, canon, _components(verts, canon))


def _distinct_pairings(pos: list[str], neg: list[str], cap: int):
    """Distinct ways to pair each positive occurrence with a negative one.

    Returns canonical edge multisets (sorted tuples of vertex pairs).
    Occurrences at the same point are interchangeable, so recursion fixes
    the first remaining positive and branches over *distinct* partners
    only; the final dedup by edge multiset also merges pairings that differ
    by swapping equal positives.
    """
    out: dict[tuple, None] = {}

    def rec(pos_left: tuple[str, ...], neg_left: tuple[str, ...], acc: list):
        if len(out) > cap:
            raise CapExceeded(f"more than {cap} pairings for one weight magnitude")
        if not pos_left:
            key = tuple(sorted(acc))
            out.setdefault(key)
            return
        head, rest = pos_left[0], pos_left[1:]
        for i, partner in enumerate(neg_left):
            if partner in neg_left[:i]:
                continue
            pair = (head, partner) if head <= partner else (partner, head)
            acc.append(pair)
            rec(rest, neg_left[:i] + neg_left[i + 1:], acc)
            acc.pop()

    rec(tuple(sorted(pos)), tuple(sorted(neg)), [])
    return list(out)


def build_multigraphs(data: FixedPointData, cap: int = DEFAULT_MATCHING_CAP) -> list[Multigraph]:
    """One Multigraph per distinct perfect pairing of opposite weights.

    Raises UnpairableWeights when the signed weight multiset over all
    points is asymmetric (some w without a matching -w), and CapExceeded
    when there are more than `cap` distinct pairings; the verdict must be
    exact, so the enumerator never samples. An empty dataset yields the
    single empty graph.
    """
    violations = validate(data)
    if violations:
        raise InvalidData(violations)
    pos: dict[int, list[str]] = {}
    neg: dict[int, list[str]] = {}
    for p in data.points:
        for w in p.weights:
            (pos if w > 0 else neg).setdefault(abs(w), []).append(p.name)
    for m in sorted(set(pos) | set(neg)):
        if len(pos.get(m, [])) != len(neg.get(m, [])):
            raise UnpairableWeights(
                f"weight magnitude {m}: {len(pos.get(m, []))} positive vs "
                f"{len(neg.get(m, []))} negative occurrences")
    vertices = data.names()
    per_magnitude: list[tuple[int, list[tuple]]] = []
    total = 1
    for m in sorted(pos):
        choices = _distinct_pairings(pos[m], neg[m], cap)
        total *= len(choices)
        if total > cap:
            raise CapExceeded(f"more than {cap} distinct pairings overall")
        per_magnitude.append((m, choices))
    graphs = []
    for combo in product(*(choices for _, choices in per_magnitude)):
        edges = []
        for (m, _), pairs in zip(per_magnitude, combo):
            edges.extend((u, v, m) for u, v in pairs)
        graphs.append(make_graph(vertices, edges))
    return graphs


def raw_pairing_count(data: FixedPointData) -> int:
    """Number of occurrence-level pairings, before dedup by edge multiset.

    This is the product over weight magnitudes of k! where k is the number
    of positive occurrences of that magnitude; useful as a brute-force
    cross-check of the enumerator.
    """
    counts: dict[int, int] = {}
    for p in data.points:
        for w in p.weights:
            if w > 0:
                counts[w] = counts.get(w, 0) + 1
    total = 1
    for k in counts.values():
        f = 1
        for i in range(2, k + 1):
            f *= i
        total *= f
    return total


def connectivity_verdict(graphs: list[Multigraph]) -> ConnectivityVerdict:
    """Summarize connectivity over every pairing (the list must be nonempty)."""
    if not graphs:
        raise ValueError("connectivity_verdict needs at least one graph")
    flags = {g.is_connected for g in graphs}
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
    if any(not isinstance(w, int) or isinstance(w, bool) or w <= 1 for w in ws):
        raise BadWeights(f"isotropy weights must be integers > 1, got {ws}")
    for i in range(3):
        for j in range(i + 1, 3):
            if gcd(ws[i], ws[j]) != 1:
                raise BadWeights(f"weights {ws[i]} and {ws[j]} are not coprime")
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
    if connectivity_verdict(sum_graphs) is not ConnectivityVerdict.NEVER_CONNECTED:
        return False
    # smallest admissible linear model; its edge structure does not depend
    # on the chosen weights
    return linear_action_isotropy(2, 3, 5).is_connected
