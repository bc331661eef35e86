"""Answers the benchmark checks circle6 against, computed without circle6.

Nothing here imports the library: the six family templates are written out
again, Chern numbers are summed directly, and pairing counts come from a
contingency-table count instead of an enumeration. Data is handled as
plain tuples of integer weight rows.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt, prod

#: Pairing cap the sum_graph workload passes to build_multigraphs.
CAP = 10_000

# Jang's six families, written out independently of circle6.classifier.
TEMPLATES = {
    "A": lambda a, b, c: ((a, b, c), (-a, b - a, c - a), (-b, a - b, c - b), (-c, a - c, b - c)),
    "B": lambda a, b: ((a, a + b, a + 2 * b), (-a, b, a + 2 * b),
                       (-a - 2 * b, -b, a), (-a - 2 * b, -a - b, -a)),
    "C": lambda a: ((1, 2, 3), (-1, 1, a), (-1, 1, -a), (-1, -2, -3)),
    "D": lambda a, b, c, d: ((a, b, -a - b), (-a, -b, a + b), (c, d, -c - d), (-c, -d, c + d)),
    "E": lambda a, b: ((-3 * a - b, a, b), (-2 * a - b, 3 * a + b, 3 * a + 2 * b),
                       (-a, -a - b, 2 * a + b), (-b, -3 * a - 2 * b, a + b)),
    "F": lambda a, b: ((-a - b, 2 * a + b, b), (-2 * a - b, a, b),
                       (-b, -2 * a - b, a + b), (-a, -b, 2 * a + b)),
}
ARITY = {"A": 3, "B": 2, "C": 1, "D": 4, "E": 2, "F": 2}
TODD = {"A": 1, "B": 1, "C": 1, "D": 0, "E": 0, "F": 0}


def params_ok(letter: str, params: tuple[int, ...]) -> bool:
    """The families' parameter constraints (C takes any nonzero a here,
    since a = 0 gives a zero weight)."""
    if len(params) != ARITY[letter]:
        return False
    if letter == "C":
        return params[0] != 0
    if any(p < 1 for p in params):
        return False
    return letter != "A" or len(set(params)) == 3


def c1_cubed_constant(letter: str, params: tuple[int, ...]) -> int:
    """Frozen c_1^3 of every family member: A 64, B 54, C 72 - 2a^2, D 0,
    E -8, F -2 (reversal leaves it unchanged for n = 3)."""
    if letter == "C":
        return 72 - 2 * params[0] ** 2
    return {"A": 64, "B": 54, "D": 0, "E": -8, "F": -2}[letter]


def family_rows(letter: str, params: tuple[int, ...], reversed_: bool = False):
    rows = TEMPLATES[letter](*params)
    if reversed_:
        rows = tuple(tuple(-w for w in r) for r in rows)
    return rows


def c1_cubed(rows) -> Fraction:
    """Direct exact sum of (w1 + w2 + w3)^3 / (w1 w2 w3) over the points."""
    return sum((Fraction(sum(r) ** 3, prod(r)) for r in rows), Fraction(0))


def chi_y(rows, n: int = 3) -> tuple[int, ...]:
    counts = [0] * (n + 1)
    for r in rows:
        counts[sum(1 for w in r if w < 0)] += 1
    return tuple(counts)


def may_match_a_family(rows) -> bool:
    """False when the data provably fits no family: every family member has
    c_1^3 in {64, 54, 0, -8, -2} or of the form 72 - 2a^2."""
    value = c1_cubed(rows)
    if value.denominator != 1:
        return False
    v = int(value)
    a2, odd = divmod(72 - v, 2)
    return v in (64, 54, 0, -8, -2) or (not odd and a2 > 0 and isqrt(a2) ** 2 == a2)


# ---------------------------------------------------------------------------
# iterated sphere sums
# ---------------------------------------------------------------------------

def sphere_rows(a: int, b: int):
    return ((a, b, -a - b), (-a, -b, a + b))


def _count_tables(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """Number of nonnegative integer matrices with the given row and column
    sums, i.e. distinct pairings of one weight magnitude."""
    if sum(rows) != sum(cols):
        return 0
    return _tables(tuple(sorted(rows, reverse=True)), tuple(sorted(Counter(c for c in cols if c).items())))


@lru_cache(maxsize=None)
def _tables(rows: tuple[int, ...], col_classes: tuple[tuple[int, int], ...]) -> int:
    # col_classes: sorted (remaining column sum, number of such columns);
    # completions depend only on this multiset, which keeps the state small
    if not rows:
        return 1 if not col_classes else 0
    total = 0
    for ways, new_cols in _place_row(rows[0], col_classes):
        total += ways * _tables(rows[1:], new_cols)
    return total


def _place_row(r: int, classes):
    """Every way to spread r units over columns, grouped by column class,
    as (number of tables, resulting column classes) pairs."""
    out = []

    def rec(i: int, left: int, ways: int, acc: Counter):
        if i == len(classes):
            if left == 0:
                out.append((ways, tuple(sorted((v, n) for v, n in acc.items() if v and n))))
            return
        v, n = classes[i]
        # choose how many of the n columns receive 0, 1, ..., min(v, left) units
        for split in _splits(n, min(v, left), left):
            used = sum(k * x for k, x in enumerate(split))
            mult = factorial(n)
            for x in split:
                mult //= factorial(x)
            nxt = acc.copy()
            for k, x in enumerate(split):
                nxt[v - k] += x
            rec(i + 1, left - used, ways * mult, nxt)

    rec(0, r, 1, Counter())
    return out


def _splits(n: int, top: int, budget: int):
    """Tuples (x0, x1, ..., xtop) summing to n with sum(k * xk) <= budget."""
    def rec(k: int, left_n: int, left_b: int):
        if k == 0:
            yield (left_n,)
            return
        for x in range(min(left_n, left_b // k) + 1):
            for rest in rec(k - 1, left_n - x, left_b - k * x):
                yield rest + (x,)
    return list(rec(top, n, budget))


def sum_graph_expectation(spheres: list[tuple[int, int]]) -> dict:
    """What building the pairing graphs of an iterated sum of standard
    spheres must give: the distinct pairing count (refused above CAP) and
    the verdict. No sphere point carries both w and -w, so distinct
    pairings of a magnitude are exactly contingency tables between its
    positive and negative occurrences.

    The verdict rule: every sphere can pair within itself, so some pairing
    is disconnected; a connected one exists iff the graph on spheres that
    share a weight magnitude is connected.
    """
    points = [r for a, b in spheres for r in sphere_rows(a, b)]
    mags = sorted({abs(w) for r in points for w in r})
    distinct = 1
    for m in mags:
        pos = tuple(r.count(m) for r in points if m in r)
        neg = tuple(r.count(-m) for r in points if -m in r)
        distinct *= _count_tables(pos, neg)
    verdict = "DependsOnPairing" if _spheres_linked(spheres) else "NeverConnected"
    return {"distinct": distinct, "refused": distinct > CAP, "verdict": verdict}


def _spheres_linked(spheres) -> bool:
    mags = [{a, b, a + b} for a, b in spheres]
    seen, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for j in range(len(spheres)):
            if j not in seen and mags[i] & mags[j]:
                seen.add(j)
                todo.append(j)
    return len(seen) == len(spheres)


def raw_pairings(rows) -> int:
    """Occurrence-level pairing count: product over magnitudes of k!."""
    counts = Counter(w for r in rows for w in r if w > 0)
    return prod(factorial(k) for k in counts.values())
