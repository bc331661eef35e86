"""The six weight families of circle actions with four fixed points.

Jang's classification lists, for every almost complex circle action on a
closed 6-manifold with exactly four fixed points, the possible weight
multisets as one of six parametric families. This module generates those
families and solves the inverse problem: given arbitrary 4-point weight
data, find every (case, parameters) pair that reproduces it, up to
permutation of points, permutation of weights within a point, and global
reversal of the action.

Matching is candidate-and-compare. Every template is affine in its
parameters. One rule picks the "pinned" slots the parameters are read off:
a slot pins when it is a function of exactly the parameters it reads, each
a plain entry (or its negative) of the slot, and no earlier pin reads them.
That gives slot 0 for cases A and E, slot 1 for cases B, C and F, slots 0
and 2 for case D. The matcher derives these slots and the signs the
templates force on their entries at import time.

A case is tried only where both Chern numbers the data fixes match it.
At import `_plan` checks that every slot not all forced positive has a
forced-negative entry, so the number of all-positive slots is the Todd
genus of every member, and it records the case's c_1^3 when a few sampled
members agree on it (64, 54, 0, -8, -2 for cases A, B, D, E, F; case C's
72 - 2a^2 varies, so C is not keyed). `classify` runs the localization
layer's integer pass once: its c_1^3 keys both orientations, since for
n = 3 it does not change under reversal, and its N_0 and N_3 are the Todd
genus of the data and of its reversal. It searches once per distinct
target, the sorted weight multisets of an orientation. When the reversed
data has the data's own multisets (every member of cases B, C, D and F,
every sum of two spheres) N_0 = N_3, so both orientations admit the same
cases, and the hits depend on the target alone; the reversed orientation
reuses them and only hands out its own point names.

For each case tried the matcher steps through every weight order of every
point together with its sign vector, keeps the orders whose signs a pin's
forced signs allow, and reads the parameters off them. A choice is kept
only when its slot regenerates itself: the template, evaluated at the
parameters read off it (the other parameters 0), gives back that exact
weight order in that slot. A true match always passes this self-check,
and most false ones stop there. Choices for different pins combine only
over distinct points, since a match puts each slot on its own point. The
matcher regenerates the whole family only for the combinations that
remain, and keeps those whose family equals the data as a multiset of
weight multisets.

Point names go out by rank: a stable sort orders a match's slots by
generated multiset, and the slot of rank i takes the i-th point name in
(weight multiset, name) order, so slots with equal multisets take their
names in slot order, the lexicographically smallest assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import permutations, product
from operator import itemgetter
from typing import Callable, Mapping, NamedTuple

from .core import FixedPointData, _is_int, _require_valid, dataset
from .errors import BadArgument, BadParams, WrongDimension, WrongPointCount, _shown
from .localization import _integer_pass


class CaseTag(Enum):
    """The six cases, tagged by their model manifolds."""

    A_CP3 = "A_CP3"
    B_Q3 = "B_Q3"
    C_Fano = "C_Fano"
    D_S6_union = "D_S6_union"
    E_BlP_S6 = "E_BlP_S6"
    F_BlC_S6 = "F_BlC_S6"

    @property
    def letter(self) -> str:
        return self.name[0]


@dataclass(frozen=True)
class JangCase:
    """One family member: a case tag plus its integer parameters."""

    tag: CaseTag
    params: tuple[int, ...]


def jang_case(tag: CaseTag | str, *params: int) -> JangCase:
    """Sugar: jang_case("A", 1, 2, 3) or jang_case(CaseTag.A_CP3, 1, 2, 3)."""
    return JangCase(_coerce_tag(tag), tuple(params))


def _coerce_tag(tag: CaseTag | str) -> CaseTag:
    if isinstance(tag, CaseTag):
        return tag
    text = _shown(tag, str).strip()     # the stand-in names no tag
    for t in CaseTag:
        if text.upper() == t.letter or text == t.value:
            return t
    raise BadParams(f"unknown case tag {_shown(tag)}; expected A..F or one of "
                    f"{[t.value for t in CaseTag]}")


# Weight rows of each family as functions of the parameters, and whether
# the case needs parameters >= 1. These are the single source of truth: the
# matcher derives its pinning slots and sign prefilter from them.
_FAMILIES: Mapping[CaseTag, tuple[tuple[str, ...], Callable[..., tuple], bool]] = {
    CaseTag.A_CP3: (("a", "b", "c"), lambda a, b, c: (
        (a, b, c), (-a, b - a, c - a), (-b, a - b, c - b), (-c, a - c, b - c)), True),
    CaseTag.B_Q3: (("a", "b"), lambda a, b: (
        (a, a + b, a + 2 * b), (-a, b, a + 2 * b),
        (-a - 2 * b, -b, a), (-a - 2 * b, -a - b, -a)), True),
    # Case C takes *any* integer a; a = 0 is accepted syntactically even
    # though the resulting zero weight fails dataset validation downstream.
    CaseTag.C_Fano: (("a",), lambda a: (
        (1, 2, 3), (-1, 1, a), (-1, 1, -a), (-1, -2, -3)), False),
    CaseTag.D_S6_union: (("a", "b", "c", "d"), lambda a, b, c, d: (
        (a, b, -a - b), (-a, -b, a + b), (c, d, -c - d), (-c, -d, c + d)), True),
    CaseTag.E_BlP_S6: (("a", "b"), lambda a, b: (
        (-3 * a - b, a, b), (-2 * a - b, 3 * a + b, 3 * a + 2 * b),
        (-a, -a - b, 2 * a + b), (-b, -3 * a - 2 * b, a + b)), True),
    CaseTag.F_BlC_S6: (("a", "b"), lambda a, b: (
        (-a - b, 2 * a + b, b), (-2 * a - b, a, b),
        (-b, -2 * a - b, a + b), (-a, -b, 2 * a + b)), True),
}


def _admissible(tag: CaseTag, positive: bool, params: tuple[int, ...]) -> bool:
    """The constraints of a case: parameters >= 1 where the family needs
    them (`positive`, its flag in _FAMILIES), and pairwise distinct in
    case A."""
    if positive and min(params) < 1:
        return False
    return tag is not CaseTag.A_CP3 or len(set(params)) == len(params)


def param_names(tag: CaseTag | str) -> tuple[str, ...]:
    """The parameter names a case expects, in order."""
    return _FAMILIES[_coerce_tag(tag)][0]


def gen_family(case: JangCase) -> FixedPointData:
    """The 4-point dataset of a family member, points named p1..p4.

    Raises BadParams when the tag is not a CaseTag, the parameters are not
    a tuple, or they violate the case's constraints (wrong arity,
    non-positive entries where positivity is required, or a repeated value
    in case A).
    """
    if not isinstance(case, JangCase):
        raise BadArgument(f"expected a JangCase, got {_shown(case)}")
    if not isinstance(case.tag, CaseTag) or not isinstance(case.params, tuple):
        raise BadParams(f"expected a CaseTag and a tuple of parameters, got {_shown(case)}")
    names, fn, positive = _FAMILIES[case.tag]
    if len(case.params) != len(names):
        raise BadParams(f"case {case.tag.value} takes parameters {names}, "
                        f"got {len(case.params)} value(s)")
    if not all(map(_is_int, case.params)):
        raise BadParams(f"parameters must be integers, got {_shown(case.params)}")
    if not _admissible(case.tag, positive, case.params):
        raise BadParams(f"parameters {_shown(case.params, str)} violate the constraints of case "
                        f"{case.tag.value}")
    rows = fn(*case.params)
    return dataset(3, ((f"p{i + 1}", ws) for i, ws in enumerate(rows)))


# ---------------------------------------------------------------------------
# inverse problem
# ---------------------------------------------------------------------------

def _affine_forms(fn: Callable[..., tuple], k: int):
    """Affine forms (coeffs, const) of every template entry, by probing.

    Sound because every template is affine in its parameters.
    """
    zero = fn(*([0] * k))
    units = [fn(*(1 if j == i else 0 for j in range(k))) for i in range(k)]
    return tuple(
        tuple((tuple(units[i][s][e] - zero[s][e] for i in range(k)), zero[s][e])
              for e in range(3))
        for s in range(4))


def _forced_sign(coeffs: tuple[int, ...], const: int, positive: bool) -> int:
    """+1 or -1 when an entry has that sign for every admissible parameter
    vector, else 0. With parameters >= 1 that holds when the coefficients
    and the constant share a sign; with free integers only for constants."""
    if not positive and any(coeffs):
        return 0
    terms = (*coeffs, const)
    if any(terms):
        if all(t >= 0 for t in terms):
            return 1
        if all(t <= 0 for t in terms):
            return -1
    return 0


class _Pin(NamedTuple):
    """A pinning slot: its index, the sign vectors (True: positive) its
    entries may have given the forced signs, and the parameters it reads as
    (entry, parameter index, sign) with parameter = sign * entry. Every
    entry of the slot depends on these parameters alone."""

    slot: int
    keys: frozenset[tuple[bool, bool, bool]]
    reads: tuple[tuple[int, int, int], ...]


class _Plan(NamedTuple):
    """How to match one case: its tag and template, and the pinned slots
    its parameters are read off, in the order taken. n0 is the number of
    slots whose entries are all forced positive; `_plan` checks that every
    other slot has a forced-negative entry, so n0 is the number of
    all-positive points of every member (its Todd genus). c1 is the c_1^3
    of every member when the sampled members agree on it, else None."""

    tag: CaseTag
    fn: Callable[..., tuple]
    pins: tuple[_Pin, ...]
    n0: int
    c1: Fraction | None


def _plan(tag: CaseTag) -> _Plan:
    """Pin each slot that is a function of exactly the parameters it reads
    (off entries +-e_i, constant 0), of at least one, and of none that an
    earlier pin reads. Slots are taken largest first, earliest on a tie.

    Raises ValueError when no pin reads some parameter, or when a slot is
    neither all forced positive nor has a forced-negative entry (then n0
    would not be the Todd genus of every member).
    """
    names, fn, positive = _FAMILIES[tag]
    slots = []   # (-size, slot, bare reads {parameter: (entry, sign)}, dependencies, forced signs)
    for s, slot in enumerate(_affine_forms(fn, len(names))):
        bare, deps = {}, set()
        for e, (coeffs, const) in enumerate(slot):
            used = [i for i, c in enumerate(coeffs) if c]
            deps.update(used)
            if const == 0 and len(used) == 1 and coeffs[used[0]] in (1, -1):
                bare.setdefault(used[0], (e, coeffs[used[0]]))
        signs = [_forced_sign(c, const, positive) for c, const in slot]
        if min(signs) == 0:
            raise ValueError(f"case {tag.value}: slot {s} is neither all positive "
                             f"nor has a forced-negative entry")
        slots.append((-len(deps), s, bare, deps, signs))
    read, pins = set(), []
    for _, s, bare, deps, signs in sorted(slots):
        if deps and deps == bare.keys() and not deps & read:
            read |= deps
            pins.append(_Pin(s, frozenset(product(*((sg > 0,) if sg else (True, False) for sg in signs))),
                             tuple((bare[i][0], i, bare[i][1]) for i in sorted(deps))))
    if len(read) < len(names):
        raise ValueError(f"case {tag.value}: no pinned slot reads "
                         f"{[n for i, n in enumerate(names) if i not in read]}")
    # c1: the value a few admissible members share; a case whose c_1^3
    # depends on its parameters (case C: 72 - 2a^2) gets None, so keying on
    # it never drops a member the sample did not see
    c1s = {_integer_pass(fn(*params), 3)[0] for params in (s[:len(names)] for s in _C1_SAMPLES)
           if _admissible(tag, positive, params)}
    return _Plan(tag, fn, tuple(pins), sum(min(t[-1]) > 0 for t in slots),
                 c1s.pop() if len(c1s) == 1 else None)


_C1_SAMPLES = ((1, 2, 3, 4), (2, 3, 4, 5), (3, 4, 5, 6))


_PLANS = {tag: _plan(tag) for tag in CaseTag}


def _candidates(plan: _Plan, pts: tuple[tuple[int, ...], ...]):
    """The parameter vectors the pinning slots admit on the weight rows `pts`.

    A point in a weight order fills a pinning slot only when it has the
    slot's forced signs and regenerates itself: the template, evaluated at
    the parameters read off that order (the others 0), gives back exactly
    that order in the slot. Every entry of a pinned slot depends only on
    the parameters its pin reads, so a true match always passes. The pins
    read disjoint parameters, so their vectors combine by adding, and only
    over distinct points: a match puts each slot on its own point, and two
    identical points give the same parameters. The caller regenerates each
    combination and compares it with the data.
    """
    k = sum(len(pin.reads) for pin in plan.pins)
    per_pin = []
    for pin in plan.pins:
        by_point: dict[int, set[tuple[int, ...]]] = {}
        for point, ws in enumerate(pts):
            for order, key in zip(permutations(ws), permutations([w > 0 for w in ws])):
                if key not in pin.keys:
                    continue
                params = [0] * k
                for e, i, sign in pin.reads:
                    params[i] = sign * order[e]
                if plan.fn(*params)[pin.slot] == order:
                    by_point.setdefault(point, set()).add(tuple(params))
        if not by_point:
            return set()
        per_pin.append(by_point.items())
    return {tuple(map(sum, zip(*combo)))
            for points in product(*per_pin)
            if len({point for point, _ in points}) == len(points)
            for combo in product(*(values for _, values in points))}


@dataclass(frozen=True)
class CaseMatch:
    """One way the data fits a family.

    assignment[s] is the name of the data point occupying family slot s.
    When reversed is true the family reproduces the data only after
    negating all generated weights (the reversed circle action).
    """

    case: JangCase
    assignment: tuple[str, str, str, str]
    reversed: bool


@dataclass(frozen=True)
class ClassificationResult:
    """Every match, deduplicated by (case, params, reversed) and sorted."""

    matches: tuple[CaseMatch, ...]

    def __bool__(self) -> bool:
        return bool(self.matches)


def classify(data: FixedPointData) -> ClassificationResult:
    """Match 4-point weight data against all six families.

    Returns every (case, parameters, assignment, reversed) tuple whose
    generated family equals the data as a multiset of weight multisets;
    the list is empty when nothing fits (that is a report, not an error).
    Ties in parameter recovery coming from different assignments are
    deduplicated, keeping the lexicographically smallest assignment, so the
    result does not depend on the order of points or of weights within a
    point.
    """
    _require_valid(data)
    return _classify(data)


def _classify(data: FixedPointData) -> ClassificationResult:
    """`classify` on valid data."""
    if data.n != 3:
        raise WrongDimension(f"classification needs n = 3, got n = {_shown(data.n)}")
    if len(data.points) != 4:
        raise WrongPointCount(f"classification needs exactly 4 fixed points, "
                              f"got {len(data.points)}")
    rows = data.weight_rows()
    # for n = 3, c_1^3 does not change when every weight is negated, so one
    # value keys both passes (no member has a non-integral one); reversal
    # swaps the all-positive and all-negative points, so N_3 is its Todd genus
    c1, counts = _integer_pass(rows, 3)
    # keyed by case position, so sorting the keys gives CaseTag order
    found: dict[tuple[int, tuple[int, ...], bool], CaseMatch] = {}
    # the hits of each distinct target (the sorted weight multisets): a
    # reversal with the data's own multisets admits the same cases, as
    # N_0 = N_3, and since _candidates never drops a true match it has the
    # same hits, so it is not searched again
    hits: dict[tuple, list[tuple[int, JangCase, list]]] = {}
    for rev in (False, True):
        n0 = counts[3 if rev else 0]
        cases = [(pos, plan) for pos, plan in enumerate(_PLANS.values())
                 if plan.n0 == n0 and (plan.c1 is None or plan.c1 == c1)]
        if not cases:
            continue
        pts = tuple(tuple(-w for w in ws) for ws in rows) if rev else rows
        multisets = [tuple(sorted(ws)) for ws in pts]
        target = sorted(multisets)
        key = tuple(target)
        if key not in hits:
            searched = hits[key] = []
            for pos, plan in cases:
                # no _admissible check: pin keys force read signs; equal A params regenerate a 0 weight
                for params in _candidates(plan, pts):
                    generated = [tuple(sorted(ws)) for ws in plan.fn(*params)]
                    order = sorted(range(4), key=generated.__getitem__)   # stable
                    if [generated[s] for s in order] == target:
                        # the rank of each slot in that order picks its name
                        rank = itemgetter(*sorted(range(4), key=order.__getitem__))
                        searched.append((pos, JangCase(plan.tag, params), rank))
        # all assignments for fixed params differ only by permuting identical
        # points, so names sorted by (multiset, name) and taken by rank give
        # each multiset's names in slot order: the smallest assignment
        names = [name for _, name in sorted(zip(multisets, data.names()))]
        for pos, case, rank in hits[key]:
            found[pos, case.params, rev] = CaseMatch(case, rank(names), rev)
    return ClassificationResult(tuple(found[k] for k in sorted(found)))
