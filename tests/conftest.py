"""Shared builders for the test suite."""

from __future__ import annotations

import random
import sys

import pytest

from circle6 import FixedPointData, core, dataset


def sphere_points(a: int, b: int) -> list[tuple[str, tuple[int, int, int]]]:
    return [("p1", (a, b, -a - b)), ("p2", (-a, -b, a + b))]


def sphere_data(a: int = 1, b: int = 2) -> FixedPointData:
    """Standard sphere action weight data, without a homology profile."""
    return dataset(3, sphere_points(a, b))


def random_symmetric_dataset(rng: random.Random, max_points: int = 3,
                             max_weight: int = 4) -> FixedPointData:
    """A valid dataset whose signed weight multiset is symmetric: random
    points followed by a negated copy of each."""
    k = rng.randint(1, max_points)
    rows = []
    for i in range(k):
        ws = tuple(rng.choice([w for w in range(-max_weight, max_weight + 1) if w])
                   for _ in range(3))
        rows.append((f"q{i + 1}", ws))
    rows += [(f"r{i + 1}", tuple(-w for w in ws)) for i, (_, ws) in enumerate(rows)]
    return dataset(3, rows)


@pytest.fixture
def validate_calls(monkeypatch):
    """Every dataset passed to `circle6.core.validate` while the test runs,
    in call order (the list grows as validation happens)."""
    calls = []
    original = core.validate

    def counting(data):
        calls.append(data)
        return original(data)

    monkeypatch.setattr(core, "validate", counting)
    return calls


@pytest.fixture
def pass_calls(monkeypatch):
    """Every row tuple given to the localization layer's integer pass while
    the test runs, in call order. The pass is patched where each caller
    looks it up: the localization module and the classifier."""
    from circle6 import classifier, localization
    calls = []
    original = localization._integer_pass

    def counting(rows, n):
        calls.append(rows)
        return original(rows, n)

    for module in (localization, classifier):
        monkeypatch.setattr(module, "_integer_pass", counting)
    return calls


@pytest.fixture
def digit_limit():
    """Python's int/str digit limit, lowered to its minimum (640) while the
    test runs and restored after it, so a 641-digit integer is past it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(old)


def too_many_digits_document(digits: int) -> str:
    """A sphere document whose third weight has `digits` digits, written as
    text (json.dumps would refuse such an integer past the limit)."""
    return ('{"n": 3, "fixed_points": [{"name": "p1", "weights": [1, 2, -%s]}, '
            '{"name": "p2", "weights": [-1, -2, 3]}]}' % ("7" * digits))
