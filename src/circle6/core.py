"""Fixed-point weight datasets: data model, validation and JSON I/O.

A dataset records an almost complex circle action on a closed 2n-manifold
through its isolated fixed points only: each point carries the multiset of
n nonzero integer rotation weights of the action on the tangent space.
Everything downstream (localized Chern numbers, family matching, pairing
multigraphs, connect-sum bookkeeping) consumes this object.

The on-disk form is a JSON document::

    {
      "n": 3,
      "fixed_points": [
        {"name": "p1", "weights": [1, 2, -3]},
        {"name": "p2", "weights": [-1, -2, 3]}
      ],
      "homology": {"simply_connected": true, "b2": 0, "b3": 0,
                   "torsion_free": true},          // optional
      "labels": {"note": "standard sphere"}        // optional, str -> str
    }

All arithmetic on weights is exact: weights are arbitrary-precision ints
and rational values are `fractions.Fraction` (always lowest terms, positive
denominator), rendered as "p/q" strings in JSON output.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, fields
from fractions import Fraction
from numbers import Rational
from os import PathLike
from pathlib import Path
from typing import IO

from .errors import BadArgument, InvalidData, ParseError, _shown

# Exact rational scalar used everywhere a localization sum can be fractional.
RationalScalar = Fraction

# Ordered weight tuple at one fixed point; treated as a multiset downstream.
WeightVector = tuple[int, ...]


@dataclass(frozen=True)
class FixedPoint:
    """A named fixed point with its weight vector."""

    name: str
    weights: WeightVector


@dataclass(frozen=True)
class HomologyProfile:
    """Betti/torsion bookkeeping for a simply connected closed 6-manifold."""

    simply_connected: bool
    b2: int
    b3: int
    torsion_free: bool

    def euler(self) -> int:
        """Euler characteristic 2 + 2*b2 - b3 (Poincare duality, b1 = 0)."""
        return 2 + 2 * self.b2 - self.b3


#: Profile of the 6-sphere.
SPHERE_PROFILE = HomologyProfile(simply_connected=True, b2=0, b3=0, torsion_free=True)


@dataclass(frozen=True)
class FixedPointData:
    """A full dataset: half-dimension, named fixed points, optional extras.

    Instances are immutable values (labels count in equality, not in the
    hash); every operation in this package is a pure function of its inputs,
    so datasets may be shared freely between threads. Construction does not
    validate: run :func:`validate` (or go through :func:`load`).
    """

    n: int
    points: tuple[FixedPoint, ...]
    homology: HomologyProfile | None = None
    labels: Mapping[str, str] = field(default_factory=dict, hash=False)

    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.points)

    def weight_rows(self) -> tuple[WeightVector, ...]:
        return tuple(p.weights for p in self.points)


def dataset(
    n: int,
    points: Iterable[tuple[str, Iterable[int]]],
    homology: HomologyProfile | None = None,
    labels: Mapping[str, str] | None = None,
) -> FixedPointData:
    """Convenience builder from (name, weights) pairs.

    Raises BadArgument when `points` is not an iterable of (name, weights)
    pairs with iterable weights, or `dict` cannot read `labels`; it checks
    nothing else (run :func:`validate` for that).
    """
    try:
        pts = tuple(FixedPoint(name, tuple(ws)) for name, ws in points)
        return FixedPointData(n=n, points=pts, homology=homology, labels=dict(labels or {}))
    except (TypeError, ValueError):
        raise BadArgument("dataset needs an iterable of (name, weights) pairs "
                          "and a labels mapping") from None


def negate_all(data: FixedPointData) -> FixedPointData:
    """The same dataset with every weight negated (the reversed action)."""
    _require_integer_weights(data)
    pts = tuple(FixedPoint(p.name, tuple(-w for w in p.weights)) for p in data.points)
    return FixedPointData(data.n, pts, data.homology, dict(data.labels))


_UNION_PREFIXES = ("m1.", "m2.")


def disjoint_union(d1: FixedPointData, d2: FixedPointData) -> FixedPointData:
    """Concatenate two datasets of equal n, prefixing names "m1." / "m2."
    to keep them unique.

    Carries neither homology nor labels; composition rules that know what
    the union means (e.g. the fiber connect sum) attach their own.
    """
    _require_dataset(d1)
    _require_dataset(d2)
    if d1.n != d2.n:
        raise BadArgument(f"cannot union datasets with n={_shown(d1.n, str)} and "
                          f"n={_shown(d2.n, str)}")
    return FixedPointData(d1.n, _union_points(d1, d2))


def _union_points(d1: FixedPointData, d2: FixedPointData) -> tuple[FixedPoint, ...]:
    """The points of `disjoint_union(d1, d2)`, for datasets already gated."""
    return tuple(FixedPoint(prefix + p.name, p.weights)
                 for prefix, d in zip(_UNION_PREFIXES, (d1, d2)) for p in d.points)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    """One broken invariant: a stable rule id plus the offending location."""

    rule: str
    point: str | None
    message: str

    def __str__(self) -> str:
        where = f" at {self.point}" if self.point is not None else ""
        return f"{self.rule}{where}: {self.message}"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _require_dataset(data) -> None:
    """Raise BadArgument unless `data` is a dataset at all: the one type
    gate of every public function taking a dataset argument.

    It checks the shape of the fields, not their values: `points` is a
    tuple of FixedPoint, each with a tuple of weights, `homology` is None
    or a HomologyProfile with bool flags, and `labels` maps str to str, as
    a saved document must for `load` to read it back. Names, weights, n
    and the Betti numbers are left to :func:`validate`, which reports them
    as violations."""
    if not isinstance(data, FixedPointData):
        raise BadArgument(f"expected a FixedPointData dataset, got {type(data).__name__}")
    if not isinstance(data.points, tuple):
        raise BadArgument(f"points must be a tuple, got {type(data.points).__name__}")
    for p in data.points:
        if not isinstance(p, FixedPoint) or not isinstance(p.weights, tuple):
            raise BadArgument(f"points must be FixedPoint values with tuple weights, "
                              f"got {_shown(p)}")
    h = data.homology
    if h is not None and not (isinstance(h, HomologyProfile) and isinstance(h.simply_connected, bool)
                              and isinstance(h.torsion_free, bool)):
        raise BadArgument(f"homology must be None or a HomologyProfile with bool flags, "
                          f"got {_shown(h)}")
    if not isinstance(data.labels, Mapping):
        raise BadArgument(f"labels must be a mapping, got {_shown(data.labels)}")
    for k, v in data.labels.items():
        if not (isinstance(k, str) and isinstance(v, str)):
            raise BadArgument(f"labels must map strings to strings, got {_shown(data.labels)}")


def _require_integer_weights(data) -> None:
    """Raise BadArgument unless `data` is a dataset whose weights are all
    integers: the gate of operations that compute on data they do not
    validate."""
    _require_dataset(data)
    bad = [w for p in data.points for w in p.weights if not _is_int(w)]
    if bad:
        raise BadArgument(f"weights must be integers, got {_shown(bad)}")


def validate(data: FixedPointData) -> list[Violation]:
    """Check every dataset invariant; return all violations (empty = valid).

    Violations are data, not failures: the only error the function raises
    is BadArgument, when `data` is not a FixedPointData at all or its
    fields have the wrong shape (see `_require_dataset`). The same
    rules apply regardless of point order, so permuting points only
    permutes the report.
    """
    _require_dataset(data)
    out: list[Violation] = []
    n_ok = _is_int(data.n) and data.n >= 1
    if not n_ok:
        out.append(Violation("BadHalfDimension", None, f"n must be a positive integer, got {_shown(data.n)}"))
    seen: set[str] = set()
    for p in data.points:
        if not isinstance(p.name, str) or not p.name:
            out.append(Violation("EmptyName", p.name if isinstance(p.name, str) else None,
                                 "point names must be nonempty strings"))
            continue
        if p.name in seen:
            out.append(Violation("DuplicateName", p.name, "point names must be unique"))
        seen.add(p.name)
        # a plain int passes on its type alone, without a call per weight
        bad_type = [w for w in p.weights if type(w) is not int and not _is_int(w)]
        if bad_type:
            out.append(Violation("NonIntegerWeight", p.name, f"weights must be integers, got {_shown(bad_type)}"))
            continue
        if n_ok and len(p.weights) != data.n:
            out.append(Violation("WrongArity", p.name,
                                 f"expected {_shown(data.n)} weights, got {len(p.weights)}"))
        if 0 in p.weights:
            out.append(Violation("ZeroWeight", p.name, "weights must be nonzero"))
    h = data.homology
    if h is not None:
        if not _is_int(h.b2) or h.b2 < 0 or not _is_int(h.b3) or h.b3 < 0:
            out.append(Violation("NegativeBetti", None, f"b2={_shown(h.b2)}, b3={_shown(h.b3)} must be nonnegative integers"))
        elif h.b3 % 2 != 0:
            out.append(Violation("OddB3", None, f"b3 must be even, got {_shown(h.b3)}"))
        elif h.simply_connected and h.torsion_free and h.euler() != len(data.points):
            out.append(Violation(
                "EulerMismatch", None,
                f"2 + 2*b2 - b3 = {_shown(h.euler())} but the dataset has {len(data.points)} fixed points"))
    return out


def _require_valid(data: FixedPointData) -> None:
    """Raise InvalidData carrying every violation unless `data` is valid
    (BadArgument when it is not a dataset at all).

    The one validation pass of each public operation on a dataset argument.
    """
    violations = validate(data)
    if violations:
        raise InvalidData(violations)


# ---------------------------------------------------------------------------
# JSON I/O
# ---------------------------------------------------------------------------

def format_rational(x: Fraction | int) -> str:
    """Render an exact rational as "p/q" (integers as "p/1")."""
    if not isinstance(x, Rational):
        raise BadArgument(f"expected an exact rational, got {_shown(x)}")
    f = Fraction(x)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError:   # past the int/str digit limit
        raise BadArgument("rational too long to print as p/q") from None


def _json_fields(result) -> dict:
    """A dataclass value's fields in declaration order, JSON-ready: tuples
    as lists and exact rationals as "p/q" strings."""
    return {key: list(v) if isinstance(v, tuple)
            else format_rational(v) if isinstance(v, Fraction) else v
            for key, v in vars(result).items()}


def parse_rational(text: str) -> Fraction:
    """Parse an integer or "p/q" literal. Float syntax is rejected on purpose."""
    if not isinstance(text, str):
        raise BadArgument(f"expected a rational literal string, got {_shown(text)}")
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            n, d = int(num), int(den)
        except ValueError:
            raise ParseError(f"not an exact rational: {text!r}") from None
        if d == 0:
            raise ParseError(f"zero denominator: {text!r}")
        return Fraction(n, d)
    try:
        return Fraction(int(s))
    except ValueError:
        raise ParseError(f"not an exact integer or p/q rational: {text!r}") from None


def document(data: FixedPointData) -> dict:
    """The JSON-ready dict for a dataset (inverse of the parser)."""
    _require_dataset(data)
    doc: dict = {
        "n": data.n,
        "fixed_points": [{"name": p.name, "weights": list(p.weights)} for p in data.points],
    }
    if data.homology is not None:
        doc["homology"] = _json_fields(data.homology)
    if data.labels:
        doc["labels"] = dict(data.labels)
    return doc


def _json_text(doc) -> str:
    """The JSON text of a document: sorted keys, indent 2, a trailing
    newline. BadArgument when it holds an integer past Python's int/str
    digit limit (`sys.set_int_max_str_digits`)."""
    try:
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    except ValueError:
        raise BadArgument("an integer is too long to write as JSON") from None


def _write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 text to a file; BadArgument when the path cannot be written."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise BadArgument(f"cannot write {path}: {exc}") from exc


def _require_path(path):
    """The path itself when it is a `str` or `os.PathLike`, else BadArgument
    (an int would name a file descriptor to `open`)."""
    if not isinstance(path, (str, PathLike)):
        raise BadArgument(f"expected a path or a stream, got {_shown(path)}")
    return path


def save(data: FixedPointData, target: str | PathLike | IO[str]) -> None:
    """Write the dataset document as UTF-8 JSON (deterministic key order).

    The target is a path (`str` or `os.PathLike`) or a stream with a
    `write` method. Raises BadArgument for any other target or an
    integer past the int/str digit limit, before anything is opened, and
    when a target path cannot be written.
    """
    text = _json_text(document(data))
    if hasattr(target, "write"):
        target.write(text)
    else:
        _write_text(_require_path(target), text)


_TOP_KEYS = {"n", "fixed_points", "homology", "labels"}
_HOMOLOGY_KEYS = {f.name for f in fields(HomologyProfile)}


def _parse_document(doc) -> FixedPointData:
    if not isinstance(doc, dict):
        raise ParseError(f"document root must be an object, got {type(doc).__name__}")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ParseError(f"unknown top-level keys: {sorted(unknown)}")
    if "n" not in doc or not _is_int(doc["n"]):
        raise ParseError('"n" must be present and an integer')
    raw_points = doc.get("fixed_points")
    if not isinstance(raw_points, list):
        raise ParseError('"fixed_points" must be a list')
    points = []
    for i, entry in enumerate(raw_points):
        if not isinstance(entry, dict) or set(entry) != {"name", "weights"}:
            raise ParseError(f'fixed_points[{i}] must be an object with "name" and "weights"')
        if not isinstance(entry["name"], str):
            raise ParseError(f"fixed_points[{i}].name must be a string")
        if not isinstance(entry["weights"], list) or not all(_is_int(w) for w in entry["weights"]):
            raise ParseError(f"fixed_points[{i}].weights must be a list of integers")
        points.append((entry["name"], entry["weights"]))
    homology = None
    if "homology" in doc:
        raw_h = doc["homology"]
        if not isinstance(raw_h, dict) or set(raw_h) != _HOMOLOGY_KEYS:
            raise ParseError(f'"homology" must be an object with keys {sorted(_HOMOLOGY_KEYS)}')
        if not isinstance(raw_h["simply_connected"], bool) or not isinstance(raw_h["torsion_free"], bool):
            raise ParseError("homology flags must be booleans")
        if not _is_int(raw_h["b2"]) or not _is_int(raw_h["b3"]):
            raise ParseError("homology Betti numbers must be integers")
        homology = HomologyProfile(**raw_h)
    labels: dict[str, str] = {}
    if "labels" in doc:
        raw_l = doc["labels"]
        if not isinstance(raw_l, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in raw_l.items()
        ):
            raise ParseError('"labels" must map strings to strings')
        labels = dict(raw_l)
    return dataset(doc["n"], points, homology=homology, labels=labels)


def _read(source: str | PathLike | IO[str]) -> FixedPointData:
    """Read a dataset document without validating it.

    The source is a path (`str` or `os.PathLike`) or a stream with a
    `read` method. Raises BadArgument for any other source, before
    anything is opened, and ParseError for an unreadable or non-UTF-8
    file, malformed JSON, an integer past Python's int/str digit limit
    (`sys.set_int_max_str_digits`) or schema violations.
    """
    if not hasattr(source, "read"):
        _require_path(source)   # before the try: BadArgument is a ValueError
    try:
        if hasattr(source, "read"):
            doc = json.load(source)
        else:
            with open(source, encoding="utf-8") as fh:
                doc = json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:   # too deeply nested
        raise ParseError(f"malformed JSON: {exc}") from exc
    except (OSError, ValueError) as exc:   # ValueError: not UTF-8, or too many digits
        raise ParseError(f"cannot read {source}: {exc}") from exc
    return _parse_document(doc)


def load(source: str | PathLike | IO[str]) -> FixedPointData:
    """Read a dataset document with `_read` and refuse invalid data with
    InvalidData, a ValidationError carrying the violation list."""
    data = _read(source)
    _require_valid(data)
    return data
