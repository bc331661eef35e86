"""Exception types shared by every module of the toolkit."""

from __future__ import annotations


def _shown(value, text=repr) -> str:
    """text(value) for a message, or a stand-in when value holds an integer
    past Python's int/str digit limit (`sys.set_int_max_str_digits`), which
    str and repr refuse with a ValueError."""
    try:
        return text(value)
    except ValueError:
        return "<too many digits to print>"


class ToolkitError(Exception):
    """Base class for all errors raised by circle6."""


class BadArgument(ToolkitError, ValueError):
    """An argument lies outside the domain of the function it was passed
    to; also a ValueError, the type Python callers expect for that."""


class ParseError(ToolkitError):
    """Input is not valid JSON, or does not follow the dataset schema."""


class ValidationError(ToolkitError):
    """A dataset that parses but violates an invariant (raised as InvalidData).

    Carries the full list of violations so callers can report all problems
    at once instead of failing on the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations) or "invalid dataset")


class InvalidData(ValidationError):
    """An operation was handed a dataset that fails validation."""


class WrongDimension(ToolkitError):
    """Half-dimension mismatch: the operation needs n = 3 (or equal n's)."""


class WrongPointCount(ToolkitError):
    """Classification is defined only for datasets with exactly 4 fixed points."""


class NonIntegralChernNumber(ToolkitError):
    """The localized degree sum did not cancel to an integer.

    Weight data of a closed almost complex manifold always does, so a
    non-integral value signals inconsistent input. The offending exact
    rational is kept on the exception.
    """

    def __init__(self, value):
        self.value = value
        super().__init__(f"c_1^3 localization sum is not an integer: {_shown(value, str)}")


class BadParams(ToolkitError):
    """Family parameters violate the case's positivity/distinctness rules."""


class MissingProfile(ToolkitError):
    """The operation needs a homology profile and none was attached."""


class UnpairableWeights(ToolkitError):
    """Signed weight multiset is asymmetric; no opposite-weight pairing exists."""


class CapExceeded(ToolkitError):
    """Pairing enumeration would exceed the configured matching cap."""


class BadWeights(ToolkitError):
    """Isotropy weights must be > 1 and pairwise coprime."""


class BadDimensions(ToolkitError):
    """Dimension pair out of range: need 0 < k < 2n."""


class NotAdmissible(ToolkitError):
    """The mod-8 residue gate refuses this fiber connect sum."""


class NotSimplyConnected(ToolkitError):
    """Composition formulas are only available for simply connected inputs."""
