"""Localized invariants from fixed-point weight data.

For an almost complex circle action with isolated fixed points, the
fixed-point localization theorem turns characteristic numbers into finite
sums over the fixed points. With weights w_{p,1}, ..., w_{p,n} at p:

    c_1^3[M]  =  sum_p (w_{p,1} + ... + w_{p,n})^3 / (w_{p,1} * ... * w_{p,n})

for n = 3, computed here over exact rationals (there are no tolerance
parameters in this module; the whole point of the integrality check is
that the sum must cancel to an integer for consistent data).

Counting fixed points by their number of negative weights gives the
coefficients of the chi_y genus,

    chi_y = sum_p N_p (-y)^p,   N_p = #{points with exactly p negative weights},

so chi_{y=-1} is the Euler characteristic (the number of fixed points) and
the constant term N_0 is the Todd genus, which also equals c_1 c_2 / 24.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .core import FixedPointData, _json_fields, _require_valid
from .errors import NonIntegralChernNumber, WrongDimension, _shown


def c1_cubed(data: FixedPointData) -> Fraction:
    """Exact value of the c_1^3 localization sum (the lenient entry point).

    Returns the raw rational without an integrality gate; use
    :func:`chern_report` to insist the dataset is consistent.
    """
    return _localize(data)[0]


def chi_y_profile(data: FixedPointData) -> list[int]:
    """Coefficients N_0 ... N_n counting points by number of negative weights."""
    _require_valid(data)
    return _integer_pass(data.weight_rows(), data.n)[1]


def _localize(data: FixedPointData) -> tuple[Fraction, list[int]]:
    """Validate once, insist on n = 3, and run the integer pass."""
    _require_valid(data)
    if data.n != 3:
        raise WrongDimension(f"c_1^3 is defined for n = 3, got n = {_shown(data.n)}")
    return _integer_pass(data.weight_rows(), 3)


def _integer_pass(rows, n: int) -> tuple[Fraction, list[int]]:
    """One pass over weight rows: the sum of (w_1 + ... + w_n)^3 / e_p,
    accumulated over the common denominator lcm(e_p) of the Euler classes
    e_p = w_1 * ... * w_n, and the counts N_0 ... N_n of points by number
    of negative weights. The sum is c_1^3 only when n = 3. The rows must
    be free of zeros; the caller has validated them."""
    counts = [0] * (n + 1)
    num, common = 0, 1
    for ws in rows:
        counts[len([w for w in ws if w < 0])] += 1
        e = prod(ws)
        step = lcm(common, e)
        num = num * (step // common) + sum(ws) ** 3 * (step // e)
        common = step
    return Fraction(num, common), counts


def todd_genus(data: FixedPointData) -> int:
    """N_0: the number of fixed points with every weight positive."""
    return chi_y_profile(data)[0]


@dataclass(frozen=True)
class ChernReport:
    """All localized invariants of one dataset.

    Satisfies euler == sum(chi_y_coeffs) == number of fixed points and
    c1c2 == 24 * todd; c1_cubed is integral by construction (the factory
    refuses non-integral sums).
    """

    c1_cubed: Fraction
    todd: int
    c1c2: int
    euler: int
    chi_y_coeffs: tuple[int, ...]

    def as_json_dict(self) -> dict:
        return _json_fields(self)


def chern_report(data: FixedPointData) -> ChernReport:
    """Full report with the integrality gate.

    Raises NonIntegralChernNumber when the c_1^3 sum has a denominator:
    such weight data cannot come from a closed almost complex manifold.
    """
    value, coeffs = _localize(data)
    if value.denominator != 1:
        raise NonIntegralChernNumber(value)
    n0 = coeffs[0]
    return ChernReport(
        c1_cubed=value,
        todd=n0,
        c1c2=24 * n0,
        euler=len(data.points),
        chi_y_coeffs=tuple(coeffs),
    )
