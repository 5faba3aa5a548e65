"""Poisson sample-size and power calculations for rate comparisons.

Everything here rests on the asymptotic normal approximation to the
Poisson distribution: an observed event count X over exposure t with
true rate lambda is treated as X ~ N(lambda*t, lambda*t).  The required
exposure to distinguish a fictive rate r*lambda_B from the benchmark
lambda_B with a two-sided level-alpha test at a target power solves in
closed form; see required_vmt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ValidationError

# Rational approximation coefficients for the standard normal inverse
# CDF (central region |p - 0.5| <= 0.425, tail region otherwise).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(p: float) -> float:
    """Standard normal inverse CDF, absolute error well under 1e-9.

    A rational approximation gives roughly 1e-9 accuracy on its own; one
    Halley refinement step against erfc-based normal_cdf pushes the error
    to the floating-point floor.
    """
    if not 0.0 < p < 1.0:
        raise ValidationError(f"quantile argument must lie in (0, 1), got {p!r}")
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    elif p <= p_high:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
              / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    # Halley step: e = CDF(x) - p, u = e / pdf(x).  For p > 1/2 the CDF
    # sits next to 1 and the subtraction would eat the residual, so use
    # the survival form there; 1 - p is exact in that half.
    if x > 0.0:
        e = (1.0 - p) - 0.5 * math.erfc(x / _SQRT2)
    else:
        e = 0.5 * math.erfc(-x / _SQRT2) - p
    u = e * _SQRT2PI * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


# The open interval each setting of a power query lies in.
_RANGES = {
    "benchmark_rate": (0.0, math.inf),
    "relative_rate": (0.0, math.inf),
    "alpha": (0.0, 1.0),
    "target_power": (0.0, 1.0),
}


def check_setting(name: str, value: float) -> float:
    """``value`` if it lies in the range of the ``PowerQuery`` field
    ``name``; otherwise a ValidationError naming the field."""
    low, high = _RANGES[name]
    if not low < value < high:
        bound = "be positive" if high == math.inf else f"lie in ({low:g}, {high:g})"
        raise ValidationError(f"{name} must {bound}, got {value!r}")
    return value


@dataclass(frozen=True)
class PowerQuery:
    """One sample-size question against a benchmark rate.

    benchmark_rate is in events per million miles; relative_rate r means
    the fictive fleet crashes at r times the benchmark.  Every field is
    checked against its range (``check_setting``).
    """

    benchmark_rate: float
    relative_rate: float
    alpha: float = 0.05
    target_power: float = 0.80

    def __post_init__(self) -> None:
        for name in _RANGES:
            check_setting(name, getattr(self, name))


def required_vmt(query: PowerQuery) -> float:
    """Million miles needed to separate the fictive rate from the benchmark.

    Closed form: with z_a the upper alpha/2 normal quantile and z_p the
    target-power quantile,

        t = ((z_a + z_p * sqrt(r)) / |1 - r|)**2 / lambda_B.

    The numerator-squared term is the benchmark-expected event count, so
    scaling lambda_B by k scales t by exactly 1/k.
    """
    r = query.relative_rate
    if r == 1.0:
        raise ValidationError("relative_rate 1 needs unbounded exposure")
    z_a = normal_quantile(1.0 - query.alpha / 2.0)
    z_p = normal_quantile(query.target_power)
    events = ((z_a + z_p * math.sqrt(r)) / abs(1.0 - r)) ** 2
    return events / query.benchmark_rate


def achieved_power(benchmark_rate: float, relative_rate: float, vmt_millions: float,
                   alpha: float = 0.05) -> float:
    """Power of the two-sided test at a given exposure.

    Inverse of required_vmt under the same approximation:
    power = Phi((|1-r| * mu0 - z_a * sqrt(mu0)) / sqrt(r * mu0)) with
    mu0 = lambda_B * t, so feeding required_vmt's output back in returns
    the target power.
    """
    query = PowerQuery(benchmark_rate, relative_rate, alpha=alpha)
    if not vmt_millions > 0.0:
        raise ValidationError(f"vmt_millions must be positive, got {vmt_millions!r}")
    r = query.relative_rate
    mu0 = query.benchmark_rate * vmt_millions
    z_a = normal_quantile(1.0 - alpha / 2.0)
    return normal_cdf((abs(1.0 - r) * mu0 - z_a * math.sqrt(mu0))
                      / math.sqrt(r * mu0))


@dataclass(frozen=True)
class PowerCell:
    relative_rate: float
    vmt_millions: float | None       # None when r == 1 or the benchmark rate is 0
    note: str = ""


@dataclass(frozen=True)
class PowerTable:
    """Required-mileage matrix: severity rows by relative-rate columns."""

    alpha: float
    target_power: float
    relative_rates: tuple[float, ...]
    rows: tuple[tuple[str, float, tuple[PowerCell, ...]], ...] = field(default=())


def power_table(
    rates: list[tuple[str, float]],
    relative_rates: list[float],
    alpha: float = 0.05,
    target_power: float = 0.80,
) -> PowerTable:
    """required_vmt over a grid of benchmark rates and relative rates.

    Two cells have no finite answer and are left empty with a note rather
    than raising: a relative rate of exactly 1 ("diverges": no exposure
    distinguishes identical rates) and a benchmark rate of exactly 0 ("zero
    rate": no events were observed to compare against).  Their settings are
    still checked.  A row whose rate or settings are rejected raises
    ValidationError naming its label.
    """
    if not rates or not relative_rates:
        raise ValidationError("power table needs at least one rate and one column")
    rows = []
    for label, lam in rates:
        cells = []
        for r in relative_rates:
            try:
                # An empty cell's settings are checked too: a zero rate
                # stands in as 1 for that check alone.
                q = PowerQuery(lam or 1.0, r, alpha=alpha, target_power=target_power)
            except ValidationError as exc:
                raise ValidationError(f"power row {label}: {exc}") from None
            if r == 1.0:
                cells.append(PowerCell(r, None, note="diverges"))
            elif lam == 0.0:
                cells.append(PowerCell(r, None, note="zero rate"))
            else:
                cells.append(PowerCell(r, required_vmt(q)))
        rows.append((label, lam, tuple(cells)))
    return PowerTable(
        alpha=alpha,
        target_power=target_power,
        relative_rates=tuple(relative_rates),
        rows=tuple(rows),
    )
