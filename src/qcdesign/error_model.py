"""Critical analytical errors and analytic power oracles.

The critical systematic error is the mean shift (in SD units) at which
the probability of a result exceeding the medically allowable total
error equals the clinical type I bound; the critical random error is the
SD inflation multiplier doing the same. Both are found by bisection on
the two-sided exceedance equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleAssayError, InvalidArgumentError

_SQRT2 = math.sqrt(2.0)
_BISECTION_TOL = 1e-6


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


@dataclass(frozen=True)
class AssayParams:
    """In-control SD, bias, and allowable total error, all in analyte units."""

    sd: float
    bias: float
    tea: float
    alpha: float

    def __post_init__(self):
        if self.sd <= 0:
            raise InvalidArgumentError(f"sd must be positive, got {self.sd}")
        if self.tea <= abs(self.bias):
            raise InvalidArgumentError(
                f"tea ({self.tea}) must exceed |bias| ({abs(self.bias)})"
            )
        if not 0 < self.alpha < 1:
            raise InvalidArgumentError(f"alpha must be in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class CriticalErrors:
    delta_se: float  # mean shift, SD units
    k_re: float  # SD multiplier, >= 1


def _exceedance(p: AssayParams, delta: float = 0.0, k: float = 1.0) -> float:
    """P(|result error| > tea) under a mean shift of delta SD and the SD
    inflated by factor k."""
    return (
        normal_cdf((-p.tea - p.bias - delta * p.sd) / (k * p.sd))
        + 1.0
        - normal_cdf((p.tea - p.bias - delta * p.sd) / (k * p.sd))
    )


def _critical(p: AssayParams, exceedance, lo: float, hi: float, kind: str) -> float:
    """The x in [lo, hi] where ``exceedance(x)`` crosses alpha, by bisection;
    ``lo`` itself when the in-control exceedance already equals alpha."""
    at_lo = exceedance(lo)
    if at_lo >= p.alpha:
        if at_lo - p.alpha < _BISECTION_TOL:
            return lo
        raise InfeasibleAssayError(
            f"in-control exceedance {at_lo:.6g} already exceeds alpha {p.alpha}"
        )
    if not math.isfinite(hi) or exceedance(hi) < p.alpha:
        raise InfeasibleAssayError(f"no critical {kind} error in bracket")
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: far from 0 they are wider than the tolerance
            break
        if exceedance(mid) - p.alpha > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def critical_systematic_error(p: AssayParams) -> float:
    """Mean shift (SD units) at which the total-error exceedance equals alpha."""
    hi = (p.tea - p.bias) / p.sd + 10.0
    return _critical(p, lambda d: _exceedance(p, delta=d), 0.0, hi, "systematic")


def critical_random_error(p: AssayParams) -> float:
    """SD multiplier (>= 1) at which the total-error exceedance equals alpha."""
    return _critical(p, lambda k: _exceedance(p, k=k), 1.0, 100.0, "random")


def critical_errors(p: AssayParams) -> CriticalErrors:
    return CriticalErrors(
        delta_se=critical_systematic_error(p), k_re=critical_random_error(p)
    )


def single_value_power_oracle(
    limit: float, meas_per_run: int, shift: float = 0.0, sd_multiplier: float = 1.0
) -> float:
    """Closed-form per-run rejection probability of the rule S(1, limit).

    A run of ``meas_per_run`` measurements rejects unless all of them
    stay inside the limit.  Matches the simulator whenever every
    measurement of the run is the newest value of some rule window, as
    with one measurement per level.
    """
    if limit < 0:
        raise InvalidArgumentError(f"limit must be >= 0, got {limit}")
    if meas_per_run < 1:
        raise InvalidArgumentError(f"meas_per_run must be >= 1, got {meas_per_run}")
    if sd_multiplier < 1:
        raise InvalidArgumentError(f"sd_multiplier must be >= 1, got {sd_multiplier}")
    p = (
        normal_cdf((-limit - shift) / sd_multiplier)
        + 1.0
        - normal_cdf((limit - shift) / sd_multiplier)
    )
    return 1.0 - (1.0 - p) ** meas_per_run
