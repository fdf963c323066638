"""Replicated paired comparison of procedures and the sign test.

Every replicate draws its deviate series from a stream that is a pure
function of (base_seed, replicate), and all procedures consume the same
series (a paired, common-random-numbers design). Procedures are ranked
by mean comparison objective; each is sign-tested against the top one on
the per-replicate values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .error_model import CriticalErrors
from .errors import InvalidArgumentError
from .objective import comparison_f1
from .rules import Procedure
from .simulator import SimulationPlan, estimate_task, simulation_stream_id, worker_map


@dataclass(frozen=True)
class SignTestResult:
    p_value: float
    n_effective: int
    below: int
    ties_only: bool


def sign_test(a: Sequence[float], b: Sequence[float]) -> SignTestResult:
    """Exact two-sided sign test on paired values; ties are dropped."""
    if len(a) != len(b):
        raise InvalidArgumentError("paired samples must have equal length")
    if not a:
        raise InvalidArgumentError("paired samples must be non-empty")
    below = sum(x < y for x, y in zip(a, b))
    above = sum(x > y for x, y in zip(a, b))
    n = below + above
    if n == 0:
        return SignTestResult(p_value=1.0, n_effective=0, below=0, ties_only=True)
    tail = min(below, above)
    # int / int is correctly rounded, and never overflows on a large sum
    cdf = sum(math.comb(n, i) for i in range(tail + 1)) / 2**n
    return SignTestResult(
        p_value=min(1.0, 2.0 * cdf), n_effective=n, below=below, ties_only=False
    )


def summarize(values: Sequence[float]):
    """(mean, sample SD with n-1 divisor). The SD is the correctly rounded
    square root of the exact variance, so it has the same bits on every
    Python version (``statistics.stdev`` rounds differently before 3.11)."""
    count = len(values)
    if count < 2:
        raise InvalidArgumentError("need at least two values for a sample SD")
    # A float is an integer over a power of two, so over the largest such
    # denominator every value is an integer and the variance is exact.
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)
    ints = [n * (scale // d) for n, d in ratios]
    total = sum(ints)
    sd = _sqrt(count * sum(i * i for i in ints) - total * total, count * (count - 1) * scale**2)
    return math.fsum(values) / count, sd


def _sqrt(n: int, m: int) -> float:
    """sqrt(n / m), correctly rounded: scale by 4**-q so that the integer
    square root has at least 55 bits, two more than a double, round it to
    odd (set its last bit when inexact), and let the one conversion to
    float round it to nearest."""
    q = (n.bit_length() - m.bit_length() - 109) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n
    return float(root << q) if q >= 0 else root / (1 << -q)


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    mean_p_re: float
    sd_p_re: float
    mean_p_se: float
    sd_p_se: float
    mean_p_fr: float
    sd_p_fr: float
    mean_f1: float
    sd_f1: float
    f1_values: tuple
    sign_p_vs_top: Optional[float]  # None for the top row
    ties_only_vs_top: bool = False


@dataclass(frozen=True)
class ComparisonResult:
    rows: tuple  # sorted by mean_f1 ascending
    replicates: int
    base_seed: int


def compare_procedures(
    procedures: Sequence[tuple],
    plan_template: SimulationPlan,
    critical: CriticalErrors,
    replicates: int,
    base_seed: int,
    threads: int = 1,
) -> ComparisonResult:
    """Paired replicated comparison of named procedures.

    ``procedures`` is a sequence of (name, Procedure). Results are
    independent of ``threads``: replicate tasks are pure functions of
    (base_seed, replicate) and are reassembled in replicate order.
    """
    if replicates < 2:
        raise InvalidArgumentError("need at least two replicates")
    for name, proc in procedures:
        if not isinstance(proc, Procedure):
            raise InvalidArgumentError(f"entry {name!r} is not a Procedure")

    # One task per replicate, holding every procedure: they share its pools.
    procs = [proc for _, proc in procedures]
    tasks = [
        (procs, plan_template, critical, base_seed, simulation_stream_id(r))
        for r in range(replicates)
    ]
    with worker_map(threads, replicates) as map_tasks:
        per_replicate = map_tasks(estimate_task, tasks)

    rows = []
    for index, (name, _) in enumerate(procedures):
        estimates = [per_replicate[r][index] for r in range(replicates)]
        f1s = tuple(comparison_f1(e) for e in estimates)
        columns = {}
        for key in ("p_re", "p_se", "p_fr", "f1"):
            values = f1s if key == "f1" else [getattr(e, key) for e in estimates]
            columns[f"mean_{key}"], columns[f"sd_{key}"] = summarize(values)
        rows.append(ComparisonRow(name=name, f1_values=f1s, sign_p_vs_top=None, **columns))

    rows.sort(key=lambda row: row.mean_f1)
    top = rows[0]
    final = [top]
    for row in rows[1:]:
        test = sign_test(top.f1_values, row.f1_values)
        final.append(
            replace(row, sign_p_vs_top=test.p_value, ties_only_vs_top=test.ties_only)
        )
    return ComparisonResult(
        rows=tuple(final), replicates=replicates, base_seed=base_seed
    )
