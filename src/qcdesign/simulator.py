"""Monte Carlo estimation of rejection probabilities.

Control measurements are simulated in consecutive analytical runs.  Each
rule watches the chronological cross-level history and, in addition, the
per-level history of every control level: counting rules span the levels
of a run and consecutive runs of one level, which is how multirules are
applied in practice.  The procedure is applied once per run, after the
run's measurements: a rule fires when any of its windows triggers it
(``rules.rule_predicate``), and the procedure combines the rules' results.

The simulated error persists until detection: after a rejected run the
process is restored, so the rule windows are reloaded with in-control
values before the error is reintroduced in the next run.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

from .error_model import CriticalErrors
from .errors import InvalidArgumentError
from .rng import STREAM_JUMP, RandomStream, new_stream
from .rules import N_MAX, Procedure, build_expr, compile_expr, rule_predicate

# Substream offsets of a simulation's base stream, one per error
# condition, plus a fixed gap to each condition's stream of restoration
# (post-rejection, in-control) deviates.  A simulation therefore occupies
# eight consecutive stream ids.
_COND_OFFSETS = {"in_control": 1, "random": 2, "systematic": 3}
_RESTORE_GAP = 4
IDS_PER_SIMULATION = 8

# Largest plan whose restoration streams cannot overrun: in the worst case
# every run rejects, and each rejection reloads N_MAX values into the
# cross-level window and each of up to two per-level windows.
MAX_MEASUREMENTS_PER_LEVEL = STREAM_JUMP // (N_MAX * (1 + 2))


@dataclass(frozen=True)
class ErrorCondition:
    """Distribution of the simulated standardized measurements.

    Measurements are N(shift, sd_multiplier**2); the same condition is
    applied to every level.
    """

    sd_multiplier: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if self.sd_multiplier < 1.0:
            raise InvalidArgumentError(
                f"sd_multiplier must be >= 1, got {self.sd_multiplier}"
            )


@dataclass(frozen=True)
class SimulationPlan:
    measurements_per_level: int = 1000
    levels: int = 2
    per_level_per_run: int = 1

    def __post_init__(self):
        if not 1 <= self.measurements_per_level <= MAX_MEASUREMENTS_PER_LEVEL:
            raise InvalidArgumentError(
                f"measurements_per_level must be in [1, {MAX_MEASUREMENTS_PER_LEVEL}], "
                f"got {self.measurements_per_level}"
            )
        if self.levels not in (1, 2):
            raise InvalidArgumentError(f"levels must be 1 or 2, got {self.levels}")
        if not 1 <= self.per_level_per_run <= 4:
            raise InvalidArgumentError(
                f"per_level_per_run must be in [1, 4], got {self.per_level_per_run}"
            )


@dataclass(frozen=True)
class PerformanceEstimate:
    p_re: float
    p_se: float
    p_fr: float
    runs_simulated: int


class DeviatePool:
    """Raw N(0,1) deviates for one condition.

    ``series`` holds the measurement deviates; restoration deviates are
    drawn lazily from a dedicated stream.  Sharing one pool across
    procedures pairs their simulations (common random numbers): every
    procedure reads the same series and a prefix of the same restoration
    sequence.
    """

    __slots__ = ("series", "_restore", "_restore_stream")

    def __init__(self, series: Sequence[float], restore_stream: RandomStream):
        self.series = list(series)
        self._restore: list = []
        self._restore_stream = restore_stream

    def restore_slice(self, start: int, count: int) -> list:
        if start + count > STREAM_JUMP:
            raise InvalidArgumentError(
                f"restoration needs {start + count} deviates; a stream holds {STREAM_JUMP}"
            )
        missing = start + count - len(self._restore)
        if missing > 0:
            stream = self._restore_stream
            self._restore.extend(stream.next_normal() for _ in range(missing))
        return self._restore[start : start + count]


class CompiledProcedure:
    """Procedure compiled to one predicate over the window set."""

    __slots__ = ("evaluate", "max_window")

    def __init__(self, procedure: Procedure):
        self.max_window = max((r.n for r in procedure.rules), default=0)
        self.evaluate = compile_expr(build_expr(procedure), rule_predicate)


def resolve_shape(procedure: Procedure, plan: SimulationPlan):
    """(levels, per_level, runs): the procedure's own QC shape, else the plan's."""
    levels = procedure.levels if procedure.levels is not None else plan.levels
    per_level = (
        procedure.per_level if procedure.per_level is not None else plan.per_level_per_run
    )
    runs = plan.measurements_per_level // per_level
    return levels, per_level, runs


def simulate_condition(
    procedure: Procedure,
    plan: SimulationPlan,
    condition: ErrorCondition,
    pool: DeviatePool,
) -> float:
    """Fraction of simulated runs the procedure rejects under one condition.

    ``pool`` supplies the raw deviates; procedures that share it are
    simulated on common random numbers.
    """
    compiled = CompiledProcedure(procedure)
    levels, per_level, runs = resolve_shape(procedure, plan)
    if runs < 1:
        raise InvalidArgumentError(
            f"per-level budget {plan.measurements_per_level} yields zero runs "
            f"of {per_level} measurements per level"
        )

    k = condition.sd_multiplier
    delta = condition.shift
    per_run = levels * per_level

    series = pool.series
    if len(series) < per_run * runs:
        raise InvalidArgumentError(f"need {per_run * runs} deviates, got {len(series)}")

    max_window = compiled.max_window
    evaluate = compiled.evaluate
    # The windows only grow: every predicate reads the last n <= max_window
    # values, and a rejection resets each window to max_window values (at
    # least one: only a non-empty procedure rejects).
    pooled: list = []
    by_level = [[] for _ in range(levels)]
    windows = (pooled, *by_level)
    restore_per_rejection = max_window * (1 + levels)
    rejected = 0
    cursor = 0
    idx = 0
    for _ in range(runs):
        for _ in range(per_level):
            for level in range(levels):
                x = series[idx] * k + delta
                idx += 1
                pooled.append(x)
                by_level[level].append(x)
        if evaluate(windows):
            rejected += 1
            values = pool.restore_slice(cursor, restore_per_rejection)
            cursor += restore_per_rejection
            for i, window in enumerate(windows):
                window[:] = values[max_window * i : max_window * (i + 1)]
    return rejected / runs


def estimate_performance(
    procedure: Procedure,
    plan: SimulationPlan,
    critical: CriticalErrors,
    pools: dict,
) -> PerformanceEstimate:
    """(P_re, P_se, P_fr) on the condition pools of :func:`draw_condition_pools`.

    ``pools`` maps condition keys (``in_control``, ``random``,
    ``systematic``) to :class:`DeviatePool` instances.
    """
    _, _, runs = resolve_shape(procedure, plan)
    p_fr = simulate_condition(procedure, plan, ErrorCondition(), pools["in_control"])
    p_re = simulate_condition(
        procedure, plan, ErrorCondition(sd_multiplier=critical.k_re), pools["random"]
    )
    p_se = simulate_condition(
        procedure, plan, ErrorCondition(shift=critical.delta_se), pools["systematic"]
    )
    return PerformanceEstimate(p_re=p_re, p_se=p_se, p_fr=p_fr, runs_simulated=runs)


def draw_condition_pools(
    base_stream: RandomStream, measurements_per_level: int
) -> dict:
    """Deviate pools for all three conditions, sized for two levels.

    Procedures needing fewer measurements (one level, truncated runs)
    consume a prefix, keeping the series paired across procedures.
    Condition ``c`` reads its series from substream ``_COND_OFFSETS[c]`` of
    ``base_stream`` and its restorations from ``_RESTORE_GAP`` ids further.
    """
    pools = {}
    for name, offset in _COND_OFFSETS.items():
        sub = base_stream.substream(offset)
        series = [sub.next_normal() for _ in range(2 * measurements_per_level)]
        pools[name] = DeviatePool(series, base_stream.substream(offset + _RESTORE_GAP))
    return pools


# The deviate pools of the last (seed, stream id, size) key this process
# used. A worker keeps them between tasks, so it draws them once per key.
_last_pools: list = [None, None]


def estimate_task(task) -> list:
    """One estimate per procedure of ``(procedures, plan, critical, seed,
    stream_id)``, all on the condition pools of stream ``stream_id`` of
    ``seed``, so the procedures are paired on common random numbers."""
    procedures, plan, critical, seed, stream_id = task
    key = (seed, stream_id, plan.measurements_per_level)
    if _last_pools[0] != key:
        _last_pools[:] = [key, draw_condition_pools(new_stream(seed, stream_id), key[2])]
    return [estimate_performance(p, plan, critical, _last_pools[1]) for p in procedures]


@contextmanager
def worker_map(threads: int, tasks: int):
    """``map(fn, tasks)`` over min(threads, tasks, cores) processes.

    With one process it is the serial map, and the block's end drops the
    pools :func:`estimate_task` kept; otherwise the pool lives until the
    block ends, so a caller with many batches pays its start-up once.
    Tasks go out one at a time: their costs differ several-fold, and with
    ``pool.map``'s default chunks of about n/8 tasks one worker can be left
    running a whole chunk while the other waits, by an amount that changes
    from batch to batch.
    """
    # More workers than tasks or cores would only add start-up cost.
    workers = min(threads, tasks, os.cpu_count() or 1)
    if workers <= 1:
        try:
            yield lambda fn, items: [fn(item) for item in items]
        finally:
            _last_pools[:] = [None, None]
        return
    import multiprocessing  # only when needed: it slows start-up

    with multiprocessing.Pool(workers) as pool:
        yield lambda fn, items: pool.map(fn, items, 1)
