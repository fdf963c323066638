"""Monte Carlo estimation of rejection probabilities.

Control measurements are simulated in consecutive analytical runs.  Each
rule watches the chronological cross-level history and, in addition, the
per-level history of every control level: counting rules span the levels
of a run and consecutive runs of one level, which is how multirules are
applied in practice.  The procedure is applied once per run, after the
run's measurements; the run is rejected if any rule window triggers it.

The simulated error persists until detection: after a rejected run the
process is restored, so the rule windows are reloaded with in-control
values before the error is reintroduced in the next run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .error_model import CriticalErrors
from .errors import InvalidArgumentError
from .rng import RandomStream
from .rules import Leaf, OperatorKind, Procedure, Rule, RuleKind, build_expr

# Substream offsets of plan.stream used by estimate_performance, one per
# error condition, plus a fixed gap to each condition's stream of
# restoration (post-rejection, in-control) deviates.  A simulation
# therefore occupies eight consecutive stream ids.
_COND_OFFSETS = {"in_control": 1, "random": 2, "systematic": 3}
_RESTORE_GAP = 4
IDS_PER_SIMULATION = 8


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


def in_control() -> ErrorCondition:
    return ErrorCondition()


def random_error(k: float) -> ErrorCondition:
    return ErrorCondition(sd_multiplier=k)


def systematic_error(delta: float) -> ErrorCondition:
    return ErrorCondition(shift=delta)


@dataclass
class SimulationPlan:
    measurements_per_level: int = 1000
    levels: int = 2
    per_level_per_run: int = 1
    stream: Optional[RandomStream] = None  # runtime state: see RUNTIME_FIELDS

    def __post_init__(self):
        if self.measurements_per_level < 1:
            raise InvalidArgumentError("measurements_per_level must be >= 1")
        if self.levels not in (1, 2):
            raise InvalidArgumentError(f"levels must be 1 or 2, got {self.levels}")
        if not 1 <= self.per_level_per_run <= 4:
            raise InvalidArgumentError(
                f"per_level_per_run must be in [1, 4], got {self.per_level_per_run}"
            )


# Plan fields each command seeds at run time: no config key, no report entry.
RUNTIME_FIELDS = frozenset({"stream"})


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
        missing = start + count - len(self._restore)
        if missing > 0:
            stream = self._restore_stream
            self._restore.extend(stream.next_normal() for _ in range(missing))
        return self._restore[start : start + count]


def _window_predicate(rule: Rule):
    """Specialized closure evaluating one rule on a single rolling window."""
    n, limit = rule.n, rule.limit
    kind = rule.kind
    if kind is RuleKind.SINGLE_VALUE:
        if n == 1:
            return lambda w: bool(w) and abs(w[-1]) > limit
        return lambda w: len(w) >= n and all(abs(v) > limit for v in w[-n:])
    if kind is RuleKind.RANGE:
        return lambda w: len(w) >= n and max(w[-n:]) - min(w[-n:]) > limit

    if kind is RuleKind.MEAN:
        bound = limit * n
        return lambda w: len(w) >= n and abs(sum(w[-n:])) > bound

    def std_dev(w):
        if len(w) < n:
            return False
        tail = w[-n:]
        mean = sum(tail) / n
        return sum((v - mean) ** 2 for v in tail) / (n - 1) > limit * limit

    return std_dev


def _rule_predicate(rule: Rule):
    """A rule triggers if any of its windows (cross-level or per-level)
    does."""
    on_window = _window_predicate(rule)
    return lambda windows: any(on_window(w) for w in windows)


class CompiledProcedure:
    """Procedure compiled to nested closures over the window set."""

    __slots__ = ("evaluate", "max_window", "levels", "per_level")

    def __init__(self, procedure: Procedure):
        expr = build_expr(procedure)
        self.max_window = max((r.n for r in procedure.rules), default=0)
        self.levels = procedure.levels
        self.per_level = procedure.per_level
        self.evaluate = self._compile(expr)

    @staticmethod
    def _compile(expr):
        if expr is None:
            return lambda windows: False
        if isinstance(expr, Leaf):
            return _rule_predicate(expr.rule)
        left = CompiledProcedure._compile(expr.left)
        right = CompiledProcedure._compile(expr.right)
        if expr.op is OperatorKind.AND:
            return lambda windows: left(windows) and right(windows)
        return lambda windows: left(windows) or right(windows)


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
    pool: Optional[DeviatePool] = None,
) -> float:
    """Fraction of simulated runs the procedure rejects under one condition.

    ``pool`` optionally supplies the raw deviates (enabling
    common-random-number reuse across procedures); otherwise the
    measurement series comes from ``plan.stream`` and restoration values
    from its substream ``_RESTORE_GAP`` ids ahead.
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

    if pool is None:
        stream = plan.stream
        if stream is None:
            raise InvalidArgumentError("plan has no stream and no deviate pool")
        series = [stream.next_normal() for _ in range(per_run * runs)]
        pool = DeviatePool(series, stream.substream(_RESTORE_GAP))
    else:
        series = pool.series
        if len(series) < per_run * runs:
            raise InvalidArgumentError(
                f"need {per_run * runs} deviates, got {len(series)}"
            )

    max_window = compiled.max_window
    evaluate = compiled.evaluate
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
                if len(pooled) > max_window:
                    del pooled[0]
                level_window = by_level[level]
                level_window.append(x)
                if len(level_window) > max_window:
                    del level_window[0]
        if evaluate(windows):
            rejected += 1
            if max_window:
                values = pool.restore_slice(cursor, restore_per_rejection)
                cursor += restore_per_rejection
                pooled[:] = values[:max_window]
                for level in range(levels):
                    by_level[level][:] = values[
                        max_window * (1 + level) : max_window * (2 + level)
                    ]
    return rejected / runs


def estimate_performance(
    procedure: Procedure,
    plan: SimulationPlan,
    critical: CriticalErrors,
    pools: Optional[dict] = None,
) -> PerformanceEstimate:
    """(P_re, P_se, P_fr) on three independent substreams of ``plan.stream``.

    ``pools`` maps condition keys (``in_control``, ``random``,
    ``systematic``) to :class:`DeviatePool` instances; when absent,
    equivalent pools are built from substreams of the plan stream.
    """
    _, _, runs = resolve_shape(procedure, plan)

    def run(name: str, condition: ErrorCondition) -> float:
        if pools is not None:
            return simulate_condition(procedure, plan, condition, pool=pools[name])
        if plan.stream is None:
            raise InvalidArgumentError("plan has no stream and no deviate pools")
        sub_plan = replace(plan, stream=plan.stream.substream(_COND_OFFSETS[name]))
        return simulate_condition(procedure, sub_plan, condition)

    p_fr = run("in_control", in_control())
    p_re = run("random", random_error(critical.k_re))
    p_se = run("systematic", systematic_error(critical.delta_se))
    return PerformanceEstimate(p_re=p_re, p_se=p_se, p_fr=p_fr, runs_simulated=runs)


def draw_condition_pools(
    base_stream: RandomStream, measurements_per_level: int
) -> dict:
    """Deviate pools for all three conditions, sized for two levels.

    Procedures needing fewer measurements (one level, truncated runs)
    consume a prefix, keeping the series paired across procedures.  The
    pools are identical to what ``estimate_performance`` builds from
    ``base_stream`` on its own.
    """
    pools = {}
    for name, offset in _COND_OFFSETS.items():
        sub = base_stream.substream(offset)
        series = [sub.next_normal() for _ in range(2 * measurements_per_level)]
        pools[name] = DeviatePool(series, base_stream.substream(offset + _RESTORE_GAP))
    return pools
