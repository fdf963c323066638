"""Monte Carlo estimation of rejection probabilities.

Control measurements are simulated in consecutive analytical runs.  Each
rule watches the chronological cross-level history and, in addition, the
per-level history of every control level: counting rules span the levels
of a run and consecutive runs of one level, which is how multirules are
applied in practice.  The procedure is applied once per run, after the
run's measurements: a rule fires when any of its windows triggers it, and
the procedure combines the rules' results.

The simulated error persists until detection: after a rejected run the
process is restored, so the rule windows are reloaded with in-control
values before the error is reintroduced in the next run.

A procedure whose every rule reads only its run's values (n <= per_level)
is history-free: it reads no restoration deviate and runs no loop. A rule
fires on a run exactly when a per-run statistic exceeds its bound, and
the pool keeps each statistic sorted (:func:`count_history_free`).

Procedures with history run a loop generated as Python source, one per
structure and QC shape (:class:`CompiledProcedure`): the structure is
each rule's kind and window and the operators, and the rules' bounds
are the loop's parameters, so procedures that differ only in their
limits share one compiled loop (:func:`run_loop`). A loop reads its
run's measurements by name, keeps in locals only the older window
values that some test reads, and tests each rule with
``rules.rule_test``. A pool scales its series once per condition, for
every loop that reads it. A rejection reloads the windows with the next
restoration deviates: it counts them against the stream's budget, and a
loop loads a pending block's kept values only when they are read. A
single-use pool's first run loop computes them from the stream's state
(:func:`restoration_source`); other loops read them from the pool's
list, which each load extends to its block's end.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .error_model import CriticalErrors
from .errors import InvalidArgumentError
from .rng import DEFAULT_MODULUS, DEFAULT_MULTIPLIER, STREAM_JUMP, RandomStream, new_stream
from .rng import MAX_STREAM_ID, inverse_normal_cdf
from .rules import (
    COMPILED_STRUCTURES, N_MAX, Procedure, Rule, RuleKind, boolean_source, bound,
    check_shape, define, extreme, fold, rule_statistic, rule_test,
)

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
        check_shape(self.levels, self.per_level_per_run, ("levels", "per_level_per_run"))
        if self.measurements_per_level < self.per_level_per_run:
            raise InvalidArgumentError(
                f"measurements_per_level {self.measurements_per_level} yields zero runs "
                f"of per_level_per_run {self.per_level_per_run} measurements"
            )


@dataclass(frozen=True)
class PerformanceEstimate:
    p_re: float
    p_se: float
    p_fr: float
    runs_simulated: int


class DeviatePool:
    """Raw N(0,1) deviates for one condition.

    ``series`` holds the measurement deviates, and :meth:`scaled` the
    measurements of a condition. ``restore`` holds the restoration
    deviates drawn so far from a dedicated stream, and :meth:`more` draws
    up to the end of each block a loop loads. Procedures that share a pool
    read the same measurements and restorations (common random numbers).
    Until a run loop reads a single-use pool, ``origin`` is the stream's
    state, from which that lazy loop computes what it reads; then, and in
    pools that several loops share (:func:`_pools`), it is ``None``.
    """

    __slots__ = ("series", "restore", "origin", "_restore_stream", "_scaled", "_statistics")

    def __init__(self, series: Sequence[float], restore_stream: RandomStream):
        self.series = list(series)
        self.restore: list = []
        self.origin = restore_stream.state
        self._restore_stream = restore_stream
        self._scaled: dict = {}
        self._statistics: dict = {}

    def scaled(self, k: float, delta: float) -> list:
        """``[v * k + delta for v in series]``, computed once per (k, delta)."""
        key = (float(k).hex(), float(delta).hex())  # -0.0 and 0.0 differ
        xs = self._scaled.get(key)
        if xs is None:
            xs = self._scaled[key] = [v * k + delta for v in self.series]
        return xs

    def statistic(self, k: float, delta: float, kind: RuleKind, n: int, levels: int, per_level: int,
                  runs: int) -> tuple:
        """(per-run values, sorted values) of :func:`statistic_loop` on the
        first ``runs`` runs of ``scaled(k, delta)``, computed once per key."""
        key = (float(k).hex(), float(delta).hex(), kind, n, levels, per_level, runs)
        entry = self._statistics.get(key)
        if entry is None:
            values = statistic_loop(kind, n, levels, per_level)(self.scaled(k, delta), runs)
            entry = self._statistics[key] = (values, sorted(values))
        return entry

    def more(self, end: int) -> None:
        """Extend ``restore`` in place to at least ``end`` deviates."""
        if end > STREAM_JUMP:
            raise InvalidArgumentError(
                f"restoration needs {end} deviates; a stream holds {STREAM_JUMP}"
            )
        missing = end - len(self.restore)
        if missing > 0:
            self.restore += self._restore_stream.normals(missing)


class CompiledProcedure:
    """The run loop of a procedure's structure for one QC shape, generated
    and compiled: ``run(xs, runs, restore, more, *bounds)`` counts the
    rejected runs of the measurements ``xs``, each rejection reloading the
    windows, oldest first, from the next values of the list ``restore``.
    A rejection counts its block, calls ``more`` only past the stream's
    budget, where it raises, and leaves the block pending; a kept value is
    loaded only when a test reads it or a shift carries it on, and the
    load first has ``more(end)`` extend a short list to the block's end.
    The rules' bounds are the last parameters, so the loop serves every
    procedure of the structure (:func:`run_loop`). The ``lazy`` form takes
    the restoration stream's first state for ``restore``, jumps it over
    each rejection's block and computes the values it loads from that
    state (see :func:`restoration_source`)."""

    __slots__ = ("run",)

    def __init__(self, procedure: Procedure, levels: int, per_level: int, lazy: bool = False):
        rules = procedure.rules
        width = max(r.n for r in rules)
        arrivals, runs_clause = _windows(levels, per_level)
        # A test reads its run's values by name and the window's older
        # values from locals w{i}_{j}, window i's j-th newest before the
        # run; a window keeps only as many as some test reads. After f runs
        # (until a rejection fills it) window i holds f * len(arrivals[i])
        # values. Only procedures with history come here: some rule reads
        # an older value of a window.
        slots = [
            [f"w{i}_{j}" for j in range(1, max([r.n - len(new) for r in rules] + [0]) + 1)]
            for i, new in enumerate(arrivals)
        ]
        newest = [new[::-1] + names for new, names in zip(arrivals, slots)]
        count = iter(range(len(rules)))  # fold meets the rules in order

        def leaf(rule: Rule) -> str:
            # Window i holds n values after ceil(n / len(arrivals[i])) runs;
            # windows that read the same names make one test.
            c = f"c{next(count)}"
            return " or ".join(dict.fromkeys(
                ("" if rule.n <= len(new) else f"f >= {-(-rule.n // len(new))} and ")
                + rule_test(rule.kind, names[rule.n - 1 :: -1], c)
                for new, names in zip(arrivals, newest)
            ))

        # A rejection reloads every window's width values, oldest first, and
        # only counts them against the budget. It sets p while the block's
        # kept values wait: they are loaded before a test reads a slot (only
        # its line names a w), else those a shift carries on before the
        # shift. The lazy form computes each from s, the restoration state
        # after the last rejection's block; the dense form reads it from the
        # pool's list, first extended to the block's end if it falls short.
        reload = width * (1 + levels)
        source = restoration_source if lazy else lambda k, r: f"restore[o - {r - k}]"
        extend = "" if lazy else "len(restore) < o and more(o); "
        fill = {names[j]: source(i * width + width - 1 - j, reload)
                for i, names in enumerate(slots) for j in range(len(names) - 1, -1, -1)}

        def load(names) -> str:
            values = ", ".join(map(fill.get, names))
            return f"if p: p = 0; {extend}{', '.join(names)} = {values}" if names else "p = 0"

        tests = [
            f"{line[: len(line) - len(line.lstrip())]}{load(fill)}\n{line}" if "w" in line
            else line for line in boolean_source(procedure, leaf, "        ")
        ]
        carried = [v for n, new in zip(slots, newest) for v in new[: len(n)] if v in fill]
        shift = [f"            {load(carried)}"] + [
            f"            {', '.join(names)} = {', '.join(new[: len(names)])}"
            for names, new in zip(slots, newest) if names
        ]
        advance = (f"s = s * {pow(DEFAULT_MULTIPLIER, reload, DEFAULT_MODULUS)}"
                   f" % {DEFAULT_MODULUS}; " if lazy else "")
        params = ", ".join([f"xs, runs, {'s' if lazy else 'restore'}, more",
                            *(f"c{i}" for i in range(len(rules)))])
        self.run = define("run", params, [
            "    f = p = o = 0",
            f"    {' = '.join(fill)} = 0.0",
            f"    it = iter(xs[:runs * {levels * per_level}])",
            f"    {runs_clause}:",
            "        f += 1",
            *tests,
            "        if t:",
            f"            o += {reload}",
            f"            if o > {STREAM_JUMP}: more(o)",
            f"            {advance}p = 1",
            f"            f = {width}",
            "        else:",
            *shift,
            f"    return o // {reload}",
        ], inverse_normal_cdf=inverse_normal_cdf)


def _windows(levels: int, per_level: int) -> tuple:
    """The names of the measurements each window takes from a run, in
    order (window 0 is the cross-level history, window 1 + L level L's),
    and the clause ``for x0, ..., in zip(it, ...)`` naming them run by run."""
    xs = [f"x{j}" for j in range(levels * per_level)]
    clause = f"for {', '.join(xs)}, in zip({', '.join(['it'] * len(xs))})"
    return [xs] + [xs[level::levels] for level in range(levels)], clause


def restoration_source(offset: int, reload: int) -> str:
    """Source of the deviate at ``offset`` of a block of ``reload``, from
    ``s``, the state after the block, as :meth:`RandomStream.normals` draws it."""
    back = pow(DEFAULT_MULTIPLIER, offset + 1 - reload, DEFAULT_MODULUS)
    return f"inverse_normal_cdf(s * {back} % {DEFAULT_MODULUS} / {DEFAULT_MODULUS})"


@lru_cache(maxsize=COMPILED_STRUCTURES)
def run_loop(structure: tuple, operators: tuple, levels: int, per_level: int, lazy=False):
    """The compiled run loop of a structure, each rule's (kind, n) joined
    by ``operators``, for a QC shape, in the dense or the lazy form."""
    rules = tuple(Rule(kind, n, 0.0) for kind, n in structure)
    return CompiledProcedure(Procedure(rules, operators), levels, per_level, lazy).run


@lru_cache(maxsize=COMPILED_STRUCTURES)
def statistic_loop(kind: RuleKind, n: int, levels: int, per_level: int):
    """``statistic(xs, runs)``, compiled, lists per run the largest over a
    (kind, n <= per_level) rule's windows of ``rules.rule_statistic``, so
    the rule fires on a run exactly when that value exceeds its bound."""
    arrivals, runs_clause = _windows(levels, per_level)
    windows = dict.fromkeys(rule_statistic(kind, new[len(new) - n :]) for new in arrivals)
    return define("statistic", "xs, runs", [
        f"    it = iter(xs[:runs * {levels * per_level}])",
        f"    return [{extreme(list(windows), True, 'u')} {runs_clause}]",
    ])


def count_history_free(procedure: Procedure, condition: ErrorCondition, pool: DeviatePool,
                       levels: int, per_level: int, runs: int) -> int:
    """Rejected runs of a history-free procedure, from the pool's per-run
    statistics. Rules on one statistic make the tree one bound (OR the
    least, AND the greatest), and a binary search counts the runs above
    it; otherwise the tree combines the rules' verdict masks, bit r set
    when a rule fires on run r. No budget check is needed: a loop's
    rejections would reload at most runs * 3 * per_level deviates, and
    3 * MAX_MEASUREMENTS_PER_LEVEL < STREAM_JUMP."""
    if not procedure.rules:
        return 0
    k, delta = condition.sd_multiplier, condition.shift

    def statistic(rule: Rule) -> tuple:
        return pool.statistic(k, delta, rule.kind, rule.n, levels, per_level, runs)

    if len({(r.kind, r.n) for r in procedure.rules}) == 1:
        _, ordered = statistic(procedure.rules[0])
        return runs - bisect_right(ordered, fold(procedure, bound, max, min))

    def mask(rule: Rule) -> int:
        values, c = statistic(rule)[0], bound(rule)
        return int("".join(["1" if v > c else "0" for v in reversed(values)]), 2)

    return fold(procedure, mask, int.__and__, int.__or__).bit_count()


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
    levels, per_level, runs = resolve_shape(procedure, plan)
    if runs < 1:
        raise InvalidArgumentError(
            f"per-level budget {plan.measurements_per_level} yields zero runs "
            f"of {per_level} measurements per level"
        )
    per_run = levels * per_level
    if len(pool.series) < per_run * runs:
        raise InvalidArgumentError(f"need {per_run * runs} deviates, got {len(pool.series)}")
    rules = procedure.rules
    if all(r.n <= per_level for r in rules):  # history-free: no test reads an older run
        return count_history_free(procedure, condition, pool, levels, per_level, runs) / runs
    xs = pool.scaled(condition.sd_multiplier, condition.shift)
    origin, pool.origin = pool.origin, None  # the pool's first run loop runs lazily
    lazy = origin is not None
    structure = tuple((r.kind, r.n) for r in rules)
    run = run_loop(structure, procedure.operators, levels, per_level, lazy)
    return run(xs, runs, origin if lazy else pool.restore, pool.more, *map(bound, rules)) / runs


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


# The stream layout: every stream id a command reads from the master seed.
# A simulation reads IDS_PER_SIMULATION ids from its base: condition c's
# series at base + _COND_OFFSETS[c], and its restoration (post-rejection,
# in-control) deviates _RESTORE_GAP ids further.
#
#   base 0          evaluate, and all of a design on common random numbers (CRN)
#   base 8r         compare's replicate r, for r < MAX_REPLICATES
#   id 50           the GA's operator stream (initial population, shuffle,
#                   crossover, mutation), for operator_draw_budget uniforms
#   base 100 + 8g   generation g of a fresh-seed design, for
#                   g <= MAX_FRESH_SEED_GENERATIONS
#
# The bounds keep the ids one command reads disjoint and at most
# rng.MAX_STREAM_ID, past which a stream would replay stream 0. Across
# commands only compare's replicate 0 repeats a design's pools, those a
# CRN design selected on, which evaluate reads too. Compare's replicates
# from 6 on also reach ids that a design reads in another role.
_COND_OFFSETS = {"in_control": 1, "random": 2, "systematic": 3}
_RESTORE_GAP = 4
IDS_PER_SIMULATION = 8
OPERATOR_STREAM_ID = 50
_FRESH_SEED_BASE = 100
MAX_REPLICATES = (MAX_STREAM_ID + 1) // IDS_PER_SIMULATION
MAX_FRESH_SEED_GENERATIONS = (MAX_STREAM_ID + 1 - _FRESH_SEED_BASE) // IDS_PER_SIMULATION - 1


def simulation_stream_id(replicate: int = 0, generation: Optional[int] = None) -> int:
    """The base stream id of compare's ``replicate``, or of a fresh-seed
    design's ``generation``; the default is evaluate's and a CRN design's."""
    if generation is None:
        return IDS_PER_SIMULATION * replicate
    return _FRESH_SEED_BASE + IDS_PER_SIMULATION * generation


def operator_draw_budget(fresh: bool) -> int:
    """Uniforms the operator stream may draw before it reaches the first
    fresh-seed base or, on CRN, runs past the last stream id."""
    return ((_FRESH_SEED_BASE if fresh else MAX_STREAM_ID + 1) - OPERATOR_STREAM_ID) * STREAM_JUMP


def draw_condition_pools(
    base_stream: RandomStream, measurements_per_level: int
) -> dict:
    """Deviate pools for all three conditions, sized for two levels.

    Procedures needing fewer measurements (one level, truncated runs)
    consume a prefix, keeping the series paired across procedures.
    They read ``base_stream``'s block of ids in the stream layout above.
    """
    pools = {}
    for name, offset in _COND_OFFSETS.items():
        sub = base_stream.substream(offset)
        series = sub.normals(2 * measurements_per_level)
        pools[name] = DeviatePool(series, base_stream.substream(offset + _RESTORE_GAP))
    return pools


@lru_cache(maxsize=1)
def _pools(seed: int, stream_id: int, size: int) -> dict:
    """The condition pools of stream ``stream_id`` of ``seed``. A worker
    keeps the last key's between tasks, so it draws them once per key."""
    pools = draw_condition_pools(new_stream(seed, stream_id), size)
    for pool in pools.values():
        pool.origin = None  # several loops read it, so none runs lazily
    return pools


def estimate_task(task) -> list:
    """One estimate per procedure of ``(procedures, plan, critical, seed,
    stream_id)``, all on the condition pools of stream ``stream_id`` of
    ``seed``, so the procedures are paired on common random numbers."""
    procedures, plan, critical, seed, stream_id = task
    pools = _pools(seed, stream_id, plan.measurements_per_level)
    return [estimate_performance(p, plan, critical, pools) for p in procedures]


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
            _pools.cache_clear()
        return
    import multiprocessing  # only when needed: it slows start-up

    with multiprocessing.Pool(workers) as pool:
        yield lambda fn, items: pool.map(fn, items, 1)
