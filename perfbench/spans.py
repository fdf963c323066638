"""Span recorder that wraps qcdesign's public functions from outside.

Nothing under ``src/`` is edited: :class:`Tracer` replaces each probed
function in every ``qcdesign`` module namespace that holds it (modules
bind imported names at import time), and restores the originals on
:meth:`Tracer.uninstall`. A span is ``[name, start, end, parent, info]``,
kept in memory; ``parent`` is the index of the enclosing span or -1.

Random draws are counted, not spanned: a span per uniform would cost more
than the draw itself.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, INFO = range(5)

# (span name, layer, module, attribute path). A span's self time counts
# toward its layer; CompiledProcedure lives in simulator but compiles rules.
PROBES = (
    ("cli.main", "cli", "cli", "main"),
    ("cli.cmd_design", "cli", "cli", "cmd_design"),
    ("cli.cmd_compare", "cli", "cli", "cmd_compare"),
    ("cli.cmd_evaluate", "cli", "cli", "cmd_evaluate"),
    ("cli.serialize", "cli", "cli", "_json_doc"),
    ("cli.emit", "cli", "cli", "_emit"),
    ("config.load_config", "config", "config", "load_config"),
    ("error_model.critical_errors", "error_model", "error_model", "critical_errors"),
    ("library.parse_procedure", "library", "library", "parse_procedure"),
    ("library.builtin_library", "library", "library", "builtin_library"),
    ("genome.decode", "genome", "genome", "decode"),
    ("genome.hamming_distance", "genome", "genome", "hamming_distance"),
    ("rules.build_expr", "rules", "rules", "build_expr"),
    ("rules.canonical_notation", "rules", "rules", "canonical_notation"),
    ("rules.compile", "rules", "simulator", "CompiledProcedure.__init__"),
    ("simulator.estimate_performance", "simulator", "simulator", "estimate_performance"),
    ("simulator.simulate_condition", "simulator", "simulator", "simulate_condition"),
    ("simulator.draw_condition_pools", "simulator", "simulator", "draw_condition_pools"),
    ("ga.run_design", "ga", "ga", "run_design"),
    ("ga.crowding_generation", "ga", "ga", "crowding_generation"),
    ("ga.evaluate", "ga", "ga", "PopulationEvaluator.evaluate"),
    ("ga.report_to_dict", "ga", "ga", "DesignReport.to_dict"),
    ("stats.compare_procedures", "stats", "stats", "compare_procedures"),
    ("stats.replicate", "stats", "stats", "_replicate_estimates"),
    ("stats.sign_test", "stats", "stats", "sign_test"),
    ("stats.summarize", "stats", "stats", "summarize"),
)
LAYERS = ("cli", "config", "error_model", "library", "genome", "rules", "simulator", "ga", "stats")
LAYER_OF = {name: layer for name, layer, _, _ in PROBES}
REPORT_SPANS = ("cli.serialize", "cli.emit", "ga.report_to_dict")


def _module(short: str):
    return sys.modules[f"qcdesign.{short}"]


class Tracer:
    """Installs span wrappers (and, with ``count_draws``, draw counters)."""

    def __init__(self, probes=PROBES, count_draws: bool = True):
        self.spans: list = []
        self._stack: list = []
        self._probes = probes
        self._count_draws = count_draws
        self._restore: list = []  # (owner, attribute, original)
        # Draw accounting keyed by id() of live streams; a dead stream's
        # count is folded into the per-(seed, stream id) maxima when its
        # id is reused or the trace ends.
        self._live: dict = {}  # id -> [seed, stream_id, draws, is_restore]
        self.max_draws: dict = defaultdict(int)
        self.draws = 0
        self.restore_draws = 0
        self.replacements = 0
        self.missing: list = []  # probes whose target no longer exists

    # -- installation ---------------------------------------------------

    def install(self) -> "Tracer":
        # Every module must be loaded first: one imported later would bind
        # whichever object is installed at that moment and keep it.
        import qcdesign.cli  # noqa: F401  (imports every other module)

        for name, _, module, path in self._probes:
            try:
                owner, attr = self._resolve(module, path)
                original = getattr(owner, attr)
            except AttributeError:  # renamed or removed since; its metrics read 0
                self.missing.append(name)
                continue
            wrapped = self._span_wrapper(name, original)
            if owner is _module(module):
                self._replace_everywhere(original, wrapped)
            else:
                self._set(owner, attr, wrapped)
        if any(p[0] == "ga.run_design" for p in self._probes):
            self._count_replacements()
        if self._count_draws:
            self._install_draw_counters()
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self._flush_all()

    @staticmethod
    def _resolve(module: str, path: str):
        owner = _module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapped):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qcdesign" and not mod_name.startswith("qcdesign."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapped)

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info_of = _SPAN_INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info_of is not None:
                span[INFO] = info_of(args, kwargs, result)
            return result

        return traced

    def _count_replacements(self):
        ga = _module("ga")
        inner = ga.run_design
        tracer = self

        def on_replacement(parent, child):
            tracer.replacements += 1

        @functools.wraps(inner)
        def run_design(*args, **kwargs):
            # on_replacement is run_design's seventh parameter; the CLI
            # passes five positionally and never sets it.
            if kwargs.get("on_replacement") is None and len(args) < 7:
                kwargs["on_replacement"] = on_replacement
            return inner(*args, **kwargs)

        self._replace_everywhere(inner, run_design)

    def _install_draw_counters(self):
        from qcdesign import rng, simulator

        live = self._live
        flush = self._flush
        stream_cls = rng.RandomStream
        orig_init, orig_uniform = stream_cls.__init__, stream_cls.next_uniform
        pool_init = simulator.DeviatePool.__init__

        def init(stream, *args, **kwargs):
            orig_init(stream, *args, **kwargs)
            key = id(stream)
            if key in live:
                flush(live.pop(key))
            live[key] = [stream.seed, stream.stream_id, 0, False]

        def next_uniform(stream):
            entry = live.get(id(stream))
            if entry is None:  # created before install
                entry = live[id(stream)] = [stream.seed, stream.stream_id, 0, False]
            entry[2] += 1
            return orig_uniform(stream)

        def deviate_pool_init(pool, *args, **kwargs):
            pool_init(pool, *args, **kwargs)
            restore_stream = kwargs.get("restore_stream", args[-1] if args else None)
            entry = live.get(id(restore_stream))
            if entry is not None:
                entry[3] = True

        self._set(stream_cls, "__init__", init)
        self._set(stream_cls, "next_uniform", next_uniform)
        self._set(simulator.DeviatePool, "__init__", deviate_pool_init)

    def _flush(self, entry):
        seed, stream_id, draws, is_restore = entry
        key = (seed, stream_id)
        if draws > self.max_draws[key]:
            self.max_draws[key] = draws
        self.draws += draws
        if is_restore:
            self.restore_draws += draws

    def _flush_all(self):
        for entry in self._live.values():
            self._flush(entry)
        self._live.clear()

    # -- analysis -------------------------------------------------------

    def durations(self, name: str) -> list:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def self_times(self) -> dict:
        """Per-layer self time: span duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        totals = dict.fromkeys(LAYERS, 0.0)
        for index, span in enumerate(self.spans):
            totals[LAYER_OF[span[NAME]]] += span[END] - span[START] - child_time[index]
        return totals

    def has_ancestor(self, span, name: str) -> bool:
        parent = span[PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False


def _simulate_info(args, kwargs, result):
    """(condition key, runs, rejected runs) of one simulate_condition call."""
    procedure, plan, condition = args[:3]
    per_level = procedure.per_level or plan.per_level_per_run
    runs = plan.measurements_per_level // per_level
    if condition.sd_multiplier != 1.0:
        key = "random"
    elif condition.shift != 0.0:
        key = "systematic"
    else:
        key = "in_control"
    return key, runs, round(result * runs)


_SPAN_INFO = {
    "simulator.simulate_condition": _simulate_info,
    "simulator.estimate_performance": lambda args, kwargs, result: args[0],
}


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
