"""Job configuration: JSON file with sections mirroring the run inputs.

All defaults reproduce the sodium-assay application at full scale, so an
empty config file is a complete, meaningful job. Each section is the
params dataclass that the JobConfig field of that name holds: its fields
are the section's keys and their annotations its value types. The top
level takes the other JobConfig fields. Unknown keys are rejected to catch
typos early. Values are never coerced: an integer is accepted for a
float field and kept as given, but a float, string or boolean is not an
integer, and JSON lists stand for tuples.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .error_model import AssayParams
from .errors import ConfigError, InvalidArgumentError
from .ga import GaParams, operator_draws
from .genome import GenomeLayout
from .objective import ObjectiveConfig
from .simulator import (
    MAX_FRESH_SEED_GENERATIONS, MAX_REPLICATES, SimulationPlan, operator_draw_budget,
)

_JSON_TYPE_NAMES = {
    int: "integer",
    float: "number",
    bool: "boolean",
    str: "string",
    type(None): "null",
}


@dataclass
class JobConfig:
    assay: AssayParams
    objective: ObjectiveConfig
    ga: GaParams
    plan: SimulationPlan
    layout: GenomeLayout
    library_files: tuple[str, ...] = ()
    output: Optional[str] = None
    output_format: str = "doc"  # "csv" or "doc"
    replicates: int = 21
    threads: int = 1

    def __post_init__(self):
        if self.output_format not in ("csv", "doc"):
            raise ConfigError(
                f"output_format must be 'csv' or 'doc', got {self.output_format!r}"
            )
        if not 2 <= self.replicates <= MAX_REPLICATES:
            raise ConfigError(
                f"replicates must be an integer in [2, {MAX_REPLICATES}], got {self.replicates}"
            )
        if self.threads < 1:
            raise ConfigError("threads must be an integer >= 1")
        for path in (self.output or "", *self.library_files):
            if "\0" in path:  # open() would raise ValueError
                raise ConfigError(f"output and library_files paths hold no NUL byte: {path!r}")
        # A genome with per-level bits decodes up to 4 measurements per level.
        per_level = 4 if self.layout.optimize_per_level else self.layout.fixed_per_level
        if self.plan.measurements_per_level < per_level:
            raise ConfigError(
                f"plan.measurements_per_level {self.plan.measurements_per_level} yields zero "
                f"runs of the {per_level} measurements per level the layout can decode"
            )
        fresh = self.ga.fresh_seeds_per_generation
        if fresh and self.ga.generations > MAX_FRESH_SEED_GENERATIONS:
            raise ConfigError(
                f"ga: with fresh_seeds_per_generation at most {MAX_FRESH_SEED_GENERATIONS} "
                f"generations fit the random streams, got {self.ga.generations}"
            )
        budget = operator_draw_budget(fresh)
        draws = operator_draws(self.layout, self.ga)
        if draws > budget:
            mode = "with fresh_seeds_per_generation" if fresh else "in common-random-numbers mode"
            raise ConfigError(
                f"ga: {self.ga.generations} generations at population "
                f"{self.ga.population} may draw {draws} operator uniforms; "
                f"{mode} the stream holds {budget}"
            )


def default_config() -> JobConfig:
    return JobConfig(
        assay=AssayParams(sd=0.67, bias=0.1, tea=4.0, alpha=0.01),
        objective=ObjectiveConfig(),
        ga=GaParams(),
        plan=SimulationPlan(),
        layout=GenomeLayout(q=3, optimize_levels=True),
    )


def _conforms(value, hint) -> bool:
    """Whether a decoded JSON value has the annotated type, uncoerced."""
    args = get_args(hint)
    if get_origin(hint) is Union:
        return any(_conforms(value, arg) for arg in args)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            return False
        if args[-1] is Ellipsis:
            return all(_conforms(item, args[0]) for item in value)
        return len(value) == len(args) and all(map(_conforms, value, args))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:  # a finite float, or an integer that converts to one
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)


def _describe(hint) -> str:
    args = get_args(hint)
    if get_origin(hint) is Union:
        return " or ".join(map(_describe, args))
    if get_origin(hint) is tuple:
        if args[-1] is Ellipsis:
            return f"list of {_describe(args[0])}"
        return f"[{', '.join(map(_describe, args))}]"
    return _JSON_TYPE_NAMES[hint]


def _frozen(value):
    return tuple(map(_frozen, value)) if isinstance(value, list) else value


def merged(current, raw, section: Optional[str]):
    """``current`` with the fields that ``raw`` names replaced by its
    type-checked values; a dataclass-valued field merges a nested section.
    ``section`` is None for the config root."""
    if not isinstance(raw, dict):
        if section is None:
            raise ConfigError("config root must be a JSON object")
        raise ConfigError(f"section {section!r} must be an object")
    unknown = set(raw) - {f.name for f in fields(current)}
    if unknown:
        listed = ", ".join(sorted(unknown))
        if section is None:
            raise ConfigError(f"unknown config key(s): {listed}")
        raise ConfigError(f"unknown key(s) in section {section!r}: {listed}")
    hints = get_type_hints(type(current))
    updates = {}
    for key, value in raw.items():
        if is_dataclass(getattr(current, key)):
            updates[key] = merged(getattr(current, key), value, key)
        elif _conforms(value, hints[key]):
            updates[key] = _frozen(value)
        else:
            name = key if section is None else f"{section}.{key}"
            raise ConfigError(
                f"{name}: expected {_describe(hints[key])}, got {json.dumps(value)}"
            )
    try:
        return replace(current, **updates)
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: Optional[str] = None) -> JobConfig:
    """Load a JSON config file over the defaults; ``None`` loads defaults."""
    cfg = default_config()
    if path is None:
        return cfg
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        if "\0" in str(path):  # open() refuses the path itself
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return merged(cfg, data, None)
