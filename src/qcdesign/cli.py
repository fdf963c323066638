"""Batch command-line front end.

Commands: design, evaluate, compare, list-library, critical-errors.
Every report embeds the effective seed and configuration, so a report is
sufficient to reproduce itself. Exit codes: 0 success, 2 config error,
3 parse error, 4 runtime / infeasible assay.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import sys

from . import ga as ga_mod
from .config import JobConfig, load_config, merged
from .error_model import critical_errors
from .errors import ConfigError, ProcedureParseError, QcDesignError
from .ga import report_dict
from .library import builtin_library, load_library_file, parse_procedure
from .objective import comparison_f1, fitness_f
from .rng import new_stream
from .simulator import draw_condition_pools, estimate_performance, simulation_stream_id
from .stats import compare_procedures

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_RUNTIME = 4


def _env_int(name: str):
    text = os.environ.get(name)
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {text!r}") from None


def _apply_overrides(cfg: JobConfig, args) -> JobConfig:
    """Flags over environment defaults over the config file, checked by ``merged``."""
    seed = args.seed if args.seed is not None else _env_int("QCDESIGN_SEED")
    threads = args.threads if args.threads is not None else _env_int("QCDESIGN_THREADS")
    ga = {"seed": seed} if seed is not None else {}
    raw = {"ga": ga, "threads": threads, "output": args.out, "output_format": args.format}
    return merged(cfg, {k: v for k, v in raw.items() if v is not None}, None)


def _check_output(path) -> None:
    """Refuse, before any work, an output path that cannot name a file: a
    directory, or a path whose parent directory does not exist."""
    if not path:
        return
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, "output path is a directory", path)
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, "output directory does not exist", parent)


def _emit(cfg: JobConfig, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_doc(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# The format of a float CSV cell, by column; other floats take 4 places.
_FORMATS = {"f": ".5f", "f1": ".5f", "k_re": ".3f", "delta_se": ".3f", "sign_p_vs_top": ".6g"}


def _cell(column: str, value):
    if isinstance(value, float):
        return format(value, _FORMATS.get(column, ".4f"))
    return "" if value is None else value


def _report(cfg: JobConfig, doc: dict, columns, rows) -> str:
    """``doc`` as JSON, or in CSV the ``columns`` of each row mapping."""
    if cfg.output_format != "csv":
        return _json_doc(doc)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(column, row[column]) for column in columns] for row in rows)
    return buf.getvalue()


def cmd_critical_errors(cfg: JobConfig) -> str:
    crit = critical_errors(cfg.assay)
    doc = {
        "assay": report_dict(cfg.assay),
        "critical_random_error": round(crit.k_re, 3),
        "critical_systematic_error": round(crit.delta_se, 3),
    }
    return _report(cfg, doc, ("k_re", "delta_se"), [report_dict(crit)])


def _gather_library(cfg: JobConfig):
    entries = list(builtin_library())
    for path in cfg.library_files:
        entries.extend(load_library_file(path))
    return entries


def cmd_list_library(cfg: JobConfig) -> str:
    columns = ("name", "source", "note")
    entries = [{column: getattr(e, column) for column in columns} for e in _gather_library(cfg)]
    return _report(cfg, {"entries": entries}, columns, entries)


def cmd_evaluate(cfg: JobConfig, procedure_text: str) -> str:
    procedure = parse_procedure(procedure_text)
    crit = critical_errors(cfg.assay)
    stream = new_stream(cfg.ga.seed, simulation_stream_id())
    pools = draw_condition_pools(stream, cfg.plan.measurements_per_level)
    est = estimate_performance(procedure, cfg.plan, crit, pools)
    f = fitness_f(est, cfg.objective)
    f1 = comparison_f1(est)
    doc = dict(report_dict(est), procedure=procedure_text, seed=cfg.ga.seed, f=f, f1=f1)
    return _report(cfg, doc, ("procedure", "p_re", "p_se", "p_fr", "f", "f1"), [doc])


def cmd_compare(cfg: JobConfig, extra_procedures) -> str:
    named = [(e.name, e.procedure) for e in _gather_library(cfg)]
    for text in extra_procedures:
        named.append((text, parse_procedure(text)))
    if len(named) < 2:
        raise ConfigError("compare needs at least two procedures")
    crit = critical_errors(cfg.assay)
    result = compare_procedures(
        named,
        cfg.plan,
        crit,
        replicates=cfg.replicates,
        base_seed=cfg.ga.seed,
        threads=cfg.threads,
    )
    doc = report_dict(result)
    for row in doc["rows"]:
        del row["f1_values"]  # per-replicate detail behind the sign test
    columns = [key for key in doc["rows"][0] if key != "ties_only_vs_top"]
    return _report(cfg, doc, columns, doc["rows"])


def cmd_design(cfg: JobConfig) -> str:
    report = ga_mod.run_design(
        cfg.layout, cfg.plan, cfg.assay, cfg.objective, cfg.ga, threads=cfg.threads
    )
    doc = report.to_dict()
    log = doc["generation_log"]
    return _report(cfg, doc, list(log[0]), log)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcdesign",
        description="Design and compare statistical QC procedures.",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON job configuration")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--threads", type=int, help="worker process bound")
    parser.add_argument("--out", metavar="PATH", help="write output to a file")
    parser.add_argument("--format", choices=["csv", "doc"], help="output format")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("design", help="run the genetic design search")
    p_eval = sub.add_parser("evaluate", help="estimate one procedure's performance")
    p_eval.add_argument("procedure", help="procedure notation (canonical or Westgard)")
    p_cmp = sub.add_parser("compare", help="replicated comparison against the library")
    p_cmp.add_argument(
        "procedures", nargs="*", help="extra procedures to include in the comparison"
    )
    sub.add_parser("list-library", help="list the reference library")
    sub.add_parser("critical-errors", help="print the assay's critical errors")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        _check_output(cfg.output)
        if args.command == "design":
            text = cmd_design(cfg)
        elif args.command == "evaluate":
            text = cmd_evaluate(cfg, args.procedure)
        elif args.command == "compare":
            text = cmd_compare(cfg, args.procedures)
        elif args.command == "list-library":
            text = cmd_list_library(cfg)
        else:
            text = cmd_critical_errors(cfg)
        _emit(cfg, text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProcedureParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (QcDesignError, OSError) as exc:  # an infeasible assay among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
