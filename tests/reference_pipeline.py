"""A slow, plain reference for the pipeline's commands, as the oracle of
the differential tests: no shared pools, no caches, and every simulation
run by the closure-based loop of ``closure_oracle``."""

from __future__ import annotations

from dataclasses import replace

from closure_oracle import simulate
from qcdesign.objective import comparison_f1
from qcdesign.rng import new_stream
from qcdesign.simulator import (
    IDS_PER_SIMULATION, ErrorCondition, PerformanceEstimate, draw_condition_pools,
)
from qcdesign.stats import ComparisonResult, ComparisonRow, sign_test, summarize


def estimate(procedure, plan, critical, seed, stream_id):
    """(P_re, P_se, P_fr) of one procedure, each condition simulated on
    its own freshly drawn pools of stream ``stream_id`` of ``seed``."""
    levels = plan.levels if procedure.levels is None else procedure.levels
    per_level = plan.per_level_per_run if procedure.per_level is None else procedure.per_level
    runs = plan.measurements_per_level // per_level
    conditions = {
        "in_control": ErrorCondition(),
        "random": ErrorCondition(sd_multiplier=critical.k_re),
        "systematic": ErrorCondition(shift=critical.delta_se),
    }
    fractions = {}
    for key, condition in conditions.items():
        pools = draw_condition_pools(new_stream(seed, stream_id), plan.measurements_per_level)
        pool = pools[key]

        def restore_slice(start, count):
            pool.more(start + count)
            return pool.restore[start : start + count]

        rejected = simulate(
            procedure, levels, per_level, pool.series,
            condition.sd_multiplier, condition.shift, runs, restore_slice,
        )
        fractions[key] = rejected / runs
    return PerformanceEstimate(
        p_re=fractions["random"], p_se=fractions["systematic"],
        p_fr=fractions["in_control"], runs_simulated=runs,
    )


def compare(procedures, plan, critical, replicates, base_seed) -> ComparisonResult:
    """``stats.compare_procedures`` as a plain loop over procedures and
    replicates: replicate r reads stream r * IDS_PER_SIMULATION."""
    rows = []
    for name, procedure in procedures:
        estimates = [
            estimate(procedure, plan, critical, base_seed, r * IDS_PER_SIMULATION)
            for r in range(replicates)
        ]
        f1s = tuple(comparison_f1(e) for e in estimates)
        columns = {}
        for key in ("p_re", "p_se", "p_fr"):
            columns[f"mean_{key}"], columns[f"sd_{key}"] = summarize(
                [getattr(e, key) for e in estimates]
            )
        columns["mean_f1"], columns["sd_f1"] = summarize(f1s)
        rows.append(ComparisonRow(name=name, f1_values=f1s, sign_p_vs_top=None, **columns))
    rows.sort(key=lambda row: row.mean_f1)
    top = rows[0]
    for i in range(1, len(rows)):
        test = sign_test(top.f1_values, rows[i].f1_values)
        rows[i] = replace(rows[i], sign_p_vs_top=test.p_value, ties_only_vs_top=test.ties_only)
    return ComparisonResult(rows=tuple(rows), replicates=replicates, base_seed=base_seed)
