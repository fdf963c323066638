"""Monte Carlo simulator tests: oracle agreement, pairing, hand cases."""

import math

import pytest

import qcdesign.simulator as simulator
from qcdesign.error_model import single_value_power_oracle
from qcdesign.errors import InvalidArgumentError
from qcdesign.ga import GaParams, run_design
from qcdesign.genome import GenomeLayout
from qcdesign.library import parse_procedure
from qcdesign.objective import ObjectiveConfig
from qcdesign.rng import STREAM_JUMP, new_stream
from qcdesign.rules import Procedure, Rule, RuleKind
from qcdesign.simulator import (
    DeviatePool,
    ErrorCondition,
    SimulationPlan,
    draw_condition_pools,
    estimate_performance,
    estimate_task,
    simulate_condition,
)
from qcdesign.stats import compare_procedures

S_1_24 = Procedure((Rule(RuleKind.SINGLE_VALUE, 1, 2.4),), ())


def _plan(mpl=1000, levels=2, per_level=1):
    return SimulationPlan(
        measurements_per_level=mpl, levels=levels, per_level_per_run=per_level
    )


def _stream_pool(seed, count):
    """``count`` series deviates from stream (seed, 0), restorations from (seed, 4)."""
    stream = new_stream(seed, 0)
    return DeviatePool([stream.next_normal() for _ in range(count)], new_stream(seed, 4))


def _three_se(p, runs=1000):
    return 3.0 * math.sqrt(p * (1.0 - p) / runs)


def test_empty_procedure_never_rejects(sodium_critical):
    pools = draw_condition_pools(new_stream(1, 0), 1000)
    est = estimate_performance(Procedure(), _plan(), sodium_critical, pools)
    assert (est.p_re, est.p_se, est.p_fr) == (0.0, 0.0, 0.0)
    assert est.runs_simulated == 1000


def test_single_value_rule_matches_oracle_in_control():
    p = simulate_condition(S_1_24, _plan(), ErrorCondition(), _stream_pool(12345, 2000))
    oracle = single_value_power_oracle(2.4, 2)
    assert abs(p - oracle) <= _three_se(oracle)


def test_single_value_rule_matches_oracle_under_shift():
    p = simulate_condition(
        S_1_24, _plan(), ErrorCondition(shift=3.495), _stream_pool(12345, 2000)
    )
    oracle = single_value_power_oracle(2.4, 2, shift=3.495)
    assert abs(p - oracle) <= _three_se(oracle)


def test_estimate_matches_oracle_triple(sodium_critical):
    pools = draw_condition_pools(new_stream(12345, 0), 1000)
    est = estimate_performance(S_1_24, _plan(), sodium_critical, pools)
    for observed, oracle in [
        (est.p_fr, single_value_power_oracle(2.4, 2)),
        (est.p_re, single_value_power_oracle(2.4, 2, sd_multiplier=sodium_critical.k_re)),
        (est.p_se, single_value_power_oracle(2.4, 2, shift=sodium_critical.delta_se)),
    ]:
        assert abs(observed - oracle) <= _three_se(oracle)


def test_determinism(sodium_critical):
    first = estimate_performance(
        S_1_24, _plan(), sodium_critical, draw_condition_pools(new_stream(42, 0), 1000)
    )
    second = estimate_performance(
        S_1_24, _plan(), sodium_critical, draw_condition_pools(new_stream(42, 0), 1000)
    )
    assert first == second


def test_shared_pool_is_reusable(sodium_critical):
    pools = draw_condition_pools(new_stream(5, 0), 500)
    plan = _plan(mpl=500)
    first = estimate_performance(S_1_24, plan, sodium_critical, pools=pools)
    second = estimate_performance(S_1_24, plan, sodium_critical, pools=pools)
    assert first == second


def test_procedure_shape_overrides_plan(sodium_critical):
    single_level = Procedure(S_1_24.rules, (), levels=1)
    p = simulate_condition(single_level, _plan(), ErrorCondition(), _stream_pool(12345, 1000))
    oracle = single_value_power_oracle(2.4, 1)
    assert abs(p - oracle) <= _three_se(oracle)


def test_mean_rule_spans_runs_of_one_level():
    # runs are (L1=2.0, L2=0.0) twice; the second run trips M(2,1.9)
    # through the level-1 window (2.0, 2.0), not the cross-level one
    proc = Procedure((Rule(RuleKind.MEAN, 2, 1.9),), ())
    pool = DeviatePool([2.0, 0.0, 2.0, 0.0], new_stream(1, 9))
    p = simulate_condition(proc, _plan(mpl=2), ErrorCondition(), pool=pool)
    assert p == 0.5


def test_rules_combine_after_each_picks_its_own_window():
    # Run 2 sees the cross-level window (2.0, 0.0) and the level-1 window
    # (2.0, 2.0): M fires only on level 1 and R only across levels, so the
    # AND rejects run 2; applied window by window it would reject nothing.
    proc = parse_procedure("M(2,1.9) AND R(2,1.9)")
    pool = DeviatePool([2.0, 0.0, 2.0, 0.0], new_stream(1, 9))
    p = simulate_condition(proc, _plan(mpl=2), ErrorCondition(), pool=pool)
    assert p == 0.5


def test_range_rule_spans_levels_within_run():
    proc = Procedure((Rule(RuleKind.RANGE, 2, 4.0),), ())
    pool = DeviatePool([2.5, -2.0], new_stream(1, 9))
    p = simulate_condition(proc, _plan(mpl=1), ErrorCondition(), pool=pool)
    assert p == 1.0


def test_rejection_severs_dependence_on_earlier_measurements():
    # Both series reject run 1; whatever preceded the restoration cannot
    # influence later runs, so the outcomes match exactly.
    proc = Procedure((Rule(RuleKind.MEAN, 2, 3.0),), ())
    tail = [0.0, 0.0, 0.0, 0.0]
    p_a = simulate_condition(
        proc,
        _plan(mpl=3),
        ErrorCondition(),
        pool=DeviatePool([6.5, 6.5] + tail, new_stream(1, 9)),
    )
    p_b = simulate_condition(
        proc,
        _plan(mpl=3),
        ErrorCondition(),
        pool=DeviatePool([20.0, 20.0] + tail, new_stream(1, 9)),
    )
    assert p_a == p_b == pytest.approx(1.0 / 3.0)


def test_error_condition_validation():
    with pytest.raises(InvalidArgumentError):
        ErrorCondition(sd_multiplier=0.9)
    assert ErrorCondition(sd_multiplier=2.0).sd_multiplier == 2.0
    assert ErrorCondition(shift=1.5).shift == 1.5


def test_plan_validation():
    with pytest.raises(InvalidArgumentError):
        SimulationPlan(measurements_per_level=0)
    with pytest.raises(InvalidArgumentError):  # two levels' draws overrun a stream
        SimulationPlan(measurements_per_level=STREAM_JUMP // 2 + 1)
    with pytest.raises(InvalidArgumentError):
        SimulationPlan(levels=3)
    with pytest.raises(InvalidArgumentError):
        SimulationPlan(per_level_per_run=5)


def test_restore_slice_cannot_overrun_its_stream():
    stream = new_stream(1, 9)
    pool = DeviatePool([], stream)
    with pytest.raises(InvalidArgumentError, match="restoration"):
        pool.restore_slice(STREAM_JUMP - 2, 4)
    assert stream.state == new_stream(1, 9).state  # nothing drawn


def test_budget_errors():
    tiny = Procedure(S_1_24.rules, (), per_level=2)
    with pytest.raises(InvalidArgumentError):
        simulate_condition(tiny, _plan(mpl=1), ErrorCondition(), _stream_pool(1, 2))
    short_pool = DeviatePool([0.0] * 3, new_stream(1, 9))
    with pytest.raises(InvalidArgumentError):
        simulate_condition(S_1_24, _plan(mpl=10), ErrorCondition(), pool=short_pool)


# ------------------------------------------------------ pool-keyed tasks


@pytest.fixture()
def pool_draws(monkeypatch):
    """The (seed, stream id) of every draw_condition_pools call, starting
    from a process that holds no pools."""
    draws = []
    real = simulator.draw_condition_pools

    def counted(base_stream, size):
        draws.append((base_stream.seed, base_stream.stream_id))
        return real(base_stream, size)

    monkeypatch.setattr(simulator, "draw_condition_pools", counted)
    monkeypatch.setattr(simulator, "_last_pools", [None, None])
    return draws


def test_task_shares_its_pools_across_procedures(pool_draws, sodium_critical):
    procedures = [S_1_24, Procedure()]
    plan = _plan(mpl=200)
    estimates = estimate_task((procedures, plan, sodium_critical, 7, 16))
    pools = draw_condition_pools(new_stream(7, 16), 200)
    assert estimates == [
        estimate_performance(p, plan, sodium_critical, pools) for p in procedures
    ]
    estimate_task(([S_1_24], plan, sodium_critical, 7, 16))  # same key: no draw
    assert pool_draws == [(7, 16)]


def test_compare_draws_once_per_replicate(pool_draws, sodium_critical):
    named = [(t, parse_procedure(t)) for t in ("1_2.5s", "1_3.0s", "1_2.5s/2_2.0s")]
    compare_procedures(named, _plan(mpl=50), sodium_critical, replicates=3, threads=1)
    assert pool_draws == [(12345, 0), (12345, 8), (12345, 16)]
    assert simulator._last_pools == [None, None]


@pytest.mark.parametrize("fresh", [False, True])
def test_design_draws_once_per_simulation_stream(pool_draws, sodium_assay, fresh):
    params = GaParams(
        population=6,
        generations=3,
        mutation_schedule=((0, 0.05),),
        fresh_seeds_per_generation=fresh,
    )
    layout = GenomeLayout(q=3, optimize_levels=True)
    run_design(layout, _plan(mpl=100), sodium_assay, ObjectiveConfig(), params, threads=1)
    if fresh:  # generation 0, then one stream per generation
        assert pool_draws == [(12345, 100 + 8 * g) for g in range(4)]
    else:
        assert pool_draws == [(12345, 0)]
    assert simulator._last_pools == [None, None]
