"""Monte Carlo simulator tests: oracle agreement, pairing, hand cases."""

import math
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

import qcdesign.simulator as simulator
from qcdesign.cli import EXIT_OK, main
from qcdesign.error_model import single_value_power_oracle
from qcdesign.errors import InvalidArgumentError
from qcdesign.ga import GaParams, run_design
from qcdesign.genome import GenomeLayout
from qcdesign.library import parse_procedure
from qcdesign.objective import ObjectiveConfig
from qcdesign.rng import (
    DEFAULT_MODULUS, DEFAULT_MULTIPLIER, MAX_STREAM_ID, STREAM_JUMP, inverse_normal_cdf, new_stream,
)
from qcdesign.rules import Procedure, Rule, RuleKind, bound
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
    with pytest.raises(InvalidArgumentError, match="measurements_per_level 1 yields zero runs"):
        SimulationPlan(measurements_per_level=1, per_level_per_run=2)
    assert SimulationPlan(measurements_per_level=2, per_level_per_run=2).per_level_per_run == 2


def test_zero_run_budget_raised_in_a_worker_reaches_the_parent(sodium_critical):
    # A config cannot ask for this, but an API caller's procedure may carry
    # a shape whose runs the plan's budget cannot hold.
    procedure = Procedure(S_1_24.rules, (), levels=2, per_level=4)
    task = ((procedure,), SimulationPlan(measurements_per_level=2), sodium_critical, 7, 16)
    with simulator.worker_map(2, 2) as map_tasks:
        with pytest.raises(InvalidArgumentError, match="per-level budget 2 yields zero runs"):
            map_tasks(estimate_task, [task, task])


def test_more_cannot_overrun_its_stream():
    stream = new_stream(1, 9)
    pool = DeviatePool([], stream)
    with pytest.raises(InvalidArgumentError, match="restoration needs 100002 deviates"):
        pool.more(STREAM_JUMP + 2)
    assert stream.state == new_stream(1, 9).state  # nothing drawn


def test_run_loop_overrun_raises_through_more():
    # M(4,0.0) on two levels rejects every run from the second on, and each
    # rejection reloads 12 values: 9,000 runs need over STREAM_JUMP of them.
    procedure = Procedure((Rule(RuleKind.MEAN, 4, 0.0),))
    pool = DeviatePool([1.0] * 18000, new_stream(1, 9))
    run = simulator.CompiledProcedure(procedure, 2, 1).run
    with pytest.raises(InvalidArgumentError, match="restoration needs 100008 deviates"):
        run(pool.series, 9000, pool.restore, pool.more, *map(bound, procedure.rules))
    assert len(pool.restore) == STREAM_JUMP - STREAM_JUMP % 12  # nothing past the budget


def test_lazy_run_loop_overrun_raises_through_more(monkeypatch):
    # The run above in the lazy form: every block is read by the next run,
    # and none past the budget is computed or drawn into the pool.
    procedure = Procedure((Rule(RuleKind.MEAN, 4, 0.0),))
    stream = new_stream(1, 9)
    pool = DeviatePool([1.0] * 18000, stream)
    origin, computed = stream.state, []

    def recorded(u):
        computed.append(u)
        return inverse_normal_cdf(u)

    monkeypatch.setattr(simulator, "inverse_normal_cdf", recorded)
    run = simulator.CompiledProcedure(procedure, 2, 1, lazy=True).run
    with pytest.raises(InvalidArgumentError, match="restoration needs 100008 deviates"):
        run(pool.series, 9000, pool.origin, pool.more, *map(bound, procedure.rules))
    positions, state = {}, origin
    for position in range(STREAM_JUMP):
        state = DEFAULT_MULTIPLIER * state % DEFAULT_MODULUS
        positions[state / DEFAULT_MODULUS] = position
    # Each of the 8,333 blocks holds 8 kept values: 2 cross-level, 3 per level.
    assert len(computed) == STREAM_JUMP // 12 * 8
    assert max(positions[u] for u in computed) < STREAM_JUMP - STREAM_JUMP % 12
    assert pool.restore == [] and stream.state == origin


@pytest.mark.parametrize("lazy", [False, True])
def test_run_loop_may_spend_the_whole_budget(lazy):
    # M(4,0.0) on one level rejects every run from the fourth on, and each
    # rejection reloads 8 values: 12,503 runs end exactly at STREAM_JUMP.
    # The last block is never loaded, so the dense form never draws it.
    procedure = Procedure((Rule(RuleKind.MEAN, 4, 0.0),))
    pool = DeviatePool([1.0] * 12503, new_stream(1, 9))
    run = simulator.CompiledProcedure(procedure, 1, 1, lazy).run
    restore = pool.origin if lazy else pool.restore
    assert run(pool.series, 12503, restore, pool.more, *map(bound, procedure.rules)) == 12500
    assert len(pool.restore) == (0 if lazy else STREAM_JUMP - 8)


def test_loop_that_never_loads_draws_nothing():
    # S(1,0.0) rejects every run before M(2,0.5) reads a window, so the
    # dense loop loads no block and draws none of the 1,000 it counts.
    procedure = parse_procedure("S(1,0.0) OR M(2,0.5)")
    pool = _stream_pool(3, 2000)
    run = simulator.CompiledProcedure(procedure, 2, 1).run
    assert run(pool.series, 1000, pool.restore, pool.more, *map(bound, procedure.rules)) == 1000
    assert pool.restore == []


@settings(max_examples=60, deadline=None)
@example(seed=1, stream_id=MAX_STREAM_ID, width=4, levels=2, block=-1, offsets={0, 11})
@given(
    seed=st.integers(1, DEFAULT_MODULUS - 1),
    stream_id=st.integers(0, MAX_STREAM_ID),
    width=st.integers(1, 4),
    levels=st.sampled_from([1, 2]),
    block=st.integers(-1, STREAM_JUMP),
    offsets=st.sets(st.integers(0, 11), min_size=1),
)
def test_lazy_block_values_are_the_streams(seed, stream_id, width, levels, block, offsets):
    """Each kept value of a block, computed from the state after the block,
    is the stream's normal deviate at its position; block -1 is the last
    that fits under the budget."""
    reload = width * (1 + levels)
    start = block % (STREAM_JUMP // reload) * reload
    stream = new_stream(seed, stream_id)
    expected = stream.normals(start + reload)[start:]
    namespace = {"inverse_normal_cdf": inverse_normal_cdf, "s": stream.state}
    for offset in sorted(k for k in offsets if k < reload):
        value = eval(simulator.restoration_source(offset, reload), namespace)
        assert value.hex() == expected[offset].hex()


def test_pool_scales_its_series_once_per_condition():
    series = [0.5, -0.0, 0.0, -1.25, 3.1, 5e-324, -7.2, 1.4658814763242407]
    pool = DeviatePool(series, new_stream(1, 9))
    # -0.0 and 0.0 shift a deviate of -0.0 to different zeros.
    for k, delta in ((1.0, 0.0), (1.0, -0.0), (2.312959384173155, 0.0), (1.0, 3.4945)):
        xs = pool.scaled(k, delta)
        assert [x.hex() for x in xs] == [(v * k + delta).hex() for v in series]
        assert pool.scaled(k, delta) is xs


def test_every_loop_on_a_pool_reads_its_one_scaled_list(sodium_critical):
    pools = draw_condition_pools(new_stream(7, 16), 200)
    procedures = [S_1_24, parse_procedure("1_2.5s/2_2.0s/R_4s/4_1s"), Procedure()]
    for procedure in procedures * 2:
        estimate_performance(procedure, _plan(mpl=200), sodium_critical, pools)
    conditions = {
        "in_control": (1.0, 0.0),
        "random": (sodium_critical.k_re, 0.0),
        "systematic": (1.0, sodium_critical.delta_se),
    }
    for name, (k, delta) in conditions.items():
        [xs] = pools[name]._scaled.values()  # one list per condition served
        assert [x.hex() for x in xs] == [(v * k + delta).hex() for v in pools[name].series]


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
    simulator._pools.cache_clear()
    yield draws
    simulator._pools.cache_clear()  # pools drawn through the counting wrapper


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


@pytest.fixture()
def lazy_computes(monkeypatch):
    """The restoration deviates that run loops compute from the stream's
    state, counted in loops compiled for the test alone."""
    computed = []

    def counted(u):
        computed.append(u)
        return inverse_normal_cdf(u)

    monkeypatch.setattr(simulator, "inverse_normal_cdf", counted)
    loops = lru_cache(maxsize=None)(simulator.run_loop.__wrapped__)
    monkeypatch.setattr(simulator, "run_loop", loops)
    return computed


def test_shared_pools_never_run_lazily(pool_draws, lazy_computes, sodium_critical, capsys):
    """Several loops read a task's pools, so each reads the pool's list;
    evaluate's pools serve one procedure, whose first loop runs lazily."""
    texts = ("1_2.5s/2_2.0s/R_4s/4_1s", "S(1,2.7) OR M(2,1.9)",
             "M(2,1.9) OR (D(3,0.1) AND R(2,3.8))")
    procedures = [parse_procedure(text) for text in texts]
    plan = _plan(mpl=200)
    estimates = estimate_task((procedures, plan, sodium_critical, 7, 16))
    assert lazy_computes == []
    fresh = [draw_condition_pools(new_stream(7, 16), 200) for _ in procedures]
    assert estimates == [  # each on its own pools, whose first loop runs lazily
        estimate_performance(p, plan, sodium_critical, own) for p, own in zip(procedures, fresh)
    ]
    lazy_computes.clear()
    assert main(["evaluate", texts[0]]) == EXIT_OK
    capsys.readouterr()
    assert lazy_computes


def test_compare_draws_once_per_replicate(pool_draws, sodium_critical):
    named = [(t, parse_procedure(t)) for t in ("1_2.5s", "1_3.0s", "1_2.5s/2_2.0s")]
    compare_procedures(
        named, _plan(mpl=50), sodium_critical, replicates=3, base_seed=12345, threads=1
    )
    assert pool_draws == [(12345, 0), (12345, 8), (12345, 16)]
    assert simulator._pools.cache_info().currsize == 0


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
    assert simulator._pools.cache_info().currsize == 0
