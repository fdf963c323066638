"""Generated run loops, and the loop-free scoring of history-free
procedures, against the closure-based loop they replaced
(``closure_oracle``): the same reject counts from the same restoration
draws, for random procedures, for procedures that share a loop and for
the worst shapes of 256 rules."""

import sys
from bisect import bisect_right
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import qcdesign.rules as rules
import qcdesign.simulator as simulator
from closure_oracle import simulate as oracle_simulate
from qcdesign.rng import DEFAULT_MODULUS, DEFAULT_MULTIPLIER, inverse_normal_cdf, new_stream
from qcdesign.rules import (
    LIMIT_MAX,
    MAX_RULES,
    Operator,
    OperatorKind,
    Procedure,
    Rule,
    RuleKind,
    boolean_source,
    bound,
    canonical_notation,
    fold,
    min_n,
)
from qcdesign.simulator import DeviatePool, ErrorCondition, SimulationPlan, simulate_condition

AND, OR = OperatorKind.AND, OperatorKind.OR
# The sodium assay's critical errors (conftest), one condition each.
CONDITIONS = (
    ErrorCondition(),
    ErrorCondition(sd_multiplier=2.312959384173155),
    ErrorCondition(shift=3.494547721165329),
)


class RecordingPool(DeviatePool):
    """A pool that records every ``more(end)`` call."""

    __slots__ = ("calls",)

    def __init__(self, series, restore_stream):
        super().__init__(series, restore_stream)
        self.calls = []

    def more(self, end):
        self.calls.append(end)
        super().more(end)


class RecordingList(list):
    """A restoration list that records the position of every value read."""

    def __init__(self):
        super().__init__()
        self.reads = []

    def __getitem__(self, index):
        read = range(len(self))[index]
        self.reads += read if isinstance(index, slice) else [read]
        return super().__getitem__(index)


def _loop(procedure, levels, per_level, lazy=False):
    """The run loop ``simulate_condition`` runs for ``procedure``."""
    structure = tuple((rule.kind, rule.n) for rule in procedure.rules)
    return simulator.run_loop(structure, procedure.operators, levels, per_level, lazy)


def _normals(seed, count):
    stream = new_stream(seed, 0)
    return [stream.next_normal() for _ in range(count)]


def _has_history(procedure, per_level):
    """Whether some rule reads a value of an older run."""
    return any(rule.n > per_level for rule in procedure.rules)


def _assert_matches_oracle(procedure, levels, per_level, runs, condition, series):
    """simulate_condition and the oracle agree on the reject count, each on
    its own fresh copy of the same pool. With history, the pool's first
    reader runs lazily and draws nothing into it; a second reader gets the
    same count and extends the pool once per restoration block it reads,
    in order, to exactly the end of the oracle's slice for that block, and
    never past the last block it reads. A history-free procedure runs no
    loop: it looks up no compiled loop, never calls ``more``, draws nothing
    and leaves ``origin`` to the pool's first run loop."""
    shaped = Procedure(procedure.rules, procedure.operators, levels, per_level)
    plan = SimulationPlan(measurements_per_level=runs * per_level)
    product = RecordingPool(series, new_stream(1, 4))
    oracle = DeviatePool(series, new_stream(1, 4))
    origin, loops = product.origin, simulator.run_loop.cache_info()
    fraction = simulate_condition(shaped, plan, condition, product)
    assert product.calls == [] and product.restore == []
    product.restore = RecordingList()  # more() extends it in place
    assert simulate_condition(shaped, plan, condition, product) == fraction
    requests = []

    def restore_slice(start, count):
        requests.append(start + count)
        oracle.more(start + count)
        return oracle.restore[start : start + count]

    rejected = oracle_simulate(
        procedure, levels, per_level, oracle.series,
        condition.sd_multiplier, condition.shift, runs, restore_slice,
    )
    assert fraction == rejected / runs
    if _has_history(procedure, per_level):
        assert set(product.calls) <= set(requests)
        # The end of each block read, in the order of the first read.
        ends = dict.fromkeys(requests[bisect_right(requests, i)] for i in product.restore.reads)
        assert product.calls == list(ends)
        assert len(product.restore) == max(ends, default=0)
    else:
        assert product.calls == [] and product.restore == []
        assert product.origin == origin
        assert simulator.run_loop.cache_info() == loops


_limits = st.one_of(
    st.sampled_from([0.0, LIMIT_MAX]),
    st.integers(0, 63).map(lambda tenth: round(0.1 * tenth, 1)),
)
_rules = st.sampled_from(list(RuleKind)).flatmap(
    lambda kind: st.builds(Rule, st.just(kind), st.integers(min_n(kind), 4), _limits)
)
_operators = st.builds(Operator, st.sampled_from([AND, OR]), st.integers(0, 3))


@st.composite
def _procedures(draw):
    rules = draw(st.lists(_rules, max_size=6))
    return Procedure(tuple(rules), tuple(draw(_operators) for _ in rules[1:]))


@settings(max_examples=300, deadline=None)
@example(Procedure(), 2, 1, 1, CONDITIONS[2], 1)  # the empty procedure, one run
@example(Procedure((Rule(RuleKind.RANGE, 4, 0.0),)), 1, 4, 1, CONDITIONS[1], 1)
# Runs that are not rejected on S alone shift a reload no test read yet.
@example(
    Procedure((Rule(RuleKind.SINGLE_VALUE, 1, 1.0), Rule(RuleKind.MEAN, 3, 0.5)), (Operator(AND),)),
    1, 1, 2000, CONDITIONS[1], 7,
)
@given(
    _procedures(),
    st.sampled_from([1, 2]),
    st.integers(1, 4),
    st.one_of(st.just(1), st.integers(1, 60)),
    st.sampled_from(CONDITIONS),
    st.integers(1, 2**31 - 2),
)
def test_generated_loop_matches_closure_loop(procedure, levels, per_level, runs, condition, seed):
    series = _normals(seed, levels * per_level * runs)
    _assert_matches_oracle(procedure, levels, per_level, runs, condition, series)


@pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="sum() of floats is compensated from 3.12 on, so there the oracle's "
    "M and D arithmetic differs from left-to-right addition on exact boundaries",
)
@settings(max_examples=300, deadline=None)
@given(_procedures(), st.sampled_from([1, 2]), st.integers(1, 4), st.integers(1, 20), st.data())
def test_generated_loop_matches_closure_loop_on_the_limit_grid(
    procedure, levels, per_level, runs, data
):
    """Measurements on the limits' 0.1 grid land exactly on rule boundaries."""
    grid = st.integers(-63, 63).map(lambda tenth: round(0.1 * tenth, 1))
    count = levels * per_level * runs
    series = data.draw(st.lists(grid, min_size=count, max_size=count))
    _assert_matches_oracle(procedure, levels, per_level, runs, ErrorCondition(), series)


def _worst_shapes():
    """256-rule procedures whose trees are deepest: equal priorities with
    alternating AND/OR, priorities rising 0..3 over and over, all OR."""
    kinds = list(RuleKind)
    rules = tuple(
        Rule(kinds[i % 4], min_n(kinds[i % 4]) + i % 3, (2.0, 3.5, 1.2, 0.4)[i % 4] + 0.1 * (i % 7))
        for i in range(MAX_RULES)
    )
    shapes = {
        "alternating": [Operator((AND, OR)[i % 2], 0) for i in range(MAX_RULES - 1)],
        "rising": [Operator((AND, OR)[i % 2], i % 4) for i in range(MAX_RULES - 1)],
        "all_or": [Operator(OR, 0)] * (MAX_RULES - 1),
    }
    return {name: Procedure(rules, tuple(ops)) for name, ops in shapes.items()}


@pytest.mark.parametrize("name", ["alternating", "rising", "all_or"])
@pytest.mark.parametrize("condition", CONDITIONS)
def test_worst_shapes_simulate_and_match(name, condition):
    procedure = _worst_shapes()[name]
    _assert_matches_oracle(procedure, 2, 1, 150, condition, _normals(12345, 300))


@pytest.mark.parametrize("name", ["alternating", "rising", "all_or"])
def test_generated_blocks_nest_at_most_one_per_priority(name):
    lines = boolean_source(_worst_shapes()[name], lambda rule: "True", "")
    assert max(len(line) - len(line.lstrip()) for line in lines) <= 4 * 4


@pytest.mark.parametrize("name", ["alternating", "rising", "all_or"])
def test_reading_a_worst_shape_recurses_only_per_priority(name):
    """A chain of one priority is read in a loop, so each reader stays a
    few dozen frames deep however long the chain."""
    procedure = _worst_shapes()[name]
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        notation = canonical_notation(procedure)
        lines = boolean_source(procedure, str, "")
        tightest = fold(procedure, bound, max, min)
    finally:
        sys.setrecursionlimit(limit)
    assert notation.count("(") == notation.count(")")
    assert len([line for line in lines if line.lstrip().startswith("t = ")]) == MAX_RULES
    assert tightest in {bound(rule) for rule in procedure.rules}


@st.composite
def _same_structure(draw):
    """Two procedures that differ only in their limits."""
    first = draw(_procedures())
    limited = tuple(Rule(r.kind, r.n, draw(_limits)) for r in first.rules)
    return first, Procedure(limited, first.operators)


@settings(max_examples=150, deadline=None)
@given(
    _same_structure(),
    st.sampled_from([1, 2]),
    st.integers(1, 4),
    st.integers(1, 40),
    st.sampled_from(CONDITIONS),
    st.integers(1, 2**31 - 2),
)
def test_procedures_of_one_structure_share_a_loop(pair, levels, per_level, runs, condition, seed):
    for lazy in (False, True) if _has_history(pair[0], per_level) else ():
        loops = [_loop(p, levels, per_level, lazy) for p in pair]
        assert loops[0].__code__ is loops[1].__code__
    series = _normals(seed, levels * per_level * runs)
    for procedure in pair:
        _assert_matches_oracle(procedure, levels, per_level, runs, condition, series)


@st.composite
def _single_values(draw):
    """Procedures of S(1, x) rules only, which read one value each."""
    single = st.builds(Rule, st.just(RuleKind.SINGLE_VALUE), st.just(1), _limits)
    singles = draw(st.lists(single, min_size=1, max_size=6))
    return Procedure(tuple(singles), tuple(draw(_operators) for _ in singles[1:]))


@pytest.mark.parametrize("levels", [1, 2])
@pytest.mark.parametrize("per_level", [1, 2, 3, 4])
@settings(max_examples=40, deadline=None)
@given(
    procedure=_single_values(),
    runs=st.integers(1, 40),
    condition=st.sampled_from(CONDITIONS),
    seed=st.integers(1, 2**31 - 2),
)
def test_n1_loops_keep_no_window(levels, per_level, procedure, runs, condition, seed):
    """Rules that read one value read only their run's, so they run no loop
    at all (asserted by ``_assert_matches_oracle``)."""
    assert not _has_history(procedure, per_level)
    series = _normals(seed, levels * per_level * runs)
    _assert_matches_oracle(procedure, levels, per_level, runs, condition, series)


@settings(max_examples=200, deadline=None)
# Runs that are not rejected on S alone shift a reload no test read yet.
@example(
    Procedure((Rule(RuleKind.SINGLE_VALUE, 1, 1.0), Rule(RuleKind.MEAN, 3, 0.5)), (Operator(AND),)),
    1, 1, 60, CONDITIONS[1], 7,
)
@given(
    _procedures(),
    st.sampled_from([1, 2]),
    st.integers(1, 4),
    st.integers(1, 60),
    st.sampled_from(CONDITIONS),
    st.integers(1, 2**31 - 2),
)
def test_both_forms_read_the_same_restoration_positions(
    procedure, levels, per_level, runs, condition, seed
):
    """The dense form reads from the pool's list exactly the positions, in
    the same order, whose deviates the lazy form computes from the state.
    Only procedures with history run a loop."""
    assume(_has_history(procedure, per_level))
    series = _normals(seed, levels * per_level * runs)
    bounds = list(map(bound, procedure.rules))
    dense = DeviatePool(series, new_stream(1, 4))
    dense.restore = RecordingList()  # more() extends it in place
    run = simulator.CompiledProcedure(procedure, levels, per_level).run
    xs = dense.scaled(condition.sd_multiplier, condition.shift)
    rejected = run(xs, runs, dense.restore, dense.more, *bounds)

    lazy, computed = DeviatePool(series, new_stream(1, 4)), []
    run = simulator.CompiledProcedure(procedure, levels, per_level, lazy=True).run
    run.__globals__["inverse_normal_cdf"] = lambda u: computed.append(u) or inverse_normal_cdf(u)
    assert run(xs, runs, lazy.origin, lazy.more, *bounds) == rejected
    positions, state = {}, lazy.origin
    for position in range(len(dense.restore)):
        state = DEFAULT_MULTIPLIER * state % DEFAULT_MODULUS
        positions[state / DEFAULT_MODULUS] = position
    assert [positions[u] for u in computed] == dense.restore.reads


def test_compiled_loop_cache_is_bounded(monkeypatch):
    """One compile per structure and form, and the cache holds the
    ``COMPILED_STRUCTURES`` loops used last."""
    bound = 8
    assert simulator.run_loop.cache_info().maxsize == rules.COMPILED_STRUCTURES
    compiled, compile_uncached = [], simulator.run_loop.__wrapped__

    def compile_loop(structure, operators, levels, per_level, lazy=False):
        compiled.append((structure, operators, lazy))
        return compile_uncached(structure, operators, levels, per_level, lazy)

    loops = lru_cache(maxsize=bound)(compile_loop)
    monkeypatch.setattr(simulator, "run_loop", loops)
    plan = SimulationPlan(measurements_per_level=8, levels=1)

    def fresh():
        return DeviatePool(_normals(7, 8), new_stream(7, 4))

    def structure(i, limit):  # distinct for i < 24
        mean = Rule(RuleKind.MEAN, 2 + i % 3, limit)
        single = Rule(RuleKind.SINGLE_VALUE, 1 + i // 3 % 4, 2.0)
        return Procedure((mean, single), (Operator(OR, i // 12),))

    def key(i, lazy):
        procedure = structure(i, 0.0)
        return tuple((r.kind, r.n) for r in procedure.rules), procedure.operators, lazy

    for i in range(bound):
        pool = fresh()  # its first loop is lazy, the five after it dense
        for limit in (0.5, 3.5):  # two procedures of each structure
            for condition in CONDITIONS:
                simulate_condition(structure(i, limit), plan, condition, pool)
        assert compiled[-2:] == [key(i, True), key(i, False)]
        info = loops.cache_info()  # each miss compiles a loop
        assert (info.misses, info.hits) == (2 * (i + 1), 4 * (i + 1))
        assert info.currsize == min(2 * (i + 1), bound)
    # Both forms of structures bound // 2..bound - 1 are cached, the first's
    # lazy loop least recently used, then its dense loop until it runs
    # again; then a new loop evicts the first's lazy one, and that one, run
    # again, the second's.
    compiled.clear()
    first, new = bound // 2, bound
    for i, lazy in ((first, False), (new, False), (first, True), (first + 1, False)):
        simulate_condition(structure(i, 1.0), plan, CONDITIONS[0], fresh() if lazy else pool)
    assert compiled == [key(new, False), key(first, True)]
    assert loops.cache_info().currsize == bound
