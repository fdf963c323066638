"""Rule evaluation through the run loop and against the closure oracle,
expression building, notation, and proposition counting."""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from closure_oracle import compile_expr, rule_predicate
from qcdesign.errors import InvalidArgumentError
from qcdesign.rng import new_stream
from qcdesign.rules import (
    LIMIT_MAX,
    N_MAX,
    Leaf,
    Node,
    Operator,
    OperatorKind,
    Procedure,
    Rule,
    RuleKind,
    bound,
    build_expr,
    canonical_notation,
    count_distinct_propositions,
    fold,
    min_n,
    rule_statistic,
    rule_test,
)
from qcdesign.library import parse_procedure
from qcdesign.simulator import (
    CompiledProcedure,
    DeviatePool,
    ErrorCondition,
    SimulationPlan,
    count_history_free,
    simulate_condition,
)

S, R, M, D = (
    RuleKind.SINGLE_VALUE,
    RuleKind.RANGE,
    RuleKind.MEAN,
    RuleKind.STD_DEV,
)
AND, OR = OperatorKind.AND, OperatorKind.OR


def _run_once(procedure, levels, values):
    """Reject count of one run whose measurements are ``values``, level by
    level in turn, as the simulator scores it: from the rules' statistics
    when every rule reads only the run's values, else through the
    procedure's generated run loop. An empty window holds no run, so it
    rejects nothing."""
    if not values:
        return 0
    per_level = len(values) // levels
    pool = DeviatePool(values, new_stream(1, 9))
    if all(rule.n <= per_level for rule in procedure.rules):
        return count_history_free(procedure, ErrorCondition(), pool, levels, per_level, 1)
    compiled = CompiledProcedure(procedure, levels, per_level)
    return compiled.run(values, 1, pool.restore, pool.more, *map(bound, procedure.rules))


def _fires(rule, window):
    """Whether one rule rejects the one run ``window``, on one level."""
    return bool(_run_once(Procedure((rule,)), 1, window))


# ---------------------------------------------------------------- rules


def test_rule_bounds():
    assert min_n(S) == 1
    for kind in (R, M, D):
        assert min_n(kind) == 2
        with pytest.raises(InvalidArgumentError):
            Rule(kind, 1, 1.0)
    with pytest.raises(InvalidArgumentError):
        Rule(S, 5, 1.0)
    with pytest.raises(InvalidArgumentError):
        Rule(S, 1, 6.4)
    with pytest.raises(InvalidArgumentError):
        Rule(S, 1, -0.1)


_tenths = st.integers(-63, 63).map(lambda tenth: round(0.1 * tenth, 1))


@given(
    st.integers(2, 4),
    st.one_of(st.sampled_from([0.0, 6.3]), st.integers(0, 63).map(lambda t: round(0.1 * t, 1))),
    st.lists(st.one_of(_tenths, st.sampled_from([0.0, -0.0]), st.floats(-8, 8)), max_size=6),
)
def test_range_rule_is_max_minus_min(n, limit, window):
    """R's pairwise test decides as ``max - min > x`` would, on grid values
    whose differences round onto the limit, on ties and on signed zeros."""
    expected = len(window) >= n and max(window[-n:]) - min(window[-n:]) > limit
    assert _fires(Rule(R, n, limit), window) == expected


def _outcome(source, namespace):
    """The value of ``source``, or OverflowError where D's ``** 2``
    overflows (the test and the statistic square the same terms)."""
    try:
        return eval(source, namespace)
    except OverflowError:
        return OverflowError


_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, LIMIT_MAX, -LIMIT_MAX]),
    _tenths,
)


@pytest.mark.parametrize("kind", list(RuleKind))
@settings(max_examples=200, deadline=None)
@example(window=[0.0, -0.0], limit=0.0)
@example(window=[-0.0, -0.0, 0.0, -0.0], limit=0.0)
@example(window=[2.1, 2.1, 2.1], limit=2.1)
@example(window=[6.3, -6.3], limit=LIMIT_MAX)
@example(window=[6.3, 6.3, 6.3, 6.3], limit=LIMIT_MAX)
@example(window=[1.4658814763242407] * 2, limit=1.4)
@example(window=[1e200, -1e200, 3.0], limit=0.0)
@given(
    window=st.lists(_values, min_size=1, max_size=N_MAX),
    limit=st.one_of(st.sampled_from([0.0, LIMIT_MAX]), _tenths.map(abs)),
)
def test_statistic_exceeds_the_bound_exactly_when_the_test_holds(kind, window, limit):
    """Each kind's generated test on a window holds exactly when its
    generated statistic exceeds the rule's bound, on signed zeros, ties,
    values on the limit and sums that overflow."""
    assume(len(window) >= min_n(kind))
    rule = Rule(kind, len(window), limit)
    names = [f"v{i}" for i in range(len(window))]
    namespace = dict(zip(names, window), c=bound(rule))
    holds = _outcome(rule_test(kind, names, "c"), namespace)
    statistic = _outcome(rule_statistic(kind, names), namespace)
    assert holds == (statistic if statistic is OverflowError else statistic > bound(rule))


@pytest.mark.parametrize(
    "window, limit, fires",
    [
        ([0.0, -0.0, 0.0, -0.0], 0.0, False),  # signed zeros: no range
        ([2.1, 2.1, 2.1], 0.0, False),  # exact ties
        ([-3.15, 0.0, 3.15], 6.3, False),  # the range is exactly the largest limit
        ([-3.2, 3.15], 6.3, True),
        ([0.3, 0.1, 0.2, 0.1], 0.2, False),  # 0.3 - 0.1 rounds below 0.2
        ([-0.1, 0.2], 0.3, True),  # 0.2 - -0.1 rounds above 0.3
    ],
)
def test_range_rule_at_rounding_edges(window, limit, fires):
    assert (max(window) - min(window) > limit) == fires
    assert _fires(Rule(R, len(window), limit), window) == fires


def test_evaluate_single_value():
    rule = Rule(S, 2, 2.0)
    assert _fires(rule, [0.0, -2.1, 2.5])
    assert not _fires(rule, [0.0, 1.9, 2.5])
    assert not _fires(rule, [2.5])  # insufficient history


def test_evaluate_range_and_mean():
    assert _fires(Rule(R, 2, 4.0), [-2.1, 2.0])
    assert not _fires(Rule(R, 2, 4.2), [-2.1, 2.0])
    assert _fires(Rule(M, 2, 1.9), [2.0, 1.9])
    assert not _fires(Rule(M, 2, 2.0), [2.0, 1.9])


def test_evaluate_std_dev():
    # sample SD of [0, 2] is sqrt(2) = 1.4142
    assert _fires(Rule(D, 2, 1.0), [5.0, 0.0, 2.0])
    assert not _fires(Rule(D, 2, 1.5), [5.0, 0.0, 2.0])


def test_bounds_are_products():
    x = 1.4658814763242407  # x ** 2 is one bit off x * x
    assert [bound(Rule(kind, 2, x)) for kind in (S, R, M, D)] == [x, x, x * 2, x * x]


def test_history_prefix_irrelevant():
    rule = Rule(M, 2, 1.0)
    window = [1.5, 1.5]
    assert _fires(rule, window) == _fires(rule, [9.0, -9.0] + window)


# ---------------------------------------------------------- expressions


def _proc(rules, ops):
    return Procedure(tuple(rules), tuple(ops))


def test_two_rules_single_node():
    a, b = Rule(S, 1, 2.0), Rule(M, 2, 1.0)
    expr = build_expr(_proc([a, b], [Operator(AND, 0)]))
    assert expr == Node(AND, Leaf(a), Leaf(b))


def test_empty_procedure_never_rejects():
    assert build_expr(Procedure()) is None
    assert not _run_once(Procedure(), 1, [9.0, 9.0, 9.0])


def test_priority_binds_tighter():
    a, b, c = Rule(S, 1, 1.0), Rule(S, 1, 2.0), Rule(S, 1, 3.0)
    # a OR b AND c with AND at higher priority: a OR (b AND c)
    expr = build_expr(_proc([a, b, c], [Operator(OR, 0), Operator(AND, 1)]))
    assert expr == Node(OR, Leaf(a), Node(AND, Leaf(b), Leaf(c)))
    # equal priorities associate left to right
    expr = build_expr(_proc([a, b, c], [Operator(OR, 0), Operator(AND, 0)]))
    assert expr == Node(AND, Node(OR, Leaf(a), Leaf(b)), Leaf(c))


def test_flatten_inverts_grouping():
    a, b, c = Rule(S, 1, 1.0), Rule(R, 2, 2.0), Rule(M, 2, 3.0)
    proc = _proc([a, b, c], [Operator(AND, 2), Operator(OR, 1)])
    flat = parse_procedure(canonical_notation(proc))
    assert list(flat.rules) == [a, b, c]
    assert [op.kind for op in flat.operators] == [AND, OR]


def test_hand_evaluated_combination():
    # (S(1,2.2) AND M(2,1.9)) OR R(4,4.3) on [0, 0, 0, 2.3]:
    # mean of last two is 1.15 <= 1.9 and range is 2.3 <= 4.3
    proc = _proc(
        [Rule(S, 1, 2.2), Rule(M, 2, 1.9), Rule(R, 4, 4.3)],
        [Operator(AND, 1), Operator(OR, 0)],
    )
    assert not _run_once(proc, 1, [0.0, 0.0, 0.0, 2.3])


def test_or_fires_on_one_branch():
    proc = _proc([Rule(S, 1, 2.7), Rule(M, 2, 1.9)], [Operator(OR, 0)])
    assert _run_once(proc, 1, [0.1, 2.8])


# ------------------------------------------------------------- notation


def test_notation_single_rule():
    assert canonical_notation(_proc([Rule(S, 1, 2.7)], [])) == "S(1,2.7)"


def test_notation_flat_or_chain():
    proc = _proc(
        [Rule(S, 1, 3.2), Rule(R, 4, 4.6), Rule(M, 2, 1.9)],
        [Operator(OR, 0), Operator(OR, 0)],
    )
    assert canonical_notation(proc) == "S(1,3.2) OR R(4,4.6) OR M(2,1.9)"


def test_notation_parenthesizes_mixed_operators():
    proc = _proc(
        [Rule(S, 1, 1.9), Rule(R, 4, 4.2), Rule(M, 2, 1.9)],
        [Operator(AND, 0), Operator(OR, 1)],
    )
    assert canonical_notation(proc) == "S(1,1.9) AND (R(4,4.2) OR M(2,1.9))"


def test_notation_empty():
    assert canonical_notation(Procedure()) == "NONE"


# ----------------------------------------------------------- structure


def test_procedure_validation():
    with pytest.raises(InvalidArgumentError):
        Procedure((Rule(S, 1, 1.0),), (Operator(OR, 0),))
    with pytest.raises(InvalidArgumentError):
        Procedure((), (), levels=3)
    with pytest.raises(InvalidArgumentError):
        Procedure((), (), per_level=5)
    with pytest.raises(InvalidArgumentError):
        Operator(AND, 4)


# -------------------------------------------------- proposition counts


def test_count_single_atom_propositions():
    assert count_distinct_propositions(1) == 4


def test_count_two_atom_propositions():
    # 4 atoms + C(4,2) unordered pairs for each of AND and OR
    assert count_distinct_propositions(2) == 4 + 6 + 6


def test_count_three_atom_propositions_frozen():
    # truth-table equivalence collapses the enumeration to 48 (see the
    # acceptance suite for the documented counting-convention analysis)
    assert count_distinct_propositions(3) == 48


def test_count_four_atom_propositions_frozen():
    # frozen from an enumeration that compiled every procedure on its own
    assert count_distinct_propositions(4) == 100


def test_count_validation():
    with pytest.raises(InvalidArgumentError):
        count_distinct_propositions(0)
    with pytest.raises(InvalidArgumentError):
        count_distinct_propositions(5)


# ------------------------------------------------------ property tests

_rule_strategy = st.builds(
    lambda kind, n_extra, tenth: Rule(
        kind, min_n(kind) + n_extra, round(0.1 * tenth, 1)
    ),
    st.sampled_from(list(RuleKind)),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=63),
)

_ops_strategy = st.builds(
    Operator, st.sampled_from([AND, OR]), st.integers(min_value=0, max_value=3)
)


@st.composite
def _procedures(draw, max_rules=4):
    rules = draw(st.lists(_rule_strategy, min_size=1, max_size=max_rules))
    ops = tuple(draw(_ops_strategy) for _ in rules[1:])
    return Procedure(tuple(rules), ops)


@given(
    _procedures(),
    st.lists(st.floats(-6, 6, allow_nan=False), min_size=4, max_size=8),
)
def test_or_rejection_superset_of_and(procedure, window):
    """Replacing every AND with OR never turns a rejection into a pass."""
    all_or = Procedure(
        procedure.rules,
        tuple(Operator(OR, op.priority) for op in procedure.operators),
    )
    if _run_once(procedure, 1, window):
        assert _run_once(all_or, 1, window)


@given(
    _procedures(),
    st.lists(st.floats(-6, 6, allow_nan=False), min_size=0, max_size=8),
    st.lists(st.floats(-6, 6, allow_nan=False), min_size=4, max_size=4),
)
def test_evaluation_depends_only_on_recent_history(procedure, prefix, tail):
    """Prepending history never changes the verdict once windows are full."""
    max_n = max(rule.n for rule in procedure.rules)
    window = tail[-max_n:] if max_n <= len(tail) else tail
    assert _run_once(procedure, 1, window) == _run_once(procedure, 1, prefix + window)


@given(_procedures())
def test_flatten_roundtrip(procedure):
    flat = parse_procedure(canonical_notation(procedure))
    assert flat.rules == procedure.rules
    assert [op.kind for op in flat.operators] == [op.kind for op in procedure.operators]


@given(_procedures(max_rules=12))
def test_fold_meets_each_rule_once_in_rule_order(procedure):
    """CompiledProcedure names the rules' bounds c0, c1, ... in the order
    fold meets the rules, so that must be ``procedure.rules`` order; and
    each operator joins once, by ``both`` at AND and ``either`` at OR."""
    met, joins = [], []
    fold(procedure, met.append, lambda *_: joins.append(AND), lambda *_: joins.append(OR))
    assert len(met) == len(procedure.rules)
    assert all(seen is rule for seen, rule in zip(met, procedure.rules))
    assert sorted(kind.value for kind in joins) == sorted(
        op.kind.value for op in procedure.operators
    )


# ----------------------------------------------------- kernel agreement

# Windows on the boundary of a rule, where |mean| > x and |sum| > n*x (or
# SD > x and variance > x**2) differ in floating point.
_BOUNDARY_WINDOWS = [
    (Rule(M, 3, 0.7), [-3.1, -4.0, 5.0]),
    (Rule(D, 3, 3.9), [-1.9, 2.0, 5.9]),
    (Rule(D, 4, 4.6), [1.7, 5.7, -5.1, -1.5]),
]


@pytest.mark.parametrize("rule, window", _BOUNDARY_WINDOWS)
def test_reference_evaluator_agrees_with_simulator(rule, window):
    """One run of len(window) measurements on one level sees exactly window,
    which the closure oracle's rule reads as its one window."""
    procedure = Procedure((rule,), (), levels=1, per_level=len(window))
    plan = SimulationPlan(measurements_per_level=len(window))
    pool = DeviatePool(window, new_stream(1, 9))
    rejected = simulate_condition(procedure, plan, ErrorCondition(), pool)
    assert float(rule_predicate(rule)([window])) == rejected


_grid_windows = st.lists(
    st.integers(min_value=-63, max_value=63).map(lambda tenth: round(0.1 * tenth, 1)),
    max_size=8,
)


# A run holds at least one measurement, so these windows are not empty.
@given(_procedures(), _grid_windows.filter(len))
def test_compiled_procedure_agrees_with_reference(procedure, window):
    expected = compile_expr(build_expr(procedure), rule_predicate)([window])
    assert _run_once(procedure, 1, window) == expected


@given(
    _rule_strategy,
    st.sampled_from([1, 2]).flatmap(
        lambda levels: st.tuples(
            st.just(levels), _grid_windows.filter(lambda w: w and len(w) % levels == 0)
        )
    ),
)
def test_rule_holds_when_any_window_does(rule, shape):
    """One run's windows: the cross-level one and one per level."""
    levels, values = shape
    windows = [values] + [values[level::levels] for level in range(levels)]
    holds = rule_predicate(rule)
    expected = any(holds([w]) for w in windows)
    assert _run_once(Procedure((rule,)), levels, values) == expected
