"""Rule evaluation, expression building, notation, and proposition counting."""

import pytest
from hypothesis import given, strategies as st

from qcdesign.errors import InvalidArgumentError
from qcdesign.rng import new_stream
from qcdesign.rules import (
    Leaf,
    Node,
    Operator,
    OperatorKind,
    Procedure,
    Rule,
    RuleKind,
    build_expr,
    canonical_notation,
    count_distinct_propositions,
    evaluate_expr,
    evaluate_rule,
    min_n,
    rule_predicate,
)
from qcdesign.library import parse_procedure
from qcdesign.simulator import (
    CompiledProcedure,
    DeviatePool,
    ErrorCondition,
    SimulationPlan,
    simulate_condition,
)

S, R, M, D = (
    RuleKind.SINGLE_VALUE,
    RuleKind.RANGE,
    RuleKind.MEAN,
    RuleKind.STD_DEV,
)
AND, OR = OperatorKind.AND, OperatorKind.OR


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


def test_evaluate_single_value():
    rule = Rule(S, 2, 2.0)
    assert evaluate_rule(rule, [0.0, -2.1, 2.5])
    assert not evaluate_rule(rule, [0.0, 1.9, 2.5])
    assert not evaluate_rule(rule, [2.5])  # insufficient history


def test_evaluate_range_and_mean():
    assert evaluate_rule(Rule(R, 2, 4.0), [-2.1, 2.0])
    assert not evaluate_rule(Rule(R, 2, 4.2), [-2.1, 2.0])
    assert evaluate_rule(Rule(M, 2, 1.9), [2.0, 1.9])
    assert not evaluate_rule(Rule(M, 2, 2.0), [2.0, 1.9])


def test_evaluate_std_dev():
    # sample SD of [0, 2] is sqrt(2) = 1.4142
    assert evaluate_rule(Rule(D, 2, 1.0), [5.0, 0.0, 2.0])
    assert not evaluate_rule(Rule(D, 2, 1.5), [5.0, 0.0, 2.0])


def test_history_prefix_irrelevant():
    rule = Rule(M, 2, 1.0)
    window = [1.5, 1.5]
    assert evaluate_rule(rule, window) == evaluate_rule(rule, [9.0, -9.0] + window)


# ---------------------------------------------------------- expressions


def _proc(rules, ops):
    return Procedure(tuple(rules), tuple(ops))


def test_two_rules_single_node():
    a, b = Rule(S, 1, 2.0), Rule(M, 2, 1.0)
    expr = build_expr(_proc([a, b], [Operator(AND, 0)]))
    assert expr == Node(AND, Leaf(a), Leaf(b))


def test_empty_procedure_never_rejects():
    expr = build_expr(Procedure())
    assert expr is None
    assert not evaluate_expr(expr, [9.0, 9.0, 9.0])


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
    assert not evaluate_expr(build_expr(proc), [0.0, 0.0, 0.0, 2.3])


def test_or_fires_on_one_branch():
    proc = _proc([Rule(S, 1, 2.7), Rule(M, 2, 1.9)], [Operator(OR, 0)])
    assert evaluate_expr(build_expr(proc), [0.1, 2.8])


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
    expr = build_expr(procedure)
    all_or = Procedure(
        procedure.rules,
        tuple(Operator(OR, op.priority) for op in procedure.operators),
    )
    if evaluate_expr(expr, window):
        assert evaluate_expr(build_expr(all_or), window)


@given(
    _procedures(),
    st.lists(st.floats(-6, 6, allow_nan=False), min_size=0, max_size=8),
    st.lists(st.floats(-6, 6, allow_nan=False), min_size=4, max_size=4),
)
def test_evaluation_depends_only_on_recent_history(procedure, prefix, tail):
    """Prepending history never changes the verdict once windows are full."""
    max_n = max(rule.n for rule in procedure.rules)
    window = tail[-max_n:] if max_n <= len(tail) else tail
    expr = build_expr(procedure)
    assert evaluate_expr(expr, window) == evaluate_expr(expr, prefix + window)


@given(_procedures())
def test_flatten_roundtrip(procedure):
    flat = parse_procedure(canonical_notation(procedure))
    assert flat.rules == procedure.rules
    assert [op.kind for op in flat.operators] == [op.kind for op in procedure.operators]


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
    """One run of len(window) measurements on one level sees exactly window."""
    procedure = Procedure((rule,), (), levels=1, per_level=len(window))
    plan = SimulationPlan(measurements_per_level=len(window))
    pool = DeviatePool(window, new_stream(1, 9))
    rejected = simulate_condition(procedure, plan, ErrorCondition(), pool)
    assert float(evaluate_rule(rule, window)) == rejected


_grid_windows = st.lists(
    st.integers(min_value=-63, max_value=63).map(lambda tenth: round(0.1 * tenth, 1)),
    max_size=8,
)


@given(_procedures(), _grid_windows)
def test_compiled_procedure_agrees_with_reference(procedure, window):
    expected = evaluate_expr(build_expr(procedure), window)
    assert CompiledProcedure(procedure).evaluate((window,)) == expected


@given(_rule_strategy, st.lists(_grid_windows, max_size=3))
def test_rule_holds_when_any_window_does(rule, windows):
    assert rule_predicate(rule)(windows) == any(evaluate_rule(rule, w) for w in windows)
