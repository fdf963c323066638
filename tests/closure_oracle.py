"""The closure-based rule kernel and run loop that the generated run loops
replaced, kept verbatim as the oracle of the differential tests.

``rule_predicate`` and ``compile_expr`` are the former ``qcdesign.rules``
functions; :func:`simulate` is the former body of
``simulator.simulate_condition`` after its argument checks, returning the
reject count instead of the fraction.
"""

from __future__ import annotations

from typing import Callable, Sequence

from qcdesign.rules import ExprTree, Leaf, OperatorKind, Procedure, Rule, RuleKind, build_expr


def rule_predicate(rule: Rule) -> Callable[[Sequence[Sequence[float]]], bool]:
    """The one definition of a rule: a closure over a run's windows (each
    newest last) that holds when any window triggers the rule. A window is
    read only at ``w[-n:]`` and triggers nothing while it holds fewer than
    ``n`` values; M decides on |sum| > n*x, D on the sample variance > x**2.
    """
    kind, n, limit = rule.kind, rule.n, rule.limit
    sum_bound, variance_bound = limit * n, limit * limit
    # One window loop per kind, so that no window costs an extra call.
    if kind is RuleKind.SINGLE_VALUE and n == 1:
        def holds(windows):
            for w in windows:
                if w and abs(w[-1]) > limit:
                    return True
            return False
    elif kind is RuleKind.SINGLE_VALUE:
        def holds(windows):
            for w in windows:
                if len(w) >= n and all(abs(v) > limit for v in w[-n:]):
                    return True
            return False
    elif kind is RuleKind.RANGE:
        def holds(windows):
            for w in windows:
                if len(w) >= n and max(w[-n:]) - min(w[-n:]) > limit:
                    return True
            return False
    elif kind is RuleKind.MEAN:
        def holds(windows):
            for w in windows:
                if len(w) >= n and abs(sum(w[-n:])) > sum_bound:
                    return True
            return False
    else:  # STD_DEV
        def holds(windows):
            for w in windows:
                if len(w) >= n:
                    tail = w[-n:]
                    mean = sum(tail) / n
                    if sum((v - mean) ** 2 for v in tail) / (n - 1) > variance_bound:
                        return True
            return False
    return holds


def compile_expr(expr: ExprTree, leaf: Callable[[Rule], Callable]) -> Callable:
    """The one walk from a tree to a predicate, ``leaf(rule)`` giving each
    rule's; AND and OR short-circuit, and the empty tree never holds."""
    if expr is None:
        return lambda arg: False
    if isinstance(expr, Leaf):
        return leaf(expr.rule)
    left = compile_expr(expr.left, leaf)
    right = compile_expr(expr.right, leaf)
    if expr.op is OperatorKind.AND:
        return lambda arg: left(arg) and right(arg)
    return lambda arg: left(arg) or right(arg)


def simulate(
    procedure: Procedure,
    levels: int,
    per_level: int,
    series: Sequence[float],
    k: float,
    delta: float,
    runs: int,
    restore_slice: Callable[[int, int], list],
) -> int:
    """Reject count of ``runs`` runs, as the closure-based loop counted it."""
    max_window = max((r.n for r in procedure.rules), default=0)
    evaluate = compile_expr(build_expr(procedure), rule_predicate)
    # The windows only grow: every predicate reads the last n <= max_window
    # values, and a rejection resets each window to max_window values (at
    # least one: only a non-empty procedure rejects).
    pooled: list = []
    by_level = [[] for _ in range(levels)]
    windows = (pooled, *by_level)
    restore_per_rejection = max_window * (1 + levels)
    rejected = 0
    cursor = 0
    idx = 0
    for _ in range(runs):
        for _ in range(per_level):
            for level in range(levels):
                x = series[idx] * k + delta
                idx += 1
                pooled.append(x)
                by_level[level].append(x)
        if evaluate(windows):
            rejected += 1
            values = restore_slice(cursor, restore_per_rejection)
            cursor += restore_per_rejection
            for i, window in enumerate(windows):
                window[:] = values[max_window * i : max_window * (i + 1)]
    return rejected
