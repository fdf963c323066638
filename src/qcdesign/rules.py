"""QC rules, Boolean procedures, and their evaluation.

A procedure is a Boolean combination of decision rules applied to a
chronological stream of standardized control measurements (mean 0, SD 1).
Four generic rule classes exist; each inspects only the last ``n`` values
of the series it is given:

  S(n, x)  all of the last n absolute values exceed x
  R(n, x)  range (max - min) of the last n values exceeds x
  M(n, x)  absolute mean of the last n values exceeds x
  D(n, x)  sample standard deviation of the last n values exceeds x

Operators carry a 2-bit priority; higher priority binds tighter, ties
associate left to right.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Callable, Optional, Sequence, Union

from .errors import InvalidArgumentError

LIMIT_MAX = 6.3
N_MAX = 4
# Most rules in one procedure (procedure text and layout.q alike). Trees
# are compiled and rendered recursively, one level per operator of a
# chain, so this bound keeps them far inside the recursion limit.
MAX_RULES = 256


class RuleKind(Enum):
    SINGLE_VALUE = "S"
    RANGE = "R"
    MEAN = "M"
    STD_DEV = "D"


class OperatorKind(Enum):
    AND = "AND"
    OR = "OR"


def min_n(kind: RuleKind) -> int:
    """Smallest legal window for a rule class (1 for S, else 2)."""
    return 1 if kind is RuleKind.SINGLE_VALUE else 2


@dataclass(frozen=True)
class Rule:
    kind: RuleKind
    n: int
    limit: float

    def __post_init__(self):
        if not min_n(self.kind) <= self.n <= N_MAX:
            raise InvalidArgumentError(
                f"{self.kind.value} rule needs n in "
                f"[{min_n(self.kind)}, {N_MAX}], got {self.n}"
            )
        if not 0.0 <= self.limit <= LIMIT_MAX:
            raise InvalidArgumentError(
                f"decision limit must be in [0, {LIMIT_MAX}], got {self.limit}"
            )

    def __str__(self):
        return f"{self.kind.value}({self.n},{self.limit:.1f})"


@dataclass(frozen=True)
class Operator:
    kind: OperatorKind
    priority: int = 0

    def __post_init__(self):
        if not 0 <= self.priority <= 3:
            raise InvalidArgumentError(
                f"operator priority must fit two bits, got {self.priority}"
            )


@dataclass(frozen=True)
class Procedure:
    """Rules joined by operators, plus optional QC configuration.

    ``levels`` / ``per_level`` of ``None`` defer to the simulation plan.
    """

    rules: tuple = ()
    operators: tuple = ()
    levels: Optional[int] = None
    per_level: Optional[int] = None

    def __post_init__(self):
        expected = max(len(self.rules) - 1, 0)
        if len(self.operators) != expected:
            raise InvalidArgumentError(
                f"{len(self.rules)} rules need {expected} operators, "
                f"got {len(self.operators)}"
            )
        if self.levels is not None and self.levels not in (1, 2):
            raise InvalidArgumentError(f"levels must be 1 or 2, got {self.levels}")
        if self.per_level is not None and not 1 <= self.per_level <= 4:
            raise InvalidArgumentError(
                f"per_level must be in [1, 4], got {self.per_level}"
            )

    @property
    def operator_count(self) -> int:
        return len(self.operators)


@dataclass(frozen=True)
class Leaf:
    rule: Rule


@dataclass(frozen=True)
class Node:
    op: OperatorKind
    left: "ExprTree"
    right: "ExprTree"


ExprTree = Union[Leaf, Node, None]


def window_predicate(rule: Rule) -> Callable[[Sequence[float]], bool]:
    """The one definition of a rule: a closure over a window (newest last).

    It reads only ``w[-n:]``, is False while fewer than ``n`` values exist,
    and decides M on |sum| > n*x and D on the sample variance > x**2.
    """
    n, limit = rule.n, rule.limit
    kind = rule.kind
    if kind is RuleKind.SINGLE_VALUE:
        if n == 1:
            return lambda w: bool(w) and abs(w[-1]) > limit
        return lambda w: len(w) >= n and all(abs(v) > limit for v in w[-n:])
    if kind is RuleKind.RANGE:
        return lambda w: len(w) >= n and max(w[-n:]) - min(w[-n:]) > limit

    if kind is RuleKind.MEAN:
        bound = limit * n
        return lambda w: len(w) >= n and abs(sum(w[-n:])) > bound

    def std_dev(w):
        if len(w) < n:
            return False
        tail = w[-n:]
        mean = sum(tail) / n
        return sum((v - mean) ** 2 for v in tail) / (n - 1) > limit * limit

    return std_dev


def evaluate_rule(rule: Rule, window: Sequence[float]) -> bool:
    """Apply one rule to the last ``rule.n`` values of ``window``."""
    return window_predicate(rule)(window)


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


def build_expr(procedure: Procedure) -> ExprTree:
    """Parse the rule/operator sequence into a tree by precedence climbing.

    Higher priority binds tighter; equal priorities associate left to
    right. An empty procedure yields ``None`` (never rejects).
    """
    rules = procedure.rules
    ops = procedure.operators
    if not rules:
        return None
    pos = [0]

    def parse(min_priority: int) -> ExprTree:
        left: ExprTree = Leaf(rules[pos[0]])
        pos[0] += 1
        while pos[0] - 1 < len(ops):
            op = ops[pos[0] - 1]
            if op.priority < min_priority:
                break
            right = parse(op.priority + 1)
            left = Node(op.kind, left, right)
        return left

    return parse(0)


def evaluate_expr(expr: ExprTree, window: Sequence[float]) -> bool:
    return compile_expr(expr, window_predicate)(window)


def canonical_notation(procedure: Procedure) -> str:
    """Render with parentheses exactly where the grouping requires them.

    Same-kind chains are flattened (AND and OR are associative); an
    internal child whose operator differs from its parent's is
    parenthesized. The empty procedure renders as ``NONE``.
    """
    expr = build_expr(procedure)
    if expr is None:
        return "NONE"

    def render(e: ExprTree, parent: Optional[OperatorKind]) -> str:
        if isinstance(e, Leaf):
            return str(e.rule)
        text = f"{render(e.left, e.op)} {e.op.value} {render(e.right, e.op)}"
        if parent is not None and parent is not e.op:
            return f"({text})"
        return text

    return render(expr, None)


def count_distinct_propositions(max_rules: int) -> int:
    """Distinct truth tables over the four rule-class atoms.

    Enumerates every procedure of 1..max_rules rules drawn from the four
    classes (parameters ignored) under all operator kind/priority
    assignments, and counts distinct 16-row truth tables. Equivalence is
    logical: idempotent, commutative, and absorptive variants collapse.
    """
    if max_rules < 1:
        raise InvalidArgumentError("max_rules must be >= 1")
    if max_rules > 4:
        raise InvalidArgumentError("enumeration supports max_rules <= 4")

    seen = set()
    op_space = list(product(OperatorKind, range(4)))
    for count in range(1, max_rules + 1):
        for atoms in product(range(4), repeat=count):
            for op_choice in product(op_space, repeat=count - 1):
                seen.add(_truth_table(atoms, op_choice))
    return len(seen)


# One placeholder rule per rule class; truth-table atom i is the rule of
# the i-th class.
_ATOM_RULES = tuple(Rule(kind, N_MAX, 0.0) for kind in RuleKind)
_ATOM_BIT = {kind: i for i, kind in enumerate(RuleKind)}


def _truth_table(atoms, op_choice) -> int:
    """16-row truth table (bitmask) of an atom/operator sequence."""
    procedure = Procedure(
        tuple(_ATOM_RULES[a] for a in atoms),
        tuple(Operator(kind, prio) for kind, prio in op_choice),
    )
    holds = compile_expr(build_expr(procedure), _atom_bit)
    return sum(1 << row for row in range(16) if holds(row))


def _atom_bit(rule: Rule):
    """Leaf predicate: in truth-table row r, atom i has the value of bit i."""
    bit = _ATOM_BIT[rule.kind]
    return lambda row: bool((row >> bit) & 1)
