"""QC rules and Boolean procedures.

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
from itertools import combinations, product
from typing import Callable, Optional, Sequence, Union

from .errors import InvalidArgumentError

LIMIT_MAX = 6.3
N_MAX = 4
# Most rules in one procedure (procedure text and layout.q alike). Trees
# are rendered recursively, one level per operator of a chain, so this
# bound keeps rendering far inside the recursion limit.
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
        shape = [1 if value is None else value for value in (self.levels, self.per_level)]
        check_shape(*shape, ("levels", "per_level"))

    @property
    def operator_count(self) -> int:
        return len(self.operators)


def check_shape(levels: int, per_level: int, names: Sequence[str]) -> None:
    """Reject a QC shape other than 1 or 2 levels of 1 to 4 measurements
    each; ``names`` are the two fields' names for the message."""
    if levels not in (1, 2):
        raise InvalidArgumentError(f"{names[0]} must be 1 or 2, got {levels}")
    if not 1 <= per_level <= 4:
        raise InvalidArgumentError(f"{names[1]} must be in [1, 4], got {per_level}")


@dataclass(frozen=True)
class Leaf:
    rule: Rule


@dataclass(frozen=True)
class Node:
    op: OperatorKind
    left: "ExprTree"
    right: "ExprTree"


ExprTree = Union[Leaf, Node, None]


# The one definition of a rule: per kind, its test on the source
# expressions v of a window's last n values, oldest first, against the
# source expression c of the rule's bound (see :func:`bound`). R tests
# every pair: IEEE subtraction rounds monotonically and symmetrically, so
# fl(max - min) > x exactly when some |fl(a - b)| > x, and abs costs a
# fraction of max and min. Its ``or`` chain is parenthesised because the
# run loop puts a guard and ``and`` in front of a test. M and D add left to
# right as sum() does, less its leading int 0, which could change only the
# sign of a zero sum; abs and squaring drop that sign. D's ``** 2`` must
# stay: x ** 2 and x * x differ in the last bit for some doubles (for
# example 1.4658814763242407), so ``d * d`` would change reports.
RULE_SOURCE = {
    RuleKind.SINGLE_VALUE: lambda v, c: " and ".join(f"abs({a}) > {c}" for a in v),
    RuleKind.RANGE: lambda v, c: (
        f"({' or '.join(f'abs({a} - {b}) > {c}' for a, b in combinations(v, 2))})"
    ),
    RuleKind.MEAN: lambda v, c: f"abs({' + '.join(v)}) > {c}",
    RuleKind.STD_DEV: lambda v, c: (
        f"(({v[0]} - (m := ({' + '.join(v)}) / {len(v)})) ** 2"
        + "".join(f" + ({a} - m) ** 2" for a in v[1:]) + f") / {len(v) - 1} > {c}"
    ),
}


def bound(rule: Rule) -> float:
    """The constant a rule's test compares with: the limit x, but n * x for
    M, which tests |sum|, and x * x for D, which tests the variance."""
    if rule.kind is RuleKind.MEAN:
        return rule.limit * rule.n
    if rule.kind is RuleKind.STD_DEV:
        return rule.limit * rule.limit
    return rule.limit


def define(name: str, params: str, body: Sequence[str], **names) -> Callable:
    """Compile ``def name(params):`` with the given (indented) body lines;
    ``names`` are its globals."""
    namespace: dict = dict(names)
    exec("\n".join([f"def {name}({params}):", *body]), namespace)
    return namespace[name]


# Entries in the cache of compiled run loops (``simulator.run_loop``), keyed
# by structure only: rule kinds and windows, operators, shape, never a
# limit. The limits are parameters, so procedures that differ only in
# their limits share one entry. The bound keeps a long design's memory
# flat; an entry holds a few KB.
COMPILED_STRUCTURES = 4096


def build_expr(procedure: Procedure) -> ExprTree:
    """Parse the rule/operator sequence into a tree by precedence climbing.

    Higher priority binds tighter; equal priorities associate left to
    right. An empty procedure yields ``None`` (never rejects).
    """
    rules, ops = procedure.rules, procedure.operators
    if not rules:
        return None
    pos = 0  # ops[pos] follows rules[pos]

    def parse(min_priority: int) -> ExprTree:
        nonlocal pos
        left: ExprTree = Leaf(rules[pos])
        while pos < len(ops) and ops[pos].priority >= min_priority:
            op = ops[pos]
            pos += 1
            left = Node(op.kind, left, parse(op.priority + 1))
        return left

    return parse(0)


def boolean_source(expr: ExprTree, leaf: Callable[[Rule], str], indent: str) -> list:
    """Lines that set ``t`` to the truth of ``expr``, ``leaf(rule)`` giving
    each rule's test; AND and OR short-circuit, the empty tree is false. A
    chain is a run of statements, and only an operand that is a chain opens
    a block: trees from :func:`build_expr` nest one block per priority."""
    if expr is None:
        return [f"{indent}t = False"]
    spine = []
    while isinstance(expr, Node):
        spine.append(expr)
        expr = expr.left
    lines = [f"{indent}t = {leaf(expr.rule)}"]
    for node in reversed(spine):
        lines.append(f"{indent}if {'' if node.op is OperatorKind.AND else 'not '}t:")
        lines += boolean_source(node.right, leaf, indent + "    ")
    return lines


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
        # Placeholder rule i stands for the atom in position i, so one
        # compiled function per operator choice serves every choice of
        # atoms. In row r, an atom of class c has the value of bit c of r.
        slots = tuple(Rule(RuleKind.SINGLE_VALUE, 1, 0.1 * i) for i in range(count))
        tables = [
            [[row >> c & 1 for c in atoms] for row in range(16)]
            for atoms in product(range(4), repeat=count)
        ]
        for op_choice in product(op_space, repeat=count - 1):
            ops = tuple(Operator(kind, prio) for kind, prio in op_choice)
            expr = build_expr(Procedure(slots, ops))
            body = boolean_source(expr, lambda rule: f"a[{slots.index(rule)}]", "    ")
            holds = define("holds", "a", [*body, "    return t"])
            for table in tables:
                seen.add(sum(1 << row for row, values in enumerate(table) if holds(values)))
    return len(seen)
