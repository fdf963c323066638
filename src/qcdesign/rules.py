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
from typing import Callable, Optional, Sequence

from .errors import InvalidArgumentError

LIMIT_MAX = 6.3
N_MAX = 4
# Most rules in one procedure (procedure text and layout.q alike). Reading
# an expression recurses only per priority (:func:`fold`), and a generated
# run loop holds a test per rule, so this bound keeps a loop's source small.
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
        return f"{self.kind.value}({self.n},{float(self.limit)!r})"


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


# The one definition of a rule: per kind, the source of the terms its test
# compares with the rule's bound (see :func:`bound`), on the source
# expressions v of a window's last n values, oldest first, and whether any
# term (else every term) must exceed the bound. :func:`rule_test` and
# :func:`rule_statistic` generate a test and a per-window statistic from it.
# R tests every pair: IEEE subtraction rounds monotonically and
# symmetrically, so fl(max - min) > x exactly when some |fl(a - b)| > x,
# and abs costs a fraction of max and min. M and D add left to right as
# sum() does, less its leading int 0, which could change only the sign of
# a zero sum; abs and squaring drop that sign. D's ``** 2`` must stay:
# x ** 2 and x * x differ in the last bit for some doubles (for example
# 1.4658814763242407), so ``d * d`` would change reports.
RULE_SOURCE = {
    RuleKind.SINGLE_VALUE: (lambda v: [f"abs({a})" for a in v], False),
    RuleKind.RANGE: (lambda v: [f"abs({a} - {b})" for a, b in combinations(v, 2)], True),
    RuleKind.MEAN: (lambda v: [f"abs({' + '.join(v)})"], False),
    RuleKind.STD_DEV: (lambda v: [
        f"(({v[0]} - (m := ({' + '.join(v)}) / {len(v)})) ** 2"
        + "".join(f" + ({a} - m) ** 2" for a in v[1:]) + f") / {len(v) - 1}"
    ], False),
}


def rule_test(kind: RuleKind, v: Sequence[str], c: str) -> str:
    """Source of a rule's test on one window, against the bound's source
    ``c``. An ``or`` chain is parenthesised because the run loop puts a
    guard and ``and`` in front of a test."""
    terms, any_term = RULE_SOURCE[kind]
    tests = [f"{term} > {c}" for term in terms(v)]
    return f"({' or '.join(tests)})" if any_term else " and ".join(tests)


def rule_statistic(kind: RuleKind, v: Sequence[str]) -> str:
    """Source of the value that exceeds the bound exactly when the rule's
    test on the window holds: its largest term if any term must exceed the
    bound, else its smallest."""
    terms, any_term = RULE_SOURCE[kind]
    return extreme(terms(v), any_term, "t")


def extreme(values: Sequence[str], largest: bool, temp: str) -> str:
    """Source of the largest (else the smallest) of the sources ``values``,
    as conditional expressions through the locals ``temp``0 and ``temp``1,
    which cost a fraction of a ``max`` or ``min`` call. Exact for floats
    that are not NaN; ``values`` must not assign those locals."""
    a, b = f"{temp}0", f"{temp}1"
    source = values[0]
    for value in values[1:]:
        source = f"({a} if ({a} := {source}) {'>' if largest else '<'} ({b} := {value}) else {b})"
    return source


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


# Entries in the caches of compiled run loops (``simulator.run_loop``) and
# statistics (``simulator.statistic_loop``), keyed by structure only: rule
# kinds and windows, operators, shape, never a limit. The limits are
# parameters, so procedures that differ only in their limits share one
# entry. The bound keeps a long design's memory flat; an entry holds a few
# KB.
COMPILED_STRUCTURES = 4096


def fold(procedure: Procedure, leaf: Callable, both: Callable, either: Callable):
    """The value of the procedure's expression, read by precedence
    climbing: ``leaf(rule)`` for each rule in rule order, combined by
    ``both`` at AND and ``either`` at OR; ``None`` if it has no rules.
    Higher priority binds tighter and equal priorities associate left to
    right. A chain folds in a loop and only a tighter priority recurses,
    so the depth stays within five calls."""
    rules, ops = procedure.rules, procedure.operators
    if not rules:
        return None
    pos = 0  # ops[pos] follows rules[pos]

    def parse(min_priority: int):
        nonlocal pos
        value = leaf(rules[pos])
        while pos < len(ops) and ops[pos].priority >= min_priority:
            op = ops[pos]
            pos += 1
            right = parse(op.priority + 1)
            value = both(value, right) if op.kind is OperatorKind.AND else either(value, right)
        return value

    return parse(0)


def boolean_source(procedure: Procedure, leaf: Callable[[Rule], str], indent: str) -> list:
    """Lines that set ``t`` to the truth of the procedure's expression,
    ``leaf(rule)`` giving each rule's test; AND and OR short-circuit. A
    chain is a run of statements, and only an operand that is a chain opens
    a block, so blocks nest one per priority."""
    def join(guard: str) -> Callable:
        return lambda left, right: left + [guard] + ["    " + line for line in right]

    lines = fold(procedure, lambda rule: [f"t = {leaf(rule)}"], join("if t:"), join("if not t:"))
    return [indent + line for line in lines]


def canonical_notation(procedure: Procedure) -> str:
    """Render with parentheses exactly where the grouping requires them.

    Same-kind chains are flattened (AND and OR are associative); an
    operand whose operator differs from its parent's is parenthesized.
    The empty procedure renders as ``NONE``.
    """
    def join(kind: OperatorKind) -> Callable:
        def operand(text: str, op: Optional[OperatorKind]) -> str:
            return f"({text})" if op is not None and op is not kind else text
        return lambda left, right: (f"{operand(*left)} {kind.value} {operand(*right)}", kind)

    value = fold(procedure, lambda rule: (str(rule), None),
                 join(OperatorKind.AND), join(OperatorKind.OR))
    return "NONE" if value is None else value[0]


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

    # The truth table of a procedure is its fold over 16-bit masks, once per
    # canonical notation: in row r an atom of class c holds when bit c of r
    # is set, and rule i of a placeholder sequence stands for atom i.
    atom_rows = [sum(1 << row for row in range(16) if row >> c & 1) for c in range(4)]
    seen = set()
    op_space = list(product(OperatorKind, range(4)))
    for count in range(1, max_rules + 1):
        slots = tuple(Rule(RuleKind.SINGLE_VALUE, 1, i / 10) for i in range(count))
        procedures = (
            Procedure(slots, tuple(Operator(kind, prio) for kind, prio in choice))
            for choice in product(op_space, repeat=count - 1)
        )
        for procedure in {canonical_notation(p): p for p in procedures}.values():
            for atoms in product(atom_rows, repeat=count):
                rows = dict(zip(slots, atoms))
                seen.add(fold(procedure, rows.__getitem__, int.__and__, int.__or__))
    return len(seen)
