"""Fixed-width bit-string encoding of QC procedures.

Layout, most-significant bit first within each field:

  rule slot (11 bits): flag(1) kind(2) n(2) limit(6)
  operator slot (3 bits): kind(1, 0=AND 1=OR) priority(2)
  then rule slots 1..q, operator slots 1..q-1, an optional level bit
  (0 -> 1 level, 1 -> 2 levels) and optional 2 count bits (code u ->
  u+1 measurements per level).

Decoding is total: every bit pattern yields a valid procedure, possibly
the empty never-rejecting one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgumentError
from .rules import (
    MAX_RULES, Operator, OperatorKind, Procedure, Rule, RuleKind, check_shape, min_n,
)

RULE_BITS = 11
OP_BITS = 3

_KIND_ORDER = (RuleKind.SINGLE_VALUE, RuleKind.RANGE, RuleKind.MEAN, RuleKind.STD_DEV)
_KIND_CODE = {kind: code for code, kind in enumerate(_KIND_ORDER)}


@dataclass(frozen=True)
class GenomeLayout:
    q: int
    optimize_levels: bool = False
    optimize_per_level: bool = False
    fixed_levels: int = 2
    fixed_per_level: int = 1

    def __post_init__(self):
        if not 1 <= self.q <= MAX_RULES:
            raise InvalidArgumentError(f"q must be in [1, {MAX_RULES}], got {self.q}")
        check_shape(self.fixed_levels, self.fixed_per_level, ("fixed_levels", "fixed_per_level"))


@dataclass(frozen=True)
class Genome:
    bits: tuple
    layout: GenomeLayout

    def __post_init__(self):
        if len(self.bits) != genome_length(self.layout):
            raise InvalidArgumentError(
                f"genome length {len(self.bits)} does not match layout "
                f"length {genome_length(self.layout)}"
            )

    def to_hex(self) -> str:
        width = (len(self.bits) + 3) // 4
        return f"0x{_bits_to_int(self.bits):0{width}x}"


def genome_length(layout: GenomeLayout) -> int:
    length = RULE_BITS * layout.q + OP_BITS * (layout.q - 1)
    if layout.optimize_levels:
        length += 1
    if layout.optimize_per_level:
        length += 2
    return length


def _bits_to_int(bits) -> int:
    value = 0
    for bit in bits:
        value = value << 1 | bit
    return value


def _int_to_bits(value: int, width: int) -> tuple:
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def decode(genome: Genome) -> Procedure:
    """Translate a bit string into a Procedure: the enabled rule slots, and the
    operator slot before each after the first. Total on well-formed lengths."""
    layout = genome.layout
    bits = genome.bits
    q = layout.q
    op_base = RULE_BITS * q

    rules, operators = [], []
    for i in range(q):
        base = RULE_BITS * i
        if not bits[base]:
            continue
        if rules:
            # operator slot i-1 sits immediately before rule slot i
            op = op_base + OP_BITS * (i - 1)
            kind = OperatorKind.OR if bits[op] else OperatorKind.AND
            operators.append(Operator(kind, _bits_to_int(bits[op + 1 : op + 3])))
        kind = _KIND_ORDER[_bits_to_int(bits[base + 1 : base + 3])]
        n = max(min_n(kind), _bits_to_int(bits[base + 3 : base + 5]) + 1)
        rules.append(Rule(kind, n, round(0.1 * _bits_to_int(bits[base + 5 : base + 11]), 1)))

    tail = op_base + OP_BITS * (q - 1)
    if layout.optimize_levels:
        levels = 2 if bits[tail] else 1
        tail += 1
    else:
        levels = layout.fixed_levels
    if layout.optimize_per_level:
        per_level = _bits_to_int(bits[tail : tail + 2]) + 1
    else:
        per_level = layout.fixed_per_level

    return Procedure(tuple(rules), tuple(operators), levels, per_level)


def encode(procedure: Procedure, layout: GenomeLayout) -> Genome:
    """Inverse of decode, up to the code synonyms the decoder collapses."""
    if len(procedure.rules) > layout.q:
        raise InvalidArgumentError(
            f"procedure has {len(procedure.rules)} rules, layout allows {layout.q}"
        )
    bits = []
    for rule in procedure.rules:
        limit_code = round(rule.limit * 10)
        if not 0 <= limit_code <= 63 or round(0.1 * limit_code, 1) != rule.limit:
            raise InvalidArgumentError(
                f"limit {rule.limit} is not a multiple of 0.1 in [0, 6.3]"
            )
        bits.append(1)
        bits.extend(_int_to_bits(_KIND_CODE[rule.kind], 2))
        bits.extend(_int_to_bits(rule.n - 1, 2))
        bits.extend(_int_to_bits(limit_code, 6))
    for _ in range(layout.q - len(procedure.rules)):
        bits.extend([0] * RULE_BITS)
    for op in procedure.operators:
        bits.append(1 if op.kind is OperatorKind.OR else 0)
        bits.extend(_int_to_bits(op.priority, 2))
    for _ in range(layout.q - 1 - len(procedure.operators)):
        bits.extend([0] * OP_BITS)

    if layout.optimize_levels:
        levels = procedure.levels if procedure.levels is not None else layout.fixed_levels
        bits.append(levels - 1)
    elif procedure.levels is not None and procedure.levels != layout.fixed_levels:
        raise InvalidArgumentError(
            f"procedure levels {procedure.levels} conflict with fixed "
            f"layout levels {layout.fixed_levels}"
        )
    if layout.optimize_per_level:
        per_level = (
            procedure.per_level if procedure.per_level is not None else layout.fixed_per_level
        )
        bits.extend(_int_to_bits(per_level - 1, 2))
    elif procedure.per_level is not None and procedure.per_level != layout.fixed_per_level:
        raise InvalidArgumentError(
            f"procedure per_level {procedure.per_level} conflicts with fixed "
            f"layout per_level {layout.fixed_per_level}"
        )
    return Genome(tuple(bits), layout)


def hamming_distance(a: Genome, b: Genome) -> int:
    if len(a.bits) != len(b.bits):
        raise InvalidArgumentError(
            f"genome lengths differ: {len(a.bits)} vs {len(b.bits)}"
        )
    return sum(x != y for x, y in zip(a.bits, b.bits))
