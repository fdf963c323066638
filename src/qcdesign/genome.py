"""Fixed-width bit-string encoding of QC procedures.

A genome is one int whose most significant bit is the layout's first.
Only this module reads the layout, most-significant bit first in a field:

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
    bits: int
    layout: GenomeLayout

    def __post_init__(self):
        length = genome_length(self.layout)
        if type(self.bits) is not int or not 0 <= self.bits < 1 << length:  # type(): no bool
            raise InvalidArgumentError(f"genome bits must be an int in [0, 2**{length})")

    def to_hex(self) -> str:
        return f"0x{self.bits:0{(genome_length(self.layout) + 3) // 4}x}"


def genome_length(layout: GenomeLayout) -> int:
    length = RULE_BITS * layout.q + OP_BITS * (layout.q - 1)
    if layout.optimize_levels:
        length += 1
    if layout.optimize_per_level:
        length += 2
    return length


def _read(bits: int, length: int, start: int, width: int) -> int:
    """The ``width``-bit field at layout position ``start`` of ``length`` bits."""
    return bits >> (length - start - width) & ((1 << width) - 1)


def _append(bits: int, *fields) -> int:
    """``bits`` followed by each (width, value) field in turn."""
    for width, value in fields:
        bits = bits << width | value
    return bits


def from_bits(bits, layout: GenomeLayout) -> Genome:
    """The genome whose bits, in layout order, are ``bits``: 0s and 1s (or bools)."""
    bits = tuple(bits)
    if len(bits) != genome_length(layout) or not set(bits) <= {0, 1}:
        raise InvalidArgumentError(f"{genome_length(layout)} bits of 0 or 1 expected, got {bits}")
    return Genome(_append(0, *((1, bit) for bit in bits)), layout)


def decode(genome: Genome) -> Procedure:
    """Translate a bit string into a Procedure: the enabled rule slots, and the
    operator slot before each after the first. Total on well-formed lengths."""
    layout = genome.layout
    bits = genome.bits
    length = genome_length(layout)
    q = layout.q
    op_base = RULE_BITS * q

    rules, operators = [], []
    for i in range(q):
        base = RULE_BITS * i
        if not _read(bits, length, base, 1):
            continue
        if rules:
            # operator slot i-1 sits immediately before rule slot i
            op = op_base + OP_BITS * (i - 1)
            kind = OperatorKind.OR if _read(bits, length, op, 1) else OperatorKind.AND
            operators.append(Operator(kind, _read(bits, length, op + 1, 2)))
        kind = _KIND_ORDER[_read(bits, length, base + 1, 2)]
        n = max(min_n(kind), _read(bits, length, base + 3, 2) + 1)
        rules.append(Rule(kind, n, round(0.1 * _read(bits, length, base + 5, 6), 1)))

    tail = op_base + OP_BITS * (q - 1)
    levels, per_level = layout.fixed_levels, layout.fixed_per_level
    if layout.optimize_levels:
        levels = _read(bits, length, tail, 1) + 1
        tail += 1
    if layout.optimize_per_level:
        per_level = _read(bits, length, tail, 2) + 1

    return Procedure(tuple(rules), tuple(operators), levels, per_level)


def encode(procedure: Procedure, layout: GenomeLayout) -> Genome:
    """Inverse of decode, up to the code synonyms the decoder collapses."""
    if len(procedure.rules) > layout.q:
        raise InvalidArgumentError(
            f"procedure has {len(procedure.rules)} rules, layout allows {layout.q}"
        )
    bits = 0
    for rule in procedure.rules:
        limit_code = round(rule.limit * 10)
        if not 0 <= limit_code <= 63 or round(0.1 * limit_code, 1) != rule.limit:
            raise InvalidArgumentError(
                f"limit {rule.limit} is not a multiple of 0.1 in [0, 6.3]"
            )
        bits = _append(bits, (1, 1), (2, _KIND_CODE[rule.kind]), (2, rule.n - 1), (6, limit_code))
    bits = _append(bits, (RULE_BITS * (layout.q - len(procedure.rules)), 0))
    for op in procedure.operators:
        bits = _append(bits, (1, 1 if op.kind is OperatorKind.OR else 0), (2, op.priority))
    bits = _append(bits, (OP_BITS * (layout.q - 1 - len(procedure.operators)), 0))
    # The shape fields: code u is u + 1 levels or measurements per level.
    for name, width in (("levels", 1), ("per_level", 2)):
        value, fixed = getattr(procedure, name), getattr(layout, f"fixed_{name}")
        if getattr(layout, f"optimize_{name}"):
            bits = _append(bits, (width, (fixed if value is None else value) - 1))
        elif value is not None and value != fixed:
            raise InvalidArgumentError(
                f"procedure {name} {value} conflicts with fixed layout {name} {fixed}"
            )
    return Genome(bits, layout)


def hamming_distance(a: Genome, b: Genome) -> int:
    length_a, length_b = genome_length(a.layout), genome_length(b.layout)
    if length_a != length_b:
        raise InvalidArgumentError(f"genome lengths differ: {length_a} vs {length_b}")
    return (a.bits ^ b.bits).bit_count()


def crossover(a: Genome, b: Genome, uniforms) -> tuple:
    """``a`` and ``b`` with the bits between two cuts swapped: cut i at
    layout position 1 + int(uniform i * (length - 1)), and by default a
    second cut at the end."""
    length = genome_length(a.layout)
    lo, hi = sorted([1 + int(u * (length - 1)) for u in uniforms] + [length])[:2]
    swap = (a.bits ^ b.bits) & ((1 << (hi - lo)) - 1) << (length - hi)
    return Genome(a.bits ^ swap, a.layout), Genome(b.bits ^ swap, a.layout)


def mutate(genome: Genome, uniforms, rate: float) -> Genome:
    """``genome`` with bit i flipped where uniform i is below ``rate``."""
    flips = from_bits([u < rate for u in uniforms], genome.layout).bits
    return Genome(genome.bits ^ flips, genome.layout) if flips else genome
