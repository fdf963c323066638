"""Bit-string codec tests."""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from qcdesign.errors import InvalidArgumentError
from qcdesign.genome import (
    OP_BITS,
    RULE_BITS,
    Genome,
    GenomeLayout,
    decode,
    encode,
    from_bits,
    genome_length,
    hamming_distance,
)
from qcdesign.rules import (
    Operator,
    OperatorKind,
    Procedure,
    Rule,
    RuleKind,
    canonical_notation,
    min_n,
)

LAYOUT = GenomeLayout(q=3, optimize_levels=True)


def _genome(bits):
    return from_bits(bits, LAYOUT)


def _bits(genome):
    """A genome's bits in layout order, as a tuple of 0s and 1s."""
    return tuple(map(int, format(genome.bits, f"0{genome_length(genome.layout)}b")))


def test_published_length():
    # 11*3 + 3*2 + 1 level bit
    assert genome_length(LAYOUT) == 40
    assert genome_length(GenomeLayout(q=1)) == 11
    assert genome_length(GenomeLayout(q=4, optimize_levels=True, optimize_per_level=True)) == 56


def test_zero_genome_is_empty_procedure():
    proc = decode(_genome([0] * 40))
    assert proc.rules == ()
    assert proc.operators == ()
    assert proc.levels == 1  # level bit 0


def test_limit_grid():
    # flag=1, kind=00 (S), n=00 -> 1, limit=111111 -> 6.3
    bits = [1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1] + [0] * 29
    proc = decode(_genome(bits))
    assert proc.rules == (Rule(RuleKind.SINGLE_VALUE, 1, 6.3),)


def test_n_codes_respect_class_minimum():
    # Range rule with raw n code 0 decodes to n=2, not 1
    bits = [1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0] + [0] * 29
    proc = decode(_genome(bits))
    assert proc.rules == (Rule(RuleKind.RANGE, 2, 0.2),)


def test_operator_slot_connects_following_rule():
    proc = Procedure(
        (Rule(RuleKind.SINGLE_VALUE, 1, 2.7), Rule(RuleKind.MEAN, 2, 1.9)),
        (Operator(OperatorKind.OR, 0),),
        levels=2,
    )
    genome = encode(proc, LAYOUT)
    assert decode(genome) == Procedure(proc.rules, proc.operators, levels=2, per_level=1)


def test_encode_roundtrip_preserves_grouping():
    proc = Procedure(
        (Rule(RuleKind.SINGLE_VALUE, 1, 2.2), Rule(RuleKind.MEAN, 2, 1.9)),
        (Operator(OperatorKind.AND, 3),),
        levels=2,
    )
    decoded = decode(encode(proc, LAYOUT))
    assert canonical_notation(decoded) == canonical_notation(proc)


def test_empty_procedure_encodes_to_zero_flags():
    genome = encode(Procedure(), LAYOUT)
    for slot in range(3):
        assert _bits(genome)[11 * slot] == 0


def test_encode_validation():
    with pytest.raises(InvalidArgumentError):
        encode(Procedure((Rule(RuleKind.SINGLE_VALUE, 1, 1.0),) * 4, (Operator(OperatorKind.OR, 0),) * 3), LAYOUT)
    with pytest.raises(InvalidArgumentError):
        # 1.95 is off the 0.1 grid
        encode(Procedure((Rule(RuleKind.SINGLE_VALUE, 1, 1.95),), ()), LAYOUT)
    with pytest.raises(InvalidArgumentError):
        # within 1e-9 of code 24, but not the 2.4 that code decodes to
        encode(Procedure((Rule(RuleKind.SINGLE_VALUE, 1, 2.40000000001),), ()), LAYOUT)
    with pytest.raises(InvalidArgumentError):
        encode(Procedure((), (), levels=1), GenomeLayout(q=2, fixed_levels=2))
    with pytest.raises(InvalidArgumentError):
        encode(Procedure((), (), per_level=2), GenomeLayout(q=2, fixed_per_level=1))


def test_genome_validation_and_hex():
    with pytest.raises(InvalidArgumentError):
        Genome((0, 1), LAYOUT)
    genome = _genome([0] * 39 + [1])
    assert genome.to_hex() == "0x0000000001"


def test_hamming_distance():
    g = _genome([0] * 40)
    assert hamming_distance(g, g) == 0
    assert hamming_distance(g, _genome([1] * 40)) == 40
    assert hamming_distance(g, _genome([0] * 39 + [1])) == 1
    with pytest.raises(InvalidArgumentError):
        hamming_distance(g, from_bits((0,) * 11, GenomeLayout(q=1)))


def test_genome_is_an_int_of_the_layout_length():
    length = genome_length(LAYOUT)
    for bits in (tuple([0] * length), (1, 2, 2) + (0,) * 37, -1, 1 << length, True, 1.0, "0"):
        with pytest.raises(InvalidArgumentError):
            Genome(bits, LAYOUT)
    assert Genome((1 << length) - 1, LAYOUT).to_hex() == "0xffffffffff"
    # the builder refuses what an int genome cannot hold
    for bits in ((1, 2, 2) + (0,) * 37, (0,) * (length - 1), (0,) * (length + 1)):
        with pytest.raises(InvalidArgumentError):
            from_bits(bits, LAYOUT)


# ------------------------------------------------------ property tests

_bits_strategy = st.lists(
    st.integers(min_value=0, max_value=1), min_size=40, max_size=40
).map(lambda bits: from_bits(bits, LAYOUT))


@given(_bits_strategy)
def test_decode_is_total(genome):
    proc = decode(genome)
    assert len(proc.operators) == max(len(proc.rules) - 1, 0)
    assert proc.levels in (1, 2)


_rule_strategy = st.builds(
    lambda kind, n_extra, tenth: Rule(
        kind, min(min_n(kind) + n_extra, 4), round(0.1 * tenth, 1)
    ),
    st.sampled_from(list(RuleKind)),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=63),
)


@st.composite
def _valid_procedures(draw):
    rules = draw(st.lists(_rule_strategy, min_size=0, max_size=3))
    ops = tuple(
        draw(
            st.builds(
                Operator,
                st.sampled_from(list(OperatorKind)),
                st.integers(min_value=0, max_value=3),
            )
        )
        for _ in rules[1:]
    )
    levels = draw(st.sampled_from([None, 1, 2]))
    return Procedure(tuple(rules), ops, levels=levels)


@given(_valid_procedures())
def test_encode_decode_encode_idempotent(procedure):
    first = encode(procedure, LAYOUT)
    again = encode(decode(first), LAYOUT)
    assert first == again


@st.composite
def _genomes_and_ignored_bits(draw):
    """A genome of any layout, and the indices of the bits decode ignores:
    every field of a disabled rule slot, and every operator slot that is
    not just before an enabled rule slot after the first enabled one."""
    layout = GenomeLayout(
        q=draw(st.integers(1, 5)),
        optimize_levels=draw(st.booleans()),
        optimize_per_level=draw(st.booleans()),
        fixed_levels=draw(st.sampled_from([1, 2])),
        fixed_per_level=draw(st.integers(1, 4)),
    )
    bits = draw(st.lists(st.integers(0, 1), min_size=genome_length(layout),
                         max_size=genome_length(layout)))
    q = layout.q
    flags = [bits[RULE_BITS * i] for i in range(q)]
    ignored = [
        RULE_BITS * i + field
        for i in range(q) if not flags[i] for field in range(1, RULE_BITS)
    ]
    for j in range(q - 1):  # operator slot j sits before rule slot j + 1
        if not (flags[j + 1] and any(flags[: j + 1])):
            start = RULE_BITS * q + OP_BITS * j
            ignored += range(start, start + OP_BITS)
    return from_bits(bits, layout), ignored


@given(_genomes_and_ignored_bits(), st.data())
def test_decode_ignores_disabled_slots(case, data):
    genome, ignored = case
    assume(ignored)
    flips = data.draw(st.sets(st.sampled_from(ignored), min_size=1))
    bits = tuple(bit ^ (i in flips) for i, bit in enumerate(_bits(genome)))
    assert decode(from_bits(bits, genome.layout)) == decode(genome)


# ------------------------------------- the tuple codec as the reference

# A genome was a tuple of bits until it became one int. The tuple codec,
# kept here as it was, is the reference for the shift-and-mask codec.

_KINDS = (RuleKind.SINGLE_VALUE, RuleKind.RANGE, RuleKind.MEAN, RuleKind.STD_DEV)


def _tuple_int(bits):
    value = 0
    for bit in bits:
        value = value << 1 | bit
    return value


def _int_tuple(value, width):
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def _tuple_decode(bits, layout):
    q = layout.q
    op_base = RULE_BITS * q
    rules, operators = [], []
    for i in range(q):
        base = RULE_BITS * i
        if not bits[base]:
            continue
        if rules:
            op = op_base + OP_BITS * (i - 1)
            kind = OperatorKind.OR if bits[op] else OperatorKind.AND
            operators.append(Operator(kind, _tuple_int(bits[op + 1 : op + 3])))
        kind = _KINDS[_tuple_int(bits[base + 1 : base + 3])]
        n = max(min_n(kind), _tuple_int(bits[base + 3 : base + 5]) + 1)
        rules.append(Rule(kind, n, round(0.1 * _tuple_int(bits[base + 5 : base + 11]), 1)))
    tail = op_base + OP_BITS * (q - 1)
    if layout.optimize_levels:
        levels = 2 if bits[tail] else 1
        tail += 1
    else:
        levels = layout.fixed_levels
    if layout.optimize_per_level:
        per_level = _tuple_int(bits[tail : tail + 2]) + 1
    else:
        per_level = layout.fixed_per_level
    return Procedure(tuple(rules), tuple(operators), levels, per_level)


def _tuple_encode(procedure, layout):
    bits = []
    for rule in procedure.rules:
        bits += (1, *_int_tuple(_KINDS.index(rule.kind), 2), *_int_tuple(rule.n - 1, 2))
        bits += _int_tuple(round(rule.limit * 10), 6)
    bits += [0] * (RULE_BITS * (layout.q - len(procedure.rules)))
    for op in procedure.operators:
        bits += (1 if op.kind is OperatorKind.OR else 0, *_int_tuple(op.priority, 2))
    bits += [0] * (OP_BITS * (layout.q - 1 - len(procedure.operators)))
    if layout.optimize_levels:
        levels = procedure.levels if procedure.levels is not None else layout.fixed_levels
        bits.append(levels - 1)
    if layout.optimize_per_level:
        per_level = (
            procedure.per_level if procedure.per_level is not None else layout.fixed_per_level
        )
        bits += _int_tuple(per_level - 1, 2)
    return tuple(bits)


@st.composite
def _layouts_and_two_bit_lists(draw):
    layout = GenomeLayout(
        q=draw(st.integers(1, 8)),
        optimize_levels=draw(st.booleans()),
        optimize_per_level=draw(st.booleans()),
    )
    length = genome_length(layout)
    bit_lists = st.lists(st.integers(0, 1), min_size=length, max_size=length)
    return layout, draw(bit_lists), draw(bit_lists)


@settings(max_examples=300)
@given(_layouts_and_two_bit_lists())
def test_int_codec_equals_the_tuple_codec(case):
    layout, bits, other = case
    genome = from_bits(bits, layout)
    assert _bits(genome) == tuple(bits)
    assert decode(genome) == _tuple_decode(bits, layout)
    assert genome.to_hex() == f"0x{_tuple_int(bits):0{(len(bits) + 3) // 4}x}"
    assert hamming_distance(genome, from_bits(other, layout)) == sum(
        x != y for x, y in zip(bits, other)
    )


@given(_valid_procedures(), st.booleans(), st.sampled_from([None, 1, 2, 3, 4]))
def test_encode_equals_the_tuple_encoder(procedure, per_level_bits, per_level):
    layout = GenomeLayout(q=3, optimize_levels=True, optimize_per_level=per_level_bits)
    procedure = replace(procedure, per_level=per_level if per_level_bits else None)
    assert _bits(encode(procedure, layout)) == _tuple_encode(procedure, layout)
