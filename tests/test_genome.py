"""Bit-string codec tests."""

import pytest
from hypothesis import assume, given, strategies as st

from qcdesign.errors import InvalidArgumentError
from qcdesign.genome import (
    OP_BITS,
    RULE_BITS,
    Genome,
    GenomeLayout,
    decode,
    encode,
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
    return Genome(tuple(bits), LAYOUT)


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
        assert genome.bits[11 * slot] == 0


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
        hamming_distance(g, Genome((0,) * 11, GenomeLayout(q=1)))


# ------------------------------------------------------ property tests

_bits_strategy = st.lists(
    st.integers(min_value=0, max_value=1), min_size=40, max_size=40
).map(lambda bits: Genome(tuple(bits), LAYOUT))


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
    return Genome(tuple(bits), layout), ignored


@given(_genomes_and_ignored_bits(), st.data())
def test_decode_ignores_disabled_slots(case, data):
    genome, ignored = case
    assume(ignored)
    flips = data.draw(st.sets(st.sampled_from(ignored), min_size=1))
    bits = tuple(bit ^ (i in flips) for i, bit in enumerate(genome.bits))
    assert decode(Genome(bits, genome.layout)) == decode(genome)
