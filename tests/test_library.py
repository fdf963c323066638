"""Notation parsing and the built-in reference library."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from qcdesign.errors import ProcedureParseError
from qcdesign.genome import GenomeLayout, decode, from_bits, genome_length
from qcdesign.library import (
    MAX_NESTING,
    builtin_library,
    load_library_file,
    parse_procedure,
)
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
)

S, R, M = RuleKind.SINGLE_VALUE, RuleKind.RANGE, RuleKind.MEAN


def test_parse_westgard_single():
    assert parse_procedure("1_2.4s") == Procedure((Rule(S, 1, 2.4),), ())


def test_parse_westgard_multirule():
    proc = parse_procedure("1_2.5s/2_2.0s/R_4s")
    assert proc.rules == (Rule(S, 1, 2.5), Rule(S, 2, 2.0), Rule(R, 2, 4.0))
    assert all(op == Operator(OperatorKind.OR, 0) for op in proc.operators)


def test_parse_canonical_flat():
    proc = parse_procedure("S(1,2.7) OR M(2,1.9)")
    assert proc.rules == (Rule(S, 1, 2.7), Rule(M, 2, 1.9))
    assert canonical_notation(proc) == "S(1,2.7) OR M(2,1.9)"


def test_parse_canonical_grouped():
    text = "S(1,1.9) AND (R(4,4.2) OR M(2,1.9))"
    assert canonical_notation(parse_procedure(text)) == text
    text = "(S(1,2.2) AND M(2,1.9)) OR R(4,4.3)"
    assert canonical_notation(parse_procedure(text)) == text


def test_parse_none():
    assert parse_procedure("NONE") == Procedure()
    assert parse_procedure("none") == Procedure()


@pytest.mark.parametrize(
    "text",
    [
        "",
        "S(1,2.7) OR",
        "S(1,2.7) M(2,1.9)",
        "S(1)",
        "Q(1,2.0)",
        "(S(1,2.0)",
        "S(1,2.0))",
        "10_3.0s",  # counting rules beyond n=4 have no generic form
        "1_9.9s",  # limit above the 6.3 grid maximum
        "S(1,\u0662.\u0660)",  # digits are ASCII only: not Arabic-Indic,
        "1_\uff12.0s",  # not fullwidth,
        "S(1,\uff12.\uff10\uff10)",  # which the one-decimal check misread
        "S(1,2.0) AND (S(1,2.1) AND (S(1,2.2) AND (S(1,2.3) AND "
        "(S(1,2.4) AND S(1,2.5)))))",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ProcedureParseError):
        parse_procedure(text)


def test_parse_error_reports_position():
    with pytest.raises(ProcedureParseError) as excinfo:
        parse_procedure("S(1,2.7) OR ???")
    assert excinfo.value.position == 11
    assert "position 11" in str(excinfo.value)


def _nested(depth):
    return "(" * depth + "S(1,2.0)" + ")" * depth


def _outcome(text):
    try:
        return parse_procedure(text)
    except ProcedureParseError as exc:
        return str(exc)


def _near_the_recursion_limit(fn):
    """``fn()`` called about 100 frames below ``sys.getrecursionlimit()``."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1

    def down(frames):
        return fn() if frames <= 0 else down(frames - 1)

    return down(sys.getrecursionlimit() - 100 - depth)


def test_nesting_bound_is_256_parentheses():
    assert parse_procedure(_nested(MAX_NESTING)).rules == (Rule(RuleKind.SINGLE_VALUE, 1, 2.0),)
    with pytest.raises(ProcedureParseError, match="at most 256 nested parentheses") as excinfo:
        parse_procedure(_nested(MAX_NESTING + 1))
    assert excinfo.value.position == MAX_NESTING


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1])
def test_nesting_bound_does_not_depend_on_the_caller(depth):
    text = _nested(depth)
    assert _near_the_recursion_limit(lambda: _outcome(text)) == _outcome(text)


def test_parse_assigns_depth_priorities():
    proc = parse_procedure("S(1,1.0) OR (S(1,2.0) AND S(1,3.0))")
    assert [op.priority for op in proc.operators] == [0, 1]
    assert canonical_notation(proc) == "S(1,1.0) OR (S(1,2.0) AND S(1,3.0))"


def test_builtin_library_contents():
    entries = builtin_library()
    names = [entry.name for entry in entries]
    assert names[0] == "1_2.0s"
    assert "1_4.0s" in names
    assert "1_2.5s/2_2.0s/4_1s" in names
    assert "1_3.0s/2_2.0s/R_4.0s" in names
    assert len(names) == len(set(names))
    assert all(entry.source == "builtin" for entry in entries)
    # the sweep is 21 single-value rules at 0.1 spacing
    sweep = [n for n in names if "/" not in n]
    assert len(sweep) == 21


def test_load_library_file(tmp_path):
    path = tmp_path / "extra.txt"
    path.write_text(
        "# comment line\n"
        "mean pair = M(2,1.9)   # trailing comment\n"
        "\n"
        "classic = 1_3.0s/2_2.0s\n"
    )
    entries = load_library_file(path)
    assert [e.name for e in entries] == ["mean pair", "classic"]
    assert entries[0].procedure == Procedure((Rule(M, 2, 1.9),), ())
    assert entries[0].source == "user_file"


def test_load_library_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("no equals sign here\n")
    with pytest.raises(ProcedureParseError) as excinfo:
        load_library_file(path)
    assert "1" in str(excinfo.value)
    path.write_text("name = Q(1,2.0)\n")
    with pytest.raises(ProcedureParseError):
        load_library_file(path)
    path.write_text(" = 1_2.0s\n")
    with pytest.raises(ProcedureParseError, match="expected 'name = notation'"):
        load_library_file(path)


def test_westgard_and_canonical_agree():
    assert parse_procedure("1_2.5s") == parse_procedure("S(1,2.5)")
    assert parse_procedure("R_4s") == parse_procedure("R(2,4.0)")


def _truth_table(procedure):
    """Verdict for every assignment of truth values to the distinct rules."""
    atoms = {rule: i for i, rule in enumerate(dict.fromkeys(procedure.rules))}
    tree = build_expr(procedure)

    def holds(node, row):
        if node is None:
            return False
        if isinstance(node, Leaf):
            return bool(row >> atoms[node.rule] & 1)
        if node.op is OperatorKind.AND:
            return holds(node.left, row) and holds(node.right, row)
        return holds(node.left, row) or holds(node.right, row)

    return [holds(tree, row) for row in range(2 ** len(atoms))]


@st.composite
def _decoded_procedures(draw):
    layout = GenomeLayout(
        q=draw(st.integers(1, 8)),
        optimize_levels=draw(st.booleans()),
        optimize_per_level=draw(st.booleans()),
    )
    length = genome_length(layout)
    bits = draw(st.lists(st.integers(0, 1), min_size=length, max_size=length))
    return decode(from_bits(bits, layout))


@settings(max_examples=300, deadline=None)
@given(_decoded_procedures())
def test_canonical_notation_round_trips(procedure):
    text = canonical_notation(procedure)
    parsed = parse_procedure(text)
    assert parsed.rules == procedure.rules
    assert _truth_table(parsed) == _truth_table(procedure)
    assert canonical_notation(parsed) == text


def test_long_same_operator_chain_round_trips():
    procedure = parse_procedure("1_2.0s/1_2.1s/1_2.2s/1_2.3s/1_2.4s/1_2.5s")
    text = canonical_notation(procedure)
    assert canonical_notation(parse_procedure(text)) == text


def test_right_grouping_is_kept_exactly():
    text = "S(1,2.0) OR ((S(1,2.1) AND S(1,2.2)) OR S(1,2.3))"
    a, b, c, d = (Leaf(Rule(S, 1, limit)) for limit in (2.0, 2.1, 2.2, 2.3))
    OR, AND = OperatorKind.OR, OperatorKind.AND
    assert build_expr(parse_procedure(text)) == Node(OR, a, Node(OR, Node(AND, b, c), d))


@pytest.mark.parametrize("text", [
    "S(1,2.45)", "1_2.45s", "M(2,1.95) OR S(1,3.0)", "S(1,2.40000000001)", "1_2.40000000001s",
])
def test_limits_finer_than_a_tenth_rejected(text):
    with pytest.raises(ProcedureParseError, match="at most one decimal"):
        parse_procedure(text)


def test_trailing_zero_limit_accepted():
    assert parse_procedure("S(1,2.50)") == parse_procedure("S(1,2.5)")


# Pieces of the notation, plus digit runs long enough to overflow a float
# (over 308 digits) or int() (over 4300), and deep runs of '('.
_NOTATION_PIECES = st.one_of(
    st.sampled_from(["S(", "R(", "M(", "D(", "(", ")", ",", ".", " AND ", " OR ", "1_",
                     "R_", "s", "/", " ", "NONE", "x"]),
    st.text("0123456789", min_size=1, max_size=4),
    st.builds(str.__mul__, st.sampled_from("0159"), st.integers(300, 5000)),
    st.integers(1, 3000).map(lambda depth: "(" * depth),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_NOTATION_PIECES, max_size=12).map("".join))
def test_parse_procedure_returns_or_raises_parse_error(text):
    try:
        assert isinstance(parse_procedure(text), Procedure)
    except ProcedureParseError:
        pass


@st.composite
def _rendered_trees(draw):
    """A tree with at most 3 nested right operands, so that its operators
    need priorities 0..3, and its text: every right operand that is a node
    in parentheses, plus redundant ones around random operands. Leaf i is
    S(1, i/10), so no two leaves are equal."""
    leaves = iter(range(64))

    def tree(levels, depth):
        if levels == 0 or depth == 5 or draw(st.integers(0, 3)) == 0:
            return Leaf(Rule(S, 1, next(leaves) / 10))
        left = tree(levels, depth + 1)
        return Node(draw(st.sampled_from(OperatorKind)), left, tree(levels - 1, depth + 1))

    def render(node):
        if isinstance(node, Leaf):
            text = str(node.rule)
        else:
            right = render(node.right)
            if isinstance(node.right, Node):
                right = f"({right})"
            text = f"{render(node.left)} {node.op.value} {right}"
        depth = draw(st.sampled_from([0, 0, 0, 1, 2]))
        return "(" * depth + text + ")" * depth

    root = tree(4, 0)
    return root, render(root)


@settings(max_examples=300, deadline=None)
@given(_rendered_trees())
def test_parse_keeps_the_grouping_of_up_to_four_priorities(case):
    tree, text = case
    assert build_expr(parse_procedure(text)) == tree
    # The same text as a 4th nested right operand needs priority 4.
    deeper = "S(1,2.0) OR (" * 4 + f"{text} AND S(1,2.0)" + ")" * 4
    with pytest.raises(ProcedureParseError, match="nesting too deep"):
        parse_procedure(deeper)
