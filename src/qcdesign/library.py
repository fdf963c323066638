"""Procedure notation parsing and the built-in reference library.

Two grammars are accepted:

  canonical   expr := term (op term)* ; term := RULE | '(' expr ')'
              RULE := ('S'|'R'|'M'|'D') '(' int ',' decimal ')'
              op := 'AND' | 'OR'          (equal precedence, left-assoc)

  Westgard    term ('/' term)* with terms  n_ks  or  R_ks ; '/' means OR.
              1_ks -> S(1,k), n_ks -> S(n,k), R_ks -> R(2,k).

Canonical text parses straight to the rule/operator sequence, each
operator's priority counting the right operands on its path from the
root, so ``rules.build_expr`` reads back the same grouping. Westgard
counting terms here are the paper's absolute-value generic forms, not
the classical same-side-of-mean variants; 10_x has no generic
equivalent and is rejected.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ProcedureParseError
from .rules import MAX_RULES, Operator, OperatorKind, Procedure, Rule, RuleKind

_WESTGARD_TERM = re.compile(r"^(?:(\d+)|R)_(\d+(?:\.\d+)?)s$")
_KIND_BY_LETTER = {k.value: k for k in RuleKind}


@dataclass(frozen=True)
class LibraryEntry:
    name: str
    procedure: Procedure
    source: str  # "builtin" or "user_file"
    note: str = ""


def parse_procedure(text: str) -> Procedure:
    """Parse canonical or Westgard notation into a Procedure."""
    stripped = text.strip()
    if not stripped:
        raise ProcedureParseError("empty procedure text")
    if stripped.upper() == "NONE":
        return Procedure()
    if _looks_westgard(stripped):
        return _parse_westgard(stripped, text)
    return _parse_canonical(text)


def _looks_westgard(text: str) -> bool:
    return all(_WESTGARD_TERM.match(part.strip()) for part in text.split("/"))


def _check_rule_count(count: int) -> None:
    if count > MAX_RULES:
        raise ProcedureParseError(f"a procedure holds at most {MAX_RULES} rules, got {count}")


def _parse_westgard(stripped: str, original: str) -> Procedure:
    _check_rule_count(stripped.count("/") + 1)
    rules = []
    for part in stripped.split("/"):
        term = part.strip()
        match = _WESTGARD_TERM.match(term)
        count, limit = match.groups()
        position = original.find(term)
        if count is None:
            rule = _make_rule(RuleKind.RANGE, "2", limit, term, position)
        else:
            rule = _make_rule(RuleKind.SINGLE_VALUE, count, limit, term, position)
        rules.append(rule)
    operators = tuple(Operator(OperatorKind.OR, 0) for _ in rules[1:])
    return Procedure(tuple(rules), operators)


def _make_rule(kind, n: str, limit: str, term, position) -> Rule:
    """The rule that digit strings ``n`` and ``limit`` spell."""
    limit = float(limit)
    # Limits are tenths of an SD: the genome encodes nothing finer, and
    # notation renders one decimal. A limit too large for a float is left
    # to the bounds check.
    tenths = limit * 10
    if math.isfinite(tenths) and abs(tenths - round(tenths)) > 1e-9:
        raise ProcedureParseError(
            f"term {term!r}: decision limits take at most one decimal", position
        )
    try:  # int() also refuses more digits than sys.get_int_max_str_digits()
        return Rule(kind, int(n), limit)
    except ValueError as exc:
        raise ProcedureParseError(
            f"term {term!r} is outside the generic-rule bounds: {exc}", position
        ) from exc


_TOKEN = re.compile(r"\s*(AND\b|OR\b|[SRMD]\(|\(|\)|$)")


def _parse_canonical(text: str) -> Procedure:
    """A chain's operators take its priority; its first operand keeps it
    and every later operand binds one tighter."""
    tokens = _tokenize(text)
    _check_rule_count(sum(kind == "rule" for kind, _, _ in tokens))
    rules, operators = [], []
    pos = 0

    def advance():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def parse_term(priority):
        kind, value, offset = advance()
        if kind == "rule":
            rules.append(value)
        elif kind == "lparen":
            parse_expr(priority)
            kind, _, offset = advance()
            if kind != "rparen":
                raise ProcedureParseError("expected ')'", offset)
        else:
            raise ProcedureParseError("expected a rule or '('", offset)

    def parse_expr(priority):
        parse_term(priority)
        while tokens[pos][0] == "op":
            operators.append((advance()[1], priority))
            parse_term(priority + 1)

    try:
        parse_expr(0)
    except RecursionError:  # each parenthesis nests a call
        raise ProcedureParseError("expression nested too deeply to parse") from None
    kind, _, offset = tokens[pos]
    if kind != "end":
        raise ProcedureParseError("unexpected trailing input", offset)
    if any(priority > 3 for _, priority in operators):
        raise ProcedureParseError("nesting too deep: operator priorities only span 0..3")
    return Procedure(tuple(rules), tuple(Operator(*op) for op in operators))


_RULE_BODY = re.compile(r"\s*(\d+)\s*,\s*(\d+(?:\.\d+)?)\s*\)")


def _tokenize(text: str):
    tokens = []
    i = 0
    while i <= len(text):
        match = _TOKEN.match(text, i)
        if match is None:
            raise ProcedureParseError("unrecognized token", i)
        tok = match.group(1)
        start = match.start(1)
        if tok == "":
            tokens.append(("end", None, len(text)))
            break
        if tok in ("AND", "OR"):
            tokens.append(("op", OperatorKind[tok], start))
        elif tok == "(":
            tokens.append(("lparen", None, start))
        elif tok == ")":
            tokens.append(("rparen", None, start))
        else:  # rule head like "S("
            body = _RULE_BODY.match(text, match.end(1))
            if body is None:
                raise ProcedureParseError(
                    f"malformed rule after {tok!r}", start
                )
            rule = _make_rule(
                _KIND_BY_LETTER[tok[0]], *body.groups(), text[start : body.end()], start
            )
            tokens.append(("rule", rule, start))
            i = body.end()
            continue
        i = match.end(1)
    return tokens


def builtin_library() -> list:
    """Reconstructable subset of the reference comparison library."""
    entries = []
    sweep_note = "single-value sweep 1_vs, v = 2.0 + 0.1k"
    for k in range(21):
        name = f"1_{2.0 + 0.1 * k:.1f}s"
        entries.append(
            LibraryEntry(name, parse_procedure(name), "builtin", sweep_note)
        )
    combos = [
        ("1_3.0s/2_2.0s/R_4.0s", "classic multirule combination"),
        ("1_2.5s/2_2.0s", "reference combination"),
        ("1_2.5s/2_2.0s/R_4s", "reference combination"),
        ("1_2.5s/2_2.0s/4_1s", "reference combination"),
        ("1_2.5s/2_2.0s/R_4s/4_1s", "reference combination"),
        (
            "1_3.0s/2_2.0s/R_4.0s/4_1.0s",
            "Westgard multirule without its 10_x term; counting rules beyond "
            "4 consecutive values are not expressible in the generic classes",
        ),
    ]
    for name, note in combos:
        entries.append(LibraryEntry(name, parse_procedure(name), "builtin", note))
    return entries


def load_library_file(path) -> list:
    """Load `name = notation` lines; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ProcedureParseError(f"{path}: not UTF-8 text: {exc}") from exc
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProcedureParseError(
                f"{path}:{lineno}: expected 'name = notation'"
            )
        name, notation = (part.strip() for part in line.split("=", 1))
        try:
            procedure = parse_procedure(notation)
        except ProcedureParseError as exc:
            raise ProcedureParseError(f"{path}:{lineno}: {exc}") from exc
        entries.append(LibraryEntry(name, procedure, "user_file"))
    return entries
