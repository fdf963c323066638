"""Procedure notation parsing and the built-in reference library.

Two grammars are accepted:

  canonical   expr := term (op term)* ; term := RULE | '(' expr ')'
              RULE := ('S'|'R'|'M'|'D') '(' int ',' decimal ')'
              op := 'AND' | 'OR'          (equal precedence, left-assoc)

  Westgard    term ('/' term)* with terms  n_ks  or  R_ks ; '/' means OR.
              1_ks -> S(1,k), n_ks -> S(n,k), R_ks -> R(2,k).

Canonical text parses in one loop, without recursion, straight to the
rule/operator sequence, each operator's priority counting the right
operands on its path from the root, so ``rules.build_expr`` reads back the
same grouping; at most ``MAX_NESTING`` parentheses nest. Westgard
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
        kind = RuleKind.RANGE if count is None else RuleKind.SINGLE_VALUE
        rules.append(_make_rule(kind, count or "2", limit, term, original.find(term)))
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
MAX_NESTING = 256  # most parentheses open at once in canonical text


def _parse_canonical(text: str) -> Procedure:
    """A chain's operators take its priority; its first operand keeps it
    and every later operand binds one tighter. ``outer`` holds, for each
    open '(', the priority of the chain outside it."""
    tokens = _tokenize(text)
    _check_rule_count(sum(kind == "rule" for kind, _, _ in tokens))
    rules, operators, outer = [], [], []
    chain = operand = 0
    tokens = iter(tokens)
    for kind, value, offset in tokens:  # left only by the break or an error
        if kind == "(":
            if len(outer) == MAX_NESTING:
                raise ProcedureParseError("expression nested too deeply to parse: "
                                          f"at most {MAX_NESTING} nested parentheses", offset)
            outer.append(chain)
            chain = operand
            continue
        if kind != "rule":
            raise ProcedureParseError("expected a rule or '('", offset)
        rules.append(value)
        kind, value, offset = next(tokens)
        while kind == ")" and outer:
            chain = outer.pop()
            kind, value, offset = next(tokens)
        if kind != "op":
            break
        operators.append((value, chain))
        operand = chain + 1
    if outer:
        raise ProcedureParseError("expected ')'", offset)
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
        elif tok in "()":
            tokens.append((tok, None, start))
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
