"""Formula alignment, balanced splitting and step merging.

One grammar covers formula text:

    Expr    := Operand (('+' | '-' | '*' | '/') Operand)*
    Operand := Number | Identifier | '@' | '(' Expr ')' | '-' Operand

over text that may carry currency symbols and thousands separators
(stripped while tokenizing). Precedence does not change which strings
are formulas, so one pass over the tokens, alternating between
expecting an operand and expecting an operator and counting open
parentheses, checks a formula at any depth without building a tree.
Alignment replaces every number and identifier with the placeholder '@'
in that pass, so only operator structure remains, and an aligned
formula splits at its most balanced top-level operator. The chain
scanner, which finds formulas in prose, stops at MAX_NESTING levels of
parentheses and unary minus.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import DegenerateInput, MergeError, ParseError

log = logging.getLogger(__name__)

# levels of parentheses and unary minus that the chain scanner follows
MAX_NESTING = 100
# '+' and '-' bind last, so they sit at the true top of the tree;
# preferred over '*' and '/' when split balance ties.
_LOW_PRECEDENCE = {"+", "-"}


@dataclass(frozen=True)
class AlignedFormula:
    """A formula with every operand replaced by '@'.

    ``text`` ranges over the alphabet ``@+-*/();`` (';' joins merged
    steps), ``token_count`` counts the placeholders, and ``origin`` keeps
    the raw pre-alignment string. ``align_variables`` and ``merge_steps``
    build only such texts; the constructor does not check them.
    """

    text: str
    token_count: int
    origin: str


@dataclass(frozen=True)
class SplitResult:
    """A formula split at one top-level operator; reassembling
    left + operator + right reconstructs the input."""

    operator: str | None
    left: str
    right: str


def split_balanced(a: AlignedFormula | str) -> SplitResult:
    """Split at the depth-0 operator that best balances the two halves.

    Candidates are binary operators outside all parentheses (the char
    before must close an operand, which rules out unary minus). Ties on
    balance prefer '+'/'-' over '*'/'/', then the leftmost. With no
    candidate the operator is None and the input is returned whole.
    """
    a = a.text if isinstance(a, AlignedFormula) else a
    if not a:
        raise DegenerateInput("cannot split an empty formula")
    best = None
    depth = 0
    for i, ch in enumerate(a):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-*/" and depth == 0 and 0 < i < len(a) - 1:
            if a[i - 1] not in ("@", ")"):
                continue
            diff = abs(i - (len(a) - i - 1))
            rank = (diff, 0 if ch in _LOW_PRECEDENCE else 1, i)
            if best is None or rank < best[0]:
                best = (rank, i, ch)
    if best is None:
        return SplitResult(None, a, "")
    _, i, ch = best
    return SplitResult(ch, a[:i], a[i + 1 :])


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_SKIP_CHARS = {"$", "\\"}


def _read_token(s: str, i: int) -> tuple[str, str, int] | None:
    """Read one token at index ``i``; None when s[i] starts no token.

    A number's digits are those ``float`` reads (``str.isdecimal``), so
    a superscript or another digit-like character starts no number.
    """
    ch = s[i]
    if ch.isdecimal() or (ch == "." and i + 1 < len(s) and s[i + 1].isdecimal()):
        j = i
        seen_dot = False
        text = []
        while j < len(s):
            c = s[j]
            if c.isdecimal():
                text.append(c)
            elif c == "." and not seen_dot and j + 1 < len(s) and s[j + 1].isdecimal():
                seen_dot = True
                text.append(c)
            elif c == "," and j + 1 < len(s) and s[j + 1].isdecimal() and j > i:
                pass  # thousands separator inside a number
            else:
                break
            j += 1
        return "number", "".join(text), j
    if ch.isalpha() or ch == "_":
        j = i
        while j < len(s) and (s[j].isalnum() or s[j] == "_"):
            j += 1
        return "ident", s[i:j], j
    if ch == "@":
        return "at", "@", i + 1
    if ch in "+-*/":
        return "op", ch, i + 1
    if ch == "(":
        return "lparen", ch, i + 1
    if ch == ")":
        return "rparen", ch, i + 1
    return None


def _tokenize(s: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(s):
        if s[i].isspace() or s[i] in _SKIP_CHARS:
            i += 1
            continue
        tok = _read_token(s, i)
        if tok is None:
            raise ParseError(f"unexpected character {s[i]!r}", i)
        kind, text, j = tok
        tokens.append((kind, text, i))
        i = j
    return tokens


# ---------------------------------------------------------------------------
# Variable alignment
# ---------------------------------------------------------------------------


_OPERAND_KINDS = {"number", "ident", "at"}


def _align_part(part: str) -> tuple[str, int]:
    """Align one ';'-free part: its text with '@' per operand, and the
    operand count.

    One pass over the tokens that expects an operand or an operator and
    counts open parentheses; text outside the grammar raises
    ``ParseError`` at the first token that does not fit, or at the end.
    """
    tokens = _tokenize(part)
    if not tokens:
        raise ParseError("empty expression", 0)
    out = []
    count = depth = 0
    want_operand = True
    for kind, text, pos in tokens:
        if want_operand:
            if kind in _OPERAND_KINDS:
                out.append("@")
                count += 1
                want_operand = False
            elif kind == "lparen":
                out.append(text)
                depth += 1
            elif text == "-":
                out.append(text)
            else:
                raise ParseError(f"unexpected token {text!r}", pos)
        elif kind == "op":
            out.append(text)
            want_operand = True
        elif kind == "rparen" and depth:
            out.append(text)
            depth -= 1
        elif depth:
            raise ParseError("expected ')'", pos)
        else:
            raise ParseError(f"unexpected trailing token {text!r}", pos)
    if want_operand:
        raise ParseError("expected operand, found end of input", len(part))
    if depth:
        raise ParseError("expected ')'", len(part))
    return "".join(out), count


def align_variables(raw: str) -> AlignedFormula:
    """Replace every number and identifier with '@', keeping structure.

    The text is validated as it aligns, with input parentheses preserved
    verbatim. Text with ';' separators is aligned piecewise, so merged
    formulas realign to themselves.
    """
    texts = []
    count = 0
    for part in raw.split(";"):
        text, n = _align_part(part)
        texts.append(text)
        count += n
    return AlignedFormula(";".join(texts), count, raw)


def merge_steps(steps: list[str]) -> AlignedFormula:
    """Join per-step formulas into one aligned total formula.

    A single step aligns directly; several steps join with ';' (a
    first-class character for downstream edit distance). Unparseable
    steps are dropped with a logged warning count.
    """
    if not steps:
        raise MergeError("no steps to merge")
    kept = []
    dropped = 0
    for step in steps:
        try:
            kept.append(align_variables(step))
        except ParseError:
            dropped += 1
    if dropped:
        log.warning("merge_steps dropped %d unparseable step(s)", dropped)
    if not kept:
        raise MergeError(f"all {len(steps)} steps were unparseable")
    if len(kept) == 1:
        return kept[0]
    return AlignedFormula(
        ";".join(a.text for a in kept),
        sum(a.token_count for a in kept),
        ";".join(a.origin for a in kept),
    )


# ---------------------------------------------------------------------------
# Expression chains in running text
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chain:
    """An arithmetic step found in prose: expression plus stated result.

    For "so in total they had 32 + 42 = 74." the expression is
    "32 + 42" and the result 74.0; a bare expression has result None.
    """

    expression: str
    result: float | None


# Prose words would lex as identifiers; inside chains only short names
# (x, ab) count as operands.
_CHAIN_MAX_IDENT = 2


def _scan_operand(line: str, i: int, depth: int) -> int | None:
    """Consume one operand (number, short ident, '@', parenthesized group,
    or a negation of one) starting at i; returns the end index or None."""
    while i < len(line) and line[i] == "-":
        i = _skip_pad(line, i + 1)
        depth += 1
    tok = _read_token(line, i) if i < len(line) and depth <= MAX_NESTING else None
    if tok is None:
        return None
    kind, text, j = tok
    if kind == "number" or kind == "at":
        return j
    if kind == "ident":
        return j if len(text) <= _CHAIN_MAX_IDENT else None
    if kind == "lparen":  # a balanced '(...)' around a chain-style expression
        j = _scan_expression(line, _skip_pad(line, i + 1), depth + 1)
        if j is not None:
            j = _skip_pad(line, j)
            if j < len(line) and line[j] == ")":
                return j + 1
    return None


def _skip_pad(line: str, i: int) -> int:
    while i < len(line) and (line[i].isspace() or line[i] in _SKIP_CHARS):
        i += 1
    return i


def _scan_expression(line: str, i: int, depth: int = 0) -> int | None:
    """Consume operand (op operand)* greedily; returns end index or None."""
    end = _scan_operand(line, i, depth)
    if end is None:
        return None
    while True:
        j = _skip_pad(line, end)
        if j >= len(line) or line[j] not in "+-*/":
            return end
        k = _skip_pad(line, j + 1)
        nxt = _scan_operand(line, k, depth)
        if nxt is None:
            return end
        end = nxt


def _has_operator(segment: str) -> bool:
    """Whether the segment parses and has a binary operator: a valid
    expression has one operand more than it has binary operators. A
    segment without an operator character has none, so it is not
    aligned."""
    if not any(op in segment for op in "+-*/"):
        return False
    try:
        return _align_part(segment)[1] > 1
    except ParseError:
        return False


def _stated_result(segment: str) -> float | None:
    """The value of a segment that is a bare number, parentheses
    allowed; None for any other segment."""
    try:
        text, _count = _align_part(segment)
    except ParseError:
        return None
    if text.strip("()") != "@":
        return None
    kind, number, _ = next(tok for tok in _tokenize(segment) if tok[0] != "lparen")
    return float(number) if kind == "number" else None


def _next_start(line: str, i: int) -> int:
    """Where to look for a span after a failed scan from i.

    A scan from an opener ('(' or '-') whose run of openers is longer
    than MAX_NESTING fails at the nesting limit, so the run's openers
    that still have more than MAX_NESTING openers ahead are skipped.
    """
    openers = []
    j = i
    while j < len(line) and line[j] in "(-":
        openers.append(j)
        j = _skip_pad(line, j + 1)
    return openers[-MAX_NESTING] if len(openers) > MAX_NESTING else i + 1


def find_chains(text: str) -> list[Chain]:
    """Find arithmetic steps in model output text.

    Scans each line for spans shaped like ``expr (= expr)*``; a span
    starts at a digit or '('. The step expression is the first
    '='-segment containing an operator, and the stated result is the
    final segment when it is a bare number. Pure-number spans are not
    steps and are skipped, and so is any span nested past MAX_NESTING.
    """
    chains = []
    for line in text.splitlines():
        i = 0
        while i < len(line):
            ch = line[i]
            if not (ch.isdecimal() or ch == "("):
                i += 1
                continue
            end = _scan_expression(line, i)
            if end is None:
                i = _next_start(line, i)
                continue
            segments = [line[i:end].strip()]
            j = _skip_pad(line, end)
            while j < len(line) and line[j] == "=":
                k = _skip_pad(line, j + 1)
                nxt_end = _scan_expression(line, k)
                if nxt_end is None:
                    break
                segments.append(line[k:nxt_end].strip())
                j = _skip_pad(line, nxt_end)
            expr_seg = next((s for s in segments if _has_operator(s)), None)
            if expr_seg is not None:
                # a segment with an operator states no result, so a lone segment states none
                chains.append(Chain(expr_seg, _stated_result(segments[-1])))
            i = max(j, end)
    return chains
