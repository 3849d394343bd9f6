"""Formula alignment, balanced splitting and step merging.

One grammar covers formula text:

    Expr    := Operand (('+' | '-' | '*' | '/') Operand)*
    Operand := Number | Identifier | '@' | '(' Expr ')' | '-' Operand

over text that may carry currency symbols and thousands separators,
which alignment ignores. Alignment replaces every number and
identifier with the placeholder '@', so only operator structure
remains. Precedence does not change which strings are formulas, so one
pass over the aligned characters, alternating between expecting an
operand and expecting an operator and counting open parentheses, checks
a formula at any depth without building a tree. An aligned formula
splits at its most balanced top-level operator. The chain
scanner, a second reader of the operand grammar, finds formulas in
prose: it resolves each parenthesized group of a line once, right to
left, and takes no operand nested past MAX_NESTING levels of
parentheses and unary minus.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .errors import DegenerateInput, MergeError, ParseError

log = logging.getLogger(__name__)

# levels of parentheses and unary minus that a chain's operands may nest
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
# Lexicon
# ---------------------------------------------------------------------------

# The operands that alignment rewrites, in one pattern: a number, whose
# digits are those ``float`` reads (``\d`` is ``str.isdecimal``), with at
# most one '.' and a ',' between digits as a thousands separator; or an
# identifier (``\w`` is ``str.isalnum`` or '_').
_OPERAND = re.compile(r"\d+(?:,\d+)*(?:\.\d+(?:,\d+)*)?|\.\d+(?:,\d+)*|[^\W\d]\w*")
# where find_chains may start a span: a digit or '('
_SPAN_START = re.compile(r"[\d(]")
# the other tokens are single characters, which alignment keeps
_CHAR_KINDS = {"@": "at", "+": "op", "-": "op", "*": "op", "/": "op", "(": "lparen", ")": "rparen"}
_OPERAND_KINDS = {"number", "ident", "at"}
# skipped between tokens, as is every character that str.isspace admits
_SKIP_CHARS = {"$", "\\"}
# the skipped characters of ASCII text, as bytes for one bytes.translate
_ASCII_SKIPS = bytes(c for c in range(128) if chr(c).isspace() or chr(c) in _SKIP_CHARS)


def _read_token(s: str, i: int) -> tuple[str, str, int] | None:
    """Read one token at index ``i``; None when s[i] starts no token.

    A number's text drops its thousands separators.
    """
    ch = s[i]
    kind = _CHAR_KINDS.get(ch)
    if kind is not None:
        return kind, ch, i + 1
    m = _OPERAND.match(s, i)
    if m is None:
        return None
    if ch.isdecimal() or ch == ".":
        return "number", m[0].replace(",", ""), m.end()
    if ch.isalpha() or ch == "_":
        return "ident", m[0], m.end()
    return None  # a numeric character such as '½' is \w but starts no identifier


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


def _walk(chars: str) -> tuple[int, bool, int, int]:
    """Check aligned characters against the grammar in one pass.

    The pass expects an operand ('@') or an operator and counts open
    parentheses; a ';' outside them ends a part and starts the next.
    Returns where it stopped (the first character that does not fit, or
    ``len(chars)``), whether it expected an operand there, how many
    parentheses were open, and how many operands it read. The text fits
    when the pass reaches the end expecting an operator, at depth 0.
    """
    want_operand = True
    depth = count = 0
    for i, ch in enumerate(chars):
        if want_operand:
            if ch == "@":
                count += 1
                want_operand = False
            elif ch == "(":
                depth += 1
            elif ch != "-":
                return i, True, depth, count
        elif ch in "+-*/":
            want_operand = True
        elif ch == ")" and depth:
            depth -= 1
        elif ch != ";" or depth:
            return i, False, depth, count
        else:
            want_operand = True
    return len(chars), want_operand, depth, count


def _token_chars(tokens: list[tuple[str, str, int]]) -> str:
    return "".join("@" if kind in _OPERAND_KINDS else text for kind, text, _pos in tokens)


def _part_chars(part: str) -> str:
    """A ';'-free part's aligned characters, read token by token; '?',
    which no walk accepts, when a character in it starts no token."""
    try:
        return _token_chars(_tokenize(part))
    except ParseError:
        return "?"


def _part_error(part: str) -> ParseError:
    """The error of a ';'-free part that the walk rejects: its first
    character that starts no token, else the token where the walk stops
    or the end of the part."""
    tokens = _tokenize(part)
    if not tokens:
        return ParseError("empty expression", 0)
    stop, want_operand, depth, _count = _walk(_token_chars(tokens))
    if stop == len(tokens):
        if want_operand:
            return ParseError("expected operand, found end of input", len(part))
        return ParseError("expected ')'", len(part))
    _kind, text, pos = tokens[stop]
    if want_operand:
        return ParseError(f"unexpected token {text!r}", pos)
    if depth:
        return ParseError("expected ')'", pos)
    return ParseError(f"unexpected trailing token {text!r}", pos)


def _align(raw: str) -> tuple[str, int]:
    """``align_variables`` without its AlignedFormula: the aligned text
    and its operand count."""
    if raw.isascii():
        chars = _OPERAND.sub("@", raw).encode().translate(None, _ASCII_SKIPS).decode("ascii")
    else:
        chars = ";".join(_part_chars(part) for part in raw.split(";"))
    stop, want_operand, depth, count = _walk(chars)
    if stop < len(chars) or want_operand or depth:
        raise _part_error(raw.split(";")[chars.count(";", 0, stop)])
    return chars, count


def align_variables(raw: str) -> AlignedFormula:
    """Replace every number and identifier with '@', keeping structure.

    ASCII text is aligned by one substitution that writes '@' per
    operand, after which one ``bytes.translate`` drops its skipped
    characters. Other text is read token by token: past ASCII, the
    pattern's identifier start admits numeric characters such as '½',
    and more characters are whitespace. Then one walk checks the aligned characters, with input
    parentheses preserved verbatim. Text with ';' separators is aligned
    piecewise, so merged formulas realign to themselves. Text outside
    the grammar raises the ``ParseError`` of its first failing part,
    positioned within that part.
    """
    return AlignedFormula(*_align(raw), raw)


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


def _scan_operand(
    line: str, i: int, groups: dict[int, tuple[int, int] | None]
) -> tuple[int, int] | None:
    """Consume one operand (number, short ident, '@', parenthesized group,
    or a negation of one) starting at i; returns its end and nesting, the
    levels of unary minus and parentheses it opens, or None. A group is
    looked up in ``groups``, never scanned again."""
    nesting = 0
    while i < len(line) and line[i] == "-":
        i = _skip_pad(line, i + 1)
        nesting += 1
    if i < len(line) and line[i] == "(":
        group = groups[i]
        return group and (group[0], nesting + group[1])
    tok = _read_token(line, i) if i < len(line) else None
    if tok is None:
        return None
    kind, text, j = tok
    if kind == "number" or kind == "at" or (kind == "ident" and len(text) <= _CHAIN_MAX_IDENT):
        return j, nesting
    return None


def _skip_pad(line: str, i: int) -> int:
    while i < len(line) and (line[i].isspace() or line[i] in _SKIP_CHARS):
        i += 1
    return i


def _scan_expression(
    line: str, i: int, groups: dict[int, tuple[int, int] | None], limit: int
) -> tuple[int, int] | None:
    """Consume operand (op operand)* greedily, up to the first operand
    nested past ``limit``; returns the end and the deepest nesting read,
    or None when the first operand fails."""
    scan = _scan_operand(line, i, groups)
    if scan is None or scan[1] > limit:
        return None
    end, nesting = scan
    while True:
        j = _skip_pad(line, end)
        if j >= len(line) or line[j] not in "+-*/":
            return end, nesting
        scan = _scan_operand(line, _skip_pad(line, j + 1), groups)
        if scan is None or scan[1] > limit:
            return end, nesting
        end, nesting = scan[0], max(nesting, scan[1])


def _has_operator(segment: str) -> bool:
    """Whether the segment parses and has a binary operator: a valid
    expression has one operand more than it has binary operators. A
    segment without an operator character has none, so it is not
    aligned."""
    if not any(op in segment for op in "+-*/"):
        return False
    try:
        return _align(segment)[1] > 1
    except ParseError:
        return False


def _stated_result(segment: str) -> float | None:
    """The value of a segment that is a bare number, parentheses
    allowed; None for any other segment. Alignment keeps every operator
    character, so a segment with one is not aligned."""
    if any(op in segment for op in "+-*/"):
        return None
    try:
        text = _align(segment)[0]
    except ParseError:
        return None
    if text.strip("()") != "@":
        return None
    # only parentheses and skipped characters come before the operand
    operand = _OPERAND.search(segment)
    if operand is None:  # the placeholder '@'
        return None
    kind, number, _ = _read_token(segment, operand.start())
    return float(number) if kind == "number" else None


def find_chains(text: str) -> list[Chain]:
    """Find arithmetic steps in model output text.

    Scans each line for spans shaped like ``expr (= expr)*``; a span
    starts at a digit or '('. The step expression is the first
    '='-segment containing an operator, and the stated result is the
    final segment when it is a bare number. Pure-number spans are not
    steps and are skipped, and so is any span nested past MAX_NESTING.
    Each line costs time linear in its length, however deep it nests.
    """
    chains = []
    for line in text.splitlines():
        # each '(' maps to the end and nesting of the group it opens, or to
        # None. Filled right to left, a group's scan finds its inner groups
        # resolved; it has no limit, as nothing nests deeper than the line is long.
        groups: dict[int, tuple[int, int] | None] = {}
        p = len(line)
        while (p := line.rfind("(", 0, p)) >= 0:
            scan = _scan_expression(line, _skip_pad(line, p + 1), groups, len(line))
            end = _skip_pad(line, scan[0]) if scan else len(line)
            groups[p] = (end + 1, scan[1] + 1) if end < len(line) and line[end] == ")" else None
        i = 0
        while (start := _SPAN_START.search(line, i)) is not None:
            i = start.start()
            scan = _scan_expression(line, i, groups, MAX_NESTING)
            if scan is None:
                i += 1
                continue
            end = scan[0]
            segments = [line[i:end].strip()]
            j = _skip_pad(line, end)
            while j < len(line) and line[j] == "=":
                k = _skip_pad(line, j + 1)
                scan = _scan_expression(line, k, groups, MAX_NESTING)
                if scan is None:
                    break
                segments.append(line[k : scan[0]].strip())
                j = _skip_pad(line, scan[0])
            expr_seg = next((s for s in segments if _has_operator(s)), None)
            if expr_seg is not None:
                # a segment with an operator states no result, so a lone segment states none
                chains.append(Chain(expr_seg, _stated_result(segments[-1])))
            i = max(j, end)
    return chains
