"""Independent oracles the tests check production code against.

These deliberately avoid the package's bottom-up DP kernels: the edit
distance here is the textbook top-down recursion on string suffixes.
The dedup reference is the greedy scan of per-pair ``tls`` calls. The
formula references read tokens one character at a time and parse each
formula into a tree, by recursive descent over the precedence grammar,
where the library writes '@' per operand by pattern and makes one flat
pass over the aligned characters. The mock-script reference tries
every substring rule in order, where the mock backend looks up its
anchor index. The embedding reference calls crc32 once per n-gram,
where the offline provider looks buckets up in byte tables.
"""

from __future__ import annotations

import zlib
from functools import lru_cache

import numpy as np


def lev_recursive(a: str, b: str) -> int:
    """Plain exponential recursion; only for short strings."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    cost = 0 if a[0] == b[0] else 1
    return min(
        lev_recursive(a[1:], b) + 1,
        lev_recursive(a, b[1:]) + 1,
        lev_recursive(a[1:], b[1:]) + cost,
    )


def lev_memo(a: str, b: str) -> int:
    """The same recursion with memoization, for longer strings."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        cost = 0 if a[i] == b[j] else 1
        return min(go(i + 1, j) + 1, go(i, j + 1) + 1, go(i + 1, j + 1) + cost)

    result = go(0, 0)
    go.cache_clear()
    return result


def greedy_dedup(examples, cfg, sem):
    """Keep each example whose per-pair ``tls`` against every example
    kept before it is at most the dedup threshold."""
    from mathcontrast.similarity import tls

    kept = []
    for ex in examples:
        pair = (ex.question, ex.right_formula)
        scores = (tls(pair, (k.question, k.right_formula), cfg, sem) for k in kept)
        if all(score <= cfg.dedup_threshold for score in scores):
            kept.append(ex)
    return kept


_SKIP_CHARS = {"$", "\\"}


def read_token(s: str, i: int) -> tuple[str, str, int] | None:
    """Read one token at index ``i``, one character at a time; None when
    s[i] starts no token. A number's digits are those ``float`` reads
    (``str.isdecimal``), with at most one '.', and a ',' followed by a
    digit is a thousands separator that the token's text drops."""
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


def tokenize(s: str) -> list[tuple[str, str, int]]:
    """``(kind, text, position)`` per token, skipping whitespace, '$' and
    '\\'; a character that starts no token raises ``ParseError``."""
    from mathcontrast.errors import ParseError

    tokens = []
    i = 0
    while i < len(s):
        if s[i].isspace() or s[i] in _SKIP_CHARS:
            i += 1
            continue
        tok = read_token(s, i)
        if tok is None:
            raise ParseError(f"unexpected character {s[i]!r}", i)
        kind, text, j = tok
        tokens.append((kind, text, i))
        i = j
    return tokens


def parse_tree(raw: str):
    """Parse formula text by recursive descent into nested tuples:
    ``("number", text)``, ``("identifier", text)``, ``("neg", child)`` or
    ``(op, left, right)``. The grammar is

        Expr   := Term (('+' | '-') Term)*
        Term   := Factor (('*' | '/') Factor)*
        Factor := Number | Identifier | '(' Expr ')' | '-' Factor

    and text outside it raises the ``ParseError`` that alignment must
    raise, with the same message and position."""
    from mathcontrast.errors import ParseError

    tokens = tokenize(raw)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def expr():
        nonlocal pos
        node = term()
        while (tok := peek()) and tok[0] == "op" and tok[1] in "+-":
            pos += 1
            node = (tok[1], node, term())
        return node

    def term():
        nonlocal pos
        node = factor()
        while (tok := peek()) and tok[0] == "op" and tok[1] in "*/":
            pos += 1
            node = (tok[1], node, factor())
        return node

    def factor():
        nonlocal pos
        tok = peek()
        if tok is None:
            raise ParseError("expected operand, found end of input", len(raw))
        kind, text, at = tok
        pos += 1
        if kind == "number":
            return ("number", text)
        if kind in ("ident", "at"):
            return ("identifier", text)
        if kind == "lparen":
            node = expr()
            closing = peek()
            if closing is None or closing[0] != "rparen":
                raise ParseError("expected ')'", closing[2] if closing else len(raw))
            pos += 1
            return node
        if kind == "op" and text == "-":
            return ("neg", factor())
        raise ParseError(f"unexpected token {text!r}", at)

    if not tokens:
        raise ParseError("empty expression", 0)
    node = expr()
    if (tok := peek()) is not None:
        raise ParseError(f"unexpected trailing token {tok[1]!r}", tok[2])
    return node


def align_by_tree(raw: str):
    """``align_variables(raw)`` by parsing each ';'-part into a tree, then
    writing '@' for each number, identifier and placeholder token."""
    from mathcontrast.formula import AlignedFormula

    texts = []
    count = 0
    for part in raw.split(";"):
        parse_tree(part)
        out = []
        for kind, text, _pos in tokenize(part):
            if kind in ("number", "ident", "at"):
                out.append("@")
                count += 1
            else:
                out.append(text)
        texts.append("".join(out))
    return AlignedFormula(";".join(texts), count, raw)


def _tree_or_none(segment: str):
    from mathcontrast.errors import ParseError

    try:
        return parse_tree(segment)
    except ParseError:
        return None


def has_operator_by_tree(segment: str) -> bool:
    """Whether ``segment`` parses into a tree with a binary node."""
    node = _tree_or_none(segment)
    while node is not None and node[0] == "neg":
        node = node[1]
    return node is not None and node[0] not in ("number", "identifier")


def stated_result_by_tree(segment: str) -> float | None:
    """The value of ``segment`` when it parses into a number leaf, else None."""
    node = _tree_or_none(segment)
    return float(node[1]) if node is not None and node[0] == "number" else None


def first_rule_by_scan(rules, text: str):
    """The ``(key, completions)`` of the first rule whose needles all
    occur in ``text``, or None; ``rules`` are ``MockBackend.rules``,
    ``(needles, completions)`` pairs, tried in order."""
    for needles, completions in rules:
        if all(needle in text for needle in needles):
            escaped = (needle.replace("\\", "\\\\").replace("|", "\\|") for needle in needles)
            return "rule:" + "|".join(escaped), completions
    return None


def embed_by_crc32(text: str) -> np.ndarray:
    """``HashingNgramProvider.embed(text)``: the 2- and 3-grams of the
    lowercased text between the sentinels ``^`` and ``$``, counted in
    bucket crc32 % 256 of their UTF-8 bytes, one crc32 call per gram."""
    padded = f"^{text.lower()}$"
    buckets = [
        zlib.crc32(padded[i : i + n].encode("utf-8")) % 256
        for n in (2, 3)
        for i in range(len(padded) - n + 1)
    ]
    return np.bincount(buckets, minlength=256).astype(np.float32)
