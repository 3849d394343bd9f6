"""Independent oracles the tests check production code against.

These deliberately avoid the package's bottom-up DP kernels: the edit
distance here is the textbook top-down recursion on string suffixes.
The per-pair bit-parallel loop, which the library replaced by one scan
of lanes for many strings at once, is kept for the benchmark inputs.
The dedup reference is the greedy scan of per-pair ``tls`` calls. The
formula references read tokens one character at a time and parse each
formula into a tree, by recursive descent over the precedence grammar,
where the library writes '@' per operand by pattern and makes one flat
pass over the aligned characters. The chain reference scans prose by
recursive descent, into every group from every start, where the library
resolves each parenthesized group once. The mock-script reference tries
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


def levenshtein_by_pair(a: str, b: str) -> int:
    """One pair at a time: the bit-parallel column loop of Myers (1999)
    and Hyyrö (2003) with the longer string as the pattern, its score
    tracked through the pattern's last row at every column."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    m = len(a)
    if not b:
        return m
    peq: dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << m) - 1
    high = 1 << (m - 1)
    pv, mv, score = mask, 0, m
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return score


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


def _scan_operand(line: str, i: int, depth: int) -> int | None:
    """Consume one operand (number, short ident, '@', parenthesized group,
    or a negation of one) starting at i; returns the end index or None."""
    from mathcontrast.formula import _CHAIN_MAX_IDENT, MAX_NESTING

    while i < len(line) and line[i] == "-":
        i = _skip_pad(line, i + 1)
        depth += 1
    tok = read_token(line, i) if i < len(line) and depth <= MAX_NESTING else None
    if tok is None:
        return None
    kind, text, j = tok
    if kind == "number" or kind == "at":
        return j
    if kind == "ident":
        return j if len(text) <= _CHAIN_MAX_IDENT else None
    if kind == "lparen":
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
        nxt = _scan_operand(line, _skip_pad(line, j + 1), depth)
        if nxt is None:
            return end
        end = nxt


def _next_start(line: str, i: int) -> int:
    """Past a run of more than MAX_NESTING openers ('(' or '-'), a scan
    fails from every opener that has more than MAX_NESTING ahead."""
    from mathcontrast.formula import MAX_NESTING

    openers = []
    j = i
    while j < len(line) and line[j] in "(-":
        openers.append(j)
        j = _skip_pad(line, j + 1)
    return openers[-MAX_NESTING] if len(openers) > MAX_NESTING else i + 1


def chains_by_descent(text: str):
    """``find_chains(text)`` by recursive descent: each start scans every
    group it meets again, carrying the depth of parentheses and unary
    minus down to stop at MAX_NESTING, and a failed start skips the
    openers of a run from which a scan would fail the same way."""
    from mathcontrast.formula import Chain, _has_operator, _stated_result

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
                chains.append(Chain(expr_seg, _stated_result(segments[-1])))
            i = max(j, end)
    return chains


def first_rule_by_scan(rules, text: str):
    """The first of ``rules`` (``MockBackend.rules``, ``(needles,
    completions)`` pairs, tried in order) whose needles all occur in
    ``text``, or None."""
    for needles, completions in rules:
        if all(needle in text for needle in needles):
            return needles, completions
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
