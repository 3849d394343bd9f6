"""Independent oracles the tests check production code against.

These deliberately avoid the package's bottom-up DP kernels: the edit
distance here is the textbook top-down recursion on string suffixes.
The dedup reference is the greedy scan of per-pair ``tls`` calls. The
alignment references parse each formula into a tree first.
"""

from __future__ import annotations

from functools import lru_cache


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


def align_by_tree(raw: str):
    """``align_variables(raw)`` by parsing each ';'-part into a tree, then
    writing '@' for each number, identifier and placeholder token."""
    from mathcontrast.formula import AlignedFormula, _tokenize, parse_expression

    texts = []
    count = 0
    for part in raw.split(";"):
        parse_expression(part)
        out = []
        for kind, text, _pos in _tokenize(part):
            if kind in ("number", "ident", "at"):
                out.append("@")
                count += 1
            else:
                out.append(text)
        texts.append("".join(out))
    return AlignedFormula(";".join(texts), count, raw)


def has_operator_by_tree(segment: str) -> bool:
    """Whether ``segment`` parses into a tree with a binary node."""
    from mathcontrast.errors import ParseError
    from mathcontrast.formula import parse_expression

    try:
        stack = [parse_expression(segment)]
    except ParseError:
        return False
    while stack:
        node = stack.pop()
        if node.kind == "binary":
            return True
        stack.extend(node.children)
    return False
