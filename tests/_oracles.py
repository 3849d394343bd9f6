"""Independent oracles the tests check production code against.

These deliberately avoid the package's bottom-up DP kernels: the edit
distance here is the textbook top-down recursion on string suffixes.
The dedup reference is the greedy scan of per-pair ``tls`` calls.
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
