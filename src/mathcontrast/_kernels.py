"""Edit-distance kernel.

The unit-cost Levenshtein distance is the inner loop of every logic
similarity (corpus dedup compares entries pairwise, retrieval compares
the target with every entry, and each tree distance compares up to four
branch pairs). This is the bit-parallel algorithm of Myers (JACM 1999)
in Hyyrö's formulation for the global edit distance (2003): one column
of the DP table is held as two bit vectors of vertical +1/-1 deltas in
a Python int, so each character of the shorter string costs a fixed
handful of integer operations whatever the length of the longer one.
"""

from __future__ import annotations

# Kept for the benchmark in perfbench/, which reads these two names.
USING_NUMBA = False


def encode(s: str) -> str:
    """Identity: the kernel works on strings. Kept for perfbench/."""
    return s


def levenshtein_codes(a: str, b: str) -> int:
    """Unit-cost insert/delete/substitute edit distance of two strings."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    # a (the longer) is the pattern held in the bit vectors; b is scanned
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
