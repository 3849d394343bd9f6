"""Edit-distance kernel.

The unit-cost Levenshtein distance is the inner loop of every logic
similarity (corpus dedup compares entries pairwise, retrieval compares
the target with every entry, and each tree distance compares up to four
branch pairs). This is the bit-parallel algorithm of Myers (JACM 1999)
in Hyyrö's formulation for the global edit distance (2003): one column
of the DP table is held as two bit vectors of vertical +1/-1 deltas in
a Python int (``pv``, ``mv``), so each character of the scanned string
costs a fixed dozen integer operations whatever the pattern's length.

Lanes. ``levenshtein_many(s, strings)`` scans ``s`` once for all of
``strings``: each string is the pattern of one lane of the same ints, a
lane being the string's length in bits plus one guard bit above it. The
guard bit of ``pv`` is kept 0, so the carry of ``(eq & pv) + pv`` stops
at the lane's edge; after the shift of the horizontal +1 vector the low
bit of every lane is set (``lows``), the first row's +1 in each lane;
whatever else reaches a guard bit is masked out of ``pv`` or lands on a
low bit that is set anyway. So the same operations advance every lane.

Readout. A lane's distance is read from the last column: ``len(s)``
plus the popcount of its +1 deltas minus the popcount of its -1 deltas
(``int.bit_count``, Python 3.10).

Groups. Lanes fill one int up to ``LANE_BITS`` bits; then a new group
starts, so the cost of each integer operation stays bounded whatever the
number of strings.

Pattern table. For each character, the bits where it occurs in a
group's strings, from one pass over the group's text.

``levenshtein_codes(a, b)`` is the one-pair case: the longer string is
the lane and the shorter is scanned.
"""

from __future__ import annotations

from typing import Sequence

# Kept for the benchmark in perfbench/, which reads these two names.
USING_NUMBA = False

# bits of one group of lanes: below about a thousand, the fixed cost of an
# integer operation dominates; above, its cost grows with its bits
LANE_BITS = 1024


def encode(s: str) -> str:
    """Identity: the kernel works on strings. Kept for perfbench/."""
    return s


def _columns(s: str, text: str, lows: int) -> tuple[int, int]:
    """The last column's +1 and -1 vectors of the lanes laid out in
    ``text`` (the lanes' strings, one separator character between two)
    after scanning ``s``; ``lows`` holds the low bit of every lane."""
    peq: dict[str, int] = {}  # peq[ch]: the bits where ch occurs in text
    bit = 1
    for ch in text:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = ((1 << len(text)) - 1) ^ (lows >> 1)  # every lane bit; no guard bit
    pv, mv = mask, 0
    for ch in s:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        ph = (ph << 1) | lows
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return pv, mv


def levenshtein_codes(a: str, b: str) -> int:
    """Unit-cost insert/delete/substitute edit distance of two strings."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    pv, mv = _columns(b, a, 1)
    return len(b) + pv.bit_count() - mv.bit_count()


def levenshtein_many(s: str, strings: Sequence[str]) -> list[int]:
    """``levenshtein_codes(s, t)`` for each ``t`` of ``strings``, from
    one scan of ``s`` per group of lanes."""
    out: list[int] = []
    start = width = 0
    for stop, t in enumerate(strings):
        if width + len(t) > LANE_BITS and stop > start:
            out += _group(s, strings[start:stop])
            start, width = stop, 0
        width += len(t) + 1
    if start < len(strings):
        out += _group(s, strings[start:])
    return out


def _group(s: str, lanes: Sequence[str]) -> list[int]:
    """The distance of ``s`` to each of ``lanes``, one group. A group of
    one lane is the one-pair case, whose longer string is the lane."""
    if len(lanes) == 1:
        return [levenshtein_codes(s, lanes[0])]
    lows = low = 0
    for t in lanes:
        lows |= 1 << low
        low += len(t) + 1
    pv, mv = _columns(s, "\0".join(lanes), lows)
    n, out = len(s), []
    for t in lanes:
        m = len(t)
        lane = (1 << m) - 1
        out.append(n + (pv & lane).bit_count() - (mv & lane).bit_count())
        pv >>= m + 1
        mv >>= m + 1
    return out
