"""Logical similarity of aligned solution formulas.

Three layers: a normalized symmetric edit distance over aligned text, a
split-based tree distance that lets the two halves of a commutative
split ('+' or '*') be compared in either pairing, and a combined score
that mixes the logic term with semantic similarity of the question
texts under a configurable weight.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from . import _kernels
from .errors import DegenerateInput, DimensionMismatch, ZeroVector
from .formula import AlignedFormula, SplitResult, split_balanced  # noqa: F401 - re-exported

log = logging.getLogger(__name__)

_COMMUTATIVE = {"+", "*"}
# entries of one branch-distance memo; a memo that would grow past it is cleared
BRANCH_MEMO_LIMIT = 1 << 16


@dataclass(frozen=True)
class SimilarityConfig:
    """Weights for the combined score.

    ``alpha`` weighs the logic term (semantic gets 1 - alpha);
    ``dedup_threshold`` marks corpus entries as duplicates above it.
    """

    alpha: float = 0.7
    dedup_threshold: float = 0.9

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.dedup_threshold <= 1.0:
            raise ValueError(f"dedup_threshold must be in [0, 1], got {self.dedup_threshold}")


class SemanticProvider(Protocol):
    """Similarity of two question texts, in [-1, 1].

    A provider may also offer ``similarities(a, texts)``, one score per
    text as an array, and ``similarity_rows(queries, texts)``, one such
    row per query as an (m, n) array; ``semantic_terms`` uses the
    broadest one present.
    """

    def similarity(self, a: str, b: str) -> float: ...


def levenshtein(a: str, b: str) -> int:
    """Unit-cost insert/delete/substitute edit distance."""
    return _kernels.levenshtein_codes(a, b)


def _text(a: AlignedFormula | str) -> str:
    return a.text if isinstance(a, AlignedFormula) else a


def norm_distance(a: AlignedFormula | str, b: AlignedFormula | str) -> float:
    """Length-normalized symmetric edit distance.

    Computed as (Lev(a,b) + Lev(b,a)) / (len(a) + len(b)), i.e.
    2*Lev/(len(a)+len(b)) since the distance is symmetric. Two empty
    strings score 0 by convention; that means upstream extraction
    failed, so it is logged.
    """
    a, b = _text(a), _text(b)
    if not a and not b:
        log.warning("norm_distance over two empty strings; returning 0 by convention")
        return 0.0
    return 2 * levenshtein(a, b) / (len(a) + len(b))


def tree_distance(a: AlignedFormula | str, b: AlignedFormula | str) -> float:
    """Split-based tree distance between two aligned formulas.

    Both inputs are split once; the branch pairs are compared with
    norm_distance. A commutative split operator on the first formula
    ('+' or '*') allows the branches to be matched in either pairing,
    taking the minimum; '-' and '/' fix the order. When either side has
    no top-level operator the fallback is 2*norm_distance(a, b), which
    matches the scale of the two-branch sum.

    As in the paper's definition, commutativity follows the first
    formula's operator only, so the distance is not symmetric when the
    two split operators differ and exactly one of them is commutative:
    TD("@*@+@", "@-@*@") is 0 but TD("@-@*@", "@*@+@") is 2. In every
    other case TD(a, b) == TD(b, a) exactly.
    """
    ta, tb = _text(a), _text(b)
    if not ta or not tb:
        raise DegenerateInput("tree_distance requires non-empty operands")
    sa, sb = split_balanced(ta), split_balanced(tb)
    if sa.operator is None or sb.operator is None:
        return 2 * norm_distance(ta, tb)
    in_order = norm_distance(sa.left, sb.left) + norm_distance(sa.right, sb.right)
    if sa.operator in _COMMUTATIVE:
        swapped = norm_distance(sa.left, sb.right) + norm_distance(sa.right, sb.left)
        return min(in_order, swapped)
    return in_order


def logic_similarity(a: AlignedFormula | str, b: AlignedFormula | str) -> float:
    """Map tree_distance (range [0, 2]) onto a descending-sortable
    similarity in [0, 1]."""
    return 1.0 - min(tree_distance(a, b), 2.0) / 2.0


def cosine(u: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray) -> float:
    """Cosine similarity of two equal-dimension, non-zero vectors."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return cosine_normed(u, np.linalg.norm(u), v, np.linalg.norm(v))


def cosine_normed(u: np.ndarray, nu: float, v: np.ndarray, nv: float) -> float:
    """cosine(u, v) given both float64 vectors and their norms."""
    if u.shape != v.shape:
        raise DimensionMismatch(f"vector dimensions differ: {u.shape} vs {v.shape}")
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("cosine similarity is undefined for a zero vector")
    return float(np.dot(u, v) / (nu * nv))


ExamplePair = tuple[str, "AlignedFormula | str"]


def _combine(alpha, logic, semantic):
    """The combined score of a logic and a clamped semantic similarity,
    for floats or for numpy arrays alike (the same IEEE operations)."""
    return alpha * logic + (1.0 - alpha) * semantic


# the characters of aligned text, counted per string by char_counts
COUNTED = "@+-*/();"
# the row of char_counts for each code point below 128, 0 for one not
# counted; every code point from 128 on reads the last entry, 0
_COUNTED_ROW = np.zeros(129, dtype=np.intp)
_COUNTED_ROW[[ord(ch) for ch in COUNTED]] = np.arange(1, 1 + len(COUNTED))


def char_counts(strings: Sequence[str]) -> np.ndarray:
    """Each string's length and its count of each character of
    ``COUNTED``: one row each, one column per string. int32 keeps the
    temporaries of each bound small.

    One ``bincount`` over the code points of all the strings, binned by
    row and string; the uncounted characters fill row 0, which the
    lengths then overwrite."""
    n = len(strings)
    lengths = [len(s) for s in strings]
    # UTF-32 holds one unit per code point, as len counts them
    codes = np.frombuffer("".join(strings).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    bins = _COUNTED_ROW[np.minimum(codes, 128)] * n + np.repeat(np.arange(n), lengths)
    counts = np.bincount(bins, minlength=(1 + len(COUNTED)) * n).reshape(1 + len(COUNTED), n)
    counts[0] = lengths
    return counts.astype(np.int32)


def levenshtein_lower_bound(own: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """A lower bound on ``levenshtein(s, t)`` for each string ``s``
    counted in ``own`` and each ``t`` counted in ``counts`` (both from
    ``char_counts``), one row per ``s``: the larger of their length
    difference and half the L1 distance of their character counts,
    rounded up. One edit changes the length by at most 1 and that L1
    distance by at most 2, whatever the characters (Kahveci and Singh's
    frequency distance, VLDB 2001)."""
    l1 = np.abs(counts[1:, None] - own[1:, :, None])
    # int32 sums: an L1 distance is at most the two lengths together
    l1 = l1.sum(axis=0, dtype=np.int32)
    return np.maximum(np.abs(counts[0] - own[0][:, None]), (l1 + 1) >> 1)


def lower_distance(own: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """A lower bound on ``norm_distance(s, t)`` for each ``s`` counted
    in ``own`` (a row each) and ``t`` in ``counts``, 0 for two empty
    strings as there."""
    return 2 * levenshtein_lower_bound(own, counts) / np.maximum(counts[0] + own[0][:, None], 1)


class FormulaTable:
    """The formulas of a corpus, split once, for the logic similarity of
    one target against all of them as arrays.

    ``gather`` maps each entry to its distinct text in ``texts``. The
    distinct branches of the texts with a top-level operator form one
    list, ``branches``; ``left`` and ``right`` hold each text's branch
    ids, -1 for a text without one. ``memo`` holds the norm_distance of
    every pair of strings compared through the table, for all targets
    scored against it; it is cleared when the entries of one ``_fill``
    would take it past ``BRANCH_MEMO_LIMIT``, and never holds more.
    """

    def __init__(self, formulas: Sequence[AlignedFormula | str]):
        distinct: dict[str, int] = {}
        splits: list[SplitResult | None] = []
        gather = []
        for formula in formulas:
            text = _text(formula)
            at = distinct.get(text)
            if at is None:
                at = distinct[text] = len(splits)
                splits.append(split_balanced(text) if text else None)
            gather.append(at)
        self.gather = np.array(gather, dtype=np.intp)
        self.texts = list(distinct)
        self.degenerate = "" in distinct
        self.memo: dict[tuple[str, str], float] = {}
        branches: dict[str, int] = {}
        self.left = np.full(len(splits), -1, dtype=np.intp)
        self.right = np.full(len(splits), -1, dtype=np.intp)
        for at, split in enumerate(splits):
            if split is not None and split.operator is not None:
                self.left[at] = branches.setdefault(split.left, len(branches))
                self.right[at] = branches.setdefault(split.right, len(branches))
        self.branches = list(branches)
        # char_counts of texts + branches, built by the first bounded query
        self._counts: np.ndarray | None = None

    def counts(self) -> np.ndarray:
        """``char_counts(texts + branches)``, built on the first call."""
        counts = self._counts
        if counts is None:
            # one assignment, so threads sharing the table see all of it or none
            counts = self._counts = char_counts(self.texts + self.branches)
        return counts

    def check(self, formula: AlignedFormula | str) -> str:
        """The text of ``formula``; DegenerateInput when it or an entry
        of a non-empty table is empty, as ``tree_distance`` would raise."""
        text = _text(formula)
        if len(self.gather) and (not text or self.degenerate):
            raise DegenerateInput("tree_distance requires non-empty operands")
        return text

    def logic(self, formula: AlignedFormula | str, rows=None) -> np.ndarray:
        """``logic_similarity(formula, f)`` for the formula ``f`` of each
        entry, or of each entry at the indices ``rows`` (see
        ``Target.logic``)."""
        return Target(self, formula).logic(rows)


class Target:
    """One target formula against a ``FormulaTable``: split once, and
    each of its strings compared with each distinct text or branch at
    most once, into distance arrays of its own (NaN until compared), so
    threads may score targets against one table at once.
    """

    def __init__(self, table: FormulaTable, formula: AlignedFormula | str):
        self.table = table
        self.text = table.check(formula)
        # only an empty table lets an empty target through
        self.split = split_balanced(self.text) if self.text else SplitResult(None, "", "")
        self.whole = np.full(len(table.texts), np.nan)
        self.lefts = np.full(len(table.branches), np.nan)
        # two equal branches, as in @+@, share their distances
        same = self.split.left == self.split.right
        self.rights = self.lefts if same else np.full(len(table.branches), np.nan)

    def logic(self, rows=None) -> np.ndarray:
        """``logic_similarity(target, f)`` for the formula ``f`` of each
        entry, or of each entry at the indices ``rows``, by the same IEEE
        operations as ``logic_similarity`` on each element.

        Only the distinct texts and branches those entries gather to,
        and that this target has not compared yet, are compared.
        """
        table, split = self.table, self.split
        # for every entry, each distinct text once, then the gather
        at = np.arange(len(table.texts)) if rows is None else table.gather[rows]
        if split.operator is None:
            self._fill(self.whole, self.text, table.texts, at)
        else:
            left, right = table.left[at], table.right[at]
            paired = left >= 0
            self._fill(self.whole, self.text, table.texts, at[~paired])
            left, right = left[paired], right[paired]
            if split.operator in _COMMUTATIVE:
                left = right = np.concatenate((left, right))
            self._fill(self.lefts, split.left, table.branches, left)
            self._fill(self.rights, split.right, table.branches, right)
        logic = self._similarity(at, self.whole, self.lefts, self.rights)
        return logic[table.gather] if rows is None else logic

    def bound(self, rows=None) -> np.ndarray:
        """An upper bound on ``logic(rows)``, elementwise, that compares
        no formula: the same operations with ``lower_distance`` in place
        of ``norm_distance``, for the target and its two branches against
        every text and branch in one broadcast over ``table.counts()``.

        Each lower distance is a correctly rounded quotient of integers
        with the denominator of the ``norm_distance`` it stands for and
        a numerator no larger, and every later step (a sum, a minimum,
        ``1 - min(d, 2) / 2``) is monotone under IEEE rounding, so no
        element falls below the exact one.
        """
        table, split = self.table, self.split
        at = table.gather if rows is None else table.gather[rows]
        own = char_counts([self.text, split.left, split.right])
        low = lower_distance(own, table.counts())
        n = len(table.texts)
        return self._similarity(np.arange(n), low[0, :n], low[1, n:], low[2, n:])[at]

    def _fill(self, distance: np.ndarray, s: str, strings: list[str], ids: np.ndarray) -> None:
        """Set ``distance[i]`` to norm_distance(s, strings[i]) at each of
        ``ids`` not compared yet, each once: from the table's memo, or
        else from one ``levenshtein_many`` call for all the misses."""
        need = np.zeros(len(distance), dtype=bool)
        need[ids] = True
        ids = np.flatnonzero(need & np.isnan(distance)).tolist()
        if not ids:
            return
        memo = self.table.memo
        found, miss, others = [], [], []
        for i in ids:
            t = strings[i]
            # norm_distance is symmetric, so one entry serves both orders
            key = (s, t) if s <= t else (t, s)
            hit = 0.0 if t == s else memo.get(key)
            if hit is None:
                miss.append((len(found), key))
                others.append(t)
            found.append(hit)
        if miss:
            edits = _kernels.levenshtein_many(s, others)
            if len(memo) + len(miss) > BRANCH_MEMO_LIMIT:
                memo.clear()
            for (j, key), t, edit in zip(miss, others, edits):
                # norm_distance's operations; t is not s, so not both are empty
                found[j] = d = 2 * edit / (len(s) + len(t))
                if len(memo) < BRANCH_MEMO_LIMIT:
                    memo[key] = d
        distance[ids] = found

    def _similarity(self, at, whole, lefts, rights) -> np.ndarray:
        """The logic similarity of the target to the texts ``at``, given
        its distance to each text (``whole``) and from its left and right
        branch to each branch (``lefts``, ``rights``)."""
        left, right = self.table.left[at], self.table.right[at]
        distance = 2 * whole[at]
        if self.split.operator is not None:
            paired = left >= 0
            left, right = left[paired], right[paired]
            pairs = lefts[left] + rights[right]
            if self.split.operator in _COMMUTATIVE:
                pairs = np.minimum(pairs, lefts[right] + rights[left])
            distance[paired] = pairs
        return 1.0 - np.minimum(distance, 2.0) / 2.0


def tls(
    ex1: ExamplePair,
    ex2: ExamplePair,
    cfg: SimilarityConfig,
    sem: SemanticProvider,
) -> float:
    """Combined logic + semantic similarity of two (question, formula) pairs.

    alpha * logic_similarity + (1 - alpha) * semantic, with the semantic
    cosine clamped to [0, 1]. At alpha 1 the provider is never consulted
    (logic-only); at alpha 0 the formulas are never compared
    (semantic-only), which also serves as the fallback when a formula
    could not be extracted. To score one target against many
    candidates, use ``scores``.
    """
    alpha = cfg.alpha
    logic = logic_similarity(ex1[1], ex2[1]) if alpha > 0.0 else 0.0
    if alpha == 1.0:
        return logic
    semantic = min(1.0, max(0.0, sem.similarity(ex1[0], ex2[0])))
    return _combine(alpha, logic, semantic)


def semantic_terms(
    queries: Sequence[str], texts: Sequence[str], alpha: float, sem: SemanticProvider
) -> np.ndarray:
    """The semantic term of ``tls`` for each of ``queries`` against each
    of ``texts``, the provider's similarity clamped to [0, 1], as an
    (m, n) float64 array. At alpha 1 it reads 0 and the provider is not
    asked. Otherwise the provider's capabilities decide the calls: one
    block product, ``similarity_rows(queries, texts)``, when it has one;
    else one ``similarities(a, texts)`` per query; else the protocol's
    minimum, one ``similarity`` per pair.
    """
    shape = (len(queries), len(texts))
    if alpha == 1.0:
        return np.zeros(shape)
    if hasattr(sem, "similarity_rows"):
        cosines = sem.similarity_rows(queries, texts)
    elif hasattr(sem, "similarities"):
        cosines = [sem.similarities(a, texts) for a in queries]
    else:
        cosines = [[sem.similarity(a, t) for t in texts] for a in queries]
    # fmax/fmin, like max/min in tls, map a NaN cosine to 0
    semantic = np.fmax(np.asarray(cosines, dtype=np.float64).reshape(shape), 0.0)
    return np.fmin(1.0, semantic, out=semantic)


def bound_exceeds(alpha: float, semantic: np.ndarray, above: float) -> np.ndarray:
    """Where a score whose semantic term is ``semantic`` (elementwise)
    can exceed ``above``: where its bound ``alpha * 1.0 + (1 - alpha) *
    semantic`` does. The cut is exact: the logic term is at most 1, the
    semantic term lies in [0, 1], and IEEE rounding is monotone, so the
    bound is never below ``alpha * logic + (1 - alpha) * semantic`` (the
    threshold algorithm of Fagin, Lotem and Naor, PODS 2001)."""
    return _combine(alpha, 1.0, semantic) > above


def scores(
    target: ExamplePair,
    questions: Sequence[str],
    table: FormulaTable,
    cfg: SimilarityConfig,
    sem: SemanticProvider,
    *,
    rows=None,
    above: float | None = None,
    top: int | None = None,
    semantic: np.ndarray | None = None,
) -> np.ndarray:
    """``tls(target, (q, f))`` for each question ``q`` and the formula
    ``f`` of each entry of ``table``, as a float64 array.

    The values equal ``tls``'s bit for bit when the provider's
    ``similarity_rows`` equals its per-pair ``similarity``: the same
    operations run elementwise in numpy. The semantic term of all
    entries comes from one ``semantic_terms`` row, or from ``semantic``
    (that row, already taken; the provider is then not asked), and one
    table scored against many targets shares its branch distances.

    ``rows`` (entry indices, every entry by default) and ``above`` (a
    score) skip entries: one outside ``rows``, or whose score cannot
    exceed ``above`` (``bound_exceeds``, an exact cut), reads -inf, and
    its formula is not compared. Every other entry holds its exact
    score. At alpha 0 the formula is not
    compared, and at alpha 1 the provider is not asked: the term left
    out reads 0, as in ``tls`` (adding 0.0 leaves a logic term, never
    -0.0, bit for bit). A degenerate target or table raises
    DegenerateInput before the provider is asked, however few entries
    are left to compare.

    ``top`` (a count k) also skips every entry that cannot be among the
    k best or tie with the k-th: each remaining entry gets an upper
    bound, ``alpha * Target.bound(...) + (1 - alpha) * semantic``, and
    entries are scored exactly in descending bound order, in batches of
    k, 2k, 4k and so on (an entry tied with a batch's lowest bound joins
    it), until every bound left is strictly below the k-th best exact
    score so far. No entry left can reach that score, so the k best
    scores and every tie with the k-th are exact. One ``Target`` serves
    the whole loop, so the target is split once and no pair of strings
    is compared twice in one call.
    """
    question, formula = target
    alpha = cfg.alpha
    rows = np.arange(len(questions)) if rows is None else np.asarray(rows, dtype=np.intp)
    if alpha > 0.0:
        table.check(formula)
    if semantic is None:
        semantic = semantic_terms((question,), questions, alpha, sem)[0]
    semantic = semantic[rows]
    if above is not None:
        keep = bound_exceeds(alpha, semantic, above)
        rows, semantic = rows[keep], semantic[keep]
    out = np.full(len(questions), -np.inf)
    if alpha > 0.0 and top is not None and top < len(rows):
        query = Target(table, formula)
        bound = _combine(alpha, query.bound(rows), semantic)
        exact = np.full(len(rows), -np.inf)
        scored = np.zeros(len(rows), dtype=bool)
        size, kth = top, -np.inf
        while (live := np.flatnonzero(~scored & (bound >= kth))).size:
            if len(live) > size:  # the highest bounds left, ties at the cut included
                live = live[bound[live] >= np.partition(bound[live], -size)[-size]]
            exact[live] = _combine(alpha, query.logic(rows[live]), semantic[live])
            scored[live] = True
            size *= 2
            kth = np.partition(exact[scored], -top)[-top]
        out[rows] = exact
    else:
        # with no entry left, nothing is compared
        logic = table.logic(formula, rows) if alpha > 0.0 and len(rows) else 0.0
        out[rows] = _combine(alpha, logic, semantic)
    return out
