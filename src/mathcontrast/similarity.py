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
from .formula import AlignedFormula

log = logging.getLogger(__name__)

# '+' and '-' bind last, so they sit at the true top of the tree;
# preferred over '*' and '/' when split balance ties.
_LOW_PRECEDENCE = {"+", "-"}
_COMMUTATIVE = {"+", "*"}


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
        if not 0.0 <= self.dedup_threshold <= 1.0 + 1e-9:
            raise ValueError(f"dedup_threshold out of range: {self.dedup_threshold}")


@dataclass(frozen=True)
class SplitResult:
    """A formula split at one top-level operator; reassembling
    left + operator + right reconstructs the input."""

    operator: str | None
    left: str
    right: str


class SemanticProvider(Protocol):
    """Similarity of two question texts, in [-1, 1]."""

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


def split_balanced(a: AlignedFormula | str) -> SplitResult:
    """Split at the depth-0 operator that best balances the two halves.

    Candidates are binary operators outside all parentheses (the char
    before must close an operand, which rules out unary minus). Ties on
    balance prefer '+'/'-' over '*'/'/', then the leftmost. With no
    candidate the operator is None and the input is returned whole.
    """
    a = _text(a)
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


def _split_distance(a: str, sa: SplitResult, b: str, sb: SplitResult, dist) -> float:
    """Tree distance of two formulas from their splits, with ``dist`` the
    norm_distance of two strings."""
    if sa.operator is None or sb.operator is None:
        return 2 * dist(a, b)
    in_order = dist(sa.left, sb.left) + dist(sa.right, sb.right)
    if sa.operator in _COMMUTATIVE:
        swapped = dist(sa.left, sb.right) + dist(sa.right, sb.left)
        return min(in_order, swapped)
    return in_order


def tree_distance(a: AlignedFormula | str, b: AlignedFormula | str) -> float:
    """Split-based tree distance between two aligned formulas.

    Both inputs are split once; the branch pairs are compared with
    norm_distance. A commutative split operator on the first formula
    ('+' or '*') allows the branches to be matched in either pairing,
    taking the minimum; '-' and '/' fix the order. When either side has
    no top-level operator the fallback is 2*norm_distance(a, b), which
    matches the scale of the two-branch sum.
    """
    a, b = _text(a), _text(b)
    if not a or not b:
        raise DegenerateInput("tree_distance requires non-empty operands")
    return _split_distance(a, split_balanced(a), b, split_balanced(b), norm_distance)


def logic_similarity(a: AlignedFormula | str, b: AlignedFormula | str) -> float:
    """Map tree_distance (range [0, 2]) onto a descending-sortable
    similarity in [0, 1]."""
    return _distance_to_similarity(tree_distance(a, b))


def _distance_to_similarity(distance: float) -> float:
    return 1.0 - min(distance, 2.0) / 2.0


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


class Scorer:
    """The combined score of one target (question, formula) against many
    candidates, as ``tls(target, candidate, cfg, sem)``.

    The target is split once. For the scorer's lifetime the logic
    similarity is memoized per distinct candidate formula text, and
    norm_distance per distinct branch pair, so a corpus with few
    distinct formulas costs few edit distances. The semantic term is
    asked of the provider per candidate.
    """

    def __init__(self, target: ExamplePair, cfg: SimilarityConfig, sem: SemanticProvider):
        self.question, formula = target
        self.alpha = cfg.alpha
        self.sem = sem
        self.text = _text(formula) if self.alpha > 0.0 else ""
        self.split = split_balanced(self.text) if self.text else None
        self._logic_memo: dict[str, float] = {}
        self._branch_memo: dict[tuple[str, str], float] = {}

    def _branch_distance(self, a: str, b: str) -> float:
        key = (a, b)
        hit = self._branch_memo.get(key)
        if hit is None:
            hit = self._branch_memo[key] = norm_distance(a, b)
        return hit

    def logic(self, formula: AlignedFormula | str) -> float:
        """logic_similarity(target formula, formula)."""
        text = _text(formula)
        hit = self._logic_memo.get(text)
        if hit is None:
            if self.split is None or not text:
                raise DegenerateInput("tree_distance requires non-empty operands")
            distance = _split_distance(
                self.text, self.split, text, split_balanced(text), self._branch_distance
            )
            hit = self._logic_memo[text] = _distance_to_similarity(distance)
        return hit

    def __call__(self, question: str, formula: AlignedFormula | str) -> float:
        alpha = self.alpha
        logic = self.logic(formula) if alpha > 0.0 else 0.0
        if alpha == 1.0:
            return logic
        semantic = min(1.0, max(0.0, self.sem.similarity(self.question, question)))
        return alpha * logic + (1.0 - alpha) * semantic


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
    candidates, build a ``Scorer`` once instead.
    """
    return Scorer(ex1, cfg, sem)(*ex2)
