"""Reference-example corpus: screening, dedup, and persistence.

A problem is admitted as a reference example only when repeated solving
produced both a correct and an incorrect attempt, so the corpus carries
real model failures rather than synthetic negatives. Examples and
screening records persist as line-delimited JSON.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .datasets import NUMBER, REQUIRED, TEXT, check_fields, read_jsonl_objects
from .errors import ParseError, SchemaError
from .formula import AlignedFormula, align_variables
from . import similarity
from .similarity import FormulaTable, SemanticProvider, SimilarityConfig
from .similarity import tls  # noqa: F401 - unused here; perfbench/ patches corpus.tls

REL_TOL = 1e-4
ABS_TOL = 1e-6
# candidate x entry cells in one block of dedup: 10 candidates on a
# 200-entry corpus. Larger blocks save little time, and BLAS's buffers
# for the larger product raise the peak RSS
DEDUP_BLOCK_CELLS = 1 << 11


def answers_match(a: float | None, b: float | None) -> bool:
    """Numeric answer equality at relative 1e-4 (absolute 1e-6 near zero),
    tolerant of formatting like '5590' vs '5590.0'."""
    if a is None or b is None:
        return False
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


@dataclass(frozen=True)
class ReferenceExample:
    """One screened problem with its contrasting solutions."""

    id: str
    question: str
    right_reasoning: str
    right_formula: AlignedFormula
    wrong_reasoning: str
    wrong_formula: AlignedFormula
    explanation: str
    gold_answer: float
    source_dataset: str = ""

    def __post_init__(self):
        if not math.isfinite(self.gold_answer):
            raise ValueError(f"gold_answer must be finite, got {self.gold_answer}")


@dataclass(frozen=True)
class Attempt:
    reasoning: str
    formula: str
    answer: float | None
    correct: bool


@dataclass(frozen=True)
class ScreeningRecord:
    """All attempts at one problem during the screening phase.

    Carries the question and gold answer so admitted problems can be
    turned into reference examples without a second dataset pass.
    """

    problem_id: str
    question: str
    gold_answer: float
    attempts: tuple[Attempt, ...] = field(default_factory=tuple)
    source_dataset: str = ""

    @property
    def attempt_count(self) -> int:
        return len(self.attempts)


class RetrievalIndex:
    """What scoring a target against a corpus needs, built once from its
    entries: the question texts, the ``FormulaTable`` of the right
    formulas, and each entry's rank in ascending id order."""

    def __init__(self, examples: Sequence[ReferenceExample]):
        self.entries = list(examples)
        self.questions = tuple(ex.question for ex in self.entries)
        self.table = FormulaTable([ex.right_formula for ex in self.entries])
        # Python's str order; a numpy 'U' array would drop trailing NULs
        by_id = sorted(range(len(self.entries)), key=lambda i: self.entries[i].id)
        self.id_rank = np.empty(len(by_id), dtype=np.intp)
        self.id_rank[by_id] = np.arange(len(by_id))


class Corpus(list):
    """A list of reference examples that keeps one ``RetrievalIndex``.

    The index is built on first use and built again whenever the entries
    no longer equal the ones it was built from (one list comparison on
    each use, which passes over identical entries without calling their
    ``__eq__``), so a corpus can be edited like any list. An entry
    replaced by an equal example keeps the index, which goes on holding
    the entry it was built from. Threads may share one corpus.
    """

    def __init__(self, examples=()):
        super().__init__(examples)
        self._index: RetrievalIndex | None = None
        self._lock = threading.Lock()

    def __reduce__(self):
        # a copy or a pickle carries the entries, not the index or the lock
        return Corpus, (list(self),)

    def index(self) -> RetrievalIndex:
        index = self._index
        if index is None or index.entries != self:
            with self._lock:
                index = self._index
                if index is None or index.entries != self:
                    index = self._index = RetrievalIndex(self)
        return index


def retrieval_index(examples: Sequence[ReferenceExample]) -> RetrievalIndex:
    """The kept index of a ``Corpus``; a fresh one for any other sequence."""
    return examples.index() if isinstance(examples, Corpus) else RetrievalIndex(examples)


def _first_alignable(attempts) -> tuple[Attempt, AlignedFormula] | None:
    for att in attempts:
        if not att.formula:
            continue
        try:
            return att, align_variables(att.formula)
        except ParseError:
            continue
    return None


def screen(records: list[ScreeningRecord]) -> list[ReferenceExample]:
    """Admit problems whose attempts mixed correct and incorrect outcomes.

    The first correct attempt supplies the right reasoning/formula and
    the first incorrect one the wrong pair; attempts whose formula does
    not align are passed over. The explanation starts empty and can be
    filled by a later pass or by hand.
    """
    admitted = []
    for rec in records:
        right = _first_alignable(a for a in rec.attempts if a.correct)
        wrong = _first_alignable(a for a in rec.attempts if not a.correct)
        if right is None or wrong is None:
            continue
        admitted.append(
            ReferenceExample(
                id=rec.problem_id,
                question=rec.question,
                right_reasoning=right[0].reasoning,
                right_formula=right[1],
                wrong_reasoning=wrong[0].reasoning,
                wrong_formula=wrong[1],
                explanation="",
                gold_answer=rec.gold_answer,
                source_dataset=rec.source_dataset,
            )
        )
    return admitted


def dedup(
    examples: list[ReferenceExample],
    cfg: SimilarityConfig,
    sem: SemanticProvider,
) -> list[ReferenceExample]:
    """Drop near-clones in a greedy scan.

    An example is dropped when its combined similarity against any
    already-kept example exceeds the dedup threshold; order is
    preserved, so the pass is idempotent. The examples after the first
    are scored against the retrieval index (kept by a ``Corpus`` for a
    later ``rank``) in blocks of at most ``DEDUP_BLOCK_CELLS`` candidate
    x entry cells. A block takes its semantic terms in one
    ``similarity.semantic_terms`` call (one matrix product with the
    offline provider) and bounds every cell by ``alpha * 1.0 + (1 -
    alpha) * semantic``, an exact cut (``similarity.bound_exceeds``).
    Each candidate, in order, keeps the entries kept before it whose
    cell survives the cut; one with none left is kept at once. Only a
    candidate with a survivor calls ``similarity.scores``, the exact
    scorer, on those entries, passing its row of the block so the
    provider is not asked again.

    With integer embeddings, such as the offline provider's counts, the
    scores equal per-pair ``tls`` bit for bit; float embeddings may
    differ from per-pair ``similarity`` in the last bit. Like the
    per-pair scan, two or more entries with one that cannot be scored
    raise DegenerateInput or ZeroVector, DegenerateInput first.
    """
    index = retrieval_index(examples)
    n, alpha, threshold = len(index.entries), cfg.alpha, cfg.dedup_threshold
    if n > 1 and alpha > 0.0:
        # as tls would at the first pair, before the provider is asked
        index.table.check(index.entries[0].right_formula)
    kept = np.zeros(n, dtype=bool)
    kept[:1] = True
    step = max(1, DEDUP_BLOCK_CELLS // max(n, 1))
    for start in range(1, n, step):
        stop = min(start + step, n)
        semantic = similarity.semantic_terms(index.questions[start:stop], index.questions, alpha, sem)
        live = similarity.bound_exceeds(alpha, semantic, threshold)
        for i in range(start, stop):
            rows = np.flatnonzero(live[i - start, :i] & kept[:i])
            if rows.size:
                target = (index.entries[i].question, index.entries[i].right_formula)
                row = similarity.scores(
                    target, index.questions, index.table, cfg, sem, rows=rows, semantic=semantic[i - start]
                )
                kept[i] = not (row > threshold).any()
            else:
                kept[i] = True
    return [ex for ex, keep in zip(index.entries, kept) if keep]


# ---------------------------------------------------------------------------
# Persistence (line-delimited JSON)
# ---------------------------------------------------------------------------

_EXAMPLE_FIELDS = (
    ("id", TEXT, REQUIRED),
    ("question", TEXT, REQUIRED),
    ("right_reasoning", TEXT, REQUIRED),
    ("right_formula", TEXT, REQUIRED),
    ("wrong_reasoning", TEXT, REQUIRED),
    ("wrong_formula", TEXT, REQUIRED),
    ("explanation", TEXT, REQUIRED),
    ("gold_answer", NUMBER, REQUIRED),
    ("source_dataset", TEXT, REQUIRED),
)
_RECORD_FIELDS = (
    ("problem_id", TEXT, REQUIRED),
    ("question", TEXT, REQUIRED),
    ("gold_answer", NUMBER, REQUIRED),
    ("attempts", (list,), REQUIRED),
    ("source_dataset", TEXT, ""),
)
# one attempt of a screening record; SchemaError names its fields "attempts[<i>].<field>"
_ATTEMPT_FIELDS = (
    ("reasoning", TEXT, ""),
    ("formula", TEXT, ""),
    ("answer", (float, type(None)), None),
    ("correct", (bool,), False),
)


def example_to_dict(ex: ReferenceExample) -> dict:
    obj = {name: getattr(ex, name) for name, _kinds, _default in _EXAMPLE_FIELDS}
    obj["right_formula"], obj["wrong_formula"] = ex.right_formula.origin, ex.wrong_formula.origin
    return obj


# digits 1-9 as '0', for the shape key of a formula (see load)
_ZERO_DIGITS = bytes.maketrans(b"123456789", b"000000000")


def _align_shape(raw: str, shapes: dict[bytes, AlignedFormula]) -> AlignedFormula:
    """``align_variables(raw)``, taken from ``shapes`` when an ASCII
    formula of the same shape has aligned before; a success is stored."""
    if not raw.isascii():
        return align_variables(raw)
    key = raw.encode().translate(_ZERO_DIGITS).replace(b"00", b"0")
    known = shapes.get(key)
    if known is None:
        known = shapes[key] = align_variables(raw)
        return known
    return AlignedFormula(known.text, known.token_count, raw)


def example_from_dict(obj: dict, line: int, shapes: dict[bytes, AlignedFormula]) -> ReferenceExample:
    """One corpus line's example; ``shapes`` carries aligned formulas by
    shape from line to line (see ``load``)."""
    values = check_fields(obj, _EXAMPLE_FIELDS, line)
    for i in (3, 5):  # right_formula, wrong_formula
        try:
            values[i] = _align_shape(values[i], shapes)
        except ParseError as exc:
            raise SchemaError(f"formula does not parse: {exc}", line, _EXAMPLE_FIELDS[i][0])
    return ReferenceExample(*values)


def save(examples: list[ReferenceExample], path: str | os.PathLike) -> None:
    """Write a corpus, one JSON record per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps(example_to_dict(ex), ensure_ascii=False) + "\n")


def load(path: str | os.PathLike) -> Corpus:
    """Read a corpus; empty file yields an empty one.

    Formulas are stored raw and aligned here, once per shape: two ASCII
    formulas that differ only in the values and lengths of their digit
    runs align to the same text and operand count, since alignment reads
    a digit run only as a run of digits. The shape is the formula's
    bytes with 1-9 as '0' and each "00" as "0". One dict of
    the shapes aligned so far lives for this call only; a hit shares the
    aligned text and keeps the formula's own origin. Other text, and a
    formula that does not align, is aligned afresh each time, so a bad
    formula raises the same ``SchemaError`` as on its own.
    """
    shapes: dict[bytes, AlignedFormula] = {}
    return Corpus(example_from_dict(obj, line_no, shapes) for line_no, obj in read_jsonl_objects(path))


def record_to_dict(rec: ScreeningRecord) -> dict:
    return {
        "problem_id": rec.problem_id,
        "question": rec.question,
        "gold_answer": rec.gold_answer,
        "source_dataset": rec.source_dataset,
        "attempt_count": rec.attempt_count,
        "attempts": [
            {name: getattr(a, name) for name, _kinds, _default in _ATTEMPT_FIELDS}
            for a in rec.attempts
        ],
    }


def record_from_dict(obj: dict, line: int) -> ScreeningRecord:
    values = check_fields(obj, _RECORD_FIELDS, line)
    attempts = []
    for i, att in enumerate(values[3]):
        if type(att) is not dict:
            raise SchemaError("attempt is not an object", line, f"attempts[{i}]")
        try:
            attempts.append(Attempt(*check_fields(att, _ATTEMPT_FIELDS, line)))
        except SchemaError as exc:
            raise SchemaError(exc.message, line, f"attempts[{i}].{exc.field}") from None
    values[3] = tuple(attempts)
    return ScreeningRecord(*values)


def append_screening_record(rec: ScreeningRecord, path: str | os.PathLike) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record_to_dict(rec), ensure_ascii=False) + "\n")


def load_screening_log(path: str | os.PathLike) -> list[ScreeningRecord]:
    return [record_from_dict(obj, line_no) for line_no, obj in read_jsonl_objects(path)]
