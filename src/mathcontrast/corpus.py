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
from dataclasses import dataclass, field

from .datasets import read_jsonl_objects
from .errors import ParseError, SchemaError
from .formula import AlignedFormula, align_variables
from .similarity import Scorer, SemanticProvider, SimilarityConfig
from .similarity import tls  # noqa: F401 - unused here; perfbench/ patches corpus.tls

REL_TOL = 1e-4
ABS_TOL = 1e-6


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
    preserved, so the pass is idempotent.
    """
    kept: list[ReferenceExample] = []
    for ex in examples:
        score = Scorer((ex.question, ex.right_formula), cfg, sem)
        if any(score(k.question, k.right_formula) > cfg.dedup_threshold for k in kept):
            continue
        kept.append(ex)
    return kept


# ---------------------------------------------------------------------------
# Persistence (line-delimited JSON)
# ---------------------------------------------------------------------------

_EXAMPLE_FIELDS = (
    "id",
    "question",
    "right_reasoning",
    "right_formula",
    "wrong_reasoning",
    "wrong_formula",
    "explanation",
    "gold_answer",
    "source_dataset",
)


def example_to_dict(ex: ReferenceExample) -> dict:
    return {
        "id": ex.id,
        "question": ex.question,
        "right_reasoning": ex.right_reasoning,
        "right_formula": ex.right_formula.origin,
        "wrong_reasoning": ex.wrong_reasoning,
        "wrong_formula": ex.wrong_formula.origin,
        "explanation": ex.explanation,
        "gold_answer": ex.gold_answer,
        "source_dataset": ex.source_dataset,
    }


def example_from_dict(obj: dict, line: int) -> ReferenceExample:
    for name in _EXAMPLE_FIELDS:
        if name not in obj:
            raise SchemaError("missing field", line, name)
    try:
        gold = float(obj["gold_answer"])
        if not math.isfinite(gold):
            raise ValueError
    except (TypeError, ValueError):
        raise SchemaError("gold_answer is not a finite number", line, "gold_answer")
    formulas = {}
    for name in ("right_formula", "wrong_formula"):
        try:
            formulas[name] = align_variables(str(obj[name]))
        except ParseError as exc:
            raise SchemaError(f"formula does not parse: {exc}", line, name)
    return ReferenceExample(
        id=str(obj["id"]),
        question=str(obj["question"]),
        right_reasoning=str(obj["right_reasoning"]),
        right_formula=formulas["right_formula"],
        wrong_reasoning=str(obj["wrong_reasoning"]),
        wrong_formula=formulas["wrong_formula"],
        explanation=str(obj["explanation"]),
        gold_answer=gold,
        source_dataset=str(obj["source_dataset"]),
    )


def save(examples: list[ReferenceExample], path: str | os.PathLike) -> None:
    """Write a corpus, one JSON record per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps(example_to_dict(ex), ensure_ascii=False) + "\n")


def load(path: str | os.PathLike) -> list[ReferenceExample]:
    """Read a corpus; empty file yields an empty list."""
    return [example_from_dict(obj, line_no) for line_no, obj in read_jsonl_objects(path)]


def record_to_dict(rec: ScreeningRecord) -> dict:
    return {
        "problem_id": rec.problem_id,
        "question": rec.question,
        "gold_answer": rec.gold_answer,
        "source_dataset": rec.source_dataset,
        "attempt_count": rec.attempt_count,
        "attempts": [
            {
                "reasoning": a.reasoning,
                "formula": a.formula,
                "answer": a.answer,
                "correct": a.correct,
            }
            for a in rec.attempts
        ],
    }


def record_from_dict(obj: dict, line: int) -> ScreeningRecord:
    for name in ("problem_id", "question", "gold_answer", "attempts"):
        if name not in obj:
            raise SchemaError("missing field", line, name)
    try:
        gold = float(obj["gold_answer"])
    except (TypeError, ValueError):
        raise SchemaError("gold_answer is not a number", line, "gold_answer")
    if not isinstance(obj["attempts"], list):
        raise SchemaError("attempts is not a list", line, "attempts")
    attempts = []
    for att in obj["attempts"]:
        if not isinstance(att, dict):
            raise SchemaError("attempt is not an object", line, "attempts")
        answer = att.get("answer")
        try:
            answer = None if answer is None else float(answer)
        except (TypeError, ValueError):
            raise SchemaError("attempt answer is not a number", line, "attempts")
        attempts.append(
            Attempt(
                reasoning=str(att.get("reasoning", "")),
                formula=str(att.get("formula", "")),
                answer=answer,
                correct=bool(att.get("correct")),
            )
        )
    return ScreeningRecord(
        problem_id=str(obj["problem_id"]),
        question=str(obj["question"]),
        gold_answer=gold,
        attempts=tuple(attempts),
        source_dataset=str(obj.get("source_dataset", "")),
    )


def append_screening_record(rec: ScreeningRecord, path: str | os.PathLike) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record_to_dict(rec), ensure_ascii=False) + "\n")


def load_screening_log(path: str | os.PathLike) -> list[ScreeningRecord]:
    return [record_from_dict(obj, line_no) for line_no, obj in read_jsonl_objects(path)]
