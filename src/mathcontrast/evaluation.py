"""Run-level scoring and error-taxonomy tallies.

Accuracy is the majority-vote solve rate; latent accuracy counts a
problem as solved when any sampled guess was correct, an upper bound on
what better answer selection could reach. Error annotations are
human-made, one of four kinds; this module only stores and tallies
them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .datasets import read_jsonl_objects
from .errors import MissingGold, SchemaError, UnknownKind
from .pipeline import SolveTrace

ERROR_KINDS = ("comprehension", "calculation", "logic", "equation")


@dataclass(frozen=True)
class ErrorAnnotation:
    problem_id: str
    kind: str
    note: str = ""
    annotator: str = ""

    def __post_init__(self):
        if self.kind not in ERROR_KINDS:
            raise UnknownKind(
                f"unknown error kind {self.kind!r}; expected one of {ERROR_KINDS}"
            )


@dataclass(frozen=True)
class ErrorTally:
    counts: dict[str, int]
    percents: dict[str, float]
    total: int

    def format_table(self) -> str:
        lines = [
            f"{kind:<15} {self.counts[kind]}({self.percents[kind]}%)"
            for kind in ERROR_KINDS
        ]
        lines.append(f"{'total':<15} {self.total}")
        return "\n".join(lines)


@dataclass(frozen=True)
class EvalReport:
    total: int
    correct: int
    accuracy: float
    latent_correct: int
    latent_accuracy: float
    per_problem: tuple[dict, ...]
    error_tallies: dict[str, int] = field(default_factory=dict)


def evaluate(
    traces: list[SolveTrace],
    annotations: list[ErrorAnnotation] | None = None,
) -> EvalReport:
    """Aggregate solve traces into accuracy and latent accuracy.

    Every trace must carry a gold answer. An empty run reports zero
    accuracy rather than NaN so reports stay stable.
    """
    for trace in traces:
        if trace.gold_answer is None:
            raise MissingGold(f"trace {trace.problem_id!r} has no gold answer")
    total = len(traces)
    correct = sum(t.majority_correct for t in traces)
    latent = sum(t.any_correct for t in traces)
    per_problem = tuple(
        {
            "problem_id": t.problem_id,
            "voted_answer": t.voted_answer,
            "gold_answer": t.gold_answer,
            "majority_correct": t.majority_correct,
            "any_correct": t.any_correct,
            "guess_count": len(t.guesses),
            "retrieved": [list(pair) for pair in t.retrieved],
            "strategy": t.strategy,
        }
        for t in traces
    )
    tallies = tally_errors(annotations).counts if annotations else {}
    return EvalReport(
        total=total,
        correct=correct,
        accuracy=correct / total if total else 0.0,
        latent_correct=latent,
        latent_accuracy=latent / total if total else 0.0,
        per_problem=per_problem,
        error_tallies=tallies,
    )


def tally_errors(annotations: list[ErrorAnnotation]) -> ErrorTally:
    """Counts and one-decimal percentages per error kind."""
    counts = {kind: 0 for kind in ERROR_KINDS}
    for ann in annotations:
        if ann.kind not in ERROR_KINDS:
            raise UnknownKind(f"unknown error kind {ann.kind!r}")
        counts[ann.kind] += 1
    total = sum(counts.values())
    percents = {
        kind: round(100.0 * counts[kind] / total, 1) if total else 0.0
        for kind in ERROR_KINDS
    }
    return ErrorTally(counts=counts, percents=percents, total=total)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def load_annotations(path: str | os.PathLike) -> list[ErrorAnnotation]:
    """Line-delimited JSON with fields problem_id, kind, note, annotator."""
    annotations = []
    for line_no, obj in read_jsonl_objects(path):
        try:
            annotations.append(
                ErrorAnnotation(
                    problem_id=str(obj.get("problem_id", "")),
                    kind=str(obj.get("kind", "")),
                    note=str(obj.get("note", "")),
                    annotator=str(obj.get("annotator", "")),
                )
            )
        except UnknownKind as exc:
            raise SchemaError(str(exc), line_no, "kind")
    return annotations


def trace_to_dict(trace: SolveTrace) -> dict:
    return {
        "problem_id": trace.problem_id,
        "retrieved": [list(pair) for pair in trace.retrieved],
        "prompt_text": trace.prompt_text,
        "guesses": [list(pair) for pair in trace.guesses],
        "voted_answer": trace.voted_answer,
        "gold_answer": trace.gold_answer,
        "majority_correct": trace.majority_correct,
        "any_correct": trace.any_correct,
        "strategy": trace.strategy,
    }


def save_report(report: EvalReport, traces: list[SolveTrace], out_dir) -> None:
    """Write per-problem records (traces.jsonl) and the summary block
    (summary.json) into the output directory."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "traces.jsonl"), "w", encoding="utf-8") as fh:
        for trace in traces:
            fh.write(json.dumps(trace_to_dict(trace), ensure_ascii=False) + "\n")
    summary = {
        "total": report.total,
        "correct": report.correct,
        "accuracy": report.accuracy,
        "latent_correct": report.latent_correct,
        "latent_accuracy": report.latent_accuracy,
        "error_tallies": report.error_tallies,
        "per_problem": list(report.per_problem),
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, ensure_ascii=False, indent=2)
