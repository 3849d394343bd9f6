"""Problem datasets: line-delimited records with id, question, answer.

Covers SVAMP-style direct answers as-is; GSM8K-style records (answer
embedded in a worked solution after '####') go through the one-time
import helper.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass
from typing import Iterator

from .errors import SchemaError


@dataclass(frozen=True)
class Problem:
    id: str
    question: str
    answer: float
    source: str = ""


def read_jsonl_objects(path: str | os.PathLike) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank line of a
    line-delimited JSON file; a line that is not a JSON object raises
    SchemaError naming it."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"invalid JSON: {exc.msg}", line_no)
            if not isinstance(obj, dict):
                raise SchemaError("record is not an object", line_no)
            yield line_no, obj


def read_json_object(path: str | os.PathLike) -> dict:
    """The JSON object that a whole file holds. Invalid JSON raises
    SchemaError at the decoder's line, and a document that is not an
    object raises it at line 1."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", exc.lineno)
    if not isinstance(obj, dict):
        raise SchemaError("document is not an object", 1)
    return obj


def end_last_line(path: str | os.PathLike) -> bytes:
    """Make a line-delimited JSON file end at a line boundary, so that
    the next append starts a line of its own.

    A last line without its newline is completed when it is valid JSON
    and cut off when it is not: that is an append torn by a crash.
    Returns the bytes cut off, empty when none were.
    """
    with open(path, "rb+") as fh:
        data = fh.read()
        if not data or data.endswith(b"\n"):
            return b""
        start = data.rfind(b"\n") + 1
        try:
            json.loads(data[start:])
        except ValueError:
            fh.truncate(start)
            return data[start:]
        fh.write(b"\n")
        return b""


def load_problems(path: str | os.PathLike) -> list[Problem]:
    problems = []
    for line_no, obj in read_jsonl_objects(path):
        for name in ("id", "question", "answer"):
            if name not in obj:
                raise SchemaError("missing field", line_no, name)
        try:
            answer = float(obj["answer"])
            if not math.isfinite(answer):
                raise ValueError
        except (TypeError, ValueError):
            raise SchemaError("answer is not a finite number", line_no, "answer")
        problems.append(
            Problem(
                id=str(obj["id"]),
                question=str(obj["question"]),
                answer=answer,
                source=str(obj.get("source", "")),
            )
        )
    return problems


def save_problems(problems: list[Problem], path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in problems:
            record = {"id": p.id, "question": p.question, "answer": p.answer}
            if p.source:
                record["source"] = p.source
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


_GSM8K_ANSWER_RE = re.compile(r"####\s*(-?[\d,]+(?:\.\d+)?)")


def import_gsm8k(in_path, out_path, source: str = "gsm8k") -> int:
    """Convert raw GSM8K jsonl (question + worked 'answer' text ending in
    '#### <number>') to the dataset format; returns the record count."""
    problems = []
    for line_no, obj in read_jsonl_objects(in_path):
        match = _GSM8K_ANSWER_RE.search(str(obj.get("answer", "")))
        if not match:
            raise SchemaError("no '#### <number>' final answer", line_no, "answer")
        if "question" not in obj:
            raise SchemaError("missing field", line_no, "question")
        problems.append(
            Problem(
                id=str(obj.get("id", f"{source}-{line_no}")),
                question=obj["question"],
                answer=float(match.group(1).replace(",", "")),
                source=source,
            )
        )
    save_problems(problems, out_path)
    return len(problems)


def subsample(problems: list[Problem], n: int, seed: int) -> list[Problem]:
    """Deterministic seeded subsample, preserving dataset order."""
    if n >= len(problems):
        return list(problems)
    rng = random.Random(seed)
    picked = sorted(rng.sample(range(len(problems)), n))
    return [problems[i] for i in picked]
