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
from typing import Iterator, Sequence

from .errors import SchemaError


@dataclass(frozen=True)
class Problem:
    id: str
    question: str
    answer: float
    source: str = ""


def _not_utf8(exc: UnicodeDecodeError) -> str:
    return f"not UTF-8: byte 0x{exc.object[exc.start]:02x}, {exc.reason}"


def read_jsonl_objects(path: str | os.PathLike) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank line of a
    line-delimited JSON file. The file is read as bytes, cut into lines
    at each newline byte, and each line decoded on its own, so a line
    that is not UTF-8 raises SchemaError naming it; so does a line that
    is not a JSON object, also when it nests past the recursion limit
    or holds an integer past the digit limit."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SchemaError(_not_utf8(exc), line_no)
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise SchemaError(f"invalid JSON: {getattr(exc, 'msg', exc)}", line_no)
            if not isinstance(obj, dict):
                raise SchemaError("record is not an object", line_no)
            yield line_no, obj


REQUIRED = object()  # the default of a field that must be present
TEXT = (str,)
NUMBER = (float,)  # any JSON number: an int is taken as a float

_JSON_NAMES = {
    str: "a string", int: "an integer", float: "a finite number", bool: "a boolean",
    list: "a list", dict: "an object", type(None): "null",
}


def check_fields(obj: dict, table: Sequence[tuple[str, tuple, object]], line: int) -> list:
    """The values of ``table``'s fields in ``obj``, in table order.

    A row is ``(field, accepted JSON types, default)``, where the default
    of a field that must be present is ``REQUIRED``. ``type(value)`` must
    be an accepted type, so a boolean is never a number; a float field
    takes an int as a float, and the number must be finite. Otherwise
    SchemaError names ``line`` and the field.
    """
    values = []
    try:
        for name, kinds, default in table:
            value = obj.get(name, default)
            kind = type(value)
            if kind not in kinds:
                if kind is not int or float not in kinds:
                    break
                value = float(value)
            elif kind is float and not math.isfinite(value):
                break
            values.append(value)
        else:
            return values
    except OverflowError:  # an int beyond the range of a float
        pass
    if name not in obj:
        raise SchemaError("missing field", line, name)
    expected = " or ".join(_JSON_NAMES[k] for k in kinds)
    raise SchemaError(f"{name} is not {expected}", line, name)


def read_json_object(path: str | os.PathLike) -> dict:
    """The JSON object that a whole file holds. Bytes that are not UTF-8
    raise SchemaError at the line of the first bad byte; invalid JSON at
    the decoder's line; JSON too deep or an integer too long to read,
    and a document that is not an object, at line 1."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(_not_utf8(exc), data.count(b"\n", 0, exc.start) + 1)
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {getattr(exc, 'msg', exc)}", getattr(exc, "lineno", 1))
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


_PROBLEM_FIELDS = (
    ("id", TEXT, REQUIRED),
    ("question", TEXT, REQUIRED),
    ("answer", NUMBER, REQUIRED),
    ("source", TEXT, ""),
)


def load_problems(path: str | os.PathLike) -> list[Problem]:
    return [
        Problem(*check_fields(obj, _PROBLEM_FIELDS, line_no))
        for line_no, obj in read_jsonl_objects(path)
    ]


def save_problems(problems: list[Problem], path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in problems:
            record = {"id": p.id, "question": p.question, "answer": p.answer}
            if p.source:
                record["source"] = p.source
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


_GSM8K_ANSWER_RE = re.compile(r"####\s*(-?[\d,]+(?:\.\d+)?)")
# a raw GSM8K line; the number after '####' in its answer text is the answer
_GSM8K_FIELDS = (
    ("id", TEXT, ""),
    ("question", TEXT, REQUIRED),
    ("answer", TEXT, REQUIRED),
)


def import_gsm8k(in_path, out_path, source: str = "gsm8k") -> int:
    """Convert raw GSM8K jsonl (question + worked 'answer' text ending in
    '#### <number>') to the dataset format; returns the record count. A
    line without an id, or with an empty one, gets ``<source>-<line number>``."""
    problems = []
    for line_no, obj in read_jsonl_objects(in_path):
        pid, question, worked = check_fields(obj, _GSM8K_FIELDS, line_no)
        match = _GSM8K_ANSWER_RE.search(worked)
        answer = float(match.group(1).replace(",", "")) if match else math.nan
        if not math.isfinite(answer):
            raise SchemaError("no finite '#### <number>' final answer", line_no, "answer")
        problems.append(Problem(pid or f"{source}-{line_no}", question, answer, source))
    save_problems(problems, out_path)
    return len(problems)


def subsample(problems: list[Problem], n: int, seed: int) -> list[Problem]:
    """Deterministic seeded subsample, preserving dataset order."""
    if n >= len(problems):
        return list(problems)
    rng = random.Random(seed)
    picked = sorted(rng.sample(range(len(problems)), n))
    return [problems[i] for i in picked]
