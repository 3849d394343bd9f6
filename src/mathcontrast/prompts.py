"""Prompt templates and built-in example sets.

Every template is a plain text file under ``resources/`` keyed by name,
so prompts can be edited without touching code; a directory of
same-named files overrides the built-ins. Three fixed example sets
ship alongside the step templates: ``fix`` and ``hard`` (plain Q/A
few-shot bodies) and ``contrastive`` (four worked right/wrong examples
in the corpus schema).
"""

from __future__ import annotations

import functools
from importlib import resources
from pathlib import Path

from .corpus import ReferenceExample, load

TEMPLATE_NAMES = (
    "step1_conditions",
    "step2_plan",
    "step3_algebraic",
    "solve_instruction",
    "contrastive_header",
    "fix_examples",
    "hard_examples",
)


class PromptLibrary:
    """Named prompt texts with optional per-name overrides, each read once."""

    def __init__(self, overrides: dict[str, str] | None = None):
        self._texts = dict(overrides or {})

    @classmethod
    def from_dir(cls, directory: str | Path) -> "PromptLibrary":
        """Override built-ins with ``<name>.txt`` files found in a directory."""
        overrides = {}
        for name in TEMPLATE_NAMES:
            candidate = Path(directory) / f"{name}.txt"
            if candidate.exists():
                overrides[name] = candidate.read_text(encoding="utf-8").rstrip("\n")
        return cls(overrides)

    def get(self, name: str) -> str:
        text = self._texts.get(name)
        if text is None:
            if name not in TEMPLATE_NAMES:
                raise KeyError(f"unknown prompt template {name!r}")
            text = self._texts[name] = _builtin_text(name)
        return text


def _builtin_text(name: str) -> str:
    path = resources.files("mathcontrast.resources") / f"{name}.txt"
    return path.read_text(encoding="utf-8").rstrip("\n")


@functools.lru_cache(maxsize=1)
def default_prompts() -> PromptLibrary:
    return PromptLibrary()


def contrastive_examples() -> list[ReferenceExample]:
    """The four built-in right/wrong reference examples."""
    with resources.as_file(
        resources.files("mathcontrast.resources") / "contrastive_examples.jsonl"
    ) as path:
        return load(path)


def fixed_prompt(name: str, question: str, lib: PromptLibrary | None = None) -> str:
    """A full prompt from one of the plain few-shot bodies (fix or hard)."""
    lib = lib or default_prompts()
    body = lib.get(f"{name}_examples")
    return f"{body}\n\nQ: {question}\n\nA:"
