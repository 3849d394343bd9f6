import numpy as np
import pytest

from mathcontrast import prompts
from mathcontrast.pipeline import rank
from mathcontrast.prompts import (
    PromptLibrary,
    contrastive_examples,
    default_prompts,
    fixed_prompt,
)
from mathcontrast.semantic import HashingNgramProvider
from mathcontrast.similarity import SimilarityConfig, tls


def test_builtin_templates_resolve():
    lib = default_prompts()
    assert lib.get("step1_conditions") == "List the known conditions."
    assert "devise a plan" in lib.get("step2_plan")
    assert "algebraic form" in lib.get("step3_algebraic")
    assert lib.get("solve_instruction").startswith("Given a math problem")
    assert lib.get("contrastive_header").endswith("wrong answers.")


def test_each_template_is_read_once(monkeypatch):
    reads = []
    builtin_text = prompts._builtin_text

    def counted(name):
        reads.append(name)
        return builtin_text(name)

    monkeypatch.setattr(prompts, "_builtin_text", counted)
    lib = PromptLibrary()
    first = lib.get("step2_plan")
    assert lib.get("step2_plan") == first
    assert reads == ["step2_plan"]
    with pytest.raises(KeyError):
        lib.get("no_such_template")
    assert reads == ["step2_plan"]


def test_unknown_template_rejected():
    with pytest.raises(KeyError):
        default_prompts().get("no_such_template")


def test_directory_overrides_builtin(tmp_path):
    (tmp_path / "step1_conditions.txt").write_text("Enumerate the facts.\n")
    lib = PromptLibrary.from_dir(tmp_path)
    assert lib.get("step1_conditions") == "Enumerate the facts."
    # untouched names still resolve to the built-ins
    assert lib.get("step2_plan") == default_prompts().get("step2_plan")


def test_fixed_prompt_shapes():
    for name in ("fix", "hard"):
        prompt = fixed_prompt(name, "How many marbles?")
        assert prompt.startswith("These are some examples for solving math problem:")
        assert prompt.endswith("Q: How many marbles?\n\nA:")


def test_contrastive_examples_are_valid_corpus_entries():
    examples = contrastive_examples()
    assert [ex.id for ex in examples] == [f"contrastive-{i}" for i in range(1, 5)]
    assert [ex.gold_answer for ex in examples] == [39.0, 332.0, 5590.0, 4.0]
    assert examples[2].right_formula.text == "(@-@)*@"


class _ScaledProvider(HashingNgramProvider):
    """Same n-gram embedding scaled by a positive constant."""

    def __init__(self, factor: float):
        super().__init__()
        self.factor = factor

    def embed(self, text: str) -> np.ndarray:
        return self.factor * super().embed(text)


def test_embedding_scale_leaves_scores_and_ranking_unchanged():
    cfg = SimilarityConfig(alpha=0.7)
    base = HashingNgramProvider()
    scaled = _ScaledProvider(4.0)
    pairs = [
        (("How many apples?", "@+@"), ("How many pears?", "@-@")),
        (("A train travels far.", "@*@"), ("A car drives home.", "@*@/@")),
    ]
    for ex1, ex2 in pairs:
        assert tls(ex1, ex2, cfg, base) == tls(ex1, ex2, cfg, scaled)

    examples = contrastive_examples()
    target = ("How many chocolates are left?", "(@+@)-@")
    plain = [(ex.id, s) for ex, s in rank(target, examples, cfg, base)]
    rescaled = [(ex.id, s) for ex, s in rank(target, examples, cfg, scaled)]
    assert plain == rescaled
