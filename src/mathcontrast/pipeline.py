"""End-to-end solving: preprocessing, retrieval, prompting, voting.

A target problem is first structured in three chat turns (known
conditions, plan and stepwise solution, algebraic form). The algebraic
steps are chained into one total formula, which drives retrieval of the
most logically similar reference examples; those examples form a
contrastive few-shot prompt, several completions are sampled, and the
majority answer wins.
"""

from __future__ import annotations

import logging
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import similarity
from .corpus import ReferenceExample, answers_match, retrieval_index
from .errors import ExtractionError
from .formula import AlignedFormula, Chain, _tokenize, find_chains, merge_steps
from .gateway import ChatBackend, ChatRequest, DecodingParams
from .prompts import PromptLibrary, contrastive_examples, default_prompts, fixed_prompt
from .similarity import SemanticProvider, SimilarityConfig
from .similarity import tls  # noqa: F401 - unused here; perfbench/ patches pipeline.tls

log = logging.getLogger(__name__)

STRATEGIES = ("combined", "logic", "semantic", "fix", "hard", "contrastive")


@dataclass(frozen=True)
class PreprocessOutput:
    """Structured result of the three preprocessing turns."""

    known_conditions: str
    plan_and_solution: str
    algebraic_steps: tuple[str, ...]
    total_formula: AlignedFormula | None
    final_answer: float | None


@dataclass(frozen=True)
class SolveTrace:
    """Everything one solved problem produced, for audit and scoring."""

    problem_id: str
    retrieved: tuple[tuple[str, float | None], ...]
    prompt_text: str
    guesses: tuple[tuple[str, float | None], ...]
    voted_answer: float | None
    gold_answer: float | None
    majority_correct: bool
    any_correct: bool
    strategy: str = "combined"


# ---------------------------------------------------------------------------
# Answer extraction and voting
# ---------------------------------------------------------------------------

_ANSWER_RE = re.compile(
    r"the answer is\s*:?\s*\\?\$?\s*(-?\d[\d,]*(?:\.\d+)?)", re.IGNORECASE
)
_NUMBER_RE = re.compile(r"-?\d[\d,]*(?:\.\d+)?")


def extract_answer(completion: str) -> float | None:
    """Pull the final numeric answer out of a completion.

    Prefers the (last) "the answer is <number>" statement, else falls
    back to the last numeric literal anywhere in the text; currency
    symbols and thousands separators are ignored. None means the guess
    abstains from voting.
    """
    stated = _ANSWER_RE.findall(completion)
    if stated:
        return float(stated[-1].replace(",", ""))
    numbers = _NUMBER_RE.findall(completion)
    if numbers:
        return float(numbers[-1].replace(",", ""))
    return None


def majority_vote(answers: list[float | None]) -> float | None:
    """Mode of the non-None answers; ties go to the earliest completion.

    Answers are grouped with answers_match, the tolerance scoring uses:
    each answer joins the first group whose earliest answer it matches,
    and a group votes with that earliest answer.
    """
    groups: list[list] = []  # [earliest answer, count], by first appearance
    for ans in answers:
        if ans is None:
            continue
        for group in groups:
            if answers_match(group[0], ans):
                group[1] += 1
                break
        else:
            groups.append([ans, 1])
    if not groups:
        return None
    # max keeps the first of equal counts: the group that appeared earliest
    return max(groups, key=lambda group: group[1])[0]


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------


def substitute_results(chains: list[Chain]) -> list[str]:
    """Fold stepwise computations into total formulas.

    Each numeric literal equal to an earlier step's stated result is
    replaced by that step's (parenthesized, already-folded) expression;
    steps consumed this way disappear. The surviving root expressions
    come back in order, usually a single total formula.
    """
    exprs = [c.expression for c in chains]
    results = [c.result for c in chains]
    consumed = [False] * len(chains)
    for j in range(len(chains)):
        out = []
        changed = False
        for kind, text, _pos in _tokenize(exprs[j]):
            if kind == "number":
                value = float(text)
                src = next(
                    (
                        i
                        for i in range(j - 1, -1, -1)
                        if results[i] is not None and results[i] == value
                    ),
                    None,
                )
                if src is not None:
                    out.append(f"({exprs[src]})")
                    consumed[src] = True
                    changed = True
                    continue
            out.append(text)
        if changed:
            exprs[j] = "".join(out)
    return [e for e, used in zip(exprs, consumed) if not used]


def preprocess(
    question: str,
    backend: ChatBackend,
    *,
    prompts: PromptLibrary | None = None,
    params: DecodingParams | None = None,
) -> PreprocessOutput:
    """Run the three structuring turns and assemble the total formula.

    Each turn carries the question and all prior outputs as chat
    context. Steps are mined from the algebraic-form response (falling
    back to the plan response), chained via substitute_results, and
    merged. Raises ExtractionError when no formula can be found; the
    partial output rides along on the exception.
    """
    lib = prompts or default_prompts()
    params = params or DecodingParams()

    def ask(messages) -> str:
        req = ChatRequest(tuple(messages), params=params, sample_count=1)
        return backend.complete(req).completions[0]

    messages = [("user", f"{question}\n\n{lib.get('step1_conditions')}")]
    conditions = ask(messages)
    messages += [("assistant", conditions), ("user", lib.get("step2_plan"))]
    plan = ask(messages)
    messages += [("assistant", plan), ("user", lib.get("step3_algebraic"))]
    algebraic = ask(messages)

    chains = find_chains(algebraic) or find_chains(plan)
    answer = extract_answer(algebraic)
    if answer is None:
        answer = extract_answer(plan)
    if not chains:
        partial = PreprocessOutput(conditions, plan, (), None, answer)
        raise ExtractionError("no parseable formula in backend output", partial)
    total = merge_steps(substitute_results(chains))
    return PreprocessOutput(
        known_conditions=conditions,
        plan_and_solution=plan,
        algebraic_steps=tuple(c.expression for c in chains),
        total_formula=total,
        final_answer=answer,
    )


# ---------------------------------------------------------------------------
# Retrieval and prompt construction
# ---------------------------------------------------------------------------


def rank(
    target: tuple[str, AlignedFormula | str],
    examples: list[ReferenceExample],
    cfg: SimilarityConfig,
    sem: SemanticProvider,
    k: int | None = None,
) -> list[tuple[ReferenceExample, float]]:
    """Score the whole corpus against the target, best first.

    Scores equal tls(target, (ex.question, ex.right_formula)), computed
    in one batch by ``similarity.scores`` over the corpus's retrieval index,
    which a ``Corpus`` keeps across calls; ties break on ascending
    example id so the order is reproducible. The raw scores are sorted.
    The offline provider's dot products are exact integers whatever
    order BLAS sums in (float32 while both squared norms are below
    2**24, float64 past that), so its order is the same on any build;
    another BLAS build may sum a float embedding's dot product in
    another order and break a near tie the other way. Given ``k``, only
    the first ``k`` of that order are returned: the logic term is
    computed only for entries whose upper bound can reach the k-th best
    score (``scores``' ``top``), and only those entries are sorted.
    """
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    index = retrieval_index(examples)
    scores = similarity.scores(target, index.questions, index.table, cfg, sem, top=k)
    # the entries scored; those left out (-inf) cannot reach the k-th best
    rows = np.flatnonzero(scores > -np.inf)
    if k is not None and k < len(rows):
        # every entry tied with the k-th best score stays for the id order
        kth = np.partition(scores[rows], len(rows) - k)[len(rows) - k]
        rows = rows[scores[rows] >= kth]
    order = rows[np.lexsort((index.id_rank[rows], -scores[rows]))][:k]
    return [(index.entries[i], score) for i, score in zip(order.tolist(), scores[order].tolist())]


def retrieve(
    target: tuple[str, AlignedFormula | str],
    examples: list[ReferenceExample],
    k: int,
    cfg: SimilarityConfig,
    sem: SemanticProvider,
) -> list[ReferenceExample]:
    """Top-k most similar reference examples (fewer if the corpus is smaller)."""
    if not examples:
        raise ValueError("corpus is empty")
    return [ex for ex, _score in rank(target, examples, cfg, sem, k)]


def build_contrastive_prompt(
    examples: list[ReferenceExample],
    question: str,
    prompts: PromptLibrary | None = None,
) -> str:
    """Assemble the contrastive few-shot prompt.

    Per example: a numbered question, the right answer, the wrong
    answer, and (when present) the explanation, the last paragraph
    terminated by |EOS|. The solving instruction and the target
    question follow.
    """
    if not examples:
        raise ValueError("need at least one reference example")
    lib = prompts or default_prompts()
    blocks = [lib.get("contrastive_header")]
    for i, ex in enumerate(examples, start=1):
        parts = [
            f"Question{i}: {ex.question}",
            f"Right Answer: {ex.right_reasoning}",
            f"Wrong Answer: {ex.wrong_reasoning}",
        ]
        if ex.explanation:
            parts.append(f"Explanation: {ex.explanation}")
        parts[-1] += " |EOS|"
        blocks.extend(parts)
    body = "\n\n".join(blocks)
    instruction = lib.get("solve_instruction")
    return f"{body}\n\n{instruction}\n\nQuestion: {question}\n\nAnswer:"


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------


def solve(
    question: str,
    examples: list[ReferenceExample],
    backend: ChatBackend,
    k: int,
    guesses: int,
    cfg: SimilarityConfig,
    sem: SemanticProvider,
    *,
    gold_answer: float | None = None,
    problem_id: str = "",
    strategy: str = "combined",
    prompts: PromptLibrary | None = None,
    params: DecodingParams | None = None,
) -> SolveTrace:
    """Solve one problem end to end and record the full trace.

    Strategies: "combined" retrieves by the combined score, "logic" and
    "semantic" force the weight to 1 or 0, and "fix"/"hard"/
    "contrastive" use the corresponding fixed example set with no
    retrieval. If preprocessing cannot extract a formula, retrieval
    degrades to semantic-only instead of aborting. Guesses that yield
    no answer abstain from the vote.
    """
    if guesses < 1:
        raise ValueError(f"guesses must be >= 1, got {guesses}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    lib = prompts or default_prompts()
    params = params or DecodingParams()

    retrieved_info: tuple[tuple[str, float | None], ...] = ()
    if strategy in ("fix", "hard"):
        prompt = fixed_prompt(strategy, question, lib)
    elif strategy == "contrastive":
        fixed = contrastive_examples()
        retrieved_info = tuple((ex.id, None) for ex in fixed)
        prompt = build_contrastive_prompt(fixed, question, lib)
    else:
        if not examples:
            raise ValueError(f"strategy {strategy!r} needs a non-empty corpus")
        alpha = {"combined": cfg.alpha, "logic": 1.0, "semantic": 0.0}[strategy]
        formula: AlignedFormula | str = ""
        if alpha > 0.0:
            try:
                formula = preprocess(
                    question, backend, prompts=lib, params=params
                ).total_formula
            except ExtractionError:
                log.warning(
                    "formula extraction failed for %s; retrieval degrades to "
                    "semantic-only",
                    problem_id or "target",
                )
                alpha = 0.0
        eff_cfg = SimilarityConfig(alpha, cfg.dedup_threshold)
        ranked = rank((question, formula), examples, eff_cfg, sem, k)
        retrieved_info = tuple((ex.id, score) for ex, score in ranked)
        prompt = build_contrastive_prompt([ex for ex, _ in ranked], question, lib)

    req = ChatRequest((("user", prompt),), params=params, sample_count=guesses)
    completions = backend.complete(req).completions
    answers = [extract_answer(text) for text in completions]
    voted = majority_vote(answers)

    majority_correct = answers_match(voted, gold_answer)
    any_correct = any(answers_match(a, gold_answer) for a in answers)
    return SolveTrace(
        problem_id=problem_id,
        retrieved=retrieved_info,
        prompt_text=prompt,
        guesses=tuple(zip(completions, answers)),
        voted_answer=voted,
        gold_answer=gold_answer,
        majority_correct=majority_correct,
        any_correct=any_correct,
        strategy=strategy,
    )


def solve_many(
    problems,
    examples: list[ReferenceExample],
    backend: ChatBackend,
    k: int,
    guesses: int,
    cfg: SimilarityConfig,
    sem: SemanticProvider,
    *,
    parallelism: int = 1,
    **kwargs,
) -> list[SolveTrace]:
    """Solve independent problems, optionally in parallel; the result
    order always matches the input order."""

    def run(problem) -> SolveTrace:
        return solve(
            problem.question,
            examples,
            backend,
            k,
            guesses,
            cfg,
            sem,
            gold_answer=problem.answer,
            problem_id=problem.id,
            **kwargs,
        )

    problems = list(problems)
    if parallelism <= 1 or len(problems) <= 1:
        return [run(p) for p in problems]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(run, problems))
