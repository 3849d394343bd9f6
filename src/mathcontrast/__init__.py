"""Contrastive few-shot solving of math word problems.

Measures how similar two problems' solution formulas are once their
operands are masked out, retrieves the most structurally similar
worked right/wrong example pairs, builds contrastive prompts, and
scores multi-guess majority-vote runs against any chat backend.
"""

from .corpus import (
    Attempt,
    Corpus,
    ReferenceExample,
    ScreeningRecord,
    answers_match,
    dedup,
    load,
    save,
    screen,
)
from .errors import MathContrastError
from .evaluation import ErrorAnnotation, EvalReport, evaluate, tally_errors
from .formula import AlignedFormula, align_variables, merge_steps
from .gateway import ChatRequest, ChatResponse, DecodingParams, HttpChatBackend, MockBackend
from .pipeline import (
    PreprocessOutput,
    SolveTrace,
    build_contrastive_prompt,
    extract_answer,
    preprocess,
    retrieve,
    solve,
)
from .semantic import HashingNgramProvider, RemoteEmbeddingProvider
from .similarity import (
    SimilarityConfig,
    SplitResult,
    cosine,
    levenshtein,
    logic_similarity,
    norm_distance,
    split_balanced,
    tls,
    tree_distance,
)

__version__ = "0.1.0"

__all__ = [
    "AlignedFormula",
    "Attempt",
    "ChatRequest",
    "ChatResponse",
    "Corpus",
    "DecodingParams",
    "ErrorAnnotation",
    "EvalReport",
    "HashingNgramProvider",
    "HttpChatBackend",
    "MathContrastError",
    "MockBackend",
    "PreprocessOutput",
    "ReferenceExample",
    "RemoteEmbeddingProvider",
    "ScreeningRecord",
    "SimilarityConfig",
    "SolveTrace",
    "SplitResult",
    "align_variables",
    "answers_match",
    "build_contrastive_prompt",
    "cosine",
    "dedup",
    "evaluate",
    "extract_answer",
    "levenshtein",
    "load",
    "logic_similarity",
    "merge_steps",
    "norm_distance",
    "preprocess",
    "retrieve",
    "save",
    "screen",
    "solve",
    "split_balanced",
    "tally_errors",
    "tls",
    "tree_distance",
]
