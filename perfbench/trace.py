"""Tracing from outside the library, for the per-layer metrics.

A ``Tracer`` wraps the public functions of each layer by replacing the
module attributes that callers look up, and restores them afterwards.
Problem-level and stage-level calls become spans (name, problem id,
start, end, parent); hot pair-level calls (``tls``, the edit-distance
kernel, the semantic provider) only bump a call count and accumulated
busy time, because a span per pair would cost more than the pair.
``cli`` is glue that does no work of its own and is not wrapped.

The benchmark drives one client thread, so spans nest on one stack.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from mathcontrast import _kernels, corpus, datasets, evaluation, formula, pipeline, similarity


@dataclass
class Span:
    name: str
    problem: str | None
    start: float
    end: float
    parent: int | None
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Hot:
    """Call count, busy seconds and a work tally of one hot function."""

    __slots__ = ("calls", "busy", "work")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.work = 0


# (module, attribute, span name) of every stage and layer call that is
# recorded as a span. Functions that modules import by name are patched
# where they are looked up.
SPANS = (
    (pipeline, "preprocess", "pipeline.preprocess"),
    (pipeline, "rank", "pipeline.rank"),
    (pipeline, "build_contrastive_prompt", "pipeline.build_contrastive_prompt"),
    (pipeline, "extract_answer", "pipeline.extract_answer"),
    (pipeline, "majority_vote", "pipeline.majority_vote"),
    (pipeline, "find_chains", "formula.find_chains"),
    (pipeline, "merge_steps", "formula.merge_steps"),
    (corpus, "screen", "corpus.screen"),
    (corpus, "dedup", "corpus.dedup"),
    (corpus, "save", "corpus.save"),
    (corpus, "load", "corpus.load"),
    (corpus, "load_screening_log", "corpus.load_screening_log"),
    (datasets, "load_problems", "datasets.load_problems"),
    (evaluation, "evaluate", "evaluation.evaluate"),
    (evaluation, "save_report", "evaluation.save_report"),
)
HOT = (
    (similarity, "tls", "similarity.tls"),
    (pipeline, "tls", "similarity.tls"),
    (corpus, "tls", "similarity.tls"),
    (similarity, "tree_distance", "similarity.tree_distance"),
    (similarity, "levenshtein", "similarity.levenshtein"),
    (formula, "align_variables", "formula.align_variables"),
    (corpus, "align_variables", "formula.align_variables"),
)


class Tracer:
    """Spans and hot counters of the traced rounds of one run."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.hot: dict[str, Hot] = {}
        self.prompt_bytes: list[int] = []
        self.problem: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(name, self.problem, start, end, parent, error)

        return traced

    def count(self, name: str, fn, work=None):
        cell = self.hot.setdefault(name, Hot())

        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell.busy += time.perf_counter() - start
                cell.calls += 1
                if work is not None:
                    cell.work += work(*args)

        return counted

    def tally(self, name: str, amount: int = 1) -> None:
        self.hot.setdefault(name, Hot()).work += amount

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the module-level layer functions until ``uninstall``."""
        for module, attr, name in SPANS:
            self._patch(module, attr, self._spanned(name, getattr(module, attr)))
        for module, attr, name in HOT:
            self._patch(module, attr, self.count(name, getattr(module, attr)))
        self._patch(
            _kernels,
            "levenshtein_codes",
            self.count(
                "_kernels.levenshtein_codes",
                _kernels.levenshtein_codes,
                work=lambda a, b: len(a) * len(b),
            ),
        )

    def _spanned(self, name: str, fn):
        traced = self.span(name, fn)
        if name == "pipeline.extract_answer":

            def extract(*args, **kwargs):
                answer = traced(*args, **kwargs)
                self.tally("pipeline.extract_answer.abstain", answer is None)
                return answer

            return extract
        if name == "pipeline.build_contrastive_prompt":

            def build(*args, **kwargs):
                prompt = traced(*args, **kwargs)
                self.prompt_bytes.append(len(prompt.encode("utf-8")))
                return prompt

            return build
        if name == "corpus.dedup":

            def dedup(examples, *args, **kwargs):
                before = self.hot.setdefault("similarity.tls", Hot()).calls
                kept = traced(examples, *args, **kwargs)
                self.tally("corpus.dedup.pairs", self.hot["similarity.tls"].calls - before)
                self.tally("corpus.dedup.in", len(examples))
                self.tally("corpus.dedup.kept", len(kept))
                return kept

            return dedup
        return traced

    def wrap_provider(self, sem):
        """Count similarity calls, cache lookups and cache misses of one
        semantic provider instance."""
        sem.similarity = self.count("semantic.similarity", sem.similarity)
        sem._embed_cached = self.count("semantic.lookup", sem._embed_cached)
        sem.embed = self.count("semantic.embed", sem.embed)
        return sem

    def wrap_backend(self, backend):
        backend.complete = self.span("gateway.complete", backend.complete)
        return backend

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
