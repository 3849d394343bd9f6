"""Metric definitions and the arithmetic that produces them.

``END_TO_END`` lists what a user of the library sees, measured with
tracing off. ``PER_LAYER`` lists the traced run's numbers, each with the
end-to-end metric and workload it is expected to move. Both lists are
the single source for the names; ``BENCHMARK.json`` repeats them and
the benchmark's tests check that the two agree.

A work unit is one problem on the eval workloads and one corpus build
on corpus-build. Counts are per work unit, so they compare across
versions whatever the run length; timings are per call.
"""

from __future__ import annotations

import statistics

from .trace import Tracer

# name, unit, better, bound (share of the parent's median it may worsen by)
# The timing bounds are as wide as allowed: even scaled to the sampled
# machine speed (perfbench/speed.py), eval-retrieval's timings spread by
# about 10% between runs on the shared 2-core machine the benchmark was
# tuned on, and eval-http's are not scaled.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("problems_per_s", "1/s", "higher", 0.25),
    ("records_per_s", "1/s", "higher", 0.25),
    ("problem_p50_ms", "ms", "lower", 0.25),
    ("problem_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_KERNEL = "problem_p50_ms on eval-retrieval, run_s on corpus-build; none on eval-http"
_GATEWAY = "problems_per_s and problem_p90_ms on eval-http; none on eval-retrieval"
_CORPUS = "run_s and records_per_s on corpus-build"
_FORMULA = "problem_p50_ms on eval-http, setup_s and run_s on corpus-build"
_PROMPT = "problem_p50_ms on eval-retrieval and eval-http"
_FLAT = "nothing; should stay flat on every workload"

# name, unit, better, which end-to-end metric it should move, and where
PER_LAYER = (
    ("_kernels.levenshtein_codes.calls", "count", "lower", _KERNEL),
    ("_kernels.levenshtein_codes.us_per_call", "us", "lower", _KERNEL),
    ("_kernels.levenshtein_codes.cells", "count", "lower", _KERNEL),
    ("_kernels.levenshtein_codes.ns_per_cell", "ns", "lower", _KERNEL),
    ("_kernels.us_per_pair.len8", "us", "lower", _KERNEL),
    ("_kernels.us_per_pair.len32", "us", "lower", _KERNEL),
    ("_kernels.us_per_pair.len128", "us", "lower", _KERNEL),
    ("similarity.tls.calls", "count", "lower", _KERNEL),
    ("similarity.tls.us_per_call", "us", "lower", _KERNEL),
    ("similarity.tree_distance.calls", "count", "lower", _KERNEL),
    ("similarity.levenshtein.calls", "count", "lower", _KERNEL),
    ("semantic.similarity.calls", "count", "lower",
     "run_s on eval-retrieval (each round's first query embeds the whole corpus); "
     "a per-corpus index moves this cost into setup_s"),
    ("semantic.similarity.us_per_call", "us", "lower", _KERNEL),
    ("semantic.embed.calls", "count", "lower", "run_s on eval-retrieval and corpus-build"),
    ("semantic.cache_hit_share", "share", "higher", "run_s on eval-retrieval and corpus-build"),
    ("pipeline.rank.ms_p50", "ms", "lower", "problems_per_s on eval-retrieval"),
    ("pipeline.rank.ms_p90", "ms", "lower", "problem_p90_ms on eval-retrieval"),
    ("pipeline.rank.share_of_run", "share", "lower", "problems_per_s on eval-retrieval"),
    ("pipeline.preprocess.ms_p50", "ms", "lower", _GATEWAY),
    ("pipeline.preprocess.self_ms_p50", "ms", "lower", _FORMULA),
    ("pipeline.preprocess.fallback_share", "share", "lower", _FLAT),
    ("pipeline.solve.self_ms_p50", "ms", "lower", _PROMPT),
    ("formula.find_chains.us_p50", "us", "lower", _FORMULA),
    ("formula.merge_steps.us_p50", "us", "lower", _FORMULA),
    ("formula.align_variables.calls", "count", "lower", _FORMULA),
    ("pipeline.build_contrastive_prompt.us_p50", "us", "lower", _PROMPT),
    ("pipeline.prompt_bytes_p50", "bytes", "lower", _FLAT),
    ("pipeline.majority_vote.us_p50", "us", "lower", _PROMPT),
    ("pipeline.extract_answer.abstain_share", "share", "lower", _FLAT),
    ("gateway.complete.calls", "count", "lower", _GATEWAY),
    ("gateway.complete.ms_p50", "ms", "lower", _GATEWAY),
    ("gateway.complete.ms_p90", "ms", "lower", _GATEWAY),
    ("gateway.posts_per_completion", "count", "lower", _GATEWAY),
    ("gateway.connections_opened", "count", "lower", _GATEWAY),
    ("corpus.screen.ms", "ms", "lower", _CORPUS),
    ("corpus.dedup.ms", "ms", "lower", _CORPUS),
    ("corpus.dedup.pairs", "count", "lower", _CORPUS),
    ("corpus.dedup.kept_share", "share", "higher", _FLAT),
    ("corpus.load.ms", "ms", "lower", "setup_s on the eval workloads, run_s on corpus-build"),
    ("corpus.load_screening_log.ms", "ms", "lower", "setup_s on corpus-build"),
    ("corpus.save.ms", "ms", "lower", _CORPUS),
    ("evaluation.evaluate.ms", "ms", "lower", _FLAT),
    ("evaluation.save_report.ms", "ms", "lower", _FLAT),
    ("datasets.load_problems.ms", "ms", "lower", _FLAT),
    ("trace.overhead_s", "s", "lower", "traced run_s minus untraced run_s of the same work"),
)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (q in 0.01 steps); 0.0 for no values."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(
    tracer: Tracer,
    units: int,
    timed_seconds: float,
    overhead_s: float,
    kernel_us: dict[str, float],
    server: dict[str, int],
) -> dict[str, float]:
    """Per-layer metric values from the spans and counters of a traced run.

    ``units`` counts the traced work units, ``timed_seconds`` their
    timed-phase wall time, ``server`` the stub server's POST and
    connection counts over the traced rounds.
    """
    spans = [s for s in tracer.spans if s is not None]
    by_name: dict[str, list] = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            child_time[s.parent] += s.seconds

    def durations(name: str, scale: float) -> list[float]:
        return [s.seconds * scale for s in by_name.get(name, ())]

    def self_ms(name: str) -> list[float]:
        return [
            (s.seconds - child_time[i]) * 1e3
            for i, s in enumerate(spans)
            if s.name == name
        ]

    def hot(name: str):
        cell = tracer.hot.get(name)
        return (cell.calls, cell.busy, cell.work) if cell else (0, 0.0, 0)

    def per_unit(value: float) -> float:
        return _ratio(value, units)

    lev_calls, lev_busy, lev_cells = hot("_kernels.levenshtein_codes")
    tls_calls, tls_busy, _ = hot("similarity.tls")
    sem_calls, sem_busy, _ = hot("semantic.similarity")
    lookups = hot("semantic.lookup")[0]
    embeds = hot("semantic.embed")[0]
    preprocess = by_name.get("pipeline.preprocess", ())
    extracts = len(by_name.get("pipeline.extract_answer", ()))
    completes = len(by_name.get("gateway.complete", ()))
    dedup_in = hot("corpus.dedup.in")[2]
    values = {
        "_kernels.levenshtein_codes.calls": per_unit(lev_calls),
        "_kernels.levenshtein_codes.us_per_call": _ratio(lev_busy * 1e6, lev_calls),
        "_kernels.levenshtein_codes.cells": per_unit(lev_cells),
        "_kernels.levenshtein_codes.ns_per_cell": _ratio(lev_busy * 1e9, lev_cells),
        "similarity.tls.calls": per_unit(tls_calls),
        "similarity.tls.us_per_call": _ratio(tls_busy * 1e6, tls_calls),
        "similarity.tree_distance.calls": per_unit(hot("similarity.tree_distance")[0]),
        "similarity.levenshtein.calls": per_unit(hot("similarity.levenshtein")[0]),
        "semantic.similarity.calls": per_unit(sem_calls),
        "semantic.similarity.us_per_call": _ratio(sem_busy * 1e6, sem_calls),
        "semantic.embed.calls": per_unit(embeds),
        "semantic.cache_hit_share": _ratio(lookups - embeds, lookups),
        "pipeline.rank.ms_p50": quantile(durations("pipeline.rank", 1e3), 0.5),
        "pipeline.rank.ms_p90": quantile(durations("pipeline.rank", 1e3), 0.9),
        "pipeline.rank.share_of_run": _ratio(
            sum(durations("pipeline.rank", 1.0)), timed_seconds
        ),
        "pipeline.preprocess.ms_p50": quantile(durations("pipeline.preprocess", 1e3), 0.5),
        "pipeline.preprocess.self_ms_p50": quantile(self_ms("pipeline.preprocess"), 0.5),
        "pipeline.preprocess.fallback_share": _ratio(
            sum(s.error == "ExtractionError" for s in preprocess), len(preprocess)
        ),
        "pipeline.solve.self_ms_p50": quantile(self_ms("pipeline.solve"), 0.5),
        "formula.find_chains.us_p50": quantile(durations("formula.find_chains", 1e6), 0.5),
        "formula.merge_steps.us_p50": quantile(durations("formula.merge_steps", 1e6), 0.5),
        "formula.align_variables.calls": per_unit(hot("formula.align_variables")[0]),
        "pipeline.build_contrastive_prompt.us_p50": quantile(
            durations("pipeline.build_contrastive_prompt", 1e6), 0.5
        ),
        "pipeline.prompt_bytes_p50": quantile(tracer.prompt_bytes, 0.5),
        "pipeline.majority_vote.us_p50": quantile(
            durations("pipeline.majority_vote", 1e6), 0.5
        ),
        "pipeline.extract_answer.abstain_share": _ratio(
            hot("pipeline.extract_answer.abstain")[2], extracts
        ),
        "gateway.complete.calls": per_unit(completes),
        "gateway.complete.ms_p50": quantile(durations("gateway.complete", 1e3), 0.5),
        "gateway.complete.ms_p90": quantile(durations("gateway.complete", 1e3), 0.9),
        "gateway.posts_per_completion": _ratio(server.get("posts", 0), completes),
        "gateway.connections_opened": per_unit(server.get("connections", 0)),
        "corpus.screen.ms": quantile(durations("corpus.screen", 1e3), 0.5),
        "corpus.dedup.ms": quantile(durations("corpus.dedup", 1e3), 0.5),
        "corpus.dedup.pairs": per_unit(hot("corpus.dedup.pairs")[2]),
        "corpus.dedup.kept_share": _ratio(hot("corpus.dedup.kept")[2], dedup_in),
        "corpus.load.ms": quantile(durations("corpus.load", 1e3), 0.5),
        "corpus.load_screening_log.ms": quantile(
            durations("corpus.load_screening_log", 1e3), 0.5
        ),
        "corpus.save.ms": quantile(durations("corpus.save", 1e3), 0.5),
        "evaluation.evaluate.ms": quantile(durations("evaluation.evaluate", 1e3), 0.5),
        "evaluation.save_report.ms": quantile(durations("evaluation.save_report", 1e3), 0.5),
        "datasets.load_problems.ms": quantile(durations("datasets.load_problems", 1e3), 0.5),
        "trace.overhead_s": overhead_s,
    }
    values.update(kernel_us)
    return values
