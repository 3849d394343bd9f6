"""Tests of the benchmark itself. Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/tests
"""

import filecmp
import json
import os
import re
import time
from dataclasses import replace

import pytest

from mathcontrast import corpus, datasets, evaluation, pipeline
from mathcontrast.gateway import MockBackend
from mathcontrast.semantic import HashingNgramProvider
from mathcontrast.similarity import SimilarityConfig
from perfbench import gen
from perfbench.checks import CheckFailed, check_build, check_eval, check_top_k
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.run import WORKLOADS
from perfbench.speed import SpeedSampler

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = gen.generate(workload, 7, str(tmp_path / "a"))
    second = gen.generate(workload, 7, str(tmp_path / "b"))
    other = gen.generate(workload, 8, str(tmp_path / "c"))
    for role, path in first.items():
        assert filecmp.cmp(path, second[role], shallow=False), role
    assert not all(
        filecmp.cmp(path, other[role], shallow=False) for role, path in first.items()
    )


def test_metric_names_are_well_formed_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m[0] for m in END_TO_END] + [m[0] for m in PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _moves in PER_LAYER
    ]


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """One solved block of the eval-retrieval inputs, on a small corpus."""
    paths = gen.generate("eval-retrieval", 3, str(tmp_path_factory.mktemp("eval")))
    examples = corpus.load(paths["corpus"])[:60]
    problems = datasets.load_problems(paths["problems"])[: gen.BLOCK]
    backend = MockBackend.from_file(paths["script"])
    sem = HashingNgramProvider()
    cfg = SimilarityConfig(alpha=0.7)
    traces = [
        pipeline.solve(
            p.question, examples, backend, 7, 10, cfg, sem,
            gold_answer=p.answer, problem_id=p.id,
        )
        for p in problems
    ]
    with open(paths["plan"], encoding="utf-8") as fh:
        plan = {row["id"]: row for row in json.load(fh)}
    return dict(
        traces=traces, plan=plan, examples=examples, problems=problems,
        backend=backend, sem=sem, cfg=cfg,
    )


def test_eval_check_accepts_true_output_and_rejects_corrupted(solved):
    traces, plan = solved["traces"], solved["plan"]
    check_eval(traces, plan, evaluation.evaluate(traces))
    flipped = [replace(traces[0], majority_correct=not traces[0].majority_correct)] + traces[1:]
    with pytest.raises(CheckFailed):
        check_eval(flipped, plan, evaluation.evaluate(flipped))
    report = evaluation.evaluate(traces)
    with pytest.raises(CheckFailed):
        check_eval(traces, plan, replace(report, latent_correct=report.latent_correct - 1))


def test_top_k_check_accepts_true_scores_and_rejects_corrupted(solved):
    problem = next(p for p in solved["problems"] if not solved["plan"][p.id]["extraction_fails"])
    trace = next(t for t in solved["traces"] if t.problem_id == problem.id)
    formula = pipeline.preprocess(problem.question, solved["backend"]).total_formula
    target = (problem.question, formula)
    args = (solved["examples"], 7, solved["cfg"], solved["sem"])
    check_top_k(trace, target, *args)
    # a reordering of equal scores is still accepted
    check_top_k(replace(trace, retrieved=trace.retrieved[::-1]), target, *args)
    (first_id, first_score), *rest = trace.retrieved
    corrupted = replace(trace, retrieved=((first_id, first_score - 1e-6), *rest))
    with pytest.raises(CheckFailed):
        check_top_k(corrupted, target, *args)


def test_build_check_rejects_wrong_dedup_and_broken_round_trip(tmp_path):
    paths = gen.generate("corpus-build", 4, str(tmp_path))
    with open(paths["plan"], encoding="utf-8") as fh:
        plan = json.load(fh)
    records = corpus.load_screening_log(paths["screening"])[:60]
    plan["admitted"] = [pid for pid in plan["admitted"] if int(pid[1:]) < 60]
    plan["clones"] = [pid for pid in plan["clones"] if int(pid[1:]) < 60]
    plan["kept"] = [pid for pid in plan["kept"] if int(pid[1:]) < 60]
    assert plan["clones"]
    admitted = corpus.screen(records)
    kept = corpus.dedup(admitted, SimilarityConfig(alpha=0.7), HashingNgramProvider())
    check_build(admitted, kept, list(kept), plan)
    clone = next(ex for ex in admitted if ex.id in plan["clones"])
    with pytest.raises(CheckFailed):
        check_build(admitted, kept + [clone], kept + [clone], plan)
    with pytest.raises(CheckFailed):
        check_build(admitted, kept[1:], kept[1:], plan)
    with pytest.raises(CheckFailed):
        check_build(admitted, kept, kept[:-1], plan)


def test_speed_sampler_clock_excludes_sample_time():
    with SpeedSampler() as sampler:
        wall0, work0 = time.perf_counter(), sampler.clock()
        while time.perf_counter() - wall0 < 1.0:
            sum(range(1000))
        wall, work, sampled = (
            time.perf_counter() - wall0, sampler.clock() - work0, sum(sampler.samples)
        )
    assert sampled > 0.01 and sampler.slowdown(0) > 0
    # a sample may fall between the three readings
    assert work == pytest.approx(wall - sampled, abs=5e-3)
