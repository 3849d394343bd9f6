"""The three workloads, each a closed loop driven by one client.

A run repeats rounds. Each round sets up from the generated files (the
set-up sample: load the inputs, construct the backend and the semantic
provider), then does one fixed unit of timed work:

- eval-retrieval: solve 20 problems against a 2000-entry corpus with the
  mock backend, then evaluate and save the report;
- eval-http: the same against a 50-entry corpus through
  ``HttpChatBackend`` and a stub server in a child process;
- corpus-build: screen a 400-record screening log, dedup, save, reload.

Every round's output is checked against what the generator planted.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

import requests

from mathcontrast import corpus, datasets, evaluation, pipeline
from mathcontrast.errors import ExtractionError, MathContrastError
from mathcontrast.gateway import HttpChatBackend, MockBackend
from mathcontrast.semantic import HashingNgramProvider
from mathcontrast.similarity import SimilarityConfig

from .checks import CheckFailed, check_build, check_eval, check_top_k
from .gen import BLOCK

K = 7
GUESSES = 10
ALPHA = 0.7
TOP_K_SAMPLE = 3
# service delay of the stub server, and the client's connection cap
# (the sandbox's core count when the workload was defined)
STUB_DELAY_S = 0.02
HTTP_PARALLELISM = 2


@dataclass
class RoundOutput:
    item_ms: list[float]
    attempted: int
    failed: int
    units: int
    outputs: dict = field(default_factory=dict)


class EvalWorkload:
    """Solve batches of problems end to end, as ``mathcontrast eval`` does."""

    # untraced runs solve at least 100 problems: enough for a per-problem
    # p90 with ten samples beyond it
    min_rounds = 5

    def __init__(self, paths: dict[str, str], work_dir: str, seed: int, http: bool):
        self.paths = paths
        self.report_dir = os.path.join(work_dir, "report")
        self.seed = seed
        self.http = http
        with open(paths["plan"], encoding="utf-8") as fh:
            self.plan = {row["id"]: row for row in json.load(fh)}
        self.cfg = SimilarityConfig(alpha=ALPHA)
        # eval-http mostly waits on the stub server, whose service delay
        # does not follow the speed of the machine
        self.cpu_bound = not http
        self.server = None
        self.endpoint = None

    def __enter__(self):
        if self.http:
            self.server = subprocess.Popen(
                [
                    sys.executable,
                    os.path.join(os.path.dirname(__file__), "stub_server.py"),
                    "--script",
                    self.paths["script"],
                    "--delay",
                    str(STUB_DELAY_S),
                ],
                stdout=subprocess.PIPE,
                text=True,
            )
            port = self.server.stdout.readline().strip()
            if not port.isdigit():
                raise RuntimeError("stub server did not report its port")
            self.endpoint = f"http://127.0.0.1:{port}"
        return self

    def __exit__(self, *exc):
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()

    def server_stats(self) -> dict[str, int]:
        if self.endpoint is None:
            return {}
        with requests.Session() as session:
            session.trust_env = False
            return session.get(f"{self.endpoint}/stats", timeout=10).json()

    def setup(self, tracer):
        examples = corpus.load(self.paths["corpus"])
        problems = datasets.load_problems(self.paths["problems"])
        if self.http:
            session = requests.Session()
            session.trust_env = False  # never route localhost through a proxy
            backend = HttpChatBackend(
                self.endpoint,
                "stub",
                timeout=30.0,
                parallelism=HTTP_PARALLELISM,
                session=session,
            )
        else:
            backend = MockBackend.from_file(self.paths["script"])
        sem = HashingNgramProvider()
        if tracer is not None:
            backend = tracer.wrap_backend(backend)
            sem = tracer.wrap_provider(sem)
        return {"examples": examples, "problems": problems, "backend": backend, "sem": sem}

    def run_round(self, state, index: int, tracer, clock) -> RoundOutput:
        problems = state["problems"]
        first = (index * BLOCK) % len(problems)
        batch = problems[first : first + BLOCK]
        solve = pipeline.solve if tracer is None else tracer.span("pipeline.solve", pipeline.solve)
        traces, item_ms, failed = [], [], 0
        for problem in batch:
            if tracer is not None:
                tracer.problem = problem.id
            start = clock()
            try:
                trace = solve(
                    problem.question,
                    state["examples"],
                    state["backend"],
                    K,
                    GUESSES,
                    self.cfg,
                    state["sem"],
                    gold_answer=problem.answer,
                    problem_id=problem.id,
                )
            except MathContrastError:
                failed += 1
                continue
            item_ms.append((clock() - start) * 1e3)
            traces.append(trace)
        report = evaluation.evaluate(traces)
        evaluation.save_report(report, traces, self.report_dir)
        return RoundOutput(
            item_ms, len(batch), failed, len(batch), {"traces": traces, "report": report}
        )

    def check_round(self, out: RoundOutput) -> None:
        check_eval(out.outputs["traces"], self.plan, out.outputs["report"])

    def check_final(self, state, out: RoundOutput) -> None:
        """Brute-force the top-k of a seeded sample of the last round's queries."""
        traces = out.outputs["traces"]
        rng = random.Random(self.seed)
        by_id = {p.id: p for p in state["problems"]}
        for trace in rng.sample(traces, min(TOP_K_SAMPLE, len(traces))):
            question = by_id[trace.problem_id].question
            try:
                formula = pipeline.preprocess(question, state["backend"]).total_formula
                cfg = self.cfg
            except ExtractionError:
                formula, cfg = "", SimilarityConfig(alpha=0.0)
            if (formula == "") != self.plan[trace.problem_id]["extraction_fails"]:
                raise CheckFailed(f"{trace.problem_id}: extraction outcome differs from plan")
            check_top_k(trace, (question, formula), state["examples"], K, cfg, state["sem"])

    def release(self, state) -> None:
        if self.http:
            state["backend"].session.close()


class CorpusBuildWorkload:
    """Screening log to saved corpus, as ``mathcontrast build-corpus`` does."""

    min_rounds = 1
    cpu_bound = True

    def __init__(self, paths: dict[str, str], work_dir: str):
        self.paths = paths
        self.out_path = os.path.join(work_dir, "corpus.jsonl")
        with open(paths["plan"], encoding="utf-8") as fh:
            self.plan = json.load(fh)
        self.cfg = SimilarityConfig(alpha=ALPHA)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def server_stats(self) -> dict[str, int]:
        return {}

    def setup(self, tracer):
        records = corpus.load_screening_log(self.paths["screening"])
        sem = HashingNgramProvider()
        if tracer is not None:
            sem = tracer.wrap_provider(sem)
        return {"records": records, "sem": sem}

    def run_round(self, state, index: int, tracer, clock) -> RoundOutput:
        records = state["records"]
        start = clock()
        try:
            admitted = corpus.screen(records)
            kept = corpus.dedup(admitted, self.cfg, state["sem"])
            corpus.save(kept, self.out_path)
            reloaded = corpus.load(self.out_path)
        except MathContrastError:
            return RoundOutput([], len(records), len(records), 1)
        # a build is one batch, so a record's time is its share of the build
        per_record = (clock() - start) * 1e3 / len(records)
        return RoundOutput(
            [per_record],
            len(records),
            0,
            1,
            {"admitted": admitted, "kept": kept, "reloaded": reloaded},
        )

    def check_round(self, out: RoundOutput) -> None:
        if out.outputs:
            check_build(out.outputs["admitted"], out.outputs["kept"], out.outputs["reloaded"], self.plan)

    def check_final(self, state, out: RoundOutput) -> None:
        pass

    def release(self, state) -> None:
        pass


def make(workload: str, paths: dict[str, str], work_dir: str, seed: int):
    if workload == "corpus-build":
        return CorpusBuildWorkload(paths, work_dir)
    return EvalWorkload(paths, work_dir, seed, http=workload == "eval-http")
