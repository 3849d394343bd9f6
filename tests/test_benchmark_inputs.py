"""The library against the oracles of tests/_oracles.py, on the inputs
that perfbench's generator writes for the benchmark, each generated once
per workload and seed.

Tier-1 runs this module against src/. CI runs it a second time against
the installed package, and prints the counts and digests it reports:

    python -m pytest -q -rP tests/test_benchmark_inputs.py
"""

import dataclasses
import filecmp
import functools
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))  # perfbench lives at the repo root

from _oracles import (  # noqa: E402
    align_by_tree, chains_by_descent, embed_by_crc32, first_rule_by_scan, greedy_dedup,
    has_operator_by_tree, levenshtein_by_pair, stated_result_by_tree,
)
from mathcontrast import _kernels, corpus, datasets, evaluation, formula, pipeline  # noqa: E402
from mathcontrast.errors import ExtractionError, ParseError, UnknownPrompt  # noqa: E402
from mathcontrast.gateway import MockBackend  # noqa: E402
from mathcontrast.semantic import HashingNgramProvider  # noqa: E402
from mathcontrast.similarity import FormulaTable, SimilarityConfig, split_balanced, tls  # noqa: E402
from perfbench.gen import generate  # noqa: E402
from perfbench.workloads import ALPHA, GUESSES, K  # noqa: E402


@pytest.fixture(scope="session")
def inputs(tmp_path_factory):
    """``inputs(workload, seed)``: the paths of perfbench's inputs, each generated once."""

    @functools.cache
    def paths(workload, seed=1):
        return generate(workload, seed, str(tmp_path_factory.mktemp(f"{workload}-{seed}")))

    return paths


def column(path, field):
    """``field`` of every line of a JSONL file."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)[field] for line in fh]


CLI = [sys.executable, "-m", "mathcontrast.cli"]
TIMEOUT_S = 300  # a child run that takes longer has hung


def mathcontrast(*args):
    """A run of the mathcontrast CLI in a child process, its output captured as text."""
    return subprocess.run([*CLI, *args], capture_output=True, text=True, timeout=TIMEOUT_S)


def test_align_variables_and_find_chains_agree_with_the_tree_parser_oracle(inputs, monkeypatch):
    """The library writes '@' per operand by pattern and checks each formula in one pass
    over the aligned characters, building no tree; the recursive-descent parser and its
    character-by-character lexer live only in tests/_oracles.py. With every space
    replaced by U+00A0 the formulas are not ASCII and take the token-by-token route.
    find_chains scans each parenthesized group once, right to left; the recursive
    descent it replaced is tests/_oracles.py's chains_by_descent."""

    def outcome(align, raw):
        try:
            return align(raw)
        except ParseError as exc:
            return str(exc), exc.position

    retrieval = inputs("eval-retrieval")
    formulas = column(retrieval["corpus"], "right_formula") + column(retrieval["corpus"], "wrong_formula")
    formulas += [a["formula"] for attempts in column(inputs("corpus-build")["screening"], "attempts") for a in attempts]
    for name, texts in (("", formulas), (" with U+00A0 for spaces", [f.replace(" ", "\xa0") for f in formulas])):
        errors = 0
        for raw in texts:
            got = outcome(formula.align_variables, raw)
            assert got == outcome(align_by_tree, raw), f"{raw!r}: {got}"
            errors += isinstance(got, tuple)
        print(f"{len(texts)} formulas{name} ({errors} that do not parse) align as the tree parser")

    # every '='-segment that find_chains reads in a completion: its operator
    # and its stated result as the tree says
    has_operator, stated_result = formula._has_operator, formula._stated_result
    segments = {}

    def checked(read):
        def check(seg):
            got = has_operator(seg), stated_result(seg)
            assert got == (has_operator_by_tree(seg), stated_result_by_tree(seg)), seg
            segments[seg] = got[1]
            return read(seg)

        return check

    monkeypatch.setattr(formula, "_has_operator", checked(has_operator))
    monkeypatch.setattr(formula, "_stated_result", checked(stated_result))
    completions = []
    for script in (retrieval["script"], inputs("eval-http")["script"]):
        with open(script, encoding="utf-8") as fh:
            completions += [c for rule in json.load(fh)["rules"] for c in rule["completions"]]
    nested = [
        text
        for depth in range(90, 110)
        for text in (
            "(" * depth + "1+2" + ")" * depth,
            "(-" * depth + "1+2" + ")" * depth,
            "( - " * depth + "1+2" + ")" * depth,
            "(1+" * depth + "2" + ")" * depth,
            "x = " + "-" * depth + "5 = 5 and 1 + " + "-" * depth + "5",
            "so " + "(" * depth + "3*4" + ")" * depth + " = 12",
        )
    ]
    digest = hashlib.sha256()
    for text in completions + nested:
        chains = formula.find_chains(text)
        assert chains == chains_by_descent(text), text[:200]
        digest.update(repr([(c.expression, c.result) for c in chains]).encode())
    results = sum(result is not None for result in segments.values())
    print(f"{len(segments)} distinct segments of {len(completions)} completions ({results} stated results) read as the tree parser")
    print(f"find_chains equals chains_by_descent on {len(completions)} completions and {len(nested)} nested shapes, sha256 {digest.hexdigest()}")


def test_load_aligns_each_formula_shape_once_per_call(inputs, monkeypatch):
    """corpus.load calls align_variables once per shape, a formula with its digit runs
    written as one '0' each (4,000 formulas, 1,417 shapes on seed 1), in every call:
    a second load aligns them all again. The corpus equals the one aligned row by row,
    field for field."""
    path = inputs("eval-retrieval")["corpus"]
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    names = ("right_formula", "wrong_formula")
    shapes = {re.sub(r"[0-9]+", "0", row[name]) for row in rows for name in names}
    by_row = [
        dataclasses.astuple(corpus.ReferenceExample(**{**row, **{n: formula.align_variables(row[n]) for n in names}}))
        for row in rows
    ]
    calls = []
    align = corpus.align_variables
    monkeypatch.setattr(corpus, "align_variables", lambda raw: calls.append(raw) or align(raw))
    for load in (1, 2):
        loaded = corpus.load(path)
        assert len(calls) == load * len(shapes) == load * 1417
        assert [dataclasses.astuple(ex) for ex in loaded] == by_row
    print(f"{2 * len(rows)} formulas in {len(shapes)} shapes: {len(shapes)} align_variables calls per load")


def test_embed_and_embed_many_equal_the_crc32_loop(inputs):
    """Both count ASCII grams by byte-table lookup; the oracle calls crc32 once per gram.
    tests/test_semantic.py checks the tables on every ASCII 2- and 3-gram."""
    corpus_texts = column(inputs("eval-retrieval")["corpus"], "question")
    screening = column(inputs("corpus-build")["screening"], "question")
    sem = HashingNgramProvider()
    for name, texts in (("eval-retrieval corpus", corpus_texts), ("corpus-build screening log", screening)):
        expected = np.stack([embed_by_crc32(t) for t in texts])
        assert np.array_equal(sem.embed_many(texts), expected), name
        assert np.array_equal(np.stack([sem.embed(t) for t in texts]), expected), name
        print(f"{name}: embed_many and embed of {len(texts)} questions equal the crc32 loop")


def test_similarities_equals_per_pair_similarity_bit_for_bit(inputs):
    """The offline product runs in float32, exact while both squared norms are below 2**24;
    "a" * 2898 squares to 2**24 + 2213, so its rows and queries take float64. The block
    product of dedup's block size gives the same rows, the block holding "a" * 2898 too."""
    retrieval = inputs("eval-retrieval")
    problems, corpus_texts = column(retrieval["problems"], "question"), column(retrieval["corpus"], "question")
    screening = column(inputs("corpus-build")["screening"], "question")
    past = "a" * 2898
    digest = hashlib.sha256()
    for name, queries, texts in (
        ("eval-retrieval", problems + [past], corpus_texts + [past]),
        ("corpus-build", screening + [past], screening + [past]),
    ):
        sem = HashingNgramProvider()
        rows = []
        for q in queries:
            got = sem.similarities(q, texts).tobytes()
            assert got == np.array([sem.similarity(q, t) for t in texts]).tobytes(), (name, q[:60])
            digest.update(got)
            rows.append(got)
        step = corpus.DEDUP_BLOCK_CELLS // len(texts)
        for start in range(0, len(queries), step):
            block = sem.similarity_rows(queries[start : start + step], texts)
            assert [row.tobytes() for row in block] == rows[start : start + step], (name, start)
        print(f"{name}: {len(queries)} queries x {len(texts)} texts equal per-pair similarity, "
              f"one at a time and {step} at a time")
    print(f"digest of the similarities: {digest.hexdigest()[:16]}")


def test_lane_kernel_equals_the_per_pair_loop_on_the_benchmark_inputs(inputs):
    """Retrieval sends all the distances one target string still needs to one
    levenshtein_many call, which scans that string once for lanes of many corpus
    strings; the per-pair loop it replaced is tests/_oracles.py's levenshtein_by_pair.
    The seed-1 corpus's distinct texts and branches against the whole, left and
    right strings of 40 preprocess targets."""
    paths = inputs("eval-retrieval")
    table = FormulaTable([ex.right_formula for ex in corpus.load(paths["corpus"])])
    backend = MockBackend.from_file(paths["script"])
    targets, strings = 0, set()
    for problem in datasets.load_problems(paths["problems"]):
        try:
            total = pipeline.preprocess(problem.question, backend).total_formula
        except ExtractionError:
            continue
        split = split_balanced(total.text)
        strings.update((total.text, split.left, split.right) if split.operator else (total.text,))
        targets += 1
        if targets == 40:
            break
    digest, pairs = hashlib.sha256(), 0
    for s in sorted(strings):
        for others in (table.texts, table.branches):
            got = _kernels.levenshtein_many(s, others)
            assert got == [levenshtein_by_pair(s, t) for t in others], s
            digest.update(repr(got).encode())
            pairs += len(others)
    print(f"{len(strings)} strings of {targets} targets x {len(table.texts)} texts and "
          f"{len(table.branches)} branches: {pairs} distances equal the per-pair loop, "
          f"sha256 {digest.hexdigest()[:16]}")


def test_subcommands_take_only_the_flags_they_read():
    """Every subcommand answers --help; a missing setting is a usage error, not a traceback."""
    subs = ("simdist", "preprocess", "build-corpus", "retrieve", "solve", "eval")
    helps = [subprocess.Popen([*CLI, sub, "--help"], stdout=subprocess.DEVNULL) for sub in subs]
    assert [run.wait(TIMEOUT_S) for run in helps] == [0] * len(subs)
    run = mathcontrast("retrieve", "--question", "q")
    print(run.stderr, end="")
    assert run.returncode == 1
    assert run.stderr.startswith("usage error") and "Traceback" not in run.stderr
    # preprocess builds no similarity config, so it takes no --alpha
    assert mathcontrast("preprocess", "--dataset", "x", "--out", "y", "--alpha", "0.5").returncode == 1


def test_loaders_reject_a_wrong_typed_field(tmp_path):
    """One file per format: a good line, then a line with one field of the wrong JSON type."""
    corpus_entry = {"id": "a", "question": "q", "right_reasoning": "r", "right_formula": "1+1",
                    "wrong_reasoning": "w", "wrong_formula": "2+2", "explanation": "",
                    "gold_answer": 1.0, "source_dataset": ""}
    problem = {"id": "p1", "question": "How many?", "answer": 3.0}
    record = {"problem_id": "p1", "question": "q", "gold_answer": 1.0, "attempts": []}
    annotation = {"problem_id": "p1", "kind": "logic"}
    files = {
        "corpus": (corpus_entry, {"question": None}),
        "dataset": (problem, {"answer": "3"}),
        "screening": (record, {"problem_id": 5}),
        "annotations": (annotation, {"note": 3}),
        "good-dataset": (problem, {}),
    }
    path = {name: str(tmp_path / f"{name}.jsonl") for name in files}
    for name, (good, change) in files.items():
        with open(path[name], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(good) + "\n" + json.dumps({**good, **change}) + "\n")
    # the field the error must name, then the subcommand and its flags
    for field, *args in (
        ("question", "retrieve", "--question", "q", "--corpus", path["corpus"]),
        ("answer", "eval", "--dataset", path["dataset"]),
        ("problem_id", "build-corpus", "--screening-log", path["screening"], "--out", str(tmp_path / "out.jsonl")),
        ("note", "eval", "--dataset", path["good-dataset"], "--annotations", path["annotations"]),
    ):
        run = mathcontrast(*args)
        print(run.stderr, end="")
        assert run.returncode == 2, args
        assert f"line 2, field '{field}'" in run.stderr and "Traceback" not in run.stderr


def test_eval_over_http_writes_what_the_mock_backend_writes(inputs, tmp_path):
    """The stub server answers each single-sample POST from the same mock script."""
    paths = inputs("eval-http")
    base = [*CLI, "eval", "--dataset", paths["problems"], "--corpus", paths["corpus"]]
    stub = [sys.executable, str(ROOT / "perfbench" / "stub_server.py"), "--script", paths["script"], "--delay", "0"]
    # a fresh server per remote run, so each run consumes the script from its start;
    # the three runs go side by side
    servers = [subprocess.Popen(stub, stdout=subprocess.PIPE, text=True) for _ in range(2)]
    try:
        mock = ["--backend", "mock", "--mock-script", paths["script"]]
        runs = {"mock": subprocess.Popen([*base, *mock, "--output-dir", str(tmp_path / "mock")])}
        for parallelism, server in zip(("1", "4"), servers):
            endpoint = f"http://127.0.0.1:{server.stdout.readline().strip()}"
            remote = ["--backend", "remote", "--endpoint", endpoint, "--model", "stub", "--parallelism", parallelism]
            runs[parallelism] = subprocess.Popen(
                [*base, *remote, "--output-dir", str(tmp_path / parallelism)],
                env=dict(os.environ, NO_PROXY="127.0.0.1"),
            )
        for name, run in runs.items():
            assert run.wait(TIMEOUT_S) == 0, f"the {name} run failed"
    finally:
        for server in servers:
            server.terminate()
            server.wait()
    # at parallelism 4 the stateful stub hands out guesses in arrival order,
    # so only the summary is compared
    for parallelism, names in (("1", ["traces.jsonl", "summary.json"]), ("4", ["summary.json"])):
        for name in names:
            same = filecmp.cmp(tmp_path / "mock" / name, tmp_path / parallelism / name, shallow=False)
            assert same, f"parallelism {parallelism}: {name} differs from the mock run"
        print(f"parallelism {parallelism}: {', '.join(names)} equal to the mock run")


def test_build_corpus_keeps_the_ids_of_the_per_pair_greedy_scan(inputs, tmp_path):
    """build-corpus at alpha 0, 0.7 and 1 keeps the ids of the per-pair greedy scan;
    the benchmark builds its corpus at alpha 0.7 only."""
    log = inputs("corpus-build")["screening"]
    admitted = corpus.screen(corpus.load_screening_log(log))
    for alpha in ("0", "0.7", "1"):
        out = str(tmp_path / f"corpus-{alpha}.jsonl")
        run = mathcontrast("build-corpus", "--screening-log", log, "--out", out,
                           "--alpha", alpha, "--dedup-threshold", "0.9", "--sem-provider", "offline")
        assert run.returncode == 0, run.stderr
        got = [ex.id for ex in corpus.load(out)]
        cfg = SimilarityConfig(alpha=float(alpha), dedup_threshold=0.9)
        expected = [ex.id for ex in greedy_dedup(admitted, cfg, HashingNgramProvider())]
        assert got == expected, f"alpha {alpha}: build-corpus kept other ids"
        print(f"alpha {alpha}: kept {len(got)} of {len(admitted)}, as the per-pair scan")


def test_retrieve_prints_the_head_of_the_per_pair_tls_order(inputs):
    """retrieve at alpha 0, 0.7 and 1 prints the head of the per-pair tls order;
    the benchmark retrieves at alpha 0.7 and on the alpha-0 fallback only."""
    path = inputs("eval-retrieval")["corpus"]
    examples = corpus.load(path)
    question, text = "How many apples does Leah have now?", "35 * (32 + 42)"
    base = ["retrieve", "--corpus", path, "--question", question, "--k", "7"]
    aligned = formula.align_variables(text)
    runs = [
        ("0", [], (question, "")),
        ("0.7", ["--alpha", "0.7", "--formula", text], (question, aligned)),
        ("1", ["--alpha", "1", "--formula", text], (question, aligned)),
    ]
    for alpha, flags, target in runs:
        run = mathcontrast(*base, *flags)
        assert run.returncode == 0, run.stderr
        cfg, sem = SimilarityConfig(alpha=float(alpha)), HashingNgramProvider()
        brute = [(tls(target, (ex.question, ex.right_formula), cfg, sem), ex.id) for ex in examples]
        brute.sort(key=lambda pair: (-pair[0], pair[1]))
        expected = "".join(f"{i} {score:.4f}\n" for score, i in brute[:7])
        assert run.stdout == expected, f"alpha {alpha}: retrieve printed\n{run.stdout}expected\n{expected}"
        print(f"alpha {alpha}: the top 7 of {len(examples)}, as the per-pair scan")


def test_rank_k_is_the_head_of_the_full_order(inputs):
    """rank(k) computes the logic term only where an upper bound can reach the k-th score;
    every problem's preprocess formula on three benchmark corpora, ties included."""
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        paths = inputs("eval-retrieval", seed)
        examples = corpus.load(paths["corpus"])
        backend = MockBackend.from_file(paths["script"])
        sem = HashingNgramProvider()
        checked = 0
        for problem in datasets.load_problems(paths["problems"]):
            try:
                total = pipeline.preprocess(problem.question, backend).total_formula
                targets = [(alpha, total) for alpha in (0.0, 0.3, 0.7, 0.9, 1.0)]
            except ExtractionError:
                targets = [(0.0, "")]
            for alpha, total in targets:
                cfg, target = SimilarityConfig(alpha=alpha), (problem.question, total)
                full = pipeline.rank(target, examples, cfg, sem)
                for k in (1, 7, 50):
                    got = [(ex.id, score.hex()) for ex, score in pipeline.rank(target, examples, cfg, sem, k)]
                    expected = [(ex.id, score.hex()) for ex, score in full[:k]]
                    assert got == expected, f"seed {seed}, {problem.id}, alpha {alpha}, k {k}"
                    digest.update(repr((seed, problem.id, alpha, k, got)).encode())
                    checked += 1
        print(f"seed {seed}: {checked} rank(k) calls on {len(examples)} entries head the full order")
    print(f"digest of the rank(k) orders: {digest.hexdigest()[:16]}")


def test_mock_backend_picks_the_linear_scans_rule_for_every_request(inputs, tmp_path, caplog):
    """The mock backend files each rule under its rarest needle; the in-order scan of
    every rule lives only in tests/_oracles.py."""
    caplog.set_level(logging.ERROR)  # not the warning of each semantic-only fallback

    def text(req):
        return "\n".join(content for _role, content in req.messages)

    def checked(backend):
        lookup, requests = backend._lookup, []

        def check(req):
            got = lookup(req)
            assert got == first_rule_by_scan(backend.rules, text(req)), text(req)[:200]
            requests.append(req)
            return got

        backend._lookup = check
        return requests

    def by_scan(backend):
        # the benchmark scripts are strict and hold no fingerprints
        def scan(req):
            found = first_rule_by_scan(backend.rules, text(req))
            if found is None:
                raise UnknownPrompt("no rule matches")
            return found

        backend._lookup = scan

    def solve_all(paths, backend, out):
        examples, sem = corpus.load(paths["corpus"]), HashingNgramProvider()
        traces = [
            pipeline.solve(problem.question, examples, backend, K, GUESSES, SimilarityConfig(alpha=ALPHA),
                           sem, gold_answer=problem.answer, problem_id=problem.id)
            for problem in datasets.load_problems(paths["problems"])
        ]
        evaluation.save_report(evaluation.evaluate(traces), traces, out)

    for workload in ("eval-retrieval", "eval-http"):
        paths = inputs(workload)
        for stateful in (False, True):
            runs = {}
            for name in ("index", "scan"):
                backend = MockBackend.from_file(paths["script"])
                backend.stateful = stateful
                if name == "index":
                    requests = checked(backend)
                else:
                    by_scan(backend)
                runs[name] = tmp_path / f"{workload}-{stateful}-{name}"
                solve_all(paths, backend, str(runs[name]))
            same = filecmp.cmp(runs["index"] / "traces.jsonl", runs["scan"] / "traces.jsonl", shallow=False)
            assert same, f"{workload}, stateful {stateful}: traces.jsonl differs from the scan's"
            print(f"{workload}, stateful {stateful}: {len(requests)} requests chose the scan's rule; traces.jsonl equal")
