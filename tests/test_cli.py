import json

import pytest

from mathcontrast import cli
from mathcontrast.corpus import (
    Attempt,
    ScreeningRecord,
    append_screening_record,
    load,
    load_screening_log,
)
from mathcontrast.datasets import Problem, import_gsm8k, load_problems, save_problems, subsample
from mathcontrast.errors import SchemaError


def _write_dataset(path, problems):
    save_problems([Problem(*p) for p in problems], path)


def _mock_script(path, rules, default=None, stateful=False):
    path.write_text(
        json.dumps(
            {
                "default": default,
                "stateful": stateful,
                "rules": [
                    {"contains": contains, "completions": completions}
                    for contains, completions in rules
                ],
            }
        )
    )


def _preprocess_rules(question, algebra):
    return [
        ([question, "algebraic form"], [algebra]),
        ([question, "devise a plan"], ["Plan: straightforward."]),
        ([question, "List the known conditions."], ["Known: numbers."]),
    ]


# ---------------------------------------------------------------------------
# simdist
# ---------------------------------------------------------------------------


def test_simdist_prints_three_metrics(capsys):
    assert cli.main(["simdist", "A*(B+C+D)*B", "A*(B+C)*B"]) == 0
    out = capsys.readouterr().out
    assert "N 0.2000" in out
    assert "TD 0.2500" in out
    assert "logic_similarity 0.8750" in out


def test_simdist_identical_inputs(capsys):
    assert cli.main(["simdist", "1+2", "1+2"]) == 0
    out = capsys.readouterr().out
    assert "N 0.0000" in out
    assert "TD 0.0000" in out
    assert "logic_similarity 1.0000" in out


def test_simdist_malformed_input_is_data_error(capsys):
    assert cli.main(["simdist", "(1+2", "3"]) == cli.EXIT_DATA
    assert "position" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        cli.main([])
    assert exc_info.value.code == cli.EXIT_USAGE


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------


@pytest.fixture
def two_problem_run(tmp_path):
    dataset = tmp_path / "train.jsonl"
    _write_dataset(
        dataset,
        [("p1", "What is three plus four?", 7.0), ("p2", "What is ten minus two?", 8.0)],
    )
    script = tmp_path / "mock.json"
    rules = _preprocess_rules("three plus four", "3 + 4 = 7. The answer is 7.")
    rules += _preprocess_rules("ten minus two", "10 - 2 = 8. The answer is 8.")
    _mock_script(script, rules)
    return dataset, script, tmp_path / "screening.jsonl"


def test_preprocess_writes_attempts_per_problem(two_problem_run, capsys):
    dataset, script, out = two_problem_run
    code = cli.main(
        [
            "preprocess",
            "--dataset", str(dataset),
            "--out", str(out),
            "--attempts", "3",
            "--backend", "mock",
            "--mock-script", str(script),
        ]
    )
    assert code == 0
    records = load_screening_log(out)
    assert [r.problem_id for r in records] == ["p1", "p2"]
    assert all(r.attempt_count == 3 for r in records)
    assert records[0].attempts[0].correct
    assert records[0].attempts[0].formula == "3 + 4"


def test_preprocess_resume_skips_done_problems(two_problem_run):
    dataset, script, out = two_problem_run
    args = [
        "preprocess",
        "--dataset", str(dataset),
        "--out", str(out),
        "--attempts", "2",
        "--backend", "mock",
        "--mock-script", str(script),
    ]
    assert cli.main(args) == 0
    first = out.read_bytes()
    assert cli.main(args) == 0
    assert out.read_bytes() == first  # no duplicate records


def test_preprocess_missing_dataset_is_data_error(tmp_path, capsys):
    script = tmp_path / "mock.json"
    _mock_script(script, [], default="x")
    code = cli.main(
        [
            "preprocess",
            "--dataset", str(tmp_path / "absent.jsonl"),
            "--out", str(tmp_path / "log.jsonl"),
            "--backend", "mock",
            "--mock-script", str(script),
        ]
    )
    assert code == cli.EXIT_DATA


# ---------------------------------------------------------------------------
# build-corpus
# ---------------------------------------------------------------------------


def _screening_record(problem_id, question, outcomes, gold=7.0):
    attempts = tuple(
        Attempt(
            reasoning=f"attempt {i}",
            formula="3+4",
            answer=gold if ok else gold + 1,
            correct=ok,
        )
        for i, ok in enumerate(outcomes)
    )
    return ScreeningRecord(problem_id, question, gold, attempts)


def test_build_corpus_admission_rule(tmp_path, capsys):
    log = tmp_path / "screening.jsonl"
    append_screening_record(_screening_record("p1", "Mixed?", [True, False]), log)
    append_screening_record(_screening_record("p2", "All right?", [True, True]), log)
    append_screening_record(_screening_record("p3", "All wrong?", [False, False]), log)
    out = tmp_path / "corpus.jsonl"
    assert cli.main(["build-corpus", "--screening-log", str(log), "--out", str(out)]) == 0
    corpus = load(out)
    assert [ex.id for ex in corpus] == ["p1"]


def test_build_corpus_dedups_clones(tmp_path):
    log = tmp_path / "screening.jsonl"
    append_screening_record(_screening_record("p1", "Same question?", [True, False]), log)
    append_screening_record(_screening_record("p2", "Same question?", [True, False]), log)
    out = tmp_path / "corpus.jsonl"
    assert cli.main(["build-corpus", "--screening-log", str(log), "--out", str(out)]) == 0
    assert [ex.id for ex in load(out)] == ["p1"]


def test_build_corpus_empty_log(tmp_path):
    log = tmp_path / "screening.jsonl"
    log.write_text("")
    out = tmp_path / "corpus.jsonl"
    assert cli.main(["build-corpus", "--screening-log", str(log), "--out", str(out)]) == 0
    assert load(out) == []


_GOOD_RECORD = {
    "problem_id": "p1",
    "question": "Mixed?",
    "gold_answer": 7.0,
    "attempts": [{"reasoning": "r", "formula": "3+4", "answer": 7.0, "correct": True}],
}


@pytest.mark.parametrize(
    "bad_line",
    [
        json.dumps({**_GOOD_RECORD, "attempts": [5]}),
        json.dumps({**_GOOD_RECORD, "attempts": 5}),
        "7",
        json.dumps(
            {**_GOOD_RECORD, "attempts": [{"formula": "3+4", "answer": "seven", "correct": True}]}
        ),
    ],
    ids=["attempt-not-object", "attempts-not-list", "record-not-object", "answer-not-number"],
)
def test_build_corpus_malformed_log_is_data_error_with_line(tmp_path, capsys, bad_line):
    log = tmp_path / "screening.jsonl"
    log.write_text(json.dumps(_GOOD_RECORD) + "\n" + bad_line + "\n")
    out = tmp_path / "corpus.jsonl"
    code = cli.main(["build-corpus", "--screening-log", str(log), "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert "line 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# retrieve / solve
# ---------------------------------------------------------------------------


@pytest.fixture
def small_corpus(tmp_path):
    log = tmp_path / "screening.jsonl"
    specs = [
        ("c1", "How many chocolates are left after eating?", "(32+42)-35"),
        ("c2", "How far does the train go in three hours?", "60*3"),
        ("c3", "What is the discounted shop revenue?", "(51-8)*130"),
    ]
    for pid, question, formula in specs:
        attempts = (
            Attempt("right", formula, 1.0, True),
            Attempt("wrong", "1+1", 2.0, False),
        )
        append_screening_record(ScreeningRecord(pid, question, 1.0, attempts), log)
    out = tmp_path / "corpus.jsonl"
    assert cli.main(["build-corpus", "--screening-log", str(log), "--out", str(out)]) == 0
    return out


def test_retrieve_ranks_clone_first(small_corpus, capsys):
    code = cli.main(
        [
            "retrieve",
            "--question", "How many chocolates are left after eating?",
            "--formula", "(32+42)-35",
            "--corpus", str(small_corpus),
            "--k", "2",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    first_id, first_score = lines[0].split()
    assert first_id == "c1"
    assert float(first_score) == pytest.approx(1.0)


def test_retrieve_without_formula_is_semantic_only(small_corpus, capsys):
    code = cli.main(
        [
            "retrieve",
            "--question", "How many chocolates are left after eating?",
            "--corpus", str(small_corpus),
            "--k", "1",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("c1 ")


def test_solve_command_votes(small_corpus, tmp_path, capsys):
    script = tmp_path / "mock.json"
    question = "How many pens for nine dollars?"
    rules = _preprocess_rules("nine dollars", "9 / 3 = 3. The answer is 3.")
    rules.append(
        (
            [f"Question: {question}"],
            ["The answer is 3.", "The answer is 3.", "The answer is 5."],
        )
    )
    _mock_script(script, rules)
    trace_out = tmp_path / "trace.json"
    code = cli.main(
        [
            "solve",
            "--question", question,
            "--corpus", str(small_corpus),
            "--k", "2",
            "--guesses", "3",
            "--backend", "mock",
            "--mock-script", str(script),
            "--trace-out", str(trace_out),
        ]
    )
    assert code == 0
    assert "voted_answer 3.0" in capsys.readouterr().out
    trace = json.loads(trace_out.read_text())
    assert len(trace["guesses"]) == 3
    assert len(trace["retrieved"]) == 2


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


@pytest.fixture
def eval_run(tmp_path, small_corpus):
    dataset = tmp_path / "test.jsonl"
    _write_dataset(
        dataset,
        [
            ("t1", "Count the red apples now.", 5.0),
            ("t2", "Count the blue pens today.", 6.0),
            ("t3", "Count the green cars there.", 7.0),
        ],
    )
    script = tmp_path / "mock.json"
    rules = [
        (["Count the red apples"], ["The answer is 5.", "The answer is 5.", "The answer is 9."]),
        (["Count the blue pens"], ["The answer is 1.", "The answer is 6.", "The answer is 1."]),
        (["Count the green cars"], ["The answer is 2.", "The answer is 2.", "The answer is 2."]),
    ]
    _mock_script(script, rules)
    return dataset, script


def test_eval_scripted_accuracy(eval_run, tmp_path, capsys):
    dataset, script = eval_run
    out_dir = tmp_path / "run1"
    code = cli.main(
        [
            "eval",
            "--dataset", str(dataset),
            "--strategy", "contrastive",
            "--guesses", "3",
            "--backend", "mock",
            "--mock-script", str(script),
            "--output-dir", str(out_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "total 3" in out
    assert "accuracy 0.3333" in out
    assert "latent_accuracy 0.6667" in out
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["correct"] == 1
    assert summary["latent_correct"] == 2


@pytest.mark.parametrize(
    "bad_line",
    ["{not json}", "[1, 2]", json.dumps({"problem_id": "t2", "kind": "spelling"})],
    ids=["invalid-json", "not-object", "unknown-kind"],
)
def test_eval_malformed_annotations_is_data_error_with_line(eval_run, tmp_path, capsys, bad_line):
    dataset, script = eval_run
    annotations = tmp_path / "annotations.jsonl"
    good = {"problem_id": "t1", "kind": "logic", "note": "", "annotator": ""}
    annotations.write_text(json.dumps(good) + "\n" + bad_line + "\n")
    code = cli.main(
        [
            "eval",
            "--dataset", str(dataset),
            "--strategy", "contrastive",
            "--guesses", "3",
            "--backend", "mock",
            "--mock-script", str(script),
            "--output-dir", str(tmp_path / "run"),
            "--annotations", str(annotations),
        ]
    )
    assert code == cli.EXIT_DATA
    assert "line 2" in capsys.readouterr().err


def test_eval_config_echo_and_roundtrip(eval_run, tmp_path, capsys):
    dataset, script = eval_run
    run1 = tmp_path / "run1"
    args = [
        "eval",
        "--dataset", str(dataset),
        "--strategy", "contrastive",
        "--guesses", "3",
        "--backend", "mock",
        "--mock-script", str(script),
        "--output-dir", str(run1),
    ]
    assert cli.main(args) == 0
    config_path = run1 / "config.json"
    assert config_path.exists()
    run2 = tmp_path / "run2"
    assert cli.main(["eval", "--config", str(config_path), "--output-dir", str(run2)]) == 0
    assert (run1 / "traces.jsonl").read_bytes() == (run2 / "traces.jsonl").read_bytes()


def test_eval_k_larger_than_corpus_warns_and_runs(eval_run, small_corpus, tmp_path, caplog):
    dataset, script = eval_run
    rules = json.loads(script.read_text())["rules"]
    for question_key in ("red apples", "blue pens", "green cars"):
        for contains, algebra in (
            ("algebraic form", "2 + 3 = 5. The answer is 5."),
            ("devise a plan", "Plan."),
            ("List the known conditions.", "Known."),
        ):
            rules.insert(0, {"contains": [question_key, contains], "completions": [algebra]})
    script.write_text(json.dumps({"rules": rules, "default": None}))
    with caplog.at_level("WARNING"):
        code = cli.main(
            [
                "eval",
                "--dataset", str(dataset),
                "--corpus", str(small_corpus),
                "--k", "9",
                "--guesses", "3",
                "--backend", "mock",
                "--mock-script", str(script),
                "--output-dir", str(tmp_path / "big-k"),
            ]
        )
    assert code == 0
    assert "exceeds corpus size" in caplog.text


def test_eval_single_guess(eval_run, tmp_path, capsys):
    dataset, script = eval_run
    code = cli.main(
        [
            "eval",
            "--dataset", str(dataset),
            "--strategy", "fix",
            "--guesses", "1",
            "--backend", "mock",
            "--mock-script", str(script),
            "--output-dir", str(tmp_path / "single"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy 0.3333" in out  # only t1's first guess is right


def test_eval_rejects_bad_alpha(eval_run, tmp_path):
    dataset, script = eval_run
    code = cli.main(
        [
            "eval",
            "--dataset", str(dataset),
            "--strategy", "fix",
            "--alpha", "1.5",
            "--backend", "mock",
            "--mock-script", str(script),
        ]
    )
    assert code == cli.EXIT_USAGE


def test_config_file_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps({"alpha": 0.5, "no_such_key": 1}))
    code = cli.main(["eval", "--config", str(bad)])
    assert code == cli.EXIT_DATA


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


def test_dataset_roundtrip(tmp_path):
    path = tmp_path / "d.jsonl"
    problems = [Problem("a", "Q?", 1.5, "unit"), Problem("b", "R?", -2.0)]
    save_problems(problems, path)
    assert load_problems(path) == problems


def test_gsm8k_import(tmp_path):
    raw = tmp_path / "raw.jsonl"
    raw.write_text(
        json.dumps(
            {
                "question": "Natalia sold clips to 48 friends.",
                "answer": "She sold 48/2 = <<48/2=24>>24 clips.\n#### 24",
            }
        )
        + "\n"
    )
    out = tmp_path / "gsm8k.jsonl"
    assert import_gsm8k(raw, out) == 1
    problems = load_problems(out)
    assert problems[0].answer == 24.0
    assert problems[0].source == "gsm8k"


@pytest.mark.parametrize(
    "bad_line", ["{not json}", "[1]", json.dumps({"answer": "#### 3"})],
    ids=["invalid-json", "not-object", "no-question"],
)
def test_gsm8k_import_malformed_line_is_schema_error(tmp_path, bad_line):
    raw = tmp_path / "raw.jsonl"
    raw.write_text(json.dumps({"question": "q?", "answer": "#### 3"}) + "\n" + bad_line + "\n")
    with pytest.raises(SchemaError) as exc_info:
        import_gsm8k(raw, tmp_path / "gsm8k.jsonl")
    assert exc_info.value.line == 2


def test_subsample_is_deterministic_and_order_preserving():
    problems = [Problem(str(i), f"q{i}", float(i)) for i in range(20)]
    first = subsample(problems, 5, seed=42)
    second = subsample(problems, 5, seed=42)
    assert first == second
    ids = [int(p.id) for p in first]
    assert ids == sorted(ids)
    assert subsample(problems, 50, seed=1) == problems
