import argparse
import dataclasses
import json
import re

import pytest
import requests
from hypothesis import HealthCheck, given, settings, strategies as st

from _schema import (
    accepted,
    field_names,
    not_finite,
    required,
    second_line_error,
    wrong_typed,
)
from mathcontrast import cli, corpus as corpus_mod, datasets, evaluation
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


def _preprocess_args(dataset, script, out):
    return [
        "preprocess",
        "--dataset", str(dataset),
        "--out", str(out),
        "--attempts", "2",
        "--backend", "mock",
        "--mock-script", str(script),
    ]


def test_preprocess_resume_drops_torn_last_line(two_problem_run, caplog):
    dataset, script, out = two_problem_run
    args = _preprocess_args(dataset, script, out)
    assert cli.main(args) == 0
    complete = out.read_text()
    first_line = complete.splitlines(keepends=True)[0]
    out.write_text(first_line + '{"problem_id": "p2", "quest')  # crash mid-append
    assert cli.main(args) == 0
    assert "torn" in caplog.text
    assert out.read_text() == complete
    assert [r.problem_id for r in load_screening_log(out)] == ["p1", "p2"]


def test_preprocess_resume_completes_unterminated_last_record(two_problem_run):
    dataset, script, out = two_problem_run
    args = _preprocess_args(dataset, script, out)
    assert cli.main(args) == 0
    complete = out.read_text()
    first_line = complete.splitlines(keepends=True)[0]
    out.write_text(first_line.rstrip("\n"))
    assert cli.main(args) == 0
    assert out.read_text() == complete


@pytest.mark.parametrize(
    "content",
    [
        '{"problem_id": "p1", "quest\n',  # torn, but a later append finished its line
        '{"problem_id": "p1", "quest\n{"problem_id": "p2"}',
        '{"problem_id": "p1"}',  # the last line parses but is not a record
    ],
)
def test_preprocess_other_malformed_log_lines_are_data_errors(two_problem_run, content):
    dataset, script, out = two_problem_run
    out.write_text(content)
    assert cli.main(_preprocess_args(dataset, script, out)) == cli.EXIT_DATA
    # nothing is dropped; a complete last line may only gain its newline
    assert out.read_text().rstrip("\n") == content.rstrip("\n")


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


class _ContentlessResponse:
    status_code = 200
    headers: dict = {}
    text = '{"choices": [{"message": {}}]}'

    def json(self):
        return {"choices": [{"message": {}}]}


def test_preprocess_malformed_backend_body_is_backend_error(two_problem_run, monkeypatch, capsys):
    dataset, _script, out = two_problem_run
    monkeypatch.setattr(requests.Session, "post", lambda self, *a, **kw: _ContentlessResponse())
    code = cli.main(
        [
            "preprocess",
            "--dataset", str(dataset),
            "--out", str(out),
            "--attempts", "3",
            "--backend", "remote",
            "--endpoint", "http://llm.local/v1",
            "--model", "solver-7b",
        ]
    )
    assert code == cli.EXIT_BACKEND
    assert "no string message.content" in capsys.readouterr().err


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


_GOOD_ATTEMPT = {"reasoning": "r", "formula": "3+4", "answer": 7.0, "correct": True}
_GOOD_RECORD = {
    "problem_id": "p1",
    "question": "Mixed?",
    "gold_answer": 7.0,
    "attempts": [_GOOD_ATTEMPT],
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
        json.dumps({**_GOOD_RECORD, "gold_answer": float("nan")}),
        json.dumps({**_GOOD_RECORD, "attempts": [{**_GOOD_ATTEMPT, "reasoning": None}]}),
        json.dumps({**_GOOD_RECORD, "attempts": [{**_GOOD_ATTEMPT, "formula": None}]}),
        json.dumps({**_GOOD_RECORD, "attempts": [{**_GOOD_ATTEMPT, "correct": "no"}]}),
    ],
    ids=[
        "attempt-not-object",
        "attempts-not-list",
        "record-not-object",
        "answer-not-number",
        "gold-not-finite",
        "reasoning-null",
        "formula-null",
        "correct-not-boolean",
    ],
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
    [
        "{not json}",
        "[1, 2]",
        json.dumps({"problem_id": "t2", "kind": "spelling"}),
        "[" * 100_000,
        "1" * 5000,
    ],
    ids=["invalid-json", "not-object", "unknown-kind", "nested-past-recursion-limit", "integer-past-digit-limit"],
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


def test_eval_malformed_annotations_fail_before_any_problem_is_solved(
    eval_run, tmp_path, monkeypatch
):
    dataset, script = eval_run
    annotations = tmp_path / "annotations.jsonl"
    annotations.write_text("{not json}\n")

    def solve_many(*args, **kwargs):
        raise AssertionError("solve_many ran before the annotations were read")

    monkeypatch.setattr(cli.pipeline, "solve_many", solve_many)
    run = tmp_path / "run"
    args = ["eval", "--dataset", str(dataset), "--backend", "mock", "--mock-script", str(script)]
    args += ["--output-dir", str(run), "--annotations", str(annotations)]
    assert cli.main(args) == cli.EXIT_DATA
    assert not (run / "config.json").exists()


@pytest.mark.parametrize("command", ["eval", "preprocess"])
def test_a_usage_error_writes_no_config(eval_run, tmp_path, capsys, command):
    dataset, _script = eval_run
    run = tmp_path / "run"
    code = cli.main([command, "--dataset", str(dataset), "--output-dir", str(run)])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == "usage error: mock backend needs --mock-script\n"
    assert not (run / "config.json").exists()


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


@pytest.mark.parametrize(
    "content, where",
    [
        ('{"alpha": "0.7"}', "field 'alpha'"),
        ('{"k": null}', "field 'k'"),
        ('{"k": 7.0}', "field 'k'"),
        ('{"alpha": true}', "field 'alpha'"),
        ("[1, 2]", "line 1"),
        ('{\n  "alpha": 0.5,\n}', "line 3"),
        ('{"alpha": 0.5, "no_such_key": 1}', "line 1, field 'no_such_key'"),
        pytest.param("[" * 100_000, "line 1", id="nested-past-recursion-limit"),
    ],
)
def test_malformed_config_file_is_a_schema_error(tmp_path, capsys, content, where):
    bad = tmp_path / "config.json"
    bad.write_text(content)
    code = cli.main(["retrieve", "--question", "Q?", "--config", str(bad)])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err


@pytest.mark.parametrize(
    "content, message",
    [
        ({"alpha": 2.0}, "alpha must be in [0, 1]"),
        ({"k": 0}, "k must be >= 1"),
        ({"backend": "other"}, "backend must be"),
        ({"dedup_threshold": 1.0 + 1e-10}, "dedup_threshold must be in [0, 1]"),
    ],
)
def test_out_of_range_config_value_is_a_schema_error(tmp_path, capsys, content, message):
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps(content))
    with pytest.raises(SchemaError, match=re.escape(message)):
        cli.RunConfig.from_file(str(bad))
    code = cli.main(["retrieve", "--question", "Q?", "--config", str(bad)])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "flag, line",
    [
        ("--dataset", 2),
        ("--corpus", 2),
        ("--screening-log", 2),
        ("--annotations", 2),
        ("--mock-script", 3),
        ("--config", 3),
    ],
)
def test_a_byte_that_is_not_utf8_is_a_data_error_at_its_line(
    eval_run, small_corpus, tmp_path, capsys, flag, line
):
    dataset, script = eval_run
    good_line = {
        "--dataset": dataset.read_bytes().splitlines()[0],
        "--corpus": small_corpus.read_bytes().splitlines()[0],
        "--screening-log": json.dumps(_GOOD_RECORD).encode(),
        "--annotations": json.dumps({"problem_id": "t1", "kind": "logic"}).encode(),
    }
    bad = tmp_path / "bad"
    if flag in good_line:
        # a good line, then one holding the byte 0xff
        bad.write_bytes(good_line[flag] + b'\n{"id": "\xff"}\n')
    else:
        bad.write_bytes(b'{\n  "default": null,\n  "note": "\xff"\n}\n')
    out = str(tmp_path / "out")
    mock = ["--backend", "mock", "--mock-script", str(script), "--output-dir", out]
    args = {
        "--dataset": ["eval", "--dataset", str(bad), *mock],
        "--corpus": ["retrieve", "--question", "q", "--corpus", str(bad)],
        "--screening-log": ["build-corpus", "--screening-log", str(bad), "--out", out],
        "--annotations": ["eval", "--dataset", str(dataset), *mock, "--annotations", str(bad)],
        "--mock-script": ["eval", "--dataset", str(dataset), "--backend", "mock", "--mock-script", str(bad)],
        "--config": ["retrieve", "--question", "q", "--config", str(bad)],
    }[flag]
    assert cli.main(args) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: not UTF-8: byte 0xff") and f"(line {line})" in err


# tokens a mutation splices into a file: a float past range, a JSON null, a byte
# that is not UTF-8, and digit runs past float range and past Python's int limit
_SPLICES = (b"1e400", b"null", b"\xff", b"9" * 400, b"9" * 5000)


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    """``data`` with one to four byte mutations: a bit flip, an inserted,
    deleted or duplicated run, or a spliced-in token."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(out)))
        kind = draw(st.sampled_from(("flip", "insert", "delete", "duplicate", "splice")))
        if kind == "flip" and at < len(out):
            out[at] ^= 1 << draw(st.integers(0, 7))
        elif kind == "insert":
            out[at:at] = bytes([draw(st.integers(0, 255))])
        elif kind == "delete":
            del out[at : at + draw(st.integers(1, 8))]
        elif kind == "duplicate":
            out[at:at] = out[at : at + draw(st.integers(1, 16))]
        elif kind == "splice":
            out[at:at] = draw(st.sampled_from(_SPLICES))
    return bytes(out)


@given(data=st.data())
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_input_files_exit_cleanly_and_name_a_line(eval_run, small_corpus, tmp_path, capsys, data):
    # each of the six input formats, mutated, through the subcommand that reads it:
    # never exit 1 (a usage error) or an exception, and every data error names a line
    dataset, script = eval_run
    good = {
        "--dataset": dataset.read_bytes(),
        "--corpus": small_corpus.read_bytes(),
        "--screening-log": (tmp_path / "screening.jsonl").read_bytes(),
        "--mock-script": script.read_bytes(),
        "--config": json.dumps({"alpha": 0.5, "k": 2, "guesses": 3}, indent=2).encode(),
        "--annotations": b'{"problem_id": "t1", "kind": "logic"}\n{"problem_id": "t2", "kind": "calculation"}\n',
    }
    flag = data.draw(st.sampled_from(sorted(good)))
    run = tmp_path / f"fuzz-{len(list(tmp_path.glob('fuzz-*')))}"
    run.mkdir()
    bad = run / "input"
    bad.write_bytes(data.draw(_mutated(good[flag])))
    files = {
        "--dataset": dataset, "--corpus": small_corpus, "--mock-script": script,
        "--screening-log": tmp_path / "screening.jsonl", flag: bad,
    }
    evaluate = ["eval", "--dataset", str(files["--dataset"]), "--corpus", str(files["--corpus"])]
    evaluate += ["--guesses", "3", "--backend", "mock", "--mock-script", str(files["--mock-script"])]
    evaluate += ["--output-dir", str(run / "out")]
    retrieve = ["retrieve", "--question", "How many chocolates are left?", "--formula", "(3+4)-2"]
    retrieve += ["--corpus", str(files["--corpus"])]
    args = {
        "--dataset": evaluate,
        "--corpus": retrieve,
        "--screening-log": ["build-corpus", "--screening-log", str(bad), "--out", str(run / "corpus.jsonl")],
        "--mock-script": evaluate,
        "--config": [*retrieve, "--config", str(bad)],
        "--annotations": [*evaluate, "--annotations", str(bad)],
    }[flag]
    code = cli.main(args)
    err = capsys.readouterr().err
    assert code in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_BACKEND), (flag, err)
    if code == cli.EXIT_DATA:
        assert re.search(r"\bline \d+", err), (flag, err)


def test_out_of_range_flag_is_a_usage_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("")
    code = cli.main(["retrieve", "--question", "Q?", "--corpus", str(corpus), "--alpha", "2"])
    assert code == cli.EXIT_USAGE
    assert "alpha must be in [0, 1]" in capsys.readouterr().err


def test_config_file_float_field_takes_an_int(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"alpha": 1, "timeout": 5, "k": 3, "model": None}))
    cfg = cli.RunConfig.from_file(str(path))
    assert (cfg.alpha, cfg.timeout, cfg.k, cfg.model) == (1, 5, 3, None)


@pytest.mark.parametrize(
    "content, field",
    [
        ("[1]", None),
        ("{", None),
        ('{"rules": [{"completions": ["x"]}]}', "rules"),
        ('{"rules": [{"contains": "x"}]}', "rules"),
        ('{"rules": [{"contains": [1], "completions": ["x"]}]}', "rules"),
        ('{"rules": {"contains": "x"}}', "rules"),
        ('{"fingerprints": {"ab": "x"}}', "fingerprints"),
        ('{"fingerprints": [["ab", ["x"]]]}', "fingerprints"),
        ('{"fingerprints": []}', "fingerprints"),
        ('{"fingerprints": {"ab": []}}', "fingerprints"),
        ('{"rules": [{"contains": "How", "completions": []}]}', "rules"),
        ('{"rules": null}', "rules"),
        ('{"default": 5}', "default"),
        ('{"strict": "no"}', "strict"),
    ],
)
def test_malformed_mock_script_is_a_schema_error(tmp_path, capsys, content, field):
    dataset = tmp_path / "d.jsonl"
    _write_dataset(dataset, [("p1", "How many?", 3.0)])
    script = tmp_path / "mock.json"
    script.write_text(content)
    args = ["eval", "--dataset", str(dataset), "--output-dir", str(tmp_path / "run")]
    code = cli.main(args + ["--backend", "mock", "--mock-script", str(script)])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 1" in err
    assert field is None or f"field '{field}'" in err


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
    assert not (tmp_path / "gsm8k.jsonl").exists()


def test_gsm8k_import_line_that_is_not_utf8_is_schema_error(tmp_path):
    raw = tmp_path / "raw.jsonl"
    raw.write_bytes(json.dumps({"question": "q?", "answer": "#### 3"}).encode() + b"\n\xc3(\n")
    with pytest.raises(SchemaError, match="not UTF-8: byte 0xc3") as exc_info:
        import_gsm8k(raw, tmp_path / "gsm8k.jsonl")
    assert exc_info.value.line == 2


def test_gsm8k_import_writes_the_dataset_format(tmp_path):
    raw = tmp_path / "raw.jsonl"
    raw.write_text(
        json.dumps({"question": "Eggs?", "answer": "#### 1,200"}) + "\n"
        + json.dumps({"id": "x7", "question": "Pens?", "answer": "#### -3.5"}) + "\n"
    )
    out = tmp_path / "gsm8k.jsonl"
    assert import_gsm8k(raw, out, source="train") == 2
    assert out.read_text() == (
        '{"id": "train-1", "question": "Eggs?", "answer": 1200.0, "source": "train"}\n'
        '{"id": "x7", "question": "Pens?", "answer": -3.5, "source": "train"}\n'
    )


def test_subsample_is_deterministic_and_order_preserving():
    problems = [Problem(str(i), f"q{i}", float(i)) for i in range(20)]
    first = subsample(problems, 5, seed=42)
    second = subsample(problems, 5, seed=42)
    assert first == second
    ids = [int(p.id) for p in first]
    assert ids == sorted(ids)
    assert subsample(problems, 50, seed=1) == problems


_GOOD_PROBLEM = {"id": "p1", "question": "How many?", "answer": 3.0, "source": "unit"}
_GOOD_GSM8K = {"id": "g1", "question": "q?", "answer": "#### 3"}


def test_problem_table_lists_the_fields_of_problem_in_order():
    assert field_names(datasets._PROBLEM_FIELDS) == [f.name for f in dataclasses.fields(Problem)]


@pytest.mark.parametrize(
    "name, value",
    wrong_typed(datasets._PROBLEM_FIELDS) + not_finite(datasets._PROBLEM_FIELDS),
)
def test_load_problems_rejects_each_wrong_typed_field(tmp_path, name, value):
    bad = {**_GOOD_PROBLEM, name: value}
    exc = second_line_error(load_problems, tmp_path / "d.jsonl", _GOOD_PROBLEM, bad)
    assert exc.field == name


@pytest.mark.parametrize("name", required(datasets._PROBLEM_FIELDS))
def test_load_problems_rejects_each_missing_field(tmp_path, name):
    bad = {k: v for k, v in _GOOD_PROBLEM.items() if k != name}
    exc = second_line_error(load_problems, tmp_path / "d.jsonl", _GOOD_PROBLEM, bad)
    assert (exc.field, exc.message) == (name, "missing field")


def _import(path):
    return import_gsm8k(path, path.with_name("out.jsonl"))


@pytest.mark.parametrize("name, value", wrong_typed(datasets._GSM8K_FIELDS))
def test_gsm8k_import_rejects_each_wrong_typed_field(tmp_path, name, value):
    bad = {**_GOOD_GSM8K, name: value}
    assert second_line_error(_import, tmp_path / "raw.jsonl", _GOOD_GSM8K, bad).field == name


@pytest.mark.parametrize("name", required(datasets._GSM8K_FIELDS))
def test_gsm8k_import_rejects_each_missing_field(tmp_path, name):
    bad = {k: v for k, v in _GOOD_GSM8K.items() if k != name}
    assert second_line_error(_import, tmp_path / "raw.jsonl", _GOOD_GSM8K, bad).field == name


@pytest.mark.parametrize("answer", ["#### three", "42", "#### " + "9" * 400])
def test_gsm8k_import_rejects_an_answer_without_a_finite_final_number(tmp_path, answer):
    bad = {**_GOOD_GSM8K, "answer": answer}
    assert second_line_error(_import, tmp_path / "raw.jsonl", _GOOD_GSM8K, bad).field == "answer"


# the table RunConfig.from_file checks a config file against
_CONFIG_FIELDS = [
    (f.name, cli._CONFIG_TYPES[f.type], f.default) for f in dataclasses.fields(cli.RunConfig)
]


@pytest.mark.parametrize("name, value", wrong_typed(_CONFIG_FIELDS))
def test_config_file_rejects_each_wrong_typed_field(tmp_path, name, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({name: value}))
    with pytest.raises(SchemaError) as exc_info:
        cli.RunConfig.from_file(str(path))
    assert (exc_info.value.line, exc_info.value.field) == (1, name)


_TABLES = {
    "problem": datasets._PROBLEM_FIELDS,
    "gsm8k": datasets._GSM8K_FIELDS,
    "corpus": corpus_mod._EXAMPLE_FIELDS,
    "screening-record": corpus_mod._RECORD_FIELDS,
    "attempt": corpus_mod._ATTEMPT_FIELDS,
    "annotation": evaluation._ANNOTATION_FIELDS,
    "config": _CONFIG_FIELDS,
}


@pytest.mark.parametrize(
    "table, name, value",
    [
        pytest.param(table, *case.values, id=f"{fmt}-{case.id}")
        for fmt, table in _TABLES.items()
        for case in accepted(table)
    ],
)
def test_check_fields_returns_an_accepted_value_and_an_int_in_a_float_field_as_a_float(
    table, name, value
):
    (row,) = [row for row in table if row[0] == name]
    (got,) = datasets.check_fields({name: value}, [row], 1)
    as_float = type(value) is int and float in row[1]
    assert got == value and type(got) is (float if as_float else type(value))


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(
        st.builds(
            Problem,
            st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
            st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
        ),
        max_size=4,
    )
)
def test_saved_problems_load_equal(tmp_path, problems):
    path = tmp_path / "d.jsonl"
    save_problems(problems, path)
    assert load_problems(path) == problems


# ---------------------------------------------------------------------------
# fields that loaded only through coercion, through the subcommand that reads each file
# ---------------------------------------------------------------------------

_MISSING = object()
_GOOD_CORPUS_ENTRY = {
    "id": "a",
    "question": "q",
    "right_reasoning": "r",
    "right_formula": "1+1",
    "wrong_reasoning": "w",
    "wrong_formula": "2+2",
    "explanation": "",
    "gold_answer": 1.0,
    "source_dataset": "",
}
_GOOD_ANNOTATION = {"problem_id": "t1", "kind": "logic", "note": "", "annotator": ""}


def _reading_command(kind, path, tmp_path) -> list[str]:
    dataset = tmp_path / "d.jsonl"
    _write_dataset(dataset, [("t1", "How many?", 3.0)])
    return {
        "corpus": ["retrieve", "--question", "Q?", "--corpus", str(path)],
        "dataset": ["eval", "--dataset", str(path)],
        "screening": ["build-corpus", "--screening-log", str(path), "--out", str(tmp_path / "c")],
        "annotations": ["eval", "--dataset", str(dataset), "--annotations", str(path)],
    }[kind]


@pytest.mark.parametrize(
    "kind, good, name, value",
    [
        ("corpus", _GOOD_CORPUS_ENTRY, "id", 7),
        ("corpus", _GOOD_CORPUS_ENTRY, "question", None),
        ("corpus", _GOOD_CORPUS_ENTRY, "wrong_reasoning", ["w"]),
        ("corpus", _GOOD_CORPUS_ENTRY, "explanation", None),
        ("corpus", _GOOD_CORPUS_ENTRY, "gold_answer", "1.5"),
        ("corpus", _GOOD_CORPUS_ENTRY, "source_dataset", {}),
        ("dataset", _GOOD_PROBLEM, "id", None),
        ("dataset", _GOOD_PROBLEM, "question", None),
        ("dataset", _GOOD_PROBLEM, "answer", "3"),
        ("screening", _GOOD_RECORD, "problem_id", 5),
        ("screening", _GOOD_RECORD, "question", None),
        ("annotations", _GOOD_ANNOTATION, "note", 3),
        ("annotations", _GOOD_ANNOTATION, "problem_id", _MISSING),
    ],
)
def test_a_malformed_field_is_a_data_error_naming_line_and_field(
    tmp_path, capsys, kind, good, name, value
):
    bad = {k: v for k, v in {**good, name: value}.items() if v is not _MISSING}
    path = tmp_path / f"{kind}.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    assert cli.main(_reading_command(kind, path, tmp_path)) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"(line 2, field '{name}')" in err


# ---------------------------------------------------------------------------
# the flags each subcommand takes
# ---------------------------------------------------------------------------


_COMMON = {"--config", "--credential-env", "--timeout"}
_BACKEND = {"--backend", "--endpoint", "--model", "--mock-script", "--parallelism"}
_SCORING = {"--alpha", "--sem-provider", "--sem-endpoint", "--sem-model"}
_RANKING = {"--corpus", "--k"}
_OPTIONS = {
    "simdist": set(),
    "preprocess": _COMMON | _BACKEND | {"--dataset", "--output-dir", "--attempts", "--out"},
    "build-corpus": _COMMON | _SCORING | {"--dedup-threshold", "--screening-log", "--out"},
    "retrieve": _COMMON | _SCORING | _RANKING | {"--question", "--formula"},
    "solve": _COMMON | _BACKEND | _SCORING | _RANKING
    | {"--guesses", "--strategy", "--question", "--trace-out"},
    "eval": _COMMON | _BACKEND | _SCORING | _RANKING
    | {"--guesses", "--strategy", "--dataset", "--output-dir", "--seed", "--sample"}
    | {"--annotations"},
}


def test_each_subcommand_takes_exactly_the_flags_it_reads():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        command: {s for action in p._actions for s in action.option_strings} - {"-h", "--help"}
        for command, p in sub.choices.items()
    }
    assert got == _OPTIONS
    assert sum(len(options) for options in got.values()) == 72


_REQUIRED = {
    "preprocess": [],
    "build-corpus": ["--screening-log", "log.jsonl", "--out", "corpus.jsonl"],
    "retrieve": ["--question", "Q?"],
    "solve": ["--question", "Q?"],
    "eval": [],
}


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("preprocess", "--alpha", "0.5"),
        ("preprocess", "--dedup-threshold", "0.5"),
        ("preprocess", "--seed", "1"),
        ("preprocess", "--sem-provider", "offline"),
        ("preprocess", "--sem-endpoint", "http://emb.local/v1"),
        ("preprocess", "--sem-model", "embedder"),
        ("build-corpus", "--seed", "1"),
        ("build-corpus", "--parallelism", "2"),
        ("retrieve", "--seed", "1"),
        ("retrieve", "--parallelism", "2"),
        ("retrieve", "--dedup-threshold", "0.5"),
        ("solve", "--dedup-threshold", "0.5"),
        ("eval", "--dedup-threshold", "0.5"),
        ("solve", "--seed", "1"),
    ],
)
def test_a_flag_the_subcommand_never_reads_is_a_usage_error(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc_info:
        cli.main([command, *_REQUIRED[command], flag, value])
    assert exc_info.value.code == cli.EXIT_USAGE
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_build_corpus_and_retrieve_take_credential_env_and_timeout(small_corpus, tmp_path, capsys):
    extra = ["--credential-env", "NO_SUCH_KEY", "--timeout", "3"]
    log = tmp_path / "empty.jsonl"
    log.write_text("")
    out = tmp_path / "out.jsonl"
    assert cli.main(["build-corpus", "--screening-log", str(log), "--out", str(out), *extra]) == 0
    args = ["retrieve", "--question", "How far does the train go?", "--corpus", str(small_corpus)]
    assert cli.main(args + extra) == 0
    assert capsys.readouterr().out.count("\n") == 1 + 3  # build-corpus line, then 3 examples


def test_retrieve_without_corpus_is_a_usage_error(capsys):
    assert cli.main(["retrieve", "--question", "Q?"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "usage error: retrieve needs --corpus\n"


def test_mock_backend_without_script_is_a_usage_error(small_corpus, capsys):
    code = cli.main(["solve", "--question", "Q?", "--corpus", str(small_corpus)])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == "usage error: mock backend needs --mock-script\n"


def test_eval_config_replays_as_retrieve_config(eval_run, small_corpus, tmp_path, capsys):
    dataset, script = eval_run
    settings = ["--corpus", str(small_corpus), "--k", "2", "--alpha", "0.5"]
    run = tmp_path / "run"
    eval_args = ["eval", "--dataset", str(dataset), "--strategy", "contrastive", "--guesses", "3"]
    eval_args += ["--backend", "mock", "--mock-script", str(script), "--output-dir", str(run)]
    assert cli.main(eval_args + settings) == 0
    capsys.readouterr()
    target = ["retrieve", "--question", "How many chocolates are left?", "--formula", "(3+4)-5"]
    assert cli.main(target + settings) == 0
    by_flags = capsys.readouterr().out
    assert cli.main(target + ["--config", str(run / "config.json")]) == 0
    assert capsys.readouterr().out == by_flags
    assert by_flags.count("\n") == 2
