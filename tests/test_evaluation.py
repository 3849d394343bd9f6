import dataclasses
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from _schema import field_names, required, second_line_error, wrong_typed
from mathcontrast import evaluation
from mathcontrast.errors import MissingGold, UnknownKind
from mathcontrast.evaluation import (
    ERROR_KINDS,
    ErrorAnnotation,
    evaluate,
    load_annotations,
    save_report,
    tally_errors,
    trace_to_dict,
)
from mathcontrast.pipeline import SolveTrace


def _trace(problem_id, majority, any_flag, gold=1.0):
    return SolveTrace(
        problem_id=problem_id,
        retrieved=(),
        prompt_text="p",
        guesses=(("text", 1.0),),
        voted_answer=1.0 if majority else 0.0,
        gold_answer=gold,
        majority_correct=majority,
        any_correct=any_flag,
    )


def test_evaluate_ratios():
    traces = [
        _trace("a", True, True),
        _trace("b", True, True),
        _trace("c", True, True),
        _trace("d", False, True),
        _trace("e", False, False),
    ]
    report = evaluate(traces)
    assert report.total == 5
    assert report.correct == 3
    assert report.accuracy == 0.6
    assert report.latent_correct == 4
    assert report.latent_accuracy == 0.8
    assert len(report.per_problem) == 5


def test_evaluate_empty_run_reports_zero():
    report = evaluate([])
    assert report.total == 0
    assert report.accuracy == 0.0
    assert report.latent_accuracy == 0.0


def test_evaluate_all_correct():
    report = evaluate([_trace(str(i), True, True) for i in range(4)])
    assert report.accuracy == report.latent_accuracy == 1.0


def test_evaluate_requires_gold():
    with pytest.raises(MissingGold) as exc_info:
        evaluate([_trace("nogold", True, True, gold=None)])
    assert "nogold" in str(exc_info.value)


def test_evaluate_latent_never_below_accuracy_random():
    rng = random.Random(13)
    for _ in range(300):
        traces = []
        for i in range(rng.randint(1, 8)):
            majority = rng.random() < 0.5
            any_flag = majority or rng.random() < 0.5
            traces.append(_trace(str(i), majority, any_flag))
        report = evaluate(traces)
        assert report.latent_accuracy >= report.accuracy


def test_evaluate_permutation_invariant():
    traces = [
        _trace("a", True, True),
        _trace("b", False, True),
        _trace("c", False, False),
    ]
    fwd = evaluate(traces)
    rev = evaluate(list(reversed(traces)))
    assert (fwd.total, fwd.correct, fwd.latent_correct) == (
        rev.total,
        rev.correct,
        rev.latent_correct,
    )


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------


def _annotations(comprehension, calculation, logic, equation):
    anns = []
    for kind, n in (
        ("comprehension", comprehension),
        ("calculation", calculation),
        ("logic", logic),
        ("equation", equation),
    ):
        anns.extend(
            ErrorAnnotation(f"{kind}-{i}", kind, note="", annotator="a")
            for i in range(n)
        )
    return anns


def test_tally_svamp_column():
    tally = tally_errors(_annotations(10, 6, 8, 4))
    assert tally.total == 28
    assert tally.counts == {
        "comprehension": 10,
        "calculation": 6,
        "logic": 8,
        "equation": 4,
    }
    assert tally.percents == {
        "comprehension": 35.7,
        "calculation": 21.4,
        "logic": 28.6,
        "equation": 14.3,
    }


def test_tally_gsm8k_column_one_decimal():
    tally = tally_errors(_annotations(14, 8, 17, 3))
    assert tally.total == 42
    assert tally.percents == {
        "comprehension": 33.3,
        "calculation": 19.0,
        "logic": 40.5,
        "equation": 7.1,
    }


def test_tally_empty():
    tally = tally_errors([])
    assert tally.total == 0
    assert all(v == 0 for v in tally.counts.values())
    assert all(v == 0.0 for v in tally.percents.values())


def test_tally_one_of_each():
    tally = tally_errors(_annotations(1, 1, 1, 1))
    assert all(v == 25.0 for v in tally.percents.values())


def test_tally_percentages_sum_to_hundred():
    rng = random.Random(3)
    for _ in range(50):
        counts = [rng.randint(0, 12) for _ in range(4)]
        if sum(counts) == 0:
            continue
        tally = tally_errors(_annotations(*counts))
        assert sum(tally.percents.values()) == pytest.approx(100.0, abs=0.3)


def test_annotation_rejects_unknown_kind():
    with pytest.raises(UnknownKind):
        ErrorAnnotation("p", "typo-kind")


def test_tally_format_table_mentions_each_kind():
    table = tally_errors(_annotations(10, 6, 8, 4)).format_table()
    for kind in ERROR_KINDS:
        assert kind in table
    assert "10(35.7%)" in table


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def test_annotation_file_roundtrip(tmp_path):
    path = tmp_path / "annotations.jsonl"
    rows = [
        {"problem_id": "p1", "kind": "logic", "note": "skipped a step", "annotator": "me"},
        {"problem_id": "p2", "kind": "calculation", "note": "", "annotator": ""},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    anns = load_annotations(path)
    assert [a.kind for a in anns] == ["logic", "calculation"]


_GOOD_ANNOTATION = {"problem_id": "p1", "kind": "logic", "note": "n", "annotator": "a"}


def test_annotation_table_lists_the_fields_of_error_annotation_in_order():
    assert field_names(evaluation._ANNOTATION_FIELDS) == [
        f.name for f in dataclasses.fields(ErrorAnnotation)
    ]


@pytest.mark.parametrize("name, value", wrong_typed(evaluation._ANNOTATION_FIELDS))
def test_annotations_reject_each_wrong_typed_field(tmp_path, name, value):
    bad = {**_GOOD_ANNOTATION, name: value}
    exc = second_line_error(load_annotations, tmp_path / "a.jsonl", _GOOD_ANNOTATION, bad)
    assert exc.field == name


@pytest.mark.parametrize("name", required(evaluation._ANNOTATION_FIELDS))
def test_annotations_reject_each_missing_field(tmp_path, name):
    bad = {k: v for k, v in _GOOD_ANNOTATION.items() if k != name}
    exc = second_line_error(load_annotations, tmp_path / "a.jsonl", _GOOD_ANNOTATION, bad)
    assert (exc.field, exc.message) == (name, "missing field")


def test_annotation_note_and_annotator_default_to_empty(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text(json.dumps({"problem_id": "p1", "kind": "logic"}) + "\n")
    assert load_annotations(path) == [ErrorAnnotation("p1", "logic")]


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.builds(ErrorAnnotation, _TEXT, st.sampled_from(ERROR_KINDS), _TEXT, _TEXT)))
def test_annotation_file_loads_equal_annotations(tmp_path, annotations):
    path = tmp_path / "annotations.jsonl"
    rows = [json.dumps(dataclasses.asdict(a), ensure_ascii=False) + "\n" for a in annotations]
    path.write_text("".join(rows), encoding="utf-8")
    assert load_annotations(path) == annotations


def test_save_report_writes_traces_and_summary(tmp_path):
    traces = [_trace("a", True, True), _trace("b", False, False)]
    report = evaluate(traces)
    save_report(report, traces, tmp_path)
    lines = (tmp_path / "traces.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == trace_to_dict(traces[0])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["total"] == 2
    assert summary["accuracy"] == 0.5
