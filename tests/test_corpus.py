import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from mathcontrast.corpus import (
    Attempt,
    ReferenceExample,
    ScreeningRecord,
    answers_match,
    append_screening_record,
    dedup,
    load,
    load_screening_log,
    save,
    screen,
)
from mathcontrast.errors import SchemaError
from mathcontrast.formula import align_variables
from mathcontrast.semantic import HashingNgramProvider
from mathcontrast.similarity import SimilarityConfig, tls

GOLD = 39.0


def _attempt(correct: bool, formula: str = "32+42") -> Attempt:
    return Attempt(
        reasoning="worked solution" if correct else "confused solution",
        formula=formula,
        answer=GOLD if correct else GOLD + 3,
        correct=correct,
    )


def _record(outcomes, problem_id="p1") -> ScreeningRecord:
    return ScreeningRecord(
        problem_id=problem_id,
        question="How many pieces are left?",
        gold_answer=GOLD,
        attempts=tuple(_attempt(flag) for flag in outcomes),
        source_dataset="unit",
    )


def _example(i: int, question: str, formula: str = "32+42") -> ReferenceExample:
    return ReferenceExample(
        id=f"ex{i:02d}",
        question=question,
        right_reasoning=f"right reasoning {i}",
        right_formula=align_variables(formula),
        wrong_reasoning=f"wrong reasoning {i}",
        wrong_formula=align_variables("74-35"),
        explanation="",
        gold_answer=float(i),
        source_dataset="unit",
    )


# ---------------------------------------------------------------------------
# Answer matching
# ---------------------------------------------------------------------------


def test_answers_match_tolerates_formatting():
    assert answers_match(5590.0, 5590)
    assert answers_match(39.0, 39.0000001)
    assert not answers_match(39.0, 39.5)
    assert not answers_match(None, 39.0)
    assert answers_match(0.0, 1e-7)


# ---------------------------------------------------------------------------
# Screening
# ---------------------------------------------------------------------------


def test_screen_admits_mixed_outcomes():
    admitted = screen([_record([True, False, True])])
    assert len(admitted) == 1
    ex = admitted[0]
    assert ex.right_reasoning == "worked solution"
    assert ex.wrong_reasoning == "confused solution"
    assert ex.explanation == ""
    assert ex.gold_answer == GOLD


def test_screen_rejects_all_correct():
    assert screen([_record([True, True, True])]) == []


def test_screen_rejects_all_wrong():
    assert screen([_record([False, False])]) == []


def test_screen_takes_first_of_each_outcome():
    attempts = (
        Attempt("first right", "1+1", GOLD, True),
        Attempt("first wrong", "2+2", GOLD + 1, False),
        Attempt("second right", "3+3", GOLD, True),
        Attempt("second wrong", "4+4", GOLD + 2, False),
    )
    rec = ScreeningRecord("p", "q?", GOLD, attempts)
    ex = screen([rec])[0]
    assert ex.right_reasoning == "first right"
    assert ex.wrong_reasoning == "first wrong"


def test_screen_skips_attempts_with_unusable_formula():
    attempts = (
        Attempt("broken right", "", GOLD, True),
        Attempt("good right", "1+1", GOLD, True),
        Attempt("wrong", "2+2", GOLD + 1, False),
    )
    ex = screen([ScreeningRecord("p", "q?", GOLD, attempts)])[0]
    assert ex.right_reasoning == "good right"


def test_screen_exhaustive_patterns_up_to_five_attempts():
    for length in range(1, 6):
        for outcomes in itertools.product([True, False], repeat=length):
            admitted = screen([_record(list(outcomes))])
            expected = (True in outcomes) and (False in outcomes)
            assert bool(admitted) == expected, outcomes


# ---------------------------------------------------------------------------
# Dedup
# ---------------------------------------------------------------------------


def test_dedup_drops_identical_copies():
    cfg = SimilarityConfig()
    sem = HashingNgramProvider()
    a = _example(1, "How many apples does Ann have?")
    b = _example(2, "How many apples does Ann have?")
    kept = dedup([a, b], cfg, sem)
    assert kept == [a]


def test_dedup_keeps_distinct_examples():
    cfg = SimilarityConfig()
    sem = HashingNgramProvider()
    a = _example(1, "How many apples does Ann have?", "1+1")
    b = _example(2, "A train travels at 60 km per hour for 2 hours.", "1*1/1-1")
    score = tls(
        (a.question, a.right_formula), (b.question, b.right_formula), cfg, sem
    )
    assert score < cfg.dedup_threshold  # well below: dissimilar pair stays
    assert dedup([a, b], cfg, sem) == [a, b]


def test_dedup_empty():
    assert dedup([], SimilarityConfig(), HashingNgramProvider()) == []


def test_dedup_idempotent_and_shrinking():
    cfg = SimilarityConfig(dedup_threshold=0.5)
    sem = HashingNgramProvider()
    questions = [
        "How many apples does Ann have?",
        "How many apples does Bob have?",
        "A train travels 60 km.",
        "How many apples does Ann have today?",
        "Paint covers 12 square meters.",
    ]
    examples = [_example(i, q) for i, q in enumerate(questions)]
    once = dedup(examples, cfg, sem)
    assert len(once) <= len(examples)
    assert dedup(once, cfg, sem) == once


def test_dedup_threshold_above_one_is_identity():
    cfg = SimilarityConfig(dedup_threshold=1.0)
    sem = HashingNgramProvider()
    a = _example(1, "Same question?")
    b = _example(2, "Same question?")
    # tls of the clones is exactly 1.0, not above the threshold
    assert dedup([a, b], cfg, sem) == [a, b]


@pytest.mark.parametrize("alpha", [0.0, 0.7, 1.0])
def test_dedup_keeps_same_ids_as_greedy_tls_reference(alpha):
    rng = random.Random(3)
    formulas = ["32+42", "7*6", "(32+42)-35", "5-2", "(1+2)*3", "9/3+1", "(4)"]
    questions = [
        "How many apples does Ann have?",
        "How many apples does Ann have now?",
        "A train travels 60 km.",
        "Paint covers 12 square meters.",
        "How many pens did Bob buy?",
    ]
    examples = [
        _example(i, rng.choice(questions), rng.choice(formulas)) for i in range(60)
    ]
    cfg = SimilarityConfig(alpha=alpha, dedup_threshold=0.85)
    sem = HashingNgramProvider()
    reference = []
    for ex in examples:
        pair = (ex.question, ex.right_formula)
        if all(
            tls(pair, (k.question, k.right_formula), cfg, sem) <= cfg.dedup_threshold
            for k in reference
        ):
            reference.append(ex)
    assert 1 < len(reference) < len(examples)
    assert [ex.id for ex in dedup(examples, cfg, sem)] == [ex.id for ex in reference]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    examples = [
        _example(1, "Q one?"),
        _example(2, "Q two?", "(51.0-8.0)*130.0"),
        _example(3, "Q three?", "32+42;74-35"),
    ]
    path = tmp_path / "corpus.jsonl"
    save(examples, path)
    assert load(path) == examples


def test_load_empty_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("")
    assert load(path) == []


def test_load_missing_gold_answer_names_line_and_field(tmp_path):
    good = json.dumps(
        {
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
    )
    bad = json.loads(good)
    del bad["gold_answer"]
    path = tmp_path / "corpus.jsonl"
    path.write_text(good + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(SchemaError) as exc_info:
        load(path)
    assert exc_info.value.line == 2
    assert exc_info.value.field == "gold_answer"


def test_load_rejects_unparseable_formula(tmp_path):
    record = {
        "id": "a",
        "question": "q",
        "right_reasoning": "r",
        "right_formula": "???",
        "wrong_reasoning": "w",
        "wrong_formula": "2+2",
        "explanation": "",
        "gold_answer": 1.0,
        "source_dataset": "",
    }
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(SchemaError) as exc_info:
        load(path)
    assert exc_info.value.field == "right_formula"


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("{not json}\n")
    with pytest.raises(SchemaError):
        load(path)


def test_screening_log_roundtrip(tmp_path):
    path = tmp_path / "screening.jsonl"
    rec1 = _record([True, False], "p1")
    rec2 = _record([False, False], "p2")
    append_screening_record(rec1, path)
    append_screening_record(rec2, path)
    got = load_screening_log(path)
    assert got == [rec1, rec2]
    assert got[0].attempt_count == 2


def test_persisted_examples_satisfy_admission_rule(tmp_path):
    records = [_record([True, False], "p1"), _record([True, True], "p2")]
    admitted = screen(records)
    path = tmp_path / "corpus.jsonl"
    save(admitted, path)
    by_id = {r.problem_id: r for r in records}
    for ex in load(path):
        outcomes = {a.correct for a in by_id[ex.id].attempts}
        assert outcomes == {True, False}


@given(st.lists(st.booleans(), min_size=1, max_size=8))
def test_screen_admission_rule_property(outcomes):
    admitted = screen([_record(outcomes)])
    assert bool(admitted) == (True in outcomes and False in outcomes)
