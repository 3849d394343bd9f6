import copy
import dataclasses
import itertools
import json
import pickle
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from _oracles import greedy_dedup
from _schema import field_names, not_finite, required, second_line_error, wrong_typed
from mathcontrast import _kernels, corpus as corpus_mod, similarity
from mathcontrast.corpus import (
    Attempt,
    Corpus,
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
from mathcontrast.errors import DegenerateInput, ParseError, SchemaError, ZeroVector
from mathcontrast.formula import AlignedFormula, align_variables
from mathcontrast.pipeline import rank
from mathcontrast.semantic import EMBED_DIM, HashingNgramProvider
from mathcontrast.similarity import SimilarityConfig, split_balanced, tls

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


class _WeightedNgrams(HashingNgramProvider):
    """Float embeddings: n-gram counts times fixed non-integer weights,
    so dot products round."""

    WEIGHTS = np.random.default_rng(0).uniform(0.5, 1.5, EMBED_DIM)

    def embed(self, text):
        return super().embed(text) * self.WEIGHTS

    def embed_many(self, texts):
        return super().embed_many(texts) * self.WEIGHTS


class _ZeroFor(HashingNgramProvider):
    """The offline provider, except that one text embeds to zero."""

    def __init__(self, zero):
        super().__init__()
        self.zero = zero

    def embed(self, text):
        return np.zeros(EMBED_DIM) if text == self.zero else super().embed(text)

    def embed_many(self, texts):
        return np.stack([self.embed(t) for t in texts]) if texts else np.zeros((0, EMBED_DIM))


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
    # integer embeddings score exactly as per pair; float ones may differ
    # in the last bit, which no decision here is close enough to notice
    for provider in [HashingNgramProvider, _WeightedNgrams]:
        reference = greedy_dedup(examples, cfg, provider())
        assert 1 < len(reference) < len(examples)
        assert [ex.id for ex in dedup(examples, cfg, provider())] == [ex.id for ex in reference]


DEDUP_FORMULAS = ["32+42", "7*6", "(32+42)-35", "5-2", "(1+2)*3", "9/3+1", "(4)", "42+32", "7*6-1"]
DEDUP_QUESTIONS = [
    "How many apples does Ann have?",
    "How many apples does Ann have now?",
    "A train travels 60 km.",
    "Paint covers 12 square meters.",
]


@given(
    st.lists(
        st.tuples(
            st.integers(0, len(DEDUP_QUESTIONS) - 1), st.integers(0, len(DEDUP_FORMULAS) - 1)
        ),
        min_size=1,
        max_size=24,
    ),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_pruned_dedup_keeps_same_ids_as_greedy_tls_reference(drawn, alpha, threshold):
    examples = [
        _example(i, DEDUP_QUESTIONS[q], DEDUP_FORMULAS[f]) for i, (q, f) in enumerate(drawn)
    ]
    cfg = SimilarityConfig(alpha=alpha, dedup_threshold=threshold)
    for provider in [HashingNgramProvider, _WeightedNgrams]:
        reference = greedy_dedup(examples, cfg, provider())
        assert [ex.id for ex in dedup(examples, cfg, provider())] == [ex.id for ex in reference]


def _pieces(formula):
    """The strings a target can be compared with for one entry formula:
    its text and, when it splits, its two branches."""
    split = split_balanced(formula.text)
    return {formula.text} if split.operator is None else {formula.text, split.left, split.right}


@pytest.mark.parametrize("alpha", [0.7, 1.0])
def test_dedup_compares_formulas_only_with_kept_entries_before_the_candidate(monkeypatch, alpha):
    rng = random.Random(6)
    formulas = DEDUP_FORMULAS + ["(1+2)-(3*4)", "1*2-3/4", "((5))", "6/(7+8)"]
    # a question of its own names each candidate, since a candidate with
    # no kept entry left to compare makes no scores call
    examples = [
        _example(i, f"{rng.choice(DEDUP_QUESTIONS)} (case {i})", rng.choice(formulas))
        for i in range(40)
    ]
    cfg = SimilarityConfig(alpha=alpha, dedup_threshold=0.9)
    reference = greedy_dedup(examples, cfg, HashingNgramProvider())
    assert 1 < len(reference) < len(examples)
    position = {ex.question: i for i, ex in enumerate(examples)}
    allowed, called = set(), []
    scores, kernel = similarity.scores, _kernels.levenshtein_many

    def spying(target, *args, **kwargs):
        i = position[target[0]]
        called.append(i)
        allowed.clear()
        allowed.update(*(_pieces(ex.right_formula) for ex in reference if position[ex.question] < i))
        return scores(target, *args, **kwargs)

    def counting(s, strings):
        # s is the candidate's side, each of strings an entry's
        assert all(t in allowed for t in strings)
        return kernel(s, strings)

    monkeypatch.setattr(similarity, "scores", spying)
    monkeypatch.setattr(_kernels, "levenshtein_many", counting)
    assert dedup(examples, cfg, HashingNgramProvider()) == reference
    assert called == sorted(set(called)) and 0 not in called


def _outcome(fn):
    try:
        return [ex.id for ex in fn()]
    except (DegenerateInput, ZeroVector) as exc:
        return type(exc)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_dedup_raises_on_degenerate_entries_exactly_as_greedy_tls_reference(alpha):
    cfg = SimilarityConfig(alpha=alpha)
    empty = AlignedFormula("", 0, "")
    a, b = _example(1, "Apples?"), _example(2, "Pears?", "7*6")
    blank_a, blank_b = (dataclasses.replace(ex, right_formula=empty) for ex in (a, b))
    blanks = [[blank_a], [blank_a, blank_b], [blank_a, b], [a, blank_b], [a, b, blank_a]]
    zero = _ZeroFor("Pears?")
    for sem, cases in [(HashingNgramProvider(), blanks), (zero, [[b], [a, b], [b, a], [a, a, b]])]:
        for examples in cases:
            expected = _outcome(lambda: greedy_dedup(examples, cfg, sem))
            assert _outcome(lambda: dedup(examples, cfg, sem)) == expected
    # with both defects the first error met may differ, but both raise
    for examples in blanks[1:]:
        expected = _outcome(lambda: greedy_dedup(examples, cfg, zero))
        got = _outcome(lambda: dedup(examples, cfg, zero))
        assert isinstance(got, type) == isinstance(expected, type)
    # a single entry is kept unscored; two with one degenerate raise
    sem = HashingNgramProvider()
    assert dedup([blank_a], cfg, sem) == [blank_a]
    assert dedup([b], cfg, zero) == [b]
    if alpha > 0.0:
        with pytest.raises(DegenerateInput):
            dedup([blank_a, blank_b], cfg, sem)
    if alpha < 1.0:
        with pytest.raises(ZeroVector):
            dedup([a, b], cfg, zero)


class _Only:
    """A provider offering only the named methods of another."""

    def __init__(self, inner, *methods):
        for name in methods:
            setattr(self, name, getattr(inner, name))


class _Refusing:
    """A provider that fails whenever it is asked."""

    def similarity(self, a, b):
        raise AssertionError("provider asked")

    def similarities(self, a, texts):
        raise AssertionError("provider asked")

    def similarity_rows(self, queries, texts):
        raise AssertionError("provider asked")


def _straddling_corpus(n=40, step=8):
    """Seeded examples where clones and near-clones sit on both sides of
    the boundaries of dedup's blocks of ``step`` candidates (the first
    block starts at entry 1)."""
    rng = random.Random(11)
    formulas = DEDUP_FORMULAS + ["(1+2)-(3*4)", "1*2-3/4", "6/(7+8)"]
    examples = [
        _example(
            i,
            f"How many {rng.choice(['apples', 'pens', 'cars', 'stamps'])} does "
            f"{rng.choice(['Ann', 'Bob', 'Chloe', 'Dev', 'Emeka'])} have after {rng.randrange(12)} days?",
            rng.choice(formulas),
        )
        for i in range(n)
    ]
    first = examples[0]
    for boundary in range(1 + step, n, step):
        # a clone of the last candidate of a block opens the next block,
        # and a near-clone of the first entry comes two places before it
        examples[boundary] = dataclasses.replace(examples[boundary - 1], id=f"ex{boundary:02d}")
        near = dataclasses.replace(first, id=f"ex{boundary - 2:02d}", question=first.question + "?")
        examples[boundary - 2] = near
    return examples


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("threshold", [0.8, 0.95])
def test_dedup_in_blocks_keeps_the_ids_of_the_greedy_tls_reference(monkeypatch, alpha, threshold):
    examples = _straddling_corpus()
    # 320 cells over 40 entries: blocks of 8 candidates, five of them
    monkeypatch.setattr(corpus_mod, "DEDUP_BLOCK_CELLS", 320)
    blocks = []
    terms = similarity.semantic_terms
    def counting(queries, *args):
        blocks.append(len(queries))
        return terms(queries, *args)

    monkeypatch.setattr(similarity, "semantic_terms", counting)
    cfg = SimilarityConfig(alpha=alpha, dedup_threshold=threshold)
    for provider in [HashingNgramProvider, _WeightedNgrams]:
        blocks.clear()
        reference = greedy_dedup(examples, cfg, provider())
        assert len(reference) < len(examples)
        assert [ex.id for ex in dedup(examples, cfg, provider())] == [ex.id for ex in reference]
        assert blocks == [8, 8, 8, 8, 7]


@pytest.mark.parametrize("methods", [("similarity",), ("similarity", "similarities")])
@pytest.mark.parametrize("alpha", [0.0, 0.7])
def test_dedup_through_a_provider_without_a_block_product_keeps_the_same_ids(monkeypatch, methods, alpha):
    examples = _straddling_corpus()
    monkeypatch.setattr(corpus_mod, "DEDUP_BLOCK_CELLS", 320)
    cfg = SimilarityConfig(alpha=alpha, dedup_threshold=0.9)
    reference = greedy_dedup(examples, cfg, HashingNgramProvider())
    assert len(reference) < len(examples)
    sem = _Only(HashingNgramProvider(), *methods)
    assert not hasattr(sem, "similarity_rows")
    assert dedup(examples, cfg, sem) == reference
    # the degenerate cases raise as they do through the block product
    a, b = _example(1, "Apples?"), _example(2, "Pears?", "7*6")
    blank = dataclasses.replace(a, right_formula=AlignedFormula("", 0, ""))
    zero = _ZeroFor("Pears?")
    for case in ([blank, b], [a, b], [b, a, a], [a, a]):
        expected = _outcome(lambda: greedy_dedup(case, cfg, zero))
        assert _outcome(lambda: dedup(case, cfg, zero)) == expected
        assert _outcome(lambda: dedup(case, cfg, _Only(zero, *methods))) == expected


def test_dedup_at_alpha_one_never_asks_the_provider(monkeypatch):
    examples = _straddling_corpus()
    monkeypatch.setattr(corpus_mod, "DEDUP_BLOCK_CELLS", 320)
    cfg = SimilarityConfig(alpha=1.0, dedup_threshold=0.9)
    reference = greedy_dedup(examples, cfg, _Refusing())
    assert 1 < len(reference) < len(examples)
    assert dedup(examples, cfg, _Refusing()) == reference


def test_dedup_on_a_corpus_builds_one_index_that_a_later_rank_reuses(monkeypatch):
    builds = []

    class CountingIndex(corpus_mod.RetrievalIndex):
        def __init__(self, entries):
            builds.append(len(entries))
            super().__init__(entries)

    monkeypatch.setattr(corpus_mod, "RetrievalIndex", CountingIndex)
    rng = random.Random(5)
    formulas = ["32+42", "7*6", "(32+42)-35", "5-2", "(1+2)*3"]
    corpus = Corpus(_example(i, f"question {i % 7}", rng.choice(formulas)) for i in range(30))
    cfg, sem = SimilarityConfig(dedup_threshold=0.95), HashingNgramProvider()
    kept = dedup(corpus, cfg, sem)
    assert 1 < len(kept) < len(corpus)
    assert builds == [30]
    target = (corpus[3].question, corpus[3].right_formula)
    ranked = rank(target, corpus, cfg, sem)
    assert builds == [30]
    assert [(ex.id, score) for ex, score in ranked][0] == (corpus[3].id, 1.0)


def test_corpus_keeps_its_index_while_its_entries_stay_equal():
    corpus = Corpus(_example(i, f"question {i}") for i in range(5))
    index = corpus.index()
    # an equal example in place of an entry keeps the index and its entry
    corpus[2] = _example(2, "question 2")
    assert corpus[2] is not index.entries[2]
    assert corpus.index() is index and index.entries[2] == corpus[2]
    # an unequal one rebuilds it from the current entries
    corpus[2] = _example(2, "question two")
    rebuilt = corpus.index()
    assert rebuilt is not index
    assert rebuilt.entries == corpus and rebuilt.questions[2] == "question two"
    corpus.append(_example(5, "question 5"))
    assert corpus.index() is not rebuilt and len(corpus.index().entries) == 6


@pytest.mark.parametrize("alpha", [0.0, 0.7, 1.0])
def test_dedup_builds_no_count_rows_that_only_bounded_top_k_reads(monkeypatch, alpha):
    built = []
    counts = similarity.char_counts
    monkeypatch.setattr(
        similarity, "char_counts", lambda strings: built.append(list(strings)) or counts(strings)
    )
    rng = random.Random(7)
    corpus = Corpus(
        _example(i, rng.choice(DEDUP_QUESTIONS), rng.choice(DEDUP_FORMULAS)) for i in range(30)
    )
    cfg, sem = SimilarityConfig(alpha=alpha, dedup_threshold=0.9), HashingNgramProvider()
    assert 1 < len(dedup(corpus, cfg, sem)) < len(corpus)
    table = corpus.index().table
    assert built == [] and table._counts is None
    # a later top-k rank on the same corpus builds the one count array of
    # its texts and branches; a second builds none
    every = table.texts + table.branches
    target = (corpus[0].question, corpus[0].right_formula)
    rank(target, corpus, SimilarityConfig(alpha=0.7), sem, 3)
    first = table._counts
    assert built.count(every) == 1 and first is not None and first.shape[1] == len(every)
    rank(target, corpus, SimilarityConfig(alpha=0.7), sem, 3)
    assert built.count(every) == 1 and table._counts is first
    assert corpus.index().table is table


def test_dedup_computes_each_unordered_branch_pair_once(monkeypatch):
    rng = random.Random(4)
    formulas = ["32+42", "7*6", "(32+42)-35", "5-2", "(1+2)*3", "9/3+1", "1*2-3/4", "(1+2)-(3*4)"]
    examples = [_example(i, f"question {i}", rng.choice(formulas)) for i in range(40)]
    computed = []
    kernel = _kernels.levenshtein_many

    def counting(s, strings):
        computed.extend(frozenset((s, t)) for t in strings)
        return kernel(s, strings)

    monkeypatch.setattr(_kernels, "levenshtein_many", counting)
    dedup(examples, SimilarityConfig(alpha=1.0, dedup_threshold=0.99), HashingNgramProvider())
    assert computed
    assert len(computed) == len(set(computed))


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


def test_load_returns_a_corpus_equal_to_the_list_saved(tmp_path):
    examples = [_example(1, "Q one?"), _example(2, "Q two?", "7*6"), _example(3, "Q one?")]
    path = tmp_path / "corpus.jsonl"
    save(examples, path)
    loaded = load(path)
    assert type(loaded) is Corpus
    assert loaded == examples and examples == loaded
    loaded.index()
    for duplicate in (copy.copy(loaded), copy.deepcopy(loaded), pickle.loads(pickle.dumps(loaded))):
        assert type(duplicate) is Corpus
        assert duplicate == examples


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


@pytest.mark.parametrize("value", [None, 12, True], ids=["null", "number", "boolean"])
@pytest.mark.parametrize("name", ["right_formula", "wrong_formula"])
def test_load_rejects_formula_that_is_not_a_string(tmp_path, name, value):
    good = corpus_mod.example_to_dict(_example(0, "q"))
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, name: value}) + "\n")
    with pytest.raises(SchemaError) as exc_info:
        load(path)
    assert (exc_info.value.line, exc_info.value.field) == (2, name)


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


# ---------------------------------------------------------------------------
# Field tables: every field, every wrong JSON type
# ---------------------------------------------------------------------------

_GOOD_EXAMPLE = corpus_mod.example_to_dict(_example(0, "q"))
_GOOD_ATTEMPT = {"reasoning": "r", "formula": "3+4", "answer": 7.0, "correct": True}
_GOOD_RECORD = corpus_mod.record_to_dict(_record([True, False]))


@pytest.mark.parametrize(
    "table, cls",
    [
        (corpus_mod._EXAMPLE_FIELDS, ReferenceExample),
        (corpus_mod._RECORD_FIELDS, ScreeningRecord),
        (corpus_mod._ATTEMPT_FIELDS, Attempt),
    ],
    ids=["corpus", "screening-record", "attempt"],
)
def test_each_table_lists_the_fields_of_its_class_in_order(table, cls):
    assert field_names(table) == [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize(
    "name, value",
    wrong_typed(corpus_mod._EXAMPLE_FIELDS) + not_finite(corpus_mod._EXAMPLE_FIELDS),
)
def test_load_rejects_each_wrong_typed_field(tmp_path, name, value):
    bad = {**_GOOD_EXAMPLE, name: value}
    exc = second_line_error(load, tmp_path / "corpus.jsonl", _GOOD_EXAMPLE, bad)
    assert exc.field == name


@pytest.mark.parametrize("name", required(corpus_mod._EXAMPLE_FIELDS))
def test_load_rejects_each_missing_field(tmp_path, name):
    bad = {k: v for k, v in _GOOD_EXAMPLE.items() if k != name}
    exc = second_line_error(load, tmp_path / "corpus.jsonl", _GOOD_EXAMPLE, bad)
    assert (exc.field, exc.message) == (name, "missing field")


@pytest.mark.parametrize(
    "name, value",
    wrong_typed(corpus_mod._RECORD_FIELDS) + not_finite(corpus_mod._RECORD_FIELDS),
)
def test_screening_log_rejects_each_wrong_typed_field(tmp_path, name, value):
    bad = {**_GOOD_RECORD, name: value}
    exc = second_line_error(load_screening_log, tmp_path / "log.jsonl", _GOOD_RECORD, bad)
    assert exc.field == name


@pytest.mark.parametrize("name", required(corpus_mod._RECORD_FIELDS))
def test_screening_log_rejects_each_missing_field(tmp_path, name):
    bad = {k: v for k, v in _GOOD_RECORD.items() if k != name}
    exc = second_line_error(load_screening_log, tmp_path / "log.jsonl", _GOOD_RECORD, bad)
    assert (exc.field, exc.message) == (name, "missing field")


@pytest.mark.parametrize(
    "name, value",
    wrong_typed(corpus_mod._ATTEMPT_FIELDS) + not_finite(corpus_mod._ATTEMPT_FIELDS),
)
def test_screening_log_rejects_each_wrong_typed_attempt_field(tmp_path, name, value):
    bad = {**_GOOD_RECORD, "attempts": [_GOOD_ATTEMPT, {**_GOOD_ATTEMPT, name: value}]}
    exc = second_line_error(load_screening_log, tmp_path / "log.jsonl", _GOOD_RECORD, bad)
    assert exc.field == f"attempts[1].{name}"


def test_screening_log_names_an_attempt_that_is_not_an_object(tmp_path):
    bad = {**_GOOD_RECORD, "attempts": [_GOOD_ATTEMPT, "r"]}
    exc = second_line_error(load_screening_log, tmp_path / "log.jsonl", _GOOD_RECORD, bad)
    assert exc.field == "attempts[1]"


def test_attempt_fields_take_their_defaults(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(json.dumps({**_GOOD_RECORD, "attempts": [{}]}) + "\n")
    assert load_screening_log(path)[0].attempts == (Attempt("", "", None, False),)


# ---------------------------------------------------------------------------
# Round trips: a file the writers write loads equal objects
# ---------------------------------------------------------------------------

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_FORMULAS = st.sampled_from(
    ["32+42", "(51.0-8.0)*130.0", "32+42;74-35", "x*(y-3)", "-5", "$1,200 / 4"]
)
_EXAMPLES = st.builds(
    ReferenceExample,
    id=_TEXT,
    question=_TEXT,
    right_reasoning=_TEXT,
    right_formula=_FORMULAS.map(align_variables),
    wrong_reasoning=_TEXT,
    wrong_formula=_FORMULAS.map(align_variables),
    explanation=_TEXT,
    gold_answer=_FINITE,
    source_dataset=_TEXT,
)
_RECORDS = st.builds(
    ScreeningRecord,
    problem_id=_TEXT,
    question=_TEXT,
    gold_answer=_FINITE,
    attempts=st.lists(
        st.builds(Attempt, _TEXT, _TEXT, st.none() | _FINITE, st.booleans()), max_size=4
    ).map(tuple),
    source_dataset=_TEXT,
)
_TMP_PATH = settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])


@_TMP_PATH
@given(st.lists(_EXAMPLES, max_size=4))
def test_saved_corpus_loads_equal_examples(tmp_path, examples):
    path = tmp_path / "corpus.jsonl"
    save(examples, path)
    assert load(path) == examples


@_TMP_PATH
@given(st.lists(_RECORDS, max_size=4))
def test_appended_screening_log_loads_equal_records(tmp_path, records):
    path = tmp_path / "log.jsonl"
    path.write_text("")
    for rec in records:
        append_screening_record(rec, path)
    assert load_screening_log(path) == records


# formulas over digits, number punctuation, identifiers, operators, the
# skipped characters, ';' and one non-ASCII character; digits weigh most,
# so drawn formulas often share a shape
_SHAPE_CHARS = st.sampled_from("0123456789" * 3 + ",.xyB_+-*/()  $;\u00bd")
_SHAPED = st.lists(st.text(_SHAPE_CHARS, max_size=10), min_size=1, max_size=8)
_FORMULA_FIELDS = ("right_formula", "wrong_formula")


def _formula_rows(formulas):
    """One corpus row per formula, in right_formula on odd lines and in
    wrong_formula on even ones; "0" fills the other field."""
    base = {**corpus_mod.example_to_dict(_example(0, "q")), "right_formula": "0", "wrong_formula": "0"}
    return [{**base, "id": str(line), _FORMULA_FIELDS[(line - 1) % 2]: raw} for line, raw in enumerate(formulas, 1)]


def _aligned_row_by_row(rows):
    """The examples that ``align_variables`` gives each formula on its
    own, or the (message, line, field) of the first that does not align."""
    examples = []
    for line, row in enumerate(rows, 1):
        values = dict(row)
        for name in _FORMULA_FIELDS:
            try:
                values[name] = align_variables(row[name])
            except ParseError as exc:
                return f"formula does not parse: {exc}", line, name
        examples.append(ReferenceExample(**values))
    return examples


@_TMP_PATH
@given(_SHAPED)
@example(["12", "1 2"])  # two adjacent operands, one operand: two shapes
@example(["12", "1,2"])
@example(["x9+2", "x1+2"])
@example([".5+1.25"])
@example(["\u00bd+1"])
@example(["1+\ud800"])  # a lone surrogate, which has no UTF-8 bytes
@example(["3 +", "12 +"])  # two failures of one shape, each at its own position
def test_load_aligns_each_formula_as_align_variables_does(tmp_path, formulas):
    """load aligns one formula per shape; the corpus equals each formula
    aligned on its own, and a file that fails raises the SchemaError of
    its first bad formula. Each failing row is then dropped and the rest
    loaded again, so every failure of a shape is checked."""
    path = tmp_path / "corpus.jsonl"
    rows = _formula_rows(formulas)
    while True:
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        expected = _aligned_row_by_row(rows)
        try:
            got = load(path)
        except SchemaError as exc:
            got = exc.message, exc.line, exc.field
        assert got == expected
        if isinstance(expected, list):
            return
        del rows[expected[1] - 1]


@given(st.lists(st.booleans(), min_size=1, max_size=8))
def test_screen_admission_rule_property(outcomes):
    admitted = screen([_record(outcomes)])
    assert bool(admitted) == (True in outcomes and False in outcomes)
