import random

import pytest

from mathcontrast.corpus import ReferenceExample
from mathcontrast.errors import ExtractionError
from mathcontrast.formula import align_variables
from mathcontrast.gateway import MockBackend
from mathcontrast.pipeline import (
    build_contrastive_prompt,
    extract_answer,
    majority_vote,
    preprocess,
    rank,
    retrieve,
    solve,
    substitute_results,
)
from mathcontrast.prompts import contrastive_examples
from mathcontrast.semantic import HashingNgramProvider
from mathcontrast.similarity import SimilarityConfig, tls

CFG = SimilarityConfig()

LEAH_Q = (
    "Leah had 32 chocolates and her sister had 42. If they ate 35, "
    "how many pieces do they have left in total?"
)
LEAH_SOLUTION = (
    "Leah had 32 chocolates and Leah's sister had 42. That means there were "
    "originally 32 + 42 = 74 chocolates. 35 have been eaten. So in total they "
    "still have 74 - 35 = 39 chocolates. The answer is 39."
)


def _preprocess_rules(question, conditions, plan, algebra):
    # later steps carry earlier markers in their context, so match
    # most-specific first
    return [
        ([question, "algebraic form"], [algebra]),
        ([question, "devise a plan"], [plan]),
        ([question, "List the known conditions."], [conditions]),
    ]


def _example(i, question, formula):
    return ReferenceExample(
        id=f"ex{i:02d}",
        question=question,
        right_reasoning=f"right {i}",
        right_formula=align_variables(formula),
        wrong_reasoning=f"wrong {i}",
        wrong_formula=align_variables("1+1"),
        explanation=f"explain {i}",
        gold_answer=float(i),
        source_dataset="unit",
    )


# ---------------------------------------------------------------------------
# Answer extraction
# ---------------------------------------------------------------------------


def test_extract_answer_stated():
    assert extract_answer("So they planted 6 trees. The answer is 6.") == 6.0


def test_extract_answer_currency():
    assert extract_answer("therefore the answer is $5590.0.") == 5590.0
    assert extract_answer(r"therefore the answer is \$5,590.0.") == 5590.0


def test_extract_answer_no_numbers():
    assert extract_answer("no numbers here") is None


def test_extract_answer_last_statement_wins():
    text = "The answer is 10. Wait, no. The answer is 12."
    assert extract_answer(text) == 12.0


def test_extract_answer_falls_back_to_last_literal():
    assert extract_answer("we compute 74 - 35 = 39") == 39.0


def test_extract_answer_case_insensitive():
    assert extract_answer("THE ANSWER IS 4.0 fishes") == 4.0


# ---------------------------------------------------------------------------
# Voting
# ---------------------------------------------------------------------------


def test_vote_simple_mode():
    assert majority_vote([39.0, 39.0, 42.0, 39.0, 35.0]) == 39.0


def test_vote_latent_case():
    assert majority_vote([42.0, 42.0, 39.0]) == 42.0


def test_vote_all_abstain():
    assert majority_vote([None, None]) is None


def test_vote_tie_goes_to_earliest_completion():
    assert majority_vote([5.0, 7.0, 7.0, 5.0]) == 5.0
    assert majority_vote([7.0, 5.0, 5.0, 7.0]) == 7.0


def test_vote_groups_answers_within_scoring_tolerance():
    # the three 39s match under answers_match, so they outvote the two 40s
    assert majority_vote([39.0, 39.00001, 39.000001, 40.0, 40.0]) == 39.0
    assert majority_vote([40.0, 39.0, 39.00001, 40.0]) == 40.0


def test_vote_ignores_abstentions():
    assert majority_vote([None, 3.0, None, 3.0, 9.0]) == 3.0


# ---------------------------------------------------------------------------
# Step substitution
# ---------------------------------------------------------------------------


def test_substitution_folds_chain():
    from mathcontrast.formula import Chain

    roots = substitute_results([Chain("32 + 42", 74.0), Chain("74 - 35", 39.0)])
    assert roots == ["(32 + 42)-35"]


def test_substitution_keeps_independent_steps():
    from mathcontrast.formula import Chain

    roots = substitute_results([Chain("1 + 2", 3.0), Chain("10 * 4", 40.0)])
    assert roots == ["1 + 2", "10 * 4"]


def test_substitution_uses_most_recent_result():
    from mathcontrast.formula import Chain

    roots = substitute_results(
        [Chain("1 + 4", 5.0), Chain("2 + 3", 5.0), Chain("5 * 2", 10.0)]
    )
    assert roots == ["1 + 4", "(2 + 3)*2"]


# ---------------------------------------------------------------------------
# Preprocess
# ---------------------------------------------------------------------------


def test_preprocess_leah_builds_total_formula():
    backend = MockBackend(
        rules=_preprocess_rules(
            LEAH_Q,
            "Known: Leah 32, sister 42, eaten 35.",
            "Plan: add the chocolates, subtract the eaten ones.",
            LEAH_SOLUTION,
        )
    )
    out = preprocess(LEAH_Q, backend)
    assert out.total_formula.text == "(@+@)-@"
    assert out.final_answer == 39.0
    assert out.algebraic_steps == ("32 + 42", "74 - 35")
    assert out.known_conditions.startswith("Known:")


def test_preprocess_without_formula_raises_with_partial():
    backend = MockBackend(
        rules=_preprocess_rules(
            "impossible question",
            "Known: nothing.",
            "Plan: give up gracefully.",
            "I cannot express this algebraically.",
        )
    )
    with pytest.raises(ExtractionError) as exc_info:
        preprocess("impossible question", backend)
    partial = exc_info.value.partial
    assert partial.total_formula is None
    assert partial.plan_and_solution == "Plan: give up gracefully."


def test_preprocess_single_expression_line():
    backend = MockBackend(
        rules=_preprocess_rules(
            "shirt question",
            "Known: price 51, discount 8, sold 130.",
            "Plan: discounted price times count.",
            "(51.0 - 8.0) * 130.0 = 5590.0. The answer is 5590.",
        )
    )
    out = preprocess("shirt question", backend)
    assert out.total_formula.text == "(@-@)*@"
    assert out.final_answer == 5590.0


def test_preprocess_falls_back_to_plan_text():
    backend = MockBackend(
        rules=_preprocess_rules(
            "fallback question",
            "Known: a few numbers.",
            "Plan: compute 3 + 4 = 7. The answer is 7.",
            "No algebra from me.",
        )
    )
    out = preprocess("fallback question", backend)
    assert out.total_formula.text == "@+@"
    assert out.final_answer == 7.0


# ---------------------------------------------------------------------------
# Retrieval
# ---------------------------------------------------------------------------


def _toy_corpus():
    questions = [
        "How many apples does Ann have left?",
        "A train covers 60 km per hour; how far in 3 hours?",
        "Bob bought 5 pens at 2 dollars; what did he pay?",
        "How many chocolates remain after eating some?",
        "What is the total number of seats in 20 wheels?",
        "How many pages per chapter did Frank read?",
        "How many fish disappeared from the pond?",
        "What is the discounted revenue of the shop?",
        "How many more birds than storks are there?",
        "How many rows of pencils can Faye make?",
    ]
    formulas = [
        "1+2",
        "60*3",
        "5*2",
        "(32+42)-35",
        "(19*15)*20",
        "664/2",
        "(7+12)-15",
        "(51-8)*130",
        "6-(3+2)",
        "35*4/2",
    ]
    return [_example(i, q, f) for i, (q, f) in enumerate(zip(questions, formulas))]


def test_retrieve_exact_clone_ranks_first():
    examples = _toy_corpus()
    sem = HashingNgramProvider()
    target = (examples[3].question, examples[3].right_formula)
    ranked = rank(target, examples, CFG, sem)
    assert ranked[0][0].id == examples[3].id
    assert ranked[0][1] == pytest.approx(1.0)


def test_retrieve_k_equal_to_corpus_returns_all_sorted():
    examples = _toy_corpus()
    sem = HashingNgramProvider()
    got = retrieve(("Some question?", "@+@"), examples, len(examples), CFG, sem)
    assert len(got) == len(examples)
    scores = [
        tls(("Some question?", "@+@"), (ex.question, ex.right_formula), CFG, sem)
        for ex in got
    ]
    assert scores == sorted(scores, reverse=True)


def test_retrieve_matches_brute_force_oracle():
    examples = _toy_corpus()
    sem = HashingNgramProvider()
    rng = random.Random(11)
    vocab = "chocolate train apple page fish seat row bird shop total".split()
    for _ in range(25):
        question = " ".join(rng.choice(vocab) for _ in range(6))
        formula = rng.choice(["@+@", "(@+@)-@", "@*@/@", "@-(@+@)", "@*@"])
        target = (question, formula)
        expected = sorted(
            (
                (ex, tls(target, (ex.question, ex.right_formula), CFG, sem))
                for ex in examples
            ),
            key=lambda pair: (-pair[1], pair[0].id),
        )
        got = rank(target, examples, CFG, sem)
        assert [ex.id for ex, _ in got] == [ex.id for ex, _ in expected]


def _seeded_corpus(size, seed):
    """A corpus whose aligned formulas and questions repeat, so the
    scorer's memos are hit and scores tie."""
    rng = random.Random(seed)
    shapes = [
        "1+2", "3*4", "5-6", "8/2", "(1+2)-3", "1+2*3", "(1+2)*(3-4)", "7-(2+3)",
        "1*2/3", "(5+6)/(7-8)", "(9)", "(1+2+3+4)*5-6", "2*3+4*5-6/7", "((1+2))",
    ]
    vocab = "chocolate train apple page fish seat row bird shop total".split()
    questions = [" ".join(rng.choice(vocab) for _ in range(5)) for _ in range(size // 3)]
    return [
        _example(i, rng.choice(questions), rng.choice(shapes)) for i in range(size)
    ]


@pytest.mark.parametrize("alpha", [0.0, 0.7, 1.0])
def test_rank_equals_per_pair_tls_exactly(alpha):
    examples = _seeded_corpus(240, seed=5)
    cfg = SimilarityConfig(alpha=alpha)
    sem = HashingNgramProvider()
    targets = [(ex.question, ex.right_formula) for ex in examples[:4]]
    targets += [("apple total row", "@*(@+@)-@"), ("seat fish", "(@-@)"), ("bird", "@")]
    for target in targets:
        brute = sorted(
            ((ex.id, tls(target, (ex.question, ex.right_formula), cfg, sem)) for ex in examples),
            key=lambda pair: (-pair[1], pair[0]),
        )
        got = [(ex.id, score) for ex, score in rank(target, examples, cfg, sem)]
        assert got == brute


def test_retrieve_requires_positive_k_and_corpus():
    with pytest.raises(ValueError):
        retrieve(("q", "@"), _toy_corpus(), 0, CFG, HashingNgramProvider())
    with pytest.raises(ValueError):
        retrieve(("q", "@"), [], 1, CFG, HashingNgramProvider())


# ---------------------------------------------------------------------------
# Prompt construction
# ---------------------------------------------------------------------------


def test_prompt_single_example_has_one_terminator():
    prompt = build_contrastive_prompt([_example(1, "Why?", "1+1")], "Target?")
    assert prompt.count("|EOS|") == 1
    assert "Question1: Why?" in prompt
    assert prompt.rstrip().endswith("Answer:")


def test_prompt_empty_explanation_omits_line():
    ex = _example(1, "Why?", "1+1")
    bare = ReferenceExample(
        id=ex.id,
        question=ex.question,
        right_reasoning=ex.right_reasoning,
        right_formula=ex.right_formula,
        wrong_reasoning=ex.wrong_reasoning,
        wrong_formula=ex.wrong_formula,
        explanation="",
        gold_answer=ex.gold_answer,
        source_dataset=ex.source_dataset,
    )
    prompt = build_contrastive_prompt([bare], "Target?")
    assert "Explanation:" not in prompt
    assert "Wrong Answer: wrong 1 |EOS|" in prompt


def test_prompt_is_deterministic():
    examples = contrastive_examples()
    a = build_contrastive_prompt(examples, "Target question?")
    b = build_contrastive_prompt(examples, "Target question?")
    assert a == b


def test_prompt_numbering_and_order():
    examples = [_example(i, f"Q number {i}?", "1+1") for i in (3, 1, 2)]
    prompt = build_contrastive_prompt(examples, "T?")
    assert prompt.index("Question1: Q number 3?") < prompt.index(
        "Question2: Q number 1?"
    ) < prompt.index("Question3: Q number 2?")


def test_prompt_rejects_empty_examples():
    with pytest.raises(ValueError):
        build_contrastive_prompt([], "T?")


# ---------------------------------------------------------------------------
# Solve
# ---------------------------------------------------------------------------


def _leah_backend(guess_texts):
    rules = _preprocess_rules(
        LEAH_Q,
        "Known: Leah 32, sister 42, eaten 35.",
        "Plan: add, then subtract.",
        LEAH_SOLUTION,
    )
    rules.append(([f"Question: {LEAH_Q}", "Please follow the examples"], guess_texts))
    return MockBackend(rules=rules)


def test_solve_majority_and_latent_flags():
    guesses = [
        "The answer is 39.",
        "The answer is 39.",
        "The answer is 42.",
        "The answer is 39.",
        "The answer is 35.",
    ]
    trace = solve(
        LEAH_Q,
        _toy_corpus(),
        _leah_backend(guesses),
        3,
        5,
        CFG,
        HashingNgramProvider(),
        gold_answer=39.0,
        problem_id="leah",
    )
    assert trace.voted_answer == 39.0
    assert trace.majority_correct and trace.any_correct
    assert len(trace.retrieved) == 3
    assert len(trace.guesses) == 5


def test_solve_latent_only():
    guesses = ["The answer is 42.", "The answer is 42.", "The answer is 39."]
    trace = solve(
        LEAH_Q,
        _toy_corpus(),
        _leah_backend(guesses),
        2,
        3,
        CFG,
        HashingNgramProvider(),
        gold_answer=39.0,
    )
    assert trace.voted_answer == 42.0
    assert not trace.majority_correct
    assert trace.any_correct


def test_solve_all_guesses_unextractable():
    guesses = ["I give up.", "Unsure.", "Cannot say."]
    trace = solve(
        LEAH_Q,
        _toy_corpus(),
        _leah_backend(guesses),
        2,
        3,
        CFG,
        HashingNgramProvider(),
        gold_answer=39.0,
    )
    assert trace.voted_answer is None
    assert not trace.majority_correct and not trace.any_correct


def test_solve_single_guess_equals_extracted_answer():
    trace = solve(
        LEAH_Q,
        _toy_corpus(),
        _leah_backend(["The answer is 39."]),
        2,
        1,
        CFG,
        HashingNgramProvider(),
        gold_answer=39.0,
    )
    assert trace.voted_answer == 39.0
    assert trace.majority_correct


def test_solve_degrades_to_semantic_when_extraction_fails():
    rules = _preprocess_rules(
        LEAH_Q, "Known: things.", "Plan: no math.", "No algebra at all."
    )
    rules.append(([f"Question: {LEAH_Q}"], ["The answer is 39."]))
    trace = solve(
        LEAH_Q,
        _toy_corpus(),
        MockBackend(rules=rules),
        2,
        1,
        CFG,
        HashingNgramProvider(),
        gold_answer=39.0,
    )
    assert trace.voted_answer == 39.0
    assert len(trace.retrieved) == 2


def test_solve_fixed_strategies_skip_retrieval():
    backend = MockBackend(default="The answer is 8.")
    for strategy in ("fix", "hard", "contrastive"):
        trace = solve(
            "Olivia bought bagels.",
            [],
            backend,
            3,
            2,
            CFG,
            HashingNgramProvider(),
            gold_answer=8.0,
            strategy=strategy,
        )
        assert trace.voted_answer == 8.0
        assert trace.majority_correct
        if strategy == "contrastive":
            assert [rid for rid, _ in trace.retrieved] == [
                "contrastive-1",
                "contrastive-2",
                "contrastive-3",
                "contrastive-4",
            ]


def test_solve_trace_implication_invariant():
    rng = random.Random(5)
    for _ in range(200):
        answers = [rng.choice([1.0, 2.0, 3.0, None]) for _ in range(5)]
        voted = majority_vote(answers)
        gold = 1.0
        majority_correct = voted == gold
        any_correct = any(a == gold for a in answers if a is not None)
        assert not (majority_correct and not any_correct)
