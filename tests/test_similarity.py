import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import lev_memo, lev_recursive
from mathcontrast import _kernels, similarity
from mathcontrast.errors import DegenerateInput, DimensionMismatch, ZeroVector
from mathcontrast.formula import AlignedFormula
from mathcontrast.semantic import HashingNgramProvider
from mathcontrast.similarity import (
    FormulaTable,
    SimilarityConfig,
    Target,
    char_counts,
    cosine,
    levenshtein,
    levenshtein_lower_bound,
    logic_similarity,
    norm_distance,
    split_balanced,
    tls,
    tree_distance,
)

ALPHABET = "@+*()"

short_strings = st.text(alphabet=ALPHABET, max_size=6)
longer_strings = st.text(alphabet=ALPHABET, max_size=12)


class FixedSem:
    def __init__(self, value: float):
        self.value = value

    def similarity(self, a: str, b: str) -> float:
        return self.value


# ---------------------------------------------------------------------------
# Levenshtein
# ---------------------------------------------------------------------------


def test_levenshtein_identical():
    assert levenshtein("@+@", "@+@") == 0


def test_levenshtein_single_substitution():
    assert lev_recursive("@+@", "@*@") == 1
    assert levenshtein("@+@", "@*@") == 1


def test_levenshtein_against_empty():
    assert levenshtein("", "@*@") == 3
    assert levenshtein("@*@", "") == 3
    assert levenshtein("", "") == 0


@given(short_strings, short_strings)
def test_levenshtein_matches_exponential_oracle(a, b):
    assert levenshtein(a, b) == lev_recursive(a, b)


@given(longer_strings, longer_strings)
def test_levenshtein_matches_memoized_oracle(a, b):
    assert levenshtein(a, b) == lev_memo(a, b)


@given(longer_strings, longer_strings)
def test_levenshtein_symmetric(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)


@given(longer_strings, longer_strings, longer_strings)
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


def test_kernel_matches_memoized_oracle():
    rng = random.Random(7)
    pairs = []
    for _ in range(300):
        a = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 15)))
        b = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 15)))
        pairs.append((a, b))
    # longer than 64 characters, so the bit vectors are multi-word ints
    for _ in range(30):
        a = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(65, 140)))
        b = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 140)))
        pairs.append((a, b))
    for a, b in pairs:
        expect = lev_memo(a, b)
        assert _kernels.levenshtein_codes(a, b) == expect
        assert _kernels.levenshtein_codes(b, a) == expect


# the aligned alphabet, non-ASCII characters, and the separator between two lanes
lane_strings = st.text(alphabet="@+-*/();" + "éπ中\0", max_size=24)


@given(
    lane_strings,
    st.lists(lane_strings, max_size=40),
    st.integers(0, 40),
    st.sampled_from([1, 8, 40, _kernels.LANE_BITS]),
)
@settings(max_examples=300, deadline=None)
def test_levenshtein_many_equals_the_memoized_oracle(s, others, at, budget):
    # s itself and an empty string among the others; a budget of 1 or 8 bits is
    # shorter than most strings, and 40 strings fill several groups of 40 bits
    strings = others[:at] + [s, ""] + others[at:]
    with mock.patch.object(_kernels, "LANE_BITS", budget):
        got = _kernels.levenshtein_many(s, strings)
    assert got == [lev_memo(s, t) for t in strings]


# ---------------------------------------------------------------------------
# Normalized distance
# ---------------------------------------------------------------------------


def test_norm_distance_placeholder_chains():
    assert norm_distance("@*(@+@+@)*@", "@*(@+@)*@") == 0.2


def test_norm_distance_identity():
    assert norm_distance("@+@", "@+@") == 0


def test_norm_distance_substitution():
    assert norm_distance("@+@", "@*@") == pytest.approx(1 / 3)


def test_norm_distance_both_empty_is_zero_by_convention(caplog):
    with caplog.at_level("WARNING"):
        assert norm_distance("", "") == 0.0
    assert "empty" in caplog.text


@given(st.text(alphabet=ALPHABET, min_size=1, max_size=12))
def test_norm_distance_self_is_zero(a):
    assert norm_distance(a, a) == 0.0


@given(longer_strings, longer_strings)
def test_norm_distance_symmetric(a, b):
    if a or b:
        assert norm_distance(a, b) == norm_distance(b, a)


# ---------------------------------------------------------------------------
# Balanced split
# ---------------------------------------------------------------------------


def test_split_breaks_tie_toward_low_precedence():
    got = split_balanced("@*@+@")
    assert (got.operator, got.left, got.right) == ("+", "@*@", "@")


def test_split_fully_parenthesized_has_no_operator():
    assert split_balanced("(@+@)").operator is None


def test_split_picks_most_balanced_occurrence():
    got = split_balanced("@+@+@+@")
    assert (got.operator, got.left, got.right) == ("+", "@+@", "@+@")


def test_split_skips_unary_minus():
    got = split_balanced("-@+@")
    assert (got.operator, got.left, got.right) == ("+", "-@", "@")
    assert split_balanced("-@").operator is None


def test_split_reassembles_input():
    for text in ("@*@+@", "@+@+@+@", "(@-@)*@", "@/@-@*@"):
        got = split_balanced(text)
        if got.operator is not None:
            assert got.left + got.operator + got.right == text


def test_split_empty_rejected():
    with pytest.raises(DegenerateInput):
        split_balanced("")


# ---------------------------------------------------------------------------
# Tree distance
# ---------------------------------------------------------------------------


def test_tree_distance_commutative_swap_is_free():
    assert tree_distance("@*@+@", "@+@*@") == 0


def test_tree_distance_subtraction_fixes_order():
    assert tree_distance("@-@*@", "@*@-@") == 2


def test_tree_distance_identity():
    assert tree_distance("@+@", "@+@") == 0


def test_tree_distance_unsplittable_falls_back_to_scaled_norm():
    # "(@+@)" cannot be split; fallback doubles the normalized distance
    assert tree_distance("(@+@)", "(@+@)") == 0
    assert tree_distance("@", "(@+@)") == 2 * norm_distance("@", "(@+@)")


def test_tree_distance_empty_operand_rejected():
    with pytest.raises(DegenerateInput):
        tree_distance("", "@+@")


aligned_atoms = st.just("@")
aligned_exprs = st.recursive(
    aligned_atoms,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
        inner.map(lambda s: f"({s})"),
    ),
    max_leaves=8,
)
# branches with no depth-0 operator at all: atoms or parenthesized groups
sealed_branches = st.one_of(st.just("@"), aligned_exprs.map(lambda s: f"({s})"))


@given(sealed_branches, sealed_branches, st.sampled_from("+*"))
def test_tree_distance_commutative_interchange(left, right, op):
    assert tree_distance(left + op + right, right + op + left) == 0


@given(sealed_branches, sealed_branches, st.sampled_from("+*"))
@settings(max_examples=50)
def test_tree_distance_nonnegative_and_bounded(left, right, op):
    d = tree_distance(left + op + right, right + op + left + op + right)
    assert 0 <= d <= 2 + 1e-9


def test_order_sensitivity():
    assert tree_distance("@-@*@", "@*@-@") > 0


@given(aligned_exprs, aligned_exprs)
def test_tree_distance_symmetric_unless_one_split_operator_is_commutative(a, b):
    op_a, op_b = split_balanced(a).operator, split_balanced(b).operator
    if op_a is not None and op_b is not None and (op_a in "+*") != (op_b in "+*"):
        return
    assert tree_distance(a, b) == tree_distance(b, a)


def test_tree_distance_commutativity_follows_first_operator():
    # "@*@+@" splits at '+', which may swap; "@-@*@" splits at '-', which may not
    assert tree_distance("@*@+@", "@-@*@") == 0
    assert tree_distance("@-@*@", "@*@+@") == 2


# ---------------------------------------------------------------------------
# Logic similarity and the combined score
# ---------------------------------------------------------------------------


def test_logic_similarity_identity():
    assert logic_similarity("@+@;@-@", "@+@;@-@") == 1.0


def test_logic_similarity_opposed_subtraction():
    assert logic_similarity("@-@*@", "@*@-@") == 0.0


def test_logic_similarity_commutative_swap():
    assert logic_similarity("@*@+@", "@+@*@") == 1.0


def test_tls_identical_pair_scores_one():
    cfg = SimilarityConfig()
    got = tls(("q", "@+@"), ("q", "@+@"), cfg, FixedSem(1.0))
    assert got == 1.0


def test_tls_hand_computed_mix():
    cfg = SimilarityConfig(alpha=0.7)
    # logic_similarity 0.5 needs tree distance 1: "@-@" vs "@-@*@" gives
    # N("@","@") + N("@","@*@") = 0 + 1
    assert tree_distance("@-@", "@-@*@") == 1
    got = tls(("q1", "@-@"), ("q2", "@-@*@"), cfg, FixedSem(0.8))
    assert got == pytest.approx(0.7 * 0.5 + 0.3 * 0.8)
    assert got == pytest.approx(0.59)


def test_tls_all_zero_components():
    cfg = SimilarityConfig()
    assert tls(("a", "@-@*@"), ("b", "@*@-@"), cfg, FixedSem(0.0)) == 0.0


def test_tls_alpha_one_is_logic_only():
    cfg = SimilarityConfig(alpha=1.0)

    class Exploding:
        def similarity(self, a, b):
            raise AssertionError("semantic provider must not be consulted")

    got = tls(("a", "@*@+@"), ("b", "@+@*@"), cfg, Exploding())
    assert got == logic_similarity("@*@+@", "@+@*@")


def test_tls_alpha_zero_is_semantic_only():
    cfg = SimilarityConfig(alpha=0.0)
    # empty formula is fine at alpha 0: the logic term is never computed
    assert tls(("a", ""), ("b", "@+@"), cfg, FixedSem(0.4)) == 0.4


def test_tls_clamps_semantic_to_unit_interval():
    cfg = SimilarityConfig(alpha=0.0)
    assert tls(("a", "@"), ("b", "@"), cfg, FixedSem(-0.5)) == 0.0
    assert tls(("a", "@"), ("b", "@"), cfg, FixedSem(1.5)) == 1.0


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    aligned_exprs,
    aligned_exprs,
)
def test_tls_stays_in_unit_interval(alpha, sem_value, f1, f2):
    cfg = SimilarityConfig(alpha=alpha)
    got = tls(("q1", f1), ("q2", f2), cfg, FixedSem(sem_value))
    assert -1e-12 <= got <= 1.0 + 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("sem_value", [-0.5, 0.25, 1.5])
def test_scorer_scores_equal_per_pair_calls(alpha, sem_value):
    target, cfg, sem = ("q", "@*@+@"), SimilarityConfig(alpha=alpha), FixedSem(sem_value)
    formulas = ["@+@*@", "@-@", "(@)", "@*@+@", "@-@"]
    questions = [f"q{i}" for i in range(len(formulas))]
    got = similarity.scores(target, questions, FormulaTable(formulas), cfg, sem)
    assert got.dtype == np.float64
    assert got.tolist() == [tls(target, pair, cfg, sem) for pair in zip(questions, formulas)]
    assert similarity.scores(target, [], FormulaTable([]), cfg, sem).shape == (0,)


# formulas with and without a top-level operator, ';'-merged steps included
table_formulas = st.one_of(
    aligned_exprs,
    st.sampled_from(["@", "(@+@)", "((@))", "@+@;@*@", "@-@;@", "(@)/@;(@-@)", "@;@"]),
    st.tuples(aligned_exprs, aligned_exprs).map(";".join),
)


@given(
    st.lists(table_formulas, min_size=1, max_size=3),
    st.lists(st.tuples(table_formulas, st.booleans()), max_size=10),
)
@settings(max_examples=200)
def test_formula_table_logic_equals_scalar_reference_bit_for_bit(targets, drawn):
    # repeated texts, as str and as AlignedFormula
    drawn = drawn + drawn[:3]
    formulas = [
        AlignedFormula(text, text.count("@"), text) if aligned else text
        for text, aligned in drawn
    ]
    table = FormulaTable(formulas)
    cfg = SimilarityConfig(alpha=1.0)
    questions = [f"q{i}" for i in range(len(formulas))]
    # one table scores every target, so later targets hit its shared memo
    for target in targets + targets[:1]:
        expected = [logic_similarity(target, f).hex() for f in formulas]
        got = table.logic(target)
        assert [x.hex() for x in got.tolist()] == expected
        scores = similarity.scores(("q", target), questions, table, cfg, FixedSem(0.0))
        assert [x.hex() for x in scores.tolist()] == expected


def test_formula_table_swaps_branches_for_commutative_targets_only():
    table = FormulaTable(["@+@*@", "@-@*@"])
    for target, expected in [("@*@+@", [1.0, 1.0]), ("@*@-@", [0.0, 0.0])]:
        got = table.logic(target).tolist()
        assert got == [logic_similarity(target, f) for f in table.texts] == expected


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_scores_raise_degenerate_input_exactly_as_per_pair_calls(alpha):
    cfg = SimilarityConfig(alpha=alpha)
    cases = [
        (("q", "@+@"), ["@*@", "", "@"]),  # an empty candidate
        (("q", ""), ["@*@", "@"]),  # an empty target
        (("q", ""), []),
        (("q", "@"), []),
    ]
    for target, formulas in cases:
        questions, table = ["q"] * len(formulas), FormulaTable(formulas)
        try:
            expected = [tls(target, pair, cfg, FixedSem(0.5)) for pair in zip(questions, formulas)]
        except DegenerateInput:
            assert alpha > 0.0
            with pytest.raises(DegenerateInput):
                similarity.scores(target, questions, table, cfg, FixedSem(0.5))
        else:
            assert similarity.scores(target, questions, table, cfg, FixedSem(0.5)).tolist() == expected


class _NoProvider:
    """A provider that must not be asked."""

    def similarity(self, a, b):
        raise AssertionError("provider asked")

    similarities = similarity


@given(
    st.lists(table_formulas, min_size=1, max_size=12),
    table_formulas,
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.lists(st.integers(0, 11), max_size=12),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
)
@settings(max_examples=200, deadline=None)
def test_scores_given_rows_and_bound_keep_exact_values_of_every_entry_that_can_exceed_it(
    formulas, target, alpha, picked, above
):
    questions = [f"question {i % 4} {formulas[i]}" for i in range(len(formulas))]
    cfg, sem = SimilarityConfig(alpha=alpha), HashingNgramProvider()
    pair = ("question 1 @", target)
    expected = [tls(pair, ex, cfg, sem).hex() for ex in zip(questions, formulas)]
    # without rows or a bound: every entry, equal to per-pair tls by float.hex
    full = similarity.scores(pair, questions, FormulaTable(formulas), cfg, sem)
    assert [x.hex() for x in full.tolist()] == expected
    rows = sorted({i for i in picked if i < len(formulas)})
    got = similarity.scores(
        pair, questions, FormulaTable(formulas), cfg, sem, rows=rows, above=above
    ).tolist()
    for i, score in enumerate(got):
        semantic = min(1.0, max(0.0, sem.similarity(pair[0], questions[i])))
        bound = 1.0 if alpha == 1.0 else alpha * 1.0 + (1.0 - alpha) * semantic
        assert full[i] <= bound
        if i not in rows or (above is not None and bound <= above):
            assert score == -np.inf
        else:
            assert score.hex() == expected[i]


def test_scores_with_a_bound_skip_only_entries_whose_bound_rules_them_out(monkeypatch):
    compared = []
    kernel = _kernels.levenshtein_many

    def counting(s, strings):
        compared.extend((s, t) for t in strings)
        return kernel(s, strings)

    monkeypatch.setattr(_kernels, "levenshtein_many", counting)
    formulas = ["@+@", "@-@", "@*@", "(@)"]
    table = FormulaTable(formulas)
    split, splits = similarity.split_balanced, []
    monkeypatch.setattr(similarity, "split_balanced", lambda text: splits.append(text) or split(text))
    # semantic 0.5 bounds each score by alpha + 0.25 at alpha 0.5
    cfg, sem = SimilarityConfig(alpha=0.5), FixedSem(0.5)
    got = similarity.scores(("q", "@/@"), ["q"] * 4, table, cfg, sem, above=0.75)
    # with no entry left, the target is not even split
    assert got.tolist() == [-np.inf] * 4 and not compared and not splits
    got = similarity.scores(("q", "@/@"), ["q"] * 4, table, cfg, sem, rows=[1, 3], above=0.7)
    expected = [tls(("q", "@/@"), ("q", f), cfg, sem) for f in formulas]
    assert got.tolist() == [-np.inf, expected[1], -np.inf, expected[3]]
    assert {t for _, t in compared} <= {"@", "(@)"}
    # at alpha 1 the bound is 1.0 and the provider is not asked
    logic_only = SimilarityConfig(alpha=1.0)
    got = similarity.scores(("q", "@+@"), ["q"] * 4, table, logic_only, _NoProvider(), above=0.99)
    assert got.tolist() == [logic_similarity("@+@", f) for f in formulas]
    got = similarity.scores(("q", "@+@"), ["q"] * 4, table, logic_only, _NoProvider(), above=1.0)
    assert got.tolist() == [-np.inf] * 4
    # at alpha 0 the bound is the score, and no formula is compared
    compared.clear()
    semantic_only = SimilarityConfig(alpha=0.0)
    got = similarity.scores(("q", "@"), ["q"] * 4, table, semantic_only, sem, rows=[0, 2], above=0.4)
    assert got.tolist() == [0.5, -np.inf, 0.5, -np.inf] and not compared


@given(
    st.one_of(st.text(alphabet="@+-*/();ab x", max_size=16), st.text(max_size=16)),
    st.lists(st.one_of(st.text(alphabet="@+-*/();ab x", max_size=16), st.text(max_size=16))),
)
@settings(max_examples=300)
def test_levenshtein_lower_bound_never_exceeds_the_distance(a, others):
    # characters outside the counted ones change no count, so the bound still holds
    # one row per string of the first argument, as a target and its branches
    strings = [a] + others[:2]
    bounds = levenshtein_lower_bound(char_counts(strings), char_counts(others)).tolist()
    assert len(bounds) == len(strings)
    for s, row in zip(strings, bounds):
        for bound, b in zip(row, others):
            assert bound <= _kernels.levenshtein_codes(s, b)
    assert levenshtein_lower_bound(char_counts([a]), char_counts([a])).tolist() == [[0]]


@given(st.lists(st.text() | st.text(alphabet="@+-*/();x"), max_size=5))
# non-ASCII code points (the low 7 bits of "À" read "@"), a lone surrogate, a NUL
# and strings with nothing in them
@example(["éÀ@", "\ud800(", "a\x00", "", "\U0001d465*@"])
@example([])
def test_char_counts_are_each_strings_length_and_counts(strings):
    counts = char_counts(strings)
    assert counts.dtype == np.int32
    assert counts.tolist() == [[len(s) for s in strings]] + [
        [s.count(ch) for s in strings] for ch in similarity.COUNTED
    ]


@given(
    st.lists(table_formulas, min_size=1, max_size=12),
    st.lists(table_formulas, min_size=1, max_size=3),
    st.lists(st.integers(0, 11), max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_formula_table_bound_is_never_below_logic(formulas, targets, picked):
    table = FormulaTable(formulas)
    rows = sorted({i for i in picked if i < len(formulas)})
    for target in targets:
        for at in (None, rows):
            bound, logic = Target(table, target).bound(at), table.logic(target, at)
            assert bound.shape == logic.shape
            assert (bound >= logic).all()
            assert (bound <= 1.0).all()


@given(
    st.lists(table_formulas, min_size=1, max_size=12),
    table_formulas,
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    st.lists(st.integers(0, 11), max_size=12),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
    st.integers(1, 13),
)
@settings(max_examples=200, deadline=None)
def test_scores_given_top_keep_the_k_best_and_their_ties_exact(
    formulas, target, alpha, picked, above, top
):
    questions = [f"question {i % 3}" for i in range(len(formulas))]
    cfg, sem, pair = SimilarityConfig(alpha=alpha), HashingNgramProvider(), ("question 1", target)
    rows = sorted({i for i in picked if i < len(formulas)}) or None
    table = FormulaTable(formulas)
    every = similarity.scores(pair, questions, table, cfg, sem, rows=rows, above=above)
    got = similarity.scores(pair, questions, table, cfg, sem, rows=rows, above=above, top=top)
    kept = np.sort(every[every > -np.inf])[::-1]
    # every entry that reaches the k-th best score holds its exact score; no other entry is lost
    kth = kept[min(top, len(kept)) - 1] if len(kept) else np.inf
    reach = every >= kth
    assert [x.hex() for x in got[reach].tolist()] == [x.hex() for x in every[reach].tolist()]
    assert (got[~reach] < kth).all()
    assert ((got == every) | (got == -np.inf)).all()


def test_scores_raise_degenerate_input_before_the_provider_however_few_rows_are_left():
    cfg = SimilarityConfig(alpha=0.5)
    for target, formulas in [(("q", "@+@"), ["@*@", "", "@"]), (("q", ""), ["@*@", "@"])]:
        questions, table = ["q"] * len(formulas), FormulaTable(formulas)
        for rows, above in [(None, None), ([], None), ([0], 1.0), (None, 1.0)]:
            with pytest.raises(DegenerateInput):
                similarity.scores(target, questions, table, cfg, _NoProvider(), rows=rows, above=above)


def test_formula_table_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(similarity, "BRANCH_MEMO_LIMIT", 4)
    table = FormulaTable(["@+@", "(@*@)-@", "@/(@+@)", "(@)", "@*@*@*@"])
    for target in ["@*@", "@-@-@", "(@+@)/@", "@"]:
        got = table.logic(target).tolist()
        assert got == [logic_similarity(target, f) for f in table.texts]
        assert len(table.memo) <= 4
    # one batch of more misses than the memo holds: a target with no top-level
    # operator against six texts
    batches, kernel = [], _kernels.levenshtein_many
    monkeypatch.setattr(
        _kernels, "levenshtein_many", lambda s, strings: batches.append(len(strings)) or kernel(s, strings)
    )
    table = FormulaTable(["@+@", "(@*@)-@", "@/(@+@)", "(@)", "@*@*@*@", "@-@"])
    for _ in range(2):
        got = table.logic("(@)").tolist()
        assert got == [logic_similarity("(@)", f) for f in table.texts]
        assert len(table.memo) <= 4
    assert batches[0] == 5 > 4  # "(@)" itself is at distance 0 without the kernel


def test_tls_monotone_in_each_component():
    cfg = SimilarityConfig(alpha=0.7)
    pair = (("q1", "@+@"), ("q2", "@*@"))
    by_sem = [tls(*pair, cfg, FixedSem(v)) for v in (0.0, 0.3, 0.6, 1.0)]
    assert by_sem == sorted(by_sem)

    # logic similarities 0.0, 0.5, 1.0 at fixed semantic value
    formula_pairs = [("@-@*@", "@*@-@"), ("@-@", "@-@*@"), ("@+@", "@+@")]
    by_logic = [
        tls(("q1", a), ("q2", b), cfg, FixedSem(0.5)) for a, b in formula_pairs
    ]
    assert by_logic == sorted(by_logic)


# ---------------------------------------------------------------------------
# Cosine
# ---------------------------------------------------------------------------


def test_cosine_self_similarity():
    assert cosine([2.0, 1.0, 3.0], [2.0, 1.0, 3.0]) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_hand_computed():
    assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(0.9746, abs=1e-4)


def test_cosine_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cosine([1, 2], [1, 2, 3])


def test_cosine_zero_vector():
    with pytest.raises(ZeroVector):
        cosine([0.0, 0.0], [1.0, 2.0])


def test_cosine_scale_invariant_exactly_for_power_of_two():
    rng = np.random.default_rng(3)
    u = rng.normal(size=16)
    v = rng.normal(size=16)
    assert cosine(4.0 * u, v) == cosine(u, v)
    assert cosine(u, 0.5 * v) == cosine(u, v)


def test_config_validates_alpha_range():
    with pytest.raises(ValueError):
        SimilarityConfig(alpha=1.5)
    with pytest.raises(ValueError):
        SimilarityConfig(alpha=-0.1)


def test_config_validates_dedup_threshold_range():
    SimilarityConfig(dedup_threshold=1.0)
    with pytest.raises(ValueError):
        SimilarityConfig(dedup_threshold=1.0 + 1e-10)
    with pytest.raises(ValueError):
        SimilarityConfig(dedup_threshold=-1e-10)
