import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import lev_memo, lev_recursive
from mathcontrast import _kernels
from mathcontrast.errors import DegenerateInput, DimensionMismatch, ZeroVector
from mathcontrast.similarity import (
    SimilarityConfig,
    cosine,
    levenshtein,
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
