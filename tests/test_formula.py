import re

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    align_by_tree,
    chains_by_descent,
    has_operator_by_tree,
    parse_tree,
    read_token,
    stated_result_by_tree,
    tokenize,
)
from mathcontrast.errors import MergeError, ParseError
from mathcontrast import formula, similarity
from mathcontrast.formula import (
    Chain,
    align_variables,
    find_chains,
    merge_steps,
    split_balanced,
)

ALIGNED_ALPHABET_RE = re.compile(r"^[@+\-*/();]+$")


def _paren_balance(s: str) -> int:
    return s.count("(") - s.count(")")


# ---------------------------------------------------------------------------
# Parse errors and nesting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "bad", ["", "   ", "(1+2", "1+", "*3", "1 ? 2", "()", "1+2)", "1.2.3", "1,,2"]
)
def test_parse_errors_carry_positions(bad):
    with pytest.raises(ParseError) as exc_info:
        parse_tree(bad)
    assert exc_info.value.position >= 0
    # alignment accepts exactly what the tree parser accepts, so it fails the same way
    with pytest.raises(ParseError) as aligned:
        align_variables(bad)
    assert str(aligned.value) == str(exc_info.value)
    assert aligned.value.position == exc_info.value.position


def test_align_takes_any_nesting_depth():
    # alignment does not recurse, so it takes any depth
    assert align_variables("(" * 3000 + "5" + ")" * 3000).text == "(" * 3000 + "@" + ")" * 3000
    assert align_variables("-" * 3000 + "5").text == "-" * 3000 + "@"


def test_align_reports_the_parse_error_of_the_failing_part():
    with pytest.raises(ParseError) as exc_info:
        align_variables("1+2;(3*4")
    assert str(exc_info.value) == "expected ')' (at position 4)"
    assert exc_info.value.position == 4


def test_align_tokenizes_only_a_failing_part(monkeypatch):
    calls = []
    tokenize = formula._tokenize

    def counted(s):
        calls.append(s)
        return tokenize(s)

    monkeypatch.setattr(formula, "_tokenize", counted)
    aligned = align_variables("$1,200 + x;3*(4-y);z")
    assert calls == []
    assert (aligned.text, aligned.token_count) == ("@+@;@*(@-@);@", 6)
    with pytest.raises(ParseError):
        align_variables("1+2;(3*4")
    # the error names the token where the walk stops, so only that part is read
    assert calls == ["(3*4"]


@pytest.mark.parametrize(
    "raw, text",
    [
        ("x²", "@"),  # '²' is alphanumeric, so it continues an identifier
        ("٣+x", "@+@"),  # '٣' is a decimal digit
        ("1\u2003+\xa02", "@+@"),  # Unicode whitespace is skipped
        ("1\x1c+\x1f2", "@+@"),  # so are the ASCII separators that str.isspace admits
    ],
)
def test_align_reads_characters_as_str_methods_do(raw, text):
    assert align_variables(raw).text == text


def test_align_non_ascii_numeric_character_starts_no_token():
    # '½' is neither a decimal digit nor a letter
    with pytest.raises(ParseError) as exc_info:
        align_variables("½+1")
    assert str(exc_info.value) == "unexpected character '½' (at position 0)"
    assert exc_info.value.position == 0


def _exprs():
    atom = st.sampled_from(["42", "3.5", "x", "A", "130.0", "0.25", "price"])
    return st.recursive(
        atom,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
            inner.map(lambda s: f"({s})"),
            inner.map(lambda s: f"-{s}"),
        ),
        max_leaves=12,
    )


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------


def test_align_letter_product():
    assert align_variables("A*(B+C+D)*B").text == "@*(@+@+@)*@"


def test_align_placeholder_is_fixed_point():
    assert align_variables("@").text == "@"


def test_align_parenthesized_difference():
    got = align_variables("(51.0-8.0)*130.0")
    assert got.text == "(@-@)*@"
    assert got.token_count == 3
    assert got.origin == "(51.0-8.0)*130.0"


@given(_exprs())
def test_align_idempotent(raw):
    once = align_variables(raw)
    assert align_variables(once.text).text == once.text


@given(_exprs())
def test_align_erases_all_content(raw):
    assert ALIGNED_ALPHABET_RE.match(align_variables(raw).text)


@given(_exprs())
def test_align_preserves_paren_balance(raw):
    assert _paren_balance(align_variables(raw).text) == _paren_balance(raw)


def _edit(text, edits):
    for kind, i, ch in edits:
        i %= len(text) + 1
        if kind == "insert":
            text = text[:i] + ch + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + ch + text[i + 1 :]
    return text


# a letter, a superscript, a vulgar fraction, an Arabic-Indic digit, two
# Unicode spaces and an ASCII separator that str.isspace admits
UNICODE_EDITS = ["é", "²", "½", "٣", "\xa0", "\u2003", "\x1c"]


def _edited_formulas():
    """Formulas from the grammar, ';'-joined, then up to two
    single-character edits: mostly valid, with every kind of error."""
    edit = st.tuples(
        st.sampled_from(["insert", "delete", "replace"]),
        st.integers(0, 80),
        st.sampled_from(list("()+-*/@1x.,$ ;?") + UNICODE_EDITS),
    )
    steps = st.lists(_exprs(), min_size=1, max_size=3).map(";".join)
    return st.builds(_edit, steps, st.lists(edit, max_size=2))


def _aligned_or_error(align, raw):
    try:
        return align(raw)
    except ParseError as exc:
        return str(exc), exc.position


@settings(max_examples=400)
@given(_edited_formulas())
def test_align_matches_the_tree_parser(raw):
    assert _aligned_or_error(align_variables, raw) == _aligned_or_error(align_by_tree, raw)


@settings(max_examples=400)
@given(_edited_formulas())
def test_tokens_match_the_character_reader(raw):
    # the chain scanner reads tokens one at a time, and substitute_results reads a number's text
    for i in range(len(raw)):
        assert formula._read_token(raw, i) == read_token(raw, i)
    for part in raw.split(";"):
        assert _aligned_or_error(formula._tokenize, part) == _aligned_or_error(tokenize, part)


def test_align_builds_no_tree():
    aligned = align_variables("$1,200 + x;3*(-4-y);z")
    assert (aligned.text, aligned.token_count) == ("@+@;@*(-@-@);@", 6)
    with pytest.raises(ParseError):
        align_variables("1+2;(3*4")
    assert formula._has_operator("3 * (4 - y)")
    assert not formula._has_operator("-(4)")


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------


def test_merge_single_step_reduces_to_alignment():
    assert merge_steps(["(51.0-8.0)*130.0"]).text == "(@-@)*@"


def test_merge_joins_steps_with_semicolon():
    merged = merge_steps(["32+42", "74-35"])
    assert merged.text == "@+@;@-@"
    assert merged.origin == "32+42;74-35"
    assert merged.token_count == 4


def test_merge_empty_list_fails():
    with pytest.raises(MergeError):
        merge_steps([])


def test_merge_drops_unparseable_steps(caplog):
    with caplog.at_level("WARNING"):
        merged = merge_steps(["32+42", "not ?? math", "74-35"])
    assert merged.text == "@+@;@-@"
    assert "1 unparseable" in caplog.text


def test_merge_all_unparseable_fails():
    with pytest.raises(MergeError):
        merge_steps(["??", "!!"])


def test_merged_text_realigns_to_itself():
    merged = merge_steps(["32+42", "74-35"])
    assert align_variables(merged.origin).text == merged.text


# ---------------------------------------------------------------------------
# Chains in prose
# ---------------------------------------------------------------------------


def test_chains_in_worked_solution():
    text = (
        "Leah had 32 chocolates and Leah's sister had 42. That means there "
        "were originally 32 + 42 = 74 chocolates. 35 have been eaten. So in "
        "total they still have 74 - 35 = 39 chocolates. The answer is 39."
    )
    assert find_chains(text) == [
        Chain("32 + 42", 74.0),
        Chain("74 - 35", 39.0),
    ]


def test_chain_key_value_mapping_keeps_right_side():
    assert find_chains("total = 32 + 42") == [Chain("32 + 42", None)]


def test_chain_full_equation_keeps_first_expression():
    assert find_chains("x = 74 - 35 = 39") == [Chain("74 - 35", 39.0)]


def test_chain_bare_expression_line():
    assert find_chains("(51.0 - 8.0) * 130.0") == [
        Chain("(51.0 - 8.0) * 130.0", None)
    ]


@pytest.mark.parametrize(
    "text, chain",
    [
        ("total = $5,590.0 - 10 = $5,580.0", Chain("5,590.0 - 10", 5580.0)),
        (r"she paid \$23 - \$15 = \$8", Chain(r"23 - \$15", 8.0)),
        ("so 32 + 42 = (74) in all", Chain("32 + 42", 74.0)),
        ("then 3 - 8 = -5 degrees", Chain("3 - 8", None)),
        ("so 3 * 4 = (@) or x", Chain("3 * 4", None)),
    ],
)
def test_chain_stated_result_is_a_bare_number(text, chain):
    # currency symbols and thousands separators are stripped; a negation or a
    # placeholder is no bare number
    assert find_chains(text) == [chain]


def test_chain_ignores_lone_numbers_and_prose():
    assert find_chains("In 1945, 100 people left. No math here.") == []


@settings(max_examples=400)
@given(_edited_formulas())
def test_has_operator_matches_a_tree_walk(raw):
    for segment in raw.split(";"):
        assert formula._has_operator(segment) == has_operator_by_tree(segment)


@settings(max_examples=400)
@given(_edited_formulas())
def test_stated_result_matches_a_number_leaf(raw):
    for segment in raw.split(";"):
        assert formula._stated_result(segment) == stated_result_by_tree(segment)


def test_chains_in_deeply_nested_text_are_found_without_recursion_errors(monkeypatch):
    calls = []
    scan = formula._scan_operand
    monkeypatch.setattr(
        formula, "_scan_operand", lambda *args: calls.append(1) or scan(*args)
    )
    text = "(" * 2000 + "1+2" + ")" * 2000
    chains = find_chains(text)
    # a span is scanned at most MAX_NESTING levels deep from each start
    assert len(calls) <= 2 * len(text) * (formula.MAX_NESTING + 2)
    assert all(chain.expression.strip("()") == "1+2" for chain in chains)
    assert find_chains("x = " + "-" * 3000 + "5 = 5 and 1 + " + "-" * 3000 + "5") == []
    assert find_chains("so " + "(" * 50 + "3*4" + ")" * 50 + " = 12") == [
        Chain("(" * 50 + "3*4" + ")" * 50, 12.0)
    ]


@pytest.mark.parametrize("opener, depth", [("(", 1), ("(-", 2), ("( - ", 2)])
def test_chains_past_a_run_of_openers_cost_no_more_as_the_run_grows(monkeypatch, opener, depth):
    reads = []
    read = formula._read_token
    monkeypatch.setattr(formula, "_read_token", lambda s, i: reads.append(i) or read(s, i))
    counts = {}
    for levels in (2000, 4000):
        reads.clear()
        chains = find_chains(opener * levels + "1+2" + ")" * levels)
        counts[levels] = len(reads)
        # the span starts at the first opener that a scan can follow to the end
        inner = formula.MAX_NESTING // depth
        assert [chain.expression for chain in chains] == [
            (opener * inner + "1+2" + ")" * inner).strip()
        ]
    # a scan from each opener of the run would read about MAX_NESTING tokens per level
    assert counts[4000] - counts[2000] < 2000


# prose pieces, and runs of openers and closers around the nesting limit
_CHAIN_PIECES = st.one_of(
    st.sampled_from(
        list("0123456789+-*/()=$\\ .,") + ["x", "ab", "price", "total", "\n"] + UNICODE_EDITS[:5]
    ),
    st.builds(
        lambda run, depth: run * depth,
        st.sampled_from(["(", "(-", "( - ", ")"]),
        st.integers(formula.MAX_NESTING - 10, formula.MAX_NESTING + 10),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_CHAIN_PIECES, max_size=40).map("".join))
def test_chains_match_the_recursive_descent(text):
    assert find_chains(text) == chains_by_descent(text)


def test_nested_chains_match_the_recursive_descent():
    for depth in range(formula.MAX_NESTING - 15, formula.MAX_NESTING + 16):
        for text in (
            "(" * depth + "1+2" + ")" * depth,
            "(-" * depth + "1+2" + ")" * depth,
            "( - " * depth + "1+2" + ")" * depth,
            "(1+" * depth + "2" + ")" * depth + " = 7",
            "3 + " + "(2*-" * depth + "1" + ")" * depth + " = 5 - 1",
            "x = " + "-" * depth + "5 = 5 and 1 + " + "-" * depth + "5",
            "so " + "(" * depth + "3*4" + ")" * depth + " = 12",
        ):
            assert find_chains(text) == chains_by_descent(text), text


@pytest.mark.parametrize("opener, inner", [("(1+", "2"), ("(-", "1")])
def test_chains_read_tokens_in_linear_time_at_any_nesting(monkeypatch, opener, inner):
    reads = []
    read = formula._read_token
    monkeypatch.setattr(formula, "_read_token", lambda s, i: reads.append(i) or read(s, i))
    counts = {}
    for levels in (2000, 4000):
        reads.clear()
        find_chains(opener * levels + inner + ")" * levels)
        counts[levels] = len(reads)
    # each group is scanned once, however deep, so twice the levels read
    # at most about twice the tokens
    assert counts[4000] <= 2.1 * counts[2000]


def test_chains_align_only_segments_with_an_operator_character(monkeypatch):
    aligned = []
    align = formula._align
    monkeypatch.setattr(formula, "_align", lambda s: aligned.append(s) or align(s))
    text = (
        "In 1945, 100 people left (2 of them twice); then 3 + 4 = 7 = (7), so 5 - 2 and 2 = -5 = 3"
    )
    assert find_chains(text) == [Chain("3 + 4", 7.0), Chain("5 - 2", None)]
    # a last segment with an operator character states no result, so it is aligned only once
    assert aligned == ["3 + 4", "(7)", "5 - 2", "-5"]


def test_chain_three_part_equation():
    chains = find_chains("So, there are 200 * (1 - 2/5) = 200 * (3/5) = 120 boys")
    assert chains == [Chain("200 * (1 - 2/5)", 120.0)]


# ---------------------------------------------------------------------------
# Re-exports
# ---------------------------------------------------------------------------


def test_similarity_reexports_split_balanced():
    assert similarity.split_balanced is split_balanced
