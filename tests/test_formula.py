import pytest
from hypothesis import given, settings, strategies as st

from _oracles import align_by_tree, has_operator_by_tree
from mathcontrast.errors import MergeError, ParseError
from mathcontrast import formula, similarity
from mathcontrast.formula import (
    ALIGNED_ALPHABET_RE,
    Chain,
    align_variables,
    find_chains,
    merge_steps,
    parse_expression,
    split_balanced,
    to_text,
)


def _paren_balance(s: str) -> int:
    return s.count("(") - s.count(")")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_letter_product_chain():
    node = parse_expression("A*(B+C+D)*B")
    # left-associative: (A * (B+C+D)) * B
    assert node.kind == "binary" and node.op == "*"
    assert node.children[1].text == "B"
    inner = node.children[0]
    assert inner.op == "*" and inner.children[0].text == "A"
    group = inner.children[1]
    assert group.op == "+" and group.children[1].text == "D"


def test_parse_single_number():
    node = parse_expression("42")
    assert node.kind == "number" and node.value() == 42.0


def test_parse_parenthesized_difference_times_number():
    node = parse_expression("(51.0-8.0)*130.0")
    assert node.op == "*"
    assert node.children[0].op == "-"
    assert node.children[1].value() == 130.0


def test_parse_strips_currency_and_thousands_separators():
    assert parse_expression("$5,590.0").value() == 5590.0
    node = parse_expression(r"\$23 - \$15")
    assert node.op == "-" and node.children[0].value() == 23.0


def test_parse_unary_minus():
    node = parse_expression("-5 + 3")
    assert node.op == "+" and node.children[0].kind == "neg"


@pytest.mark.parametrize(
    "bad", ["", "   ", "(1+2", "1+", "*3", "1 ? 2", "()", "1+2)"]
)
def test_parse_errors_carry_positions(bad):
    with pytest.raises(ParseError) as exc_info:
        parse_expression(bad)
    assert exc_info.value.position >= 0
    # alignment accepts exactly what the parser accepts, so it fails the same way
    with pytest.raises(ParseError) as aligned:
        align_variables(bad)
    assert str(aligned.value) == str(exc_info.value)
    assert aligned.value.position == exc_info.value.position


def test_parse_stops_at_the_nesting_limit_with_a_parse_error():
    deep = formula.MAX_NESTING
    assert parse_expression("(" * deep + "5" + ")" * deep).value() == 5.0
    assert parse_expression("-" * deep + "5").kind == "neg"
    for raw in ("-" * 3000 + "5", "(" * 3000 + "5" + ")" * 3000, "-(" * deep + "5" + ")" * deep):
        with pytest.raises(ParseError) as exc_info:
            parse_expression(raw)
        assert "nested" in str(exc_info.value)
    # alignment does not recurse, so it takes any depth
    assert align_variables("(" * 3000 + "5" + ")" * 3000).text == "(" * 3000 + "@" + ")" * 3000


def test_align_reports_the_parse_error_of_the_failing_part():
    with pytest.raises(ParseError) as exc_info:
        align_variables("1+2;(3*4")
    assert str(exc_info.value) == "expected ')' (at position 4)"
    assert exc_info.value.position == 4


def test_align_tokenizes_each_part_once(monkeypatch):
    calls = []
    tokenize = formula._tokenize

    def counted(s):
        calls.append(s)
        return tokenize(s)

    monkeypatch.setattr(formula, "_tokenize", counted)
    aligned = align_variables("$1,200 + x;3*(4-y);z")
    assert calls == ["$1,200 + x", "3*(4-y)", "z"]
    assert (aligned.text, aligned.token_count) == ("@+@;@*(@-@);@", 6)


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


@given(_exprs())
def test_roundtrip_print_then_reparse(raw):
    tree = parse_expression(raw)
    assert parse_expression(to_text(tree)) == tree


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


def test_align_accepts_parsed_node():
    assert align_variables(parse_expression("1+2*3")).text == "@+@*@"


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


def _edited_formulas():
    """Formulas from the grammar, ';'-joined, then up to two
    single-character edits: mostly valid, with every kind of error."""
    edit = st.tuples(
        st.sampled_from(["insert", "delete", "replace"]),
        st.integers(0, 80),
        st.sampled_from(list("()+-*/@1x.,$ ;?")),
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


def test_align_builds_no_tree(monkeypatch):
    def no_tree(*args):
        raise AssertionError("built a parse tree")

    monkeypatch.setattr(formula, "_Parser", no_tree)
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


def test_chain_ignores_lone_numbers_and_prose():
    assert find_chains("In 1945, 100 people left. No math here.") == []


@settings(max_examples=400)
@given(_edited_formulas())
def test_has_operator_matches_a_tree_walk(raw):
    for segment in raw.split(";"):
        assert formula._has_operator(segment) == has_operator_by_tree(segment)


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


def test_chain_three_part_equation():
    chains = find_chains("So, there are 200 * (1 - 2/5) = 200 * (3/5) = 120 boys")
    assert chains == [Chain("200 * (1 - 2/5)", 120.0)]


# ---------------------------------------------------------------------------
# Re-exports
# ---------------------------------------------------------------------------


def test_similarity_reexports_split_balanced():
    assert similarity.split_balanced is split_balanced
