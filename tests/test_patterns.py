"""Pattern sub-language: parse errors, generated languages, and agreement
with an independently written matcher."""

import pytest

from tricheck.prng import SplitMix64
from tricheck.patterns import ParseError, parse_pattern, pattern
from tricheck.strategies import cardinality, enumerate_values, random_tree

from _oracles import language_of, match_ast


# --------------------------------------------------------------------------
# parse errors carry offsets

@pytest.mark.parametrize(
    "text,offset,fragment",
    [
        ("a{2,1}", 1, "bad repeat interval {2,1}"),
        ("*a", 0, "quantifier with nothing to repeat"),
        ("a**", 2, "multiple repeat"),
        ("a{", 2, "expected digits for quantifier lower bound"),
        ("a{x}", 2, "expected digits for quantifier lower bound"),
        ("a{1,2", 1, "malformed quantifier"),
        ("a{1x}", 1, "malformed quantifier"),
        ("a\tb", 1, "outside printable ASCII"),
        ("[\t]", 1, "outside printable ASCII"),
        (r"[\d]", 1, r"unsupported escape \d"),
        ("[a\\", 2, "dangling escape"),
        ("{2}", 0, "brace must be escaped or form a quantifier"),
        ("^a", 0, "unsupported anchor '^'"),
        ("a$", 1, "unsupported anchor '$'"),
        (r"\d", 0, r"unsupported escape \d"),
        ("a\\", 1, "dangling escape"),
        ("[abc", 0, "unterminated character class"),
        ("[z-a]", 0, "reversed class range z-a"),
        ("[^ -~]", 0, "class matches nothing"),
        ("(a", 0, "unbalanced parenthesis"),
        (")", 0, "unexpected ')'"),
        ("a)b", 1, "unexpected ')'"),
    ],
)
def test_parse_error_offsets(text, offset, fragment):
    with pytest.raises(ParseError) as exc:
        parse_pattern(text)
    assert exc.value.offset == offset
    assert fragment in str(exc.value)
    assert f"offset {offset}" in str(exc.value)


def test_star_cap_must_be_positive():
    with pytest.raises(ValueError):
        parse_pattern("a*", star_cap=0)


# --------------------------------------------------------------------------
# exact languages (small enough to spell out)

def test_two_letter_class_square():
    assert list(enumerate_values(pattern("[ab]{2}"))) == ["aa", "ab", "ba", "bb"]


def test_star_rewrites_to_zero_to_cap():
    assert list(enumerate_values(pattern("a*", star_cap=3))) == ["", "a", "aa", "aaa"]


def test_plus_rewrites_to_one_to_cap():
    assert list(enumerate_values(pattern("a+", star_cap=3))) == ["a", "aa", "aaa"]


def test_alternation_and_optional_group():
    assert list(enumerate_values(pattern("cat|dog(gy)?"))) == ["cat", "dog", "doggy"]


def test_optional_is_shortest_first():
    assert list(enumerate_values(pattern("a?b"))) == ["b", "ab"]


def test_group_repetition():
    assert list(enumerate_values(pattern("(ab){2}"))) == ["abab"]


def test_class_with_leading_bracket_and_trailing_dash():
    assert list(enumerate_values(pattern("[]a]"))) == ["]", "a"]
    assert list(enumerate_values(pattern("[a-]"))) == ["-", "a"]


def test_escaped_metacharacters_are_literals():
    assert list(enumerate_values(pattern(r"\*\{x\}"))) == ["*{x}"]


def test_escapes_inside_a_class_are_literals():
    assert list(enumerate_values(pattern(r"[\]]"))) == ["]"]
    assert list(enumerate_values(pattern(r"[\-a]"))) == ["-", "a"]


def test_empty_pattern_and_empty_branch_match_the_empty_string():
    assert list(enumerate_values(pattern(""))) == [""]
    assert list(enumerate_values(pattern("a|"))) == ["a", ""]


def test_dot_is_printable_ascii():
    values = list(enumerate_values(pattern(".")))
    assert len(values) == 95
    assert values[0] == " " and values[-1] == "~"
    assert cardinality(pattern(".")).count == 95


def test_negated_class_complements_within_printable_ascii():
    values = list(enumerate_values(pattern("[^a]")))
    assert len(values) == 94
    assert "a" not in values


def test_bounded_interval_count():
    # 10 one-digit + 100 two-digit strings
    assert len(list(enumerate_values(pattern("[0-9]{1,2}")))) == 110


# --------------------------------------------------------------------------
# agreement with the independent language/matcher oracle

SMALL_PATTERNS = [
    "[ab]{2}",
    "a?b",
    "x|yz",
    "(a|b)(c|d)",
    "a{0,2}b",
    "[0-3]",
    "[]x-]",
    r"\.\*",
    "(ab|c){1,2}",
    ".?",
]


@pytest.mark.parametrize("text", SMALL_PATTERNS)
def test_enumeration_equals_oracle_language(text):
    ast = parse_pattern(text, star_cap=3)
    got = list(enumerate_values(pattern(text, star_cap=3)))
    want = language_of(ast)
    assert got == want


MATCHER_PATTERNS = SMALL_PATTERNS + [
    "a*",
    "a+b*",
    "[a-f]{2,3}",
    "foo(bar|baz)?",
    "[^x]y",
    "z{3}",
    "(0|1){1,4}",
    "q.r",
    "[A-C][a-c]",
    "-|[+]",
]


@pytest.mark.parametrize("text", MATCHER_PATTERNS)
def test_every_generated_string_matches(text):
    ast = parse_pattern(text, star_cap=4)
    strat = pattern(text, star_cap=4)
    for s in enumerate_values(strat, budget=500):
        assert match_ast(ast, s), f"{text}: generated {s!r} that the matcher rejects"


@pytest.mark.parametrize("text", MATCHER_PATTERNS)
def test_random_draws_match_too(text):
    ast = parse_pattern(text, star_cap=4)
    strat = pattern(text, star_cap=4)
    rng = SplitMix64(1234)
    for _ in range(50):
        s = random_tree(strat, rng).current
        assert match_ast(ast, s)


def test_matcher_rejects_strings_outside_the_language():
    ast = parse_pattern("[ab]{2}")
    for s in ["", "a", "abc", "ac", "ba ", "AB"]:
        assert not match_ast(ast, s)


def test_pattern_strings_shrink_toward_shorter_and_earlier():
    strat = pattern("[ab]{1,3}", star_cap=8)
    rng = SplitMix64(9)
    tree = None
    while tree is None or len(tree.current) != 3:
        tree = random_tree(strat, rng)
    cands = [c.current for c in tree.candidates()]
    assert cands, "a three-letter string must shrink"
    assert len(cands[0]) < 3
