from hypothesis import given, strategies as st

from grigor.words import (
    commutator,
    format_word,
    invert,
    multiply,
    parse_word,
    reduce_word,
)

from word_reference import is_reduced

raw_words = st.text(alphabet="abcd", max_size=64)


def test_involutions_cancel():
    assert reduce_word("aa") == ""
    assert reduce_word("abba") == ""


def test_klein_merges():
    assert reduce_word("bc") == "d"
    assert reduce_word("cb") == "d"
    assert reduce_word("bd") == "c"
    assert reduce_word("cd") == "b"
    # merge can cascade: b c -> d, then d d -> empty
    assert reduce_word("bcd") == ""


def test_reduce_rejects_bad_letters():
    try:
        reduce_word("abe")
    except ValueError as exc:
        assert "e" in str(exc)
    else:
        raise AssertionError("expected ValueError")


@given(raw_words)
def test_reduce_idempotent(w):
    r = reduce_word(w)
    assert reduce_word(r) == r


@given(raw_words)
def test_reduce_never_longer(w):
    assert len(reduce_word(w)) <= len(w)


@given(raw_words)
def test_reduced_shape(w):
    assert is_reduced(reduce_word(w))


@given(raw_words)
def test_inverse_cancels(w):
    r = reduce_word(w)
    assert multiply(r, invert(r)) == ""
    assert multiply(invert(r), r) == ""


@given(raw_words, raw_words)
def test_multiply_is_reduced_concatenation(x, y):
    assert multiply(reduce_word(x), reduce_word(y)) == reduce_word(x + y)


def test_multiply_examples():
    assert multiply("", "ab") == "ab"
    assert multiply("ab", "ba") == ""
    assert multiply("b", "c") == "d"


def test_invert_examples():
    assert invert("ab") == "ba"
    assert invert("") == ""
    assert invert("abad") == "daba"


def test_commutator_examples():
    assert commutator("ab", "") == ""
    assert commutator("ab", "ab") == ""
    assert commutator("a", "b") == reduce_word("abab")


def test_literal_round_trip():
    assert parse_word("1") == ""
    assert parse_word("") == ""
    assert format_word("") == "1"
    assert parse_word(format_word("aba")) == "aba"
