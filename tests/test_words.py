import pytest
from hypothesis import given, strategies as st

from grigor import tree
from grigor.words import (
    commutator,
    conjugate,
    decompose,
    format_word,
    invert,
    multiply,
    parse_word,
    reduce_word,
)

from word_reference import is_reduced, scan_decompose, stack_reduce_word

raw_words = st.text(alphabet="abcd", max_size=64)
reduced_words = raw_words.map(reduce_word)
# Inputs of the kernel tests: raw words; reduced words, built by the
# reference; a's between runs of {b, c, d} of up to 12 letters, often empty,
# so a's cancel across them; u.u^-1 for raw and reduced u, which cancels
# to the identity; and a-only strings.
reference_reduced = raw_words.map(stack_reduce_word)
long_run_words = st.lists(
    st.text(alphabet="bcd", max_size=12) | st.just(""), max_size=16
).map("a".join)
cancelling_words = (raw_words | reference_reduced).map(lambda u: u + invert(u))
a_only_words = st.integers(0, 64).map(lambda n: "a" * n)
kernel_inputs = raw_words | reference_reduced | long_run_words | cancelling_words | a_only_words

@st.composite
def junctions(draw):
    """Reduced (x, y) where y opens with a prefix of x^-1, then often a
    letter of {b, c, d}: x.y cancels that prefix and may merge a pair."""
    x = draw(reduced_words)
    prefix = invert(x)[: draw(st.integers(0, len(x)))]
    y = reduce_word(prefix + draw(st.sampled_from(("", "b", "c", "d"))) + draw(raw_words))
    return x, y


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


def bad_letter(ch: str) -> str:
    return f"invalid letter {ch!r}; expected one of 'abcd'"


def test_reduce_rejects_bad_letters():
    # The first invalid letter is named, in a short or a long run.
    for word, ch in (("abe", "e"), ("abxe", "x"), ("ababbbbxe", "x")):
        with pytest.raises(ValueError) as exc:
            reduce_word(word)
        assert str(exc.value) == bad_letter(ch)


def test_decompose_rejects_bad_letters():
    for call in (decompose, lambda w: tree.sections_at(w, 1)):
        for word, ch in (("abe", "e"), ("abxe", "x")):
            with pytest.raises(ValueError) as exc:
                call(word)
            assert str(exc.value) == bad_letter(ch)


@given(kernel_inputs)
def test_reduce_matches_stack_reference(w):
    assert reduce_word(w) == stack_reduce_word(w)


@given(kernel_inputs)
def test_decompose_matches_scan_reference(w):
    assert decompose(w) == scan_decompose(w)



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


@given(st.tuples(reduced_words, reduced_words) | junctions())
def test_multiply_is_reduced_concatenation(pair):
    # Products of reduced words equal the full reduction of the letters.
    # Both orders: y.x puts the cancelling prefix at the junctions of
    # y^-1 x and y^-1 x^-1 instead.
    for x, y in (pair, pair[::-1]):
        assert multiply(x, y) == reduce_word(x + y)
        assert conjugate(x, y) == reduce_word(invert(y) + x + y)
        assert commutator(x, y) == reduce_word(invert(x) + invert(y) + x + y)


def test_multiply_examples():
    assert multiply("", "ab") == "ab"
    assert multiply("ab", "ba") == ""
    assert multiply("b", "c") == "d"
    assert multiply("abac", "cadab") == "acab"  # cancels c and a, merges b.d


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
