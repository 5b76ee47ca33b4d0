import pytest
from hypothesis import given, strategies as st

from grigor.branch import (
    T_ATOM,
    U,
    V,
    build_level_quotient,
    certified_plateau,
    emb_pair,
    lift_first,
    lift_second,
    membership_in_K,
    random_tword,
    search_high_order,
)
from grigor.certificates import (
    K_LEVEL, T, TWord, flatten, format_tword, parse_tword, reduced_membership_in_K
)
from grigor.config import QUOTIENT_MAX_LEVEL
from grigor.decide import are_equal, is_trivial, order
from grigor.errors import SearchExhausted
from grigor.leafperm import word_perm
from grigor.tree import decompose
from grigor.words import multiply, reduce_word

import word_reference
from conftest import make_word


def test_k_generators():
    assert T == reduce_word("abab")
    du, dv = decompose(U), decompose(V)
    assert du.active == 0 and are_equal(du.left, T) and is_trivial(du.right)
    assert dv.active == 0 and is_trivial(dv.left) and are_equal(dv.right, T)
    assert order(T).value == 8


def test_flatten():
    assert flatten(TWord()) == ""
    assert flatten(T_ATOM) == "abab"
    assert flatten(TWord((("", 1), ("", -1)))) == ""


def test_tword_algebra(rng):
    for _ in range(20):
        k1 = random_tword(rng, max_factors=2, conj_len=6)
        k2 = random_tword(rng, max_factors=2, conj_len=6)
        assert are_equal(flatten(k1 * k2), multiply(flatten(k1), flatten(k2)))


def test_tword_literals():
    assert parse_tword("") == TWord()
    assert parse_tword("1^+1") == T_ATOM
    k = parse_tword("ab^-1;1^+1")
    assert k.factors == (("ab", -1), ("", 1))
    assert parse_tword(format_tword(k)) == k
    with pytest.raises(ValueError):
        parse_tword("ab")
    with pytest.raises(ValueError):
        parse_tword("ab^2")


def test_lift_examples():
    assert lift_first("a") == "b"
    assert lift_first("b") == "ada"
    assert lift_first("") == ""
    assert lift_second("b") == "d"
    assert lift_second("c") == "b"
    assert lift_second("") == ""


def test_lift_correctness(rng):
    for _ in range(30):
        g = reduce_word(make_word(rng, rng.randint(0, 16)))
        lifted = lift_first(g)
        assert lifted.count("a") % 2 == 0
        assert are_equal(decompose(lifted).left, g)
        mirrored = lift_second(g)
        assert mirrored.count("a") % 2 == 0
        assert are_equal(decompose(mirrored).right, g)


raw_words = st.text("abcd", max_size=40)


@given(raw_words, raw_words)
def test_lifts_commute_with_reduction_and_product(u, w):
    # Both lifts are endomorphisms of Z/2 * V4, so the right replay may lift
    # y2's conjugators w . g1^-1 as lift_second(w) . lift_second(g1^-1).
    ru, rw = reduce_word(u), reduce_word(w)
    for lift in (lift_first, lift_second):
        assert lift(ru) == lift(u)
        assert lift(multiply(ru, rw)) == multiply(lift(ru), lift(rw))


tword_factors = st.lists(
    st.tuples(st.text("abcd", max_size=12).map(reduce_word), st.sampled_from((1, -1))),
    max_size=4,
)


@given(tword_factors, tword_factors)
def test_tword_words_equal_the_full_reduction(f1, f2):
    k1, k2 = TWord(tuple(f1)), TWord(tuple(f2))
    assert flatten(k1) == word_reference.flatten(k1)
    assert emb_pair(k1, k2) == word_reference.emb_pair(k1, k2)


def test_emb_pair_examples():
    assert emb_pair(T_ATOM, TWord()) == U
    assert emb_pair(TWord(), T_ATOM) == V
    assert emb_pair(TWord(), TWord()) == ""


def test_emb_pair_correctness(rng):
    for _ in range(15):
        k1 = random_tword(rng, max_factors=2, conj_len=6)
        k2 = random_tword(rng, max_factors=2, conj_len=6)
        d = decompose(emb_pair(k1, k2))
        assert d.active == 0
        assert are_equal(d.left, flatten(k1))
        assert are_equal(d.right, flatten(k2))


def test_level_quotient_orders():
    assert build_level_quotient(1).group_order == 2
    assert build_level_quotient(2).group_order == 8
    # Grigorchuk's closed form, to the top level.
    for n in range(3, QUOTIENT_MAX_LEVEL + 1):
        assert build_level_quotient(n).group_order == 2 ** (5 * 2 ** (n - 3) + 2), n


@pytest.mark.parametrize("n", range(1, 7))
def test_level_quotient_matches_sympy(n):
    # Schreier-Sims and a normal closure on leafperm's generators, against
    # the closure to level 3 and the branch recursion past it.
    from sympy.combinatorics import Permutation, PermutationGroup

    def perm(g):
        return Permutation(word_perm(g, n).tolist(), size=1 << n)

    group = PermutationGroup([perm(x) for x in "abcd"])
    k_image = group.normal_closure([perm(T)])
    quotient = build_level_quotient(n)
    assert quotient.group_order == group.order()
    assert quotient.k_image_index == group.order() // k_image.order()


def test_index_monotone_and_plateaus():
    indices = [build_level_quotient(n).k_image_index for n in range(1, 7)]
    assert indices == sorted(indices)
    for idx, g_order in zip(
        indices, (build_level_quotient(n).group_order for n in range(1, 7))
    ):
        assert g_order % idx == 0
    assert certified_plateau() is not None


def test_quotient_level_bounds():
    with pytest.raises(ValueError):
        build_level_quotient(0)
    with pytest.raises(ValueError):
        build_level_quotient(9)


def test_membership():
    assert membership_in_K("a").verdict == "outside"
    assert membership_in_K("abab").verdict == "inside"
    assert membership_in_K("b").verdict == "outside"
    assert membership_in_K("").verdict == "inside"


def test_k_level_is_the_certified_plateau():
    assert certified_plateau() == K_LEVEL
    quotient = build_level_quotient(K_LEVEL)
    assert len(word_reference.k_image_table()) == quotient.group_order // quotient.k_image_index


def test_membership_matches_sympy_quotient(rng):
    # The letter-count verdicts against sympy's normal closure of t in G_3.
    from sympy.combinatorics import Permutation, PermutationGroup

    def perm(g):
        return Permutation(list(word_perm(g, K_LEVEL)), size=1 << K_LEVEL)

    k_image = PermutationGroup([perm(x) for x in "abcd"]).normal_closure([perm(T)])
    words = [reduce_word(make_word(rng, rng.randint(0, 40))) for _ in range(200)]
    words += [flatten(random_tword(rng, conj_len=8)) for _ in range(100)]
    words += [
        emb_pair(random_tword(rng, 2, 6), random_tword(rng, 2, 6)) for _ in range(100)
    ]
    verdicts = set()
    for g in words:
        result = membership_in_K(g)
        assert (result.verdict == "inside") == k_image.contains(perm(g))
        assert result.level == (1 if g.count("a") & 1 else K_LEVEL)
        verdicts.add((result.verdict, result.level))
    assert verdicts == {("inside", K_LEVEL), ("outside", K_LEVEL), ("outside", 1)}


def test_membership_agrees_with_level_3_on_short_words():
    # Every reduced word of up to 13 letters, grown letter by letter: the
    # letter counts in Gamma/K = D8 x Z/2 against the level-3 permutation.
    words = level = [""]
    for _ in range(13):
        level = [w + x for w in level for x in {"": "abcd", "a": "bcd"}.get(w[-1:], "a")]
        words = words + level
    assert len(words) == 6557
    for g in words:
        result = reduced_membership_in_K(g)
        assert (result.verdict, result.level) == word_reference.level3_membership(g), g


@given(st.text("abcd", max_size=400).map(reduce_word))
def test_membership_agrees_with_level_3_on_reduced_raw_words(g):
    result = reduced_membership_in_K(g)
    assert (result.verdict, result.level) == word_reference.level3_membership(g)


@given(st.binary(min_size=500, max_size=3000), st.booleans())
def test_membership_agrees_with_level_3_on_long_words(data, a_first):
    g = ("a" if a_first else "") + "a".join("bcd"[byte % 3] for byte in data)
    result = reduced_membership_in_K(g)
    assert (result.verdict, result.level) == word_reference.level3_membership(g)


def test_membership_of_embeddings(rng):
    for _ in range(10):
        k1 = random_tword(rng, max_factors=2, conj_len=6)
        k2 = random_tword(rng, max_factors=2, conj_len=6)
        assert membership_in_K(emb_pair(k1, k2)).verdict == "inside"


def test_search_high_order():
    assert search_high_order(3, seed=1) == T_ATOM
    assert search_high_order(0, seed=1) == T_ATOM
    k = search_high_order(5, seed=1)
    result = order(flatten(k))
    assert result.is_exact and result.value >= 32
    assert order(flatten(k * k)).value == 32  # k has order 64 for this seed
    with pytest.raises(ValueError):
        search_high_order(-1)
    with pytest.raises(SearchExhausted):
        search_high_order(11, budget=3, seed=1)
