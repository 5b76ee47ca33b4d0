import random

import pytest
from sympy.combinatorics import Permutation

from grigor.decide import OrderResult, are_equal, is_trivial, order, witness_vertex
from grigor.leafperm import word_perm
from grigor.words import conjugate, reduce_word

import word_reference as ref
from conftest import make_word


def test_trivial_basics():
    assert is_trivial("")
    assert not is_trivial("ad")
    assert not is_trivial("b")
    assert is_trivial("adadadad")  # (ad)^4 = 1
    assert witness_vertex("adadadad", 20) is None


def test_triviality_respects_reduction(rng):
    for _ in range(60):
        w = make_word(rng, rng.randint(0, 30))
        assert is_trivial(w) == is_trivial(reduce_word(w))


def test_oracle_agreement(rng):
    for _ in range(300):
        w = make_word(rng, rng.randint(0, 40))
        assert is_trivial(w) == (witness_vertex(w, 12) is None)


def test_witness_examples():
    assert witness_vertex("a", 5) == "0"
    assert witness_vertex("", 5) is None
    # d = (1, b), b = (a, c): the shallowest activity sits below vertex 10
    assert witness_vertex("d", 5) == "100"


def test_witness_is_minimal_and_lexicographic(rng):
    from grigor.tree import act

    for _ in range(40):
        w = reduce_word(make_word(rng, 16))
        vertex = witness_vertex(w, 10)
        if vertex is None:
            continue
        assert act(w, vertex) != vertex
        depth = len(vertex)
        for k in range(1, depth):
            for i in range(1 << k):
                v = format(i, f"0{k}b")
                assert act(w, v) == v
        for i in range(int(vertex, 2)):
            v = format(i, f"0{depth}b")
            assert act(w, v) == v


def test_are_equal():
    assert are_equal("bc", "d")
    assert are_equal("abab", "abab")
    assert not are_equal("a", "b")


def test_orders_of_generators():
    for g in "abcd":
        assert order(g).value == 2
    assert order("").value == 1


def test_classical_orders():
    assert order("ab").value == 16
    assert order("ac").value == 8
    assert order("ad").value == 4
    assert order("abab").value == 8


def test_order_via_level_perm_stabilization():
    # the level-perm order is monotone in the level and settles at the true
    # order; ab only reaches 16 at level 5
    for w, expected in [("ab", 16), ("ac", 8), ("ad", 4), ("abab", 8), ("d", 2)]:
        perm_orders = [Permutation(word_perm(w, n).tolist()).order() for n in (4, 5, 6)]
        assert perm_orders[-2] == perm_orders[-1] == expected


def test_order_cap():
    result = order("ab", cap=2)
    assert not result.is_exact
    assert result == OrderResult(None, 2)
    with pytest.raises(ValueError):
        result.value


def test_order_divides_and_halves(rng):
    for _ in range(20):
        w = reduce_word(make_word(rng, 12))
        result = order(w)
        if not result.is_exact:
            continue
        # Checked by the word contraction recursion, not the section DAG.
        assert ref.is_trivial(w * result.value)
        if result.value > 1:
            assert not ref.is_trivial(w * (result.value // 2))


def test_order_conjugation_invariant(rng):
    for _ in range(15):
        g = reduce_word(make_word(rng, 10))
        h = reduce_word(make_word(rng, 10))
        assert order(g).exponent == order(conjugate(g, h)).exponent
