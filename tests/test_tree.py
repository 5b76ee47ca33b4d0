import random

import pytest

from grigor import config
from grigor.decide import are_equal
from grigor.errors import CapExceeded
from grigor.leafperm import word_perm
from grigor.tree import (
    Decomposition,
    act,
    decompose,
    first_active_level,
    in_level_stabilizer,
    sections_at,
)
from grigor.words import multiply, reduce_word

from conftest import make_even_word, make_word


def test_generator_decompositions():
    assert decompose("b") == Decomposition(0, "a", "c")
    assert decompose("c") == Decomposition(0, "a", "d")
    assert decompose("d") == Decomposition(0, "", "b")
    assert decompose("a") == Decomposition(1, "", "")


def test_conjugated_decomposition():
    assert decompose("aba") == Decomposition(0, "c", "a")
    assert decompose("abab") == Decomposition(0, "ca", "ac")


def test_swap_law(rng):
    # psi(g^a) = (g2, g1)
    for _ in range(50):
        g = make_even_word(rng, rng.randint(0, 24))
        d = decompose(g)
        da = decompose(reduce_word("a" + g + "a"))
        assert da == Decomposition(d.active, d.right, d.left)


def test_decompose_is_homomorphic_on_stabilizer(rng):
    for _ in range(30):
        x = make_even_word(rng, rng.randint(0, 20))
        y = make_even_word(rng, rng.randint(0, 20))
        dx, dy, dxy = decompose(x), decompose(y), decompose(multiply(x, y))
        assert are_equal(dxy.left, multiply(dx.left, dy.left))
        assert are_equal(dxy.right, multiply(dx.right, dy.right))


def test_act_root_transposition():
    assert act("a", "011") == "111"
    assert act("", "0110") == "0110"
    assert act("d", "0") == "0"


def test_act_prefix_compatible(rng):
    for _ in range(30):
        g = reduce_word(make_word(rng, 16))
        v = "".join(rng.choice("01") for _ in range(8))
        image = act(g, v)
        assert len(image) == len(v)
        assert act(g, v[:5]) == image[:5]


def test_act_matches_level_permutation(rng):
    for _ in range(20):
        g = reduce_word(make_word(rng, 14))
        for n in (1, 3, 6):
            perm = word_perm(g, n)
            for _ in range(5):
                i = rng.randrange(1 << n)
                v = format(i, f"0{n}b")
                assert act(g, v) == format(int(perm[i]), f"0{n}b")


def test_sections_at_examples():
    assert sections_at("", 3) == [""] * 8
    assert sections_at("d", 1) == ["", "b"]
    assert sections_at("a", 1) == ["", ""]
    assert sections_at("b", 1) == ["a", "c"]

    assert len(sections_at("", config.MAX_DEPTH)) == 1 << config.MAX_DEPTH
    with pytest.raises(CapExceeded):
        sections_at("", config.MAX_DEPTH + 1)


def test_section_at_vertex():
    # the section at vertex v is entry int(v, 2) of the level-len(v) sections
    assert sections_at("b", 1)[int("0", 2)] == "a"
    assert sections_at("b", 2)[int("11", 2)] == "d"
    assert sections_at("d", 1)[int("1", 2)] == "b"


def test_level_stabilizers():
    assert in_level_stabilizer("b", 1)
    assert not in_level_stabilizer("a", 1)
    # d = (1, b) fixes level 2 as well: b itself fixes level 1
    assert in_level_stabilizer("d", 2)
    assert not in_level_stabilizer("d", 3)


def test_stabilizer_matches_parity(rng):
    for _ in range(50):
        g = reduce_word(make_word(rng, rng.randint(0, 24)))
        assert in_level_stabilizer(g, 1) == (g.count("a") % 2 == 0)


def test_stabilizer_matches_level_permutation(rng):
    for _ in range(50):
        g = reduce_word(make_word(rng, rng.randint(0, 24)))
        for n in range(7):
            identity = word_perm(g, n) == list(range(1 << n))
            assert in_level_stabilizer(g, n) == identity


def test_spherical_transitivity():
    # BFS closure of 0^n under the four generators covers the whole level
    for n in range(1, 9):
        start = "0" * n
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for g in "abcd":
                image = act(g, v)
                if image not in seen:
                    seen.add(image)
                    frontier.append(image)
        assert len(seen) == 1 << n


def test_first_active_level():
    assert first_active_level("a") == 0
    assert first_active_level("") is None
    assert first_active_level("b") == 1
    assert first_active_level("c") == 1
    # d's shallowest moved vertex is 100: its right section b fixes level 1
    assert first_active_level("d") == 2
    assert first_active_level(reduce_word("adadadad")) is None


def test_first_active_level_random_consistency(rng):
    from grigor.decide import witness_vertex

    for _ in range(40):
        g = reduce_word(make_word(rng, rng.randint(1, 20)))
        level = first_active_level(g)
        witness = witness_vertex(g, 12)
        if witness is None:
            assert level is None or level >= 12
        else:
            assert level == len(witness) - 1
