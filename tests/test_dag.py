"""Section-DAG elements against word-level reference algorithms and leafperm."""

import random
from itertools import islice, product

import pytest

from grigor import certificates, config
from grigor.dag import Dag
from grigor.branch import flatten, search_high_order
from grigor.decide import witness_vertex
from grigor.engel import (
    probe,
    random_involution,
    random_word,
    replay_right,
    search_nonengel_pair,
    tower,
)
from grigor.errors import CapExceeded
from grigor.leafperm import tower_perm, word_perm
from grigor.tree import act
from grigor.words import a_parity, reduce_word

import word_reference as ref
from conftest import make_word

# Trivial words, spliced into a word to make an equal one.
RELATORS = ("aa", "bcd", "adadadad", "acacacacacacacac")


def _least_moved_vertex(dag, g):
    """The least-depth, lexicographically least vertex g moves, found with
    Dag.act alone by scanning the level below g's first active level."""
    level = dag.first_active_level(g)
    if level is None:
        return None
    for bits in product("01", repeat=level + 1):
        v = "".join(bits)
        if dag.act(g, v) != v:
            return v
    raise AssertionError("an active section moves some vertex one level down")


def test_dag_agrees_with_words():
    # Triviality and equality against the word contraction recursion;
    # the action and the first active level against leaf permutations.
    rng = random.Random(2024)
    dag = Dag()
    trivial = 0
    for _ in range(2000):
        w = make_word(rng, rng.randint(0, 40))
        g = dag.from_word(w)
        assert (g == 0) == ref.is_trivial(w), w
        trivial += g == 0
        assert dag.mul(g, dag.inv(g)) == 0, w
        if rng.random() < 0.5:
            cut = rng.randint(0, len(w))
            u = w[:cut] + rng.choice(RELATORS) + w[cut:]
        else:
            u = make_word(rng, rng.randint(0, 40))
        assert (dag.from_word(u) == g) == ref.are_equal(u, w), (u, w)
        witness = witness_vertex(w, config.MAX_DEPTH)
        level = None if witness is None else len(witness) - 1
        assert dag.first_active_level(g) == level, w
        v = "".join(rng.choice("01") for _ in range(rng.randint(1, 10)))
        image = format(int(word_perm(w, len(v))[int(v, 2)]), f"0{len(v)}b")
        assert dag.act(g, v) == act(w, v) == image, (w, v)
        assert _least_moved_vertex(dag, g) == witness, w
    assert 0 < trivial < 2000


def test_leaf_products_use_the_klein_table():
    dag = Dag()
    a, b, c, d = (dag.from_word(x) for x in "abcd")
    assert (a, b, c, d) == (1, 2, 3, 4)
    assert dag.mul(b, c) == d and dag.mul(c, d) == b and dag.mul(d, b) == c
    assert all(dag.mul(x, x) == 0 for x in (a, b, c, d))
    assert dag.first_active_level(d) == 2
    # A product equal to a nucleus element is that leaf, not a new node.
    assert dag.from_word("adadadadb") == b


def test_dag_tower_matches_word_tower():
    # DAG entries against the word tower, and leafperm's quotient tower
    # against the permutation of the word entry, for depths <= 5.
    rng = random.Random(7)
    pairs = [(make_word(rng, rng.randint(1, 12)), make_word(rng, rng.randint(1, 12)))
             for _ in range(40)]
    cert = replay_right("a", 3)
    for x, g in pairs + [(cert.x_active, cert.y)]:
        dag = Dag()
        entries = zip(tower(x, g), dag.tower(dag.from_word(x), dag.from_word(g)))
        for m, (word, t) in enumerate(islice(entries, 5), 1):
            assert t == dag.from_word(word), (x, g, m)
            assert (tower_perm(x, g, m, 6) == word_perm(word, 6)).all(), (x, g, m)


def test_probe_towers_agree_with_is_trivial():
    # 240 probe-shaped towers, half against involutions (which sink): the
    # probe's id-0 test against the word contraction recursion, entry by entry.
    rng = random.Random(11)
    sinks = nontrivial = 0
    for i in range(240):
        g = random_involution(rng) if i % 2 == 0 else random_word(rng)
        x = random_word(rng)
        _, lengths, m, t = probe(x, g, 8)
        words = list(islice(tower(x, g), m))
        assert lengths == [len(word) for word in words], (g, x)
        assert not any(map(ref.is_trivial, words[:-1])), (g, x)
        assert (t == 0) == ref.is_trivial(words[-1]), (g, x)
        assert t == 0 or m == 8, (g, x)
        sinks += t == 0
        nontrivial += m - (t == 0)
    assert sinks >= 120 and nontrivial


def test_node_cap_ends_search(monkeypatch):
    monkeypatch.setattr(config, "NODE_CAP", 200)
    with pytest.raises(CapExceeded, match="200 nodes"):
        search_nonengel_pair(20)


def test_shared_tables_stay_under_half_the_cap(monkeypatch):
    # One replay or verification of these elements interns at most about
    # 460 nodes, so 200 of them would pass this cap on one table; each role
    # table is dropped at call entry once it holds NODE_CAP // 2 nodes.
    monkeypatch.setattr(config, "NODE_CAP", 1000)
    rng = random.Random(5)
    for _ in range(200):
        x = reduce_word(make_word(rng, rng.randint(1, 9)))
        x = x if a_parity(x) else reduce_word(x + "a")
        ok, detail = certificates.verify(certificates.to_dict(replay_right(x, 3)))
        assert ok, detail


def test_order_exponent_agrees_with_squaring():
    rng = random.Random(31)
    dag = Dag()
    assert [dag.order_exponent(g) for g in range(5)] == [0, 1, 1, 1, 1]
    words = ["", "a", "b", "c", "d"] + [make_word(rng, rng.randint(0, 40)) for _ in range(2000)]
    words += [flatten(search_high_order(1 << e)) for e in range(1, 7)]
    exponents = set()
    for w in words:
        expected = ref.order_exponent(w)
        assert expected is not None, w
        fresh = Dag()
        assert fresh.order_exponent(fresh.from_word(w)) == expected, w
        assert dag.order_exponent(dag.from_word(w)) == expected, w  # warm table
        exponents.add(expected)
    assert exponents >= {0, 1, 2, 3, 4, 5, 6}
