"""leafperm's portrait oracle against the array kernels it replaced:
word_perm against letter-by-letter gathers, moved_vertex and word_witness
against the closed-form and depth-by-depth readings, and the memoized
tower witnesses against array towers and definitional commutators; a
deep tower against the section DAG; its level cap, its node cap, and the
bounds of what it keeps."""

import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grigor import config, leafperm
from grigor.dag import Dag
from grigor.decide import witness_vertex
from grigor.errors import CapExceeded
from grigor.leafperm import moved_vertex, tower_witnesses, word_perm, word_witness
from grigor.words import reduce_word

import word_reference as ref
from conftest import make_reduced_word, make_word

raw_words = st.text("abcd", max_size=120)
words = raw_words | raw_words.map(reduce_word) | st.just("")
levels = st.integers(0, 14)


@pytest.fixture
def fresh_kept(monkeypatch):
    """No kept portrait and no tower witness, as in a fresh process."""
    monkeypatch.setattr(leafperm, "_tables", [])
    leafperm._tower_witnesses.cache_clear()


def _entries():
    """Nodes and memo entries of the kept tables, over all levels."""
    return sum(map(len, leafperm._tables[0].memo)) if leafperm._tables else 0


def definitional_tower(x, g, n):
    """x, [x,_1 g], ... at level n, each step p^-1 q^-1 p q with argsort inverses."""
    p, q = ref.letter_word_perm(x, n), ref.letter_word_perm(g, n)
    q_inv = np.argsort(q)
    while True:
        yield p
        p = q[p[q_inv[np.argsort(p)]]]


def portrait_tower(x, g, n):
    """x, [x,_1 g], ... at level n as leafperm's portrait walk steps them,
    each spelled out as its permutation."""
    tables = leafperm._enter(n)
    p, q = tables.word(n, x.encode()), tables.word(n, g.encode())
    q_inv = tables.inv(n, q)
    while True:
        yield tables.perm(n, p)
        p = tables.mul(n, tables.mul(n, tables.inv(n, p), q_inv), tables.mul(n, p, q))


@settings(deadline=None)
@given(words, levels)
def test_word_perm_matches_letter_by_letter(w, n):
    assert word_perm(w, n) == ref.letter_word_perm(w, n).tolist(), (w, n)


@settings(deadline=None)
@given(words, levels)
def test_moved_vertex_matches_depth_by_depth(w, n):
    perm = ref.letter_word_perm(w, n)
    expected = ref.depth_moved_vertex(perm, n)
    assert ref.array_moved_vertex(perm, n) == expected, (w, n)
    assert moved_vertex(perm.tolist(), n) == expected, (w, n)
    assert word_witness(w, n) == expected, (w, n)


@pytest.mark.parametrize("w", ["", "aa", "bcd", "adadadad"])
@pytest.mark.parametrize("n", [0, 1, 7, 14])
def test_identity_moves_no_vertex(w, n):
    perm = word_perm(w, n)
    assert perm == list(range(1 << n))
    assert moved_vertex(perm, n) is None
    assert word_witness(w, n) is None
    assert ref.depth_moved_vertex(np.array(perm), n) is None


@settings(deadline=None, max_examples=50)
@given(st.text("abcd", min_size=1, max_size=12), st.text("abcd", min_size=1, max_size=12),
       st.integers(0, 10))
def test_tower_entries_agree_with_depth_by_depth(x, g, n):
    expected = tuple(ref.depth_moved_vertex(p, n) for p in islice(ref.array_tower(x, g, n), 5))
    assert tower_witnesses(x, g, n, tuple(range(5))) == expected, (x, g, n)


@settings(deadline=None, max_examples=50)
@given(st.text("abcd", max_size=12), st.text("abcd", max_size=12), st.integers(0, 10))
def test_warm_and_cold_towers_are_the_definitional_commutators(x, g, n):
    leafperm._tables.clear()
    cold = list(islice(portrait_tower(x, g, n), 5))
    warm = list(islice(portrait_tower(x, g, n), 5))  # on the kept portraits
    expected = [p.tolist() for p in islice(definitional_tower(x, g, n), 5)]
    assert cold == warm == expected, (x, g, n)
    leafperm._tower_witnesses.cache_clear()
    assert tower_witnesses(x, g, n, tuple(range(5))) == tuple(
        ref.array_moved_vertex(np.array(p), n) for p in expected
    ), (x, g, n)


@settings(deadline=None, max_examples=60)
@given(st.text("abcd", max_size=12), st.text("abcd", max_size=12), st.integers(0, 12),
       st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True).map(tuple))
def test_memoized_witnesses_are_those_of_fresh_and_definitional_towers(x, g, n, depths):
    leafperm._tower_witnesses.cache_clear()
    cold = tower_witnesses(x, g, n, depths)
    warm = tower_witnesses(x, g, n, depths)
    info = leafperm._tower_witnesses.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    top = max(depths) + 1
    fresh = list(islice(ref.array_tower(x, g, n), top))
    definitional = list(islice(definitional_tower(x, g, n), top))
    assert cold == warm == tuple(ref.array_moved_vertex(fresh[m], n) for m in depths)
    assert cold == tuple(ref.depth_moved_vertex(definitional[m], n) for m in depths)


def test_deep_tower_witnesses_lie_at_the_dag_depths(fresh_kept):
    # [ba,_m dababa] first moves a vertex at depth 20 for m = 29 and at 21
    # for m = 30: one walk at level 20 reads every entry up to m = 29 at the
    # depth the section DAG gives, and finds none moved by the last.
    dag = Dag()
    x, g = dag.from_word("ba"), dag.from_word("dababa")
    tower = [x, *islice(dag.tower(x, g), 30)]
    witnesses = tower_witnesses("ba", "dababa", 20, tuple(range(31)))
    for m, (t, witness) in enumerate(zip(tower, witnesses)):
        level = dag.first_active_level(t)
        if m < 30:
            assert len(witness) == level + 1, m
            assert dag.act(t, witness) != witness, m
        else:
            assert (level, witness) == (20, None)


def test_tower_witnesses_past_the_cap_raise_on_every_call(fresh_kept):
    n = 2 * config.MAX_DEPTH + 1
    for _ in range(3):
        with pytest.raises(CapExceeded):
            tower_witnesses("abcda", "ad", n, (0, 1))
    info = leafperm._tower_witnesses.cache_info()
    assert info.currsize == 0 and info.hits == 0 and info.misses == 0
    assert leafperm._tables == []


def test_tower_witness_memo_keeps_at_most_its_bound(fresh_kept):
    memo = leafperm._tower_witnesses
    bound = memo.cache_info().maxsize
    rng = random.Random(26)
    distinct = set()
    while len(distinct) < bound + 200:
        distinct.add(make_word(rng, 12))
    for w in sorted(distinct):
        tower_witnesses(w, "a", 4, (0, 2))  # a miss, which walks the tower
        assert memo.cache_info().currsize <= bound
    info = memo.cache_info()
    assert (info.currsize, info.misses) == (bound, bound + 200)


@pytest.mark.parametrize("n", [5, 16])
@pytest.mark.parametrize(("w", "bad"), [("x", "x"), ("abcdaXbyz", "X"), ("ab?", "?")])
def test_invalid_letter_names_it_and_leaves_no_chunk(fresh_kept, w, bad, n):
    # The word is checked before any portrait is built, so no piece of it
    # reaches the tables.
    word_perm("abcdab", n)
    before = _entries()
    for call in (word_perm, word_witness):
        with pytest.raises(KeyError) as info:
            call(w, n)
        assert info.value.args == (bad,)
    assert _entries() == before


def test_levels_past_the_cap_raise_before_building(fresh_kept):
    cap = 2 * config.MAX_DEPTH
    with pytest.raises(CapExceeded):
        witness_vertex("a", cap + 1)
    with pytest.raises(CapExceeded):
        word_perm("a", 25)
    with pytest.raises(CapExceeded):
        word_witness("a", cap + 1)
    with pytest.raises(ValueError):
        word_perm("a", -1)
    assert leafperm._tables == []
    assert word_witness("d", cap) == "100"


def test_a_call_past_the_node_cap_raises_and_keeps_no_table(fresh_kept, monkeypatch):
    monkeypatch.setattr(config, "NODE_CAP", 35)
    # The cap counts the nodes that one call interns (32 for "ab", the most
    # here), not those kept before it.
    for w in ("ab", "ac", "ad", "abac", "abad", "acad", "abacad", "adacab"):
        word_witness(w, 5)
    assert sum(map(len, leafperm._tables[0].nodes)) > 35
    w = make_reduced_word(random.Random(32), 400)
    for call in (lambda: word_witness(w, 12), lambda: tower_witnesses(w, "ad", 12, (0, 3))):
        with pytest.raises(CapExceeded, match="portraits grew past 35 nodes"):
            call()
        assert leafperm._tables == []
    assert leafperm._tower_witnesses.cache_info().currsize == 0
    monkeypatch.undo()
    assert word_witness(w, 12) == ref.depth_moved_vertex(ref.letter_word_perm(w, 12), 12)


def test_kept_tables_stay_within_the_documented_bound(fresh_kept, monkeypatch):
    # A call that finds _KEPT entries or more starts from empty tables, so
    # the tables never hold more than the bound plus one call's growth.
    monkeypatch.setattr(leafperm, "_KEPT", 2000)
    rng = random.Random(20)
    samples = [reduce_word(make_word(rng, rng.randrange(100, 400))) for _ in range(200)]
    growth = 0
    for w in samples:
        leafperm._tables.clear()
        word_witness(w, 8)
        growth = max(growth, _entries())
    leafperm._tables.clear()
    sizes = []
    for w in samples:
        assert word_witness(w, 8) == ref.depth_moved_vertex(ref.letter_word_perm(w, 8), 8), w
        sizes.append(_entries())
    assert max(sizes) < 2000 + growth
    assert any(b < a for a, b in zip(sizes, sizes[1:])), "the tables were never dropped"


def test_deep_levels_leave_no_array_in_module_state(fresh_kept):
    tower_witnesses("abcda", "ad", config.MAX_DEPTH, (0, 3))
    tower_witnesses("abcda", "ad", 16, (2,))
    word_perm("abcda", 16)
    # The module keeps interned portraits in _tables, of ids and tuples,
    # and its tower memo keeps vertex strings.
    stores = sorted(
        name for name, value in vars(leafperm).items()
        if not name.startswith("__")
        and (isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"))
    )
    assert stores == ["_tables", "_tower_witnesses"]
    (tables,) = leafperm._tables
    assert len(tables.nodes) == len(tables.memo) == 2 * config.MAX_DEPTH + 1
    for nodes, memo in zip(tables.nodes, tables.memo):
        assert all(len(node) == 4 for node in nodes)
        assert all(isinstance(value, int) for value in memo.values())
    assert leafperm._tower_witnesses.cache_info().currsize == 2
    for witnesses in (tower_witnesses("abcda", "ad", config.MAX_DEPTH, (0, 3)),
                      tower_witnesses("abcda", "ad", 16, (2,))):
        assert all(w is None or isinstance(w, str) for w in witnesses), witnesses
    assert leafperm._tower_witnesses.cache_info().hits == 2


def test_fresh_kept_resets_the_kept_levels_and_witnesses(request):
    word_perm("ab", 5)
    tower_witnesses("ab", "ac", 5, (1,))
    assert _entries() > 1
    assert leafperm._tower_witnesses.cache_info().currsize > 0
    request.getfixturevalue("fresh_kept")
    assert leafperm._tables == []
    assert leafperm._tower_witnesses.cache_info().currsize == 0


@pytest.mark.parametrize("run", [1, 2])
def test_every_test_starts_with_no_tower_witnesses(run):
    # The first run leaves a key and portraits behind; conftest's
    # cold_search_caches must have dropped them before the second starts.
    assert leafperm._tower_witnesses.cache_info().currsize == 0, run
    assert leafperm._tables == [], run
    tower_witnesses("ab", "ac", 5, (1,))
    assert leafperm._tower_witnesses.cache_info().currsize == 1
