"""leafperm's chunked word_perm, closed-form moved_vertex, commutator
tower and memoized tower witnesses against the letter-by-letter,
depth-by-depth and definitional references; its level cap; and the bounds
of what it keeps."""

import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grigor import config, leafperm
from grigor.decide import witness_vertex
from grigor.errors import CapExceeded
from grigor.leafperm import (
    generator_perms, moved_vertex, tower_perms, tower_witnesses, word_perm,
)
from grigor.words import reduce_word

import word_reference as ref
from conftest import make_word

raw_words = st.text("abcd", max_size=120)
words = raw_words | raw_words.map(reduce_word) | st.just("")
levels = st.integers(0, 14)


@pytest.fixture
def fresh_kept(monkeypatch):
    """No kept level and no tower witness, as in a fresh process."""
    monkeypatch.setattr(leafperm, "_kept", {})
    leafperm._tower_witnesses.cache_clear()


def definitional_tower(x, g, n):
    """x, [x,_1 g], ... at level n, each step p^-1 q^-1 p q with argsort inverses."""
    p, q = ref.letter_word_perm(x, n), ref.letter_word_perm(g, n)
    q_inv = np.argsort(q)
    while True:
        yield p
        p = q[p[q_inv[np.argsort(p)]]]


@settings(deadline=None)
@given(words, levels)
def test_word_perm_matches_letter_by_letter(w, n):
    assert np.array_equal(word_perm(w, n), ref.letter_word_perm(w, n)), (w, n)


@settings(deadline=None)
@given(words, levels)
def test_moved_vertex_matches_depth_by_depth(w, n):
    perm = ref.letter_word_perm(w, n)
    assert moved_vertex(perm, n) == ref.depth_moved_vertex(perm, n), (w, n)


@pytest.mark.parametrize("w", ["", "aa", "bcd", "adadadad"])
@pytest.mark.parametrize("n", [0, 1, 7, 14])
def test_identity_moves_no_vertex(w, n):
    perm = word_perm(w, n)
    assert np.array_equal(perm, np.arange(1 << n))
    assert moved_vertex(perm, n) is None
    assert ref.depth_moved_vertex(perm, n) is None


@settings(deadline=None, max_examples=50)
@given(st.text("abcd", min_size=1, max_size=12), st.text("abcd", min_size=1, max_size=12),
       st.integers(0, 10))
def test_tower_entries_agree_with_depth_by_depth(x, g, n):
    for perm in islice(tower_perms(x, g, n), 5):
        assert moved_vertex(perm, n) == ref.depth_moved_vertex(perm, n), (x, g, n)


@settings(deadline=None, max_examples=50)
@given(st.text("abcd", max_size=12), st.text("abcd", max_size=12), st.integers(0, 10))
def test_warm_and_cold_towers_are_the_definitional_commutators(x, g, n):
    cold = list(islice(tower_perms(x, g, n), 5))
    warm = list(islice(tower_perms(x, g, n), 5))
    expected = islice(definitional_tower(x, g, n), 5)
    for m, (c, w, e) in enumerate(zip(cold, warm, expected)):
        assert np.array_equal(c, e) and np.array_equal(w, e), (x, g, n, m)


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
    fresh = list(islice(tower_perms(x, g, n), top))
    definitional = list(islice(definitional_tower(x, g, n), top))
    assert cold == warm == tuple(moved_vertex(fresh[m], n) for m in depths), (x, g, n, depths)
    assert cold == tuple(moved_vertex(definitional[m], n) for m in depths), (x, g, n, depths)


def test_tower_witnesses_past_the_cap_raise_on_every_call(fresh_kept):
    n = 2 * config.MAX_DEPTH + 1
    for _ in range(3):
        with pytest.raises(CapExceeded):
            tower_witnesses("abcda", "ad", n, (0, 1))
    info = leafperm._tower_witnesses.cache_info()
    assert info.currsize == 0 and info.hits == 0 and info.misses == 0
    assert leafperm._kept == {}


def test_tower_witness_memo_keeps_at_most_its_bound(fresh_kept):
    memo = leafperm._tower_witnesses
    bound = memo.cache_info().maxsize
    rng = random.Random(26)
    distinct = set()
    while len(distinct) < bound + 200:
        distinct.add(make_word(rng, 12))
    for w in sorted(distinct):
        tower_witnesses(w, "a", 4, (0, 2))  # a miss, which walks tower_perms
        assert memo.cache_info().currsize <= bound
    info = memo.cache_info()
    assert (info.currsize, info.misses) == (bound, bound + 200)


@pytest.mark.parametrize("n", [5, 16])
@pytest.mark.parametrize(("w", "bad"), [("x", "x"), ("abcdaXbyz", "X"), ("ab?", "?")])
def test_invalid_letter_names_it_and_leaves_no_chunk(fresh_kept, w, bad, n):
    with pytest.raises(KeyError) as info:
        word_perm(w, n)
    assert info.value.args == (bad,)
    for perms in leafperm._kept.values():
        assert all(set(key) <= set("abcd") for key in perms), sorted(perms)


def test_levels_past_the_cap_raise_before_building(fresh_kept):
    cap = 2 * config.MAX_DEPTH
    with pytest.raises(CapExceeded):
        witness_vertex("a", cap + 1)
    with pytest.raises(CapExceeded):
        word_perm("a", 25)
    with pytest.raises(CapExceeded):
        generator_perms(cap + 1)
    # Building level 25 would have kept levels 0-12 on the way.
    assert leafperm._kept == {}


def test_deep_levels_leave_no_array_in_module_state(fresh_kept):
    tower_witnesses("abcda", "ad", config.MAX_DEPTH, (0, 3))
    tower_witnesses("abcda", "ad", 16, (2,))
    moved_vertex(next(islice(tower_perms("abcda", "ad", 16), 2, None)), 16)
    # The module keeps arrays in _kept alone, of levels up to MAX_DEPTH,
    # and its tower memo keeps vertex strings.
    stores = sorted(
        name for name, value in vars(leafperm).items()
        if not name.startswith("__")
        and (isinstance(value, (dict, list, set, np.ndarray)) or hasattr(value, "cache_info"))
    )
    assert stores == ["_kept", "_tower_witnesses"]
    assert max(leafperm._kept) == config.MAX_DEPTH
    for n, perms in leafperm._kept.items():
        assert all(len(p) == 1 << n for p in perms.values()), n
    assert leafperm._tower_witnesses.cache_info().currsize == 2
    for witnesses in (tower_witnesses("abcda", "ad", config.MAX_DEPTH, (0, 3)),
                      tower_witnesses("abcda", "ad", 16, (2,))):
        assert all(w is None or isinstance(w, str) for w in witnesses), witnesses
    assert leafperm._tower_witnesses.cache_info().hits == 2


def test_fresh_kept_resets_the_kept_levels_and_witnesses(request):
    word_perm("", 5)
    tower_witnesses("ab", "ac", 5, (1,))
    assert 5 in leafperm._kept
    assert leafperm._tower_witnesses.cache_info().currsize > 0
    request.getfixturevalue("fresh_kept")
    assert leafperm._kept == {}
    assert leafperm._tower_witnesses.cache_info().currsize == 0


@pytest.mark.parametrize("run", [1, 2])
def test_every_test_starts_with_no_tower_witnesses(run):
    # The first run leaves a key behind; conftest's cold_search_caches must
    # have dropped it before the second starts.
    assert leafperm._tower_witnesses.cache_info().currsize == 0, run
    tower_witnesses("ab", "ac", 5, (1,))
    assert leafperm._tower_witnesses.cache_info().currsize == 1


def test_chunk_keys_stay_within_the_documented_bound(fresh_kept):
    # Reduced words alternate a with b, c, d and so meet at most 40 chunks;
    # raw words meet at most the 340 strings of 1 to 4 letters.
    rng = random.Random(20)
    n = 6
    raws = [make_word(rng, rng.randrange(1, 60)) for _ in range(400)]
    for w in raws:
        word_perm(reduce_word(w), n)
    assert len(generator_perms(n)) <= 40
    for w in raws:
        word_perm(w, n)
    keys = generator_perms(n)
    assert 40 < len(keys) <= 340
    assert all(len(key) <= leafperm._CHUNK for key in keys)
