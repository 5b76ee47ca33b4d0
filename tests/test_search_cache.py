"""The x-independent searches are memoized per process, and only successes.

`search_high_order` and `search_nonengel_pair` do not depend on the element
being certified, so the replays find them once per process.  These tests
hold the memoized results to fresh runs of the undecorated searches and pin
that a run of replays costs one search, not one per element.
"""

import pytest

from grigor.branch import search_high_order
from grigor.engel import replay_bounded_left, replay_right, search_nonengel_pair
from grigor.errors import SearchExhausted


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_high_order_cached_equals_fresh(seed):
    for exponent in range(7):
        cached = search_high_order(exponent, seed=seed)
        assert search_high_order(exponent, seed=seed) is cached
        assert cached == search_high_order.__wrapped__(exponent, seed=seed)


def test_nonengel_pair_cached_equals_fresh():
    for bound in range(1, 13):
        cached = search_nonengel_pair(bound)
        assert search_nonengel_pair(bound) is cached
        assert cached == search_nonengel_pair.__wrapped__(bound)


def test_left_replays_share_one_search():
    before = search_high_order.cache_info().misses
    for x in ["a", "d", "b", "aca"]:
        replay_bounded_left(x, 6)
    assert search_high_order.cache_info().misses == before + 1


def test_right_replays_share_one_search():
    before = search_nonengel_pair.cache_info().misses
    for x in ["a", "d", "ad"]:
        replay_right(x, 8)
    assert search_nonengel_pair.cache_info().misses == before + 1


def test_exhausted_search_is_not_cached():
    for _ in range(2):
        with pytest.raises(SearchExhausted):
            search_high_order(11, budget=3, seed=1)
    assert search_high_order.cache_info().currsize == 0
