import random

import pytest

from grigor import certificates, dag, engel, leafperm
from grigor.branch import emb_pair, search_high_order
from grigor.engel import search_nonengel_pair
from grigor.words import reduce_word


def make_word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("abcd") for _ in range(length))


def make_even_word(rng: random.Random, length: int) -> str:
    while True:
        w = reduce_word(make_word(rng, length))
        if not w.count("a") & 1:
            return w


def make_reduced_word(rng: random.Random, length: int) -> str:
    """A reduced word of exactly `length` letters."""
    w = ""
    while len(w) < length:
        w = reduce_word(w + make_word(rng, length))
    return w[:length]


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


# The per-process memos that no test inherits from another.
# test_search_cache.py checks that these and its short list of memos kept
# across tests name every lru_cache wrapper of grigor.
COLD_MEMOS = (
    search_high_order, search_nonengel_pair, emb_pair, engel._bracket,
    leafperm._tower_witnesses, certificates.flatten,
)


@pytest.fixture(autouse=True)
def cold_search_caches():
    """Start every test with empty search, embedding, tower-witness and
    flatten memos and no shared section-DAG tables, as in a fresh process,
    so a test that lowers a cap runs its search instead of reading a
    result memoized under the default cap."""
    for memo in COLD_MEMOS:
        memo.cache_clear()
    dag.TABLES.clear()
