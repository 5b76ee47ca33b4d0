"""The x-independent searches are memoized per process, and only successes.

`search_high_order` and `search_nonengel_pair` do not depend on the element
being certified, so the replays find them once per process.  These tests
hold the memoized results to fresh runs of the undecorated searches and pin
that a run of replays costs one search, not one per element, and that
every memo of grigor is emptied before each test or named as kept.  The
emptied memos are bounded: each has a finite maxsize, and the flatten
memo, which the verifier fills from certificate bytes, keeps no more.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import grigor
from conftest import COLD_MEMOS

from grigor.branch import search_high_order
from grigor.certificates import TWord, flatten
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


# Memos that tests may share: a level quotient, the plateau and the CLI
# parser depend on no cap and on no earlier call.
KEPT_MEMOS = {"branch.build_level_quotient", "branch.certified_plateau", "cli.build_parser"}


def _runtime_memos():
    """Every lru_cache wrapper defined in a grigor module, at module level
    or on a class of it, by its name within the package."""
    found = {}
    for info in pkgutil.iter_modules(grigor.__path__):
        module = importlib.import_module(f"grigor.{info.name}")
        owners = [module] + [
            cls for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
        ]
        for owner in owners:
            for obj in vars(owner).values():
                obj = getattr(obj, "__func__", obj)  # a staticmethod or classmethod
                if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module.__name__:
                    found[f"{info.name}.{obj.__qualname__}"] = obj
    return found


def _decorated_in_source():
    """(module, function) of every def decorated with lru_cache or cache."""
    decorated = set()
    for path in Path(grigor.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    dec = dec.func if isinstance(dec, ast.Call) else dec
                    name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", "")
                    if name in ("lru_cache", "cache"):
                        decorated.add((path.stem, node.name))
    return decorated


def test_every_memo_is_cleared_before_each_test_or_named_as_kept():
    memos = _runtime_memos()
    # A memo defined inside a function would escape the runtime scan.
    seen = {(name.split(".")[0], name.rsplit(".", 1)[-1]) for name in memos}
    assert _decorated_in_source() <= seen, sorted(_decorated_in_source() - seen)
    cold = {name for name, memo in memos.items() if any(memo is m for m in COLD_MEMOS)}
    assert len(cold) == len(COLD_MEMOS)
    assert set(memos) - cold == KEPT_MEMOS, "a new memo leaks between tests"
    assert all(memo.cache_info().currsize == 0 for memo in COLD_MEMOS)


def test_every_cold_memo_is_bounded():
    assert all(memo.cache_info().maxsize is not None for memo in COLD_MEMOS)


def test_flatten_memo_keeps_at_most_its_bound():
    bound = flatten.cache_info().maxsize
    # Distinct reduced conjugators, spelled in "ab" and "ac" by binary digits.
    conjugators = (
        format(i, "b").replace("0", "x").replace("1", "ac").replace("x", "ab")
        for i in range(bound + 200)
    )
    for w in conjugators:
        k = TWord(((w, 1),))
        assert flatten(k) == flatten.__wrapped__(k)
    info = flatten.cache_info()
    assert info.misses == bound + 200
    assert info.currsize == bound
