"""Arithmetic in the branching subgroup K (normal closure of t = (ab)^2).

Two complementary mechanisms:

* constructive: TWord, a formal product of signed conjugates of t, used to
  *build* elements of K (lifts, pair embeddings realizing psi(K) >= K x K)
  and to search for them in `first_qualifying`, the one seeded search loop;
* decisional: membership is read off the word's image in
  Gamma/K = D8 x Z/2, by counting letters.  As St(3) <= K, that is also the
  level-3 verdict.  The sympy level quotients, imported only when built,
  serve the `quotient` command and cross-check that the index of K's image
  plateaus from level 3 on; sympy is the optional `quotients` extra.

TWords and K membership live in the verifier kernel `certificates`; the
facts above are checked in tests/test_k_facts.py.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from typing import TypeVar

from . import config
from .certificates import T, KMembershipResult, TWord, flatten, reduced_membership_in_K
from .dag import shared
from .errors import CapExceeded, SearchExhausted
from .leafperm import word_perm
from .words import IDENTITY, invert, reduce_word

U = reduce_word("badabada")  # u = (bada)^2, psi(u) = (t, 1)
V = reduce_word("abadabad")  # v = (abad)^2, psi(v) = (1, t)

C = TypeVar("C")

T_ATOM = TWord(((IDENTITY, 1),))  # t itself


# Letter maps sending a word g to an element of St(1) whose left (resp.
# right) section equals g; checked in tests/test_k_facts.py.  Each sends
# a to an involution and b, c, d to a Klein four-group, so both are
# endomorphisms of Z/2 * V4: lift(multiply(u, w)) == multiply(lift(u),
# lift(w)) on reduced words (tests/test_branch.py).
_LIFT_FIRST = {"a": "b", "b": "ada", "c": "aba", "d": "aca"}
_LIFT_SECOND = {"a": "aba", "b": "d", "c": "b", "d": "c"}


def lift_first(g: str) -> str:
    """Some s in St(1) with left section equal to g (right unconstrained)."""
    return reduce_word("".join(_LIFT_FIRST[ch] for ch in g))


def lift_second(g: str) -> str:
    """Some s in St(1) with right section equal to g (left unconstrained)."""
    return reduce_word("".join(_LIFT_SECOND[ch] for ch in g))


@lru_cache(maxsize=32, typed=True)
def emb_pair(k1: TWord, k2: TWord) -> str:
    """An element y of K with psi(y) = (flatten(k1), flatten(k2)).

    Each factor (w, s) of k1 contributes (u^lift_first(w))^s, since
    psi(u^s) = (t^{s_left}, 1); mirrored with v for k2.  As in `flatten`,
    the pieces are joined and reduced once.  The result depends on the
    arguments alone, so it is memoized per process, like the searches:
    the replays embed only TWords that do not depend on x (see
    `engel.replay_right`).
    """
    pieces = []
    for base, lift, k in ((U, lift_first, k1), (V, lift_second, k2)):
        base_inverse = invert(base)
        for w, s in k.factors:
            x = lift(w)
            pieces.append(invert(x) + (base if s > 0 else base_inverse) + x)
    return reduce_word("".join(pieces))


@dataclass(frozen=True)
class LevelQuotient:
    """The finite group G_n induced on level n, with K-image data."""

    n: int
    group_order: int
    k_image_index: int
    base: list[int]


@lru_cache(maxsize=None)
def build_level_quotient(n: int) -> LevelQuotient:
    """Deterministic stabilizer-chain data for G_n and the image of K.

    G_n is generated by the level-n permutations of a, b, c, d; the image
    of K is the normal closure of the image of t.  sympy comes with the
    optional `quotients` extra; without it this raises CapExceeded.
    """
    if not 1 <= n <= config.QUOTIENT_MAX_LEVEL:
        raise ValueError(f"level must be in 1..{config.QUOTIENT_MAX_LEVEL}")
    try:
        from sympy.combinatorics import Permutation, PermutationGroup
    except ImportError as exc:
        message = "level quotients need sympy: pip install 'grigor[quotients]'"
        raise CapExceeded(message) from exc

    degree = 1 << n
    gens = [
        Permutation(list(word_perm(letter, n)), size=degree) for letter in "abcd"
    ]
    group = PermutationGroup(gens)
    t_image = Permutation(list(word_perm(T, n)), size=degree)
    k_image = group.normal_closure([t_image])
    g_order = group.order()
    return LevelQuotient(n, g_order, g_order // k_image.order(), group.base)


@lru_cache(maxsize=None)
def certified_plateau() -> int | None:
    """Least level n such that k_image_index is constant on n..n+2, with
    n+2 <= QUOTIENT_MAX_LEVEL.

    Returns None when no plateau certifies within the level budget.
    """
    indices: list[int] = []
    for n in range(1, config.QUOTIENT_MAX_LEVEL + 1):
        indices.append(build_level_quotient(n).k_image_index)
        run = config.PLATEAU_RUN
        if len(indices) >= run and len(set(indices[-run:])) == 1:
            return n - run + 1
    return None


def membership_in_K(g: str) -> KMembershipResult:
    """Decide membership of the word g in K; see `reduced_membership_in_K`."""
    return reduced_membership_in_K(reduce_word(g))


def random_word(rng: random.Random, length: int = config.WALK_LENGTH) -> str:
    """Reduced word from a random walk of the given length."""
    return reduce_word("".join(rng.choice("abcd") for _ in range(length)))


def random_tword(
    rng: random.Random,
    max_factors: int = 3,
    conj_len: int = config.CONJUGATOR_LENGTH,
) -> TWord:
    """A random formal product of signed conjugates of t."""
    factors = []
    for _ in range(rng.randint(1, max_factors)):
        factors.append((random_word(rng, rng.randint(0, conj_len)), rng.choice((1, -1))))
    return TWord(tuple(factors))


def first_qualifying(
    qualifies: Callable[[C], bool], candidates: Iterable[C], failure: str
) -> C:
    """The first candidate that qualifies; SearchExhausted(failure) when none does.

    The one search loop: every search states its seeded candidate stream,
    cut to its budget, and its test.
    """
    for candidate in filter(qualifies, candidates):
        return candidate
    raise SearchExhausted(failure)


@lru_cache(maxsize=32, typed=True)
def search_high_order(
    exponent: int,
    budget: int = config.SEARCH_BUDGET,
    seed: int = 0,
) -> TWord:
    """A TWord whose flattening has order >= 2**exponent.

    Deterministic given the seed: t itself is tried first, then up to
    `budget` random products of conjugates of t, a third of them (at least
    one) at each conjugator length bound CONJUGATOR_LENGTH, twice it and
    four times it.  Since `budget // 3` decides which draws are made, a
    larger budget can fail where a smaller one succeeds: for exponent 5,
    seed 0, budget 7 succeeds and budget 40 does not.

    The result depends on the arguments alone, so it is memoized per
    process; SearchExhausted and CapExceeded are raised again on every
    call, never cached.
    """
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    if budget < 0:
        raise ValueError("budget must be >= 0")

    def qualifies(k: TWord) -> bool:
        log_order = shared("decide", lambda dag: dag.order_exponent(dag.from_word(flatten(k))))
        return log_order >= exponent

    rng = random.Random(seed)
    per_bound = max(1, budget // 3)
    bounds = (config.CONJUGATOR_LENGTH << r for r in range(3) for _ in range(per_bound))
    draws = (random_tword(rng, conj_len=bound) for bound in islice(bounds, budget))
    failure = f"no element of order >= 2^{exponent} found within budget {budget}"
    return first_qualifying(qualifies, chain((T_ATOM,), draws), failure)
