"""Arithmetic in the branching subgroup K (normal closure of t = (ab)^2).

Two complementary mechanisms:

* constructive: TWord, a formal product of signed conjugates of t, used to
  *build* elements of K (lifts, pair embeddings realizing psi(K) >= K x K);
* decisional: membership is read off the level-3 permutation, since
  St(3) <= K.  The sympy level quotients, imported only when built, serve
  the `quotient` command and cross-check that the index of K's image
  plateaus from level 3 on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from . import config
from .errors import SearchExhausted
from .decide import order
from .leafperm import word_perm
from .words import (
    IDENTITY,
    a_parity,
    conjugate,
    format_word,
    invert,
    parse_word,
    reduce_word,
)

if TYPE_CHECKING:
    from sympy.combinatorics import PermutationGroup

T = "abab"  # t = (ab)^2
U = reduce_word("badabada")  # u = (bada)^2, psi(u) = (t, 1)
V = reduce_word("abadabad")  # v = (abad)^2, psi(v) = (1, t)


def k_generators() -> tuple[str, str, str]:
    """The witnesses (t, u, v) for the branching structure."""
    return T, U, V


@dataclass(frozen=True)
class TWord:
    """Formal product of signed conjugates of t: prod (t^w_i)^(s_i).

    Lies in K by construction.  Closed under multiplication (concatenate),
    inversion (reverse and flip signs), and conjugation (right-multiply
    every conjugator).
    """

    factors: tuple[tuple[str, int], ...] = ()

    def __mul__(self, other: "TWord") -> "TWord":
        return TWord(self.factors + other.factors)

    def inverse(self) -> "TWord":
        return TWord(tuple((w, -s) for w, s in reversed(self.factors)))

    def conjugated(self, w: str) -> "TWord":
        return TWord(tuple((reduce_word(c + w), s) for c, s in self.factors))

    def commutator_with(self, other: "TWord") -> "TWord":
        """[self, other] = self^-1 . self^other."""
        return self.inverse() * self.conjugated(flatten(other))

    def __str__(self) -> str:
        return format_tword(self)


T_ATOM = TWord(((IDENTITY, 1),))  # t itself


def flatten(k: TWord) -> str:
    """The reduced word of the formal product."""
    parts: list[str] = []
    for w, s in k.factors:
        parts.append(invert(w))
        parts.append(T if s > 0 else invert(T))
        parts.append(w)
    return reduce_word("".join(parts))


def parse_tword(text: str) -> TWord:
    """Parse the semicolon-separated literal, e.g. "1^+1;ab^-1"."""
    text = text.strip()
    if not text:
        return TWord()
    factors = []
    for chunk in text.split(";"):
        base, sep, exp = chunk.partition("^")
        if not sep or exp not in ("+1", "-1"):
            raise ValueError(f"invalid TWord factor {chunk!r}; expected w^+1 or w^-1")
        factors.append((parse_word(base), 1 if exp == "+1" else -1))
    return TWord(tuple(factors))


def format_tword(k: TWord) -> str:
    return ";".join(
        f"{format_word(w)}^{'+' if s > 0 else '-'}1" for w, s in k.factors
    )


# Letter maps sending a word g to an element of St(1) whose left (resp.
# right) section equals g; verified by the lift-correctness tests.
_LIFT_FIRST = {"a": "b", "b": "ada", "c": "aba", "d": "aca"}
_LIFT_SECOND = {"a": "aba", "b": "d", "c": "b", "d": "c"}


def lift_first(g: str) -> str:
    """Some s in St(1) with left section equal to g (right unconstrained)."""
    return reduce_word("".join(_LIFT_FIRST[ch] for ch in g))


def lift_second(g: str) -> str:
    """Some s in St(1) with right section equal to g (left unconstrained)."""
    return reduce_word("".join(_LIFT_SECOND[ch] for ch in g))


def emb_pair(k1: TWord, k2: TWord) -> str:
    """An element y of K with psi(y) = (flatten(k1), flatten(k2)).

    Each factor (w, s) of k1 contributes (u^lift_first(w))^s, since
    psi(u^s) = (t^{s_left}, 1); mirrored with v for k2.
    """
    parts: list[str] = []
    for w, s in k1.factors:
        piece = conjugate(U, lift_first(w))
        parts.append(piece if s > 0 else invert(piece))
    for w, s in k2.factors:
        piece = conjugate(V, lift_second(w))
        parts.append(piece if s > 0 else invert(piece))
    return reduce_word("".join(parts))


@dataclass(frozen=True)
class LevelQuotient:
    """The finite group G_n induced on level n, with K-image data."""

    n: int
    group_order: int
    k_image_index: int
    base: list[int]
    k_image: PermutationGroup


@lru_cache(maxsize=None)
def build_level_quotient(n: int) -> LevelQuotient:
    """Deterministic stabilizer-chain data for G_n and the image of K.

    G_n is generated by the level-n permutations of a, b, c, d; the image
    of K is the normal closure of the image of t.
    """
    if not 1 <= n <= config.QUOTIENT_MAX_LEVEL:
        raise ValueError(f"level must be in 1..{config.QUOTIENT_MAX_LEVEL}")
    from sympy.combinatorics import Permutation, PermutationGroup

    degree = 1 << n
    gens = [
        Permutation(list(word_perm(letter, n)), size=degree) for letter in "abcd"
    ]
    group = PermutationGroup(gens)
    t_image = Permutation(list(word_perm(T, n)), size=degree)
    k_image = group.normal_closure([t_image])
    g_order = group.order()
    return LevelQuotient(n, g_order, g_order // k_image.order(), group.base, k_image)


@lru_cache(maxsize=None)
def certified_plateau(max_level: int = config.QUOTIENT_MAX_LEVEL) -> int | None:
    """Least level n such that k_image_index is constant on n..n+2 (n+2 <= max).

    Returns None when no plateau certifies within the level budget.
    """
    indices: list[int] = []
    for n in range(1, max_level + 1):
        indices.append(build_level_quotient(n).k_image_index)
        run = config.PLATEAU_RUN
        if len(indices) >= run and len(set(indices[-run:])) == 1:
            return n - run + 1
    return None


# St(3) <= K (de la Harpe, *Topics in Geometric Group Theory*, ch. VIII), so
# g is in K exactly when its level-3 permutation lies in the image of K.
K_LEVEL = 3


@lru_cache(maxsize=None)
def k_image_table() -> frozenset[tuple[int, ...]]:
    """The level-K_LEVEL permutations of K: the closure of those of t, u, v."""
    gens = [word_perm(w, K_LEVEL) for w in k_generators()]
    image = {tuple(range(1 << K_LEVEL))}
    while True:
        grown = image | {tuple(gen[list(p)].tolist()) for p in image for gen in gens}
        if grown == image:
            return frozenset(image)
        image = grown


@dataclass(frozen=True)
class KMembershipResult:
    """Inside/Outside with the level that decided it."""

    verdict: str  # "inside" | "outside"
    level: int

    @property
    def is_inside(self) -> bool:
        return self.verdict == "inside"


def membership_in_K(g: str) -> KMembershipResult:
    """Decide membership of g in K from its level-K_LEVEL permutation.

    Odd `a`-parity words are Outside at level 1: t fixes level 1 and level
    stabilizers are normal, so K <= St(1).
    """
    g = reduce_word(g)
    if a_parity(g):
        return KMembershipResult("outside", 1)
    inside = tuple(word_perm(g, K_LEVEL).tolist()) in k_image_table()
    return KMembershipResult("inside" if inside else "outside", K_LEVEL)


def random_tword(
    rng: random.Random,
    max_factors: int = 3,
    conj_len: int = config.CONJUGATOR_LENGTH,
) -> TWord:
    """A random formal product of signed conjugates of t."""
    factors = []
    for _ in range(rng.randint(1, max_factors)):
        length = rng.randint(0, conj_len)
        w = reduce_word("".join(rng.choice("abcd") for _ in range(length)))
        factors.append((w, rng.choice((1, -1))))
    return TWord(tuple(factors))


@lru_cache(maxsize=32, typed=True)
def search_high_order(
    target_order: int,
    budget: int = config.SEARCH_BUDGET,
    seed: int = 0,
    exact: bool = False,
) -> TWord:
    """A TWord whose flattening has order >= target_order (a power of 2).

    Deterministic given the seed: t itself is tried first, then random
    products of conjugates of t.  The budget is split over three rounds
    with the conjugator length bound doubling between rounds.  Since all
    orders are powers of two, order >= 2**e iff the order is not exact at
    cap e-1.  With exact=True the order must equal target_order.

    The result depends on the arguments alone, so it is memoized per
    process; SearchExhausted and CapExceeded are raised again on every
    call, never cached.
    """
    if target_order < 1 or target_order & (target_order - 1):
        raise ValueError("target_order must be a power of two")
    exponent = target_order.bit_length() - 1

    def qualifies(k: TWord) -> TWord | None:
        if order(flatten(k), max(exponent - 1, 0)).is_exact:
            return None
        if exponent == 0 or not exact:
            return k
        # Square down to the exact order: in a cyclic 2-group, squaring
        # halves the order.
        while not order(flatten(k), exponent).is_exact:
            k = k * k
        return k

    found = qualifies(T_ATOM)
    if found is not None:
        return found
    rng = random.Random(seed)
    rounds = 3
    per_round = max(1, budget // rounds)
    length = config.CONJUGATOR_LENGTH
    spent = 0
    for _ in range(rounds):
        for _ in range(per_round):
            if spent >= budget:
                break
            spent += 1
            found = qualifies(random_tword(rng, conj_len=length))
            if found is not None:
                return found
        length *= 2
    raise SearchExhausted(
        f"no element of order >= {target_order} found within budget {budget}"
    )
