"""Iterated commutators, Engel probes, the two tower lemmas, and proof replays.

The left-normed tower is [x,_1 g] = x^-1 g^-1 x g and
[x,_n g] = [[x,_{n-1} g], g].  Probes, replays, lemma checks and their
verifiers ask two questions of a tower entry -- is it the identity, and
which vertex does it move -- and answer both on section-DAG ids
(`Dag.tower`, `Dag.iterated_commutator`), whose elements do not double
in size with each step; `exact_witness` is the one witness routine.  The
reduced-word `tower` serves probe transcripts only: they record word
lengths, and its length cap ends a probe visibly.  `probe` is the one
probe walk, which `left_engel_probe` issues from and the probe verifiers
check with.  The lemma checks decide both sides of their identities on
one fresh Dag.  Words stay the input and output.

The two replay operations produce self-contained certificates: a bounded
refutation of "x is left-N-Engel" built from a high-order element of K,
and a bounded refutation of "x is right Engel with sink <= N+1" built
from a non-Engel pair in K, cross-checked against the tower identity of
`lemma2_check` coordinate by coordinate.  Neither element depends on x,
since psi(K) contains K x K: `search_high_order` and `search_nonengel_pair`
are memoized per process, so a process that certifies many elements runs
each search once; a failed search is not cached and runs again.  For the
same reason the replays decide their towers on the long-lived "decide"
table of `dag.shared`, where the towers of (h, y1) and the nodes of k
stay interned from one call to the next.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count, islice

from . import config
from .branch import (
    TWord,
    emb_pair,
    flatten,
    random_tword,
    search_high_order,
)
from .dag import A, Dag, shared
from .decide import is_trivial, order
from .errors import (
    CapExceeded,
    PreconditionViolated,
    SearchExhausted,
    WordLengthCapExceeded,
)
from .leafperm import moved_vertex, tower_perm
from .tree import decompose, first_active_level
from .words import IDENTITY, a_parity, commutator, invert, multiply, reduce_word


def tower(x: str, g: str) -> Iterator[str]:
    """[x,_1 g], [x,_2 g], ... each reduced; WordLengthCapExceeded past the cap."""
    for n in count(1):
        x = commutator(x, g)
        if len(x) > config.WORD_LENGTH_CAP:
            raise WordLengthCapExceeded(
                f"tower at depth {n} grew past {config.WORD_LENGTH_CAP} letters"
            )
        yield x


def iterated_commutator(x: str, g: str, n: int) -> str:
    """The left-normed tower [x,_n g], reduced after every step."""
    if n < 1:
        raise ValueError("tower depth must be >= 1")
    return next(islice(tower(x, g), n - 1, None))


def exact_witness(dag: Dag, t: int, x: str, g: str, m: int) -> str:
    """The minimal-depth, lexicographically least vertex moved by t = [x,_m g].

    t is held in dag, and m = 0 means t is the plain word x.  The depth
    comes from t's sections; leafperm rebuilds the level permutation of
    [x,_m g] from the words x and g alone, and the two must agree.  The
    oracle builds 2**depth-entry arrays, so depths past 2 * MAX_DEPTH raise
    CapExceeded.
    """
    level = dag.first_active_level(t)
    if level is None:
        raise PreconditionViolated("a trivial element moves no vertex")
    if level + 1 > 2 * config.MAX_DEPTH:
        raise CapExceeded(f"first moved vertex lies below depth {2 * config.MAX_DEPTH}")
    witness = moved_vertex(tower_perm(x, g, m, level + 1), level + 1)
    if witness is None or len(witness) != level + 1:
        raise AssertionError(f"leaf permutations disagree with first active level {level}")
    return witness


def probe(x: str, g: str, depth: int) -> tuple[Dag, list[int], int, int]:
    """Walk [x,_m g] for m <= depth on a fresh Dag, stopping at the first
    trivial entry: (dag, reduced word lengths, last m, id of the last entry).

    The word comes first in the zip, so its length cap raises before the
    DAG takes the step.
    """
    dag = Dag()
    lengths: list[int] = []
    towers = zip(tower(x, g), dag.tower(dag.from_word(x), dag.from_word(g)))
    for m, (w, t) in enumerate(islice(towers, depth), 1):
        lengths.append(len(w))
        if t == 0:  # id 0 is the identity
            break
    return dag, lengths, m, t


def right_towers(
    dag: Dag, x_active: str, y: str, h: TWord, y1: TWord
) -> Iterator[tuple[int, int]]:
    """([x_active,_{m+1} y], [h,_{m+1} y1]^y1) for m = 1, 2, ...

    When psi(y) = (y1, [y1, h]^(g1^-1)) and x_active = a.g, the tower
    identity says the second is the first coordinate of the first.
    """
    fy1 = dag.from_word(flatten(y1))
    towers = zip(
        dag.tower(dag.from_word(x_active), dag.from_word(y)),
        dag.tower(dag.from_word(flatten(h)), fy1),
    )
    for t, first in islice(towers, 1, None):
        yield t, dag.conjugate(first, fy1)


@dataclass(frozen=True)
class EngelSink:
    """Least n with [x,_n g] = 1, plus the reduced tower lengths on the way."""

    g: str
    x: str
    n: int
    transcript: tuple[int, ...]


@dataclass(frozen=True)
class NoSinkUpTo:
    """All towers [x,_m g] for m <= bound are nontrivial; witness moves the last."""

    g: str
    x: str
    bound: int
    transcript: tuple[int, ...]
    witness: str


def left_engel_probe(g: str, x: str, bound: int) -> EngelSink | NoSinkUpTo:
    """Search the tower [x,_n g] for its first trivial entry, n <= bound.

    The word tower gives the transcript lengths and the length cap; its
    section-DAG twin decides triviality and the witness.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    g = reduce_word(g)
    rx = reduce_word(x)
    dag, transcript, n, t = probe(rx, g, bound)
    if t == 0:  # id 0 is the identity
        return EngelSink(g, x, n, tuple(transcript))
    return NoSinkUpTo(g, x, bound, tuple(transcript), exact_witness(dag, t, rx, g, bound))


def lemma1_check(k: TWord, g: str, m: int) -> bool:
    """Verify the tower formula for y with psi(y) = (k, 1) against x = a.g.

    Requires g in St(1) and (a.g)^2 = 1 (which forces g2 = g1^-1).  Both
    sides are decided independently on one fresh Dag: the left by running
    the tower and reading its sections, the right from the closed form
    (k^((-1)^m 2^(m-1)), (k^g2)^((-1)^(m-1) 2^(m-1))) by m - 1 squarings.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    g = reduce_word(g)
    if a_parity(g):
        raise PreconditionViolated("g must lie in St(1)")
    dag = Dag()
    fg = dag.from_word(g)
    x = dag.mul(A, fg)
    if dag.mul(x, x) != 0:  # id 0 is the identity
        raise PreconditionViolated("a.g must be an involution")
    y = dag.from_word(emb_pair(k, TWord()))
    active, left, right = dag.nodes[dag.iterated_commutator(y, x, m)]
    if active:
        return False
    power = dag.from_word(flatten(k))
    for _ in range(m - 1):  # k^(2^(m-1)); squaring stops at the identity
        if power == 0:
            break
        power = dag.mul(power, power)
    conjugated = dag.conjugate(power, dag.nodes[fg][2])  # (k^g2)^(2^(m-1))
    if m % 2:
        return left == dag.inv(power) and right == conjugated
    return left == power and right == dag.inv(conjugated)


def lemma2_check(x: str, y: str, m: int) -> bool:
    """Verify the section identity for towers [x,_{m+1} y] with y in St(1).

    Requires x = a.g with g in St(1), i.e. odd `a`-parity.  Writing
    psi(g) = (g1, g2) and psi(y) = (y1, y2), both coordinates of
    psi([x,_{m+1} y]) are compared against
    ([(y2^-1)^g1,_m y1]^y1, [(y1^-1)^g2,_m y2]^y2), each side decided
    independently on one fresh Dag.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    x = reduce_word(x)
    y = reduce_word(y)
    if not a_parity(x):
        raise PreconditionViolated("x must have odd a-parity")
    if a_parity(y):
        raise PreconditionViolated("y must lie in St(1)")
    dag = Dag()
    fx, fy = dag.from_word(x), dag.from_word(y)
    _, g1, g2 = dag.nodes[dag.mul(A, fx)]
    _, y1, y2 = dag.nodes[fy]
    active, left, right = dag.nodes[dag.iterated_commutator(fx, fy, m + 1)]
    if active:
        return False

    def side(base: int, other: int, g_section: int) -> int:
        start = dag.conjugate(dag.inv(other), g_section)
        return dag.conjugate(dag.iterated_commutator(start, base, m), base)

    return left == side(y1, y2, g1) and right == side(y2, y1, g2)


@dataclass(frozen=True)
class BoundedLeftRefutation:
    """Transcript refuting "x is left-N-Engel".

    The chain records the descent from x to an odd-parity section
    x_active; k has order > 2^(N-1); y embeds (flatten(k), 1); the
    witness vertex is moved by [y,_N x_active].
    """

    x: str
    chain: tuple[tuple[int, str], ...]  # (child bit, section) per descent step
    x_active: str
    k: TWord
    bound: int
    y: str
    witness: str


@dataclass(frozen=True)
class RightRefutation:
    """Transcript refuting "x is right Engel with sink <= N+1".

    y embeds the non-Engel pair data (y1, y2) with y2 = [y1, h]^(g1^-1);
    for each m <= N the vertex witnesses[m-1] is moved by
    [x_active,_{m+1} y], and the first coordinate of its decomposition
    equals [h,_{m+1} y1]^y1 (the tower identity cross-check).
    """

    x: str
    chain: tuple[tuple[int, str], ...]
    x_active: str
    h: TWord
    y1: TWord
    y2: TWord
    y: str
    bound: int
    witnesses: tuple[str, ...]


def section_chain(x: str) -> tuple[tuple[tuple[int, str], ...], str]:
    """Descend through first-level sections until an odd-parity word.

    Returns the recorded (child bit, section) steps and the final
    representative.  Each step picks the child whose subtree is active
    shallowest (ties toward 0), mirroring the reduction of an element of
    St(n) \\ St(n+1) to a section outside St(1).
    """
    x = reduce_word(x)
    chain: list[tuple[int, str]] = []
    while not a_parity(x):
        d = decompose(x)
        fl = first_active_level(d.left)
        fr = first_active_level(d.right)
        if fl is None and fr is None:
            raise PreconditionViolated("x must be nontrivial")
        if fr is None or (fl is not None and fl <= fr):
            bit, x = 0, d.left
        else:
            bit, x = 1, d.right
        chain.append((bit, x))
    return tuple(chain), x


def replay_bounded_left(
    x: str,
    bound: int,
    budget: int = config.SEARCH_BUDGET,
    seed: int = 0,
) -> BoundedLeftRefutation:
    """Produce a certificate that the involution x is not left-`bound`-Engel.

    Section-reduces x to an active representative, takes k in K of order
    > 2^(bound-1), embeds y with psi(y) = (flatten(k), 1), and records a
    vertex moved by [y,_bound x_active].
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    x = reduce_word(x)
    if not is_trivial(x + x):
        raise PreconditionViolated(
            "x must be an involution; non-involutions are handled empirically"
        )
    chain, active = section_chain(x)
    k = search_high_order(1 << bound, budget=budget, seed=seed)
    y = emb_pair(k, TWord())

    def witness(dag: Dag) -> str:
        t = dag.iterated_commutator(dag.from_word(y), dag.from_word(active), bound)
        return exact_witness(dag, t, y, active, bound)

    return BoundedLeftRefutation(x, chain, active, k, bound, y, shared("decide", witness))


@lru_cache(maxsize=32, typed=True)
def search_nonengel_pair(
    bound: int,
    budget: int = config.SEARCH_BUDGET,
    seed: int = 0,
) -> tuple[TWord, TWord]:
    """A pair (h, y1) of TWords with [flatten(h),_n flatten(y1)] != 1, n <= bound.

    Bounded evidence for the fact that K is not an Engel group;
    deterministic given the seed, and memoized per process on the
    arguments.  SearchExhausted and CapExceeded are raised again on every
    call, never cached.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    rng = random.Random(seed)

    def qualifies(h: TWord, y1: TWord) -> bool:
        dag = Dag()
        towers = dag.tower(dag.from_word(flatten(h)), dag.from_word(flatten(y1)))
        return 0 not in islice(towers, bound)  # id 0 is the identity

    # Simple canonical candidates first, then random ones.
    simple = [
        (TWord(((IDENTITY, 1),)), TWord((("b", 1),))),
        (TWord(((IDENTITY, 1),)), TWord((("ab", 1),))),
    ]
    for h, y1 in simple:
        if qualifies(h, y1):
            return h, y1
    for _ in range(budget):
        h = random_tword(rng, max_factors=2)
        y1 = random_tword(rng, max_factors=2)
        if qualifies(h, y1):
            return h, y1
    raise SearchExhausted(f"no non-Engel pair up to depth {bound} within {budget}")


def replay_right(
    x: str,
    bound: int,
    budget: int = config.SEARCH_BUDGET,
    seed: int = 0,
) -> RightRefutation:
    """Produce a certificate that x is not right Engel with sink <= bound + 1.

    Section-reduces x to an active representative a.g, finds a non-Engel
    pair (h, y1) in K, sets y2 = [y1, h]^(g1^-1), embeds y with
    psi(y) = (y1, y2), and verifies for every m <= bound that
    [x_active,_{m+1} y] is nontrivial both directly (witness vertex) and
    through the tower identity (first coordinate = [h,_{m+1} y1]^y1).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    x = reduce_word(x)
    chain, active = section_chain(x)
    g = multiply("a", active)
    g1 = decompose(g).left
    h, y1 = search_nonengel_pair(bound + 1, budget=budget, seed=seed)
    y2 = y1.commutator_with(h).conjugated(invert(g1))
    y = emb_pair(y1, y2)

    def witnesses(dag: Dag) -> tuple[str, ...]:
        found: list[str] = []
        for m, (t, first) in enumerate(islice(right_towers(dag, active, y, h, y1), bound), 2):
            t_active, t_left, _ = dag.nodes[t]
            if t_active:
                raise AssertionError("tower left St(1); identity preconditions broken")
            if t_left != first:
                raise AssertionError("tower identity cross-check failed")
            found.append(exact_witness(dag, t, active, y, m))
        return tuple(found)

    return RightRefutation(
        x, chain, active, h, y1, y2, y, bound, shared("decide", witnesses)
    )


def random_word(rng: random.Random, length: int = config.WALK_LENGTH) -> str:
    """Reduced word from a random walk of the given length."""
    return reduce_word("".join(rng.choice("abcd") for _ in range(length)))


def random_involution(rng: random.Random, length: int = config.WALK_LENGTH) -> str:
    """A random element of order exactly 2, by rejection."""
    for _ in range(10_000):
        w = random_word(rng, length)
        if order(w).exponent == 1:
            return w
    raise SearchExhausted("no involution found by rejection sampling")


@dataclass(frozen=True)
class SurveyReport:
    """Outcome counts of left-Engel probes against random involutions."""

    samples: int
    opponents: int
    bound: int
    seed: int
    sinks: int = 0
    no_sink: int = 0
    overflow: int = 0
    sink_depths: dict[int, int] = field(default_factory=dict)
    flagged: tuple[tuple[str, str], ...] = ()  # (g, x) pairs that did not sink


def involution_survey(
    samples: int,
    bound: int,
    seed: int = 0,
    opponents: int = 1,
) -> SurveyReport:
    """Probe random (involution g, random x) pairs for Engel sinks.

    Empirical evidence only: probes that fail to sink within the bound
    (or overflow the length cap) are reported and flagged, never treated
    as counterexamples.
    """
    rng = random.Random(seed)
    sinks = no_sink = overflow = 0
    depths: dict[int, int] = {}
    flagged: list[tuple[str, str]] = []
    for _ in range(samples):
        g = random_involution(rng)
        for _ in range(opponents):
            x = random_word(rng)
            try:
                outcome = left_engel_probe(g, x, bound)
            except WordLengthCapExceeded:
                overflow += 1
                flagged.append((g, x))
                continue
            if isinstance(outcome, EngelSink):
                sinks += 1
                depths[outcome.n] = depths.get(outcome.n, 0) + 1
            else:
                no_sink += 1
                flagged.append((g, x))
    return SurveyReport(
        samples, opponents, bound, seed, sinks, no_sink, overflow,
        depths, tuple(flagged),
    )


def find_nonsink_opponent(
    g: str,
    bound: int,
    budget: int = 200,
    seed: int = 0,
) -> tuple[str, NoSinkUpTo]:
    """Search for an x whose tower against g survives to the given bound.

    Candidates are embeddings of random K-elements and random words; used
    to exhibit witnesses against non-involutions being left Engel.
    """
    rng = random.Random(seed)
    for i in range(budget):
        if i % 2 == 0:
            x = emb_pair(random_tword(rng, max_factors=2), TWord())
        else:
            x = random_word(rng)
        try:
            outcome = left_engel_probe(g, x, bound)
        except WordLengthCapExceeded:
            continue
        if isinstance(outcome, NoSinkUpTo):
            return x, outcome
    raise SearchExhausted(
        f"no opponent surviving {bound} tower steps found within {budget}"
    )
