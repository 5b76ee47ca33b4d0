"""Iterated commutators, Engel probes, the two tower lemmas, and proof replays.

The left-normed tower is [x,_1 g] = x^-1 g^-1 x g and
[x,_n g] = [[x,_{n-1} g], g].  Probes, replays, lemma checks and their
verifiers ask two questions of a tower entry -- is it the identity, and
which vertex does it move -- and answer both on section-DAG ids, whose
elements do not double in size with each step.  `Dag.tower` is the one
walk of a DAG tower, and each table memoizes the entries it has walked
per (x, g), so a replay or probe on a long-lived table reads a recurring
tower back instead of stepping it.  For an involution g, as in every
`survey` probe and in the bounded-left tower [y,_N x_active], it squares:
[x,_{n+1} g] = [x,_n g]^-2, so the tower sinks at depth 1 + e([x, g]),
where 2^e is the order of [x, g].  A probe of an involution reads its
sink depth off that order and walks no DAG tower to find it; it builds
the entry at its bound only when the tower has not sunk by then.
`lemma1_check`, whose x is an involution, builds its tower from the
definition instead, so that it still checks a closed form against the
commutators.  `exact_witness` is the one witness routine: it takes any
entries of one tower and cross-checks them all in one leafperm pass, at
the level the deepest of them needs; leafperm memoizes that pass's
moved vertices per (x, g, level, depths), and the check runs on every
call.  The records issued here, the word tower (for probe transcripts
only) and `probe`, the one probe walk, live in the verifier kernel
`certificates`, which imports nothing from this module.
`left_engel_probe` issues on the small long-lived "probe" table of
`dag.shared`, and the probe verifiers check on "probe-verify": probe
towers of different words share their near-nucleus elements.  The lemma
checks decide both sides of their identities on one fresh Dag.  Words
stay the input and output.

The two replay operations produce self-contained certificates: a bounded
refutation of "x is left-N-Engel" built from a high-order element of K,
and a bounded refutation of "x is right Engel with sink <= N+1" built
from a non-Engel pair (h, y1) in K, embedded as y with
psi(y) = (y1, [y1, h]^(g1^-1)).  Each replay walks one DAG tower and
hands its entries to `exact_witness`.  Lemma 2 is stated once, in
`certificates.right_towers`: it pairs each [x,_{m+1} y] with the sections
the lemma predicts from those of a.x and y, here [h,_{m+1} y1]^y1 at
vertex 0.  The right verifier checks that pairing on every certificate,
and `lemma2_check` reads both coordinates from it; the right replay
does not walk it.  Neither element depends on x, since psi(K) contains
K x K (checked in tests/test_k_facts.py): `search_high_order` and
`search_nonengel_pair` find them through `branch.first_qualifying`, the
one search loop, and are memoized per process, so a process that
certifies many elements runs each search once; a failed search is not
cached and runs again.  Their embeddings are memoized too, through
`branch.emb_pair`: the left y = emb_pair(k, 1) does not depend on x, and
the right y is emb_pair(y1, 1) times emb_pair(1, [y1, h]) conjugated by
lift_second(g1^-1), with [y1, h] built once per (h, y1), so only that
conjugation and the junction product are done per x.  For the same
reason the replays decide their towers on the long-lived "decide" table
of `dag.shared`, where the towers of (h, y1) and the nodes of k stay
interned from one call to the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from . import config
from .branch import (
    emb_pair, first_qualifying, lift_second, random_tword, random_word, search_high_order,
)
from .certificates import (
    BoundedLeftRefutation, EngelSink, NoSinkUpTo, RightRefutation, TWord, flatten, probe,
    right_towers, tower,
)
from .dag import A, IDENTITY, Dag, shared
from .decide import is_trivial, order
from .errors import CapExceeded, PreconditionViolated, WordLengthCapExceeded
from .leafperm import tower_witnesses
from .tree import decompose, first_active_level
from .words import a_parity, conjugate, invert, multiply, reduce_word


def iterated_commutator(x: str, g: str, n: int) -> str:
    """The left-normed tower [x,_n g] of reduced x and g, reduced."""
    if n < 1:
        raise ValueError("tower depth must be >= 1")
    return next(islice(tower(x, g), n - 1, None))


def exact_witness(dag: Dag, entries: dict[int, int], x: str, g: str) -> dict[int, str]:
    """The minimal-depth, lexicographically least vertex moved by each entry.

    entries maps m to the id in dag of t = [x,_m g]; m = 0 means t is the
    plain word x.  Each depth comes from t's sections.  leafperm walks the
    tower of the words x and g once, at the level n one below the deepest
    entry, and every entry's portrait must move a vertex of exactly its
    depth.  A vertex moved at depth k moves all its descendants, so the
    least moved vertex read at level n is the one read at level k.  The
    oracle's portraits stop at level 2 * MAX_DEPTH, so n past it raises
    CapExceeded.  It memoizes the moved vertices of the 1,024 most recent
    (x, g, n, depths), so a tower that recurs, as a shared x_active does,
    is not walked again.  The depth check runs on every call, hit or miss.
    """
    levels = {m: dag.first_active_level(t) for m, t in entries.items()}
    if None in levels.values():
        raise PreconditionViolated("a trivial element moves no vertex")
    n = max(levels.values()) + 1
    if n > 2 * config.MAX_DEPTH:
        raise CapExceeded(f"first moved vertex lies below depth {2 * config.MAX_DEPTH}")
    depths = tuple(sorted(levels))
    witnesses = dict(zip(depths, tower_witnesses(x, g, n, depths)))
    for m, witness in witnesses.items():
        if witness is None or len(witness) != levels[m] + 1:
            raise AssertionError(
                f"leaf permutations disagree with first active level {levels[m]}"
            )
    return witnesses


def left_engel_probe(g: str, x: str, bound: int) -> EngelSink | NoSinkUpTo:
    """Search the tower [x,_n g] for its first trivial entry, n <= bound.

    The word tower gives the transcript lengths and the length cap; the
    section DAG decides triviality and the witness, for an involution g
    by the sink depth 1 + e([x, g]) (see `certificates.probe`).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    g = reduce_word(g)
    x = reduce_word(x)

    def issue(dag: Dag) -> EngelSink | NoSinkUpTo:
        transcript, n, t = probe(dag, x, g, bound)
        if t == IDENTITY:
            return EngelSink(g, x, n, tuple(transcript))
        witness = exact_witness(dag, {bound: t}, x, g)[bound]
        return NoSinkUpTo(g, x, bound, tuple(transcript), witness)

    return shared("probe", issue)


def lemma1_check(k: TWord, g: str, m: int) -> bool:
    """Verify the tower formula for y with psi(y) = (k, 1) against x = a.g.

    Requires g in St(1) and (a.g)^2 = 1 (which forces g2 = g1^-1).  y is
    built from its sections (k, 1), and both sides are decided on one fresh
    Dag: the left by taking the commutator with x m times, as the tower is
    defined, and reading its sections, the right from the closed form
    (k^((-1)^m 2^(m-1)), (k^g2)^((-1)^(m-1) 2^(m-1))) by m - 1 squarings.
    The left side does not walk `Dag.tower`: x is an involution, so that
    walk squares its entries, and would compute the closed form it is
    checked against.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    g = reduce_word(g)
    if a_parity(g):
        raise PreconditionViolated("g must lie in St(1)")
    dag = Dag()
    fg = dag.from_word(g)
    x = dag.mul(A, fg)
    if dag.mul(x, x) != IDENTITY:
        raise PreconditionViolated("a.g must be an involution")
    power = dag.from_word(flatten(k))
    t = dag.node(0, power, IDENTITY)  # y, with psi(y) = (k, 1)
    for _ in range(m):  # [1, x] = 1, so the walk stops at the sink
        if t == IDENTITY:
            break
        t = dag.commutator(t, x)
    active, left, right = dag.nodes[t]
    if active:
        return False
    for _ in range(m - 1):  # k^(2^(m-1)); squaring stops at the identity
        if power == IDENTITY:
            break
        power = dag.mul(power, power)
    conjugated = dag.conjugate(power, dag.nodes[fg][2])  # (k^g2)^(2^(m-1))
    if m % 2:
        return left == dag.inv(power) and right == conjugated
    return left == power and right == dag.inv(conjugated)


def lemma2_check(x: str, y: str, m: int) -> bool:
    """Verify the section identity for towers [x,_{m+1} y] with y in St(1).

    Requires x = a.g with g in St(1), i.e. odd `a`-parity.  Both
    coordinates of psi([x,_{m+1} y]) are compared against the sections
    `right_towers` predicts from those of g and y, on one fresh Dag.
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
    (t, left), (_, right) = (
        next(islice(right_towers(dag, fx, fy, i), m - 1, None), (IDENTITY, IDENTITY))
        for i in (0, 1)
    )
    return dag.nodes[t] == (0, left, right)


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
    k = search_high_order(bound, budget=budget, seed=seed)
    y = emb_pair(k, TWord())

    def witness(dag: Dag) -> str:
        t = dag.iterated_commutator(dag.from_word(y), dag.from_word(active), bound)
        return exact_witness(dag, {bound: t}, y, active)[bound]

    return BoundedLeftRefutation(x, chain, active, k, bound, y, shared("decide", witness))


@lru_cache(maxsize=32, typed=True)
def search_nonengel_pair(
    bound: int,
    budget: int = config.SEARCH_BUDGET,
    seed: int = 0,
) -> tuple[TWord, TWord]:
    """A pair (h, y1) of TWords with [flatten(h),_n flatten(y1)] != 1, n <= bound.

    Bounded evidence for the fact that K is not an Engel group: up to
    `budget` random pairs, each decided on a fresh Dag.  Deterministic
    given the seed, and memoized per process on the arguments;
    SearchExhausted and CapExceeded are raised again on every call, never
    cached.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    rng = random.Random(seed)

    def qualifies(pair: tuple[TWord, TWord]) -> bool:
        dag = Dag()
        towers = dag.tower(*(dag.from_word(flatten(k)) for k in pair))  # [h,_n y1]
        return IDENTITY not in islice(towers, bound)

    draws = (
        (random_tword(rng, max_factors=2), random_tword(rng, max_factors=2))
        for _ in range(budget)
    )
    failure = f"no non-Engel pair up to depth {bound} within {budget}"
    return first_qualifying(qualifies, draws, failure)


@lru_cache(maxsize=32, typed=True)
def _bracket(h: TWord, y1: TWord) -> TWord:
    """[y1, h] = y1^-1 . y1^h as TWord factors, built once per (h, y1)."""
    h_word = flatten(h)
    return TWord(
        tuple((w, -s) for w, s in reversed(y1.factors))
        + tuple((multiply(w, h_word), s) for w, s in y1.factors)
    )


def replay_right(
    x: str,
    bound: int,
    budget: int = config.SEARCH_BUDGET,
    seed: int = 0,
) -> RightRefutation:
    """Produce a certificate that x is not right Engel with sink <= bound + 1.

    Section-reduces x to an active representative a.g, finds a non-Engel
    pair (h, y1) in K, sets y2 = [y1, h]^(g1^-1) =
    (y1^-1)^(g1^-1) . y1^(h g1^-1), embeds y with psi(y) = (y1, y2), and
    records for every m <= bound a vertex moved by [x_active,_{m+1} y],
    read off one walk of `Dag.tower` and checked by `exact_witness`
    against leafperm.  That each entry's first section is the one Lemma 2
    predicts, [h,_{m+1} y1]^y1, is left to `certificates.verify`, which
    checks it on every right certificate.

    y is the word emb_pair(y1, y2), assembled from the memoized halves
    emb_pair(y1, 1) and emb_pair(1, [y1, h]), which do not depend on x:
    lift_second is an endomorphism of the free product Z/2 * V4 that
    reduced words represent, so lifting a conjugator w . g1^-1 gives
    lift_second(w) . L with L = lift_second(g1^-1), and the second half
    of y is emb_pair(1, [y1, h]) conjugated by L.  Reduced words are
    normal forms, so the product has the bytes of emb_pair(y1, y2).  The
    TWord [y1, h] does not depend on x either, and `_bracket` builds it
    once per (h, y1).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    x = reduce_word(x)
    chain, active = section_chain(x)
    g1_inverse = invert(decompose(multiply("a", active)).left)
    h, y1 = search_nonengel_pair(bound + 1, budget=budget, seed=seed)
    bracket = _bracket(h, y1)
    y2 = TWord(tuple((multiply(w, g1_inverse), s) for w, s in bracket.factors))
    # emb_pair(y1, y2), with its two x-independent halves built once.
    y = multiply(
        emb_pair(y1, TWord()),
        conjugate(emb_pair(TWord(), bracket), lift_second(g1_inverse)),
    )

    def witnesses(dag: Dag) -> tuple[str, ...]:
        towers = dag.tower(dag.from_word(active), dag.from_word(y))
        next(towers)  # [x_active,_1 y] is not recorded
        # A sunk tower stays trivial, which exact_witness rejects.
        entries = {m: next(towers, IDENTITY) for m in range(2, bound + 2)}
        return tuple(exact_witness(dag, entries, active, y).values())

    return RightRefutation(
        x, chain, active, h, y1, y2, y, bound, shared("decide", witnesses)
    )


def random_involution(rng: random.Random, length: int = config.WALK_LENGTH) -> str:
    """A random element of order exactly 2, by rejection in `first_qualifying`."""
    return first_qualifying(
        lambda w: order(w).exponent == 1,
        (random_word(rng, length) for _ in range(config.SEARCH_BUDGET)),
        "no involution found by rejection sampling",
    )


@dataclass(frozen=True)
class SurveyReport:
    """Outcome counts of left-Engel probes against random involutions."""

    samples: int
    opponents: int
    bound: int
    seed: int
    sinks: int
    no_sink: int
    overflow: int
    sink_depths: dict[int, int]
    flagged: tuple[tuple[str, str], ...]  # (g, x) pairs that did not sink


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
    if samples < 0:
        raise ValueError("samples must be >= 0")
    if opponents < 0:
        raise ValueError("opponents must be >= 0")
    if bound < 1:
        raise ValueError("bound must be >= 1")
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
