"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report lines.
"""

import json
import random
import time

from sympy.combinatorics import Permutation

from grigor import certificates
from grigor.branch import (
    T_ATOM,
    build_level_quotient,
    certified_plateau,
    emb_pair,
    membership_in_K,
    random_tword,
    search_high_order,
)
from grigor.certificates import EngelSink, NoSinkUpTo, TWord, flatten
from grigor.decide import is_trivial, order, witness_vertex
from grigor.engel import (
    involution_survey,
    left_engel_probe,
    lemma1_check,
    lemma2_check,
    replay_bounded_left,
    replay_right,
)
from grigor.leafperm import word_perm
from grigor.tree import decompose
from grigor.words import conjugate, multiply, reduce_word

from conftest import make_even_word, make_word


def report(criterion: str, detail: str) -> None:
    print(f"{criterion} PASS: {detail}")


def test_a1_word_problem_cross_validation():
    rng = random.Random(1234)
    start = time.monotonic()
    disagreements = 0
    for _ in range(1000):
        w = make_word(rng, rng.randint(0, 40))
        if is_trivial(w) != (witness_vertex(w, 12) is None):
            disagreements += 1
    elapsed = time.monotonic() - start
    assert disagreements == 0
    assert elapsed < 30.0
    report("A1", f"1000 words, 0 disagreements, {elapsed:.2f}s")


def test_a2_classical_orders_two_ways():
    expected = {
        "a": 2, "b": 2, "c": 2, "d": 2,
        "ab": 16, "ac": 8, "ad": 4, "abab": 8,
    }
    for w, value in expected.items():
        assert order(w).value == value, w
        # level-perm orders are monotone in the level and settle at the
        # true order within levels 4..6
        perm_orders = [Permutation(word_perm(w, n)).order() for n in (4, 5, 6)]
        assert perm_orders[-2] == perm_orders[-1] == value, w
    report("A2", f"{len(expected)} orders confirmed by squaring and level perms")


def test_a3_wreath_recursion_laws():
    rng = random.Random(99)
    from grigor.decide import are_equal

    for _ in range(500):
        x = make_even_word(rng, rng.randint(0, 20))
        y = make_even_word(rng, rng.randint(0, 20))
        dx, dy, dxy = decompose(x), decompose(y), decompose(multiply(x, y))
        assert are_equal(dxy.left, multiply(dx.left, dy.left))
        assert are_equal(dxy.right, multiply(dx.right, dy.right))
        swapped = decompose(reduce_word("a" + x + "a"))
        assert swapped.left == dx.right and swapped.right == dx.left
        assert swapped.active == dx.active
    report("A3", "homomorphism and swap law on 500 even-parity pairs")


def _fixture_twords(rng: random.Random, count: int = 20) -> list[TWord]:
    fixtures = [T_ATOM]
    while len(fixtures) < count:
        fixtures.append(random_tword(rng))
    return fixtures


def _fixture_involution_parts(rng: random.Random, count: int = 10) -> list[str]:
    # g = a . (a conjugate of a): then a.g is an involution and g is in St(1)
    parts: list[str] = []
    while len(parts) < count:
        w = reduce_word(make_word(rng, rng.randint(1, 24)))
        g = multiply("a", conjugate("a", w))
        if g and g not in parts:
            parts.append(g)
    return parts


def test_a4_lemma1_identity_grid():
    rng = random.Random(42)
    twords = _fixture_twords(rng)
    gs = [""] + _fixture_involution_parts(rng)
    start = time.monotonic()
    checks = 0
    for k in twords:
        for g in gs:
            for m in range(1, 6):
                assert lemma1_check(k, g, m), (k, g, m)
                checks += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report("A4", f"{checks} grid checks, 0 failures, {elapsed:.1f}s")


def test_a5_lemma2_identity():
    rng = random.Random(52)
    checks = 0
    for _ in range(20):
        x = reduce_word(make_word(rng, rng.randint(1, 24)))
        while not x.count("a") & 1:
            x = reduce_word(make_word(rng, rng.randint(1, 24)))
        y = emb_pair(
            random_tword(rng, max_factors=2), random_tword(rng, max_factors=2)
        )
        # y = d: towers that sink, so the identity fills the shorter one
        for y in (y, "d"):
            for m in range(1, 5):
                assert lemma2_check(x, y, m), (x, y, m)
                checks += 1
    report("A5", f"{checks} pair checks, 0 failures")


def test_a6_sink_threshold_law():
    y = emb_pair(T_ATOM, TWord())
    outcome = left_engel_probe("a", y, 10)
    assert isinstance(outcome, EngelSink) and outcome.n == 4

    k64 = search_high_order(5, seed=0)  # order >= 32; 64 for this seed
    k32 = k64 * k64
    assert order(flatten(k32)).value == 32
    outcome = left_engel_probe("a", emb_pair(k32, TWord()), 10)
    assert isinstance(outcome, EngelSink) and outcome.n == 6
    report("A6", "sink depths 4 (order 8) and 6 (order 32) exact")


def test_a7_k_index_certification():
    level = certified_plateau()
    assert level is not None, "no plateau certified: membership stays Unknown"
    plateau_index = build_level_quotient(level).k_image_index
    for n in (level, level + 1, level + 2):
        assert build_level_quotient(n).k_image_index == plateau_index

    assert membership_in_K("abab").verdict == "inside"
    assert membership_in_K("a").verdict == "outside"
    assert membership_in_K("b").verdict == "outside"
    rng = random.Random(77)
    for _ in range(5):
        y = emb_pair(random_tword(rng, max_factors=2), random_tword(rng, max_factors=2))
        assert membership_in_K(y).verdict == "inside"
    report(
        "A7",
        f"index plateau {plateau_index} certified at level {level}; "
        "t/a/b/embeddings classified",
    )


def test_a8_bounded_left_replay():
    for bound in (3, 4):
        cert = replay_bounded_left("a", bound, seed=0)
        data = certificates.to_dict(cert)
        ok, detail = certificates.verify(data)
        assert ok, detail
        if bound == 4:
            assert order(flatten(cert.k)).value >= 16
    report("A8", "replays at N=3 and N=4 verified; N=4 uses order >= 16")


def test_a9_right_replay():
    cert = replay_right("a", 3, seed=0)
    data = certificates.to_dict(cert)
    ok, detail = certificates.verify(data)
    assert ok, detail  # verify includes the tower identity cross-check per m
    report("A9", "right replay at N=3 verified with tower identity for m=1..3")


def test_a10_theorem1_survey():
    report_data = involution_survey(100, 40, seed=2024, opponents=5)
    assert report_data.overflow == 0, f"overflow flagged: {report_data.flagged}"
    assert report_data.no_sink == 0, f"no-sink flagged: {report_data.flagged}"
    assert report_data.sinks == 500

    assert order("ad").value == 4
    x = "badacac"
    outcome = left_engel_probe("ad", x, 10)
    assert isinstance(outcome, NoSinkUpTo) and outcome.bound == 10
    report(
        "A10",
        f"500/500 probes sank (depths {sorted(report_data.sink_depths)}); "
        f"ad witness x of length {len(x)} survives depth 10",
    )


def test_a11_determinism():
    first = []
    second = []
    for run in (first, second):
        for cert in (
            replay_bounded_left("a", 3, seed=31),
            replay_bounded_left("a", 4, seed=31),
            replay_right("a", 3, seed=31),
            replay_right("d", 2, seed=31),
            left_engel_probe("ad", "adabadabacabadabababadabada", 8),
            membership_in_K("abab"),
        ):
            run.append(certificates.dumps(certificates.to_dict(cert)))
    assert first == second
    for text in first:
        json.loads(text)
    report("A11", f"{len(first)} certificates byte-identical across two runs")
