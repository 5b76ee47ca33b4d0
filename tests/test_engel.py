import hashlib
import json
import random
from functools import partial
from itertools import islice, product, zip_longest
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grigor import config, leafperm
from grigor.branch import T_ATOM, emb_pair, random_tword
from grigor.certificates import (
    EngelSink, NoSinkUpTo, TWord, dumps, flatten, format_tword, probe, right_towers, to_dict,
    tower,
)
from grigor.dag import IDENTITY, TABLES, Dag
from grigor.decide import are_equal, is_trivial, order, witness_vertex
from grigor.engel import (
    exact_witness,
    involution_survey,
    iterated_commutator,
    left_engel_probe,
    lemma1_check,
    lemma2_check,
    random_involution,
    random_word,
    replay_bounded_left,
    replay_right,
    search_nonengel_pair,
    section_chain,
)
from grigor.errors import CapExceeded, PreconditionViolated, WordLengthCapExceeded
from grigor.tree import act, decompose
from grigor.words import a_parity, commutator, conjugate, invert, multiply, reduce_word

import word_reference
from conftest import make_word


def test_iterated_commutator_base_cases():
    assert iterated_commutator("ab", "", 3) == ""
    assert iterated_commutator("", "ab", 1) == ""
    assert iterated_commutator("b", "a", 1) == reduce_word("baba")


def test_tower_recurrence(rng):
    for _ in range(10):
        x = random_word(rng, 10)
        g = random_word(rng, 10)
        for n in range(2, 6):
            assert are_equal(
                iterated_commutator(x, g, n),
                commutator(iterated_commutator(x, g, n - 1), g),
            )


def test_tower_length_cap(monkeypatch):
    monkeypatch.setattr(config, "WORD_LENGTH_CAP", 64)
    with pytest.raises(WordLengthCapExceeded):
        iterated_commutator("badabada", "a", 12)


def test_probe_self_commutator():
    outcome = left_engel_probe("d", "d", 5)
    assert isinstance(outcome, EngelSink)
    assert outcome.n == 1


def test_probe_involution_sinks(rng):
    for _ in range(10):
        x = random_word(rng)
        outcome = left_engel_probe("d", x, 20)
        assert isinstance(outcome, EngelSink)


def definitional_probe(x, g, depth):
    """(word lengths, last m, last word) of the tower [x,_m g], m <= depth,
    stopping at the first trivial entry.  Each entry is the commutator of
    the last one with g, as a word and on a fresh Dag, as the tower is
    defined: no squaring and no order exponent."""
    dag = Dag()
    t, fg, w = dag.from_word(x), dag.from_word(g), x
    lengths = []
    for m in range(1, depth + 1):
        t, w = dag.commutator(t, fg), commutator(w, g)
        if len(w) > config.WORD_LENGTH_CAP:
            raise WordLengthCapExceeded(
                f"tower at depth {m} grew past {config.WORD_LENGTH_CAP} letters"
            )
        lengths.append(len(w))
        if t == IDENTITY:
            break
    return lengths, m, w


def test_involutions_are_left_engel_with_sink_depth_one_plus_e():
    # For g^2 = 1, [x,_n g] = [x, g]^((-2)^(n-1)), so the tower sinks at
    # depth 1 + e([x, g]), where 2^e is the order of [x, g].  The probe
    # reads its sink off e; here the sink is found by the definition.
    rng = random.Random(24)
    depths = set()
    for _ in range(200):
        g, x = random_involution(rng), random_word(rng)
        dag = Dag()
        e = dag.order_exponent(dag.commutator(dag.from_word(x), dag.from_word(g)))
        _, n, _ = definitional_probe(x, g, 40)
        assert n == 1 + e, (g, x)
        outcome = left_engel_probe(g, x, 40)
        assert isinstance(outcome, EngelSink), (g, x)
        assert outcome.n == n, (g, x)
        depths.add(n)
    assert len(depths) > 3  # the formula is met at several depths


@settings(deadline=None, max_examples=150, derandomize=True)
@given(
    x=st.text("abcd", max_size=12),
    g=st.one_of(
        st.text("abcd", max_size=8).map(lambda u: reduce_word(invert(u) + "a" + u)),
        st.sampled_from(["b", "c", "d", "adad", "acacacac"]),  # involutions
        st.text("abcd", max_size=8).map(reduce_word),  # mostly not
    ),
    depth=st.integers(1, 10),
)
def test_probe_matches_the_definitional_tower(x, g, depth):
    x = reduce_word(x)
    dag = Dag()
    try:
        expected = definitional_probe(x, g, depth)
    except WordLengthCapExceeded as exc:
        with pytest.raises(WordLengthCapExceeded, match=f"^{exc}$"):
            probe(dag, x, g, depth)
        return
    lengths, m, t = probe(dag, x, g, depth)
    assert (lengths, m) == expected[:2]
    assert t == dag.from_word(expected[2])


@pytest.mark.parametrize("g", ["d", "ad"])  # an involution, and not
@pytest.mark.parametrize("depth", [0, -1])
def test_probe_rejects_a_depth_below_one(g, depth):
    with pytest.raises(ValueError, match="^depth must be >= 1$"):
        probe(Dag(), "ab", g, depth)


@pytest.mark.parametrize(
    "u, depth, sink",
    [("adacab" * 1400, 2, 4), ("bacad" * 1000, 4, 4)],  # the cap before, at the sink
)
def test_involution_probe_raises_the_word_cap_where_the_word_tower_passes_it(u, depth, sink):
    g, x = reduce_word(invert(u) + "a" + u), "b"
    dag = Dag()
    assert 1 + dag.order_exponent(dag.commutator(dag.from_word(x), dag.from_word(g))) == sink
    left_engel_probe("d", "abad", 10)
    table = TABLES["probe"]
    with pytest.raises(WordLengthCapExceeded) as caught:
        left_engel_probe(g, x, 40)
    assert str(caught.value) == f"tower at depth {depth} grew past 65536 letters"
    assert TABLES["probe"] is table


def test_involution_probe_below_its_sink_keeps_its_witness_and_bytes():
    g = reduce_word(invert("dacab") + "a" + "dacab")  # a conjugate of a; sinks at 5
    assert dumps(to_dict(left_engel_probe(g, "ad", 4))) == (
        '{"bound":4,"engine":"0.1.0","g":"bacadadacab","kind":"non_engel_witness",'
        '"schema":1,"transcript":[25,49,97,193],"witness":"01100000","x":"ad"}'
    )
    assert dumps(to_dict(left_engel_probe(g, "ad", 5))) == (
        '{"engine":"0.1.0","g":"bacadadacab","kind":"engel_sink","n":5,'
        '"schema":1,"transcript":[25,49,97,193,385],"x":"ad"}'
    )


def test_probe_no_sink_has_witness():
    x = "daca"
    outcome = left_engel_probe("ad", x, 6)
    assert isinstance(outcome, NoSinkUpTo)
    tower = iterated_commutator(x, "ad", 6)
    assert act(tower, outcome.witness) != outcome.witness


def _random_words():
    rng = random.Random(1234)
    for _ in range(500):
        w = make_word(rng, rng.randint(1, 40))
        yield w, w, "", 0


def _right_towers():
    cert = replay_right("a", 8)
    for m in range(2, 10):
        yield iterated_commutator(cert.x_active, cert.y, m), cert.x_active, cert.y, m


def _probe_towers():
    rng = random.Random(4321)
    for _ in range(60):
        g = random_word(rng, rng.randint(2, 12))
        x = random_word(rng, rng.randint(1, 12))
        for m in range(1, 7):
            yield iterated_commutator(x, g, m), x, g, m


@pytest.mark.parametrize(
    "towers",
    [_random_words, _right_towers, _probe_towers],
    ids=["random", "right_towers", "probe_towers"],
)
def test_exact_witness_matches_fixed_depth_oracle(towers):
    # (word of [x,_m g], x, g, m); m = 0 is the plain word x.
    checked = 0
    for w, x, g, m in towers():
        expected = witness_vertex(w, config.MAX_DEPTH)
        if expected is not None:
            assert _dag_witness(x, g, m) == expected, w
            checked += 1
    assert checked


def _dag_witness(x, g="", m=0):
    """exact_witness of [x,_m g] built in a fresh Dag."""
    dag = Dag()
    t = dag.from_word(x)
    if m:
        t = next(islice(dag.tower(t, dag.from_word(g)), m - 1, None))
    return exact_witness(dag, {m: t}, x, g)[m]


def test_exact_witness_raises(monkeypatch):
    with pytest.raises(PreconditionViolated):
        _dag_witness("adadadad")
    # d first moves a depth-3 vertex
    monkeypatch.setattr(config, "MAX_DEPTH", 1)
    with pytest.raises(CapExceeded):
        _dag_witness("d")


def _right_entries(x, bound):
    """(cert, dag, {m: id of [x_active,_m y]} for 2 <= m <= bound + 1)."""
    cert = replay_right(x, bound)
    dag = Dag()
    towers = dag.tower(dag.from_word(cert.x_active), dag.from_word(cert.y))
    return cert, dag, dict(enumerate(islice(towers, 1, bound + 1), 2))


@pytest.mark.parametrize("x", ["a", "adaca"])
def test_exact_witness_one_pass_equals_one_call_per_entry(x):
    # At N = 8 the entries move vertices of depths 6 to 10: one pass at the
    # deepest level must give each entry the witness of its own call.
    cert, dag, entries = _right_entries(x, 8)
    active, y = cert.x_active, cert.y
    together = exact_witness(dag, entries, active, y)
    alone = {m: exact_witness(dag, {m: t}, active, y)[m] for m, t in entries.items()}
    assert together == alone
    assert tuple(together.values()) == cert.witnesses
    assert len({len(w) for w in together.values()}) > 2


def test_exact_witness_checks_every_entry(monkeypatch):
    cert, dag, entries = _right_entries("a", 8)
    active, y = cert.x_active, cert.y
    # One trivial entry among nontrivial ones.
    sinking = Dag()
    tower = sinking.tower(sinking.from_word("b"), sinking.from_word("a"))
    first, _, _, trivial = islice(tower, 4)  # [b,_4 a] = 1
    with pytest.raises(PreconditionViolated):
        exact_witness(sinking, {1: first, 4: trivial}, "b", "a")
    # One entry past the cap among shallow ones: depths run 6 to 9 here.
    monkeypatch.setattr(config, "MAX_DEPTH", 4)
    shallow = {m: t for m, t in entries.items() if m <= 3}
    assert len(exact_witness(dag, shallow, active, y)) == 2
    with pytest.raises(CapExceeded):
        exact_witness(dag, entries, active, y)


class MisreportedLevel(Dag):
    """A Dag whose first_active_level reports one id one level shallower."""

    liar = None

    def first_active_level(self, g):
        level = super().first_active_level(g)
        return level - 1 if g == self.liar else level


def test_exact_witness_cross_checks_a_memoized_tower():
    cert = replay_right("a", 8)
    active, y = cert.x_active, cert.y
    dag = MisreportedLevel()
    towers = dag.tower(dag.from_word(active), dag.from_word(y))
    entries = dict(enumerate(islice(towers, 1, 9), 2))
    levels = {m: dag.first_active_level(t) for m, t in entries.items()}
    # Misreport the shallowest entry: the deepest sets the oracle's level,
    # and with it the memo's key, so that stays the same.
    m = min(levels, key=levels.get)
    assert levels[m] < max(levels.values())
    expected = f"leaf permutations disagree with first active level {levels[m] - 1}"
    memo = leafperm._tower_witnesses
    memo.cache_clear()
    dag.liar = entries[m]
    with pytest.raises(AssertionError) as cold:
        exact_witness(dag, entries, active, y)
    assert str(cold.value) == expected
    dag.liar = None
    assert exact_witness(dag, entries, active, y) == dict(zip(entries, cert.witnesses))
    assert memo.cache_info().hits == 1
    dag.liar = entries[m]
    with pytest.raises(AssertionError) as warm:
        exact_witness(dag, entries, active, y)
    assert str(warm.value) == expected
    assert memo.cache_info().hits == 2


def test_lemma1_base_case():
    # psi([y, a]) = (t^-1, t) for y embedding (t, 1)
    y = emb_pair(T_ATOM, TWord())
    d = decompose(iterated_commutator(y, "a", 1))
    assert d.active == 0
    assert are_equal(d.left, invert("abab"))
    assert are_equal(d.right, "abab")
    assert lemma1_check(T_ATOM, "", 1)


def test_lemma1_vanishing_threshold():
    # t has order 8 = 2^3: coordinates are trivial at m = 4, not at m = 3
    assert lemma1_check(T_ATOM, "", 4)
    y = emb_pair(T_ATOM, TWord())
    assert is_trivial(iterated_commutator(y, "a", 4))
    assert lemma1_check(T_ATOM, "", 3)
    assert not is_trivial(iterated_commutator(y, "a", 3))


def test_lemma1_preconditions():
    with pytest.raises(PreconditionViolated):
        lemma1_check(T_ATOM, "a", 1)  # g not in St(1)
    with pytest.raises(PreconditionViolated):
        lemma1_check(T_ATOM, "d", 1)  # a.d = ad has order 4


def test_lemma1_random_grid(rng):
    for _ in range(8):
        k = random_tword(rng, max_factors=2, conj_len=6)
        w = random_word(rng, 10)
        g = multiply("a", conjugate("a", w))
        for m in range(1, 4):
            assert lemma1_check(k, g, m)


def test_lemma2_trivial_right_coordinate():
    # y = u embeds (t, 1): both inner towers collapse at once
    u = emb_pair(T_ATOM, TWord())
    assert lemma2_check("a", u, 1)


def test_lemma2_examples(rng):
    v = emb_pair(TWord(), T_ATOM)
    assert lemma2_check("ab", v, 1)
    y = emb_pair(T_ATOM, TWord((("ab", 1),)))
    assert lemma2_check("a", y, 2)


def test_lemma2_preconditions():
    with pytest.raises(PreconditionViolated):
        lemma2_check("b", "d", 1)  # x even parity
    with pytest.raises(PreconditionViolated):
        lemma2_check("a", "ab", 1)  # y outside St(1)


def _lemma2_pairs():
    """(odd x, y in St(1)): random pairs, pairs with y = d, whose towers
    sink, and the (x_active, y) of both golden right refutations."""
    rng = random.Random(2718)
    pairs = []
    for _ in range(30):
        x, y = random_word(rng, 12), random_word(rng, 12)
        x = x if a_parity(x) else reduce_word("a" + x)
        pairs.append((x, reduce_word(y + "a") if a_parity(y) else y))
    pairs += [(x, "d") for x in ["a", "ab"] + [x for x, _ in pairs[:3]]]
    golden = Path(__file__).parent / "golden"
    for name in ("right_refutation_a", "right_refutation_d"):
        cert = json.loads((golden / f"{name}.json").read_text(encoding="utf-8"))
        pairs.append((cert["x_active"], cert["y"]))
    return pairs


def test_right_towers_predict_the_sections_of_the_word_tower():
    # Entry m is [x,_{m+1} y]; past the sink of both towers, the entry and
    # its predicted section are the identity.
    for x, y in _lemma2_pairs():
        words = list(islice(tower(x, y), 1, 6))
        for i in (0, 1):
            dag = Dag()
            predicted = islice(right_towers(dag, dag.from_word(x), dag.from_word(y), i), 5)
            pairs = zip_longest(words, predicted, fillvalue=(IDENTITY, IDENTITY))
            for m, (word, (t, section)) in enumerate(pairs, 1):
                d = decompose(word)
                assert t == dag.from_word(word), (x, y, i, m)
                assert section == dag.from_word((d.left, d.right)[i]), (x, y, i, m)


def test_section_chain():
    chain, active = section_chain("a")
    assert chain == () and active == "a"
    chain, active = section_chain("d")
    assert active.count("a") % 2 == 1
    # replaying the recorded sections lands on the active representative
    cur = "d"
    for bit, sec in chain:
        d = decompose(cur)
        assert are_equal(sec, d.left if bit == 0 else d.right)
        cur = sec
    assert cur == active


def test_replay_bounded_left_small():
    cert = replay_bounded_left("a", 3, seed=0)
    assert cert.k == T_ATOM
    assert cert.x_active == "a"
    tower = iterated_commutator(cert.y, cert.x_active, cert.bound)
    assert act(tower, cert.witness) != cert.witness


def test_replay_bounded_left_needs_higher_order():
    cert = replay_bounded_left("a", 4, seed=0)
    assert order(flatten(cert.k)).value >= 16
    tower = iterated_commutator(cert.y, "a", 4)
    assert not is_trivial(tower)


def test_replay_bounded_left_section_reduction():
    cert = replay_bounded_left("d", 3, seed=0)
    assert cert.chain  # d sits inside St(1), so a descent was recorded
    assert cert.x_active.count("a") % 2 == 1


def test_replay_bounded_left_preconditions():
    with pytest.raises(PreconditionViolated):
        replay_bounded_left("", 3)
    with pytest.raises(PreconditionViolated):
        replay_bounded_left("ad", 3)  # order 4, not an involution


def test_search_nonengel_pair():
    h, y1 = search_nonengel_pair(4, seed=0)
    cur = flatten(h)
    fy1 = flatten(y1)
    for _ in range(4):
        cur = commutator(cur, fy1)
        assert not is_trivial(cur)
    with pytest.raises(ValueError):
        search_nonengel_pair(0)


def test_replay_right():
    cert = replay_right("a", 3, seed=0)
    assert len(cert.witnesses) == 3
    fh, fy1 = flatten(cert.h), flatten(cert.y1)
    for m in range(1, 4):
        tower = iterated_commutator(cert.x_active, cert.y, m + 1)
        assert act(tower, cert.witnesses[m - 1]) != cert.witnesses[m - 1]
        d = decompose(tower)
        assert are_equal(
            d.left, conjugate(iterated_commutator(fh, fy1, m + 1), fy1)
        )


# x with the g1 = decompose(a . x_active).left of each entry.
G1_EXAMPLES = [("a", ""), ("ba", "c"), ("dabacada", "da"), ("dacad", "ca")]


@pytest.mark.parametrize("x, g1", G1_EXAMPLES)
def test_replay_right_y2_bytes(x, g1):
    # The golden right certificates have g1 = 1; here the conjugation by
    # g1^-1 is pinned too, factor by factor.
    assert decompose(multiply("a", section_chain(x)[1])).left == g1
    for seed in range(3):
        cert = replay_right(x, 3, seed=seed)
        assert cert.y2.factors == word_reference.right_y2(
            cert.y1.factors, cert.h.factors, g1
        )


def test_replay_right_y_bytes():
    # y is assembled from emb_pair(y1, 1) and emb_pair(1, [y1, h]) conjugated
    # by lift_second(g1^-1); it must be the word emb_pair(y1, y2) folds to.
    rng = random.Random(25)
    xs = [x for x, _ in G1_EXAMPLES]
    while len(xs) < len(G1_EXAMPLES) + 50:
        x = reduce_word(make_word(rng, rng.randint(1, 12)))
        if x:
            xs.append(x)
    for x in xs:
        for bound in (3, 8):
            for seed in range(3):
                cert = replay_right(x, bound, seed=seed)
                assert cert.y == word_reference.emb_pair(cert.y1, cert.y2), (x, bound, seed)


# sha256 of the serialized certificates below, as issued when y was built by
# one emb_pair(y1, y2) per call.
REPLAY_DIGEST = "0047aefcc2ee5d12654b98a52203dfe3132b189a7041196b5a0c1ae6ad29195d"


def _replay_digest_cases():
    """The issuing calls behind REPLAY_DIGEST, in their pinned order."""
    rng = random.Random(25)
    xs = []
    while len(xs) < 300:
        x = reduce_word(make_word(rng, rng.randint(1, 9)))
        if x:
            xs.append(x)
    cases = [partial(replay_right, x, bound) for x in xs for bound in (3, 8)]
    cases += [
        partial(replay_bounded_left, x, bound)
        for x in ("a", "b", "c", "d", "aca", "bab", "dabad")
        for bound in (3, 6)
    ]
    return cases


def _replay_digest(certs):
    digest = hashlib.sha256()
    for cert in certs:
        digest.update(dumps(to_dict(cert)).encode() + b"\n")
    return digest.hexdigest()


def test_replay_certificate_bytes_are_pinned():
    assert _replay_digest(issue() for issue in _replay_digest_cases()) == REPLAY_DIGEST


def test_replay_certificate_bytes_survive_a_partly_evicted_witness_memo():
    # Issue the pinned set cold, then fill the memo past its bound with
    # other keys, so that the older half of the set's keys is evicted, and
    # issue the set again in reverse order: hits and misses mix.
    cases = _replay_digest_cases()
    assert _replay_digest(issue() for issue in cases) == REPLAY_DIGEST
    memo = leafperm._tower_witnesses
    info = memo.cache_info()
    assert info.currsize >= 2
    others = info.maxsize - info.currsize // 2
    for w in islice(map("".join, product("bcd", repeat=7)), others):
        leafperm.tower_witnesses(w, "a", 4, (0,))
    info = memo.cache_info()
    assert info.currsize == info.maxsize
    certs = [issue() for issue in reversed(cases)]
    after = memo.cache_info()
    assert after.hits > info.hits and after.misses > info.misses
    assert _replay_digest(reversed(certs)) == REPLAY_DIGEST


# From bound 17 on, the search returns pair P = (d^-1, dac^-1); REPLAY_DIGEST
# uses bounds 3 and 8 and the search pins stop at 9, so these pin P and
# the bytes of right refutations built on it, as first issued.
PAIR_P = "d^-1 dac^-1"
RIGHT_P_DIGESTS = {
    16: "6e9149de3a11e3db9470fb88c91df747efe98fcc0fe42c57112df32aced4db9b",
    24: "4ecb2f34fee563b078ffa628ff4a0ad0579f90a1fcffbbbc934d6d666cb4962b",
}


@pytest.mark.parametrize("bound", [17, 25])
def test_search_returns_pair_p(bound):
    assert " ".join(map(format_tword, search_nonengel_pair(bound))) == PAIR_P


@pytest.mark.parametrize("bound", sorted(RIGHT_P_DIGESTS))
def test_right_refutation_bytes_on_pair_p(bound):
    cert = replay_right("a", bound)
    assert " ".join(map(format_tword, (cert.h, cert.y1))) == PAIR_P
    digest = hashlib.sha256(dumps(to_dict(cert)).encode()).hexdigest()
    assert digest == RIGHT_P_DIGESTS[bound]


def test_replay_right_rejects_identity():
    with pytest.raises(PreconditionViolated):
        replay_right("", 2)


def test_random_involution(rng):
    for _ in range(5):
        g = random_involution(rng)
        assert order(g).value == 2


def test_survey_empty():
    report = involution_survey(0, 10)
    assert report.sinks == 0 and report.no_sink == 0 and report.overflow == 0


def test_survey_small():
    report = involution_survey(10, 30, seed=5, opponents=2)
    assert report.sinks == 20
    assert report.no_sink == 0 and report.overflow == 0
    assert sum(report.sink_depths.values()) == 20
