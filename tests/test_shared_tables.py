"""The long-lived section-DAG tables of the issuers and the verifiers.

`dag.shared` keeps one table per role: "decide" for the word API and the
replays, "verify" for the refutation verifiers, and the small "probe" and
"probe-verify" tables for Engel probes and their verifiers.
A warm table must change nothing a caller can see: certificate bytes,
verdicts and the calls that raise CapExceeded are those of a fresh
process.
"""

import json
import random

import pytest

from grigor import certificates, config, dag
from grigor.decide import is_trivial
from grigor.engel import (
    left_engel_probe, random_involution, random_word, replay_bounded_left, replay_right
)
from grigor.errors import CapExceeded, WordLengthCapExceeded
from grigor.words import a_parity, reduce_word

from conftest import make_reduced_word
from test_golden import GOLDEN, ISSUERS


# A sink, and g = ad, x = daca, whose tower moves 00000 at depth 6.
PROBES = (("d", "abacab", 20), ("ad", "daca", 6))


def _nodes(role):
    return len(dag.TABLES[role].nodes)


def _verify(cert):
    text = certificates.dumps(certificates.to_dict(cert))
    ok, detail = certificates.verify(json.loads(text))
    assert ok, detail


def test_decide_table_counts_memoized_words(monkeypatch):
    # Conjugates of relators are distinct trivial words: every section of
    # one is trivial, so a call adds memoized words but no nodes, and only
    # counting the words keeps the table near half the cap.
    monkeypatch.setattr(config, "NODE_CAP", 2000)
    rng = random.Random(29)
    relators = ("adadadad", "acacacacacacacac", "abab" * 8)
    last = None
    drops = 0
    for _ in range(3000):
        p = make_reduced_word(rng, 24)
        w = reduce_word(p[::-1] + rng.choice(relators) + p)
        cold = dag.Dag()
        cold.from_word(w)
        one_call = cold.size - dag.Dag().size
        assert is_trivial(w)
        table = dag.TABLES["decide"]
        assert len(table.nodes) == len(dag.Dag().nodes)
        assert table.size < config.NODE_CAP // 2 + one_call, w
        drops += last is not None and table is not last
        last = table
    assert drops > 1


def _sizes(roles):
    return {role: dag.TABLES[role].size for role in roles}


def test_roles_keep_apart():
    _verify(replay_right("a", 8))
    _verify(replay_bounded_left("a", 6))
    _verify(left_engel_probe("d", "abab", 20))
    verifiers = _sizes(("verify", "probe-verify"))
    certs = (
        replay_right("d", 8), replay_bounded_left("aca", 6), replay_right("abacaba", 8),
        *(left_engel_probe(*p) for p in PROBES),
    )
    assert _sizes(verifiers) == verifiers
    issuers = _sizes(("decide", "probe"))
    for cert in certs:
        _verify(cert)
    assert _sizes(issuers) == issuers
    # An issuer leaves every node and word the verifier reads interned, so
    # only a process that issued nothing shows that the verifiers read no
    # issuer's table at all.
    dag.TABLES.clear()
    for cert in certs:
        _verify(cert)
    assert not set(issuers) & set(dag.TABLES)


def test_half_full_table_is_dropped_at_entry(monkeypatch):
    replay_bounded_left("a", 6)  # memoizes the search, whose order calls fill the table
    dag.TABLES.clear()
    replay_bounded_left("a", 6)
    left_nodes = _nodes("decide")
    dag.TABLES.clear()
    replay_right("ad", 8)
    monkeypatch.setattr(config, "NODE_CAP", 2 * _nodes("decide"))
    half_full = dag.TABLES["decide"]
    replay_bounded_left("a", 6)
    assert dag.TABLES["decide"] is not half_full
    assert _nodes("decide") == left_nodes


def test_warm_overflow_reruns_cold(monkeypatch):
    cold = certificates.dumps(certificates.to_dict(replay_right("ad", 8)))
    monkeypatch.setattr(config, "NODE_CAP", _nodes("decide"))  # fits only a fresh table
    dag.TABLES.clear()
    # Warms the table with a few nodes of a word the replay does not need;
    # a whole replay would pass half the cap in entries.
    is_trivial(make_reduced_word(random.Random(7), 96))
    warm = dag.TABLES["decide"]
    assert warm.size < config.NODE_CAP // 2  # so the table is not dropped at entry
    assert certificates.dumps(certificates.to_dict(replay_right("ad", 8))) == cold
    assert dag.TABLES["decide"] is not warm  # the warm attempt overflowed
    assert _nodes("decide") == config.NODE_CAP


def test_cold_overflow_still_raises(monkeypatch):
    replay_right("ad", 8)
    monkeypatch.setattr(config, "NODE_CAP", _nodes("decide") - 1)
    dag.TABLES.clear()
    with pytest.raises(CapExceeded, match="nodes"):
        replay_right("ad", 8)
    assert "decide" not in dag.TABLES  # a failed table is not kept


def test_golden_bytes_on_warm_tables():
    names = sorted(ISSUERS) * 2
    random.Random(3).shuffle(names)
    for name in names:
        golden = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        assert certificates.dumps(ISSUERS[name]()) + "\n" == golden, name
        ok, detail = certificates.verify(json.loads(golden))
        assert ok, (name, detail)


def test_shuffled_certify_sequence_matches_cold():
    # Odd words get a right refutation, involutions a bounded-left one too.
    rng = random.Random(17)
    elements = []
    for i in range(30):
        if i % 2:
            elements.append((random_involution(rng, 8), True))
        else:
            w = random_word(rng, rng.randint(1, 9))
            elements.append((w if a_parity(w) else reduce_word(w + "a"), False))

    def issue(x, is_involution):
        certs = [replay_right(x, 8)]
        if is_involution:
            certs.append(replay_bounded_left(x, 6))
        return [certificates.dumps(certificates.to_dict(c)) for c in certs]

    cold = {}
    for element in elements:
        dag.TABLES.clear()
        cold[element] = issue(*element)
    dag.TABLES.clear()
    rng.shuffle(elements)
    for element in elements:
        texts = issue(*element)
        assert texts == cold[element], element
        for text in texts:
            ok, detail = certificates.verify(json.loads(text))
            assert ok, detail


def _probe_text(g, x, bound):
    return certificates.dumps(certificates.to_dict(left_engel_probe(g, x, bound)))


def _probe_texts():
    return [_probe_text(*p) for p in PROBES]


def _other_probes(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        try:
            left_engel_probe(random_involution(rng, 16), random_word(rng, 32), 40)
        except WordLengthCapExceeded:
            pass


def test_probe_bytes_do_not_depend_on_warmth(monkeypatch):
    cold = []
    for p in PROBES:
        dag.TABLES.clear()
        cold.append(_probe_text(*p))
    assert json.loads(cold[0])["kind"] == "engel_sink"
    assert json.loads(cold[1])["witness"] == "00000"
    _other_probes(200, 43)
    warm = dag.TABLES["probe"]
    assert _probe_texts() == cold
    assert dag.TABLES["probe"] is warm
    for text in cold:
        ok, detail = certificates.verify(json.loads(text))
        assert ok, detail
    # A forced drop: the table is replaced at the next call's entry.
    monkeypatch.setattr(config, "PROBE_TABLE_ENTRIES", dag.TABLES["probe"].size)
    assert _probe_texts() == cold
    assert dag.TABLES["probe"] is not warm


def test_warm_probe_verifier_rejects_an_off_by_one_transcript():
    texts = _probe_texts()
    _other_probes(50, 47)
    for text in texts:  # leaves every node the tampered copies need interned
        ok, detail = certificates.verify(json.loads(text))
        assert ok, detail
    warm = dag.TABLES["probe-verify"]
    assert len(warm.nodes) > len(dag.Dag().nodes)
    for text in texts:
        for i in (0, -1):
            data = json.loads(text)
            data["transcript"][i] += 1
            ok, detail = certificates.verify(data)
            assert not ok and "transcript" in detail, (text, i)
    assert dag.TABLES["probe-verify"] is warm


def test_probe_table_is_dropped_at_its_bound(monkeypatch):
    monkeypatch.setattr(config, "PROBE_TABLE_ENTRIES", 2000)
    left_engel_probe(*PROBES[0])
    first = dag.TABLES["probe"]
    rng = random.Random(53)
    sizes = []  # of the table at each call's entry
    for _ in range(400):
        sizes.append(first.size)
        left_engel_probe(random_involution(rng, 16), random_word(rng, 16), 40)
        if dag.TABLES["probe"] is not first:
            break
    assert max(sizes[:-1]) < config.PROBE_TABLE_ENTRIES <= sizes[-1]
    assert first._mul and first.size == (
        len(first.nodes) + len(first._mul) + len(first._inv)
        + len(first._exponent) + len(first._words)
    )
    assert dag.TABLES["probe"].size < config.PROBE_TABLE_ENTRIES


def test_word_cap_keeps_the_warm_probe_table():
    left_engel_probe(*PROBES[0])
    warm = dag.TABLES["probe"]
    with pytest.raises(WordLengthCapExceeded):
        left_engel_probe("ad", "b", 40)
    assert dag.TABLES["probe"] is warm
