"""The long-lived section-DAG tables of the issuers and the verifiers.

`dag.shared` keeps one table per role: "decide" for the word API and the
replays, "verify" for the refutation verifiers.
A warm table must change nothing a caller can see: certificate bytes,
verdicts and the calls that raise CapExceeded are those of a fresh
process.
"""

import json
import random

import pytest

from grigor import certificates, config, dag
from grigor.decide import is_trivial
from grigor.engel import random_involution, random_word, replay_bounded_left, replay_right
from grigor.errors import CapExceeded
from grigor.words import a_parity, reduce_word

from conftest import make_reduced_word
from test_golden import GOLDEN, ISSUERS


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


def test_roles_keep_apart():
    _verify(replay_right("a", 8))
    _verify(replay_bounded_left("a", 6))
    verify_nodes = _nodes("verify")
    certs = replay_right("d", 8), replay_bounded_left("aca", 6), replay_right("abacaba", 8)
    assert _nodes("verify") == verify_nodes
    decide_nodes, decide_size = _nodes("decide"), dag.TABLES["decide"].size
    for cert in certs:
        _verify(cert)
    assert _nodes("decide") == decide_nodes
    assert dag.TABLES["decide"].size == decide_size
    # A replay leaves every node and word the verifier reads interned, so
    # only a process that issued nothing shows that the verifier reads no
    # "decide" table at all.
    dag.TABLES.clear()
    for cert in certs:
        _verify(cert)
    assert "decide" not in dag.TABLES


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
    replay_bounded_left("a", 6)
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
