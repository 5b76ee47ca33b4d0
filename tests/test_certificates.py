import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import grigor
from grigor import certificates, dag
from grigor.branch import membership_in_K
from grigor.dag import IDENTITY, Dag
from grigor.decide import witness_vertex
from grigor.engel import left_engel_probe, replay_bounded_left, replay_right

GOLDEN = Path(__file__).parent / "golden"


def test_sink_round_trip():
    outcome = left_engel_probe("d", "abad", 10)
    data = certificates.to_dict(outcome)
    assert data["kind"] == "engel_sink"
    assert data["schema"] == 1
    ok, detail = certificates.verify(data)
    assert ok, detail


def test_sink_rejects_wrong_depth():
    outcome = left_engel_probe("d", "abad", 10)
    data = certificates.to_dict(outcome)
    data["n"] += 1
    ok, _ = certificates.verify(data)
    assert not ok


def test_no_sink_round_trip():
    data = certificates.to_dict(left_engel_probe("ad", "badabada", 5))
    assert data["kind"] == "non_engel_witness"
    ok, detail = certificates.verify(data)
    assert ok, detail
    data["witness"] = "1" * len(data["witness"])
    tampered_ok, _ = certificates.verify(data)
    # a different vertex may or may not be moved, but the original passes
    assert ok and isinstance(tampered_ok, bool)


def test_bounded_left_round_trip():
    cert = replay_bounded_left("a", 3, seed=0)
    data = json.loads(certificates.dumps(certificates.to_dict(cert)))
    ok, detail = certificates.verify(data)
    assert ok, detail


def test_bounded_left_tamper_detection():
    cert = replay_bounded_left("a", 3, seed=0)
    data = certificates.to_dict(cert)
    data["k"] = "1^+1;1^-1"  # trivial element: no high-order witness
    ok, detail = certificates.verify(data)
    assert not ok
    assert "order" in detail


def test_right_round_trip():
    cert = replay_right("a", 2, seed=0)
    data = certificates.to_dict(cert)
    ok, detail = certificates.verify(data)
    assert ok, detail


def test_right_tamper_detection():
    cert = replay_right("a", 2, seed=0)
    data = certificates.to_dict(cert)
    data["y2"] = "1^+1"
    ok, _ = certificates.verify(data)
    assert not ok


def test_bound_below_one_rejected():
    # A bound of 0 would confirm a refutation without checking any tower.
    no_sink = certificates.to_dict(left_engel_probe("ad", "daca", 6))
    no_sink["bound"] = 0
    no_sink["witness"] = witness_vertex("daca")
    right = certificates.to_dict(replay_right("a", 2, seed=0))
    right["bound"] = 0
    right["witnesses"] = []
    for data in (no_sink, right):
        ok, detail = certificates.verify(data)
        assert not ok and "bound" in detail


@pytest.mark.parametrize(
    "name", ["bounded_left_refutation", "right_refutation_a", "right_refutation_d"]
)
def test_trivial_x_rejected(name):
    data = json.loads((GOLDEN / f"{name}.json").read_text())
    data["x"] = "adadadad"  # (ad)^4 = 1
    assert certificates.verify(data) == (False, "x is trivial")


def test_membership_certificate():
    data = certificates.membership_certificate("abab")
    assert data["verdict"] == "inside"
    ok, detail = certificates.verify(data)
    assert ok, detail
    data["verdict"] = "outside"
    ok, _ = certificates.verify(data)
    assert not ok


def test_unknown_kind_and_schema():
    ok, detail = certificates.verify({"schema": 99})
    assert not ok and "schema" in detail
    ok, detail = certificates.verify({"schema": 1, "kind": "nonsense"})
    assert not ok
    # True == 1 and 1.0 == 1 in Python; the schema must be a JSON integer.
    data = certificates.membership_certificate("abab")
    for schema in (True, 1.0, "1"):
        assert certificates.verify({**data, "schema": schema}) == (
            False, f"unsupported schema {schema!r}"
        )
    assert certificates.verify(data) == (True, "membership verdict inside confirmed")


def test_deterministic_serialization():
    a = certificates.dumps(certificates.to_dict(replay_bounded_left("a", 3, seed=7)))
    b = certificates.dumps(certificates.to_dict(replay_bounded_left("a", 3, seed=7)))
    assert a == b


@pytest.mark.parametrize(
    "issue",
    [
        lambda: left_engel_probe("dbb", "ababcc", 20),  # sinks
        lambda: left_engel_probe("adbb", "dacabb", 6),  # no sink
        lambda: replay_bounded_left("abbaa", 3),
        lambda: replay_right("ccaadda", 3),
        lambda: replay_right("bbd", 2),  # a two-step section chain
        lambda: membership_in_K("aabab"),
    ],
)
def test_records_from_unreduced_inputs_read_back(issue):
    # Issuers store reduced words, so reading the dict gives the record back.
    cert = issue()
    assert certificates.from_dict(certificates.to_dict(cert)) == cert


def test_x_active_in_st1_with_an_empty_chain_is_rejected():
    data = certificates.to_dict(replay_right("a", 3))
    data.update(x="b", x_active="b", chain=[])
    assert certificates.verify(data) == (False, "x_active is not active at the root")


def test_sink_at_depth_zero_is_rejected():
    data = certificates.to_dict(left_engel_probe("d", "abad", 10))
    data.update(n=0, transcript=[])
    assert certificates.verify(data) == (False, "sink depth must be >= 1")


def test_sink_claimed_for_a_tower_that_does_not_sink_is_rejected():
    # The honest transcript of a probe that finds no sink by depth 5.
    no_sink = certificates.to_dict(left_engel_probe("ad", "b", 5))
    assert no_sink["kind"] == "non_engel_witness"
    data = {name: no_sink[name] for name in ("schema", "engine", "g", "x", "transcript")}
    data.update(kind="engel_sink", n=5)
    assert certificates.verify(data) == (False, "tower not trivial at claimed depth 5")


def test_bounded_left_bound_zero_is_rejected():
    data = certificates.to_dict(replay_bounded_left("a", 3))
    data["bound"] = 0
    assert certificates.verify(data) == (False, "bound must be >= 1")


@pytest.mark.parametrize("shift", [-1, 1])
def test_involution_sink_claimed_one_depth_off_is_rejected(shift):
    # g is a conjugate of a, an involution, and the tower sinks at depth 5.
    honest = certificates.to_dict(left_engel_probe("bacadadacab", "ad", 40))
    assert honest["n"] == 5
    n = 5 + shift
    data = dict(honest, n=n, transcript=honest["transcript"][:n])
    expected = {1: "tower already trivial at depth 5", -1: "tower not trivial at claimed depth 4"}
    assert certificates.verify(data) == (False, expected[shift])


class WrongLemma2Prediction(Dag):
    """A Dag that corrupts one section: the second entry of each tower of
    `y1` -- the tower Lemma 2 predicts a right refutation's sections from
    -- is replaced by its inverse."""

    y1 = None

    def tower(self, x, g):
        for m, t in enumerate(super().tower(x, g), 1):
            yield self.inv(t) if g == self.y1 and m == 2 else t


def test_lemma2_self_check_fails_on_wrong_arithmetic(monkeypatch):
    # On a sound Dag the check cannot fail once y2 and y are checked: it
    # checks the arithmetic, not the certificate.
    cert = replay_right("a", 3)
    assert certificates._verify_right(cert) == (
        True, "right-Engel refutation through sink bound 4 confirmed"
    )
    wrong = WrongLemma2Prediction()
    wrong.y1 = wrong.from_word(certificates.flatten(cert.y1))
    monkeypatch.setitem(dag.TABLES, "verify", wrong)
    assert certificates._verify_right(cert) == (
        False, "tower identity cross-check failed at m=2"
    )
    assert dag.TABLES["verify"] is wrong


@dataclass(frozen=True)
class TranscriptFreeSink:
    g: str
    x: str
    n: int


def _verify_transcript_free_sink(cert):
    table = Dag()
    t = table.iterated_commutator(table.from_word(cert.x), table.from_word(cert.g), cert.n)
    return t == IDENTITY, f"sink by depth {cert.n}"


def test_a_schema_2_kind_round_trips(monkeypatch):
    fields = {"g": certificates._WORD, "x": certificates._WORD, "n": certificates._INTEGER}
    entry = (TranscriptFreeSink, fields, _verify_transcript_free_sink)
    assert certificates.verify({"schema": 2, "kind": "engel_sink"}) == (
        False, "unsupported schema 2"
    )
    monkeypatch.setitem(certificates._KINDS, (2, "transcript_free_sink"), entry)
    cert = TranscriptFreeSink("d", "abad", 4)
    data = certificates.to_dict(cert)
    assert data == {
        "schema": 2, "engine": grigor.__version__, "kind": "transcript_free_sink",
        "g": "d", "x": "abad", "n": 4,
    }
    assert certificates.from_dict(data) == cert
    assert certificates.verify(data) == (True, "sink by depth 4")
    assert certificates.verify({**data, "n": 3}) == (False, "sink by depth 3")
    # The kind is known under its own schema only.
    assert certificates.verify({**data, "schema": 1}) == (
        False, "unknown certificate kind 'transcript_free_sink'"
    )
    assert certificates.verify({"schema": 2, "kind": "engel_sink"}) == (
        False, "unknown certificate kind 'engel_sink'"
    )
    assert certificates.verify({**data, "schema": 3}) == (False, "unsupported schema 3")
    # Schema-1 kinds are written and read as before.
    sink = certificates.to_dict(left_engel_probe("d", "abad", 10))
    assert sink["schema"] == 1 and certificates.verify(sink) == (True, "sink at depth 4 confirmed")


_FIXED_SET_SCRIPT = """
from grigor import certificates
from grigor.engel import (
    involution_survey, left_engel_probe, replay_bounded_left, replay_right,
)
from grigor.words import reduce_word

issued = [replay_right(x, 8) for x in ("a", "d", "dabacada")]
issued += [replay_bounded_left(x, 6) for x in ("a", "aca")]
issued.append(left_engel_probe("ad", "badabada", 5))
issued.append(certificates.reduced_membership_in_K(reduce_word("abab")))
# Again, with their witnesses read from the warm tower memo.
issued += [replay_right(x, 8) for x in ("a", "d", "dabacada")]
for cert in issued:
    print(certificates.dumps(certificates.to_dict(cert)))
print(involution_survey(50, 40, seed=3, opponents=2))
"""


def test_certificate_bytes_do_not_depend_on_the_hash_seed():
    src = str(Path(grigor.__file__).parents[1])
    outputs = []
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        proc = subprocess.run(
            [sys.executable, "-c", _FIXED_SET_SCRIPT],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    lines = outputs[0].splitlines()
    assert len(lines) == 11
    assert lines[7:10] == lines[:3]
    assert outputs[0] == outputs[1]
