import json
from pathlib import Path

import pytest

from grigor import certificates
from grigor.decide import witness_vertex
from grigor.engel import (
    find_nonsink_opponent,
    left_engel_probe,
    replay_bounded_left,
    replay_right,
)

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
    _, outcome = find_nonsink_opponent("ad", 5, seed=3)
    data = certificates.to_dict(outcome)
    assert data["kind"] == "non_engel_witness"
    ok, detail = certificates.verify(data)
    assert ok, detail
    data["witness"] = "1" * len(data["witness"])
    tampered_ok, _ = certificates.verify(data)
    # a different vertex may or may not be moved, but the original passes
    assert ok and isinstance(tampered_ok, bool)


def test_bounded_left_round_trip():
    cert = replay_bounded_left("a", 3, seed=0)
    data = json.loads(certificates.serialize(cert))
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


def test_deterministic_serialization():
    a = certificates.serialize(replay_bounded_left("a", 3, seed=7))
    b = certificates.serialize(replay_bounded_left("a", 3, seed=7))
    assert a == b
