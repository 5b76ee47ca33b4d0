"""Golden certificate files: pinned bytes for every certificate kind.

Each file in tests/golden/ is what the matching CLI command writes with
`--output`, e.g. `grigor replay-right a -N 8 --output right_refutation_a.json`.
The test reissues every certificate through the library, compares it with
the file byte for byte, and re-checks the file with the verifier, so a
refactor that changes a transcript, a witness or the serialization fails
here.
"""

import json
from pathlib import Path

import pytest

from grigor import certificates
from grigor.engel import left_engel_probe, replay_bounded_left, replay_right

GOLDEN = Path(__file__).parent / "golden"

ISSUERS = {
    # grigor engel-probe --g d --x abab --bound 20
    "engel_sink": lambda: certificates.to_dict(left_engel_probe("d", "abab", 20)),
    # grigor engel-probe --g ad --x daca --bound 6
    "non_engel_witness": lambda: certificates.to_dict(left_engel_probe("ad", "daca", 6)),
    # grigor replay-left a -N 4
    "bounded_left_refutation": lambda: certificates.to_dict(replay_bounded_left("a", 4)),
    # grigor replay-right a -N 8
    "right_refutation_a": lambda: certificates.to_dict(replay_right("a", 8)),
    # grigor replay-right d -N 8
    "right_refutation_d": lambda: certificates.to_dict(replay_right("d", 8)),
    # grigor k-test abab
    "k_membership_inside": lambda: certificates.membership_certificate("abab"),
    # grigor k-test dada
    "k_membership_outside": lambda: certificates.membership_certificate("dada"),
}


def test_golden_files_cover_every_kind():
    files = sorted(GOLDEN.glob("*.json"))
    assert [p.stem for p in files] == sorted(ISSUERS)
    assert {json.loads(p.read_text(encoding="utf-8"))["kind"] for p in files} == {
        "engel_sink",
        "non_engel_witness",
        "bounded_left_refutation",
        "right_refutation",
        "k_membership",
    }


@pytest.mark.parametrize("name", sorted(ISSUERS))
def test_golden_certificate(name):
    golden = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert certificates.dumps(ISSUERS[name]()) + "\n" == golden
    ok, detail = certificates.verify(json.loads(golden))
    assert ok, detail


@pytest.mark.parametrize(
    "name", ["non_engel_witness", "bounded_left_refutation", "right_refutation_a"]
)
def test_golden_witness_must_be_moved(name):
    # A witness is a least-depth moved vertex, so its parent vertex is fixed.
    data = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    if "witnesses" in data:
        data["witnesses"][-1] = data["witnesses"][-1][:-1]
    else:
        data["witness"] = data["witness"][:-1]
    ok, detail = certificates.verify(data)
    assert not ok and "not moved" in detail, detail
