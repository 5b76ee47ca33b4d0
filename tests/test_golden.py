"""Golden certificate files: pinned bytes for every certificate kind.

Each file in tests/golden/ is what the matching CLI command in `COMMANDS`
writes with `--output`, e.g.
`grigor replay-right a -N 8 --output right_refutation_a.json`.  The tests
reissue every certificate through the library and through the CLI,
compare it with the file byte for byte, read the file back into the
record it was written from, and re-check it with the verifier, so a
refactor that changes a transcript, a witness, the serialization or the
reading fails here.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from grigor import certificates
from grigor.cli import main
from grigor.engel import left_engel_probe, replay_bounded_left, replay_right

GOLDEN = Path(__file__).parent / "golden"

ISSUERS = {
    "engel_sink": lambda: certificates.to_dict(left_engel_probe("d", "abab", 20)),
    "non_engel_witness": lambda: certificates.to_dict(left_engel_probe("ad", "daca", 6)),
    "bounded_left_refutation": lambda: certificates.to_dict(replay_bounded_left("a", 4)),
    "right_refutation_a": lambda: certificates.to_dict(replay_right("a", 8)),
    "right_refutation_d": lambda: certificates.to_dict(replay_right("d", 8)),
    "k_membership_inside": lambda: certificates.membership_certificate("abab"),
    "k_membership_outside": lambda: certificates.membership_certificate("dada"),
}

# The grigor argv that writes each file, and its exit code.
COMMANDS = {
    "engel_sink": ("engel-probe --g d --x abab --bound 20", 0),
    "non_engel_witness": ("engel-probe --g ad --x daca --bound 6", 1),
    "bounded_left_refutation": ("replay-left a -N 4", 0),
    "right_refutation_a": ("replay-right a -N 8", 0),
    "right_refutation_d": ("replay-right d -N 8", 0),
    "k_membership_inside": ("k-test abab", 0),
    "k_membership_outside": ("k-test dada", 0),
}


def test_golden_files_cover_every_kind():
    files = sorted(GOLDEN.glob("*.json"))
    assert [p.stem for p in files] == sorted(ISSUERS) == sorted(COMMANDS)
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


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_writes_golden_file(name, tmp_path):
    command, expected = COMMANDS[name]
    path = tmp_path / "cert.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(command.split() + ["--output", str(path)])
    assert code == expected
    assert path.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(ISSUERS))
def test_golden_file_reads_back(name):
    # The reader verify uses gives the record that writes the file again.
    data = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert certificates.to_dict(certificates.from_dict(data)) == data


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
