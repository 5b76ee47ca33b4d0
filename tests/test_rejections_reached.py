"""Every rejection the verifier kernel can return is reached by a case.

The rejection returns are found in the source of `certificates` by AST:
every `return` in a `_verify_*` or `_check_*` function, or in a check
nested in one, except `return None`, a `(True, ...)` verdict and a
delegating call.  The pinned corruption table of test_corrupted_certificates,
the pinned cross-field forgeries below and the Lemma 2 self-check on a
wrong Dag run under a `sys.settrace` line tracer limited to
certificates.py, and the test fails naming each rejection return that no
case reached.  There is no allowlist.

The forgeries change several fields together, or the kind, which the
one-field corruption table cannot.  Their verdicts are pinned in
forged_verdicts.json; rewrite it with
`PYTHONPATH=src python tests/test_rejections_reached.py` only when a
verdict is meant to change.
"""

import ast
import json
import sys
from pathlib import Path

from grigor import certificates, dag
from grigor.engel import left_engel_probe, replay_bounded_left, replay_right

import test_corrupted_certificates as corrupted_table
from test_certificates import WrongLemma2Prediction

FORGED = Path(__file__).parent / "forged_verdicts.json"
SOURCE = Path(certificates.__file__)


def _x_active_in_st1_with_an_empty_chain():
    data = certificates.to_dict(replay_right("a", 3))
    data.update(x="b", x_active="b", chain=[])
    return data


def _sink_at_depth_zero():
    data = certificates.to_dict(left_engel_probe("d", "abad", 10))
    data.update(n=0, transcript=[])
    return data


def _no_sink_transcript_claimed_as_a_sink():
    no_sink = certificates.to_dict(left_engel_probe("ad", "b", 5))
    data = {name: no_sink[name] for name in ("schema", "engine", "g", "x", "transcript")}
    data.update(kind="engel_sink", n=5)
    return data


def _sink_transcript_claimed_as_no_sink():
    sink = certificates.to_dict(left_engel_probe("d", "abad", 10))
    data = {name: sink[name] for name in ("schema", "engine", "g", "x", "transcript")}
    data.update(kind="non_engel_witness", bound=sink["n"], witness="0")
    return data


def _no_sink_bound_zero():
    data = certificates.to_dict(left_engel_probe("ad", "daca", 6))
    data.update(bound=0, transcript=[], witness="0")
    return data


def _bounded_left_bound_zero():
    data = certificates.to_dict(replay_bounded_left("a", 3))
    data["bound"] = 0
    return data


def _right_bound_zero():
    data = certificates.to_dict(replay_right("a", 2))
    data.update(bound=0, witnesses=[])
    return data


def _right_witnesses_one_too_many():
    data = certificates.to_dict(replay_right("a", 3))
    data["witnesses"] = data["witnesses"] + data["witnesses"][-1:]
    return data


def _right_witnesses_one_too_few():
    data = certificates.to_dict(replay_right("a", 3))
    data["witnesses"] = data["witnesses"][:-1]
    return data


FORGERIES = {
    "bounded_left_refutation:bound_zero": _bounded_left_bound_zero,
    "engel_sink:depth_zero": _sink_at_depth_zero,
    "engel_sink:from_a_no_sink_transcript": _no_sink_transcript_claimed_as_a_sink,
    "non_engel_witness:bound_zero": _no_sink_bound_zero,
    "non_engel_witness:from_a_sink_transcript": _sink_transcript_claimed_as_no_sink,
    "right_refutation:bound_zero": _right_bound_zero,
    "right_refutation:witnesses_one_too_few": _right_witnesses_one_too_few,
    "right_refutation:witnesses_one_too_many": _right_witnesses_one_too_many,
    "right_refutation:x_active_in_st1_with_an_empty_chain": _x_active_in_st1_with_an_empty_chain,
}


def forged_verdicts():
    return {name: list(certificates.verify(forge())) for name, forge in FORGERIES.items()}


def _rejects(value):
    """Whether a returned expression is a rejection: anything but None, a
    (True, ...) verdict, or a call whose verdict is its own."""
    if value is None or isinstance(value, ast.Call):
        return False
    if isinstance(value, ast.Constant):
        return value.value is not None
    if isinstance(value, ast.Tuple):
        first = value.elts[0]
        return not (isinstance(first, ast.Constant) and first.value is True)
    return True


def rejection_returns():
    """{(first line, last line): source} of each rejection return."""
    text = SOURCE.read_text(encoding="utf-8")
    found = {}
    for function in ast.parse(text).body:
        if isinstance(function, ast.FunctionDef) and function.name.startswith(
            ("_verify_", "_check_")
        ):
            for node in ast.walk(function):
                if isinstance(node, ast.Return) and _rejects(node.value):
                    found[node.lineno, node.end_lineno] = ast.get_source_segment(text, node)
    return found


def _lemma2_on_wrong_arithmetic(monkeypatch):
    cert = replay_right("a", 3)
    wrong = WrongLemma2Prediction()
    wrong.y1 = wrong.from_word(certificates.flatten(cert.y1))
    monkeypatch.setitem(dag.TABLES, "verify", wrong)
    return certificates._verify_right(cert)


def test_forged_verdicts_are_pinned():
    expected = json.loads(FORGED.read_text(encoding="utf-8"))
    assert forged_verdicts() == expected
    assert not any(ok for ok, _ in expected.values())


def test_verdicts_on_warm_memos_are_the_pinned_ones():
    # The verifier keeps memos across certificates: its tables' towers,
    # and flattened TWords.  With them warmed by the honest golden files,
    # two passes over each pinned table in one process still give its
    # verdicts, so no memo carries an honest answer over to a forgery.
    for path in sorted(corrupted_table.GOLDEN.glob("*.json")):
        ok, detail = certificates.verify(json.loads(path.read_text(encoding="utf-8")))
        assert ok, (path.name, detail)
    assert dag.TABLES["verify"]._towers and certificates.flatten.cache_info().currsize
    corrupted = json.loads(corrupted_table.VERDICTS.read_text(encoding="utf-8"))
    forged = json.loads(FORGED.read_text(encoding="utf-8"))
    for _ in range(2):
        assert corrupted_table.verdicts() == corrupted
        assert forged_verdicts() == forged


def test_rejection_returns_are_found():
    sources = rejection_returns().values()
    assert len(sources) >= 20
    assert any("tower identity cross-check failed" in s for s in sources)
    assert any("x_active is not active at the root" in s for s in sources)
    assert not any("return None" in s or "return True" in s for s in sources)


def test_every_rejection_return_is_reached(monkeypatch):
    reached = set()
    target = str(SOURCE)

    def lines(frame, event, arg):
        if event == "line":
            reached.add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename == target else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        corrupted = corrupted_table.verdicts()
        forged = forged_verdicts()
        lemma2 = _lemma2_on_wrong_arithmetic(monkeypatch)
    finally:
        sys.settrace(previous)
    expected = json.loads(corrupted_table.VERDICTS.read_text(encoding="utf-8"))
    assert corrupted == expected
    assert forged == json.loads(FORGED.read_text(encoding="utf-8"))
    assert lemma2 == (False, "tower identity cross-check failed at m=2")
    unreached = [
        f"certificates.py:{first}: {source}"
        for (first, last), source in sorted(rejection_returns().items())
        if reached.isdisjoint(range(first, last + 1))
    ]
    assert not unreached, "\n".join(unreached)


if __name__ == "__main__":
    FORGED.write_text(
        json.dumps(forged_verdicts(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
