"""Fuzz `verify` and `grigor verify` with corrupted golden certificates.

A golden file gets one to three of its fields replaced by values of every
field shape declared in `certificates._KINDS` and by values of the wrong
type.  The fields come from the table too, so a new kind with a golden
file is fuzzed with no edit here, and a new field shape fails at import
until it has a strategy below.  `verify` must answer (ok, detail) or
stop at a cap, and the CLI must exit 0, 1 or 3 to match, never crash.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grigor import certificates
from grigor.branch import TWord, format_tword
from grigor.cli import main
from grigor.errors import CapExceeded

GOLDEN = {
    path.stem: json.loads(path.read_text())
    for path in sorted((Path(__file__).parent / "golden").glob("*.json"))
}

_WORDS = st.text("abcd", max_size=12)
_TEXTS = _WORDS | st.text("abcd01", max_size=12) | st.text("1^+-;xyzAé ", max_size=4)
_TWORDS = st.lists(
    st.tuples(st.text("abcd", max_size=4), st.sampled_from((1, -1))), min_size=1, max_size=3
).map(lambda factors: format_tword(TWord(tuple(factors))))
_INTEGERS = st.integers(-2, 40)

# One strategy per field shape check.
SHAPES = {
    certificates._string: _TEXTS | _TWORDS,
    certificates._integer: _INTEGERS,
    certificates._strings: st.lists(_TEXTS, max_size=4),
    certificates._integers: st.lists(_INTEGERS, max_size=6),
    certificates._chain: st.lists(st.tuples(st.integers(0, 1), _TEXTS).map(list), max_size=3),
}
WRONG_TYPES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.recursive(st.none() | _INTEGERS | _TEXTS, lambda inner: st.lists(inner, max_size=3)),
)
SHAPES_IN_USE = dict.fromkeys(
    shape for _, fields, _ in certificates._KINDS.values() for shape, _ in fields.values()
)
VALUES = st.one_of(*[SHAPES[shape] for shape in SHAPES_IN_USE], WRONG_TYPES)


@st.composite
def corrupted(draw):
    data = dict(GOLDEN[draw(st.sampled_from(sorted(GOLDEN)))])
    _, fields, _ = certificates._KINDS[data["kind"]]
    for name in draw(st.lists(st.sampled_from(list(fields)), min_size=1, max_size=3, unique=True)):
        data[name] = draw(VALUES)
    return data


@pytest.fixture(scope="module")
def cert_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cert.json"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=corrupted())
def test_verify_answers_or_stops_at_a_cap(cert_path, data):
    try:
        ok, detail = certificates.verify(data)
    except CapExceeded:
        expected = 3
    else:
        assert type(ok) is bool and type(detail) is str
        expected = 0 if ok else 1
    cert_path.write_text(certificates.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(cert_path)])
    assert code == expected, (out.getvalue(), err.getvalue())
