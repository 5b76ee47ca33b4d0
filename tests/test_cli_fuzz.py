"""Fuzz the command line with drawn argv for every subcommand but `verify`.

`verify` has its own fuzz test.  Words mix `abcd` with other characters,
TWord literals are well formed or not, and the integer flags take small
values, negatives included; `quotient` gets every valid level, 1 to 8,
and the search commands always get a small `--budget`, so a failing search
stops fast.  The four commands that issue certificates may get an
`--output` file, or a directory, which cannot be written.  Whatever the
argv, `main` must return an exit code from 0 to 3 and raise nothing; an
`--output` directory ends in exit 2 (or a cap's 3) with nothing printed,
and an `--output` file holds what `--json` prints.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grigor.certificates import TWord, format_tword
from grigor.cli import main


def mostly(valid, junk):
    """Values from `valid` nine times in ten, from `junk` otherwise."""
    return st.integers(0, 9).flatmap(lambda i: junk if i == 0 else valid)


# A few involutions and short elements next to random words, so that
# replay-left gets past its involution check.
WORDS = mostly(
    st.text("abcd", max_size=10) | st.sampled_from(["a", "d", "aca", "ad", "1"]),
    st.text("abcd1xA -", max_size=4),
)
VERTICES = mostly(st.text("01", max_size=6), st.text("012x", max_size=3))
TWORDS = mostly(
    st.lists(
        st.tuples(st.text("abcd", max_size=4), st.sampled_from((1, -1))), max_size=3
    ).map(lambda factors: format_tword(TWord(tuple(factors)))),
    st.text("1^+-;abx", max_size=6),
)


def integers(low, high):
    return mostly(st.integers(low, high).map(str), st.sampled_from(["x", "1.5", ""]))


def one(values):
    return values.map(lambda value: [value])


def required(name, values):
    return values.map(lambda value: [name, value])


def flag(name, values):
    """An optional `name value` pair."""
    return st.just([]) | required(name, values)


def args(*parts):
    return st.tuples(*parts).map(lambda drawn: [a for part in drawn for a in part])


SEARCH = (required("--budget", integers(-2, 20)), flag("--seed", integers(-2, 3)))
# Placeholders for the test's output file and directory.
FILE, DIRECTORY = "<file>", "<directory>"
OUTPUT = flag("--output", st.sampled_from([FILE, DIRECTORY]))
SUBCOMMANDS = {
    "reduce": args(one(WORDS)),
    "eq": args(one(WORDS), one(WORDS)),
    "order": args(one(WORDS), flag("--order-cap", integers(-2, 14))),
    "act": args(one(WORDS), one(VERTICES)),
    "sections": args(one(WORDS), one(integers(-2, 8))),
    "stab": args(one(WORDS), one(integers(-2, 12))),
    "first-active": args(one(WORDS)),
    "k-test": args(one(WORDS), OUTPUT),
    "k-embed": args(one(TWORDS), one(TWORDS)),
    "lift": args(one(WORDS), st.sampled_from([[], ["--second"]])),
    "quotient": args(one(st.sampled_from(["-1", "0", *map(str, range(1, 9)), "9", "x"]))),
    "engel-probe": args(
        required("--g", WORDS),
        required("--x", WORDS),
        flag("--bound", integers(-2, 6)),
        OUTPUT,
    ),
    "lemma1": args(
        required("--k", TWORDS), required("--g", WORDS), required("--m", integers(-2, 8))
    ),
    "lemma2": args(
        required("--x", WORDS), required("--y", WORDS), required("--m", integers(-2, 8))
    ),
    "replay-left": args(one(WORDS), required("-N", integers(-2, 6)), *SEARCH, OUTPUT),
    "replay-right": args(one(WORDS), required("-N", integers(-2, 6)), *SEARCH, OUTPUT),
    "search-pair": args(required("-N", integers(-2, 8)), *SEARCH),
    "survey": args(
        required("--samples", integers(-2, 2)),
        flag("--bound", integers(-2, 8)),
        flag("--opponents", integers(-2, 2)),
        flag("--seed", integers(-2, 3)),
    ),
}


@st.composite
def argv(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    prefix = draw(st.sampled_from([[], ["--json"]]))
    stray = draw(mostly(st.just([]), st.sampled_from([["--bogus"], ["-N"], ["a"]])))
    return prefix + [command] + draw(SUBCOMMANDS[command]) + stray


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_fuzz")
    return {FILE: directory / "cert.json", DIRECTORY: directory}


@settings(derandomize=True, deadline=None, max_examples=600)
@given(argv=argv())
def test_main_exits_0_to_3(outputs, argv):
    outputs[FILE].unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(outputs.get(arg, arg)) for arg in argv])
    assert code in (0, 1, 2, 3), (code, out.getvalue(), err.getvalue())
    if DIRECTORY in argv:
        assert code in (2, 3) and not out.getvalue(), (code, out.getvalue())
    if FILE in argv and code in (0, 1) and argv[0] == "--json":
        assert outputs[FILE].read_text() == out.getvalue()
