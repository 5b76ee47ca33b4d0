import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from sympy.combinatorics import Permutation

import grigor
from grigor import certificates
from grigor.cli import main
from grigor.engel import left_engel_probe, replay_right
from grigor.leafperm import word_perm

from conftest import make_reduced_word

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def run_json(capsys, *argv):
    code, out, _ = run(capsys, "--json", *argv)
    return code, json.loads(out)


def run_child(*argv, timeout=30):
    """Run python with argv in a child process, so that a runaway computation
    fails the timeout instead of hanging the suite."""
    src = str(Path(grigor.__file__).parents[1])
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_import_and_refutation_verify_leave_numpy_unloaded():
    # No module of grigor imports numpy, so neither the CLI import nor the
    # verifiers of any kind load it.
    files = [str(path) for path in sorted(GOLDEN.glob("*.json"))]
    script = (
        "import sys\n"
        "import grigor.cli\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        f"for path in {files!r}:\n"
        "    assert grigor.cli.main(['verify', path]) == 0, path\n"
        "    assert 'numpy' not in sys.modules, path\n"
    )
    proc = run_child("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("OK") == len(files)


def test_verify_loads_only_the_kernel():
    # A certificate of every kind is checked by certificates, dag, words,
    # config and errors alone.  Neither issuer (engel, branch), nor the
    # searches, nor leafperm and numpy is loaded, through the library or
    # through `grigor verify FILE`, which adds only cli itself.
    files = [str(path) for path in sorted(GOLDEN.glob("*.json"))]
    library = (
        "import grigor.certificates\n"
        "def check(path):\n"
        "    with open(path, encoding='utf-8') as fh:\n"
        "        return grigor.certificates.verify(json.load(fh))[0]\n"
    )
    cli = (
        "import contextlib, io, grigor.cli\n"
        "def check(path):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        return grigor.cli.main(['verify', path]) == 0\n"
    )
    kernel = ["grigor", "grigor.certificates", "grigor.config", "grigor.dag",
              "grigor.errors", "grigor.words"]
    for check, expected in ((library, kernel), (cli, sorted(kernel + ["grigor.cli"]))):
        script = (
            "import json, sys\n"
            + check
            + "def loaded(ok):\n"
            "    grigor = sorted(m for m in sys.modules if m.split('.')[0] == 'grigor')\n"
            "    return [ok, grigor, 'numpy' in sys.modules]\n"
            "seen = {'import': loaded(True)}\n"
            f"for path in {files!r}:\n"
            "    seen[path] = loaded(check(path))\n"
            "print(json.dumps(seen))\n"
        )
        proc = run_child("-c", script)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert len(seen) == 1 + 7
        for path, (ok, modules, numpy) in seen.items():
            assert ok, path
            assert modules == expected, path
            assert not numpy, path


_LOADED_BY_CALLS = (
    "import contextlib, io, json, sys\n"
    "before = set(sys.modules)\n"
    "{imports}\n"
    "def added():\n"
    "    return sorted({watched!r} & (set(sys.modules) - before))\n"
    "seen = {{'import': added()}}\n"
    "for argv in {calls!r}:\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        code = grigor.cli.main(argv)\n"
    "    seen[' '.join(argv)] = [code, added()]\n"
    "print(json.dumps(seen))\n"
)


def _loaded_by_calls(imports, calls, watched):
    """What of watched a child process adds to sys.modules by the imports
    and by each CLI call in turn, with the exit code of each call.  Only
    modules the child adds count, so one that a site hook loaded first
    does not."""
    script = _LOADED_BY_CALLS.format(imports=imports, calls=calls, watched=set(watched))
    proc = run_child("-c", script)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_calls_load_no_dataclasses():
    # Every record is a NamedTuple, so neither the CLI, nor the modules
    # perfbench/cold.py imports, nor a verify or an order call loads
    # `dataclasses` or the `inspect` it pulls in.
    calls = [["verify", str(path)] for path in sorted(GOLDEN.glob("*.json"))]
    calls.append(["order", "abad"])
    seen = _loaded_by_calls(
        "import grigor.cli\nfrom grigor import branch, certificates, engel",
        calls, ("dataclasses", "inspect"),
    )
    assert seen.pop("import") == []
    assert len(seen) == len(calls)
    for call, (code, added) in seen.items():
        assert code == 0, call
        assert added == [], call


def test_eq_and_order_leave_the_oracle_unloaded():
    # decide imports leafperm only inside witness_vertex, so `grigor eq`
    # and `grigor order` decide on the section DAG without loading it.
    seen = _loaded_by_calls(
        "import grigor.cli", [["order", "abad"], ["eq", "bc", "d"]],
        ("dataclasses", "inspect", "grigor.leafperm"),
    )
    assert seen == {"import": [], "order abad": [0, []], "eq bc d": [0, []]}


def test_reduce(capsys):
    assert run(capsys, "reduce", "bc") == (0, "d", "")
    assert run(capsys, "reduce", "abba")[1] == "1"


def test_reduce_bad_literal(capsys):
    code, _, err = run(capsys, "reduce", "abz")
    assert code == 2
    assert "z" in err


def test_eq(capsys):
    assert run(capsys, "eq", "bc", "d") == (0, "true", "")
    assert run(capsys, "eq", "a", "b")[1] == "false"


def test_order(capsys):
    assert run(capsys, "order", "ab")[1] == "16"
    code, data = run_json(capsys, "order", "ab")
    assert code == 0 and data["order"] == 16 and data["exact"] is True


def test_parser_reuse_keeps_no_flags(capsys):
    # The parser is built once per process; one call's --json and
    # --order-cap must not carry over to the next.
    assert run(capsys, "--json", "order", "ab", "--order-cap", "2")[0] == 0
    assert run(capsys, "order", "ab") == (0, "16", "")


def test_order_of_long_word():
    # Squaring this 65,536-letter word up to its order 512 takes more than
    # 30 s; the section DAG needs well under a second.  The order of the
    # level-12 permutation, from leafperm, divides the element's.
    w = make_reduced_word(random.Random(65536), 1 << 16)
    proc = run_child("-m", "grigor.cli", "order", w, "--order-cap", "30", timeout=10)
    assert proc.returncode == 0, proc.stderr
    value = int(proc.stdout)
    assert value & (value - 1) == 0, value
    assert value % Permutation(word_perm(w, 12)).order() == 0, value


def test_act_and_sections(capsys):
    assert run(capsys, "act", "a", "010")[1] == "110"
    code, data = run_json(capsys, "sections", "d", "1")
    assert data["sections"] == ["1", "b"]
    assert data["perm"] == [0, 1]


# Pinned stdout of `grigor sections WORD LEVEL`, text and --json: the perm
# comes from leafperm, the sections from tree.sections_at.
SECTIONS = {
    ("1", "0"): (
        "perm [0]\nsections 1",
        '{"level":0,"perm":[0],"schema":1,"sections":["1"]}',
    ),
    ("a", "1"): (
        "perm [1, 0]\nsections 1 1",
        '{"level":1,"perm":[1,0],"schema":1,"sections":["1","1"]}',
    ),
    ("d", "2"): (
        "perm [0, 1, 2, 3]\nsections 1 1 a c",
        '{"level":2,"perm":[0,1,2,3],"schema":1,"sections":["1","1","a","c"]}',
    ),
    ("abad", "3"): (
        "perm [1, 0, 2, 3, 6, 7, 5, 4]\nsections 1 1 1 b a d 1 1",
        '{"level":3,"perm":[1,0,2,3,6,7,5,4],"schema":1,"sections":["1","1","1","b","a","d","1","1"]}',
    ),
    ("ab", "4"): (
        "perm [10, 11, 8, 9, 12, 13, 14, 15, 4, 5, 6, 7, 0, 1, 2, 3]\nsections 1 1 1 1 1 1 a c 1 1 1 1 1 1 1 1",
        '{"level":4,"perm":[10,11,8,9,12,13,14,15,4,5,6,7,0,1,2,3],"schema":1,"sections":["1","1","1","1","1","1","a","c","1","1","1","1","1","1","1","1"]}',
    ),
}


@pytest.mark.parametrize(("word", "level"), sorted(SECTIONS))
def test_sections_stdout(capsys, word, level):
    text, as_json = SECTIONS[word, level]
    assert run(capsys, "sections", word, level) == (0, text, "")
    assert run(capsys, "--json", "sections", word, level) == (0, as_json, "")


def test_stab_first_active(capsys):
    assert run(capsys, "stab", "b", "1")[1] == "true"
    assert run(capsys, "first-active", "d")[1] == "2"
    assert run(capsys, "first-active", "1")[1] == "none"


def test_k_test_and_embed(capsys):
    assert run(capsys, "k-test", "abab")[1] == "inside"
    assert run(capsys, "k-test", "a")[1] == "outside"
    code, out, _ = run(capsys, "k-embed", "1^+1", "")
    assert out == "badabada"


def test_lift(capsys):
    assert run(capsys, "lift", "a")[1] == "b"
    assert run(capsys, "lift", "--second", "b")[1] == "d"


def test_quotient(capsys):
    code, data = run_json(capsys, "quotient", "3")
    assert (code, data) == (
        0, {"schema": 1, "level": 3, "group_order": 128, "k_image_index": 16}
    )


def test_engel_probe_exit_codes(capsys):
    code, out, _ = run(capsys, "engel-probe", "--g", "d", "--x", "abab", "--bound", "20")
    assert code == 0 and "sink" in out
    # ad has order 4; the tower against daca survives past depth 6
    code, out, _ = run(
        capsys, "engel-probe", "--g", "ad", "--x", "daca", "--bound", "6"
    )
    assert code == 1
    assert "no sink" in out


def test_lemma_subcommands(capsys):
    code, data = run_json(capsys, "lemma1", "--k", "1^+1", "--g", "1", "--m", "4")
    assert code == 0 and data["holds"] is True
    code, data = run_json(capsys, "lemma2", "--x", "a", "--y", "badabada", "--m", "1")
    assert code == 0 and data["holds"] is True


@pytest.mark.parametrize(
    "argv",
    [
        # Towers that sink: the walk stops at the first trivial entry.
        ("lemma2", "--x", "a", "--y", "d", "--m", "100000000"),
        ("lemma1", "--k", "1^+1", "--g", "1", "--m", "100000000"),
        # Past the word-length cap: the word tower would reach 65,536
        # letters at depth 14.
        ("lemma2", "--x", "a", "--y", "badabada", "--m", "40"),
    ],
)
def test_lemma_checks_are_bounded(argv):
    proc = run_child("-m", "grigor.cli", *argv, timeout=10)
    assert (proc.returncode, proc.stdout) == (0, "true\n"), proc.stderr


def test_replay_and_verify_round_trip(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "replay-left", "a", "-N", "3", "--output", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.startswith("OK")

    data = json.loads(path.read_text())
    data["bound"] = 7
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1 and out.startswith("FAIL")


def test_replay_right_cli(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "replay-right", "a", "-N", "2", "--output", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.startswith("OK")


@pytest.mark.parametrize("command", ["replay-left", "replay-right"])
@pytest.mark.parametrize("x", ["1", "adadadad"])  # (ad)^4 = 1
def test_replay_rejects_trivial_x(capsys, command, x):
    assert run(capsys, command, x, "-N", "3") == (2, "", "error: x must be nontrivial")


def test_replay_left_rejects_non_involution(capsys):
    # ad has order 4.
    assert run(capsys, "replay-left", "ad", "-N", "3") == (
        2, "", "error: x must be an involution; non-involutions are handled empirically"
    )


def test_search_pair(capsys):
    code, data = run_json(capsys, "search-pair", "-N", "2")
    assert code == 0
    assert data["h"] and data["y1"]


def test_survey(capsys):
    code, data = run_json(
        capsys, "survey", "--samples", "5", "--bound", "30", "--opponents", "2"
    )
    assert code == 0
    assert data["sinks"] == 10


@pytest.mark.parametrize(
    ("argv", "name"),
    [
        (("survey", "--samples", "-2"), "samples"),
        (("survey", "--samples", "1", "--opponents", "-3"), "opponents"),
        (("replay-left", "a", "-N", "8", "--budget", "-1"), "budget"),
        (("replay-right", "a", "-N", "3", "--budget", "-1"), "budget"),
        (("search-pair", "-N", "3", "--budget", "-4"), "budget"),
    ],
)
def test_negative_counts_are_usage_errors(capsys, argv, name):
    assert run(capsys, *argv) == (2, "", f"error: {name} must be >= 0")


@pytest.mark.parametrize(
    "argv",
    [
        ("survey", "--samples", "0", "--bound", "-1"),
        ("survey", "--samples", "2", "--opponents", "0", "--bound", "0"),
    ],
)
def test_survey_checks_its_bound_when_it_runs_no_probe(capsys, argv):
    assert run(capsys, *argv) == (2, "", "error: bound must be >= 1")


def test_resource_cap_exit(capsys):
    code, _, err = run(capsys, "replay-left", "a", "-N", "11", "--budget", "3")
    assert code == 3
    assert "cap" in err


def test_json_round_trip_words(capsys):
    for literal in ("1", "a", "aba", "bc"):
        _, data = run_json(capsys, "reduce", literal)
        _, again = run_json(capsys, "reduce", data["word"])
        assert data["word"] == again["word"]


@pytest.mark.parametrize("text", ["[]", "3", '"right_refutation"', "null"])
def test_verify_rejects_non_object(capsys, tmp_path, text):
    path = tmp_path / "cert.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert out.startswith("FAIL: malformed certificate")
    assert err == ""


DEEP = "[" * 1000 + "]" * 1000  # past the JSON decoder's recursion limit


@pytest.mark.parametrize(
    "text",
    [DEEP, "[" * 1000, '{"schema":1,"kind":"k_membership","word":%s}' % DEEP],
    ids=["nested", "unclosed", "in-a-field"],
)
def test_verify_rejects_deep_nesting_as_unreadable(capsys, tmp_path, text):
    # This once escaped as a RecursionError traceback with exit 1.
    path = tmp_path / "cert.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: JSON nested too deeply"


INT_FIELDS = {
    "engel_sink": "n",
    "non_engel_witness": "bound",
    "bounded_left_refutation": "bound",
    "right_refutation_a": "bound",
    "right_refutation_d": "bound",
    "k_membership_inside": "level",
    "k_membership_outside": "level",
}


@pytest.mark.parametrize("name", sorted(INT_FIELDS))
@pytest.mark.parametrize("value", [True, 1.0, "6"])
def test_verify_rejects_non_integer_field(capsys, tmp_path, name, value):
    # True == 1 and 1.0 == 1 in Python; the field must be a JSON integer.
    data = json.loads((GOLDEN / f"{name}.json").read_text())
    data[INT_FIELDS[name]] = value
    path = tmp_path / "cert.json"
    path.write_text(certificates.dumps(data))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert out == f"FAIL: malformed certificate: {INT_FIELDS[name]} must be an integer"


STR_FIELDS = {
    "engel_sink": ["g", "x"],
    "non_engel_witness": ["g", "x", "witness"],
    "bounded_left_refutation": ["x", "x_active", "k", "y", "witness"],
    "right_refutation_a": ["x", "x_active", "h", "y1", "y2", "y"],
    "right_refutation_d": ["x", "x_active", "h", "y1", "y2", "y"],
    "k_membership_inside": ["word", "verdict"],
    "k_membership_outside": ["word", "verdict"],
}


@pytest.mark.parametrize("name", sorted(STR_FIELDS))
def test_verify_rejects_non_string_field(capsys, tmp_path, name):
    # A non-string TWord field once crashed the TWord parser with a traceback.
    path = tmp_path / "cert.json"
    for field in STR_FIELDS[name]:
        for value in (5, None, ["a"]):
            data = json.loads((GOLDEN / f"{name}.json").read_text())
            data[field] = value
            path.write_text(certificates.dumps(data))
            code, out, err = run(capsys, "verify", str(path))
            assert (code, err) == (1, ""), (field, value, err)
            assert out == f"FAIL: malformed certificate: {field} must be a string"


@pytest.mark.parametrize(
    "entry", [[7, "b"], ["x", "b"], [True, "b"], [1.0, "b"], [1, 5], [1], [1, "b", 0], "b"]
)
def test_verify_rejects_malformed_chain_entry(capsys, tmp_path, entry):
    # Every bit other than 0 used to read as 1, so these verified OK.
    data = json.loads((GOLDEN / "right_refutation_d.json").read_text())
    assert data["chain"][0] == [1, "b"]
    data["chain"][0] = entry
    path = tmp_path / "cert.json"
    path.write_text(certificates.dumps(data))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert out == "FAIL: malformed certificate: chain must be a list of [0 or 1, word] pairs"


def _floats(values):
    return [float(v) for v in values]


@pytest.mark.parametrize(
    "name, field, tamper, expected",
    [
        ("bounded_left_refutation", "witness", list, "a string"),
        ("right_refutation_a", "witnesses", lambda ws: None, "a list of strings"),
        ("right_refutation_a", "witnesses", lambda ws: ws[0], "a list of strings"),
        ("right_refutation_d", "witnesses", lambda ws: [list(w) for w in ws], "a list of strings"),
        ("engel_sink", "transcript", _floats, "a list of integers"),
        ("non_engel_witness", "transcript", _floats, "a list of integers"),
        ("non_engel_witness", "transcript", lambda t: None, "a list of integers"),
    ],
    ids=[
        "witness_chars", "witnesses_none", "witnesses_string", "witnesses_char_lists",
        "sink_transcript_floats", "witness_transcript_floats", "transcript_none",
    ],
)
def test_verify_rejects_malformed_witness(capsys, tmp_path, name, field, tamper, expected):
    # A list of characters acts like its string but never equals it, so it
    # counted as moved; 9.0 == 9, so float lengths matched the tower.
    data = json.loads((GOLDEN / f"{name}.json").read_text())
    data[field] = tamper(data[field])
    path = tmp_path / "cert.json"
    path.write_text(certificates.dumps(data))
    code, out, _ = run(capsys, "verify", str(path))
    assert (code, out) == (1, f"FAIL: malformed certificate: {field} must be {expected}")


def test_verify_caps_tower(tmp_path):
    # The tower behind a bound-3 witness outgrows the word-length cap long
    # before depth 30, so verify must stop with exit 3.  It runs in a child
    # process so that an uncapped tower fails the timeout instead of
    # hanging the suite.
    y = replay_right("a", 3).y
    data = certificates.to_dict(left_engel_probe(y, "a", 3))
    data["bound"] = 30
    path = tmp_path / "cert.json"
    path.write_text(certificates.dumps(data))
    proc = run_child("-m", "grigor.cli", "verify", str(path))
    assert proc.returncode == 3
    assert proc.stderr.startswith("resource cap: tower at depth")


def test_verify_rejects_a_long_tword_in_linear_time(tmp_path):
    # A 1 MB certificate whose k has 64,000 factors.  Multiplying in one
    # factor at a time re-copied the growing word, and verify took 26 s
    # (2-core Xeon) to reject it; the child's timeout catches that.
    rng = random.Random(5)
    data = json.loads((GOLDEN / "bounded_left_refutation.json").read_text())
    factors = (f"{make_reduced_word(rng, 12)}^{rng.choice('+-')}1" for _ in range(64_000))
    data["k"] = ";".join(factors)
    path = tmp_path / "cert.json"
    path.write_text(certificates.dumps(data))
    proc = run_child("-m", "grigor.cli", "verify", str(path), timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == "FAIL: y does not embed (flatten(k), 1)\n"


@pytest.mark.parametrize("kind", ["engel_sink", "non_engel_witness"])
@pytest.mark.parametrize("tamper", ["replaced", "last_entry", "missing"])
def test_verify_checks_probe_transcript(capsys, tmp_path, kind, tamper):
    data = json.loads((GOLDEN / f"{kind}.json").read_text())
    if tamper == "replaced":
        data["transcript"] = [1, 2, 3]
    elif tamper == "last_entry":
        data["transcript"][-1] += 1
    else:
        del data["transcript"]
    path = tmp_path / "cert.json"
    path.write_text(certificates.dumps(data))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1 and out.startswith("FAIL: "), out


def test_engel_probe_caps_tower():
    # The word tower outgrows the length cap long before depth 30; the probe
    # decides on section DAGs but must still stop there with exit 3.
    y = replay_right("a", 3).y
    proc = run_child("-m", "grigor.cli", "engel-probe", "--g", y, "--x", "a", "--bound", "30")
    assert proc.returncode == 3
    assert proc.stderr.startswith("resource cap: tower at depth")


def test_engel_probe_word_cap_depth(capsys):
    # The word tower of b against ad first passes the length cap at depth
    # 15; the transcript lengths and this message both come from it.
    assert run(capsys, "engel-probe", "--g", "ad", "--x", "b", "--bound", "40") == (
        3, "", "resource cap: tower at depth 15 grew past 65536 letters"
    )


def test_verify_rejects_inflated_left_bound(tmp_path):
    # k in the golden file has order 64; claiming bound 30 must be refuted
    # from the order of k, without powering k to 2**29.
    golden = GOLDEN / "bounded_left_refutation.json"
    data = json.loads(golden.read_text())
    data["bound"] = 30
    path = tmp_path / "cert.json"
    path.write_text(certificates.dumps(data))
    proc = run_child("-m", "grigor.cli", "verify", str(path))
    assert proc.returncode == 1
    assert proc.stdout.startswith("FAIL: k does not have order > 2^29")


@pytest.mark.parametrize("bound", [20, 20000])
def test_replay_left_high_bound_exhausts(bound):
    # The search names the order by its exponent, so no 2**bound integer is
    # built or printed.
    argv = ("-m", "grigor.cli", "replay-left", "a", "-N", str(bound), "--budget", "3")
    proc = run_child(*argv)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(f"resource cap: no element of order >= 2^{bound} ")


def test_stab_deep_level():
    proc = run_child("-m", "grigor.cli", "stab", "1", "40")
    assert (proc.returncode, proc.stdout) == (0, "true\n")


def test_search_pair_deep():
    # The word tower of this pair has about 21 million letters at depth 20;
    # its section DAG stays small.
    proc = run_child("-m", "grigor.cli", "--json", "search-pair", "-N", "20", timeout=10)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert (data["h"], data["y1"]) == ("d^-1", "dac^-1")


def test_replay_right_deep_verifies(tmp_path):
    path = tmp_path / "cert.json"
    argv = ("-m", "grigor.cli", "replay-right", "a", "-N", "16", "--output", str(path))
    proc = run_child(*argv, timeout=10)
    assert proc.returncode == 0, proc.stderr
    proc = run_child("-m", "grigor.cli", "verify", str(path), timeout=10)
    assert (proc.returncode, proc.stdout) == (
        0, "OK: right-Engel refutation through sink bound 17 confirmed\n"
    ), proc.stderr


def test_sections_depth_cap():
    proc = run_child("-m", "grigor.cli", "sections", "1", "21")
    assert proc.returncode == 3
    assert proc.stderr.startswith("resource cap: sections at level 21")


def test_quotient_runs_without_sympy_or_numpy():
    # The top level, with neither importable nor the oracle; the line
    # sympy's Schreier-Sims printed for it.
    proc = run_child(
        "-c",
        "import sys; sys.modules['sympy'] = sys.modules['numpy'] = None\n"
        "sys.modules['grigor.leafperm'] = None\n"
        "import grigor.cli\n"
        "sys.exit(grigor.cli.main(['quotient', '8']))",
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0,
        "level 8: |G| = 5846006549323611672814739330865132078623730171904, "
        "[G : image(K)] = 16\n",
        "",
    )


# Commands that reach leafperm's oracle or its word_perm, and `quotient`,
# which reaches neither.
WITHOUT_NUMPY = (
    ("replay-right", "a", "-N", "8"),
    ("replay-left", "a", "-N", "6"),
    ("engel-probe", "--g", "ad", "--x", "daca", "--bound", "6"),  # no sink: exit 1
    ("sections", "abcda", "5"),
    ("--json", "sections", "abcda", "5"),
    ("quotient", "3"),
)


@pytest.mark.parametrize("argv", WITHOUT_NUMPY, ids=" ".join)
def test_commands_run_without_numpy(capsys, argv):
    # The same exit code and stdout in this process and in a child where
    # numpy cannot be imported.
    code, out, _ = run(capsys, *argv)
    proc = run_child(
        "-c",
        "import sys; sys.modules['numpy'] = None\n"
        "import grigor.cli\n"
        "sys.exit(grigor.cli.main(sys.argv[1:]))",
        *argv,
    )
    assert (proc.returncode, proc.stdout.strip()) == (code, out), proc.stderr


def test_cli_import_leaves_out_sympy():
    # Membership counts letters, and the level quotients are read off the
    # branch structure, with no permutation and no oracle.
    proc = run_child(
        "-c",
        "import grigor.cli, sys; assert 'sympy' not in sys.modules; "
        "grigor.cli.main(['k-test', 'abab']); assert 'sympy' not in sys.modules; "
        "from grigor import branch; assert branch.certified_plateau() == 3; "
        "assert not {'sympy', 'numpy', 'grigor.leafperm'} & set(sys.modules)",
    )
    assert (proc.returncode, proc.stdout) == (0, "inside\n"), proc.stderr
