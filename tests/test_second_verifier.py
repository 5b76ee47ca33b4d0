"""`certificates.verify` against the second verifier of second_verifier.py.

The second verifier decides every claim by word and array kernels, with
no section DAG, no leafperm and no check or memo of `certificates`, so
where it checks a case the two must give one verdict.  It accepts every
golden file and agrees with the pinned corruption and forgery tables.  A
hypothesis test issues honest certificates of every kind for drawn
elements, applies at most one semantic edit to each, and compares the
verdicts twice in one process, the second pass in reverse order on the
memos the first left.  A memo on the verify path broken on purpose makes
the two disagree.  An AST guard and a run with the DAG, leafperm and the
kernel's checks poisoned keep the second verifier independent of them.
"""

import ast
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grigor import certificates, leafperm
from grigor.branch import membership_in_K
from grigor.certificates import (
    BoundedLeftRefutation, EngelSink, KMembershipResult, NoSinkUpTo, RightRefutation, TWord,
    to_dict,
)
from grigor.dag import Dag
from grigor.decide import is_trivial
from grigor.engel import left_engel_probe, replay_bounded_left, replay_right
from grigor.errors import CapExceeded
from grigor.words import invert, reduce_word

import second_verifier
import test_corrupted_certificates as corrupted_table
import test_rejections_reached as forged_table

HERE = Path(__file__).parent
GOLDEN = {
    path.stem: json.loads(path.read_text(encoding="utf-8"))
    for path in sorted((HERE / "golden").glob("*.json"))
}


def compared(cases) -> list[tuple]:
    """(name, verify's ok or None where it stops at a cap, the reference
    verdict) for each (name, certificate dict) case, in order."""
    results = []
    for name, data in cases:
        try:
            ok, _ = certificates.verify(data)
        except CapExceeded:
            ok = None
        results.append((name, ok, second_verifier.check(data)))
    return results


def disagreements(results) -> list[str]:
    """The compared cases that the reference checks and verify decides otherwise."""
    return [
        f"{name}: verify {ok}, reference {reference}"
        for name, ok, reference in results
        if reference.ok is not None and ok != reference.ok
    ]


def test_reference_accepts_every_golden_file():
    for name, data in GOLDEN.items():
        assert second_verifier.check(data).ok is True, name
    assert len(GOLDEN) == 7


def test_reference_agrees_with_the_pinned_tables():
    corrupted = json.loads(corrupted_table.VERDICTS.read_text(encoding="utf-8"))
    forged = json.loads(forged_table.FORGED.read_text(encoding="utf-8"))
    cases = [(name, case, corrupted[name][0]) for name, case in corrupted_table.corrupted()]
    cases += [(name, forge(), forged[name][0]) for name, forge in forged_table.FORGERIES.items()]
    assert len(cases) == 255 + 9
    unchecked = []
    for name, case, pinned in cases:
        ok = second_verifier.check(case).ok
        if ok is None:
            unchecked.append(name)
        else:
            assert ok == pinned, name
    # The pinned witnesses lie at depth <= 9 and no corrupted probe
    # outgrows the word cap, so the reference checks every case.
    assert unchecked == []


WORDS = st.text("abcd", max_size=8).map(reduce_word)
NONTRIVIAL = WORDS.filter(lambda x: not is_trivial(x))
CONJUGATORS = st.text("abcd", max_size=6).map(reduce_word)
INVOLUTIONS = st.builds(
    lambda w, s: reduce_word(invert(w) + s + w),
    CONJUGATORS,
    st.sampled_from(["a", "b", "c", "d", "adad"]),
)
NON_INVOLUTIONS = st.text("abcd", min_size=2, max_size=6).map(reduce_word).filter(
    lambda g: not is_trivial(g + g)
)
K_ELEMENTS = CONJUGATORS.map(lambda w: certificates.flatten(TWord(((w, 1),))))


def honest(draw) -> list:
    """A certificate of each issuing route for drawn elements: a right
    refutation, N <= 8; a bounded-left one, N <= 6; probes of an
    involution and of a non-involution; and a K-membership verdict."""
    return [
        replay_right(draw(NONTRIVIAL), draw(st.integers(1, 8))),
        replay_bounded_left(draw(INVOLUTIONS), draw(st.integers(1, 6))),
        left_engel_probe(draw(INVOLUTIONS), draw(WORDS), draw(st.integers(1, 8))),
        left_engel_probe(draw(NON_INVOLUTIONS), draw(WORDS), draw(st.integers(1, 4))),
        membership_in_K(draw(WORDS | K_ELEMENTS)),
    ]


def _other_vertex(draw, vertex: str) -> str:
    """Another vertex of the same depth."""
    flip = draw(st.integers(1, (1 << len(vertex)) - 1))
    return format(int(vertex, 2) ^ flip, f"0{len(vertex)}b")


def _k_element(draw, word: str) -> str:
    """The same element spelled otherwise, (ad)^4 = 1, or another element of K."""
    return draw(st.sampled_from([reduce_word(word + "adadadad"), draw(K_ELEMENTS)]))


def _tword(draw, k: TWord) -> TWord:
    """Other factors for the same element, or another element of K."""
    w = draw(CONJUGATORS)
    return draw(st.sampled_from([k * TWord(((w, 1), (w, -1))), TWord(((w, 1),))]))


def _x_with_the_same_active_section(cert):
    """x conjugated by an element of St(1) trivial at the chain's first
    vertex, d = (1, b) or ada = (b, 1), or respelled when x is active."""
    if not cert.chain:
        return reduce_word(cert.x + "adadadad")
    z = "ada" if cert.chain[0][0] else "d"
    return reduce_word(z + cert.x + z)


def edit(draw, cert):
    """(the name of at most one semantic edit, the edited record)."""
    edits = {"none": lambda: cert}
    if isinstance(cert, (NoSinkUpTo, BoundedLeftRefutation)):
        edits["witness"] = lambda: cert._replace(witness=_other_vertex(draw, cert.witness))
    if isinstance(cert, RightRefutation):
        def witnesses():
            i = draw(st.integers(0, cert.bound - 1))
            moved = list(cert.witnesses)
            moved[i] = _other_vertex(draw, moved[i])
            return cert._replace(witnesses=tuple(moved))
        edits["witness"] = witnesses
    if isinstance(cert, (BoundedLeftRefutation, RightRefutation)):
        edits["y"] = lambda: cert._replace(y=_k_element(draw, cert.y))
        edits["x"] = lambda: cert._replace(x=_x_with_the_same_active_section(cert))
    if isinstance(cert, BoundedLeftRefutation):
        edits["k"] = lambda: cert._replace(k=_tword(draw, cert.k))
    if isinstance(cert, RightRefutation):
        edits["y2"] = lambda: cert._replace(y2=_tword(draw, cert.y2))
    if isinstance(cert, EngelSink):
        edits["n"] = lambda: cert._replace(n=cert.n + draw(st.sampled_from((1, -1))))
    if isinstance(cert, (EngelSink, NoSinkUpTo)):
        def transcript():
            i = draw(st.integers(0, len(cert.transcript) - 1))
            lengths = list(cert.transcript)
            lengths[i] += draw(st.sampled_from((1, -1)))
            return cert._replace(transcript=tuple(lengths))
        edits["transcript"] = transcript
    if isinstance(cert, KMembershipResult):
        flipped = {"inside": "outside", "outside": "inside"}[cert.verdict]
        edits["verdict"] = lambda: cert._replace(verdict=flipped)
    name = draw(st.sampled_from(sorted(edits)))
    return name, edits[name]()


def test_reference_agrees_with_verify_on_edited_certificates():
    cases = []

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.data())
    def first_pass(draws):
        for cert in honest(draws.draw):
            name, edited = edit(draws.draw, cert)
            data = to_dict(edited)
            case = (f"{data['kind']}:{name}:{certificates.dumps(data)}", data)
            assert not disagreements(compared([case]))
            cases.append(case)

    first_pass()
    # The second pass reads the memos the first left, in the reverse order.
    cases.reverse()
    results = compared(cases)
    assert not disagreements(results)
    drawn = [(data, ref) for (_, data), (_, _, ref) in zip(cases, results)]
    checked = Counter(data["kind"] for data, ref in drawn if ref.ok is not None)
    assert len(checked) == 5 and min(checked.values()) >= 20, checked
    on_x = [
        data for data, ref in drawn
        if data["kind"] == "right_refutation" and data["chain"] and ref.on_x
    ]
    assert len(on_x) >= 10
    edited = Counter((ok, ref.ok) for name, ok, ref in results if name.split(":")[1] != "none")
    assert edited[True, True] >= 5 and edited[False, False] >= 20, edited


@pytest.fixture
def honest_cases():
    """The golden files and honest certificates, issued before any break."""
    issued = [replay_right(x, n) for x in ("a", "d", "ac", "dab") for n in (2, 5)]
    issued += [replay_bounded_left(x, n) for x in ("a", "b", "aca") for n in (2, 4)]
    issued += [
        left_engel_probe(g, x, n) for g in ("d", "ad") for x in ("abab", "daca", "b", "a")
        for n in (3, 6)
    ]
    return list(GOLDEN.items()) + [(f"issued {i}", to_dict(c)) for i, c in enumerate(issued)]


def test_honest_cases_agree(honest_cases):
    assert not disagreements(compared(honest_cases))


def test_a_flatten_memo_answering_for_another_tword_is_caught(honest_cases, monkeypatch):
    # A memo keyed by the number of factors hands one TWord's word to the next.
    words = {}
    flatten = certificates.flatten

    def keyed_by_factor_count(k):
        return words.setdefault(len(k.factors), flatten(k))

    monkeypatch.setattr(certificates, "flatten", keyed_by_factor_count)
    assert disagreements(compared(honest_cases))


def test_a_tower_memo_reading_another_towers_entries_is_caught(honest_cases, monkeypatch):
    # A memo keyed by g alone reads the entries walked for another x.
    walk = Dag.tower

    def keyed_by_g(self, x, g):
        x, g = next((key for key in self._towers if key[1] == g), (x, g))
        return walk(self, x, g)

    monkeypatch.setattr(Dag, "tower", keyed_by_g)
    assert disagreements(compared(honest_cases))


FORBIDDEN_MODULES = ("grigor.dag", "grigor.leafperm", "grigor.engel")
# The section DAG's entry points, and the checks and memos of `certificates`.
FORBIDDEN_NAMES = {
    "shared", "Dag", "verify", "probe", "right_towers", "flatten", "tower",
    "reduced_membership_in_K",
}
FORBIDDEN_PREFIXES = ("_verify_", "_check_")


def independence_problems(source: str) -> list[str]:
    """The forbidden modules a source imports and the forbidden names it
    reads, where `flatten` is allowed as an attribute of word_reference."""
    tree = ast.parse(source)
    reference = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "word_reference"
    }
    problems = []
    for node in ast.walk(tree):
        modules, names = [], []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            modules = [module] + [f"{module}.{alias.name}" for alias in node.names]
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in reference):
                names = [node.attr]
        problems += [m for m in modules if m.startswith(FORBIDDEN_MODULES)]
        problems += [n for n in names if n in FORBIDDEN_NAMES or n.startswith(FORBIDDEN_PREFIXES)]
    return problems


def test_second_verifier_imports_and_names_nothing_forbidden():
    source = Path(second_verifier.__file__).read_text(encoding="utf-8")
    assert independence_problems(source) == []


@pytest.mark.parametrize(
    "line",
    [
        "from grigor.dag import IDENTITY", "import grigor.leafperm", "from grigor import engel",
        "from grigor.certificates import flatten", "certificates.verify(data)",
        "certificates.flatten(k)", "table = shared", "Dag()", "_verify_right(cert)",
        "_check_chain(dag, x, chain, x_active)",
    ],
)
def test_the_guard_finds_each_forbidden_use(line):
    allowed = "import word_reference as ref\nref.flatten(k)\n"
    assert independence_problems(allowed) == []
    assert independence_problems(f"{allowed}{line}\n")


def test_reference_runs_with_the_dag_leafperm_and_kernel_checks_poisoned(monkeypatch):
    def poisoned(*args, **kwargs):
        raise AssertionError("the second verifier reached a poisoned routine")

    for owner, names in [
        (Dag, ["__init__", "from_word", "node", "mul", "tower"]),
        (leafperm, ["_enter", "_check_level"]),
        (certificates, [
            name for name in vars(certificates)
            if name in FORBIDDEN_NAMES or name.startswith(FORBIDDEN_PREFIXES)
        ]),
    ]:
        for name in names:
            monkeypatch.setattr(owner, name, poisoned)
    test_reference_accepts_every_golden_file()
    corrupted = json.loads(corrupted_table.VERDICTS.read_text(encoding="utf-8"))
    for name, case in corrupted_table.corrupted():
        assert second_verifier.check(case).ok == corrupted[name][0], name
