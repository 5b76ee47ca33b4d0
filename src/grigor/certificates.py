"""The verifier kernel: certificate records, their JSON form and their replay.

A certificate is as trustworthy as its checker, so all that `verify` reads
is here or in `dag`, `words`, `config` and `errors`, its only grigor
imports: the records, the word `tower` and `probe`, `right_towers`
(Lemma 2, stated once), TWords and K membership.  The issuers `engel` and
`branch` import from here; nothing here loads `leafperm`.

Every certificate is a self-contained transcript, re-checked from its
serialized inputs alone.  Each kind is declared once, in `_KINDS`, keyed
by (schema, kind): the class that issues it, the shape, reader and
writer of each field, and its verifier of the issuing record.
`to_dict`, `from_dict` and `verify` all read that table; `verify` checks
every field's shape, then parses every field, before anything is
computed.

Work that recurs from one certificate to the next is memoized, and no
check is skipped: the verifier's table keeps the towers it has walked
(`Dag.tower`), and `flatten` keeps the words of the 1,024 most recent
TWords.  A memoized TWord and its word stay alive: about 9 bytes for
each byte of the TWord's literal (8 MB of factors and a 1.4 MB word for
a 1 MB literal of 64,000 factors), so at worst the memo holds 1,024
TWords as large as the certificates that carried them.  `grigor verify`
reads one certificate per process.

Every check -- triviality, the section chain, the order of k, the
embedding y, every commutator tower and its moved vertices -- is
section-DAG arithmetic on ids, and each property is checked once.  The
verifiers decide on their own tables of `dag.shared`, "verify" and, for
the probe kinds, "probe-verify", which nothing that issues an answer
fills.  The facts the checks rest on:

- K membership: letter counts in Gamma/K = D8 x Z/2, and St(3) <= K, so
  an even verdict is the level-3 one.
- The embeddings: y is checked by its sections, psi(y) = (k, 1) or
  (y1, y2) read off `dag.nodes`, which decides it since psi is injective
  on St(1) and each element has one id; y lies in K because k, y1 and
  y2 do and K x K <= psi(K).  These three facts are machine-checked in
  tests/test_k_facts.py.
- Probe towers: for g^2 = 1, [x,_{n+1} g] = [x,_n g]^-2, so the tower
  sinks at depth 1 + e([x, g]), where 2^e is the order of [x, g].  This
  involution identity sets the probe's sink depth (`probe`), and
  `Dag.tower` steps by it whenever g is an involution; g^2 = 1 is decided
  exactly, as id equality with the identity, so no other g takes either
  path.  Probe transcripts are checked too: one reduced word length per
  tower depth.
- Right refutations: Lemma 2 (`right_towers`) predicts every entry's
  first section from y's sections, as the tower [h^y1,_{m+1} y1], walked
  once from its conjugated start.  Once y2 and psi(y) are checked the
  prediction cannot miss, so that check is a self-check of the DAG
  arithmetic, not of the certificate.

Serialization is deterministic: sorted keys, fixed separators, no
floats, so identical inputs yield byte-identical files.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Callable, Iterator
from functools import lru_cache
from itertools import count, islice, zip_longest
from typing import Any, NamedTuple

from . import __version__, config
from .dag import A, IDENTITY, Dag, shared
from .errors import WordLengthCapExceeded
from .words import a_parity, commutator, format_word, invert, parse_word, reduce_word


class EngelSink(NamedTuple):
    """Least n with [x,_n g] = 1, plus the reduced tower lengths on the way."""

    g: str
    x: str
    n: int
    transcript: tuple[int, ...]


class NoSinkUpTo(NamedTuple):
    """All towers [x,_m g] for m <= bound are nontrivial; witness moves the last."""

    g: str
    x: str
    bound: int
    transcript: tuple[int, ...]
    witness: str


class BoundedLeftRefutation(NamedTuple):
    """Transcript refuting "x is left-N-Engel".

    The chain records the descent from x to an odd-parity section
    x_active; k has order > 2^(N-1); y embeds (flatten(k), 1); the
    witness vertex is moved by [y,_N x_active].
    """

    x: str
    chain: tuple[tuple[int, str], ...]  # (child bit, section) per descent step
    x_active: str
    k: TWord
    bound: int
    y: str
    witness: str


class RightRefutation(NamedTuple):
    """Transcript refuting "x is right Engel with sink <= N+1".

    y embeds the non-Engel pair data (y1, y2) with y2 = [y1, h]^(g1^-1);
    for each m <= N the vertex witnesses[m-1] is moved by
    [x_active,_{m+1} y].  The verifier also checks Lemma 2 on every
    entry: its first section is the one `right_towers` predicts from y's
    sections, [h,_{m+1} y1]^y1 = [h^y1,_{m+1} y1], once y2 is checked.
    """

    x: str
    chain: tuple[tuple[int, str], ...]
    x_active: str
    h: TWord
    y1: TWord
    y2: TWord
    y: str
    bound: int
    witnesses: tuple[str, ...]


class KMembershipResult(NamedTuple):
    """Inside/Outside for the reduced word, with the level that decided it."""

    word: str
    verdict: str  # "inside" | "outside"
    level: int


Certificate = EngelSink | NoSinkUpTo | BoundedLeftRefutation | RightRefutation | KMembershipResult


def tower(x: str, g: str) -> Iterator[str]:
    """[x,_1 g], [x,_2 g], ... for reduced x and g, each reduced.

    A step is `words.commutator`, which rewrites only at its junctions and
    copies the rest of the entry as slices.  WordLengthCapExceeded past the cap.
    """
    for n in count(1):
        x = commutator(x, g)
        if len(x) > config.WORD_LENGTH_CAP:
            raise WordLengthCapExceeded(
                f"tower at depth {n} grew past {config.WORD_LENGTH_CAP} letters"
            )
        yield x


def probe(dag: Dag, x: str, g: str, depth: int) -> tuple[list[int], int, int]:
    """Walk [x,_m g] for m <= depth on dag, stopping at the first trivial
    entry: (reduced word lengths, last m, id of the last entry).

    For an involution g, [x,_m g] = c^((-2)^(m-1)) with c = [x, g] (see
    `Dag.tower`), so the tower sinks at depth 1 + e(c), where 2^e(c) is
    the order of c.  The DAG then walks no tower to find the sink: only
    the word tower is walked, to min(depth, sink) entries, and the DAG
    builds the entry at depth only when the tower has not sunk by then,
    after the words, so the word length cap raises at the same depth as
    in a walk.  For any other g the two towers are zipped, the word
    first, so its length cap raises before the DAG takes the step.
    A depth below 1 raises ValueError.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    fx, fg = dag.from_word(x), dag.from_word(g)
    if dag.mul(fg, fg) == IDENTITY:
        sink = 1 + dag.order_exponent(dag.commutator(fx, fg))
        lengths = [len(w) for w in islice(tower(x, g), min(depth, sink))]
        if sink <= depth:
            return lengths, sink, IDENTITY
        return lengths, depth, dag.iterated_commutator(fx, fg, depth)
    lengths = []
    towers = zip(tower(x, g), dag.tower(fx, fg))
    for m, (w, t) in enumerate(islice(towers, depth), 1):
        lengths.append(len(w))
        if t == IDENTITY:
            break
    return lengths, m, t


def right_towers(dag: Dag, x: int, y: int, i: int = 0) -> Iterator[tuple[int, int]]:
    """([x,_{m+1} y], its section at vertex i as Lemma 2 predicts it) for m >= 1.

    For x = a.g with g and y in St(1), psi(g) = (g1, g2) and
    psi(y) = (y1, y2), the prediction [(y_{1-i}^-1)^{g_i},_m y_i]^{y_i}
    is read off the sections of a.x and of y.  Conjugating by y_i fixes
    y_i, so [s,_m y_i]^{y_i} = [s^{y_i},_m y_i]: the start is conjugated
    once, and the prediction is one tower walk.  A tower that sinks stays
    trivial, so the shorter one is filled with the identity.
    """
    _, *ys = dag.nodes[y]
    g_i = dag.nodes[dag.mul(A, x)][1 + i]
    start = dag.conjugate(dag.inv(ys[1 - i]), dag.mul(g_i, ys[i]))
    entries = islice(dag.tower(x, y), 1, None)
    return zip_longest(entries, dag.tower(start, ys[i]), fillvalue=IDENTITY)


T = "abab"  # t = (ab)^2


class TWord(NamedTuple):
    """Formal product of signed conjugates of t: prod (t^w_i)^(s_i).

    Lies in K by construction.  The conjugators w_i are reduced words.
    A product concatenates the factors, the inverse reverses them and
    flips their signs, and a conjugate by w right-multiplies every
    conjugator by w, so each is a TWord again.
    """

    factors: tuple[tuple[str, int], ...] = ()

    def __mul__(self, other: "TWord") -> "TWord":
        return TWord(self.factors + other.factors)


@lru_cache(maxsize=1024)
def flatten(k: TWord) -> str:
    """The reduced word of the formal product.

    The factors' letters are joined and reduced once, which by confluence
    gives the word that multiplying them in turn gives, in linear time.
    The word depends on k alone, so it is memoized per process for the
    1,024 most recent TWords: the right verifier flattens the same h and
    y1 in every certificate of a process, and a y2 per x_active.
    """
    t_inverse = invert(T)
    pieces = (invert(w) + (T if s > 0 else t_inverse) + w for w, s in k.factors)
    return reduce_word("".join(pieces))


def parse_tword(text: str) -> TWord:
    """Parse the semicolon-separated literal, e.g. "1^+1;ab^-1"."""
    text = text.strip()
    if not text:
        return TWord()
    factors = []
    for chunk in text.split(";"):
        base, sep, exp = chunk.partition("^")
        if not sep or exp not in ("+1", "-1"):
            raise ValueError(f"invalid TWord factor {chunk!r}; expected w^+1 or w^-1")
        factors.append((parse_word(base), 1 if exp == "+1" else -1))
    return TWord(tuple(factors))


def format_tword(k: TWord) -> str:
    return ";".join(f"{format_word(w)}^{'+' if s > 0 else '-'}1" for w, s in k.factors)


# St(3) <= K (checked in tests/test_k_facts.py), so Gamma/K is also G_3/K_3:
# an even verdict is the level-3 one.
K_LEVEL = 3


def reduced_membership_in_K(g: str) -> KMembershipResult:
    """Decide membership of the reduced word g in K by its image in Gamma/K.

    Odd `a`-parity words are Outside at level 1: t fixes level 1 and level
    stabilizers are normal, so K <= St(1).  Otherwise g is in K exactly when
    its image in Gamma/K = D8 x Z/2 is 1, where a, d, c and b map to the
    reflections s, s.r, s.r.z and to z, with r = (ad) of order 4 and z
    central (tests/test_k_facts.py, checks 1-3 and 7).  The z part is the
    parity of the b and c letters.  Dropping b leaves a product of
    reflections s.r^e_0 . s.r^e_1 ..., with e_i = 0 for `a` and 1 for c and
    d, which is r^(sum of e_(2i+1) - e_(2i)) when it has an even number of
    factors, and a reflection otherwise.  Its odd and even places then
    hold equally many letters, so the exponent is 0 mod 4 exactly when
    they hold as many `a`s mod 4.
    """
    if a_parity(g):
        return KMembershipResult(g, "outside", 1)
    rest = g.replace("b", "")
    inside = (
        (g.count("b") + g.count("c")) % 2 == 0
        and len(rest) % 2 == 0
        and (rest[::2].count("a") - rest[1::2].count("a")) % 4 == 0
    )
    return KMembershipResult(g, "inside" if inside else "outside", K_LEVEL)


def to_dict(cert: Certificate) -> dict[str, Any]:
    """Serializable dict form of any certificate."""
    for (schema, kind), (issuer, fields, _) in _KINDS.items():
        if type(cert) is issuer:
            data = {"schema": schema, "engine": __version__, "kind": kind}
            for name, field in fields.items():
                data[name] = field.write(getattr(cert, name))
            return data
    raise TypeError(f"not a certificate: {cert!r}")


def membership_certificate(word: str) -> dict[str, Any]:
    """Certificate form of a K-membership verdict."""
    return to_dict(reduced_membership_in_K(reduce_word(word)))


def dumps(data: dict[str, Any]) -> str:
    """Deterministic JSON text (byte-identical for identical inputs)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def from_dict(data: dict[str, Any]) -> Certificate:
    """The record a dict of a known kind and well-shaped fields was written
    from, the inverse of `to_dict`; ValueError if a word does not parse."""
    issuer, fields, _ = _KINDS[data["schema"], data["kind"]]
    return issuer(**{name: field.read(data[name]) for name, field in fields.items()})


def _check_chain(dag: Dag, x: int, chain: tuple, x_active: int) -> str | None:
    """Check that x is nontrivial and replay its section descent on ids;
    None when consistent."""
    if x == IDENTITY:
        return "x is trivial"
    cur = x
    for bit, section_word in chain:
        active, left, right = dag.nodes[cur]
        if active:
            return "chain descends through a word outside St(1)"
        cur = dag.from_word(section_word)
        if cur != (right if bit else left):
            return f"chain section at bit {bit} does not match"
    if cur != x_active:
        return "chain does not end at x_active"
    if not dag.nodes[cur][0]:
        return "x_active is not active at the root"
    return None


_TRANSCRIPT_MISMATCH = "transcript must list the word length of each tower entry"


def _string(value: Any) -> bool:
    return type(value) is str


def _integer(value: Any) -> bool:
    return type(value) is int  # a bool or a float is malformed


def _strings(value: Any) -> bool:
    return type(value) is list and all(map(_string, value))


def _integers(value: Any) -> bool:
    return type(value) is list and all(map(_integer, value))


def _chain(value: Any) -> bool:
    return type(value) is list and all(
        type(entry) is list and len(entry) == 2
        and _integer(entry[0]) and entry[0] in (0, 1) and _string(entry[1])
        for entry in value
    )


# A kind of field: its JSON shape check and what a value failing it must be,
# its reader from JSON into the issuing record, and its writer back.
_Field = namedtuple("_Field", "shape must_be read write")

_WORD = _Field(_string, "a string", parse_word, format_word)
_TWORD = _Field(_string, "a string", parse_tword, format_tword)
_TEXT = _Field(_string, "a string", str, str)  # a vertex or a verdict
_INTEGER = _Field(_integer, "an integer", int, int)
_LENGTHS = _Field(_integers, "a list of integers", tuple, list)
_VERTICES = _Field(_strings, "a list of strings", tuple, list)
_CHAIN = _Field(
    _chain, "a list of [0 or 1, word] pairs",
    lambda chain: tuple((bit, parse_word(section)) for bit, section in chain),
    lambda chain: [[bit, format_word(section)] for bit, section in chain],
)


def verify(data: dict[str, Any]) -> tuple[bool, str]:
    """Re-check a certificate dict; returns (ok, detail)."""
    if not isinstance(data, dict):
        return False, "malformed certificate: not a JSON object"
    schema, kind = data.get("schema"), data.get("kind")
    # Only a JSON integer is a schema (True and 1.0 hash as 1 does), and a
    # kind that is not a string may not be hashable.
    entry = _KINDS.get((schema, kind)) if _integer(schema) and isinstance(kind, str) else None
    if entry is None:
        if not _integer(schema) or all(schema != known for known, _ in _KINDS):
            return False, f"unsupported schema {schema!r}"
        return False, f"unknown certificate kind {kind!r}"
    _, fields, check = entry
    for name, field in fields.items():
        if not field.shape(data.get(name)):
            return False, f"malformed certificate: {name} must be {field.must_be}"
    try:
        return check(from_dict(data))
    except (KeyError, ValueError, TypeError) as exc:
        return False, f"malformed certificate: {exc}"


def _decide(role: str, check: Callable[[Dag], str | None], confirmed: str) -> tuple[bool, str]:
    """Run check on the role's table: (False, the problem it found) or (True, confirmed)."""
    problem = shared(role, check)
    return (False, problem) if problem else (True, confirmed)


def _verify_sink(cert: EngelSink) -> tuple[bool, str]:
    n = cert.n
    if n < 1:
        return False, "sink depth must be >= 1"

    def check(dag: Dag) -> str | None:
        lengths, m, t = probe(dag, cert.x, cert.g, n)
        if m < n:
            return f"tower already trivial at depth {m}"
        if cert.transcript != tuple(lengths):
            return _TRANSCRIPT_MISMATCH
        if t != IDENTITY:
            return f"tower not trivial at claimed depth {n}"
        return None

    return _decide("probe-verify", check, f"sink at depth {n} confirmed")


def _verify_no_sink(cert: NoSinkUpTo) -> tuple[bool, str]:
    bound = cert.bound
    if bound < 1:
        return False, "bound must be >= 1"

    def check(dag: Dag) -> str | None:
        lengths, m, t = probe(dag, cert.x, cert.g, bound)
        if t == IDENTITY:
            return f"tower trivial at depth {m} <= bound"
        if cert.transcript != tuple(lengths):
            return _TRANSCRIPT_MISMATCH
        if dag.act(t, cert.witness) == cert.witness:
            return "witness vertex is not moved by the final tower"
        return None

    return _decide("probe-verify", check, f"no sink through depth {bound} confirmed")


def _verify_bounded_left(cert: BoundedLeftRefutation) -> tuple[bool, str]:
    bound = cert.bound
    if bound < 1:
        return False, "bound must be >= 1"

    def check(dag: Dag) -> str | None:
        fx, fx_active = dag.from_word(cert.x), dag.from_word(cert.x_active)
        if dag.mul(fx, fx) != IDENTITY:
            return "x is not an involution"
        problem = _check_chain(dag, fx, cert.chain, fx_active)
        if problem:
            return problem
        fk, fy = dag.from_word(flatten(cert.k)), dag.from_word(cert.y)
        if dag.order_exponent(fk) <= bound - 1:
            return f"k does not have order > 2^{bound - 1}"
        if dag.nodes[fy] != (0, fk, IDENTITY):
            return "y does not embed (flatten(k), 1)"
        t = dag.iterated_commutator(fy, fx_active, bound)
        if dag.act(t, cert.witness) == cert.witness:
            return "witness vertex is not moved by the tower"
        return None

    return _decide("verify", check, f"left-{bound}-Engel refutation confirmed")


def _verify_right(cert: RightRefutation) -> tuple[bool, str]:
    bound = cert.bound
    if bound < 1:
        return False, "bound must be >= 1"

    def check(dag: Dag) -> str | None:
        fx, fx_active = dag.from_word(cert.x), dag.from_word(cert.x_active)
        problem = _check_chain(dag, fx, cert.chain, fx_active)
        if problem:
            return problem
        g1 = dag.nodes[dag.mul(A, fx_active)][1]
        fy1, fy2 = dag.from_word(flatten(cert.y1)), dag.from_word(flatten(cert.y2))
        bracket = dag.commutator(fy1, dag.from_word(flatten(cert.h)))
        if fy2 != dag.conjugate(bracket, dag.inv(g1)):
            return "y2 is not [y1, h]^(g1^-1)"
        fy = dag.from_word(cert.y)
        if dag.nodes[fy] != (0, fy1, fy2):
            return "y does not embed (y1, y2)"
        if len(cert.witnesses) != bound:
            return "one witness vertex per tower depth is required"
        pairs = islice(right_towers(dag, fx_active, fy), bound)
        for m, ((t, first), witness) in enumerate(zip(pairs, cert.witnesses), 1):
            if dag.act(t, witness) == witness:
                return f"witness at m={m} is not moved by the tower"
            t_active, t_left, _ = dag.nodes[t]
            if t_active or t_left != first:
                return f"tower identity cross-check failed at m={m}"
        return None

    confirmed = f"right-Engel refutation through sink bound {bound + 1} confirmed"
    return _decide("verify", check, confirmed)


def _verify_membership(cert: KMembershipResult) -> tuple[bool, str]:
    result = reduced_membership_in_K(cert.word)  # the _WORD reader reduced it
    if result.verdict != cert.verdict:
        return False, f"recomputed verdict {result.verdict} != {cert.verdict}"
    if cert.level != result.level:
        return False, f"recomputed level {result.level} != {cert.level}"
    return True, f"membership verdict {result.verdict} confirmed"


# Each kind, keyed by (schema, kind): the class that issues it, each
# field's kind in the order the fields are checked and read, and its
# verifier of the issuing record.
_KINDS = {
    (1, "engel_sink"): (
        EngelSink,
        {"g": _WORD, "x": _WORD, "n": _INTEGER, "transcript": _LENGTHS},
        _verify_sink,
    ),
    (1, "non_engel_witness"): (
        NoSinkUpTo,
        {"g": _WORD, "x": _WORD, "bound": _INTEGER, "transcript": _LENGTHS, "witness": _TEXT},
        _verify_no_sink,
    ),
    (1, "bounded_left_refutation"): (
        BoundedLeftRefutation,
        {
            "x": _WORD, "chain": _CHAIN, "x_active": _WORD, "k": _TWORD,
            "bound": _INTEGER, "y": _WORD, "witness": _TEXT,
        },
        _verify_bounded_left,
    ),
    (1, "right_refutation"): (
        RightRefutation,
        {
            "x": _WORD, "chain": _CHAIN, "x_active": _WORD, "h": _TWORD, "y1": _TWORD,
            "y2": _TWORD, "y": _WORD, "bound": _INTEGER, "witnesses": _VERTICES,
        },
        _verify_right,
    ),
    (1, "k_membership"): (
        KMembershipResult,
        {"word": _WORD, "verdict": _TEXT, "level": _INTEGER},
        _verify_membership,
    ),
}
