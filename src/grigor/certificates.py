"""Versioned JSON certificates and their replay verifier.

Every certificate is a self-contained transcript: the verifier re-checks
it from the serialized inputs alone, so a certificate file can be audited
independently of the run that produced it.  Each kind is declared once,
in `_KINDS`: the class that issues it, the shape, reader and writer of
each field, and its verifier of the issuing record.  `to_dict`,
`from_dict` and `verify` all read that table; `verify` checks every
field's shape, then parses every field, before anything is computed.

Every check -- triviality, the section chain, the order of k, the
embedding y, every commutator tower and its moved vertices -- is
section-DAG arithmetic on ids, and each property is checked once: y is
checked by its sections, psi(y) = (y1, y2) read off `dag.nodes`, which
decides it since psi is injective on St(1) and each element has one id.
The refutation verifiers decide only on the "verify" table of
`dag.shared`, and the probe verifiers, which walk `engel.probe` as the
probes do, only on its small "probe-verify" table: nothing that issues
an answer fills either.
Probe transcripts are checked too: one reduced word length per tower
depth.

Serialization is deterministic: sorted keys, fixed separators, no
floats, so identical inputs yield byte-identical files.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import islice
from typing import Any

from . import __version__, config
from .branch import (
    KMembershipResult, flatten, format_tword, membership_in_K, parse_tword, reduced_membership_in_K
)
from .dag import A, IDENTITY, Dag, shared
from .engel import (
    BoundedLeftRefutation,
    EngelSink,
    NoSinkUpTo,
    RightRefutation,
    probe,
    right_towers,
)
from .words import format_word, parse_word

Certificate = (
    EngelSink | NoSinkUpTo | BoundedLeftRefutation | RightRefutation | KMembershipResult
)


def to_dict(cert: Certificate) -> dict[str, Any]:
    """Serializable dict form of any certificate."""
    for kind, (issuer, fields, _) in _KINDS.items():
        if type(cert) is issuer:
            data = {"schema": config.SCHEMA_VERSION, "engine": __version__, "kind": kind}
            for name, field in fields.items():
                data[name] = field.write(getattr(cert, name))
            return data
    raise TypeError(f"not a certificate: {cert!r}")


def membership_certificate(word: str) -> dict[str, Any]:
    """Certificate form of a K-membership verdict."""
    return to_dict(membership_in_K(word))


def dumps(data: dict[str, Any]) -> str:
    """Deterministic JSON text (byte-identical for identical inputs)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def from_dict(data: dict[str, Any]) -> Certificate:
    """The record a dict of a known kind and well-shaped fields was written
    from, the inverse of `to_dict`; ValueError if a word does not parse."""
    issuer, fields, _ = _KINDS[data["kind"]]
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
    schema = data.get("schema")
    if not _integer(schema) or schema != config.SCHEMA_VERSION:
        return False, f"unsupported schema {schema!r}"
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        return False, f"unknown certificate kind {kind!r}"
    _, fields, check = _KINDS[kind]
    for name, field in fields.items():
        if not field.shape(data.get(name)):
            return False, f"malformed certificate: {name} must be {field.must_be}"
    try:
        return check(from_dict(data))
    except (KeyError, ValueError, TypeError) as exc:
        return False, f"malformed certificate: {exc}"


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

    problem = shared("probe-verify", check)
    if problem:
        return False, problem
    return True, f"sink at depth {n} confirmed"


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

    problem = shared("probe-verify", check)
    if problem:
        return False, problem
    return True, f"no sink through depth {bound} confirmed"


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

    problem = shared("verify", check)
    if problem:
        return False, problem
    return True, f"left-{bound}-Engel refutation confirmed"


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
        commutator = dag.commutator(fy1, dag.from_word(flatten(cert.h)))
        if fy2 != dag.conjugate(commutator, dag.inv(g1)):
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

    problem = shared("verify", check)
    if problem:
        return False, problem
    return True, f"right-Engel refutation through sink bound {bound + 1} confirmed"


def _verify_membership(cert: KMembershipResult) -> tuple[bool, str]:
    result = reduced_membership_in_K(cert.word)  # the _WORD reader reduced it
    if result.verdict != cert.verdict:
        return False, f"recomputed verdict {result.verdict} != {cert.verdict}"
    if cert.level != result.level:
        return False, f"recomputed level {result.level} != {cert.level}"
    return True, f"membership verdict {result.verdict} confirmed"


# Each kind: the class that issues it, each field's kind in the order the
# fields are checked and read, and its verifier of the issuing record.
_KINDS = {
    "engel_sink": (
        EngelSink,
        {"g": _WORD, "x": _WORD, "n": _INTEGER, "transcript": _LENGTHS},
        _verify_sink,
    ),
    "non_engel_witness": (
        NoSinkUpTo,
        {"g": _WORD, "x": _WORD, "bound": _INTEGER, "transcript": _LENGTHS, "witness": _TEXT},
        _verify_no_sink,
    ),
    "bounded_left_refutation": (
        BoundedLeftRefutation,
        {
            "x": _WORD, "chain": _CHAIN, "x_active": _WORD, "k": _TWORD,
            "bound": _INTEGER, "y": _WORD, "witness": _TEXT,
        },
        _verify_bounded_left,
    ),
    "right_refutation": (
        RightRefutation,
        {
            "x": _WORD, "chain": _CHAIN, "x_active": _WORD, "h": _TWORD, "y1": _TWORD,
            "y2": _TWORD, "y": _WORD, "bound": _INTEGER, "witnesses": _VERTICES,
        },
        _verify_right,
    ),
    "k_membership": (
        KMembershipResult,
        {"word": _WORD, "verdict": _TEXT, "level": _INTEGER},
        _verify_membership,
    ),
}
