"""Versioned JSON certificates and their replay verifier.

Every certificate is a self-contained transcript: the verifier re-checks
it from the serialized inputs alone, so a certificate file can be audited
independently of the run that produced it.  Each kind is declared once,
in `_KINDS`: the class that issues it, the JSON shape and writer of each
field, and its verifier.  `to_dict`, the shape check that runs before
anything is computed, and `verify`'s dispatch all read that table.

Every check -- triviality, the section chain, the order of k, the
embedding y, every commutator tower and its moved vertices -- is
section-DAG arithmetic on ids, and each property is checked once: y is
checked by its sections, psi(y) = (y1, y2) read off `dag.nodes`, which
decides it since psi is injective on St(1) and each element has one id.
The refutation verifiers decide only on the "verify" table of
`dag.shared`, which nothing that issues an answer fills; probe verifiers
walk a fresh Dag with `engel.probe`, the walk the probes issue from.
Probe transcripts are checked too: one reduced word length per tower
depth.

Serialization is deterministic: sorted keys, fixed separators, no
floats, so identical inputs yield byte-identical files.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Any

from . import __version__, config
from .branch import flatten, format_tword, membership_in_K, parse_tword
from .dag import A, IDENTITY, Dag, shared
from .engel import (
    BoundedLeftRefutation,
    EngelSink,
    NoSinkUpTo,
    RightRefutation,
    probe,
    right_towers,
)
from .words import format_word, parse_word, reduce_word

Certificate = EngelSink | NoSinkUpTo | BoundedLeftRefutation | RightRefutation


def _header(kind: str) -> dict[str, Any]:
    return {"schema": config.SCHEMA_VERSION, "engine": __version__, "kind": kind}


def to_dict(cert: Certificate) -> dict[str, Any]:
    """Serializable dict form of any certificate."""
    for kind, (issuer, fields, _) in _KINDS.items():
        if type(cert) is issuer:
            return _header(kind) | {
                name: write(getattr(cert, name)) for name, (_, write) in fields.items()
            }
    raise TypeError(f"not a certificate: {cert!r}")


def membership_certificate(word: str) -> dict[str, Any]:
    """Certificate form of a K-membership verdict."""
    result = membership_in_K(word)
    return _header("k_membership") | {
        "word": format_word(reduce_word(word)),
        "verdict": result.verdict,
        "level": result.level,
    }


def dumps(data: dict[str, Any]) -> str:
    """Deterministic JSON text (byte-identical for identical inputs)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def serialize(cert: Certificate) -> str:
    return dumps(to_dict(cert))


def _check_chain(dag: Dag, x: int, chain: list[list[Any]], x_active: int) -> str | None:
    """Check that x is nontrivial and replay its section descent on ids;
    None when consistent."""
    if x == IDENTITY:
        return "x is trivial"
    sections = [(bit, parse_word(w)) for bit, w in chain]
    cur = x
    for bit, section_word in sections:
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


_MUST_BE = {
    _string: "a string",
    _integer: "an integer",
    _strings: "a list of strings",
    _integers: "a list of integers",
    _chain: "a list of [0 or 1, word] pairs",
}

# The (shape check, writer) pair of each kind of field.
_WORD = (_string, format_word)
_TWORD = (_string, format_tword)
_TEXT = (_string, str)  # a vertex or a verdict
_INTEGER = (_integer, int)
_LENGTHS = (_integers, list)
_VERTICES = (_strings, list)
_CHAIN = (_chain, lambda chain: [[bit, format_word(section)] for bit, section in chain])


def verify(data: dict[str, Any]) -> tuple[bool, str]:
    """Re-check a certificate dict; returns (ok, detail)."""
    if not isinstance(data, dict):
        return False, "malformed certificate: not a JSON object"
    if data.get("schema") != config.SCHEMA_VERSION:
        return False, f"unsupported schema {data.get('schema')!r}"
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        return False, f"unknown certificate kind {kind!r}"
    _, fields, check = _KINDS[kind]
    for name, (shape, _) in fields.items():
        if not shape(data.get(name)):
            return False, f"malformed certificate: {name} must be {_MUST_BE[shape]}"
    try:
        return check(data)
    except (KeyError, ValueError, TypeError) as exc:
        return False, f"malformed certificate: {exc}"


def _verify_sink(data: dict[str, Any]) -> tuple[bool, str]:
    g = parse_word(data["g"])
    x = parse_word(data["x"])
    n = data["n"]
    if n < 1:
        return False, "sink depth must be >= 1"
    _, lengths, m, t = probe(x, g, n)
    if m < n:
        return False, f"tower already trivial at depth {m}"
    if data["transcript"] != lengths:
        return False, _TRANSCRIPT_MISMATCH
    if t != IDENTITY:
        return False, f"tower not trivial at claimed depth {n}"
    return True, f"sink at depth {n} confirmed"


def _verify_no_sink(data: dict[str, Any]) -> tuple[bool, str]:
    g = parse_word(data["g"])
    x = parse_word(data["x"])
    bound = data["bound"]
    if bound < 1:
        return False, "bound must be >= 1"
    dag, lengths, m, t = probe(x, g, bound)
    if t == IDENTITY:
        return False, f"tower trivial at depth {m} <= bound"
    if data["transcript"] != lengths:
        return False, _TRANSCRIPT_MISMATCH
    if dag.act(t, data["witness"]) == data["witness"]:
        return False, "witness vertex is not moved by the final tower"
    return True, f"no sink through depth {bound} confirmed"


def _verify_bounded_left(data: dict[str, Any]) -> tuple[bool, str]:
    x = parse_word(data["x"])
    x_active = parse_word(data["x_active"])
    k = parse_tword(data["k"])
    y = parse_word(data["y"])
    bound = data["bound"]
    if bound < 1:
        return False, "bound must be >= 1"

    def check(dag: Dag) -> str | None:
        fx, fx_active = dag.from_word(x), dag.from_word(x_active)
        if dag.mul(fx, fx) != IDENTITY:
            return "x is not an involution"
        problem = _check_chain(dag, fx, data["chain"], fx_active)
        if problem:
            return problem
        fk, fy = dag.from_word(flatten(k)), dag.from_word(y)
        if dag.order_exponent(fk) <= bound - 1:
            return f"k does not have order > 2^{bound - 1}"
        if dag.nodes[fy] != (0, fk, IDENTITY):
            return "y does not embed (flatten(k), 1)"
        t = dag.iterated_commutator(fy, fx_active, bound)
        if dag.act(t, data["witness"]) == data["witness"]:
            return "witness vertex is not moved by the tower"
        return None

    problem = shared("verify", check)
    if problem:
        return False, problem
    return True, f"left-{bound}-Engel refutation confirmed"


def _verify_right(data: dict[str, Any]) -> tuple[bool, str]:
    x = parse_word(data["x"])
    x_active = parse_word(data["x_active"])
    h = parse_tword(data["h"])
    y1 = parse_tword(data["y1"])
    y2 = parse_tword(data["y2"])
    y = parse_word(data["y"])
    bound = data["bound"]
    witnesses = data["witnesses"]
    if bound < 1:
        return False, "bound must be >= 1"

    def check(dag: Dag) -> str | None:
        fx, fx_active = dag.from_word(x), dag.from_word(x_active)
        problem = _check_chain(dag, fx, data["chain"], fx_active)
        if problem:
            return problem
        g1 = dag.nodes[dag.mul(A, fx_active)][1]
        fy1, fy2 = dag.from_word(flatten(y1)), dag.from_word(flatten(y2))
        commutator = dag.commutator(fy1, dag.from_word(flatten(h)))
        if fy2 != dag.conjugate(commutator, dag.inv(g1)):
            return "y2 is not [y1, h]^(g1^-1)"
        if dag.nodes[dag.from_word(y)] != (0, fy1, fy2):
            return "y does not embed (y1, y2)"
        if len(witnesses) != bound:
            return "one witness vertex per tower depth is required"
        pairs = islice(right_towers(dag, x_active, y, h, y1), bound)
        for m, ((t, first), witness) in enumerate(zip(pairs, witnesses), 1):
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


def _verify_membership(data: dict[str, Any]) -> tuple[bool, str]:
    result = membership_in_K(parse_word(data["word"]))
    if result.verdict != data["verdict"]:
        return False, f"recomputed verdict {result.verdict} != {data['verdict']}"
    if data["level"] != result.level:
        return False, f"recomputed level {result.level} != {data['level']}"
    return True, f"membership verdict {result.verdict} confirmed"


# Each kind: the class that issues it (k_membership is issued as a dict),
# the (shape check, writer) of each field in the order the shapes are
# checked, and its verifier.
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
        None,
        {"word": _WORD, "verdict": _TEXT, "level": _INTEGER},
        _verify_membership,
    ),
}
