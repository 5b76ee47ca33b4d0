"""Versioned JSON certificates and their replay verifier.

Every certificate is a self-contained transcript: the verifier re-checks
it from the serialized inputs alone, so a certificate file can be audited
independently of the run that produced it.  Every check -- triviality,
the section chain, the order of k, the embedding y, every commutator tower
and its moved vertices -- is section-DAG arithmetic on ids.  The
refutation verifiers decide only on the "verify" table of `dag.shared`,
which nothing that issues an answer fills; probe verifiers make a fresh
Dag.  Probe transcripts are checked too: one reduced word length per
tower depth.  Every field's JSON type is checked before anything is
computed.

Serialization is deterministic: sorted keys, fixed separators, no
floats, so identical inputs yield byte-identical files.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Any

from . import __version__, config
from .branch import (
    TWord,
    emb_pair,
    flatten,
    format_tword,
    membership_in_K,
    parse_tword,
)
from .dag import A, IDENTITY, Dag, shared
from .engel import (
    BoundedLeftRefutation,
    EngelSink,
    NoSinkUpTo,
    RightRefutation,
    probe_towers,
    right_towers,
)
from .words import format_word, parse_word, reduce_word

Certificate = EngelSink | NoSinkUpTo | BoundedLeftRefutation | RightRefutation


def _header(kind: str) -> dict[str, Any]:
    return {"schema": config.SCHEMA_VERSION, "engine": __version__, "kind": kind}


def to_dict(cert: Certificate) -> dict[str, Any]:
    """Serializable dict form of any certificate."""
    if isinstance(cert, EngelSink):
        return _header("engel_sink") | {
            "g": format_word(cert.g),
            "x": format_word(cert.x),
            "n": cert.n,
            "transcript": list(cert.transcript),
        }
    if isinstance(cert, NoSinkUpTo):
        return _header("non_engel_witness") | {
            "g": format_word(cert.g),
            "x": format_word(cert.x),
            "bound": cert.bound,
            "transcript": list(cert.transcript),
            "witness": cert.witness,
        }
    if isinstance(cert, BoundedLeftRefutation):
        return _header("bounded_left_refutation") | {
            "x": format_word(cert.x),
            "chain": [[bit, format_word(sec)] for bit, sec in cert.chain],
            "x_active": format_word(cert.x_active),
            "k": format_tword(cert.k),
            "bound": cert.bound,
            "y": format_word(cert.y),
            "witness": cert.witness,
        }
    if isinstance(cert, RightRefutation):
        return _header("right_refutation") | {
            "x": format_word(cert.x),
            "chain": [[bit, format_word(sec)] for bit, sec in cert.chain],
            "x_active": format_word(cert.x_active),
            "h": format_tword(cert.h),
            "y1": format_tword(cert.y1),
            "y2": format_tword(cert.y2),
            "y": format_word(cert.y),
            "bound": cert.bound,
            "witnesses": list(cert.witnesses),
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
    """Replay the section descent on ids; None when consistent."""
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

# The shape of every field of each kind, checked before any computation.
_SHAPES = {
    "engel_sink": {"g": _string, "x": _string, "n": _integer, "transcript": _integers},
    "non_engel_witness": {
        "g": _string, "x": _string, "bound": _integer,
        "transcript": _integers, "witness": _string,
    },
    "bounded_left_refutation": {
        "x": _string, "chain": _chain, "x_active": _string, "k": _string,
        "bound": _integer, "y": _string, "witness": _string,
    },
    "right_refutation": {
        "x": _string, "chain": _chain, "x_active": _string, "h": _string,
        "y1": _string, "y2": _string, "y": _string, "bound": _integer,
        "witnesses": _strings,
    },
    "k_membership": {"word": _string, "verdict": _string, "level": _integer},
}


def verify(data: dict[str, Any]) -> tuple[bool, str]:
    """Re-check a certificate dict; returns (ok, detail)."""
    if not isinstance(data, dict):
        return False, "malformed certificate: not a JSON object"
    if data.get("schema") != config.SCHEMA_VERSION:
        return False, f"unsupported schema {data.get('schema')!r}"
    kind = data.get("kind")
    shape = _SHAPES.get(kind) if isinstance(kind, str) else None
    for field, check in (shape or {}).items():
        if not check(data.get(field)):
            return False, f"malformed certificate: {field} must be {_MUST_BE[check]}"
    try:
        if kind == "engel_sink":
            return _verify_sink(data)
        if kind == "non_engel_witness":
            return _verify_no_sink(data)
        if kind == "bounded_left_refutation":
            return _verify_bounded_left(data)
        if kind == "right_refutation":
            return _verify_right(data)
        if kind == "k_membership":
            return _verify_membership(data)
    except (KeyError, ValueError, TypeError) as exc:
        return False, f"malformed certificate: {exc}"
    return False, f"unknown certificate kind {kind!r}"


def _probe(x: str, g: str, depth: int) -> tuple[Dag, list[int], int, int]:
    """Walk [x,_m g] for m <= depth on a fresh Dag, stopping at the first
    trivial entry: (dag, word lengths, last m, last id)."""
    dag = Dag()
    lengths: list[int] = []
    for m, (w, t) in enumerate(islice(probe_towers(dag, x, g), depth), 1):
        lengths.append(len(w))
        if t == IDENTITY:
            break
    return dag, lengths, m, t


def _verify_sink(data: dict[str, Any]) -> tuple[bool, str]:
    g = parse_word(data["g"])
    x = parse_word(data["x"])
    n = data["n"]
    if n < 1:
        return False, "sink depth must be >= 1"
    _, lengths, m, t = _probe(x, g, n)
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
    dag, lengths, m, t = _probe(x, g, bound)
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
        if fx == IDENTITY:
            return "x is trivial"
        if dag.mul(fx, fx) != IDENTITY:
            return "x is not an involution"
        problem = _check_chain(dag, fx, data["chain"], fx_active)
        if problem:
            return problem
        fk, fy = dag.from_word(flatten(k)), dag.from_word(y)
        if dag.order_exponent(fk) <= bound - 1:
            return f"k does not have order > 2^{bound - 1}"
        if fy != dag.from_word(emb_pair(k, TWord())):
            return "y does not embed (flatten(k), 1)"
        if dag.nodes[fy] != (0, fk, IDENTITY):
            return "decomposition of y is not (flatten(k), 1)"
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
        if fx == IDENTITY:
            return "x is trivial"
        problem = _check_chain(dag, fx, data["chain"], fx_active)
        if problem:
            return problem
        g1 = dag.nodes[dag.mul(A, fx_active)][1]
        commutator = dag.commutator(dag.from_word(flatten(y1)), dag.from_word(flatten(h)))
        if dag.from_word(flatten(y2)) != dag.conjugate(commutator, dag.inv(g1)):
            return "y2 is not [y1, h]^(g1^-1)"
        if dag.from_word(y) != dag.from_word(emb_pair(y1, y2)):
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
