"""Versioned JSON certificates and their replay verifier.

Every certificate is a self-contained transcript: the verifier re-checks
it from the serialized inputs alone, using only the decision-module
primitives (triviality, the moved-vertex action, decomposition) and, for
every commutator tower, the order of k and the embedding y, section-DAG
arithmetic, so a certificate file can be audited independently of the
run that produced it.  The refutation verifiers keep the "verify" table
of `dag.shared`, which no replay fills.  Probe transcripts are checked
too: one reduced word length per tower depth.  Every field's JSON type
is checked before anything is computed.

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
from .dag import IDENTITY, Dag, shared
from .decide import are_equal, is_trivial
from .engel import (
    BoundedLeftRefutation,
    EngelSink,
    NoSinkUpTo,
    RightRefutation,
    probe_towers,
    right_towers,
)
from .tree import decompose
from .words import (
    format_word,
    invert,
    multiply,
    parse_word,
    reduce_word,
)

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


def _check_chain(x: str, chain: list[list[Any]], x_active: str) -> str | None:
    """Replay the section descent; None when consistent."""
    cur = x
    for bit, section_word in chain:
        d = decompose(cur)
        if d.active:
            return "chain descends through a word outside St(1)"
        expected = d.left if bit == 0 else d.right
        if not are_equal(expected, section_word):
            return f"chain section at bit {bit} does not match"
        cur = section_word
    if not are_equal(cur, x_active):
        return "chain does not end at x_active"
    if not cur.count("a") & 1:
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


def _verify_sink(data: dict[str, Any]) -> tuple[bool, str]:
    g = parse_word(data["g"])
    x = parse_word(data["x"])
    n = data["n"]
    transcript = data["transcript"]
    if n < 1:
        return False, "sink depth must be >= 1"
    dag = Dag()
    lengths: list[int] = []
    for m, (w, t) in enumerate(islice(probe_towers(dag, x, g), n), 1):
        lengths.append(len(w))
        if m < n and t == 0:  # id 0 is the identity
            return False, f"tower already trivial at depth {m}"
    if transcript != lengths:
        return False, _TRANSCRIPT_MISMATCH
    if t != 0:
        return False, f"tower not trivial at claimed depth {n}"
    return True, f"sink at depth {n} confirmed"


def _verify_no_sink(data: dict[str, Any]) -> tuple[bool, str]:
    g = parse_word(data["g"])
    x = parse_word(data["x"])
    bound = data["bound"]
    transcript = data["transcript"]
    if bound < 1:
        return False, "bound must be >= 1"
    dag = Dag()
    lengths: list[int] = []
    for m, (w, t) in enumerate(islice(probe_towers(dag, x, g), bound), 1):
        lengths.append(len(w))
        if t == 0:
            return False, f"tower trivial at depth {m} <= bound"
    if transcript != lengths:
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
    if is_trivial(x):
        return False, "x is trivial"
    if not is_trivial(x + x):
        return False, "x is not an involution"
    chain = [[bit, parse_word(w)] for bit, w in data["chain"]]
    problem = _check_chain(x, chain, x_active)
    if problem:
        return False, problem
    flat = flatten(k)

    def check(dag: Dag) -> str | None:
        fk, fy = dag.from_word(flat), dag.from_word(y)
        if dag.order_exponent(fk) <= bound - 1:
            return f"k does not have order > 2^{bound - 1}"
        if fy != dag.from_word(emb_pair(k, TWord())):
            return "y does not embed (flatten(k), 1)"
        d = decompose(y)
        if d.active or dag.from_word(d.left) != fk or dag.from_word(d.right) != IDENTITY:
            return "decomposition of y is not (flatten(k), 1)"
        towers = dag.tower(fy, dag.from_word(x_active))
        t = next(islice(towers, bound - 1, None))
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
    if is_trivial(x):
        return False, "x is trivial"
    chain = [[bit, parse_word(w)] for bit, w in data["chain"]]
    problem = _check_chain(x, chain, x_active)
    if problem:
        return False, problem
    g1 = decompose(multiply("a", x_active)).left
    expected_y2 = y1.commutator_with(h).conjugated(invert(g1))
    if not are_equal(flatten(y2), flatten(expected_y2)):
        return False, "y2 is not [y1, h]^(g1^-1)"
    if not are_equal(y, emb_pair(y1, y2)):
        return False, "y does not embed (y1, y2)"
    if len(witnesses) != bound:
        return False, "one witness vertex per tower depth is required"

    def check(dag: Dag) -> str | None:
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
