"""A second verifier of certificates, for tests only.

`check` re-decides a certificate dict by the word-level and array
algorithms of `word_reference`, with no section DAG, no leafperm and no
check or memo of `certificates`: it reads a certificate through
`certificates.from_dict` and nothing else of the kernel.  Tests compare
its verdicts with those of `certificates.verify`, so a memo or a fast path
that turns a verdict wrong there shows up as a disagreement here.

- Chains: each step's sections by `scan_decompose`, compared as elements
  with the word `are_equal`.
- y: rebuilt by `word_reference.flatten`, `emb_pair` and `right_y2`, and
  compared as an element, so a y2 respelled with other factors passes.
- The order of k: `order_exponent`, by squaring words.
- Sinks and transcripts: the word tower, each step one letter-by-letter
  reduction of x^-1 g^-1 x g, with the word `is_trivial`.
- Witnesses: the array tower (`perm_tower` of `letter_word_perm`s), at
  the level of a certificate's deepest witness, where a vertex is moved
  iff its first leaf leaves its subtree.
- K membership: `level3_membership`, from the level-3 permutation.
- The claim on x itself.  Let v be the vertex the chain's bits spell and Y
  the element with section y at v that fixes every leaf outside v's
  subtree.  x fixes v with section x_active there, so [x,_{m+1} Y] and
  [Y,_N x] are supported in v's subtree with sections [x_active,_{m+1} y]
  and [y,_N x_active].  Where |v| plus the witness depth is at most
  LEVEL_CAP, v followed by each witness must be moved by [x,_{m+1} Y]
  (right) or by [Y,_N x] (bounded-left), checked on level permutations.

Not re-checked: the Lemma 2 cross-check of the right verifier.  Once y2
and psi(y) are checked its prediction cannot miss, so it tests the
section-DAG arithmetic, not the certificate.

A witness deeper than LEVEL_CAP, or a probe tower past the word-length
cap, is answered as unchecked, ok None; `verify` stops at that cap.
"""

from itertools import islice
from typing import NamedTuple

import numpy as np

from grigor import config
from grigor.certificates import (
    BoundedLeftRefutation, EngelSink, KMembershipResult, NoSinkUpTo, RightRefutation, TWord,
    from_dict,
)
from grigor.words import invert

import word_reference as ref

# The deepest level whose array towers are walked, 2**16 leaves.
LEVEL_CAP = 16


class Verdict(NamedTuple):
    ok: bool | None  # None: unchecked
    detail: str
    on_x: bool = False  # the claim was also checked on x, not only on x_active


UNCHECKED = Verdict(None, f"a level past {LEVEL_CAP} or a word past the length cap")


def check(data: dict) -> Verdict:
    """The reference verdict on a certificate dict of well-typed fields."""
    try:
        cert = from_dict(data)
    except (KeyError, ValueError, TypeError) as exc:
        return Verdict(False, f"unreadable: {exc!r}")
    return _CHECKS[type(cert)](cert)


def _word_tower(x: str, g: str, depth: int) -> list[str] | None:
    """[x,_1 g], ... through depth or the first trivial entry, as reduced
    words; None when an entry outgrows the word-length cap."""
    entries = []
    for _ in range(depth):
        x = ref.stack_reduce_word(invert(x) + invert(g) + x + g)
        if len(x) > config.WORD_LENGTH_CAP:
            return None
        entries.append(x)
        if ref.is_trivial(x):
            break
    return entries


def _moved(perm: np.ndarray, vertex: str) -> bool:
    """Whether a level-n permutation moves a vertex of depth <= n: the
    vertex's first level-n descendant leaves its subtree."""
    shift = perm.size.bit_length() - 1 - len(vertex)
    i = int(vertex, 2) if vertex else 0
    return int(perm[i << shift]) >> shift != i


def _lifted(perm: np.ndarray, v: str, level: int) -> np.ndarray:
    """The level permutation of the element with section perm at v that
    fixes every leaf outside v's subtree."""
    base = int(v, 2) << (level - len(v)) if v else 0
    lifted = np.arange(1 << level, dtype=np.int64)
    lifted[base : base + perm.size] = perm + base
    return lifted


def _moves(
    x: str, y: str, claims: dict[int, str], y_first: bool = False, v: str = ""
) -> bool | None:
    """Whether [x,_m Y], or [Y,_m x] when y_first, moves v + claims[m] for
    every m, where Y has section y at v and fixes every leaf outside v's
    subtree; decided on the array tower, None past LEVEL_CAP."""
    if any(vertex.strip("01") for vertex in claims.values()):
        return False
    depth = max(map(len, claims.values()))
    level = len(v) + depth
    if level > LEVEL_CAP:
        return None
    xp, yp = ref.letter_word_perm(x, level), _lifted(ref.letter_word_perm(y, depth), v, level)
    perms = list(islice(ref.perm_tower(*((yp, xp) if y_first else (xp, yp))), max(claims) + 1))
    return all(_moved(perms[m], v + vertex) for m, vertex in claims.items())


def _chain_problem(x: str, chain: tuple, x_active: str) -> str | None:
    """The first step of the section descent from x that fails, or None."""
    if ref.is_trivial(x):
        return "x is trivial"
    cur = x
    for bit, section in chain:
        d = ref.scan_decompose(cur)
        if d.active:
            return "chain descends through a word outside St(1)"
        if not ref.are_equal(section, d.right if bit else d.left):
            return f"chain section at bit {bit} does not match"
        cur = section
    if not ref.are_equal(cur, x_active):
        return "chain does not end at x_active"
    if not ref.scan_decompose(x_active).active:
        return "x_active is not active at the root"
    return None


def _refutation(cert, y_first: bool, claims: dict[int, str], confirmed: str) -> Verdict:
    """The witness claims on the tower of x_active and y, then on that of x and Y."""
    on_active = _moves(cert.x_active, cert.y, claims, y_first)
    if not on_active:
        return UNCHECKED if on_active is None else Verdict(False, "a witness is not moved")
    v = "".join(str(bit) for bit, _ in cert.chain)
    on_x = _moves(cert.x, cert.y, claims, y_first, v)
    if on_x is False:
        return Verdict(False, "a witness below v is not moved by the tower on x", True)
    return Verdict(True, confirmed, on_x is not None)


def _sink(cert: EngelSink) -> Verdict:
    if cert.n < 1:
        return Verdict(False, "sink depth must be >= 1")
    entries = _word_tower(cert.x, cert.g, cert.n)
    if entries is None:
        return UNCHECKED
    if len(entries) < cert.n or not ref.is_trivial(entries[-1]):
        return Verdict(False, "the tower does not first sink at n")
    if cert.transcript != tuple(map(len, entries)):
        return Verdict(False, "transcript mismatch")
    return Verdict(True, "sink confirmed")


def _no_sink(cert: NoSinkUpTo) -> Verdict:
    if cert.bound < 1:
        return Verdict(False, "bound must be >= 1")
    entries = _word_tower(cert.x, cert.g, cert.bound)
    if entries is None:
        return UNCHECKED
    if ref.is_trivial(entries[-1]):
        return Verdict(False, "the tower sinks within the bound")
    if cert.transcript != tuple(map(len, entries)):
        return Verdict(False, "transcript mismatch")
    moved = _moves(cert.x, cert.g, {cert.bound: cert.witness})
    if not moved:
        return UNCHECKED if moved is None else Verdict(False, "witness is not moved")
    return Verdict(True, "no sink confirmed")


def _bounded_left(cert: BoundedLeftRefutation) -> Verdict:
    if cert.bound < 1:
        return Verdict(False, "bound must be >= 1")
    if not ref.is_trivial(cert.x + cert.x):
        return Verdict(False, "x is not an involution")
    problem = _chain_problem(cert.x, cert.chain, cert.x_active)
    if problem:
        return Verdict(False, problem)
    if ref.order_exponent(ref.flatten(cert.k), cap=cert.bound - 1) is not None:
        return Verdict(False, f"k does not have order > 2^{cert.bound - 1}")
    if not ref.are_equal(cert.y, ref.emb_pair(cert.k, TWord())):
        return Verdict(False, "y is not an embedding of (k, 1)")
    return _refutation(cert, True, {cert.bound: cert.witness}, "bounded-left confirmed")


def _right(cert: RightRefutation) -> Verdict:
    if cert.bound < 1:
        return Verdict(False, "bound must be >= 1")
    problem = _chain_problem(cert.x, cert.chain, cert.x_active)
    if problem:
        return Verdict(False, problem)
    g1 = ref.scan_decompose("a" + cert.x_active).left
    y2 = ref.flatten(TWord(ref.right_y2(cert.y1.factors, cert.h.factors, g1)))
    if not ref.are_equal(ref.flatten(cert.y2), y2):
        return Verdict(False, "y2 is not [y1, h]^(g1^-1)")
    if not ref.are_equal(cert.y, ref.emb_pair(cert.y1, cert.y2)):
        return Verdict(False, "y is not an embedding of (y1, y2)")
    if len(cert.witnesses) != cert.bound:
        return Verdict(False, "one witness per tower depth is required")
    claims = {m + 1: vertex for m, vertex in enumerate(cert.witnesses, 1)}
    return _refutation(cert, False, claims, "right refutation confirmed")


def _membership(cert: KMembershipResult) -> Verdict:
    verdict, level = ref.level3_membership(cert.word)
    if (cert.verdict, cert.level) != (verdict, level):
        return Verdict(False, f"level-3 verdict is {verdict} at level {level}")
    return Verdict(True, "membership confirmed")


_CHECKS = {
    EngelSink: _sink,
    NoSinkUpTo: _no_sink,
    BoundedLeftRefutation: _bounded_left,
    RightRefutation: _right,
    KMembershipResult: _membership,
}
