"""The self-similar action on the binary rooted tree.

First-level decomposition (wreath recursion), sections at depth n, vertex
action, and level stabilizers; level permutations come from `leafperm`.
Vertices are binary strings; the root is the empty string.  The action
convention is (vw)^g = v^g . w^{g_v}: the left/right fields of a
decomposition are the sections at vertices 0 and 1.

Everything here is computed syntactically from any representative, with
sections reduced on the fly and no caching; the `decide` module owns
memoization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import config
from .errors import CapExceeded
from .words import a_parity, reduce_word

# First-level sections of the non-rooted generators: b = (a, c), c = (a, d),
# d = (1, b).  The rooted generator a only toggles the activity bit.
_SECTIONS = {"b": ("a", "c"), "c": ("a", "d"), "d": ("", "b")}


@dataclass(frozen=True)
class Decomposition:
    """Root activity bit plus the two first-level sections (reduced words)."""

    active: int
    left: str
    right: str


def decompose(g: str) -> Decomposition:
    """First-level decomposition of a word.

    Left-to-right scan tracking the accumulated `a`-parity p: a letter in
    {b, c, d} contributes its section pair to (left, right) as-is when
    p = 0 and swapped when p = 1 (the swap realizes psi(g^a) = (g2, g1)).
    """
    p = 0
    left: list[str] = []
    right: list[str] = []
    for ch in g:
        if ch == "a":
            p ^= 1
        else:
            lo, hi = _SECTIONS[ch]
            if p:
                lo, hi = hi, lo
            left.append(lo)
            right.append(hi)
    return Decomposition(p, reduce_word("".join(left)), reduce_word("".join(right)))


def act(g: str, v: str) -> str:
    """Image of vertex v under g; same depth, prefix-compatible."""
    out: list[str] = []
    for bit in v:
        if bit not in "01":
            raise ValueError(f"invalid vertex symbol {bit!r}")
        d = decompose(g)
        i = int(bit)
        out.append(str(i ^ d.active))
        g = d.left if i == 0 else d.right
    return "".join(out)


def sections_at(g: str, n: int) -> list[str]:
    """The 2**n sections of g at level n, in vertex order; n <= MAX_DEPTH."""
    if n < 0:
        raise ValueError("level must be >= 0")
    if n > config.MAX_DEPTH:
        raise CapExceeded(f"sections at level {n} exceed the depth cap {config.MAX_DEPTH}")
    secs = [g]
    for _ in range(n):
        secs = [s for d in map(decompose, secs) for s in (d.left, d.right)]
    return secs


def in_level_stabilizer(g: str, n: int) -> bool:
    """True iff g fixes every vertex of depth n."""
    if n < 0:
        raise ValueError("level must be >= 0")
    level = first_active_level(g)
    return level is None or level >= n


@lru_cache(maxsize=1 << 16)
def _first_active(g: str, cap: int) -> int | None:
    if a_parity(g):
        return 0
    if not g:
        return None
    if cap <= 0:
        raise CapExceeded(f"first_active_level cap hit on word of length {len(g)}")
    d = decompose(g)
    best = _first_active(d.left, cap - 1)
    if best == 0:
        return 1
    other = _first_active(d.right, cap - 1)
    if best is None and other is None:
        return None
    candidates = [m for m in (best, other) if m is not None]
    return 1 + min(candidates)


def first_active_level(g: str) -> int | None:
    """The n with g in St(n) \\ St(n+1); None iff g is trivial.

    The section recursion contracts word lengths, so the answer is exact;
    the cap config.FIRST_ACTIVE_CAP only guards against pathological inputs.
    """
    return _first_active(g, config.FIRST_ACTIVE_CAP)
