"""The self-similar action on the binary rooted tree.

First-level decomposition (wreath recursion), sections at depth n, vertex
action, level permutations, and level stabilizers.  Vertices are binary
strings; the root is the empty string.  The action convention is
(vw)^g = v^g . w^{g_v}: the left/right fields of a decomposition are the
sections at vertices 0 and 1.

Everything here is computed syntactically from any representative, with
sections reduced on the fly and no caching; the `decide` module owns
memoization.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class LevelPerm:
    """Permutation induced on the 2**n vertices of level n.

    images[i] is the image of the vertex with binary encoding i.
    """

    n: int
    images: tuple[int, ...]

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images))

    def order(self) -> int:
        """Order of the permutation (lcm of cycle lengths)."""
        seen = [False] * len(self.images)
        result = 1
        for start in range(len(self.images)):
            if seen[start]:
                continue
            length = 0
            i = start
            while not seen[i]:
                seen[i] = True
                i = self.images[i]
                length += 1
            result = math.lcm(result, length)
        return result


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


def section(g: str, v: str) -> str:
    """Section of g at vertex v (a reduced representative)."""
    for bit in v:
        d = decompose(g)
        g = d.left if bit == "0" else d.right
    return g


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


def sections_at(g: str, n: int) -> tuple[LevelPerm, list[str]]:
    """Level-n permutation of g and its 2**n sections in vertex order; n <= MAX_DEPTH."""
    if n < 0:
        raise ValueError("level must be >= 0")
    if n > config.MAX_DEPTH:
        raise CapExceeded(f"sections at level {n} exceed the depth cap {config.MAX_DEPTH}")
    if n == 0:
        return LevelPerm(0, (0,)), [g]
    d = decompose(g)
    perm_left, secs_left = sections_at(d.left, n - 1)
    perm_right, secs_right = sections_at(d.right, n - 1)
    half = 1 << (n - 1)
    images = [0] * (2 * half)
    for i, sub in ((0, perm_left), (1, perm_right)):
        base = (i ^ d.active) * half
        off = i * half
        for j in range(half):
            images[off + j] = base + sub.images[j]
    return LevelPerm(n, tuple(images)), secs_left + secs_right


def level_perm(g: str, n: int) -> LevelPerm:
    """Permutation induced by g on level n."""
    return sections_at(g, n)[0]


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


def first_active_level(g: str, cap: int = config.FIRST_ACTIVE_CAP) -> int | None:
    """The n with g in St(n) \\ St(n+1); None iff g is trivial.

    The section recursion contracts word lengths, so the answer is exact;
    the cap only guards against pathological inputs.
    """
    return _first_active(g, cap)
