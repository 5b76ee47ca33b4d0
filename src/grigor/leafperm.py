"""Leaf permutations and least moved vertices, from truncated portraits.

This is the independent route to the action, and the oracle that `decide`
and `engel.exact_witness` cross-check the section DAG against.  An
element of G_n, the quotient induced on the 2**n vertices of level n, is
its portrait truncated at depth n: its root activity bit and its
sections at vertices 0 and 1, elements of G_(n-1).  Portraits are
interned per level, so an element is an id (0 is the identity), and
products and inverses are memoized on ids.  A word's portrait is read off
its letters by the recursions a = swap, b = (a, c), c = (a, d), d = (1, b),
after a pass of its own that cancels aa and multiplies runs over b, c, d
in the Klein group, so sections shrink; no `words`, `tree` or section DAG
is used.  Each node carries its least moved vertex (least depth, ties
toward 0), combined from its sections' as it is interned, so no 2**n
leaves are scanned.  `word_perm` spells a portrait out as its leaf
images.  Levels past 2 * config.MAX_DEPTH raise CapExceeded.

The tables are kept between calls, and a call that finds them holding
_KEPT = 2**14 entries or more (nodes and memo entries) starts from empty
ones: filled by the witness checks of perfbench's queries workload
(words of about 400 letters at level 8), 2**14 entries took about 2.8 MB
(tracemalloc).  A call that interns more than config.NODE_CAP nodes
raises CapExceeded and drops them.  `tower_witnesses` memoizes its
answers for the 1,024 most recent (x, g, level, depths) keys, since a
refutation depends on x only through its active section: over 30,000
operations of perfbench's certify workload an entry took 1.2 KB, and the
cache held that workload's whole working set of about 500 keys.
"""

from __future__ import annotations

from functools import lru_cache
from operator import xor

from . import config
from .errors import CapExceeded

_KEPT = 1 << 14

# Byte translations to a letter's sections at vertices 0 and 1, with the
# letters whose section is 1 deleted.  A letter after an odd number of a's
# is uppercased first, as its pair is swapped.
_SECTIONS = (
    (bytes.maketrans(b"bcBCD", b"aacdb"), b"d"),
    (bytes.maketrans(b"bcdBC", b"cdbaa"), b"D"),
)


def _klein(run: bytes) -> bytes:
    """The product of a run over b, c, d: they are 1, 2, 3 under XOR."""
    v = 0
    for x in run:
        v ^= x - 97
    return b"bcd"[v - 1 : v]


class _Portraits:
    """Interned portraits of levels 0 to 2 * MAX_DEPTH, with their memos.

    nodes[n][i] is (active, left, right, moved): the root activity bit, the
    ids at level n - 1 of the sections at vertices 0 and 1, and the least
    moved vertex, None for the identity.  memo[n] maps a node's triple to
    its id, a pair of ids to their product, an id to its inverse and a word
    to its portrait.  `room` counts the nodes the current call may intern.
    """

    def __init__(self) -> None:
        levels = range(2 * config.MAX_DEPTH + 1)
        self.nodes = [[(0, 0, 0, None)] for _ in levels]
        self.memo: list[dict] = [{(0, 0, 0): 0} for _ in levels]
        self.room = config.NODE_CAP

    def node(self, n: int, active: int, left: int, right: int) -> int:
        memo = self.memo[n]
        g = memo.get((active, left, right))
        if g is None:
            if not self.room:
                _tables.clear()
                raise CapExceeded(f"portraits grew past {config.NODE_CAP} nodes")
            self.room -= 1
            below = self.nodes[n - 1]
            moved = [s + m for s, m in (("0", below[left][3]), ("1", below[right][3])) if m]
            moved = "0" if active else min(moved, key=len, default=None)
            g = memo[active, left, right] = len(self.nodes[n])
            self.nodes[n].append((active, left, right, moved))
        return g

    def mul(self, n: int, g: int, h: int) -> int:
        """The product of g and h, g acting first."""
        if not g or not h:
            return g or h
        gh = self.memo[n].get((g, h))
        if gh is None:
            active, g0, g1, _ = self.nodes[n][g]
            bit, h0, h1, _ = self.nodes[n][h]
            if active:
                h0, h1 = h1, h0
            gh = self.node(n, active ^ bit, self.mul(n - 1, g0, h0), self.mul(n - 1, g1, h1))
            self.memo[n][g, h] = gh
        return gh

    def inv(self, n: int, g: int) -> int:
        gi = self.memo[n].get(g) if g else g
        if gi is None:
            active, g0, g1, _ = self.nodes[n][g]
            if active:
                g0, g1 = g1, g0
            gi = self.memo[n][g] = self.node(n, active, self.inv(n - 1, g0), self.inv(n - 1, g1))
        return gi

    def word(self, n: int, w: bytes) -> int:
        """The portrait of the word w over abcd: split on `a`, a run's parity
        is its index's, and an empty run between two a's cancels them and
        joins its neighbours; each section is one translation of the runs."""
        if not n or not w:
            return 0
        g = self.memo[n].get(w)
        if g is None:
            runs: list[bytes] = []
            for run in w.split(b"a"):
                run = _klein(run) if len(run) > 1 else run
                if len(runs) > 1 and not runs[-1]:
                    runs.pop()
                    runs[-1] = _klein(runs[-1] + run)
                else:
                    runs.append(run)
            active = len(runs) - 1 & 1
            runs[1::2] = map(bytes.upper, runs[1::2])
            marked = b"".join(runs)
            left, right = [self.word(n - 1, marked.translate(*side)) for side in _SECTIONS]
            g = self.memo[n][w] = self.node(n, active, left, right)
        return g

    def perm(self, n: int, g: int) -> list[int]:
        """The image of each level-n vertex under g, vertices big-endian."""
        if not g:
            return list(range(1 << n))
        active, left, right, _ = self.nodes[n][g]
        half = 1 << (n - 1)
        shift = half if active else 0
        below = self.perm(n - 1, left), self.perm(n - 1, right)
        return [i + shift for i in below[0]] + [i + half - shift for i in below[1]]


_tables: list[_Portraits] = []  # the tables kept between calls, at most one


def _enter(n: int) -> _Portraits:
    """The kept tables for a call at level n, or empty ones past _KEPT entries."""
    if n < 0:
        raise ValueError("level must be >= 0")
    if n > 2 * config.MAX_DEPTH:
        raise CapExceeded(f"level {n} is past the oracle's cap {2 * config.MAX_DEPTH}")
    if not _tables or sum(map(len, _tables[0].memo)) >= _KEPT:
        _tables[:] = [_Portraits()]
    _tables[0].room = config.NODE_CAP
    return _tables[0]


def _letters(w: str) -> bytes:
    """w as bytes; KeyError naming its first letter outside abcd."""
    raw = w.encode()
    if raw.translate(None, b"abcd"):
        raise KeyError(next(ch for ch in w if ch not in "abcd"))
    return raw


def word_perm(w: str, n: int) -> list[int]:
    """Permutation induced on level n by a raw word (leftmost letter first):
    p[i] is the image of vertex i, vertices as big-endian integers."""
    tables = _enter(n)
    return tables.perm(n, tables.word(n, _letters(w)))


def word_witness(w: str, n: int) -> str | None:
    """Least-depth, lexicographically least vertex within depth n that the
    raw word w moves, read off its portrait; None if w fixes level n."""
    tables = _enter(n)
    return tables.nodes[n][tables.word(n, _letters(w))][3]


def moved_vertex(perm: list[int], n: int) -> str | None:
    """The vertex word_witness gives, read off a level-n permutation as
    `word_perm` spells it: a depth-k vertex is moved iff some leaf below it
    has an XOR with its image of at least 2**(n - k)."""
    top = max(map(xor, perm, range(1 << n)))
    if not top:
        return None
    s = top.bit_length() - 1
    leaf = next(i for i, p in enumerate(perm) if (i ^ p) >> s)
    return format(leaf >> s, f"0{n - s}b")


def tower_witnesses(x: str, g: str, n: int, depths: tuple[int, ...]) -> tuple[str | None, ...]:
    """The least moved vertex at level n of each [x,_m g], m in depths.

    The tower is walked on the portraits of x and g, each step
    [p, q] = p^-1 q^-1 p q.  A level past the cap raises CapExceeded on
    every call, before the memo is read.
    """
    _enter(n)
    return _tower_witnesses(x, g, n, depths)


@lru_cache(maxsize=1024)
def _tower_witnesses(x: str, g: str, n: int, depths: tuple[int, ...]) -> tuple[str | None, ...]:
    tables = _enter(n)
    p, q = tables.word(n, _letters(x)), tables.word(n, _letters(g))
    q_inv = tables.inv(n, q)
    found = [tables.nodes[n][p][3]]
    for _ in range(max(depths)):
        p = tables.mul(n, tables.mul(n, tables.inv(n, p), q_inv), tables.mul(n, p, q))
        found.append(tables.nodes[n][p][3])
    return tuple(found[m] for m in depths)
