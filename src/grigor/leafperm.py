"""Leaf permutations of the generators, built directly from their recursions.

This is the independent route to the action: permutations of the 2**n
level-n vertices are assembled from the defining recursion of a, b, c, d
and composed along a word, with no use of word reduction, of the `tree`
module or of section DAGs.  The `decide` and `engel` modules use it as a
cross-validating oracle; the verifier kernel `certificates` and the level
quotients of `branch` do not use it.  `tower_perms` walks a
whole commutator tower at one level: one permutation per input word, then
one commutator per entry.  Levels past 2 * config.MAX_DEPTH raise
CapExceeded before any array is built.

`word_perm` applies a word _CHUNK = 4 letters at a time, one gather per
chunk.  A chunk's permutation is composed from the generators the first
time its level meets it and is stored beside them, in the level's dict
of `generator_perms`; `word_perm` keeps no longer word.  A kept level
holds at most 340 keys (the 4 + 16 + 64 + 256 strings of 1 to 4 letters)
of 2**n entries each: about 22 MB over levels 0-12 for adversarial raw
words.  Reduced words alternate `a` with b, c, d and so produce at most
40 chunks, about 2.6 MB.  A deeper level drops its chunks with the call.

The towers recur: a refutation depends on x only through its active
section, and many x share one.  So `tower_witnesses`, what the witness
routine asks of a tower (the `moved_vertex` of some of its entries at one
level), is memoized per process in an LRU cache of the _WITNESS_KEYS most
recent keys; no array of a tower is kept.  A key is (word x, word g,
level, tuple of depths) and a value a tuple of vertex strings of at most
2 * MAX_DEPTH bits (None for an entry that moves no vertex).  Over
30,000 operations of perfbench's certify workload the keys averaged 111
letters and an entry, key and value, 1.2 KB.  So the bound of 1,024 keys
holds about 1.2 MB, the size of 38 level-12 arrays, and takes in that
workload's whole working set of about 500 keys.  Levels past
2 * MAX_DEPTH raise CapExceeded before the memo is read and leave no
entry.

Permutations are numpy index arrays; p[i] is the image of vertex i
(vertices encoded as big-endian binary integers).  numpy is imported
inside the functions, so importing this module (and the CLI) does not
load it.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import islice
from typing import TYPE_CHECKING

from .config import MAX_DEPTH
from .errors import CapExceeded

if TYPE_CHECKING:
    import numpy as np

# Levels up to MAX_DEPTH keep their arrays, 0.25 MB of generators in all
# plus the chunks above; a deeper one, up to 2**24 entries per array, is
# rebuilt on each call from the deepest kept level.
_CHUNK = 4
_WITNESS_KEYS = 1024
_kept: dict[int, dict[str, np.ndarray]] = {}


def generator_perms(n: int) -> dict[str, np.ndarray]:
    """Level-n permutations of a, b, c, d, and of the chunks word_perm met.

    a swaps the two halves; b, c, d act blockwise by their defining
    sections b = (a, c), c = (a, d), d = (1, b).
    """
    if n in _kept:
        return _kept[n]
    if n < 0:
        raise ValueError("level must be >= 0")
    if n > 2 * MAX_DEPTH:
        raise CapExceeded(f"level {n} is past the oracle's cap {2 * MAX_DEPTH}")
    import numpy as np

    if n == 0:
        ident = np.zeros(1, dtype=np.int64)
        return {letter: ident for letter in "abcd"}
    prev = generator_perms(n - 1)
    half = 1 << (n - 1)
    ident = np.arange(half, dtype=np.int64)

    def block(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return np.concatenate([left, right + half])

    perms = {
        "a": np.concatenate([ident + half, ident]),
        "b": block(prev["a"], prev["c"]),
        "c": block(prev["a"], prev["d"]),
        "d": block(ident, prev["b"]),
    }
    for p in perms.values():
        p.setflags(write=False)
    if n <= MAX_DEPTH:
        _kept[n] = perms
    return perms


def word_perm(w: str, n: int) -> np.ndarray:
    """Permutation induced on level n by a raw word (leftmost letter first).

    The word is applied _CHUNK letters at a time, one gather per chunk.
    """
    import numpy as np

    perms = generator_perms(n)
    p = np.arange(1 << n, dtype=np.int64)
    for i in range(0, len(w), _CHUNK):
        chunk = w[i : i + _CHUNK]
        q = perms.get(chunk)
        if q is None:
            q = _chunk_perm(chunk, perms)
        p = q[p]
    return p


def _chunk_perm(chunk: str, perms: dict[str, np.ndarray]) -> np.ndarray:
    """Compose a chunk's permutation from the generators and store it in perms.

    An invalid letter raises KeyError naming it before anything is stored.
    """
    q = perms[chunk[0]]
    for ch in chunk[1:]:
        q = perms[ch][q]
    q.setflags(write=False)
    perms[chunk] = q
    return q


def tower_perms(x: str, g: str, n: int) -> Iterator[np.ndarray]:
    """Level-n permutations of x, [x,_1 g], [x,_2 g], ..., from x and g alone.

    The level action is a homomorphism, so each step forms the commutator
    [p, q] = p^-1 q^-1 p q of permutations in the level-n quotient, as
    c[p] = q[p[q^-1]]: one scatter and two gathers.  No word of the tower
    is built, each input word's permutation is built once per call, and
    nothing of the tower is kept; `tower_witnesses` keeps what the witness
    routine reads of it.
    """
    import numpy as np

    p, q = word_perm(x, n), word_perm(g, n)
    q_inv = _inverse(q)
    while True:
        yield p
        c = np.empty_like(p)
        c[p] = q[p[q_inv]]
        p = c


def tower_witnesses(
    x: str, g: str, n: int, depths: tuple[int, ...]
) -> tuple[str | None, ...]:
    """`moved_vertex` at level n of each [x,_m g], m in depths, in that order.

    Memoized per process for the _WITNESS_KEYS most recent (x, g, n,
    depths) keys, so a tower that recurs is not walked again.  A level past
    2 * MAX_DEPTH raises CapExceeded before the memo is read, on every call.
    """
    if n > 2 * MAX_DEPTH:
        raise CapExceeded(f"level {n} is past the oracle's cap {2 * MAX_DEPTH}")
    return _tower_witnesses(x, g, n, depths)


@lru_cache(maxsize=_WITNESS_KEYS)
def _tower_witnesses(
    x: str, g: str, n: int, depths: tuple[int, ...]
) -> tuple[str | None, ...]:
    wanted = set(depths)
    found = {
        m: moved_vertex(perm, n)
        for m, perm in enumerate(islice(tower_perms(x, g, n), max(depths) + 1))
        if m in wanted
    }
    return tuple(found[m] for m in depths)


def _inverse(p: np.ndarray) -> np.ndarray:
    import numpy as np

    inv = np.empty_like(p)
    inv[p] = np.arange(len(p), dtype=p.dtype)
    return inv


def moved_vertex(perm: np.ndarray, n: int) -> str | None:
    """Least-depth, lexicographically least vertex moved within depth n.

    A depth-k vertex is moved iff a leaf below it maps to a leaf whose top
    k bits differ, that is, iff the leaf's XOR with its image is at least
    2**(n - k).  So the highest set bit s of the largest XOR gives the
    least depth n - s, and the first leaf reaching 2**s gives the vertex.
    """
    import numpy as np

    diff = perm ^ np.arange(1 << n, dtype=perm.dtype)
    top = int(diff.max())
    if top == 0:
        return None
    s = top.bit_length() - 1
    return format(int((diff >> s).argmax()) >> s, f"0{n - s}b")
