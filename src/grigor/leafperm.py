"""Leaf permutations of the generators, built directly from their recursions.

This is the independent route to the action: permutations of the 2**n
level-n vertices are assembled from the defining recursion of a, b, c, d
and composed along a word, with no use of word reduction, of the `tree`
module or of section DAGs.  The `decide` and `engel` modules use it as a
cross-validating oracle, and the `branch` module uses it to generate
finite level quotients.  `tower_perms` walks a whole commutator tower at
one level: one `word_perm` per word, then one commutator per entry.

Permutations are numpy index arrays; p[i] is the image of vertex i
(vertices encoded as big-endian binary integers).  numpy is imported
inside the functions, so importing this module (and the CLI) does not
load it.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Levels up to config.MAX_DEPTH (a test pins the two equal) keep their
# arrays, 0.25 MB in all; a deeper one, up to 2**24 entries per array, is
# rebuilt on each call from the deepest kept level.
_KEPT_LEVELS = 12
_kept: dict[int, dict[str, np.ndarray]] = {}


def generator_perms(n: int) -> dict[str, np.ndarray]:
    """Level-n permutations of a, b, c, d.

    a swaps the two halves; b, c, d act blockwise by their defining
    sections b = (a, c), c = (a, d), d = (1, b).
    """
    if n in _kept:
        return _kept[n]
    import numpy as np

    if n < 0:
        raise ValueError("level must be >= 0")
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
    if n <= _KEPT_LEVELS:
        _kept[n] = perms
    return perms


def word_perm(w: str, n: int) -> np.ndarray:
    """Permutation induced on level n by a raw word (leftmost letter first)."""
    import numpy as np

    gens = generator_perms(n)
    p = np.arange(1 << n, dtype=np.int64)
    for ch in w:
        p = gens[ch][p]
    return p


def tower_perms(x: str, g: str, n: int) -> Iterator[np.ndarray]:
    """Level-n permutations of x, [x,_1 g], [x,_2 g], ..., from x and g alone.

    The level action is a homomorphism, so each step forms the commutator
    [p, q] = p^-1 q^-1 p q of permutations in the level-n quotient; no word
    of the tower is built, and each word's permutation is built once.
    """
    p, q = word_perm(x, n), word_perm(g, n)
    q_inv = _inverse(q)
    while True:
        yield p
        p = q[p[q_inv[_inverse(p)]]]


def _inverse(p: np.ndarray) -> np.ndarray:
    import numpy as np

    inv = np.empty_like(p)
    inv[p] = np.arange(len(p), dtype=p.dtype)
    return inv


def moved_vertex(perm: np.ndarray, n: int) -> str | None:
    """Least-depth, lexicographically least vertex moved within depth n.

    A depth-k vertex is moved iff its block of level-n descendants maps to
    a different block, which the block's first leaf already reveals.
    """
    import numpy as np

    for k in range(1, n + 1):
        shift = n - k
        tops = perm[:: 1 << shift] >> shift
        mismatch = np.nonzero(tops != np.arange(1 << k, dtype=np.int64))[0]
        if mismatch.size:
            return format(int(mismatch[0]), f"0{k}b")
    return None
