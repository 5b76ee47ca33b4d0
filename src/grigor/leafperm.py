"""Leaf permutations of the generators, built directly from their recursions.

This is the independent route to the action: permutations of the 2**n
level-n vertices are assembled from the defining recursion of a, b, c, d
and composed along a word, with no use of word reduction, of the `tree`
module or of section DAGs.  The `decide` and `engel` modules use it as a
cross-validating oracle, and the `branch` module uses it to generate
finite level quotients.

Permutations are numpy index arrays; p[i] is the image of vertex i
(vertices encoded as big-endian binary integers).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def generator_perms(n: int) -> dict[str, np.ndarray]:
    """Level-n permutations of a, b, c, d.

    a swaps the two halves; b, c, d act blockwise by their defining
    sections b = (a, c), c = (a, d), d = (1, b).
    """
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
    return perms


def word_perm(w: str, n: int) -> np.ndarray:
    """Permutation induced on level n by a raw word (leftmost letter first)."""
    gens = generator_perms(n)
    p = np.arange(1 << n, dtype=np.int64)
    for ch in w:
        p = gens[ch][p]
    return p


def tower_perm(x: str, g: str, m: int, n: int) -> np.ndarray:
    """Level-n permutation of the tower [x,_m g], from those of x and g alone.

    The level action is a homomorphism, so each step forms the commutator
    [p, q] = p^-1 q^-1 p q of permutations in the level-n quotient; no word
    of the tower is built.
    """
    p, q = word_perm(x, n), word_perm(g, n)
    q_inv = _inverse(q)
    for _ in range(m):
        p = q[p[q_inv[_inverse(p)]]]
    return p


def _inverse(p: np.ndarray) -> np.ndarray:
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p), dtype=p.dtype)
    return inv


def moved_vertex(perm: np.ndarray, n: int) -> str | None:
    """Least-depth, lexicographically least vertex moved within depth n.

    A depth-k vertex is moved iff its block of level-n descendants maps to
    a different block, which the block's first leaf already reveals.
    """
    for k in range(1, n + 1):
        shift = n - k
        tops = perm[:: 1 << shift] >> shift
        mismatch = np.nonzero(tops != np.arange(1 << k, dtype=np.int64))[0]
        if mismatch.size:
            return format(int(mismatch[0]), f"0{k}b")
    return None
