"""Word-level reference algorithms, for tests only.

The contraction recursion on reduced words and the order by repeated
squaring decide the same questions as the section DAG by a second
algorithm, so tests that compare the two compare something.  Neither is
memoized: they are slow on long words and meant for short ones.
`is_reduced` states the shape invariants that `reduce_word` must meet.
`stack_reduce_word` and `scan_decompose` are the letter-by-letter
kernels that `reduce_word` and `decompose` must agree with.
`flatten` and `emb_pair` build the words of `branch` by multiplying in
one factor at a time, the quadratic fold that the single reduction of the
joined pieces there, and the y that `engel.replay_right` assembles from
two memoized halves, must agree with.  `right_y2` builds the factors of
y2 = [y1, h]^(g1^-1) by TWord inversion, conjugation and product, one
step at a time, against which the one expression in
`engel.replay_right` is compared.  `letter_word_perm` and
`depth_moved_vertex` are the letter-by-letter and depth-by-depth kernels
that `leafperm.word_perm` and `leafperm.moved_vertex` must agree with.
`k_image_table` and `level3_membership` decide K membership from the
level-3 permutation, by St(3) <= K, against which the letter counts of
`certificates.reduced_membership_in_K` are compared.  `bit_act` is the
bit-by-bit vertex action, validating each symbol as it is read, that
`dag.Dag.act` must agree with, error messages included.
"""

from functools import lru_cache

import numpy as np

from grigor.branch import U, V, lift_first, lift_second
from grigor.certificates import K_LEVEL, T, TWord
from grigor.leafperm import generator_perms, word_perm
from grigor.words import (
    LETTERS, Decomposition, conjugate, decompose, invert, multiply, reduce_word
)

# Klein four-group table on {b, c, d}.
_MERGE = {
    "bc": "d", "cb": "d",
    "bd": "c", "db": "c",
    "cd": "b", "dc": "b",
}

# First-level sections of the non-rooted generators: b = (a, c), c = (a, d),
# d = (1, b).  The rooted generator a only toggles the activity bit.
_SECTIONS = {"b": ("a", "c"), "c": ("a", "d"), "d": ("", "b")}


def stack_reduce_word(raw: str) -> str:
    """Reduce a raw letter sequence to its rewriting-system fixpoint.

    Single left-to-right pass with a stack; every rule strictly shortens
    the word, so the scan is amortized O(n) and the fixpoint is unique.
    """
    out: list[str] = []
    push = out.append
    pop = out.pop
    for ch in raw:
        if ch not in LETTERS:
            raise ValueError(f"invalid letter {ch!r}; expected one of {LETTERS!r}")
        while True:
            if not out:
                push(ch)
                break
            top = out[-1]
            if top == ch:
                pop()
                break
            if top != "a" and ch != "a":
                pop()
                ch = _MERGE[top + ch]
                continue  # merged letter may interact with the new top
            push(ch)
            break
    return "".join(out)


def scan_decompose(g: str) -> Decomposition:
    """First-level decomposition of a word over abcd.

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
    return Decomposition(p, stack_reduce_word("".join(left)), stack_reduce_word("".join(right)))


def is_reduced(w: str) -> bool:
    """True iff w satisfies the reduced-shape invariants."""
    for i, ch in enumerate(w):
        if ch not in LETTERS:
            return False
        if i and (w[i - 1] == ch or (w[i - 1] != "a" and ch != "a")):
            return False
    return True


def is_trivial(w: str) -> bool:
    """A word is trivial iff its `a`-parity is even and both sections are."""
    g = reduce_word(w)
    if g.count("a") & 1:
        return False
    if len(g) <= 1:
        return g == ""
    d = decompose(g)
    bound = (len(g) + 1) // 2
    assert len(d.left) <= bound and len(d.right) <= bound, (g, d)
    return is_trivial(d.left) and is_trivial(d.right)


def are_equal(g: str, h: str) -> bool:
    return is_trivial(g + invert(h))


def order_exponent(w: str, cap: int = 12) -> int | None:
    """The e with w of order 2**e, by squaring; None when e > cap."""
    cur = reduce_word(w)
    for e in range(cap + 1):
        if is_trivial(cur):
            return e
        cur = reduce_word(cur + cur)
    return None


def flatten(k) -> str:
    """The word of the TWord k, multiplying in one conjugate t^w_i at a time."""
    word = ""
    for w, s in k.factors:
        word = multiply(word, conjugate(T if s > 0 else invert(T), w))
    return word


def emb_pair(k1, k2) -> str:
    """y with psi(y) = (flatten(k1), flatten(k2)), multiplying in one
    conjugate of u or v by the lift of a conjugator at a time."""
    y = ""
    for base, lift, k in ((U, lift_first, k1), (V, lift_second, k2)):
        for w, s in k.factors:
            piece = conjugate(base, lift(w))
            y = multiply(y, piece if s > 0 else invert(piece))
    return y


def right_y2(y1, h, g1: str) -> tuple[tuple[str, int], ...]:
    """The factors of y2 = [y1, h]^(g1^-1) = (y1^-1 . y1^h)^(g1^-1) for the
    TWord factor tuples y1 and h, one TWord operation at a time: invert y1,
    conjugate y1 by the word of h, concatenate, conjugate by g1^-1."""

    def inverse(factors):
        return tuple((w, -s) for w, s in reversed(factors))

    def conjugated(factors, w):
        return tuple((multiply(c, w), s) for c, s in factors)

    bracket = inverse(y1) + conjugated(y1, flatten(TWord(h)))
    return conjugated(bracket, invert(g1))


@lru_cache(maxsize=None)
def k_image_table() -> frozenset[tuple[int, ...]]:
    """The level-3 permutations of K: the normal closure of t's, built as
    the closure of 1 under p -> p.t and p -> p^x, x a generator, so p -> p.t^w."""
    t, *gens = (word_perm(w, K_LEVEL).tolist() for w in (T, *"abcd"))
    image = {tuple(range(1 << K_LEVEL))}
    while True:
        grown = image | {tuple(t[i] for i in p) for p in image}
        grown |= {tuple(g[p[i]] for i in g) for p in image for g in gens}
        if grown == image:
            return frozenset(image)
        image = grown


def level3_membership(g: str) -> tuple[str, int]:
    """(verdict, level) for the reduced word g: Outside at level 1 when its
    `a`-parity is odd, else by its level-3 permutation."""
    if g.count("a") & 1:
        return "outside", 1
    inside = tuple(word_perm(g, K_LEVEL).tolist()) in k_image_table()
    return ("inside" if inside else "outside"), K_LEVEL


def letter_word_perm(w: str, n: int) -> np.ndarray:
    """Level-n permutation of a raw word: one gather per letter."""
    gens = generator_perms(n)
    p = np.arange(1 << n, dtype=np.int64)
    for ch in w:
        p = gens[ch][p]
    return p


def depth_moved_vertex(perm: np.ndarray, n: int) -> str | None:
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


def bit_act(dag, g: int, v: str) -> str:
    """Image of vertex v under the element g of dag, one bit at a time:
    each symbol is checked as it is read, and each image bit is the bit
    XOR the activity of the section reached so far."""
    out: list[str] = []
    for bit in v:
        if bit not in "01":
            raise ValueError(f"invalid vertex symbol {bit!r}")
        active, left, right = dag.nodes[g]
        out.append(str(int(bit) ^ active))
        g = right if bit == "1" else left
    return "".join(out)
