"""Word-level reference algorithms, for tests only.

The contraction recursion on reduced words and the order by repeated
squaring decide the same questions as the section DAG by a second
algorithm, so tests that compare the two compare something.  Neither is
memoized: they are slow on long words and meant for short ones.
`is_reduced` states the shape invariants that `reduce_word` must meet.
`flatten` and `emb_pair` build the words of `branch` by one full
reduction of the concatenated pieces, against which the junction-only
products there are compared.
"""

from grigor.branch import T, U, V, lift_first, lift_second
from grigor.words import LETTERS, decompose, invert, reduce_word


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
    """The word of the TWord k: every factor t^w_i as w_i^-1 t w_i, reduced once."""
    parts: list[str] = []
    for w, s in k.factors:
        parts.append(invert(w))
        parts.append(T if s > 0 else invert(T))
        parts.append(w)
    return reduce_word("".join(parts))


def emb_pair(k1, k2) -> str:
    """y with psi(y) = (flatten(k1), flatten(k2)), from the conjugates of u
    and v by the lifts of the conjugators, reduced once."""
    parts: list[str] = []
    for w, s in k1.factors:
        lift = lift_first(w)
        piece = reduce_word(invert(lift) + U + lift)
        parts.append(piece if s > 0 else invert(piece))
    for w, s in k2.factors:
        lift = lift_second(w)
        piece = reduce_word(invert(lift) + V + lift)
        parts.append(piece if s > 0 else invert(piece))
    return reduce_word("".join(parts))
