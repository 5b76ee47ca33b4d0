"""Words over the generators a, b, c, d and the length-reducing rewriting system.

Every generator is an involution (xx -> empty) and the three generators
b, c, d multiply by the Klein table (bc = cb = d, bd = db = c, cd = dc = b),
so reduced words strictly alternate between `a` and members of {b, c, d}:
Gamma is a quotient of Z/2 * V_4.  A reduced word is a representative, not
a canonical form: the group has relations of unbounded length (e.g.
(ad)^4 = 1), so element equality is delegated to the `decide` module.

Words are plain strings; the identity is the empty string, spelled "1" in
text output and accepted as "1" or "" on input.  `reduce_word` is the one
full pass, for raw letters: a word that already alternates costs one regex
match, and any other is reduced run by run, each maximal run of {b, c, d}
standing for its Klein product.  `multiply`, `conjugate` and `commutator`
take reduced words and touch only their junctions.  `decompose` reads the
first-level wreath recursion off the reduced word with one slice and two
byte translations; `dag` builds elements from it and `tree` re-exports it.
"""

from __future__ import annotations

import re
from typing import NamedTuple

LETTERS = "abcd"

# Klein four-group table on {b, c, d}, keyed by every run over {b, c, d}
# of length <= 2: the product of two Klein elements p and q is _KLEIN[p + q].
_KLEIN = {
    "": "", "b": "b", "c": "c", "d": "d",
    "bb": "", "cc": "", "dd": "",
    "bc": "d", "cb": "d",
    "bd": "c", "db": "c",
    "cd": "b", "dc": "b",
}

# The Klein element b^i c^j, at index i + 2j (d = bc).
_BY_PARITY = ("", "b", "c", "d")

# A reduced word alternates `a` with one letter of {b, c, d}.
_REDUCED = re.compile("a?(?:[bcd]a)*+[bcd]?")

IDENTITY = ""

# First-level sections of the non-rooted generators, b = (a, c), c = (a, d),
# d = (1, b), as byte translations of one side each; the deleted letters are
# a, which only toggles the activity bit, and the d whose section is 1.  A
# letter after an odd number of a's is uppercased: its pair is swapped.
_LEFT = bytes.maketrans(b"bcBCD", b"aacdb")
_RIGHT = bytes.maketrans(b"bcdBC", b"cdbaa")


def reduce_word(raw: str) -> str:
    """Reduce a raw letter sequence to its rewriting-system fixpoint.

    A word that already alternates is returned as it is.  Any other is
    split on `a` and each run of {b, c, d} replaced by its Klein product;
    a stack of the products drops an empty interior run, whose two a's
    cancel, and multiplies its neighbours.  Every path is linear in the
    letters, and the fixpoint is unique, since the system is confluent.
    """
    if _REDUCED.fullmatch(raw):
        return raw
    stack: list[str] = []
    push = stack.append
    for run in raw.split("a"):
        p = _KLEIN.get(run)
        if p is None:
            p = _run_product(run)
        if len(stack) > 1 and not stack[-1]:
            stack.pop()
            stack[-1] = _KLEIN[stack[-1] + p]
        else:
            push(p)
    return "a".join(stack)


def _run_product(run: str) -> str:
    """Klein product of a run over {b, c, d}, from the parities of its letter counts.

    Runs are taken in order, so the first run with an invalid letter holds
    the first invalid letter of the word.
    """
    b, c, d = run.count("b"), run.count("c"), run.count("d")
    if b + c + d != len(run):
        bad = next(ch for ch in run if ch not in LETTERS)
        raise ValueError(f"invalid letter {bad!r}; expected one of {LETTERS!r}")
    return _BY_PARITY[(b ^ d) & 1 | ((c ^ d) & 1) << 1]


def a_parity(w: str) -> int:
    """Parity of the number of `a` letters; 1 means the root is active."""
    return w.count("a") & 1


def multiply(x: str, y: str) -> str:
    """Product of two reduced words, reduced, touching only the junction.

    Equal letters cancel in pairs across the join, then at most one pair
    from {b, c, d} merges by the Klein table; the rest is copied as slices,
    so the per-letter work is the letters cancelled, not |x| + |y|.  The
    rewriting system is confluent, so this is reduce_word(x + y); raw
    letters go through `reduce_word` first.
    """
    i, j = len(x), 0
    while i and j < len(y) and x[i - 1] == y[j]:
        i -= 1
        j += 1
    if i and j < len(y) and "a" not in (x[i - 1], y[j]):
        return x[: i - 1] + _KLEIN[x[i - 1] + y[j]] + y[j + 1 :]
    return x[:i] + y[j:]


def invert(x: str) -> str:
    """Inverse representative: reversal, since every letter is an involution."""
    return x[::-1]


def conjugate(x: str, w: str) -> str:
    """x conjugated by w, i.e. w^-1 x w, for reduced x and w; reduced."""
    return multiply(multiply(invert(w), x), w)


def commutator(x: str, g: str) -> str:
    """[x, g] = x^-1 g^-1 x g, for reduced x and g; reduced."""
    return multiply(invert(x), conjugate(x, g))


class Decomposition(NamedTuple):
    """Root activity bit plus the two first-level sections (reduced words)."""

    active: int
    left: str
    right: str


def decompose(g: str) -> Decomposition:
    """First-level decomposition of a word, raw or reduced.

    The word is reduced first; the system is confluent, so the sections
    are those of the raw letters.  In the reduced word the {b, c, d}
    letters after an odd number of a's (which contribute their section
    pair swapped, as psi(g^a) = (g2, g1)) are every fourth letter from
    index 1 or 2; that slice is uppercased, and one translation per side
    maps each letter to its section letter and deletes the rest.
    """
    w = reduce_word(g)
    buf = bytearray(w, "ascii")
    odd = 1 if w[:1] == "a" else 2
    buf[odd::4] = buf[odd::4].upper()
    return Decomposition(
        a_parity(w),
        reduce_word(buf.translate(_LEFT, b"ad").decode()),
        reduce_word(buf.translate(_RIGHT, b"aD").decode()),
    )


def parse_word(text: str) -> str:
    """Parse a word literal ("1" or "" for the identity) and reduce it."""
    if text in ("", "1"):
        return IDENTITY
    return reduce_word(text)


def format_word(w: str) -> str:
    """Text form of a word; the identity prints as "1"."""
    return w if w else "1"
