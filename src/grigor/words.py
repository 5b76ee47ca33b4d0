"""Words over the generators a, b, c, d and the length-reducing rewriting system.

Every generator is an involution (xx -> empty) and the three generators
b, c, d multiply by the Klein table (bc = cb = d, bd = db = c, cd = dc = b),
so reduced words strictly alternate between `a` and members of {b, c, d}.
A reduced word is a representative, not a canonical form: the group has
relations of unbounded length (e.g. (ad)^4 = 1), so element equality is
delegated to the `decide` module.

Words are plain strings; the identity is the empty string, spelled "1" in
text output and accepted as "1" or "" on input.  `reduce_word` is the one
full pass, for raw letters; `multiply`, `conjugate` and `commutator` take
reduced words and touch only their junctions.  `decompose` reads the
first-level wreath recursion off a word; `dag` builds elements from it and
`tree` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass

LETTERS = "abcd"

# Klein four-group table on {b, c, d}.
_MERGE = {
    "bc": "d", "cb": "d",
    "bd": "c", "db": "c",
    "cd": "b", "dc": "b",
}

IDENTITY = ""

# First-level sections of the non-rooted generators: b = (a, c), c = (a, d),
# d = (1, b).  The rooted generator a only toggles the activity bit.
_SECTIONS = {"b": ("a", "c"), "c": ("a", "d"), "d": ("", "b")}


def reduce_word(raw: str) -> str:
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
        return x[: i - 1] + _MERGE[x[i - 1] + y[j]] + y[j + 1 :]
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


def parse_word(text: str) -> str:
    """Parse a word literal ("1" or "" for the identity) and reduce it."""
    if text in ("", "1"):
        return IDENTITY
    return reduce_word(text)


def format_word(w: str) -> str:
    """Text form of a word; the identity prints as "1"."""
    return w if w else "1"
