"""Elements as hash-consed section DAGs over the nucleus {1, a, b, c, d}.

An element is an int id owned by a `Dag`.  Ids 0-4 are the nucleus
1, a, b, c, d; every other id names an interned triple (active, left,
right): the root activity bit and the ids of the sections at vertices 0
and 1.  A triple equal to a nucleus element's own decomposition is never
interned, it *is* that leaf, so each element has exactly one id: equality
is id equality and the identity is 0.  The group is contracting with this
nucleus, so products and inverses recurse through sections and stop at
leaves (Nekrashevych, *Self-similar groups*, 2005, ch. 2).

Words become elements by the contracting recursion itself: `from_word`
memoizes reduced word -> id, and a word's id is the node of its parity
and the ids of its two first-level sections, each at most (L+1)//2
letters long for a reduced word of length L (asserted).

Ids mean nothing outside the Dag that made them, and no id leaves the
call that made it: computations take words and return words, bools and
ints.  `shared` keeps one long-lived table per role, and a call on it
leaves its nodes, words and walked towers interned for the next: a
table memoizes each tower [x,_m g] as far as it has been walked, so a
recurring (x, g) is read back entry by entry, never recomputed.  There
are four roles: "decide", for the word API (`decide.is_trivial`,
`are_equal`, `order`, `tree.act`, `first_active_level`) and the Engel
replays, whose towers of x-independent elements repeat from call to
call; "verify", for the refutation verifiers; and "probe" and
"probe-verify", for Engel probes and their verifiers, whose towers
share the near-nucleus elements.  A
verifier decides every check on its own role's table, and so never reads
a table an issuer filled.  A table is dropped at call entry once its
entries (`Dag.size`) reach NODE_CAP // 2, or PROBE_TABLE_ENTRIES for the
two probe roles: one probe fills about 50-130 entries of a fresh table
(means over survey and benchmark probes), so a small table keeps the
shared part warm without holding every tower.  A call that hits a cap on
a warm table runs once more on a fresh one, so it raises exactly when it
would in a fresh process; the word-length cap depends on the words
alone, so it is raised at once and the table kept.
The pair search and the lemma checks make a fresh Dag per call.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import count, islice
from typing import TypeVar

from . import config
from .errors import CapExceeded, SectionContractionError, WordLengthCapExceeded
from .words import decompose, reduce_word

IDENTITY, A, B, C, D = range(5)
# Decompositions of the nucleus, with 0 for the identity: psi(1) = (1, 1),
# psi(a) = (1, 1) swapped, psi(b) = (a, c), psi(c) = (a, d), psi(d) = (1, b).
_LEAVES = ((0, 0, 0), (1, 0, 0), (0, A, C), (0, A, D), (0, 0, B))

T = TypeVar("T")


class Dag:
    """Intern table and memos of one computation, or of one role's calls.

    nodes[g] is the decomposition (active, left, right) of element g.
    Outside the seeded nucleus a node's sections have smaller ids, as
    `node` interns them first, so first active levels fill in id order.
    Interning a node past config.NODE_CAP raises CapExceeded.  `size`
    counts every entry the table holds -- nodes, memoized products,
    inverses, order exponents, words and tower entries -- which `shared`
    bounds.
    """

    def __init__(self) -> None:
        self.nodes: list[tuple[int, int, int]] = list(_LEAVES)
        self._ids = {node: g for g, node in enumerate(_LEAVES)}
        self._mul: dict[tuple[int, int], int] = {}
        self._inv = {g: g for g in range(len(_LEAVES))}
        # Seeded: b -> c -> d -> b is a cycle of sections.
        self._levels: list[int | None] = [None, 0, 1, 1, 2]
        self._exponent = {IDENTITY: 0, A: 1, B: 1, C: 1, D: 1}
        self._words = {"": IDENTITY, "a": A, "b": B, "c": C, "d": D}
        # (x, g) -> the entries of the tower [x,_m g] walked so far.
        self._towers: dict[tuple[int, int], list[int]] = {}
        self._tower_entries = 0

    @property
    def size(self) -> int:
        return (
            len(self.nodes) + len(self._mul) + len(self._inv)
            + len(self._exponent) + len(self._words) + self._tower_entries
        )

    def node(self, active: int, left: int, right: int) -> int:
        """The id of the element with this first-level decomposition."""
        key = (active, left, right)
        g = self._ids.get(key)
        if g is None:
            if len(self.nodes) >= config.NODE_CAP:
                raise CapExceeded(f"section DAG grew past {config.NODE_CAP} nodes")
            g = self._ids[key] = len(self.nodes)
            self.nodes.append(key)
        return g

    def mul(self, g: int, h: int) -> int:
        """The product g.h (g acts first)."""
        if g == IDENTITY:
            return h
        if h == IDENTITY:
            return g
        if g <= D and h <= D and (g == h or A not in (g, h)):
            # Generators are involutions; {b, c, d} multiply by the Klein
            # table.  Recursing instead would loop b.c -> c.d -> d.b -> ...
            return IDENTITY if g == h else B + C + D - g - h
        key = (g, h)
        product = self._mul.get(key)
        if product is None:
            g_active, g_left, g_right = self.nodes[g]
            h_active, h_left, h_right = self.nodes[h]
            if g_active:
                h_left, h_right = h_right, h_left
            product = self._mul[key] = self.node(
                g_active ^ h_active, self.mul(g_left, h_left), self.mul(g_right, h_right)
            )
        return product

    def inv(self, g: int) -> int:
        """The inverse g^-1."""
        inverse = self._inv.get(g)
        if inverse is None:
            active, left, right = self.nodes[g]
            left, right = self.inv(left), self.inv(right)
            if active:
                left, right = right, left
            inverse = self._inv[g] = self.node(active, left, right)
        return inverse

    def from_word(self, w: str) -> int:
        """The element a reduced or raw word over abcd represents.

        A memo hit skips reducing; on a miss, reducing a word that is
        reduced already costs one regex match, so the word API needs no
        reduced-only entry point.
        """
        g = self._words.get(w)
        return self._from_reduced(reduce_word(w)) if g is None else g

    def _from_reduced(self, w: str) -> int:
        g = self._words.get(w)
        if g is None:
            # Words of length <= 1 are seeded, and longer ones contract.
            d = decompose(w)
            bound = (len(w) + 1) // 2
            if len(d.left) > bound or len(d.right) > bound:
                raise SectionContractionError(
                    f"section of length-{len(w)} word exceeds bound {bound}: {d}"
                )
            left, right = self._from_reduced(d.left), self._from_reduced(d.right)
            g = self._words[w] = self.node(d.active, left, right)
        return g

    def conjugate(self, x: int, w: int) -> int:
        """w^-1 x w."""
        return self.mul(self.mul(self.inv(w), x), w)

    def commutator(self, x: int, g: int) -> int:
        """[x, g] = x^-1 g^-1 x g = (g x)^-1 (x g)."""
        return self.mul(self.inv(self.mul(g, x)), self.mul(x, g))

    def tower(self, x: int, g: int) -> Iterator[int]:
        """[x,_1 g], [x,_2 g], ... through the first trivial entry, since [1, g] = 1.

        For an involution g, t = [s, g] has t^g = (s^-1)^g s = t^-1, so
        [t, g] = t^-1 t^g = t^-2: past the first entry, each step is one
        squaring and one inverse, and [x,_n g] = [x, g]^((-2)^(n-1)) sinks
        at depth 1 + e([x, g]), where 2^e is the order.  A tower that
        never sinks never repeats an element (the group is a residually
        finite 2-group), so each step interns a node and the node cap
        ends it.

        The entries walked so far are memoized per (x, g), in a list that
        a walk reads by index and extends only past its end, so a second
        walk of the same tower reads the entries of the first, walks of
        one key may interleave, and a walk stopped early is resumed by the
        next one.  They count in `size`.
        """
        involution = self.mul(g, g) == IDENTITY
        entries = self._towers.setdefault((x, g), [])
        t = x
        for m in count():
            if m == len(entries):
                t = self.inv(self.mul(t, t)) if m and involution else self.commutator(t, g)
                entries.append(t)
                self._tower_entries += 1
            t = entries[m]
            yield t
            if t == IDENTITY:
                return

    def iterated_commutator(self, x: int, g: int, m: int) -> int:
        """[x,_m g] for m >= 1; the identity past the tower's sink."""
        return next(islice(self.tower(x, g), m - 1, None), IDENTITY)

    def first_active_level(self, g: int) -> int | None:
        """The n with g in St(n) \\ St(n+1); None iff g is the identity."""
        levels = self._levels
        # Only the identity, id 0, is inactive with both sections 0.
        for active, left, right in self.nodes[len(levels) : g + 1]:
            levels.append(0 if active else 1 + min(levels[s] for s in (left, right) if s))
        return levels[g]

    def order_exponent(self, g: int) -> int:
        """The e with g of order 2**e (every element has 2-power order).

        Active g = (l, r) swapped squares to (l.r, r.l), whose halves are
        conjugate, so e(g) = 1 + e(l.r); inactive g has the larger exponent
        of its two sections.  The nucleus is seeded: b -> c -> d -> b is
        a cycle of sections.
        """
        if g not in self._exponent:
            active, left, right = self.nodes[g]
            if active:
                exponent = 1 + self.order_exponent(self.mul(left, right))
            else:
                exponent = max(self.order_exponent(left), self.order_exponent(right))
            self._exponent[g] = exponent
        return self._exponent[g]

    def act(self, g: int, v: str) -> str:
        """Image of vertex v under g; same depth, prefix-compatible.

        v is checked once, before the walk: a ValueError names its first
        symbol that is not a bit.
        """
        invalid = v.strip("01")  # starts with the first symbol that is not a bit
        if invalid:
            raise ValueError(f"invalid vertex symbol {invalid[0]!r}")
        nodes = self.nodes
        out = []
        for bit in v:
            active, left, right = nodes[g]
            if bit == "1":
                g = right
                out.append("0" if active else "1")
            else:
                g = left
                out.append("1" if active else "0")
        return "".join(out)


# The long-lived table of each role; see the module docstring.
TABLES: dict[str, Dag] = {}

_PROBE_ROLES = ("probe", "probe-verify")


def shared(role: str, compute: Callable[[Dag], T]) -> T:
    """compute(dag) on the role's long-lived table; see the module docstring.

    compute must return no id: the table may be dropped after it returns.
    """
    dag = TABLES.get(role)
    bound = config.PROBE_TABLE_ENTRIES if role in _PROBE_ROLES else config.NODE_CAP // 2
    if dag is None or dag.size >= bound:
        dag = TABLES[role] = Dag()
    warm = len(dag.nodes) > len(_LEAVES)
    try:
        return compute(dag)
    except WordLengthCapExceeded:
        raise  # it depends on the words alone: a fresh table would raise it too
    except CapExceeded:
        TABLES.pop(role, None)
        if warm:
            return shared(role, compute)
        raise
