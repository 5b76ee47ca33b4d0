"""Decision procedures: triviality, equality, element order, moved-vertex oracle.

is_trivial, are_equal and order decide on section-DAG elements (module
`dag`), all on its "decide" table: one long-lived table for every caller
in the process.  A word becomes an element by the classical contracting
recursion -- a reduced word of length L has sections of at most (L+1)//2
letters, asserted at runtime -- so a word is trivial iff its id is 0, two
words are equal iff their ids are, and the order is `Dag.order_exponent`.
No id leaves a call: these take words and return bools and orders.

witness_vertex is the independent semi-oracle: it reads the word's
truncated portrait (module `leafperm`) and never touches the section DAG,
so agreement between the two is meaningful evidence.  It imports the
oracle when first called, so `grigor eq` and `grigor order` never load it.
"""

from __future__ import annotations

from typing import NamedTuple

from . import config
from .dag import IDENTITY, shared


def is_trivial(g: str) -> bool:
    """Decide whether g represents the identity.  Accepts raw words."""
    return shared("decide", lambda dag: dag.from_word(g) == IDENTITY)


def are_equal(g: str, h: str) -> bool:
    """Element equality of two representatives."""
    return shared("decide", lambda dag: dag.from_word(g) == dag.from_word(h))


def witness_vertex(g: str, max_depth: int = config.MAX_DEPTH) -> str | None:
    """A minimal-depth vertex moved by g, or None if g fixes depth <= max_depth.

    Ties break toward the lexicographically least vertex.  A non-None
    result certifies nontriviality; None is only a bounded triviality probe.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    from .leafperm import word_witness
    return word_witness(g, max_depth)


class OrderResult(NamedTuple):
    """Either an exact order 2**exponent, or evidence it exceeds 2**cap."""

    exponent: int | None
    cap: int

    @property
    def is_exact(self) -> bool:
        return self.exponent is not None

    @property
    def value(self) -> int:
        if self.exponent is None:
            raise ValueError(f"order exceeds cap 2**{self.cap}")
        return 1 << self.exponent

    def __str__(self) -> str:
        if self.exponent is None:
            return f"> 2^{self.cap}"
        return str(self.value)


def order(g: str, cap: int = config.ORDER_CAP) -> OrderResult:
    """Order of g, exact up to 2**cap; every order in the group is a power of 2."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    exponent = shared("decide", lambda dag: dag.order_exponent(dag.from_word(g)))
    return OrderResult(exponent if exponent <= cap else None, cap)
