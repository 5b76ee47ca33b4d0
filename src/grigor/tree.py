"""The self-similar action on the binary rooted tree.

First-level decomposition (wreath recursion, from `words`), sections at
depth n, vertex action, and level stabilizers; level permutations come
from `leafperm`.  Vertices are binary strings; the root is the empty
string.  The action convention is (vw)^g = v^g . w^{g_v}: the left/right
fields of a decomposition are the sections at vertices 0 and 1.

`sections_at` works on words.  `act` and `first_active_level` read the
element's section DAG on the "decide" table of `dag.shared`, which
`decide` uses too.
"""

from __future__ import annotations

from . import config
from .dag import shared
from .errors import CapExceeded
from .words import Decomposition, decompose  # noqa: F401  (Decomposition re-exported)


def act(g: str, v: str) -> str:
    """Image of vertex v under g; same depth, prefix-compatible."""
    return shared("decide", lambda dag: dag.act(dag.from_word(g), v))


def sections_at(g: str, n: int) -> list[str]:
    """The 2**n sections of g at level n, in vertex order; n <= MAX_DEPTH."""
    if n < 0:
        raise ValueError("level must be >= 0")
    if n > config.MAX_DEPTH:
        raise CapExceeded(f"sections at level {n} exceed the depth cap {config.MAX_DEPTH}")
    secs = [g]
    for _ in range(n):
        secs = [s for d in map(decompose, secs) for s in (d.left, d.right)]
    return secs


def in_level_stabilizer(g: str, n: int) -> bool:
    """True iff g fixes every vertex of depth n."""
    if n < 0:
        raise ValueError("level must be >= 0")
    level = first_active_level(g)
    return level is None or level >= n


def first_active_level(g: str) -> int | None:
    """The n with g in St(n) \\ St(n+1); None iff g is trivial."""
    return shared("decide", lambda dag: dag.first_active_level(dag.from_word(g)))
