"""Spans around the program's public functions, for the traced run only.

``Tracer.install`` replaces each function in ``TRACED`` at every grigor
module binding that holds it (``decide.decompose`` and ``tree.decompose``
get their own wrapper, under one span name), so calls between modules are
seen as well as calls from the benchmark.  The private ``lru_cache``d
helpers are left alone, so their hit behaviour does not change.

Each call records a span: name, start, end and the span that caused it.
Spans stay in flat arrays while the run lasts and are written out at the
end.  A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np
from grigor import config

# (home module, public function) pairs that get a span.
TRACED = (
    ("words", "reduce_word"),
    ("tree", "decompose"),
    ("tree", "act"),
    ("tree", "first_active_level"),
    ("decide", "is_trivial"),
    ("decide", "are_equal"),
    ("decide", "order"),
    ("decide", "witness_vertex"),
    ("leafperm", "word_perm"),
    ("branch", "flatten"),
    ("branch", "emb_pair"),
    ("branch", "search_high_order"),
    ("branch", "membership_in_K"),
    ("branch", "build_level_quotient"),
    ("branch", "certified_plateau"),
    ("engel", "iterated_commutator"),
    ("engel", "left_engel_probe"),
    ("engel", "search_nonengel_pair"),
    ("engel", "section_chain"),
    ("engel", "replay_right"),
    ("engel", "replay_bounded_left"),
    ("certificates", "to_dict"),
    ("certificates", "dumps"),
    ("certificates", "verify"),
    ("certificates", "membership_certificate"),
)


def _depth_arg(args: tuple, kwargs: dict) -> int:
    return args[1] if len(args) > 1 else kwargs.get("max_depth", config.MAX_DEPTH)


def _squarings(result: Any) -> int:
    # order() squares once per failed triviality test: e times for order
    # 2**e, cap + 1 times when the order exceeds the cap.
    return result.exponent if result.is_exact else result.cap + 1


# Work counts taken from a call's arguments and result:
# span name -> [(counter, "sum" or "max", fn(args, kwargs, result))].
COUNTERS: dict[str, list[tuple[str, str, Callable]]] = {
    "words.reduce_word": [("letters_in", "sum", lambda a, k, r: len(a[0]))],
    "decide.order": [("squarings", "sum", lambda a, k, r: _squarings(r))],
    "decide.witness_vertex": [("max_depth", "max", lambda a, k, r: _depth_arg(a, k))],
    "leafperm.word_perm": [
        ("letters", "sum", lambda a, k, r: len(a[0])),
        # Entries computed: one 2**n-entry gather per letter.
        ("entries", "sum", lambda a, k, r: len(a[0]) << a[1]),
    ],
    "engel.iterated_commutator": [("peak_letters", "max", lambda a, k, r: len(r))],
    "certificates.dumps": [("bytes", "sum", lambda a, k, r: len(r))],
}


class Tracer:
    """Records spans in memory while installed; summarizes them per name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self._restore: list[tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        name_id = self._name_id(name)
        counters = COUNTERS.get(name, [])
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, totals, clock = self.stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            for counter, how, measure in counters:
                key = f"{name}.{counter}"
                value = measure(args, kwargs, result)
                old = totals.get(key, 0)
                totals[key] = old + value if how == "sum" else max(old, value)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("grigor.")]
        for home, func in TRACED:
            target = getattr(sys.modules[f"grigor.{home}"], func)
            name = f"{home}.{func}"
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is target:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, self._wrap(value, name))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def summary(self) -> dict[str, float]:
        """``<name>.calls`` and ``<name>.self_s`` per span name, plus counters.

        Self time is a span's duration minus the durations of its children.
        """
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        duration = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        covered = np.zeros_like(duration)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], duration[has_parent])
        self_s = duration - covered
        calls = np.bincount(ids, minlength=len(self.names))
        seconds = np.bincount(ids, weights=self_s, minlength=len(self.names))
        out: dict[str, float] = {
            f"{name}.{counter}": 0 for name, spec in COUNTERS.items() for counter, _, _ in spec
        }
        out.update(self.counters)
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(seconds[i])
        return out

    def write(self, path: Path) -> None:
        """Write every span (name id, parent index, start, end) to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends),
        )
