"""The three benchmark workloads: seeded inputs, the timed operation, the gate.

Every workload is closed loop with one client in one process: an operation
is issued only after the previous one returned.  Inputs are built here from
the run's seed, with plain string operations and ``words.reduce_word`` (a
pure function with no cache), so generating them leaves the program's
memo tables untouched.  Each operation carries the answer that is known by
construction, when there is one; ``check`` compares outside the timed
region.

``queries``      single-element queries, the five kinds in equal weights.
``certify``      Engel refutation certificates, serialized and verified.
``k-membership`` membership in the branching subgroup K with certificates.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from grigor import branch, certificates, decide, engel, leafperm, tree, words

# Bound before tracing wraps the module attribute, so input generation
# never shows up in the spans.
_reduce = words.reduce_word

# Relators: (ad)^4, (ac)^8 and (ab)^16 are trivial.
RELATORS = ("ad" * 4, "ac" * 8, "ab" * 16)
# Elements of order 2, conjugated to build involutions.
INVOLUTION_CORES = ("a", "b", "c", "d", "adad", "ac" * 4, "ab" * 8)
# Nontrivial elements, so their conjugates are nontrivial too.
NONTRIVIAL = ("b", "c", "d", "adad", "ac" * 4, "ab" * 8)
# Conjugates of ab, ac, ad have orders 16, 8, 4.
ORDERS = (("ab", 16), ("ac", 8), ("ad", 4))
T_WORD = "abab"

# Depth at which is_trivial verdicts are held against leafperm's oracle.
WITNESS_DEPTH = 8


def inverse(w: str) -> str:
    return w[::-1]


def reduced_word(rng: random.Random, length: int) -> str:
    """A random reduced word of exactly ``length`` letters."""
    out: list[str] = []
    for _ in range(length):
        if not out:
            ch = rng.choice("abcd")
        elif out[-1] == "a":
            ch = rng.choice("bcd")
        else:
            ch = "a"
        out.append(ch)
    return "".join(out)


def conjugate(x: str, u: str) -> str:
    """u^-1 x u, reduced."""
    return _reduce(inverse(u) + x + u)


def involution(rng: random.Random, max_conj: int) -> str:
    """A random conjugate of an element of order 2: an involution by construction."""
    u = reduced_word(rng, rng.randint(0, max_conj))
    return conjugate(rng.choice(INVOLUTION_CORES), u)


def trivial_word(rng: random.Random, max_conj: int) -> str:
    """A conjugate of a relator: trivial by construction."""
    return conjugate(rng.choice(RELATORS), reduced_word(rng, rng.randint(0, max_conj)))


@dataclass
class Op:
    """One operation: its kind, inputs, and the answer known by construction."""

    kind: str
    args: tuple
    expected: Any = None
    answer: Any = None
    # (certificate, serialized bytes, verified ok, verifier detail) per certificate
    certs: list = field(default_factory=list)
    verify_s: float | None = None  # summed over the operation's certificates


@dataclass
class Workload:
    """Base: subclasses build ops, run one, and check finished ones."""

    seed: int
    tiny: bool = False
    rng: random.Random = field(init=False)

    name = ""
    # Latency percentile reported as latency_tail_ms: the highest of
    # 50/90/99/99.9 leaving at least ten samples beyond it at the
    # workload's throughput (see README.md).
    tail_percentile = 50.0
    # peak_rss_mb is read once this many operations have completed.
    rss_after_ops = 10

    def __post_init__(self) -> None:
        self.rng = random.Random(f"{self.name}:{self.seed}")

    def prepare(self) -> None:
        """Program-side set-up that a CLI call pays before its first answer."""

    def next_op(self, i: int) -> Op:
        raise NotImplementedError

    def execute(self, op: Op) -> None:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> list[str]:
        raise NotImplementedError


def _serialize(cert: Any) -> str:
    data = cert if isinstance(cert, dict) else certificates.to_dict(cert)
    return certificates.dumps(data)


def _issue(op: Op, cert: Any) -> None:
    """Serialize a certificate, parse it back and verify it (timed apart)."""
    text = _serialize(cert)
    data = json.loads(text)
    t0 = time.perf_counter()
    ok, detail = certificates.verify(data)
    op.verify_s = (op.verify_s or 0.0) + time.perf_counter() - t0
    op.certs.append((cert, text, ok, detail))


def _check_certificates(ops: list[Op]) -> list[str]:
    """Every certificate verified."""
    return [f"{op.kind}{op.args!r}: certificate rejected: {detail}"
            for op in ops for _, _, ok, detail in op.certs if not ok]


class Queries(Workload):
    """Single-element queries on words of 24 to 512 letters."""

    name = "queries"
    tail_percentile = 99.0
    rss_after_ops = 10_000
    SIZES = (24, 64, 128, 256, 512)
    # One of each query kind in turn.  There is no record of what CLI users
    # ask, so the equal weights are an assumption, not measured traffic.
    KINDS = ("trivial", "equal", "order", "act", "probe")
    POOL_PER_SIZE = 32
    PROBE_BOUND = 40
    PROBE_LETTERS = 32

    def __post_init__(self) -> None:
        super().__post_init__()
        sizes = (24, 64) if self.tiny else self.SIZES
        self.sizes = sizes
        # Base words repeat across queries, so sections repeat and the
        # triviality memo sees hits as well as misses.
        self.pool = {
            n: [reduced_word(self.rng, n) for _ in range(self.POOL_PER_SIZE)]
            for n in sizes
        }

    def next_op(self, i: int) -> Op:
        rng = self.rng
        kind = self.KINDS[i % len(self.KINDS)]
        round_ = i // len(self.KINDS)
        n = self.sizes[round_ % len(self.sizes)]
        p = rng.choice(self.pool[n])
        if kind == "trivial":
            variant = round_ % 3
            if variant == 0:
                return Op("is_trivial", (p + trivial_word(rng, 16) + inverse(p),), True)
            if variant == 1:
                z = trivial_word(rng, 16) + rng.choice(NONTRIVIAL)
                return Op("is_trivial", (p + z + inverse(p),), False)
            g = p + reduced_word(rng, n // 2)
            return Op("is_trivial", (g,), False if g.count("a") & 1 else None)
        if kind == "equal":
            x = p + reduced_word(rng, 8)
            if round_ % 2:
                return Op("are_equal", (x, x + "b"), False)
            return Op("are_equal", (x, x + trivial_word(rng, 16)), True)
        if kind == "order":
            core, order = rng.choice(ORDERS)
            return Op("order", (conjugate(core, p + reduced_word(rng, 4)),), order)
        if kind == "act":
            g = p + reduced_word(rng, 8)
            depth = rng.randint(4, WITNESS_DEPTH)
            v = "".join(rng.choice("01") for _ in range(depth))
            return Op("act", (g, v))
        # Probes take short words: towers double in length until they
        # sink, and 512-letter words outgrow the 65,536-letter cap.
        return Op("probe", (involution(rng, 16), p[:self.PROBE_LETTERS]))

    def execute(self, op: Op) -> None:
        # Word arguments are parsed as the CLI parses them.
        if op.kind == "is_trivial":
            op.answer = decide.is_trivial(words.parse_word(op.args[0]))
        elif op.kind == "are_equal":
            x, y = op.args
            op.answer = decide.are_equal(words.parse_word(x), words.parse_word(y))
        elif op.kind == "order":
            op.answer = decide.order(words.parse_word(op.args[0])).value
        elif op.kind == "act":
            g = words.parse_word(op.args[0])
            op.answer = (tree.act(g, op.args[1]), tree.first_active_level(g))
        else:
            g, x = map(words.parse_word, op.args)
            _issue(op, engel.left_engel_probe(g, x, self.PROBE_BOUND))

    def check(self, ops: list[Op]) -> list[str]:
        errors = _check_certificates(ops)
        # One probe certificate per batch is issued again and must have the
        # same bytes.
        probe = next((op for op in ops if op.kind == "probe"), None)
        if probe is not None:
            g, x = map(words.parse_word, probe.args)
            if _serialize(engel.left_engel_probe(g, x, self.PROBE_BOUND)) != probe.certs[0][1]:
                errors.append(f"probe{probe.args!r}: certificate bytes differ when reissued")
        for op in ops:
            if op.expected is not None and op.answer != op.expected:
                errors.append(f"{op.kind}: got {op.answer!r}, expected {op.expected!r}")
            if op.kind in ("is_trivial", "are_equal"):
                g = op.args[0] if op.kind == "is_trivial" else op.args[0] + inverse(op.args[1])
                moved = decide.witness_vertex(g, WITNESS_DEPTH)
                if moved is not None and op.answer is True:
                    errors.append(f"{op.kind}: trivial verdict but vertex {moved} is moved")
                if moved is not None and op.expected is True:
                    errors.append(f"{op.kind}: trivial by construction but vertex {moved} is moved")
            elif op.kind == "act":
                g, v = op.args
                image, level = op.answer
                perm = leafperm.word_perm(g, len(v))
                if image != format(int(perm[int(v, 2)]), f"0{len(v)}b"):
                    errors.append(f"act: image {image} of {v} disagrees with leafperm")
                # The least moved depth within len(v) is first_active_level + 1.
                moved = leafperm.moved_vertex(perm, len(v))
                want = None if level is None or level >= len(v) else level + 1
                if (None if moved is None else len(moved)) != want:
                    errors.append(f"first_active_level: {level} but leafperm moves {moved}")
        return errors


class Certify(Workload):
    """Each operation certifies one element: a right refutation (N = 8) and,
    for an involution, a bounded-left refutation (N = 6)."""

    name = "certify"
    # (x, is an involution); ad has order 4, so it gets no left refutation.
    FIXED = (("a", True), ("d", True), ("ad", False), ("b", True), ("aca", True))

    def __post_init__(self) -> None:
        super().__post_init__()
        self.right_n, self.left_n = (3, 3) if self.tiny else (8, 6)
        self.elements = list(self.FIXED)
        self.texts: dict[tuple, str] = {}  # certificate bytes per (x, kind)

    def next_op(self, i: int) -> Op:
        # Short elements only: at N = 8 the tower for x = a already reaches
        # 53,825 of the 65,536 letters the cap allows, and odd words of 13
        # letters can pass it.
        while len(self.elements) <= i:
            if len(self.elements) % 2:
                self.elements.append((involution(self.rng, 4), True))
            else:
                w = reduced_word(self.rng, self.rng.randint(1, 9))
                # Odd a-parity: outside St(1), hence nontrivial.
                self.elements.append((w if w.count("a") & 1 else _reduce(w + "a"), False))
        return Op("certify", self.elements[i])

    def certificates(self, x: str, is_involution: bool) -> list:
        certs = [engel.replay_right(x, self.right_n)]
        if is_involution:
            certs.append(engel.replay_bounded_left(x, self.left_n))
        return certs

    def execute(self, op: Op) -> None:
        for cert in self.certificates(*op.args):
            _issue(op, cert)

    def check(self, ops: list[Op]) -> list[str]:
        errors = _check_certificates(ops)
        # The first element of each batch is certified again and its
        # certificates must have the same bytes.
        if ops and [_serialize(c) for c in self.certificates(*ops[0].args)] != [
            text for _, text, _, _ in ops[0].certs
        ]:
            errors.append(f"certify{ops[0].args!r}: certificate bytes differ when reissued")
        for op in ops:
            x, is_involution = op.args
            bounds = [self.right_n, self.left_n][: 1 + is_involution]
            for (_, text, _, _), bound in zip(op.certs, bounds, strict=True):
                data = json.loads(text)
                if data["bound"] != bound or data["x"] != words.format_word(_reduce(x)):
                    errors.append(f"{data['kind']}: certificate for x={data['x']} "
                                  f"N={data['bound']}, asked x={x} N={bound}")
                if "witnesses" in data and len(data["witnesses"]) != bound:
                    errors.append(f"{data['kind']}({x}): {len(data['witnesses'])} witnesses")
                if self.texts.setdefault((x, data["kind"]), text) != text:
                    errors.append(f"{data['kind']}({x}): bytes differ between two runs")
        return errors


def k_images(level: int) -> set[tuple[int, ...]]:
    """Level-``level`` permutations of the elements of K, computed with
    leafperm alone: the subgroup generated by the conjugates of t."""
    def compose(p, q):
        return tuple(q[i] for i in p)

    gens = [tuple(int(i) for i in leafperm.word_perm(x, level)) for x in "abcd"]
    group = {tuple(range(1 << level))}
    frontier = list(group)
    while frontier:
        frontier = [h for g in frontier for x in gens if (h := compose(g, x)) not in group]
        group.update(frontier)
    t = tuple(int(i) for i in leafperm.word_perm(T_WORD, level))
    inverse_of = {g: tuple(sorted(range(len(g)), key=g.__getitem__)) for g in group}
    conjugates = {compose(compose(inverse_of[g], t), g) for g in group}
    k = {tuple(range(1 << level))}
    frontier = list(k)
    while frontier:
        frontier = [h for g in frontier for c in conjugates if (h := compose(g, c)) not in k]
        k.update(frontier)
    return k


class KMembership(Workload):
    """Membership in K, with a certificate issued and verified per query."""

    name = "k-membership"
    # p99.9 would still leave ten samples beyond it, but over ten seeds its
    # spread was 54% of its median against 13% for p99.
    tail_percentile = 99.0
    rss_after_ops = 30_000
    REISSUE_EVERY = 8
    # K contains the level-3 stabilizer, so an element lies in K exactly
    # when its level-3 permutation is the image of an element of K.
    CHECK_LEVEL = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        self.k_images = k_images(self.CHECK_LEVEL)
        self.checked = 0

    def prepare(self) -> None:
        branch.certified_plateau()

    def _tword(self) -> str:
        parts = []
        for _ in range(self.rng.randint(1, 4)):
            w = reduced_word(self.rng, self.rng.randint(0, 16))
            t = T_WORD if self.rng.random() < 0.5 else inverse(T_WORD)
            parts.append(inverse(w) + t + w)
        return _reduce("".join(parts))

    def next_op(self, i: int) -> Op:
        rng = self.rng
        kind = i % 3
        if kind == 0:
            return Op("membership", (self._tword(),), "inside")
        w = reduced_word(rng, rng.randint(8, 64))
        odd = w.count("a") & 1
        if kind == 1:
            return Op("membership", (w if odd else _reduce(w + "a"),), "outside")
        return Op("membership", (_reduce(w + "a") if odd else w,))

    def execute(self, op: Op) -> None:
        (w,) = op.args
        op.answer = branch.membership_in_K(w).verdict
        _issue(op, certificates.membership_certificate(w))

    def check(self, ops: list[Op]) -> list[str]:
        errors = _check_certificates(ops)
        for op in ops:
            cert, text, _, _ = op.certs[0]
            if op.expected is None:
                image = tuple(int(i) for i in leafperm.word_perm(op.args[0], self.CHECK_LEVEL))
                if (image in self.k_images) != (op.answer == "inside"):
                    errors.append(f"membership{op.args!r}: {op.answer}, leafperm disagrees")
            if op.expected is not None and op.answer != op.expected:
                errors.append(f"membership{op.args!r}: {op.answer}, expected {op.expected}")
            if op.answer not in ("inside", "outside") or cert["verdict"] != op.answer:
                errors.append(f"membership{op.args!r}: {op.answer}, certificate {cert['verdict']}")
            # Reissuing from scratch costs a third of an operation, so it is
            # done for one query in REISSUE_EVERY.
            self.checked += 1
            if self.checked % self.REISSUE_EVERY == 0 and (
                _serialize(certificates.membership_certificate(op.args[0])) != text
            ):
                errors.append(f"membership{op.args!r}: certificate bytes differ when reissued")
        return errors


WORKLOADS: dict[str, Callable[..., Workload]] = {
    w.name: w for w in (Queries, Certify, KMembership)
}
