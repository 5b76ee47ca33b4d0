"""Command-line surface: one subcommand per library operation.

Word literals are strings over {a, b, c, d} with "1" for the identity;
TWord literals are semicolon-separated signed conjugates such as
"1^+1;ab^-1"; vertices are binary strings ("" is the root).  All output
is deterministic given identical inputs, flags, and seed.  Each command
imports the modules it calls, so `grigor verify FILE` loads only the
verifier kernel `certificates` and what it reads.

Exit codes: 0 success, 1 mathematical refutation where the query was
"is this Engel?" (engel-probe finding no sink, verify rejecting a
certificate), 2 usage errors, 3 resource caps.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import certificates, config, words
from .errors import CapExceeded, SearchExhausted


def _emit(args, data: dict, text: str) -> None:
    if args.json:
        print(certificates.dumps({"schema": config.SCHEMA_VERSION} | data))
    else:
        print(text)


def _issue(args, cert: certificates.Certificate, text: str, code: int = 0) -> int:
    """Write cert to the --output file, if any, then emit it; returns code."""
    data = certificates.to_dict(cert)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(certificates.dumps(data) + "\n")
    _emit(args, data, text)
    return code


def _cmd_reduce(args) -> int:
    w = words.parse_word(args.word)
    _emit(args, {"word": words.format_word(w)}, words.format_word(w))
    return 0


def _cmd_eq(args) -> int:
    from . import decide
    equal = decide.are_equal(words.parse_word(args.left), words.parse_word(args.right))
    _emit(args, {"equal": equal}, str(equal).lower())
    return 0


def _cmd_order(args) -> int:
    from . import decide
    result = decide.order(words.parse_word(args.word), cap=args.order_cap)
    data = {"exact": result.is_exact, "cap": result.cap}
    if result.is_exact:
        data["order"] = result.value
    _emit(args, data, str(result))
    return 0


def _cmd_act(args) -> int:
    from . import tree
    image = tree.act(words.parse_word(args.word), args.vertex)
    _emit(args, {"vertex": image}, image if image else "(root)")
    return 0


def _cmd_sections(args) -> int:
    from . import leafperm, tree
    g = words.parse_word(args.word)
    secs = [words.format_word(s) for s in tree.sections_at(g, args.level)]
    perm = leafperm.word_perm(g, args.level).tolist()
    data = {"level": args.level, "perm": perm, "sections": secs}
    _emit(args, data, f"perm {perm}\nsections {' '.join(secs)}")
    return 0


def _cmd_stab(args) -> int:
    from . import tree
    inside = tree.in_level_stabilizer(words.parse_word(args.word), args.level)
    _emit(args, {"in_stabilizer": inside, "level": args.level}, str(inside).lower())
    return 0


def _cmd_first_active(args) -> int:
    from . import tree
    level = tree.first_active_level(words.parse_word(args.word))
    _emit(args, {"first_active_level": level}, "none" if level is None else str(level))
    return 0


def _cmd_k_test(args) -> int:
    result = certificates.reduced_membership_in_K(words.parse_word(args.word))
    return _issue(args, result, result.verdict)


def _cmd_k_embed(args) -> int:
    from . import branch
    y = branch.emb_pair(*map(certificates.parse_tword, (args.first, args.second)))
    _emit(args, {"word": words.format_word(y)}, words.format_word(y))
    return 0


def _cmd_lift(args) -> int:
    from . import branch
    lift = branch.lift_second if args.second else branch.lift_first
    lifted = lift(words.parse_word(args.word))
    _emit(args, {"word": words.format_word(lifted)}, words.format_word(lifted))
    return 0


def _cmd_quotient(args) -> int:
    from . import branch
    q = branch.build_level_quotient(args.level)
    data = {
        "level": q.n,
        "group_order": q.group_order,
        "k_image_index": q.k_image_index,
    }
    _emit(
        args,
        data,
        f"level {q.n}: |G| = {q.group_order}, [G : image(K)] = {q.k_image_index}",
    )
    return 0


def _cmd_engel_probe(args) -> int:
    from . import engel
    outcome = engel.left_engel_probe(
        words.parse_word(args.g), words.parse_word(args.x), args.bound
    )
    if isinstance(outcome, certificates.EngelSink):
        return _issue(args, outcome, f"sink at depth {outcome.n}")
    text = f"no sink through depth {outcome.bound}; witness {outcome.witness}"
    return _issue(args, outcome, text, 1)


def _cmd_lemma1(args) -> int:
    from . import engel
    k = certificates.parse_tword(args.k)
    holds = engel.lemma1_check(k, words.parse_word(args.g), args.m)
    _emit(args, {"holds": holds, "m": args.m}, str(holds).lower())
    return 0


def _cmd_lemma2(args) -> int:
    from . import engel
    holds = engel.lemma2_check(words.parse_word(args.x), words.parse_word(args.y), args.m)
    _emit(args, {"holds": holds, "m": args.m}, str(holds).lower())
    return 0


def _cmd_replay_left(args) -> int:
    from . import engel
    cert = engel.replay_bounded_left(
        words.parse_word(args.x), args.bound, budget=args.budget, seed=args.seed
    )
    text = f"refuted left-{cert.bound}-Engel for {words.format_word(cert.x)}"
    return _issue(args, cert, f"{text}; witness {cert.witness}")


def _cmd_replay_right(args) -> int:
    from . import engel
    cert = engel.replay_right(
        words.parse_word(args.x), args.bound, budget=args.budget, seed=args.seed
    )
    x = words.format_word(cert.x)
    return _issue(args, cert, f"refuted right-Engel (sink <= {cert.bound + 1}) for {x}")


def _cmd_search_pair(args) -> int:
    from . import engel
    pair = engel.search_nonengel_pair(args.bound, budget=args.budget, seed=args.seed)
    h, y1 = map(certificates.format_tword, pair)
    _emit(args, {"h": h, "y1": y1, "bound": args.bound}, f"h = {h}\ny1 = {y1}")
    return 0


def _cmd_survey(args) -> int:
    from . import engel
    report = engel.involution_survey(
        args.samples, args.bound, seed=args.seed, opponents=args.opponents
    )
    data = {
        "samples": report.samples,
        "opponents": report.opponents,
        "bound": report.bound,
        "seed": report.seed,
        "sinks": report.sinks,
        "no_sink": report.no_sink,
        "overflow": report.overflow,
        "sink_depths": {str(k): v for k, v in sorted(report.sink_depths.items())},
    }
    text = (
        f"{report.sinks} sinks, {report.no_sink} without sink, "
        f"{report.overflow} overflow (bound {report.bound})"
    )
    if report.flagged:
        text += "\nflagged pairs:\n" + "\n".join(
            f"  g={words.format_word(g)} x={words.format_word(x)}"
            for g, x in report.flagged
        )
    _emit(args, data, text)
    return 0


def _cmd_verify(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:  # unreadable, like invalid JSON: exit 2
            raise ValueError(f"{args.file}: JSON nested too deeply") from None
    ok, detail = certificates.verify(data)
    _emit(args, {"ok": ok, "detail": detail}, f"{'OK' if ok else 'FAIL'}: {detail}")
    return 0 if ok else 1


@functools.cache  # built on the first call, once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grigor",
        description="Exact computation in the first Grigorchuk group",
    )
    parser.add_argument("--json", action="store_true", help="JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("reduce", _cmd_reduce, "reduce a raw word")
    p.add_argument("word")

    p = add("eq", _cmd_eq, "element equality of two words")
    p.add_argument("left")
    p.add_argument("right")

    p = add("order", _cmd_order, "order of an element (powers of two)")
    p.add_argument("word")
    p.add_argument("--order-cap", type=int, default=config.ORDER_CAP)

    p = add("act", _cmd_act, "image of a vertex")
    p.add_argument("word")
    p.add_argument("vertex")

    p = add("sections", _cmd_sections, "level permutation and sections")
    p.add_argument("word")
    p.add_argument("level", type=int)

    p = add("stab", _cmd_stab, "level stabilizer membership")
    p.add_argument("word")
    p.add_argument("level", type=int)

    p = add("first-active", _cmd_first_active, "first level with a moved vertex below")
    p.add_argument("word")

    p = add("k-test", _cmd_k_test, "membership in the branching subgroup K")
    p.add_argument("word")
    p.add_argument("--output", help="write a k_membership certificate file")

    p = add("k-embed", _cmd_k_embed, "embed a pair of K-elements via psi")
    p.add_argument("first", help="TWord literal for the left coordinate")
    p.add_argument("second", help="TWord literal for the right coordinate")

    p = add("lift", _cmd_lift, "lift a word into St(1) by coordinate")
    p.add_argument("word")
    p.add_argument("--second", action="store_true", help="constrain the right coordinate")

    p = add("quotient", _cmd_quotient, "finite level quotient data")
    p.add_argument("level", type=int)

    p = add("engel-probe", _cmd_engel_probe, "left Engel probe (exit 1 when no sink)")
    p.add_argument("--g", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--bound", "-N", type=int, default=10)
    p.add_argument("--output", help="write the outcome as a certificate file")

    p = add("lemma1", _cmd_lemma1, "check the (k, 1)-embedding tower formula")
    p.add_argument("--k", required=True, help="TWord literal")
    p.add_argument("--g", required=True, help="word in St(1) with a.g an involution")
    p.add_argument("--m", type=int, required=True)

    p = add("lemma2", _cmd_lemma2, "check the section identity for towers")
    p.add_argument("--x", required=True, help="odd-parity word")
    p.add_argument("--y", required=True, help="word in St(1)")
    p.add_argument("--m", type=int, required=True)

    for name, func, help_text in (
        ("replay-left", _cmd_replay_left, "refute bounded-left Engel for an involution"),
        ("replay-right", _cmd_replay_right, "refute right Engel with bounded sink"),
    ):
        p = add(name, func, help_text)
        p.add_argument("x")
        p.add_argument("--bound", "-N", type=int, required=True)
        p.add_argument("--budget", type=int, default=config.SEARCH_BUDGET)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", help="write the certificate file")

    p = add("search-pair", _cmd_search_pair, "find a non-Engel pair in K")
    p.add_argument("--bound", "-N", type=int, required=True)
    p.add_argument("--budget", type=int, default=config.SEARCH_BUDGET)
    p.add_argument("--seed", type=int, default=0)

    p = add("survey", _cmd_survey, "left Engel sink survey over random involutions")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--bound", "-N", type=int, default=40)
    p.add_argument("--opponents", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = add("verify", _cmd_verify, "re-check a certificate file (exit 1 on failure)")
    p.add_argument("file")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize success of --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # PreconditionViolated, JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapExceeded, SearchExhausted) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
