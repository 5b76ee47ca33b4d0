"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
One run:

1. set-up: ``SETUP_REPEATS`` fresh interpreters each import grigor.cli and
   do the workload's program-side set-up; ``setup_s`` is the median;
2. in this (fresh) process, the workload's set-up, then a closed loop with
   one client that issues seeded operations until their summed time
   reaches ``--seconds``;
3. the correctness gate, on batches of finished operations between timed
   ones, untimed;
4. with ``--trace 1`` only: the tracing overhead (this script with
   ``--trace 0`` in a fresh interpreter), and the scale ladders
   (``certify``) or the level quotients (``k-membership``), run untraced.

Every time metric is corrected for the host's speed at the moment it was
measured (perfbench/reference.py); the raw figures are in the context line.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  The line before the last one carries the run's context
(machine, versions, sample counts, failures).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
# The host-speed reference is timed after every block of operations that
# has taken at least this much time.
BLOCK_S = 0.05
# Scale ladders: N = 1, 2, ... until a cap, an exhausted search, or the
# wall budget of one attempt; the whole ladder is bounded as well.
LADDER_ATTEMPT_S = 10.0
LADDER_TOTAL_S = 40.0
LADDER_MAX_N = 64
QUOTIENT_LEVELS = 7
# K-image index of G_n for n = 1..7: the plateau at 16 certifies level 3.
K_IMAGE_INDEX = (2, 4, 16, 16, 16, 16, 16)
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
CHECK_EVERY = 256
TINY_SECONDS = 0.3
MAX_ERRORS_SHOWN = 5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny", action="store_true",
        help="self-check sizes: short loop, small N, one set-up repeat",
    )
    return parser.parse_args(argv)


def machine() -> dict[str, object]:
    import numpy
    import sympy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
    }


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def cold_start(case: str) -> dict[str, float]:
    """Run perfbench/cold.py CASE in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold.py"), case],
        env=child_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when it is empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(n: int, preferred: float) -> float:
    """The workload's tail percentile, or the highest one that still leaves
    ten samples beyond it when this run has too few samples for it."""
    fits = [p for p in PERCENTILES if n * (100.0 - p) / 100.0 >= 10]
    return preferred if preferred in fits or not fits else max(fits)


class AttemptTimeout(BaseException):
    """One ladder attempt ran past its wall budget."""


def _on_alarm(signum, frame):
    raise AttemptTimeout


def ladder(attempt, max_n: int) -> tuple[int, str]:
    """Largest N for which attempt(N) returns, trying N = 1, 2, ...;
    also the reason the ladder stopped."""
    from grigor.errors import CapExceeded, SearchExhausted

    best, started = 0, time.perf_counter()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for n in range(1, max_n + 1):
            remaining = LADDER_TOTAL_S - (time.perf_counter() - started)
            if remaining <= 0:
                return best, "ladder budget"
            signal.setitimer(signal.ITIMER_REAL, min(LADDER_ATTEMPT_S, remaining))
            try:
                attempt(n)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            best = n
        return best, "N limit"
    except (CapExceeded, SearchExhausted) as exc:
        return best, type(exc).__name__
    except AttemptTimeout:
        return best, "wall budget"
    finally:
        signal.signal(signal.SIGALRM, previous)


def scale_probes(workload: str, tiny: bool, errors: list[str]) -> tuple[dict, dict]:
    """The scale ladders of ``certify`` and the level quotients of
    ``k-membership`` (0 for a workload that does not own them), and why
    each ladder stopped."""
    from grigor import branch, certificates, engel

    values = {
        "ladder.replay_right.max_n": 0,
        "ladder.replay_bounded_left.max_n": 0,
        "quotient.levels_s": 0.0,
    }
    stops = {}
    if workload == "certify":
        for replay in (engel.replay_right, engel.replay_bounded_left):
            def attempt(n: int, replay=replay) -> None:
                ok, detail = certificates.verify(certificates.to_dict(replay("a", n)))
                if not ok:
                    errors.append(f"ladder {replay.__name__}('a', {n}): {detail}")

            key = f"ladder.{replay.__name__}"
            values[f"{key}.max_n"], stops[key] = ladder(attempt, 3 if tiny else LADDER_MAX_N)
    elif workload == "k-membership":
        levels = 4 if tiny else QUOTIENT_LEVELS
        branch.build_level_quotient.cache_clear()
        t0 = time.perf_counter()
        indices = [branch.build_level_quotient(n).k_image_index for n in range(1, levels + 1)]
        values["quotient.levels_s"] = time.perf_counter() - t0
        if tuple(indices) != K_IMAGE_INDEX[:levels]:
            errors.append(f"K-image indices {indices}, expected {K_IMAGE_INDEX[:levels]}")
    return values, stops


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_loop(wl, seconds: float, tracer) -> dict[str, object]:
    """Closed loop, one client: the next operation starts when one returns.

    The host-speed reference is timed before the first operation and after
    every block of ``BLOCK_S`` seconds of operations; a block's times are
    scaled by the mean of the reference before and after it.  Finished
    operations are checked in batches between timed operations, with
    tracing paused, and then dropped, so the benchmark's own memory does
    not grow with the number of operations.
    """
    from reference import NOMINAL_S, reference_s

    latencies, verify, raw_verify, failures, errors, batch = [], [], [], [], [], []
    block, references = [], [reference_s()]
    busy, block_s, checking, done, rss = 0.0, 0.0, 0.0, 0, None

    def close_block() -> None:
        nonlocal block_s
        references.append(reference_s())
        scale = 2 * NOMINAL_S / (references[-2] + references[-1])
        for dt, verify_s in block:
            latencies.append(dt * scale)
            if verify_s is not None:
                verify.append(verify_s * scale)
                raw_verify.append(verify_s)
        block.clear()
        block_s = 0.0

    def check() -> None:
        nonlocal checking
        t0 = time.perf_counter()
        if tracer:
            tracer.uninstall()
        errors.extend(wl.check(batch))
        if tracer:
            tracer.install()
        batch.clear()
        checking += time.perf_counter() - t0

    i = 0
    while busy < seconds:
        op = wl.next_op(i)
        i += 1
        t0 = time.perf_counter()
        try:
            wl.execute(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"{op.kind}{op.args!r}: {type(exc).__name__}: {exc}")
            continue
        finally:
            dt = time.perf_counter() - t0
            busy += dt
            block_s += dt
        block.append((dt, op.verify_s))
        done += 1
        # Memory is read after a fixed amount of work, so that a faster
        # program that gets through more operations is not charged for it.
        if done == wl.rss_after_ops:
            rss = peak_rss_mb()
        if block_s >= BLOCK_S:
            close_block()
        batch.append(op)
        if len(batch) == CHECK_EVERY:
            check()
    if block:
        close_block()
    if rss is None:
        rss = peak_rss_mb()
    check()
    return {"latencies": latencies, "verify": verify, "raw_verify": raw_verify,
            "failures": failures, "errors": errors, "busy": busy, "checking": checking,
            "references": references, "peak_rss_mb": rss}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "grigor" / "__init__.py").is_file():
        print(f"error: no grigor sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seconds = TINY_SECONDS if args.tiny else args.seconds
    context: dict[str, object] = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "machine": machine(),
    }

    started = time.perf_counter()
    case = "plateau" if args.workload == "k-membership" else "import"
    setups = [cold_start(case) for _ in range(1 if args.tiny else SETUP_REPEATS)]

    untraced = None
    if args.trace:
        # The same run untraced, in a fresh interpreter: the overhead baseline.
        child = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", "0"] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(child, capture_output=True, text=True, timeout=170, check=True)
        untraced = json.loads(proc.stdout.strip().splitlines()[-1])

    loop_started = time.perf_counter()
    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    wl.prepare()
    loop = run_loop(wl, seconds, tracer)
    if tracer:
        tracer.uninstall()

    latencies, verify = sorted(loop["latencies"]), sorted(loop["verify"])
    failures, errors = loop["failures"], loop["errors"]
    if not latencies:
        errors.append("no operation completed")
    ops_per_s = len(latencies) / sum(latencies) if latencies else 0.0
    tail_p = tail_percentile(len(latencies), wl.tail_percentile)
    setup_s = statistics.median(s["setup_s"] * s["scale"] for s in setups)
    context.update(
        ops=len(latencies), failed_ratio=len(failures) / (len(latencies) + len(failures)),
        latency_tail_percentile=tail_p, latency_samples=len(latencies),
        verify_samples=len(verify),
        raw={"ops_per_s": len(latencies) / loop["busy"],
             "verify_p50_ms": percentile(sorted(loop["raw_verify"]), 50.0) * 1e3,
             "setup_s": statistics.median(s["setup_s"] for s in setups),
             "reference_ms": statistics.median(loop["references"]) * 1e3},
        wall_s={"before_loop": loop_started - started,
                "loop": time.perf_counter() - loop_started,
                "busy": loop["busy"], "gate": loop["checking"]},
    )

    if not args.trace:
        values = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "latency_p50_ms": percentile(latencies, 50.0) * 1e3,
            "latency_tail_ms": percentile(latencies, tail_p) * 1e3,
            "verify_p50_ms": percentile(verify, 50.0) * 1e3,
            "peak_rss_mb": loop["peak_rss_mb"],
        }
    else:
        tracer.write(OUT / f"spans-{args.workload}.npz")
        values = tracer.summary()
        probes, context["ladder_stop"] = scale_probes(args.workload, args.tiny, errors)
        values.update(probes)
        base = untraced["metrics"]["ops_per_s"]["value"]
        values.update({
            "cli.import_s": statistics.median(s["import_s"] * s["scale"] for s in setups),
            "trace.ops_per_s_untraced": base,
            "trace.ops_per_s_traced": ops_per_s,
            "trace.overhead_ratio": 1.0 - ops_per_s / base,
        })

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names}
    if errors or failures:
        context["errors"] = (errors + failures)[:MAX_ERRORS_SHOWN]
    print(json.dumps(context))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(latencies) + len(failures),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
