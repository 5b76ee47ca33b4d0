"""Tables and checks over perfbench/run.py, for reading rather than parsing.

    python3 perfbench/report.py             every end-to-end metric, per workload
    python3 perfbench/report.py --layers    the traced per-layer table, per workload
    python3 perfbench/report.py --check     tiny self-check: every workload, every metric
    python3 perfbench/report.py --baseline  the ROADMAP item-1 baseline cases

``--seed`` and ``--seconds`` default to 1 and BENCHMARK.json's run_seconds;
``--workload`` (repeatable) narrows the set.  Each workload runs in its own
fresh interpreter, exactly as when run.py is called on its own.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# (case for cold.py, what ROADMAP item 1 measured in one run)
BASELINE = (
    ("import", "import grigor.cli: 0.49 s"),
    ("quotient:5", "quotient 5: 0.03 s"),
    ("quotient:6", "quotient 6: 0.32 s"),
    ("quotient:7", "quotient 7: 5.1 s"),
    ("left:4", "replay_bounded_left a 4: 0.05 s"),
    ("left:5", "replay_bounded_left a 5: 0.08 s"),
    ("left:6", "replay_bounded_left a 6: 0.14 s"),
    ("right:8", "replay_right a 8: 1.1 s, verify 0.15 s"),
)
BASELINE_REPEATS = 3


def run(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False):
    """One run of run.py; returns (context, result) from its last two lines."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd + (["--tiny"] if tiny else []),
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    context, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(context), json.loads(result)


def show(workload: str, context: dict, result: dict) -> None:
    print(f"\n== {workload}  seed {context['seed']}  {context['seconds']} s  "
          f"correct={result['correct']}  attempted={result['attempted']}  "
          f"failed={result['failed']}  failed_ratio={context['failed_ratio']:.4f}")
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:>16.6g} {metric['unit']}")
    notes = {k: context[k] for k in ("latency_tail_percentile", "latency_samples",
                                     "verify_samples", "raw", "ladder_stop", "errors")
             if k in context}
    print(f"  {json.dumps(notes)}")


def self_check(workloads: list[str]) -> int:
    """Run every workload at tiny sizes, traced and untraced; every named
    metric must be emitted as a number, the gate must pass, nothing may fail."""
    problems = []
    for workload in workloads:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            context, result = run(workload, 1, 1, trace, tiny=True)
            want = [m["name"] for m in SPEC[kind]]
            got = result["metrics"]
            missing = [n for n in want if n not in got]
            extra = [n for n in got if n not in want]
            bad = [n for n, m in got.items() if not isinstance(m["value"], (int, float))]
            if missing or extra or bad:
                problems.append(f"{workload} trace={trace}: missing {missing}, extra {extra}, "
                                f"non-numeric {bad}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: {result} {context.get('errors')}")
            print(f"{workload:14s} trace={trace}: {len(got)} metrics, "
                  f"attempted={result['attempted']}, correct={result['correct']}")
    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def baseline() -> None:
    """Each ROADMAP item-1 case, in fresh interpreters, median and min."""
    from run import cold_start

    print(f"{'case':12s} {'median s':>10s} {'min s':>10s} {'verify s':>10s}  ROADMAP (one run)")
    for case, roadmap in BASELINE:
        runs = [cold_start(case) for _ in range(BASELINE_REPEATS)]
        key = "import_s" if case == "import" else "case_s"
        times = [r[key] for r in runs]
        verify = [r["verify_s"] for r in runs if "verify_s" in r]
        v = f"{statistics.median(verify):10.3f}" if verify else " " * 10
        print(f"{case:12s} {statistics.median(times):10.3f} {min(times):10.3f} {v}  {roadmap}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--layers", action="store_true")
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--baseline", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    if args.check:
        return self_check(workloads)
    if args.baseline:
        baseline()
        return 0
    for workload in workloads:
        show(workload, *run(workload, args.seed, args.seconds, int(args.layers)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
