"""Tiny run of the benchmark, so a rename it depends on fails here first.

The traced run wraps every function named in perfbench/tracing.py's TRACED
and runs the certify workload and both scale ladders at small sizes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_certify_tiny_traced_run():
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "certify",
            "--seed", "1", "--seconds", "0.3", "--trace", "1", "--tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
