"""Tiny runs of the benchmark, so a rename it depends on fails here first.

The traced run wraps every function named in perfbench/tracing.py's TRACED.
certify also runs both scale ladders at small sizes; queries runs the probe
certificate byte-reissue gate and the witness_vertex gate; k-membership
builds the level quotients and reads `branch.certified_plateau`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["certify", "queries", "k-membership"])
def test_tiny_traced_run(workload):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
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
