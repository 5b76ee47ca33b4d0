"""Time one case in a fresh interpreter and print the timings as JSON.

    PYTHONPATH=src python3 perfbench/cold.py CASE

Cases: ``import`` (import grigor.cli), ``plateau`` (import, then
certified_plateau()), ``quotient:N`` (build_level_quotient(N)),
``left:N`` (replay_bounded_left("a", N)), ``right:N`` (replay_right("a", N)
and verify).  ``import_s`` is always the import of grigor.cli; ``setup_s``
adds the program-side set-up of ``plateau``; ``case_s`` is the case's own
call, after the import.  ``scale`` is the host-speed factor of
perfbench/reference.py, measured right after the timed part.
"""

import json
import sys
import time

t0 = time.perf_counter()
import grigor.cli  # noqa: E402  (the import is what is timed)
from grigor import branch, certificates, engel  # noqa: E402

t1 = time.perf_counter()
case, _, arg = sys.argv[1].partition(":")
result = {"import_s": t1 - t0, "setup_s": t1 - t0}
if case == "plateau":
    branch.certified_plateau()
    result["setup_s"] = time.perf_counter() - t0
elif case == "quotient":
    branch.build_level_quotient(int(arg))
    result["case_s"] = time.perf_counter() - t1
elif case in ("left", "right"):
    replay = engel.replay_bounded_left if case == "left" else engel.replay_right
    cert = replay("a", int(arg))
    t2 = time.perf_counter()
    ok, detail = certificates.verify(certificates.to_dict(cert))
    result["case_s"] = t2 - t1
    result["verify_s"] = time.perf_counter() - t2
    if not ok:
        sys.exit(f"certificate rejected: {detail}")
elif case != "import":
    sys.exit(f"unknown case {sys.argv[1]!r}")
from reference import scale  # noqa: E402  (after the timed part)

result["scale"] = scale()
print(json.dumps(result))
