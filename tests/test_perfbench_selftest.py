"""The benchmark tracer's wrapper self-test, run as the benchmark runs it.

``perfbench/worker.py --mode selftest`` installs a wrapper on every traced
engine function, drives tiny inputs through all of them and reports each
wrapper's call count.  A refactor that routes around a traced function (so
its layer metric would read 0) fails here, on every Python the suite runs on.
The test only reads ``perfbench/``.
"""

import json
import pathlib
import subprocess
import sys

WORKER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_every_traced_wrapper_fires_and_none_is_left_installed():
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", "theta-products", "--seed", "1",
         "--mode", "selftest"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["calls"], "the self-test traced nothing"
    silent = sorted(name for name, calls in report["calls"].items() if calls == 0)
    assert silent == [], f"wrappers that never fired: {silent}"
    assert all(n > 0 for n in report["sites"].values()), report["sites"]
    assert report["left_installed"] == []
