"""One benchmark worker: a fresh process that sets up and times one repetition.

Run by ``run.py``; prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --mode run|setup|selftest
        [--trace 0|1] [--spans FILE]

``setup`` stops after the inputs are built (a set-up probe).  ``selftest``
installs the tracer, runs tiny inputs through every layer and reports which
wrappers fired.  ``run`` times one repetition; with ``--trace 1`` it also
reports per-layer totals and writes the spans to ``--spans``.

Every worker pins itself to one CPU and samples that CPU's speed
(``probe.py``): ``setup_scale`` and ``scale`` convert its set-up time and
its timed part to the reference speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import probe  # noqa: E402


def now():
    # CLOCK_MONOTONIC is system-wide, so the launcher can subtract its own reading
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["run", "setup", "selftest"], required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    probe.pin_to_current_cpu()

    import qtheta  # noqa: F401 -- importing the engine is part of set-up

    import tracer
    import workloads

    out = {}
    if args.mode == "selftest":
        tr = tracer.Tracer()
        out["sites"] = tr.install()
        workloads.self_test_calls()
        totals = tr.totals()
        tr.uninstall()
        out["calls"] = {name: totals[f"{name}.calls"] for _, _, name, _ in tracer.TARGETS}
        out["left_installed"] = tracer.installed_wrappers()
        print(json.dumps(out))
        return 0

    inputs = workloads.make_inputs(args.workload, args.seed)
    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
    out["t_ready"] = now()
    setup_unit = probe.burst()
    out["setup_scale"] = probe.REFERENCE_UNIT_S / setup_unit
    if args.mode == "run":
        with probe.Sampler() as sampler:
            t0 = time.perf_counter()
            requests = workloads.run(args.workload, inputs)
            out["wall_s"] = time.perf_counter() - t0
        out["scale"] = sampler.scale(setup_unit)
        out["probe_samples"] = len(sampler.samples)
        out["requests"] = [r.to_json() for r in requests]
        if tr is not None:
            tr.uninstall()
            out["layers"] = tr.totals()
            if args.spans:
                tr.dump(args.spans)
        out["left_installed"] = tracer.installed_wrappers()
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
