"""qtheta benchmark launcher (standard library only).

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each repetition runs in a fresh worker process (``worker.py``), started one
at a time: module-level caches in ``qtheta.named`` make a warm process
faster or slower than the cold one every ``qtheta verify`` call starts from.

``--trace 0`` repeats the workload for about ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs the wrapper self-test, one untraced
and one traced repetition, and reports the per-layer metrics.  Human-readable
lines come first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-run records go to
``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

from workloads import PRODUCTS, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # set-up-only workers fill up to this many set-up times per run
DEADLINE_S = 175  # a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "cells_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "ops_ok_frac": "frac"}


class BenchError(Exception):
    pass


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)



def launch(deadline, workload, seed, mode, trace=0, spans=None):
    budget = deadline - now()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    t_launch = now()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(budget, 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {mode} {workload} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {mode} {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if "t_ready" in res:
        res["setup_s"] = res["t_ready"] - t_launch
    return res


# -- environment -----------------------------------------------------------------


def git_sha():
    """HEAD of the enclosing git checkout, read from .git without running git."""
    gitdir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(gitdir, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(gitdir, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over src/qtheta/*.py, which identifies the code where git cannot."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "qtheta")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(seed):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


# -- statistics ------------------------------------------------------------------


def tail(samples):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    i = n - 11
    return 100.0 * (i + 1) / n, sorted(samples)[i]


def summarize(reps):
    """Outcome counts over every request of every repetition."""
    requests = [r for rep in reps for r in rep["requests"]]
    ops = sum(r["ops"] for r in requests)
    failed = sum(r["ops"] for r in requests if r["outcome"] == "failed")
    refused = sum(r["ops"] for r in requests if r["outcome"] == "refused")
    return requests, ops, failed, refused


def check_reps(workload, seed, reps):
    """Exactness gate; returns a list of problems (empty when every check held)."""
    problems = []
    for k, rep in enumerate(reps):
        if rep["left_installed"]:
            problems.append(f"rep {k}: tracer wrappers installed: {rep['left_installed']}")
        for r in rep["requests"]:
            if r["outcome"] == "failed":
                problems.append(f"rep {k} {r['label']}: {r['detail']}")
    if workload == PRODUCTS:
        problems += check_digests(seed, reps)
    return problems


def check_digests(seed, reps):
    """Each product's coefficient-table digest agrees across repetitions and with
    earlier runs of the same seed in this checkout (refusals are not compared)."""
    path = os.path.join(RESULTS, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as fh:
            known = json.load(fh)
    problems = []
    for rep in reps:
        for r in rep["requests"]:
            if r["digest"] is None:
                continue
            key = f"{seed}/{r['label']}"
            if known.setdefault(key, r["digest"]) != r["digest"]:
                problems.append(f"{key}: product digest {r['digest'][:12]} != {known[key][:12]}")
    with open(path, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    return problems


# -- the two modes ---------------------------------------------------------------


def run_untraced(deadline, workload, seed, seconds):
    reps, setups = [], []  # setups: (raw seconds, scale to reference speed)
    start = now()
    while True:
        rep = launch(deadline, workload, seed, "run")
        reps.append(rep)
        setups.append((rep["setup_s"], rep["setup_scale"]))
        elapsed = now() - start
        if elapsed + elapsed / len(reps) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        res = launch(deadline, workload, seed, "setup")
        setups.append((res["setup_s"], res["setup_scale"]))

    problems = check_reps(workload, seed, reps)
    passing = [rep for rep in reps if not any(r["outcome"] == "failed" for r in rep["requests"])] or reps
    requests, ops, failed, refused = summarize(reps)
    latencies = [r["seconds"] * rep["scale"] for rep in reps for r in rep["requests"]]
    metrics = {
        "wall_s": statistics.median(rep["wall_s"] * rep["scale"] for rep in passing),
        "cells_per_s": statistics.median(
            sum(r["cells"] for r in rep["requests"]) / (rep["wall_s"] * rep["scale"]) for rep in passing
        ),
        "setup_s": statistics.median(raw * scale for raw, scale in setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_kb"] / 1024 for rep in reps),
        "ops_ok_frac": (ops - failed - refused) / ops,
    }
    lat_tail = tail(latencies)
    info = [
        f"wall_s: median of {len(passing)} repetitions; raw wall "
        + ", ".join(f"{rep['wall_s']:.3f}" for rep in reps)
        + " s at speed scale "
        + ", ".join(f"{rep['scale']:.3f}" for rep in reps),
        f"request latency (reference speed): median {statistics.median(latencies):.4f} s, "
        + (f"tail p{lat_tail[0]:.0f} {lat_tail[1]:.4f} s" if lat_tail else "tail n/a")
        + f" over {len(latencies)} requests",
        f"setup_s: median of {len(setups)} worker launches; raw median "
        f"{statistics.median(raw for raw, _ in setups):.4f} s",
        f"ops_failed_frac = {(failed + refused) / ops:.4f} frac "
        f"(failed {failed}, refused {refused}, attempted {ops})",
    ]
    return metrics, ops, failed, problems, info, {"reps": reps, "setups": setups}


def run_traced(deadline, workload, seed):
    problems = []
    st = launch(deadline, workload, seed, "selftest")
    silent = [name for name, calls in st["calls"].items() if calls == 0]
    if silent:
        problems.append(f"self-test: wrappers that never fired: {silent}")
    if st["left_installed"]:
        problems.append(f"self-test: wrappers left installed: {st['left_installed']}")

    spans = os.path.join(RESULTS, f"spans-{workload}-seed{seed}.json")
    plain = launch(deadline, workload, seed, "run")
    traced = launch(deadline, workload, seed, "run", trace=1, spans=spans)
    reps = [plain, traced]
    problems += check_reps(workload, seed, reps)
    _, ops, failed, _ = summarize(reps)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_frac"] = (traced["wall_s"] * traced["scale"]) / (plain["wall_s"] * plain["scale"]) - 1
    info = [
        f"self-test: {len(st['calls'])} wrappers installed on {sum(st['sites'].values())} bindings, all fired"
        if not silent else f"self-test FAILED: {silent}",
        f"raw wall: untraced {plain['wall_s']:.4f} s at speed scale {plain['scale']:.3f}, "
        f"traced {traced['wall_s']:.4f} s at speed scale {traced['scale']:.3f}",
        f"spans: {spans}",
    ]
    return metrics, ops, failed, problems, info, {"selftest": st, "reps": reps}


def per_layer_unit(name):
    if name.endswith("self_s"):
        return "s"
    if name.endswith("trunc_excess_mean"):
        return "uexp"
    if name == "trace.overhead_frac":
        return "frac"
    return "count"


def bench_one(workload, seed, seconds, trace):
    env = environment(seed)
    deadline = now() + DEADLINE_S
    if trace:
        metrics, ops, failed, problems, info, record = run_traced(deadline, workload, seed)
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics, ops, failed, problems, info, record = run_untraced(deadline, workload, seed, seconds)
        units = END_TO_END_UNITS
    print(f"== {workload} seed={seed} trace={trace} env={json.dumps(env, sort_keys=True)}")
    for line in info:
        print(f"   {line}")
    for name, value in metrics.items():
        print(f"   {name} = {value:.6g} {units[name]}")
    for p in problems:
        print(f"   CHECK FAILED: {p}")
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump({"env": env, "metrics": metrics, "problems": problems, **record}, fh, indent=1)
    return {
        "correct": not problems,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "qtheta")):
        print(f"error: no qtheta sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    os.makedirs(RESULTS, exist_ok=True)
    try:
        results = {w: bench_one(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
