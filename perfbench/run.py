"""Time-to-verdict benchmark for the dunklalg engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from ./src.
Each repetition is a fresh single-threaded interpreter (perfbench/worker.py)
that sets up, runs every request of the workload with cold caches and checks
every verdict. Repetitions run one after another until the next one would
end after S seconds (at least three). Every end-to-end metric is the median
over the repetitions of the run.

With --trace 1 the repetitions alternate traced and untraced, starting traced.
The per-layer metrics come from the traced ones; their counts must agree
exactly, and trace.overhead_ratio is the median traced verdict time over the
median untraced one.

Metric names and units are read from BENCHMARK.json. The last line of stdout
is the result object; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_REPS = 3
RUN_LIMIT_S = 170  # a run must end within 180 s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    for root, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(root: str):
    """HEAD of a git checkout, read without running git; None elsewhere."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def run_rep(workload: str, seed: int, traced: bool, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), "1" if traced else "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %d:\n%s" % (proc.returncode, proc.stderr[-4000:]))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = wall
    out["traced"] = traced
    return out


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds subprocess.run, which kills the worker


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "dunklalg", "__init__.py")):
        sys.stderr.write("error: no engine source at %s; run from a checkout root\n" % src)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.stderr.write("error: unknown workload %r; choose from %s\n" % (args.workload, names))
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"  # fixed set iteration order, so counts repeat exactly
    traced_run = args.trace == 1

    reps = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS:
            typical = statistics.median(r["wall_s"] for r in reps)
            if elapsed + typical > args.seconds or elapsed + typical > RUN_LIMIT_S:
                break
        traced = traced_run and len(reps) % 2 == 0
        try:
            reps.append(run_rep(args.workload, args.seed, traced, env, RUN_LIMIT_S - elapsed))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            sys.stderr.write("error: repetition %d failed: %s\n" % (len(reps), exc))
            return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]

    metrics = {}
    consistent = True
    if not traced_run:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": statistics.median(r[m["name"]] for r in plain),
                                  "unit": m["unit"]}
    else:
        counts = [r["layers"]["counts"] for r in traced_reps]
        consistent = all(c == counts[0] for c in counts[1:])
        if not consistent:
            diff = sorted(k for k in counts[0] if any(c.get(k) != counts[0][k] for c in counts[1:]))
            sys.stderr.write("error: traced counts differ between repetitions: %s\n" % diff)
        values = dict(counts[0])
        for key in traced_reps[0]["layers"]["times"]:
            values[key] = statistics.median(r["layers"]["times"][key] for r in traced_reps)
        values["trace.overhead_ratio"] = (statistics.median(r["verdict_s"] for r in traced_reps)
                                          / statistics.median(r["verdict_s"] for r in plain))
        for m in spec["per_layer"]:
            if m["name"] in values:
                metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            else:
                sys.stderr.write("note: per-layer metric %s is absent\n" % m["name"])

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": os.getloadavg(),
        "commit": git_commit(root),
        "src_sha256": source_digest(src),
        "repetitions": len(reps),
        "wall_s": [round(r["wall_s"], 3) for r in reps],
        "verdict_s": [round(r["verdict_s"], 3) for r in reps],
        "verdict_cpu_s": [round(r["verdict_cpu_s"], 3) for r in reps],
        "verdict_wall_s": [round(r["verdict_wall_s"], 3) for r in reps],
        "kernels": [len(r["kernel_s"]) for r in reps],
        "check_s": [round(r["check_s"], 3) for r in reps],
        "oracle_checked": sum(r["oracle_checked"] or 0 for r in reps),
        "absent": traced_reps[0]["layers"]["absent"] if traced_reps else [],
        "failures": failures[:10],
    }
    print(json.dumps({"env": info}))
    result = {"correct": failed == 0 and consistent, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
