"""One repetition of one workload in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD SEED TRACE

Runs set-up, then every request of the workload in order with cold caches,
then checks every answer outside the timed region, and prints one JSON object
on stdout. A fresh interpreter per repetition keeps process-wide caches
(``exactmath._root_lookup``, root-system interning, per-context memos) from
leaking between repetitions.

Times are this process's CPU time, scaled to a reference CPU speed. The
engine is single-threaded, so on an idle machine CPU time equals wall time;
on a shared virtual machine it leaves out the time the hypervisor gives the
CPU to others. The CPU's own speed on a shared host still changes by up to
1.8x from one repetition to the next, so a fixed stdlib-only kernel is timed
before set-up, after set-up, and after every KERNEL_EVERY_S of requests,
outside the timed regions. Each stretch of work is multiplied by
REFERENCE_S over the mean of the kernel times on either side of it. The
unscaled CPU time and the wall time are reported beside the scaled time.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

import workloads

CLOCK = time.process_time
REFERENCE_S = 0.05  # about the kernel's median CPU time on the 2-CPU sandbox where it was defined
KERNEL_EVERY_S = 0.5


def kernel_s() -> float:
    """CPU time of a fixed kernel shaped like the engine's inner loops:
    Fraction products accumulated into a tuple-keyed dict. The cyclic
    collector is off meanwhile, so the engine's heap does not change its cost."""
    gc.disable()
    try:
        t0 = CLOCK()
        acc = {}
        x = Fraction(1, 3)
        for i in range(7500):
            key = (i % 97, i % 13)
            acc[key] = acc.get(key, Fraction(0)) + x * Fraction(i % 7 + 1, i % 5 + 1)
        return CLOCK() - t0
    finally:
        gc.enable()


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv) -> int:
    name, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed)

    kernel = [kernel_s()]
    t0 = CLOCK()
    import dunklalg  # noqa: F401  (set-up starts before the engine import)
    from dunklalg import cherednik, coxeter, exactmath, expr, polyrep, subalgebra, suites  # noqa: F401

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(dunklalg.__file__).startswith(src + os.sep):
        raise SystemExit("dunklalg was imported from %s, not from %s" % (dunklalg.__file__, src))

    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    state = workload.setup(inputs)
    setup_cpu_s = CLOCK() - t0
    kernel.append(kernel_s())
    setup_s = setup_cpu_s * REFERENCE_S * 2 / (kernel[0] + kernel[1])

    answers = []
    cpu_ms = []  # unscaled CPU time per request
    latencies_ms = []  # scaled
    wall_s = 0.0
    unscaled = 0.0  # CPU ms since the last kernel sample

    def rescale():
        kernel.append(kernel_s())
        factor = REFERENCE_S * 2 / (kernel[-2] + kernel[-1])
        latencies_ms.extend(ms * factor for ms in cpu_ms[len(latencies_ms):])

    for label, call in workload.requests(state):
        w0 = time.perf_counter()
        r0 = CLOCK()
        try:
            answer = call()
        except Exception:  # a crashed verdict counts as failed, the rest still run
            answer = traceback.format_exc(limit=3)
            ok = False
        else:
            ok = True
        ms = (CLOCK() - r0) * 1e3
        wall_s += time.perf_counter() - w0
        cpu_ms.append(ms)
        answers.append((label, ok, answer))
        unscaled += ms
        if unscaled >= KERNEL_EVERY_S * 1e3:
            rescale()
            unscaled = 0.0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if len(latencies_ms) < len(cpu_ms):
        rescale()
    verdict_s = sum(latencies_ms) / 1e3

    layers = None
    if tracer is not None:
        tracer.remove()
        counts, times = tracer.layers()
        layers = {"counts": counts, "times": times, "absent": sorted(set(tracer.absent))}

    c0 = CLOCK()
    verdicts = workload.setup_verdicts(state)
    for label, ok, answer in answers:
        detail = answer
        if ok:
            try:
                ok, detail = workload.check(state, label, answer)
            except Exception:  # a check that crashes fails its verdict
                ok, detail = False, traceback.format_exc(limit=3)
        verdicts.append((label, ok, detail))
    failures = [{"verdict": label, "detail": str(detail)[:400]}
                for label, ok, detail in verdicts if not ok]
    check_s = CLOCK() - c0

    out = {
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "verdict_p50_ms": statistics.median(latencies_ms),
        "verdict_p99_ms": percentile(latencies_ms, 99),
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_cpu_s": setup_cpu_s,
        "verdict_cpu_s": sum(cpu_ms) / 1e3,
        "verdict_wall_s": wall_s,
        "kernel_s": kernel,
        "attempted": len(verdicts),
        "failed": len(failures),
        "failures": failures[:10],
        "check_s": check_s,
        "oracle_checked": workload.oracle_checked(state),
        "layers": layers,
    }
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
