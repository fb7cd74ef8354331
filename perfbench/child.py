"""One workload process: set up, print READY, then run timed units.

Started by ``run.py``; not meant to be run by hand.  With ``--mode setup``
it exits after READY (the parent times set-up from process start to that
line).  With ``--mode run`` it runs closed-loop units until the next one
would end after ``--seconds`` (at least one), checks every output, and
prints one ``RESULT <json>`` line.  With ``--trace 1`` each unit runs twice,
untraced then traced, for the per-layer numbers and the tracing overhead.

From the numpy import on, the host-speed sampler of ``speed.py`` runs during
set-up and during the untraced units; the READY line carries the set-up's
kernel median and sampler time, and every untraced unit is reported both as
measured and at the reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback


def _null_span(name):
    return contextlib.nullcontext()


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced units' spans to this .npz")
    args = ap.parse_args(argv)

    import numpy as np

    import speed

    sampler = speed.Sampler()
    phase_start = sampler.mark
    sampler.start()

    import scipy

    import metrics
    import workloads

    wl = workloads.make(args.workload, smoke=args.smoke)
    wl.setup(np.random.default_rng(args.seed))
    samples, overhead, scaled = sampler.take()
    phase = time.perf_counter() - phase_start - overhead
    # the parent times set-up from process start, so it scales that time by
    # this phase's ratio of reference-speed time to measured time
    ready = {"kernel_s": sampler.kernel_s(samples), "scale": scaled / phase, "overhead_s": overhead,
             "samples": len(samples)}
    print("READY " + json.dumps(ready), flush=True)
    if args.mode == "setup":
        sampler.stop()
        return 0

    checks: list = []  # (name, passed, detail)
    raised = 0

    def run_checks(fn, *a):
        try:
            checks.extend(fn(*a))
        except Exception:
            traceback.print_exc()
            checks.append(("check_raised", False, "a check raised"))

    if hasattr(wl, "setup_checks"):
        run_checks(wl.setup_checks)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()

    def timed(k, traced):
        """One unit: (wall, cpu, wall at the reference speed, kernel median),
        the sampler's time taken out; the last two are None for a traced unit."""
        nonlocal raised
        if traced:
            sampler.stop()
            tracer.reset()
            tracing.install(tracer)
        else:
            sampler.take()
        t0, c0 = time.perf_counter(), _cpu()
        try:
            result = wl.unit(k, tracer.span if traced else _null_span)
        except Exception:
            traceback.print_exc()
            raised += 1
            result = None
        finally:
            if traced:
                tracer.uninstall()
        wall, cpu = time.perf_counter() - t0, _cpu() - c0
        scaled = kernel_s = None
        if traced:
            sampler.start()
        else:
            samples, overhead, scaled = sampler.take()
            wall, cpu, kernel_s = wall - overhead, cpu - overhead, sampler.kernel_s(samples)
        if result is not None:
            run_checks(wl.checks, result)
        return wall, cpu, scaled, kernel_s

    walls, cpus, kernels, scaled, traced_walls, layer_rows, span_units = [], [], [], [], [], [], []
    begin = time.perf_counter()
    k = 0
    while True:
        wall, cpu, at_reference, kernel_s = timed(k, False)
        walls.append(wall)
        cpus.append(cpu)
        scaled.append(at_reference)
        kernels.append(kernel_s)
        if tracer is not None:
            twall, *_ = timed(k, True)
            traced_walls.append(twall)
            layer_rows.append(tracing.unit_metrics(tracer))
            span_units.append(tracer.snapshot())
        k += 1
        step = statistics.median(walls) + (statistics.median(traced_walls) if traced_walls else 0.0)
        if time.perf_counter() - begin + step > args.seconds:
            break
    sampler.stop()

    out = {
        "units": k,
        "wall_s": statistics.median(scaled),
        "raw_wall_s": statistics.median(walls),
        "unit_walls": walls,
        "unit_kernel_s": kernels,
        "unit_walls_at_reference": scaled,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": [list(c) for c in checks],
        "raised": raised,
        "sizes": wl.sizes(),
        "inputs_sha256": hashlib.sha256(np.ascontiguousarray(wl.inputs()).tobytes()).hexdigest(),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        per_layer = {}
        for name, *_rest in metrics.PER_LAYER:
            per_layer[name] = statistics.median(row.get(name, 0) for row in layer_rows)
        per_layer["process.cpu_s"] = out["cpu_s"]
        per_layer["process.raw_wall_s"] = out["raw_wall_s"]
        per_layer["process.trace_overhead"] = statistics.median(
            t / u for t, u in zip(traced_walls, walls)
        )
        out["per_layer"] = per_layer
        if args.spans:
            tracer.save(args.spans, span_units)
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
