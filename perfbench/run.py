"""Benchmark of the sosreg pipeline, measured from outside the program.

    python3 perfbench/run.py --workload fiber3d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the repository root.  Each workload runs in processes of its own
(one caller, closed loop, no worker threads; BLAS threads capped at the
number of CPUs).  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  ``--workload all`` runs every workload
and prints one summary line each, ``fail_frac`` included.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

SETUP_REPEATS = 3  # set-up runs per result; setup_s is their median
CHILD_BUDGET_S = 150.0  # a run must end within 180 s


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cap = str(_nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = cap
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree; read from files only."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sosreg").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _run_child(args, mode: str, deadline: float, spans: str | None = None):
    """Start one workload process; return (set-up record, RESULT dict).

    The set-up record holds the seconds from process start to READY less the
    sampler's time (``raw_s``), the same at the reference host speed
    (``setup_s``) and the kernel median it was scaled by."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode,
    ]
    if args.smoke:
        cmd.append("--smoke")
    if spans:
        cmd += ["--spans", spans]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    timer.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY ") and ready is None:
                seconds = time.perf_counter() - t0
                info = json.loads(line[len("READY "):])
                raw = seconds - info["overhead_s"]
                ready = {"raw_s": raw, "setup_s": raw * info["scale"], "kernel_s": info["kernel_s"]}
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready is None or (mode == "run" and result is None):
        raise RuntimeError(f"{args.workload} {mode} process failed (exit code {code})")
    return ready, result


def run_workload(args) -> dict:
    """One benchmark run of one workload; returns the result object."""
    deadline = time.perf_counter() + CHILD_BUDGET_S
    setups = []
    repeats = 1 if args.trace or args.smoke else SETUP_REPEATS
    for _ in range(repeats - 1):
        setups.append(_run_child(args, "setup", deadline)[0])
    spans = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans = str(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    ready, child = _run_child(args, "run", deadline, spans)
    setups.append(ready)

    failed_checks = [c for c in child["checks"] if not c[1]]
    for name, _, detail in failed_checks:
        print(f"check failed: {args.workload}: {name}: {detail}", file=sys.stderr)
    attempted = len(child["checks"]) + child["units"]
    failed = len(failed_checks) + child["raised"]

    if args.trace:
        values = child["per_layer"]
        for name, _, _, _, _, homes in metrics.PER_LAYER:
            if args.workload in homes and not values[name]:
                print(f"span did not fire: {name} reads 0 on its home workload {args.workload}",
                      file=sys.stderr)
                failed += 1
            attempted += args.workload in homes
        out_metrics = {name: {"value": values[name], "unit": unit} for name, unit in metrics.PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": child["wall_s"],
            "peak_rss_mb": child["peak_rss_mb"],
        }
        out_metrics = {name: {"value": values[name], "unit": unit} for name, unit in metrics.END_TO_END_UNITS.items()}

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "units": child["units"], "raw_wall_s": child["raw_wall_s"],
        "unit_walls": child["unit_walls"], "unit_kernel_s": child["unit_kernel_s"],
        "unit_walls_at_reference": child["unit_walls_at_reference"], "setup_runs": setups,
        "sizes": child["sizes"], "inputs_sha256": child["inputs_sha256"],
        "versions": child["versions"], "nproc": _nproc(), "blas_threads": _nproc(),
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "checks": child["checks"], "raised": child["raised"],
    }
    return {
        "provenance": provenance,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out_metrics},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*metrics.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one unit each; for the self-test")
    args = ap.parse_args(argv)
    # a terminated run unwinds, so _run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "sosreg" / "__init__.py").is_file():
        print(f"error: no sosreg sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    names = list(metrics.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        args.workload = name
        try:
            res = run_workload(args)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        OUT.mkdir(exist_ok=True)
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(res, indent=1))
        results[name] = res
    if len(names) == 1:
        print(json.dumps({"provenance": res["provenance"]}))
        print(json.dumps(res["result"]))
        return 0
    for name, res in results.items():
        r = res["result"]
        shown = " ".join(f"{k}={v['value']:.4g}{v['unit']}" for k, v in r["metrics"].items())
        print(f"{name:13s} {shown} fail_frac={r['failed'] / r['attempted']:.4g} ({r['failed']}/{r['attempted']})")
    print(json.dumps({name: res["result"] for name, res in results.items()}))
    return 0 if all(res["result"]["correct"] for res in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
