"""Regenerate ``perfbench/reference/lab.json``, the lab workload's reference.

    PYTHONPATH=src python3 perfbench/make_reference.py

Records, at the current commit: sixteen fixed anchor points of the unit
5-ball with the control distance of family_f at each, and the value of every
one of the twenty restarts of criterion 11's ``estimate_delta_nu(1, c0=3,
sphere_samples=2000, restarts=20, iterations=300, seed=7)``, in restart order.
Regenerate it only when a change is meant to alter these numbers, and say so
in the change.
"""

from __future__ import annotations

import json
from pathlib import Path

from sosreg.calculus import FunctionHandle
from sosreg.counterex import estimate_delta_nu
from sosreg.cover import ControlDistanceParams, control_distance_values
from sosreg.exprlang import catalog_function
from sosreg.geometry import Ball, ball_points

DELTA = 0.25
DELTA_1 = 0.2005  # criterion 11's printed estimate


def main():
    fdef = catalog_function("family_f")
    anchors = ball_points(Ball(center=(0.0,) * len(fdef.variables), radius=1.0), 16)
    rho = control_distance_values(FunctionHandle.from_def(fdef), anchors, ControlDistanceParams(delta=DELTA))
    kw = dict(c0=3.0, sphere_samples=2000, iterations=300)
    # restart r of a seed-7 run is seeded 7 + 1000 r, so one-restart runs replay each
    restarts = [estimate_delta_nu(1, restarts=1, seed=7 + 1000 * r, **kw).restart_values[0] for r in range(20)]
    full = estimate_delta_nu(1, restarts=20, seed=7, **kw)
    if sorted(restarts) != full.restart_values:
        raise SystemExit("one-restart runs do not replay the twenty-restart run")
    if not (full.stable and abs(full.estimate - DELTA_1) <= 1e-3):
        raise SystemExit(f"criterion 11 does not reproduce: {full.estimate} stable={full.stable}")
    ref = {
        "delta": DELTA,
        "anchors": anchors.tolist(),
        "anchor_rho": rho.tolist(),
        "delta_1": DELTA_1,
        "restart_values": restarts,
        "full_run": {"estimate": full.estimate, "stable": full.stable},
    }
    path = Path(__file__).resolve().parent / "reference" / "lab.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
