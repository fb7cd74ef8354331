"""Walk through one full sum-of-squares decomposition in one dimension.

The parabola x^2 is the cleanest nontrivial case: away from the origin the
function is comparable to the fourth-plus power of its control distance and
every cell simply takes Phi * sqrt(f); the single cell at the origin is
second-derivative dominated, where the split

    f(y) = F + H(y) (y - X)^2

is exact with X = 0, F = 0 and H == 1, so the emitted square roots rebuild
f to machine precision.

Run:  python3 demos/demo_decompose_1d.py
"""

import numpy as np

from sosreg.calculus import FunctionHandle
from sosreg.exprlang import parse_expression
from sosreg.geometry import Ball
from sosreg.sos import DecomposeParams, decompose, verify_decomposition

f = FunctionHandle.from_expr(parse_expression("x^2"), ("x",), domain=Ball((0.0,), 4.0))
params = DecomposeParams(
    delta=0.25, eta=0.3, region=Ball((0.0,), 1.0), floor=1e-3, verify_points=2000,
    estimate_holder=False,
)

report = decompose(f, params)

print(f"cells: {len(report.cells)}  (case I: {report.case_counts['I']}, "
      f"case II: {report.case_counts['II']})")
print(f"root groups (the g_l): {len(report.roots)}")
print(f"exact-split worst error on case II cells: {report.identity_error:.3e}")
print(f"residual sup |f - sum g_l^2| on the probe grid: {report.residual_sup:.3e}")

for cd in report.case_ii:
    print(f"\nthe origin cell (nu={cd.cell.nu}):")
    print(f"  center {cd.cell.center}, radius {cd.cell.radius:.4f}")
    split = cd.split
    x_local = split.minimizer.solve_many(np.zeros((1, 0)))[0]
    x_global = cd.cell.center[0] + x_local
    print(f"  fiber minimizer at {x_global:.2e} in global coordinates (true minimum at 0)")
    print(f"  reduced profile constant F = {split.F:.2e} (true value 0)")
    h_val = split.H(np.zeros((1, 0)), np.array([0.003]))[0]
    print(f"  fiber factor H = {h_val:.12f} (true value 1: no leading 1/2)")

grid = np.linspace(-0.95, 0.95, 1200)
stats = verify_decomposition(f, report, grid)
print(f"\ndense verification: sup {stats.residual_sup:.3e}, "
      f"mean {stats.residual_mean:.3e} over {stats.evaluated_points} points")
