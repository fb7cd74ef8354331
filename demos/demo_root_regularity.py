"""Square roots and powers of flat functions.

Derivatives of f^gamma come from one jet of f through `power_jet`, Faa di
Bruno over set partitions; each block carries its share of f^(gamma-m), so
flat bases never overflow those factors.  The demo checks
a hand-computed second derivative, shows the derivative-growth constants
|grad^m f| <= C f^(0.9) for a flat profile, and estimates the largest Hölder
exponent at which sqrt(f) keeps a stable order-2 seminorm.

Run:  python3 demos/demo_root_regularity.py
"""

import numpy as np

from sosreg.calculus import FunctionHandle
from sosreg.exprlang import catalog_function, parse_expression
from sosreg.geometry import Ball
from sosreg.roots import PowerHandle, verify_power_smoothness_chain, verify_root_regularity

# hand-checked value: d2 sqrt(x^4+1) at x = 1 equals 2 sqrt 2
f = FunctionHandle.from_expr(parse_expression("x^4 + 1"), ("x",), domain=Ball((0.0,), 3.0))
p = PowerHandle(f, 0.5)
print(f"d2 sqrt(x^4+1)|_1 = {p.derivative_values([1.0], (2,))[0]:.12f}  (2*sqrt(2) = {2**1.5:.12f})")

# derivative-power chain for the flat profile exp(-1/t)
flat = FunctionHandle.from_def(catalog_function("flat_exp"))
region = Ball((0.5,), 0.45)
chain = verify_power_smoothness_chain(flat, [0.5, 0.25, 0.1], 4, region, samples=200)
print("\nexp(-1/t) on [0.05, 0.95]: constants in |grad^m f| <= C f^0.9")
for m, c in chain.derivative_constants.items():
    print(f"  m = {m}: C = {c:.3g}")
print(f"powers stay bounded for every gamma in the grid: {chain.consistent}")

# largest stable Hölder exponent of sqrt(f) at order 2
rep = verify_root_regularity(flat, s=0.9, M=2, delta_search=[0.02, 0.05, 0.1, 0.2],
                             region=region, samples=200)
print(f"\nsqrt(exp(-1/t)), order-2 seminorm stability by exponent: "
      f"{ {k: bool(v) for k, v in rep.stable.items()} }")
print(f"largest refinement-stable exponent: {rep.best_exponent}")

# negative control: sqrt(x^2) = |x| has a kink at the origin
kink = FunctionHandle.from_expr(parse_expression("x^2"), ("x",), domain=Ball((0.0,), 2.0))
rep2 = verify_root_regularity(kink, s=0.8, M=1, delta_search=[0.5],
                              region=Ball((0.0,), 1.0), samples=200)
print(f"\nsqrt(x^2) across the origin: truncated near the zero = {rep2.truncated}, "
      f"stable exponents = { {k: bool(v) for k, v in rep2.stable.items()} }")
