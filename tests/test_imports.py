"""The import graph: numpy is imported eagerly, scipy only by the cover's neighbour searches."""

import json
import os
import subprocess
import sys
from pathlib import Path

import sosreg

PROBE = """
import json, sys
import sosreg, sosreg.cli, sosreg.calculus, sosreg.counterex, sosreg.cover, sosreg.monotone, sosreg.roots, sosreg.sos
from sosreg.calculus import FunctionHandle
from sosreg.cover import ControlDistanceParams, build_cover
from sosreg.exprlang import parse_expression
from sosreg.geometry import Ball

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

at_import = scipy_modules()
f = FunctionHandle.from_expr(parse_expression("x^2 + y^2"), ("x", "y"), domain=Ball((0.0, 0.0), 1.0))
cells = build_cover(f, ControlDistanceParams(0.25), Ball((0.0, 0.0), 0.05))
print(json.dumps({"at_import": at_import, "after_cover": scipy_modules(), "cells": len(cells)}))
"""


def test_scipy_loads_at_the_first_cover_not_at_import():
    src = str(Path(sosreg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, check=True)
    seen = json.loads(proc.stdout)
    assert seen["at_import"] == []
    assert seen["cells"] > 0
    assert "scipy.spatial" in seen["after_cover"]
