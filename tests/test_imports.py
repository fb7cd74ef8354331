"""The import graph: numpy is imported eagerly and scipy never, not even by the
cover's neighbour searches, the partition, the colouring or the CLI; building a
partition or running a decomposition leaves numpy.ma unloaded; and every name
a module exports exists."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sosreg

PROBE = """
import contextlib, io, json, sys
import sosreg, sosreg.cli, sosreg.calculus, sosreg.counterex, sosreg.cover, sosreg.monotone, sosreg.roots, sosreg.sos
from sosreg.calculus import FunctionHandle
from sosreg.cover import ControlDistanceParams, build_cover, build_partition, color_classes
from sosreg.exprlang import parse_expression
from sosreg.geometry import Ball, ball_points
from sosreg.sos import DecomposeParams, decompose

seen = {}

def record(stage):
    seen[stage] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

record("import")
region = Ball((0.0, 0.0), 0.05)
f = FunctionHandle.from_expr(parse_expression("x^2 + y^2"), ("x", "y"), domain=Ball((0.0, 0.0), 1.0))
cells = build_cover(f, ControlDistanceParams(0.25), region)
record("build_cover")
part = build_partition(cells, region)
record("build_partition")
hits = len(part.chi_pairs(ball_points(region, 200)).idx)
record("chi_pairs")
colors = len({c.color for c in color_classes(cells)})
record("color_classes")
report = decompose(f, DecomposeParams(delta=0.25, eta=0.3, region=region))
record("decompose")
with contextlib.redirect_stdout(io.StringIO()):
    code = sosreg.cli.main(["decompose", "--function", "x^2 + y^2", "--region-radius", "0.05"])
record("cli")
print(json.dumps({"seen": seen, "cells": len(cells), "hits": hits, "colors": colors,
                  "decomposed": report.passed, "cli": code}))
"""


def test_scipy_is_never_loaded():
    src = str(Path(sosreg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, check=True)
    out = json.loads(proc.stdout)
    stages = ("import", "build_cover", "build_partition", "chi_pairs", "color_classes", "decompose", "cli")
    assert out["seen"] == {stage: [] for stage in stages}
    assert out["cells"] > 0 and out["hits"] > 0 and out["colors"] > 0
    assert out["decomposed"] is True
    assert out["cli"] == 0


BUCKETS_PROBE = """
import json, sys
import numpy as np
from sosreg.cover import CoverCell, Partition

rng = np.random.default_rng(3)
centers, radii = rng.uniform(-1.0, 1.0, (300, 3)), rng.uniform(0.01, 0.3, 300)
part = Partition([CoverCell(nu=i, center=tuple(c), radius=float(r)) for i, (c, r) in enumerate(zip(centers, radii))])
loaded = "numpy.ma" in sys.modules
# each axis table holds the distinct cube indices the items reach on that axis
index, reach = part.index, part.radii * (1.0 + 1e-9)
first = np.floor((part.centers - reach[:, None]) / index.side)
steps = np.arange(int(np.max(np.floor((part.centers + reach[:, None]) / index.side) - first)) + 1)
want = [np.unique(first[:, d, None] + steps) for d in range(3)]
same = [axis.dtype == w.dtype and axis.tobytes() == w.tobytes() for (axis, _), w in zip(index.tables, want)]
print(json.dumps({"numpy.ma": loaded, "same": same}))
"""


def test_partition_leaves_numpy_ma_unloaded():
    # np.unique of floats asks numpy.ma whether its input is masked, which imports it
    src = str(Path(sosreg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", BUCKETS_PROBE], capture_output=True, text=True, env=env, check=True)
    assert json.loads(proc.stdout) == {"numpy.ma": False, "same": [True, True, True]}


DECOMPOSE_PROBE = """
import json, sys
from sosreg.calculus import FunctionHandle
from sosreg.exprlang import parse_expression
from sosreg.geometry import Ball
from sosreg.sos import DecomposeParams, decompose

region = Ball((0.0, 0.0), 0.05)
f = FunctionHandle.from_expr(parse_expression("x^2 + y^2"), ("x", "y"), domain=Ball((0.0, 0.0), 1.0))
report = decompose(f, DecomposeParams(delta=0.25, eta=0.3, region=region))
print(json.dumps({"numpy.ma": "numpy.ma" in sys.modules, "case_one": int(report.case_one.sum()),
                  "passed": report.passed}))
"""


def test_decompose_leaves_numpy_ma_unloaded():
    # np.unique asks numpy.ma whether its input is masked, even for the integer colours of case I
    src = str(Path(sosreg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", DECOMPOSE_PROBE], capture_output=True, text=True, env=env, check=True)
    out = json.loads(proc.stdout)
    assert out["numpy.ma"] is False
    assert out["case_one"] > 0 and out["passed"] is True


@pytest.mark.parametrize("module", ["sosreg"] + [f"sosreg.{m.name}" for m in pkgutil.iter_modules(sosreg.__path__)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_reports_serialise_by_one_rule():
    # a report's JSON form is Report.as_dict; only the two reports that leave
    # fields out or add keys that are not fields write their own
    own = {
        f"{mod.__name__}.{name}"
        for mod in map(importlib.import_module, [f"sosreg.{m.name}" for m in pkgutil.iter_modules(sosreg.__path__)])
        for name, obj in vars(mod).items()
        if isinstance(obj, type) and obj.__module__ == mod.__name__ and "as_dict" in vars(obj)
    }
    assert own == {"sosreg.reporting.Report", "sosreg.sos.DecompositionReport", "sosreg.sos.CellDecomposition"}
