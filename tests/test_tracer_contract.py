"""The benchmark's tracer against the current sources: every name it patches
exists, so a rename in src/ fails here instead of in a traced benchmark run,
and the metrics a traced `holder2d` run requires to be non-zero are non-zero
for one root Hölder estimate, so a read path that stops calling a traced
layer fails here too."""

import importlib.util
from pathlib import Path

from sosreg.calculus import FunctionHandle
from sosreg.exprlang import parse_expression
from sosreg.geometry import Ball
import sosreg.sos as sos

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("tracer")


def test_every_traced_name_exists_and_is_restored():
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)  # a missing name raises KeyError here
        patched = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, orig in patched:
        assert owner.__dict__[attr] is orig, f"{owner.__name__}.{attr} not restored"
        assert callable(orig), f"{owner.__name__}.{attr}"


def test_root_holder_estimate_feeds_every_holder2d_metric():
    f = FunctionHandle.from_expr(parse_expression("x^2 + y^2"), ("x", "y"), domain=Ball((0.0, 0.0), 4.0))
    rep = sos.decompose(f, sos.DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0, 0.0), 0.05),
                                               estimate_holder=False))
    grp = max(rep.roots, key=lambda g: len(g.members))
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        tracer.reset()
        sos.root_holder_estimate(grp, rep.deltas[-1], samples=150)  # the traced name
        got = tracer_module.unit_metrics(tracer)
    finally:
        tracer.uninstall()
    # the process.* metrics come from the benchmark's child process, not from the spans
    required = [name for name, *_, homes in _load("metrics").PER_LAYER
                if "holder2d" in homes and not name.startswith("process.")]
    assert "cover.chi_pairs.points" in required and "sos.root_holder_estimate.calls" in required
    assert [name for name in required if not got.get(name, 0) > 0] == []
