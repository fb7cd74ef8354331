"""The benchmark's tracer against the current sources: every name it patches
exists, so a rename in src/ fails here instead of in a traced benchmark run,
and the metrics a traced run of each workload requires to be non-zero are
non-zero for one root Hölder estimate (`holder2d`) or one smoke-size unit
(`fiber3d`, `lab`), so a path that stops calling a traced layer fails here
too."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

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


def _traced(run) -> dict:
    """The per-layer metrics of run(span) under the installed tracer."""
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        tracer.reset()
        run(tracer.span)
        return tracer_module.unit_metrics(tracer)
    finally:
        tracer.uninstall()


def _required(workload: str) -> list:
    # the process.* metrics come from the benchmark's child process, not from the spans
    return [name for name, *_, homes in _load("metrics").PER_LAYER
            if workload in homes and not name.startswith("process.")]


def test_root_holder_estimate_feeds_every_holder2d_metric():
    f = FunctionHandle.from_expr(parse_expression("x^2 + y^2"), ("x", "y"), domain=Ball((0.0, 0.0), 4.0))
    rep = sos.decompose(f, sos.DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0, 0.0), 0.05),
                                               estimate_holder=False))
    grp = max(rep.roots, key=lambda g: len(g.members))
    got = _traced(lambda span: sos.root_holder_estimate(grp, rep.deltas[-1], samples=150))  # the traced name
    required = _required("holder2d")
    assert "cover.chi_pairs.points" in required and "sos.root_holder_estimate.calls" in required
    assert [name for name in required if not got.get(name, 0) > 0] == []


@pytest.mark.parametrize("workload, names", [
    ("fiber3d", ["cover.color_classes.self_s", "cover.colors", "calculus.deriv_calls.order1", "sos.root_eval.calls"]),
    ("lab", ["calculus.deriv_calls.order2", "calculus.deriv_calls.order4", "counterex.restarts"]),
])
def test_smoke_unit_feeds_every_metric_of_its_workload(workload, names):
    wl = _load("workloads").make(workload, smoke=True)
    wl.setup(np.random.default_rng(1))
    got = _traced(lambda span: wl.unit(0, span))
    required = _required(workload)
    assert set(names) <= set(required)
    assert [name for name in required if not got.get(name, 0) > 0] == []
