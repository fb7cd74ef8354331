"""The JSON rule for reports: `Report.as_dict` lists op, fields and derived
properties with raw values, and `to_jsonable` alone converts them."""

import json
import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from sosreg.calculus import FlatnessReport, HolderEstimate, InterpolationReport, LineInequalityReport
from sosreg.counterex import DeltaNuReport, FunctionalReport
from sosreg.cover import CoverCell, SlowVariationReport
from sosreg.geometry import Ball
from sosreg.monotone import MonotonicityClassification, MonotoneReport, PowerBoundReport
from sosreg.reporting import Report, dump_json, to_jsonable
from sosreg.roots import PowerChainReport, RootRegularityReport
from sosreg.sos import CellDecomposition, DecomposeParams, DecompositionReport, DiffIneqReport, VerificationReport

# op and JSON keys of each report class, as the CLI and library have written them
KEYS = {
    HolderEstimate: (None, {"order", "exponent", "sup_norms", "seminorm", "pair_count", "min_separation",
                            "worst_pair"}),
    LineInequalityReport: ("odd_even_control", {"rescale", "worst_ratios", "violations", "gradient_constants",
                                                "samples", "passed"}),
    InterpolationReport: ("interpolation_bound", {"m", "k", "diameter", "max_grad_m", "taylor_difference_max",
                                                  "max_grad_k", "constant", "samples", "pairs", "passed"}),
    FlatnessReport: ("is_flat", {"flat", "n_max", "failures", "derivative_flat"}),
    SlowVariationReport: ("slow_variation", {"delta", "bound", "worst_ratio", "violations", "pairs", "rescale",
                                             "passed"}),
    CoverCell: (None, {"nu", "center", "radius", "color"}),
    MonotoneReport: ("monotone_functional", {"modulus", "estimate", "log_estimate", "maximizing_x",
                                             "maximizing_y", "outer_samples", "inner_samples", "t_min",
                                             "rescale", "divergent", "witness", "passed"}),
    MonotonicityClassification: ("classify_monotonicity", {"s_grid", "c_max", "estimates", "finite",
                                                           "nearly_monotone", "holder_monotone"}),
    PowerBoundReport: ("verify_power_bound", {"s", "s_prime", "constants", "stable"}),
    RootRegularityReport: ("root_regularity", {"order", "estimates", "stable", "best_exponent", "truncated"}),
    PowerChainReport: ("power_smoothness_chain", {"m_max", "s", "derivative_constants", "power_sup",
                                                  "consistent"}),
    FunctionalReport: ("functional", {"name", "gamma", "modulus", "log_sup", "sup", "argmax_t", "divergent",
                                      "t_min"}),
    DeltaNuReport: ("estimate_delta_nu", {"nu", "estimate", "pointwise_inf", "restart_values", "stable",
                                          "coefficient_cap", "sphere_samples", "stalled", "passed"}),
    DiffIneqReport: ("differential_inequalities", {"delta", "eta", "quartic_constant", "hessian_constant",
                                                   "quartic_stable", "hessian_stable", "samples", "passed"}),
    VerificationReport: ("verify_decomposition", {"grid_points", "evaluated_points", "excluded_points",
                                                  "residual_bound", "empty", "residual_sup", "residual_mean",
                                                  "holder", "passed"}),
}


def _filled(cls):
    return cls(**{fd.name: 0.5 for fd in fields(cls)})


@pytest.mark.parametrize("cls", list(KEYS), ids=lambda c: c.__name__)
def test_report_keys(cls):
    op, keys = KEYS[cls]
    assert issubclass(cls, Report)
    out = to_jsonable(_filled(cls))
    assert set(out) == keys | ({"op"} if op else set())
    assert out.get("op") == op
    json.dumps(out, allow_nan=False)


def test_values_stay_raw():
    sup_norms = np.array([1.0, 2.0])
    est = HolderEstimate(order=2, exponent=0.5, sup_norms=sup_norms, seminorm=np.float64(3.0), pair_count=4,
                         min_separation=0.1)
    raw = est.as_dict()
    assert raw["sup_norms"] is sup_norms and type(raw["seminorm"]) is np.float64
    out = to_jsonable(est)
    assert out["sup_norms"] == [1.0, 2.0] and type(out["seminorm"]) is float


def _decomposition():
    params = DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0,), 0.5))
    return DecompositionReport(params=params, deltas=[0.25], value_scale=1.0)


def test_decomposition_keys():
    rep = _decomposition()
    rep.cells = [CoverCell(nu=0, center=(0.1, 0.2), radius=0.01, color=1)]
    rep.case_one, rep.rho = np.array([True]), np.array([0.5])
    out = to_jsonable(rep)
    assert set(out) == {
        "op", "deltas", "value_scale", "cell_count", "case_counts", "root_groups", "inequalities",
        "residual_sup", "residual_mean", "residual_points", "identity_error", "boundary_excluded_fraction",
        "boundary_sup_f", "probe_sup_f", "residual_bound", "passed", "holder", "recursion_depth", "warnings",
        "empty", "cells", "case_ii",
    }
    assert out["op"] == "decompose" and out["cell_count"] == 1 and out["case_counts"] == {"I": 1, "II": 0}
    assert out["residual_sup"] == "nan" and out["passed"] is False
    assert out["cells"] == {"center": [[0.1, 0.2]], "radius": [0.01], "color": [1], "case": ["I"], "rho": [0.5]}
    assert out["case_ii"] == []


def test_case_ii_cell_keys():
    split = SimpleNamespace(h_ok=np.bool_(True), nodes=2, sampled_tables=lambda: {"H": np.ones((2, 1))})
    cd = CellDecomposition(cell=CoverCell(nu=0, center=(0.0,), radius=0.01), rho=0.5, axis=(1.0,), split=split,
                           identity_error=0.0)
    out = to_jsonable(cd)
    assert set(out) == {"nu", "axis", "h_lower_ok", "identity_error", "recursive", "quad_nodes", "tables"}
    assert out["h_lower_ok"] is True and out["quad_nodes"] == 2 and out["tables"] == {"H": [[1.0], [1.0]]}


def test_float_keys_print_with_g():
    assert to_jsonable({1 / 3: 1, 0.5: 2, 3: 3, "a": 4}) == {"0.333333": 1, "0.5": 2, "3": 3, "a": 4}
    rep = MonotonicityClassification(s_grid=[1 / 3], c_max=1e6, estimates={1 / 3: 2.0},
                                     finite={1 / 3: np.bool_(True)})
    out = to_jsonable(rep)
    assert out["estimates"] == {"0.333333": 2.0} and out["finite"] == {"0.333333": True}


def test_numpy_bools_are_json_booleans():
    assert to_jsonable(np.bool_(True)) is True and to_jsonable(np.bool_(False)) is False
    assert to_jsonable(np.array([True, False])) == [True, False]
    assert json.loads(json.dumps(to_jsonable({"ok": np.bool_(True)}))) == {"ok": True}


def test_nested_reports():
    est = HolderEstimate(order=1, exponent=0.25, sup_norms=[1.0], seminorm=2.0, pair_count=3, min_separation=0.1,
                         worst_pair=((0.0,), (np.float64(0.5),)))
    rep = RootRegularityReport(order=1, estimates={0.25: est}, stable={0.25: True, 0.5: False}, best_exponent=0.25,
                               truncated=False)
    out = to_jsonable(rep)
    assert out["estimates"] == {"0.25": to_jsonable(est)}
    assert out["estimates"]["0.25"]["worst_pair"] == [[0.0], [0.5]]
    assert out["stable"] == {"0.25": True, "0.5": False}
    chain = PowerChainReport(m_max=1, s=0.9, derivative_constants={1: 2.0}, power_sup={0.5: {1: 3.0}},
                             consistent=True)
    assert to_jsonable(chain)["power_sup"] == {"0.5": {"1": 3.0}}


def test_non_finite_floats_print_as_strings(tmp_path):
    values = [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf), np.array([math.inf])]
    assert to_jsonable(values) == ["nan", "inf", "-inf", "nan", "-inf", ["inf"]]
    path = tmp_path / "r.json"
    dump_json({"report": FunctionalReport(name="T", gamma=1.0, modulus="omega_0.5", log_sup=math.inf, sup=math.inf,
                                          argmax_t=0.5, divergent=np.bool_(True), t_min=0.01)}, str(path))
    report = json.loads(path.read_text())["report"]
    assert report["sup"] == "inf" and report["divergent"] is True and report["op"] == "functional"
