"""Metric and workload names of the benchmark, shared by every perfbench module.

This module imports nothing from sosreg, so the parent process can read it
without paying for the import it measures.
"""

WORKLOADS = {
    "fiber3d": (
        "The case-II fiber split with recursion to depth 2 (x^2+y^2+z^2): "
        "fiber Newton solves, rotated Hessians and colouring dominate."
    ),
    "holder2d": (
        "Read side of the partition (criterion 12): root Hoelder probes evaluate "
        "chi_pairs per stencil batch; bypasses the counterexample lab."
    ),
    "lab": (
        "Counterexample lab: family_f differentiation and control distance "
        "(exprlang-bound) plus delta_1 restarts (counterex-bound)."
    ),
}

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


# name, unit, better, end-to-end metric it should move, workloads it should
# move it on, workloads on which the traced run requires it to be non-zero
PER_LAYER = [
    ("exprlang.evaluate.calls", "count", "lower", "wall_s", ("lab",), ("lab", "fiber3d")),
    ("exprlang.evaluate.self_s", "s", "lower", "wall_s", ("lab",), ("lab", "fiber3d")),
    ("exprlang.evaluate.nodes", "count", "lower", "wall_s", ("lab",), ("lab", "fiber3d")),
    ("exprlang.differentiate.calls", "count", "lower", "wall_s", ("lab",), ("lab", "fiber3d")),
    ("exprlang.differentiate.self_s", "s", "lower", "wall_s", ("lab",), ("lab", "fiber3d")),
    ("calculus.derivative_values.calls", "count", "lower", "wall_s", ("lab", "fiber3d"), ("lab", "fiber3d")),
    ("calculus.derivative_values.points", "count", "lower", "wall_s", ("lab", "fiber3d"), ("lab", "fiber3d")),
    ("calculus.derivative_values.self_s", "s", "lower", "wall_s", ("lab", "fiber3d"), ("lab", "fiber3d")),
    ("calculus.deriv_calls.order1", "count", "lower", "wall_s", ("lab", "fiber3d"), ("fiber3d",)),
    ("calculus.deriv_calls.order2", "count", "lower", "wall_s", ("lab", "fiber3d"), ("lab", "fiber3d")),
    ("calculus.deriv_calls.order3", "count", "lower", "wall_s", ("lab", "fiber3d"), ()),
    ("calculus.deriv_calls.order4", "count", "lower", "wall_s", ("lab", "fiber3d"), ("lab", "fiber3d")),
    ("calculus.hessian_values.self_s", "s", "lower", "wall_s", ("fiber3d", "lab"), ("lab", "fiber3d")),
    ("calculus.max_entry_values.self_s", "s", "lower", "wall_s", ("fiber3d", "lab"), ("lab", "fiber3d")),
    ("cover.control_distance_values.calls", "count", "lower", "wall_s", ("lab", "fiber3d"), ("lab", "fiber3d")),
    ("cover.control_distance_values.points", "count", "lower", "wall_s", ("lab", "fiber3d"), ("lab", "fiber3d")),
    ("cover.control_distance_values.self_s", "s", "lower", "wall_s", ("lab", "fiber3d"), ("lab", "fiber3d")),
    ("cover.build_cover.self_s", "s", "lower", "wall_s", ("fiber3d",), ("fiber3d",)),
    ("cover.cells", "count", "lower", "wall_s", ("fiber3d",), ("fiber3d",)),
    ("cover.accept_ratio", "ratio", "higher", "wall_s", ("fiber3d",), ("fiber3d",)),
    ("cover.color_classes.self_s", "s", "lower", "wall_s", ("fiber3d",), ("fiber3d",)),
    ("cover.colors", "count", "lower", "wall_s", ("fiber3d",), ("fiber3d",)),
    ("cover.build_partition.self_s", "s", "lower", "setup_s", ("holder2d", "fiber3d"), ("fiber3d",)),
    ("cover.chi_pairs.calls", "count", "lower", "wall_s", ("holder2d",), ("holder2d", "fiber3d")),
    ("cover.chi_pairs.points", "count", "lower", "wall_s", ("holder2d",), ("holder2d", "fiber3d")),
    ("cover.chi_pairs.self_s", "s", "lower", "wall_s", ("holder2d",), ("holder2d", "fiber3d")),
    ("cover.chi_pairs.hits", "count", "lower", "wall_s", ("holder2d",), ("holder2d", "fiber3d")),
    ("cover.chi_live_ratio", "ratio", "higher", "wall_s", ("holder2d",), ("holder2d", "fiber3d")),
    ("cover.sum_chi_sq.self_s", "s", "lower", "wall_s", ("holder2d",), ("holder2d", "fiber3d")),
    ("sos.decompose.calls", "count", "lower", "wall_s", ("fiber3d",), ("fiber3d",)),
    ("sos.decompose.self_s", "s", "lower", "wall_s", ("fiber3d",), ("fiber3d",)),
    ("sos.recursion_depth", "count", "lower", "wall_s", ("fiber3d",), ("fiber3d",)),
    ("sos.case_ii_cells", "count", "lower", "wall_s", ("fiber3d",), ("fiber3d",)),
    ("sos.cells_total", "count", "lower", "wall_s", ("fiber3d",), ("fiber3d",)),
    ("sos.check_differential_inequalities.self_s", "s", "lower", "wall_s", ("fiber3d",), ("fiber3d",)),
    ("sos.solve_many.calls", "count", "lower", "wall_s", ("fiber3d",), ("fiber3d",)),
    ("sos.solve_many.points", "count", "lower", "wall_s", ("fiber3d",), ("fiber3d",)),
    ("sos.solve_many.self_s", "s", "lower", "wall_s", ("fiber3d",), ("fiber3d",)),
    ("sos.reduced_profile.self_s", "s", "lower", "wall_s", ("fiber3d",), ("fiber3d",)),
    ("sos.root_eval.calls", "count", "lower", "wall_s", ("holder2d", "fiber3d"), ("holder2d", "fiber3d")),
    ("sos.root_eval.points", "count", "lower", "wall_s", ("holder2d", "fiber3d"), ("holder2d", "fiber3d")),
    ("sos.root_eval.self_s", "s", "lower", "wall_s", ("holder2d", "fiber3d"), ("holder2d", "fiber3d")),
    ("sos.sum_of_squares.self_s", "s", "lower", "wall_s", ("holder2d", "fiber3d"), ("fiber3d",)),
    ("sos.root_holder_estimate.calls", "count", "lower", "wall_s", ("holder2d",), ("holder2d",)),
    ("sos.root_holder_estimate.self_s", "s", "lower", "wall_s", ("holder2d",), ("holder2d",)),
    ("sos.report_json.self_s", "s", "lower", "wall_s", ("fiber3d",), ("fiber3d",)),
    ("counterex.estimate_delta_nu.self_s", "s", "lower", "wall_s", ("lab",), ("lab",)),
    ("counterex.restarts", "count", "lower", "wall_s", ("lab",), ("lab",)),
    ("process.cpu_s", "s", "lower", "wall_s", tuple(WORKLOADS), tuple(WORKLOADS)),
    ("process.raw_wall_s", "s", "lower", "wall_s", tuple(WORKLOADS), tuple(WORKLOADS)),
    ("process.trace_overhead", "ratio", "lower", "wall_s", tuple(WORKLOADS), tuple(WORKLOADS)),
]

PER_LAYER_UNITS = {name: unit for name, unit, *_ in PER_LAYER}
END_TO_END_UNITS = {name: unit for name, unit, *_ in END_TO_END}
