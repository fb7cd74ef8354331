"""Command-line front end: reproducible runs with machine-readable reports.

Every subcommand (decompose, verify, monotone, roots, counterex {threshold,
scan, delta-nu}, check {odd-even, interp, slow-vary, diff-ineq}, catalog) is
one row of `COMMANDS`: its help, its flags as (name, type, default, help) and
a run function returning its payload entries and whether it passed.  The
parser, the resolution of every flag (explicit flag > key=value config file,
keys spelled as the flags > default) and the report's `config` echo are built
from that table.  Exit status: 0 on pass, 2 when a run completed but its
check failed, 1 on usage, configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from typing import Callable, NamedTuple

import numpy as np

from .calculus import FunctionHandle, Modulus, verify_interpolation_bound, verify_odd_even_control
from .counterex import FamilyParams, estimate_delta_nu, monotone_scan, threshold_report
from .cover import ControlDistanceParams, verify_slowly_varying
from .errors import SosregError
from .exprlang import (FunctionDef, catalog_formula, catalog_function, catalog_names, catalog_note, free_variables,
                       parse_expression, parse_function_file)
from .geometry import Ball, ball_points
from .monotone import monotone_functional
from .reporting import dump_json, write_cells_jsonl, write_csv
from .roots import check_power_jet
from .sos import DecomposeParams, check_differential_inequalities, decompose, verify_decomposition

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2

REQUIRED = object()  # default of a flag argparse requires on the command line
OUTPUTS = ("report", "csv", "cells")  # paths, resolved like any flag but not echoed in `config`
_SWITCH_WORDS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}


class Command(NamedTuple):
    help: str
    flags: tuple  # (name, type, default, help); type bool is a switch, list a repeatable flag
    run: Callable  # resolved options -> (payload entries, passed); values it adds to the options are echoed


def _floats(text: str) -> list:
    return [float(v) for v in text.split(",")]


def _count(text: str) -> int:
    """A sample or restart count, at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    cfg = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SosregError(f"config line {lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _from_config(name: str, kind, text: str):
    try:
        if kind is bool:
            return _SWITCH_WORDS[text.lower()]
        if kind is list:
            return [item.strip() for item in text.split(",")]
        return kind(text)
    except (KeyError, ValueError):
        raise SosregError(f"config key {name!r}: cannot read {text!r}") from None
    except argparse.ArgumentTypeError as err:
        raise SosregError(f"config key {name!r}: {err}") from None


def _resolve(args, cfg: dict, flags) -> dict:
    """Explicit flag > config file > default, for every flag of a command."""
    by_dest = {flag[0].replace("-", "_"): flag for flag in flags}
    unknown = sorted(set(cfg) - set(by_dest))
    if unknown:
        raise SosregError(f"config key(s) {', '.join(unknown)} name no flag of this command")
    resolved = {}
    for dest, (name, kind, default, _) in by_dest.items():
        value = getattr(args, dest)
        if value is None and dest in cfg:
            value = _from_config(name, kind, cfg[dest])
        resolved[dest] = default if value is None else value
    return resolved


def _catalog_params(items) -> dict:
    pairs = [item.partition("=") for item in items]
    for key, sep, value in pairs:
        if not value:
            raise SosregError(f"--param expects key=value, got {key + sep!r}")
    return {key: float(value) for key, _, value in pairs}


def _function_def(o: dict, dim: int | None = None) -> FunctionDef:
    """The function of --function: a catalog entry, the first definition of a file, or an expression."""
    source, params = o["function"], _catalog_params(o["param"])
    if source in catalog_names():
        return catalog_function(source, params)
    if os.path.exists(source):
        with open(source) as fh:
            defs = parse_function_file(fh.read())
        if not defs:
            raise SosregError(f"no definitions in function file {source}")
        return next(iter(defs.values()))
    body = parse_expression(source)
    variables = tuple(sorted(free_variables(body))) or ("x",)
    if dim is not None and len(variables) != dim:
        raise SosregError(f"expression has {len(variables)} free variable(s) {variables}, but --dim {dim} was given")
    return FunctionDef(source, variables, body, Ball(center=(0.0,) * len(variables), radius=16.0))


def _region(o: dict, dim: int) -> Ball:
    """The ball of --region-radius and --region-center; the resolved centre is echoed."""
    center = tuple(o["region_center"] or (0.0,) * dim)
    if len(center) != dim:
        raise SosregError(f"region-center has {len(center)} coordinates for dimension {dim}")
    o["region_center"] = list(center)
    return Ball(center=center, radius=o["region_radius"])


# ---------------------------------------------------------------------------
# Run functions: resolved options -> (payload entries, passed)
# ---------------------------------------------------------------------------


def _decomposition(o: dict):
    f = FunctionHandle.from_def(_function_def(o, o["dim"]))
    region = _region(o, f.arity)
    params = DecomposeParams(
        region=region, normalize=not o["no_normalize"], strict_inequalities=o["strict"],
        estimate_holder=not o["no_holder"],
        **{key: o[key] for key in ("delta", "eta", "s", "floor", "tol", "verify_points", "max_cells")},
    )
    report = decompose(f, params)
    o.update(c=params.c, normalize=params.normalize)
    if o["cells"]:
        write_cells_jsonl(o["cells"], report.cells)
    return f, region, report


def _run_decompose(o: dict):
    f, _, report = _decomposition(o)
    if o["csv"]:
        rows = [[c.nu, *c.center, c.radius, "I" if one else "II", c.color]
                for c, one in zip(report.cells, report.case_one.tolist())]
        write_csv(o["csv"], ["nu", *(f"c{i}" for i in range(f.arity)), "radius", "case", "color"], rows)
    return {"report": report}, report.passed


def _run_verify(o: dict):
    f, region, report = _decomposition(o)
    verification = verify_decomposition(f, report, ball_points(region, o["grid_points"]))
    if o["csv"]:
        pts = ball_points(region, min(2000, o["grid_points"]))
        residuals = np.abs(f.values(pts) - report.sum_of_squares(pts))
        write_csv(o["csv"], [*(f"x{i}" for i in range(f.arity)), "residual"],
                  [[*pt, r] for pt, r in zip(pts.tolist(), residuals.tolist())])
    return {"report": report, "verification": verification}, report.passed and verification.passed


def _on_region(measure):
    """Run function of a check that measures one report of f on the region."""
    def run(o: dict):
        f = FunctionHandle.from_def(_function_def(o))
        report = measure(f, _region(o, f.arity), o)
        return {"report": report}, report.passed
    return run


def _run_roots(o: dict):
    fdef = _function_def(o)
    report = check_power_jet(fdef, o["gamma"], o["order"], ball_points(_region(o, len(fdef.variables)), o["samples"]))
    return {"report": report}, report.passed


def _run_threshold(o: dict):
    report = threshold_report(o["gamma_alpha"], o["verify_flip"])
    print(f"s0 = {report.printed}")
    if not report.in_unit_interval:
        print("no threshold lies in (0, 1)")
    return {"report": report}, report.passed


def _run_scan(o: dict):
    try:
        a, b, step = (float(v) for v in o["s_range"].split(":"))
    except ValueError:
        raise SosregError(f"--s-range expects a:b:step, got {o['s_range']!r}") from None
    s_values, s = [], a
    while s <= b + 1e-12:
        s_values.append(s)
        s += step
    report = monotone_scan(FamilyParams(s_prime=o["s_prime"], rho_plateau=o["rho"]), o["beta"], s_values)
    if o["csv"]:
        write_csv(o["csv"], report.header, report.rows)
    return {"report": report}, report.passed


def _run_delta_nu(o: dict):
    report = estimate_delta_nu(o["nu"], c0=o["c0"], sphere_samples=o["sphere_samples"],
                               restarts=o["restarts"], seed=o["seed"])
    return {"report": report}, report.passed


def _run_catalog(o: dict):
    rows = [{"name": name, "formula": catalog_formula(name), "notes": catalog_note(name)}
            for name in catalog_names()]
    for row in rows:
        print(f"{row['name']:14s} {row['notes']}\n{'':14s} {row['formula']}")
    return {"report": {"entries": rows}}, True


# ---------------------------------------------------------------------------
# The command table
# ---------------------------------------------------------------------------

_COMMON = (("report", str, None, "write the JSON report to this path (default: stdout)"),)
_FUNCTION = (
    ("function", str, REQUIRED, "catalog name, expression, or function file (its first definition)"),
    ("param", list, (), "catalog parameter key=value (repeatable)"),
    ("region-radius", float, 1.0, "radius of the region ball"),
    ("region-center", _floats, None, "comma-separated centre of the region ball (default: origin)"),
)
_SAMPLES = ("samples", _count, 2000, "sample points")
_DELTA = ("delta", float, 0.25, "cover scale delta in (0, 1/2)")
_ETA = ("eta", float, 0.3, "case-split margin eta in (0, 1/2)")
_CSV = ("csv", str, None, "write the cells (decompose), grid residuals (verify) or rows (scan) to this CSV path")
_DEFAULTS = {fd.name: fd.default for fd in fields(DecomposeParams)}
_DECOMPOSE = (
    *_FUNCTION,
    ("dim", int, None, "number of free variables the expression must have"),
    _DELTA,
    _ETA,
    ("s", float, _DEFAULTS["s"], "cell scale s in (0, 1/200]; the case split uses c = s^2/8"),
    ("floor", float, _DEFAULTS["floor"], "control-distance floor of the cover"),
    ("tol", float, _DEFAULTS["tol"], "relative residual tolerance"),
    ("verify-points", _count, _DEFAULTS["verify_points"], "residual sample points; at least 512 are sampled"),
    ("max-cells", int, _DEFAULTS["max_cells"], "cover cell budget"),
    ("strict", bool, False, "fail on differential-inequality violation"),
    ("no-normalize", bool, False, "skip rescaling f when its quartic constant exceeds 1"),
    ("no-holder", bool, False, "skip root Hölder estimation"),
    ("cells", str, None, "write cover cells as JSON lines to this path"),
    _CSV,
)

COMMANDS = {
    "decompose": Command("decompose a nonnegative function into squares", _DECOMPOSE, _run_decompose),
    "verify": Command("decompose and verify on a denser grid", (
        *_DECOMPOSE, ("grid-points", int, 4000, "points of the independent verification grid")), _run_verify),
    "monotone": Command("weak-monotonicity functional of a function", (
        *_FUNCTION,
        ("s", float, 0.5, "exponent of the modulus omega_s"),
        ("samples", _count, 200, "outer sample points x"),
        ("inner-samples", _count, 64, "inner sample points y per x"),
        ("t-min", float, 1e-3, "smallest |x| sampled"),
    ), _on_region(lambda f, region, o: monotone_functional(
        f, Modulus.omega(o["s"]), outer_samples=o["samples"], inner_samples=o["inner_samples"],
        t_min=o["t_min"], region=region))),
    "roots": Command("power derivatives against the exact derivatives of f^gamma", (
        *_FUNCTION,
        ("gamma", float, 0.5, "exponent of the power f^gamma"),
        ("order", int, 2, "derivative order compared"),
        ("samples", _count, 100, "sample points before dropping zeros of f"),
    ), _run_roots),
    "counterex threshold": Command("print the Hölder-monotone threshold", (
        ("gamma-alpha", float, 1.0, "alpha of gamma_alpha"),
        ("verify-flip", bool, False, "check that the T functional flips across the threshold"),
    ), _run_threshold),
    "counterex scan": Command("sweep s against the S/T functionals", (
        ("s-range", str, "0.3:0.9:0.1", "a:b:step"),
        ("beta", float, 0.75, "exponent beta of the SOS failure criterion"),
        ("rho", float, 0.5, "plateau radius of the family"),
        ("s-prime", float, 0.5, "exponent s' of the family"),
        _CSV,
    ), _run_scan),
    "counterex delta-nu": Command("distance of the quartic from nu squares of quadratics", (
        ("nu", int, 1, "number of squares, 0..4"),
        ("c0", float, 3.0, "coefficient cap"),
        ("sphere-samples", _count, 2000, "sample points on the unit sphere"),
        ("restarts", _count, 20, "descent restarts"),
        ("seed", int, 0, "seed of the restart draws"),
    ), _run_delta_nu),
    "check odd-even": Command("odd-by-even derivative controls", (*_FUNCTION, _SAMPLES), _on_region(
        lambda f, region, o: verify_odd_even_control(f, region, samples=o["samples"]))),
    "check interp": Command("interpolation bound for intermediate derivatives", (
        *_FUNCTION,
        ("samples", _count, 200, "sample points"),
        ("m", int, 1, "intermediate order m"),
        ("k", int, 2, "top order k"),
    ), _on_region(lambda f, region, o: verify_interpolation_bound(
        f, region, m=o["m"], k=o["k"], samples=o["samples"]))),
    "check slow-vary": Command("slow variation of the control distance", (*_FUNCTION, _SAMPLES, _DELTA), _on_region(
        lambda f, region, o: verify_slowly_varying(
            f, ControlDistanceParams(delta=o["delta"]), region, samples=o["samples"]))),
    "check diff-ineq": Command("differential inequalities of the decomposition", (
        *_FUNCTION, _SAMPLES, _DELTA, _ETA), _on_region(lambda f, region, o: check_differential_inequalities(
            f, delta=o["delta"], eta=o["eta"], region=region, samples=o["samples"]))),
    "catalog": Command("list the function catalog", (), _run_catalog),
}

_GROUP_HELP = {"counterex": "counterexample family laboratory", "check": "verify a supporting inequality"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors are configuration errors (exit 1), not failed checks."""
        raise SosregError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sosreg", description="Constructive sum-of-squares decompositions and their checks.",
                     allow_abbrev=False)
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for key, cmd in COMMANDS.items():
        group, _, leaf = key.rpartition(" ")
        if group and group not in groups:
            groups[group] = top.add_parser(group, help=_GROUP_HELP[group], allow_abbrev=False).add_subparsers(
                dest="command", required=True)
        sp = (groups[group] if group else top).add_parser(leaf, help=cmd.help, allow_abbrev=False)
        sp.set_defaults(command=key)
        for name, kind, default, text in (*cmd.flags, *_COMMON):
            if kind not in (bool, list) and default not in (None, REQUIRED):
                text = f"{text} (default: {default})"
            if kind is bool:
                sp.add_argument(f"--{name}", action="store_true", default=None, help=text)
            elif kind is list:
                sp.add_argument(f"--{name}", action="append", help=text)
            else:
                sp.add_argument(f"--{name}", type=kind, required=default is REQUIRED, help=text)
        sp.add_argument("--config", help="key=value file of flag values; explicit flags override")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cmd = COMMANDS[args.command]
        o = _resolve(args, _load_config(args.config), (*cmd.flags, *_COMMON))
        entries, passed = cmd.run(o)
        code = EXIT_PASS if passed else EXIT_CHECK_FAILED
        config = {k: v for k, v in o.items() if k not in OUTPUTS}
        dump_json({"command": args.command, "config": config, **entries, "exit_status": code}, o["report"])
        return code
    except (SosregError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
