"""Command-line front end: reproducible runs with machine-readable reports.

Subcommands: decompose, verify, monotone, roots, counterex {scan, threshold,
delta-nu}, check {odd-even, interp, slow-vary, diff-ineq}, catalog.  Flags
are long-form only; a key=value config file supplies defaults that explicit
flags override.  Reports are JSON with the fully resolved configuration
embedded; grids go to CSV.  Exit status: 0 on pass, 2 when a run completed
but its mathematical check failed, 1 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .calculus import (
    FunctionHandle,
    Modulus,
    verify_interpolation_bound,
    verify_odd_even_control,
)
from .counterex import (
    FamilyParams,
    estimate_delta_nu,
    functional,
    gamma_alpha,
    sos_failure_criterion,
)
from .cover import ControlDistanceParams, verify_slowly_varying
from .errors import SosregError
from .exprlang import (
    FunctionDef,
    Pow,
    catalog_formula,
    catalog_function,
    catalog_names,
    free_variables,
    parse_expression,
    parse_function_file,
)
from .geometry import Ball, ball_points
from .monotone import monotone_functional
from .reporting import dump_json, write_csv
from .roots import PowerHandle
from .sos import DecomposeParams, check_differential_inequalities, decompose, verify_decomposition

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2

_CATALOG_NOTES = {
    "motzkin_M": "nonnegative sextic in 3 variables; not a sum of squares of polynomials",
    "quartic_L": "nonnegative quartic in 4 variables; not a sum of squares of quadratic forms",
    "flat_exp_sq": "exp(-1/t^2): flat at 0, positive elsewhere",
    "flat_exp": "exp(-1/t) for t > 0, 0 otherwise; flat one-sided profile",
    "bump_h": "smooth even plateau: 1 on [0, rho], 0 outside (-1, 1)",
    "family_f": "five-variable counterexample family phi*L + psi + phi(r)*h(t/r)",
    "glaeser_stub": "construction hook exp(-1/g) with a user-supplied inner function g",
}


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


def _resolve(args, cfg: dict, key: str, default, cast=float):
    """Explicit flag > config file > hard default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in cfg:
        raw = cfg[key]
        if cast is bool:
            return raw.lower() in ("1", "true", "yes", "on")
        return cast(raw)
    return default


def _function_def(source: str, cfg_params: dict, dim: int | None = None) -> FunctionDef:
    if source in catalog_names():
        return catalog_function(source, cfg_params)
    if os.path.exists(source):
        with open(source) as fh:
            defs = parse_function_file(fh.read())
        if not defs:
            raise SosregError(f"no definitions in function file {source}")
        name = cfg_params.get("name") or next(iter(defs))
        return defs[name]
    body = parse_expression(source)
    variables = tuple(sorted(free_variables(body))) or ("x",)
    if dim is not None and len(variables) != dim:
        raise SosregError(
            f"expression has {len(variables)} free variable(s) {variables}, but --dim {dim} was given"
        )
    return FunctionDef(source, variables, body, Ball(center=(0.0,) * len(variables), radius=16.0))


def _region(args, cfg, dim: int) -> Ball:
    radius = _resolve(args, cfg, "region_radius", 1.0)
    center_text = _resolve(args, cfg, "region_center", None, cast=str)
    if center_text:
        center = tuple(float(v) for v in str(center_text).split(","))
        if len(center) != dim:
            raise SosregError(f"region-center has {len(center)} coordinates for dimension {dim}")
    else:
        center = (0.0,) * dim
    return Ball(center=center, radius=radius)


def _catalog_params(args) -> dict:
    out = {}
    for item in getattr(args, "param", None) or []:
        key, _, value = item.partition("=")
        if not value:
            raise SosregError(f"--param expects key=value, got {item!r}")
        out[key] = float(value)
    return out


def _emit(payload: dict, args, exit_code: int) -> int:
    payload["exit_status"] = exit_code
    dump_json(payload, getattr(args, "report", None))
    return exit_code


def _base_payload(command: str, resolved: dict) -> dict:
    return {"command": command, "config": resolved}


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_decompose(args, cfg, verify_mode: bool = False) -> int:
    f = FunctionHandle.from_def(_function_def(args.function, _catalog_params(args), getattr(args, "dim", None)))
    region = _region(args, cfg, f.arity)
    params = DecomposeParams(
        delta=_resolve(args, cfg, "delta", 0.25),
        eta=_resolve(args, cfg, "eta", 0.3),
        region=region,
        s=_resolve(args, cfg, "s", 1.0 / 200.0),
        floor=_resolve(args, cfg, "floor", 1e-3),
        tol=_resolve(args, cfg, "tol", 1e-6),
        verify_points=int(_resolve(args, cfg, "verify_points", 2000, cast=int)),
        normalize=not args.no_normalize,
        strict_inequalities=bool(args.strict),
        estimate_holder=not args.no_holder,
        max_cells=int(_resolve(args, cfg, "max_cells", 200_000, cast=int)),
    )
    report = decompose(f, params)
    resolved = {
        "function": args.function,
        "delta": params.delta,
        "eta": params.eta,
        "region_radius": region.radius,
        "region_center": list(region.center),
        "s": params.s,
        "c": params.c,
        "floor": params.floor,
        "tol": params.tol,
        "verify_points": params.verify_points,
        "normalize": params.normalize,
        "seed": args.seed,
    }
    payload = _base_payload("verify" if verify_mode else "decompose", resolved)
    payload["report"] = report
    if verify_mode:
        grid_points = int(_resolve(args, cfg, "grid_points", 4000, cast=int))
        grid = ball_points(region, grid_points)
        verification = verify_decomposition(f, report, grid)
        payload["verification"] = verification
        # the independent grid must meet the report's own bound as well
        ok = report.passed and not verification["empty"] and verification["residual_sup"] <= report.residual_bound
    else:
        ok = report.passed
    if args.cells:
        from .reporting import write_cells_jsonl

        write_cells_jsonl(args.cells, [cd.cell for cd in report.cells])
    if args.csv and verify_mode:
        grid_pts = ball_points(region, min(2000, int(_resolve(args, cfg, "grid_points", 2000, cast=int))))
        grid_residuals = np.abs(f.values(grid_pts) - report.sum_of_squares(grid_pts))
        dim_labels = [f"x{i}" for i in range(f.arity)]
        write_csv(args.csv, [*dim_labels, "residual"],
                  [[*pt, r] for pt, r in zip(grid_pts.tolist(), grid_residuals.tolist())])
    elif args.csv:
        rows = [
            [cd.cell.nu, *cd.cell.center, cd.cell.radius, cd.case, cd.cell.color]
            for cd in report.cells
        ]
        dim_labels = [f"c{i}" for i in range(f.arity)]
        write_csv(args.csv, ["nu", *dim_labels, "radius", "case", "color"], rows)
    return _emit(payload, args, EXIT_PASS if ok else EXIT_CHECK_FAILED)


def _cmd_monotone(args, cfg) -> int:
    f = FunctionHandle.from_def(_function_def(args.function, _catalog_params(args)))
    region = _region(args, cfg, f.arity)
    s = _resolve(args, cfg, "s", 0.5)
    rep = monotone_functional(
        f,
        Modulus.omega(s),
        outer_samples=int(_resolve(args, cfg, "samples", 200, cast=int)),
        inner_samples=int(_resolve(args, cfg, "inner_samples", 64, cast=int)),
        t_min=_resolve(args, cfg, "t_min", 1e-3),
        region=region,
    )
    payload = _base_payload(
        "monotone",
        {"function": args.function, "s": s, "samples": rep.outer_samples, "t_min": rep.t_min,
         "region_radius": region.radius, "region_center": list(region.center), "seed": args.seed},
    )
    payload["report"] = rep
    return _emit(payload, args, EXIT_CHECK_FAILED if rep.divergent else EXIT_PASS)


def _cmd_roots(args, cfg) -> int:
    fdef = _function_def(args.function, _catalog_params(args))
    f = FunctionHandle.from_def(fdef)
    region = _region(args, cfg, f.arity)
    gamma = _resolve(args, cfg, "gamma", 0.5)
    order = int(_resolve(args, cfg, "order", 2, cast=int))
    pts = ball_points(region, int(_resolve(args, cfg, "samples", 100, cast=int)))
    pts = pts[f.values(pts) > 1e-12]
    # power_jet against the exact derivatives of the expression f^gamma
    direct = PowerHandle(f, gamma, order_cap=max(order, 4)).derivative_tensor(pts, order)
    oracle = FunctionHandle.from_expr(Pow(fdef.body, gamma), fdef.variables).derivative_tensor(pts, order)
    worst = float(np.max(np.abs(direct - oracle) / (1.0 + np.abs(direct))))
    sup = float(np.max(np.abs(direct)))
    payload = _base_payload(
        "roots",
        {"function": args.function, "gamma": gamma, "order": order, "points": int(len(pts)),
         "seed": args.seed},
    )
    payload["report"] = {
        "max_abs_derivative": sup,
        "max_relative_exact_deviation": worst,
        "tolerance": 1e-5,
    }
    return _emit(payload, args, EXIT_PASS if worst <= 1e-5 else EXIT_CHECK_FAILED)


def _cmd_counterex(args, cfg) -> int:
    sub = args.counterex_command
    if sub == "threshold":
        alpha = _resolve(args, cfg, "gamma_alpha", 1.0)
        g = gamma_alpha(alpha)
        s0 = g ** (-2.0)
        print(f"s0 = {s0:.5f}")
        payload = _base_payload("counterex threshold", {"gamma_alpha": alpha, "seed": args.seed})
        payload["report"] = {"gamma": g, "s0": s0, "printed": f"{s0:.5f}"}
        code = EXIT_PASS
        if args.verify_flip:
            p = FamilyParams()
            low = functional(p, "T", g, Modulus.omega(max(s0 - 0.08629, 1e-3)))
            high = functional(p, "T", g, Modulus.omega(min(s0 + 0.06371, 0.999)))
            payload["report"]["flip"] = {
                "below": low,
                "above": high,
                "flips": (not low.divergent) and high.divergent,
            }
            code = EXIT_PASS if payload["report"]["flip"]["flips"] else EXIT_CHECK_FAILED
        return _emit(payload, args, code)

    if sub == "scan":
        raw = _resolve(args, cfg, "s_range", "0.3:0.9:0.1", cast=str)
        try:
            a, b, step = (float(v) for v in str(raw).split(":"))
        except ValueError:
            raise SosregError(f"--s-range expects a:b:step, got {raw!r}") from None
        beta = _resolve(args, cfg, "beta", 0.75)
        rho = _resolve(args, cfg, "rho", 0.5)
        s_prime = _resolve(args, cfg, "s_prime", 0.5)
        p = FamilyParams(s_prime=s_prime, rho_plateau=rho)
        g1 = gamma_alpha(1.0)
        sos_verdict = sos_failure_criterion(p, beta)["verdict"]
        rows = []
        s = a
        while s <= b + 1e-12:
            m = Modulus.omega(s)
            Sv = functional(p, "S", 0.5, m)
            Tv = functional(p, "T", g1, m)
            rows.append(
                [round(s, 10), beta, rho, Sv.sup, Tv.sup, sos_verdict,
                 "divergent" if (Sv.divergent or Tv.divergent) else "finite"]
            )
            s += step
        header = ["s", "beta", "rho", "S", "T", "verdictSOS", "verdictMonotone"]
        if args.csv:
            write_csv(args.csv, header, rows)
        payload = _base_payload(
            "counterex scan",
            {"s_range": raw, "beta": beta, "rho": rho, "s_prime": s_prime, "seed": args.seed},
        )
        payload["report"] = {"header": header, "rows": rows}
        return _emit(payload, args, EXIT_PASS)

    if sub == "delta-nu":
        nu = int(_resolve(args, cfg, "nu", 1, cast=int))
        rep = estimate_delta_nu(
            nu,
            c0=_resolve(args, cfg, "c0", 3.0),
            sphere_samples=int(_resolve(args, cfg, "sphere_samples", 2000, cast=int)),
            restarts=int(_resolve(args, cfg, "restarts", 20, cast=int)),
            seed=int(args.seed),
        )
        payload = _base_payload(
            "counterex delta-nu",
            {"nu": nu, "c0": rep.coefficient_cap, "sphere_samples": rep.sphere_samples,
             "restarts": len(rep.restart_values), "seed": args.seed},
        )
        payload["report"] = rep
        ok = rep.estimate > 0 and rep.stable if nu >= 1 else True
        return _emit(payload, args, EXIT_PASS if ok else EXIT_CHECK_FAILED)

    raise SosregError(f"unknown counterex subcommand {sub!r}")


def _cmd_check(args, cfg) -> int:
    sub = args.check_command
    f = FunctionHandle.from_def(_function_def(args.function, _catalog_params(args)))
    region = _region(args, cfg, f.arity)
    samples = int(_resolve(args, cfg, "samples", 2000, cast=int))
    if sub == "odd-even":
        rep = verify_odd_even_control(f, region, samples=samples)
        ok = rep.passed
    elif sub == "interp":
        rep = verify_interpolation_bound(
            f, region,
            m=int(_resolve(args, cfg, "m", 1, cast=int)),
            k=int(_resolve(args, cfg, "k", 2, cast=int)),
        )
        ok = math.isfinite(rep.constant)
    elif sub == "slow-vary":
        rep = verify_slowly_varying(
            f, ControlDistanceParams(delta=_resolve(args, cfg, "delta", 0.25)), region, samples=samples
        )
        ok = rep.passed
    elif sub == "diff-ineq":
        rep = check_differential_inequalities(
            f,
            delta=_resolve(args, cfg, "delta", 0.25),
            eta=_resolve(args, cfg, "eta", 0.3),
            region=region,
            samples=samples,
        )
        ok = rep.passed
    else:
        raise SosregError(f"unknown check subcommand {sub!r}")
    payload = _base_payload(
        f"check {sub}",
        {"function": args.function, "samples": samples, "region_radius": region.radius,
         "region_center": list(region.center), "seed": args.seed},
    )
    payload["report"] = rep
    return _emit(payload, args, EXIT_PASS if ok else EXIT_CHECK_FAILED)


def _cmd_catalog(args, cfg) -> int:
    rows = []
    for name in catalog_names():
        formula = catalog_formula(name)
        note = _CATALOG_NOTES.get(name, "")
        rows.append({"name": name, "formula": formula, "notes": note})
        print(f"{name:14s} {note}")
        print(f"{'':14s} {formula}")
    payload = _base_payload("catalog", {"seed": args.seed})
    payload["report"] = {"entries": rows}
    if args.report:
        dump_json(payload, args.report)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--report", help="write the JSON report to this path")
    sp.add_argument("--csv", help="write grid/cell output to this CSV path")
    sp.add_argument("--seed", type=int, default=0, help="seed fixing every stochastic choice")
    sp.add_argument("--config", help="key=value config file; explicit flags override")


def _add_function(sp):
    sp.add_argument("--function", required=True, help="catalog name, expression, or function file")
    sp.add_argument("--param", action="append", help="catalog parameter key=value (repeatable)")
    sp.add_argument("--region-radius", type=float, dest="region_radius")
    sp.add_argument("--region-center", dest="region_center")


def _add_decompose(sp):
    """The flags shared by `decompose` and `verify`."""
    _add_function(sp)
    sp.add_argument("--dim", type=int)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--eta", type=float)
    sp.add_argument("--s", type=float)
    sp.add_argument("--floor", type=float)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--verify-points", type=int, dest="verify_points")
    sp.add_argument("--max-cells", type=int, dest="max_cells")
    sp.add_argument("--strict", action="store_true", help="fail on differential-inequality violation")
    sp.add_argument("--no-normalize", action="store_true")
    sp.add_argument("--no-holder", action="store_true", help="skip root Hölder estimation")
    sp.add_argument("--cells", help="write cover cells as JSON lines to this path")
    _add_common(sp)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sosreg",
        description="Constructive sum-of-squares decompositions and their supporting checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("decompose", help="decompose a nonnegative function into squares")
    _add_decompose(sp)

    sp = sub.add_parser("verify", help="decompose and verify on a denser grid")
    _add_decompose(sp)
    sp.add_argument("--grid-points", type=int, dest="grid_points")

    sp = sub.add_parser("monotone", help="weak-monotonicity functional of a function")
    _add_function(sp)
    sp.add_argument("--s", type=float)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--inner-samples", type=int, dest="inner_samples")
    sp.add_argument("--t-min", type=float, dest="t_min")
    _add_common(sp)

    sp = sub.add_parser("roots", help="power derivatives against the exact derivatives of f^gamma")
    _add_function(sp)
    sp.add_argument("--gamma", type=float)
    sp.add_argument("--order", type=int)
    sp.add_argument("--samples", type=int)
    _add_common(sp)

    sp = sub.add_parser("counterex", help="counterexample family laboratory")
    csub = sp.add_subparsers(dest="counterex_command", required=True)
    spt = csub.add_parser("threshold", help="print the Hölder-monotone threshold")
    spt.add_argument("--gamma-alpha", type=float, dest="gamma_alpha")
    spt.add_argument("--verify-flip", action="store_true")
    _add_common(spt)
    sps = csub.add_parser("scan", help="sweep s against the S/T functionals")
    sps.add_argument("--s-range", dest="s_range", help="a:b:step")
    sps.add_argument("--beta", type=float)
    sps.add_argument("--rho", type=float)
    sps.add_argument("--s-prime", type=float, dest="s_prime")
    _add_common(sps)
    spd = csub.add_parser("delta-nu", help="distance of the quartic from nu squares of quadratics")
    spd.add_argument("--nu", type=int)
    spd.add_argument("--c0", type=float)
    spd.add_argument("--sphere-samples", type=int, dest="sphere_samples")
    spd.add_argument("--restarts", type=int)
    _add_common(spd)

    sp = sub.add_parser("check", help="verify a supporting inequality")
    ksub = sp.add_subparsers(dest="check_command", required=True)
    for name, extras in (
        ("odd-even", ()),
        ("interp", ("m", "k")),
        ("slow-vary", ("delta",)),
        ("diff-ineq", ("delta", "eta")),
    ):
        spc = ksub.add_parser(name)
        _add_function(spc)
        spc.add_argument("--samples", type=int)
        for extra in extras:
            spc.add_argument(f"--{extra}", type=float if extra not in ("m", "k") else int)
        _add_common(spc)

    sp = sub.add_parser("catalog", help="list the function catalog")
    _add_common(sp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(getattr(args, "config", None))
        if args.command == "decompose":
            return _cmd_decompose(args, cfg)
        if args.command == "verify":
            return _cmd_decompose(args, cfg, verify_mode=True)
        if args.command == "monotone":
            return _cmd_monotone(args, cfg)
        if args.command == "roots":
            return _cmd_roots(args, cfg)
        if args.command == "counterex":
            return _cmd_counterex(args, cfg)
        if args.command == "check":
            return _cmd_check(args, cfg)
        if args.command == "catalog":
            return _cmd_catalog(args, cfg)
        raise SosregError(f"unknown command {args.command!r}")
    except SosregError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
