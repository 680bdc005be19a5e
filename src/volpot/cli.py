"""Batch driver: parse a config, run checks or evaluations, emit CSV.

Subcommands: eval | verify | converge | modulus, each with --config,
--out, --jobs, --seed.  Exit status 0 when every selected check passes,
1 when any fails (the report is still written), 2 on configuration errors.
Output is byte-deterministic for a fixed config in single-job mode.

``verify`` runs the rows of the report table ``ROWS`` whose checks
``checks.list`` names, each at ``checks.<key>_tol`` or its
``verify.DEFAULT_TOLERANCES`` default; ``converge`` runs the table's
``convergence`` rows over ``converge.N_list``.
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, verify
from .config import (build_density, build_domain, build_fundsol,
                     build_operator, default_config, load_config)
from .errors import ConfigError, VolpotError
from .potentials import single_layer, volume_potential
from .presets import get_preset
from .verify import DEFAULT_TOLERANCES, write_reports_csv


def provenance_text() -> str:
    lines = [f"volpot {__version__}", "default check tolerances:"]
    lines += [f"  {key} = {value:g}"
              for key, value in sorted(DEFAULT_TOLERANCES.items())]
    lines.append("verify report rows (check: verify function, tolerance):")
    for row in ROWS:
        key = f"checks.{row.key}_tol" if row.key else "fixed"
        lines.append(f"  {row.check}: {row.call}, "
                     f"{DEFAULT_TOLERANCES[row.default]:g} ({key})")
    return "\n".join(lines) + "\n"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="volpot",
        description="Volume/layer potential evaluation and verification.")
    parser.add_argument("--version", action="store_true",
                        help="print version, the default tolerances and "
                        "the verify report rows")
    sub = parser.add_subparsers(dest="command")
    for name, desc in [
            ("eval", "evaluate potentials at configured points"),
            ("verify", "run the verification checks"),
            ("converge", "run convergence studies"),
            ("modulus", "run the Hessian modulus experiment")]:
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", type=Path, default=None,
                       help="config file (built-in Laplace-disk default)")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory for CSV artifacts")
        p.add_argument("--jobs", type=int, default=1,
                       help="run independent checks on this many threads")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for random sample clouds")
    return parser


def _load(args):
    cfg = load_config(args.config) if args.config else default_config()
    op = build_operator(cfg)
    fs = build_fundsol(cfg, op)
    domain = build_domain(cfg)
    n = op.dim
    if n != domain.dim:
        raise ConfigError(f"operator.a2 is {n} x {n} but the domain is "
                          f"{domain.dim}D")
    return cfg, op, fs, domain


def _run_eval(args) -> int:
    cfg, op, fs, domain = _load(args)
    density = build_density(cfg)
    sec = cfg.get("eval", {})
    points = np.asarray(sec.get("points", [[0.0] * domain.dim]), dtype=float)
    quantity = sec.get("quantity", "volume")
    N = int(cfg.get("checks", {}).get("N", 64))
    # every check comes before the file is opened, and every point is
    # evaluated before it is written: a failed run leaves no eval.csv
    evaluate = {"volume": volume_potential,
                "single_layer": single_layer}.get(quantity)
    if evaluate is None:
        raise ConfigError(f"unknown eval.quantity {quantity!r}")
    if points.ndim != 2 or points.shape[1] != domain.dim:
        raise ConfigError(f"eval.points must be a list of points of "
                          f"R^{domain.dim}, got an array of shape "
                          f"{points.shape}")
    rows = []
    for x in points:
        val = evaluate(fs, domain, density, x, N)
        rows.append([f"{c:.12g}" for c in x]
                    + [f"{val.real:.12g}", f"{val.imag:.12g}"])
    out = args.out / "eval.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(domain.dim)]
                        + ["re", "im"])
        writer.writerows(rows)
    print(f"wrote {out}")
    return 0


# -- verify: the report table ----------------------------------------------

def k_grad(z):
    """s_n-normalized gradient kernel z_1 / (s_n |z|^n); residue 1/n."""
    n = z.shape[-1]
    r = np.linalg.norm(z, axis=-1)
    return z[..., 0] / (verify.sphere_measure(n) * r ** n)


def dk_grad(z):
    """z-gradient of k_grad."""
    n = z.shape[-1]
    r = np.linalg.norm(z, axis=-1)
    out = -n * z * (z[..., 0] / r ** 2)[..., None]
    out[..., 0] += 1.0
    return out / (verify.sphere_measure(n) * r[..., None] ** n)


def k_even(z):
    """Even kernel (z_1^2 - z_2^2) / |z|^4 with zero sphere mean."""
    return (z[..., 0] ** 2 - z[..., 1] ** 2) / np.sum(z * z, axis=-1) ** 2


def k_control(z):
    """Control kernel |z|^-n, whose truncated integrals grow like log."""
    return 1.0 / np.sum(z * z, axis=-1) ** (z.shape[-1] / 2.0)


# probe set -> its parts: ("grid", k), the k^n grid over the middle 0.9 of
# the ball inscribed about the domain's center (so inside it in 2D and 3D);
# ("at", p) and ("out", p), the center plus the offsets p cut to the
# dimension, times 1 and times the domain's outer radius
_OUTSIDE = ("out", ((2.1, 1.8, 1.8), (-2.4, -1.7, -1.7)))
PROBES = {"inside": (("grid", 3),), "outside": (_OUTSIDE,),
          "both_sides": (("grid", 2), _OUTSIDE),
          "maximal": (("at", ((0, 0, 0), (0.4, 0.2, 0))),),
          "growth": (("at", ((0.4, 0.2, 0),)),),
          "ibp_point": (("at", (0.2, 0, 0)),)}
MAXIMAL_RHO = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]

Row = namedtuple("Row", "check key default call args kw needs",
                 defaults=({}, None))

# The verify report's rows in report order: the check `checks.list` names,
# the key of its `checks.<key>_tol` (None: fixed), its DEFAULT_TOLERANCES
# key, the verify function it calls (looked up when it runs, so wrappers
# installed on verify see every call), its positional and keyword arguments
# and the flag of the run it needs.  A string argument, also in a tuple,
# stands for the value of the run (_namespace, PROBES) so named, if any.
ROWS = (
    Row("closed_form", "closed_form", "closed_form", "check_closed_form_disk",
        ("fs", "domain", "N"), needs="laplace_unit_disk"),
    Row("pde_identity", "pde_identity", "pde_identity", "check_pde_identity",
        ("fs", "op", "domain", "bump", "inside"), {"N": "N"}),
    Row("pde_identity", "pde_identity_exterior", "pde_identity_exterior",
        "check_pde_identity", ("fs", "op", "domain", "bump", "outside"),
        {"h": 1e-3, "N": "N", "side": "exterior"}),
    Row("transmission", "transmission", "transmission", "check_transmission",
        ("fs", "domain", ("volume", "density")), {"N": "N"}),
    Row("transmission", "transmission", "transmission", "check_transmission",
        ("fs", "domain", ("single_layer", "one")), {"N": "N"}),
    Row("derivative_recursion", "derivative_recursion",
        "derivative_recursion", "check_derivative_recursion",
        ("fs", "domain", "x1", "x1_grad", "both_sides"), {"N": "N"}),
    Row("integration_by_parts", "integration_by_parts", "integration_by_parts",
        "check_integration_by_parts",
        (k_grad, dk_grad, "domain", "x1sq", "x1sq_grad", "ibp_point", 0),
        {"N": "N"}),
    Row("integration_by_parts", "ibp_psi", "ibp_psi_gradient_kernel",
        "check_sphere_residue", (k_grad, 0, "dim", "grad_residue")),
    Row("integration_by_parts", "ibp_psi_weak", "ibp_psi_weak_kernel",
        "check_sphere_residue", ("kernel", 0, "dim", 0.0)),
    Row("maximal_bound", "maximal_bound", "maximal_bound_variation",
        "check_maximal_bound", (k_even, "domain", "maximal", MAXIMAL_RHO),
        {"N": "N", "expect": "bounded"}),
    Row("maximal_bound", "maximal_growth", "maximal_growth_deficit",
        "check_maximal_bound", (k_control, "domain", "growth", MAXIMAL_RHO),
        {"N": "N", "expect": "log-growth"}),
    Row("convergence", None, "convergence_order_deficit", "convergence_study",
        ("volume_potential", "fs", "domain", "one", "N_list", "center",
         "center_exact")),
    Row("convergence", None, "convergence_order_deficit", "convergence_study",
        ("single_layer_onsurface", "fs", "domain", "one", "N_list",
         "surface", "surface_exact"), needs="planar"),
    Row("convergence", None, "convergence_order_deficit", "convergence_study",
        ("boundary_kernel", "fs", "domain", "one", "N_list", "far")))


def _probes(domain, spec):
    """The points of a PROBES spec, part after part."""
    n = domain.dim
    if domain.kind == "ball":
        inner, outer = domain.radius, domain.radius * 1.0000001
    else:
        inner = float(np.min(domain.rho(np.linspace(0, 2 * np.pi, 256))))
        outer = domain.bounding_radius
    parts = []
    for kind, arg in spec:
        if kind == "grid":
            axes = [np.linspace(-0.45 * inner, 0.45 * inner, arg)] * n
            parts.append(np.stack(np.meshgrid(*axes), -1).reshape(-1, n))
        else:
            parts.append((outer if kind == "out" else 1.0)
                         * np.asarray(arg, dtype=float)[..., :n])
    return domain.center + np.concatenate(parts)


def _namespace(op, fs, domain, N=None, density=None, N_list=(8, 16, 32, 64)):
    """The values of one run that rows name.  The f = 1 potentials have
    closed forms on Laplace unit balls (R log R = 0 for the single layer on
    the unit circle)."""
    n, planar = domain.dim, domain.dim == 2
    unit = (fs.kind == "laplace" and domain.kind == "ball"
            and abs(domain.radius - 1.0) < 1e-14)
    ns = {name: get_preset(name) for name in ("one", "bump", "x1", "x1sq")}
    ns.update((name, _probes(domain, spec)) for name, spec in PROBES.items())
    return dict(
        ns, fs=fs, op=op, domain=domain, N=N, density=density, N_list=N_list,
        dim=n, x1_grad=ns["x1"].grad, x1sq_grad=ns["x1sq"].grad,
        kernel=fs.eval, grad_residue=1.0 / n, planar=planar,
        laplace_unit_disk=unit and planar and not np.any(domain.center),
        center=domain.center, far=3.0 * domain.bounding_radius * np.eye(n)[0],
        center_exact={2: -0.25, 3: -0.5}[n] if unit else None,
        surface=domain.boundary_point(0.3) if planar else None,
        surface_exact=0.0 if unit else None)


def _value(ns, arg):
    if isinstance(arg, tuple):
        return tuple(_value(ns, a) for a in arg)
    return ns.get(arg, arg) if isinstance(arg, str) else arg


def _rows(ns, check):
    """The rows of a check that apply to the run."""
    return [row for row in ROWS
            if row.check == check and (row.needs is None or ns[row.needs])]


def _tolerance(checks_cfg, row):
    tol = float(checks_cfg.get(f"{row.key}_tol",
                               DEFAULT_TOLERANCES[row.default]))
    if tol <= 0:
        raise VolpotError(f"tolerance for {row.key} must be positive")
    return tol


def _run_rows(ns, rows):
    return [getattr(verify, row.call)(
        *_value(ns, row.args), tol=tol,
        **{name: _value(ns, arg) for name, arg in row.kw.items()})
        for row, tol in rows]


def _verify_tasks(cfg, op, fs, domain):
    """One task per selected check, each returning its report list; every
    key, name, N and tolerance is validated before any task runs."""
    checks_cfg = cfg.get("checks", {})
    valid = {"N", "list"} | {f"{row.key}_tol" for row in ROWS if row.key}
    for key in checks_cfg:
        if key not in valid:
            raise ConfigError(f"unknown config key checks.{key}; valid "
                              f"checks keys: {', '.join(sorted(valid))}")
    N = int(checks_cfg.get("N", 64))
    ns = _namespace(op, fs, domain, N, build_density(cfg))
    checks = {row.check: _rows(ns, row.check) for row in ROWS}
    names = checks_cfg.get("list", [name for name in checks if checks[name]])
    if N < 4:
        raise VolpotError("checks.N must be at least 4")
    for name in names:
        if name not in checks:
            raise VolpotError(f"unknown check {name!r}; "
                              f"available: {sorted(checks)}")
        if not checks[name]:
            raise VolpotError(f"the {name} check needs " + " and ".join(
                row.needs for row in ROWS if row.check == name))
    return [partial(_run_rows, ns, [(row, _tolerance(checks_cfg, row))
                                    for row in checks[name]])
            for name in names]


def _run_verify(args) -> int:
    cfg, op, fs, domain = _load(args)
    tasks = _verify_tasks(cfg, op, fs, domain)
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            groups = list(pool.map(lambda t: t(), tasks))
    else:
        groups = [t() for t in tasks]
    reports = [rep for group in groups for rep in group]
    out = args.out / "report.csv"
    write_reports_csv(reports, out)
    n_pass = sum(r.passed for r in reports)
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        print(f"{status} {rep.name} [{rep.param_string()[:70]}]")
    print(f"{n_pass}/{len(reports)} checks passed; wrote {out}")
    return 0 if n_pass == len(reports) else 1


def _run_converge(args) -> int:
    cfg, op, fs, domain = _load(args)
    N_list = [int(v) for v in cfg.get("converge", {}).get(
        "N_list", [8, 16, 32, 64])]
    ns = _namespace(op, fs, domain, N_list=N_list)
    reports = _run_rows(ns, [(row, _tolerance({}, row))
                             for row in _rows(ns, "convergence")])
    out = args.out / "converge.csv"
    write_reports_csv(reports, out)
    for rep in reports:
        print(f"{'pass' if rep.passed else 'FAIL'} {rep.name} "
              f"order={rep.parameters['observed_order']:.2f}")
    print(f"wrote {out}")
    return 0 if all(rep.passed for rep in reports) else 1


def _run_modulus(args) -> int:
    cfg, op, fs, domain = _load(args)
    sec = cfg.get("modulus", {})
    f = get_preset(sec.get("preset", "abs_x1"))
    alpha = float(sec.get("alpha", 1.0))
    scales = [float(s) for s in sec.get("scales", [1e-1, 1e-2, 1e-3, 1e-4])]
    N = int(sec.get("N", 48))
    rep = verify.modulus_experiment(fs, domain, f, alpha, scales, N=N,
                                    seed=args.seed)
    out = args.out / "modulus.csv"
    write_reports_csv([rep], out)
    table_out = args.out / "modulus_table.csv"
    with open(table_out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scale", "omega1_seminorm", "lipschitz_seminorm"])
        for s, om, lip in zip(scales, rep.parameters["omega1_seminorms"],
                              rep.parameters["lipschitz_seminorms"]):
            writer.writerow([f"{s:.12g}", f"{om:.12g}", f"{lip:.12g}"])
    print(f"{'pass' if rep.passed else 'FAIL'} modulus_experiment "
          f"ratio={rep.observed[0][1]:.3f}; wrote {out} and {table_out}")
    return 0 if rep.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.version:
        sys.stdout.write(provenance_text())
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    runner = {"eval": _run_eval, "verify": _run_verify,
              "converge": _run_converge, "modulus": _run_modulus}[args.command]
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        return runner(args)
    except (VolpotError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
