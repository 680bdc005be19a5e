"""Batch driver: parse a config, run checks or evaluations, emit CSV.

Subcommands: eval | verify | converge | modulus, each with --config,
--out, --jobs, --seed.  Exit status 0 when every selected check passes,
1 when any fails (the report is still written), 2 on configuration errors.
Output is byte-deterministic for a fixed config in single-job mode.
"""

from __future__ import annotations

import argparse
import csv
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, verify
from .config import (build_density, build_domain, build_fundsol,
                     build_operator, default_config, load_config)
from .errors import VolpotError
from .potentials import single_layer, volume_potential
from .presets import get_preset
from .verify import DEFAULT_TOLERANCES, write_reports_csv


def provenance_text() -> str:
    lines = [f"volpot {__version__}",
             "default check tolerances:"]
    for key in sorted(DEFAULT_TOLERANCES):
        lines.append(f"  {key} = {DEFAULT_TOLERANCES[key]:g}")
    return "\n".join(lines) + "\n"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="volpot",
        description="Volume/layer potential evaluation and verification.")
    parser.add_argument("--version", action="store_true",
                        help="print version and the default tolerance table")
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
    # the fundamental solution fixes the operator the checks verify against
    # (an explicit fundsol.kind overrides the operator section)
    domain = build_domain(cfg)
    return cfg, fs.operator, fs, domain


def _run_eval(args) -> int:
    cfg, op, fs, domain = _load(args)
    density = build_density(cfg)
    sec = cfg.get("eval", {})
    points = np.asarray(sec.get("points", [[0.0] * domain.dim]), dtype=float)
    quantity = sec.get("quantity", "volume")
    N = int(cfg.get("checks", {}).get("N", 64))
    out = args.out / "eval.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(domain.dim)]
                        + ["re", "im"])
        for x in points:
            if quantity == "volume":
                val = volume_potential(fs, domain, density, x, N)
            elif quantity == "single_layer":
                val = single_layer(fs, domain, density, x, N)
            else:
                raise VolpotError(f"unknown eval.quantity {quantity!r}")
            writer.writerow([f"{c:.12g}" for c in x]
                            + [f"{val.real:.12g}", f"{val.imag:.12g}"])
    print(f"wrote {out}")
    return 0


def _verify_tasks(cfg, op, fs, domain):
    """Closures for the selected checks; each returns a report list."""
    checks_cfg = cfg.get("checks", {})
    N = int(checks_cfg.get("N", 64))
    closed_form_applies = (fs.kind == "laplace" and domain.kind == "ball"
                           and domain.dim == 2
                           and abs(domain.radius - 1.0) < 1e-14
                           and not np.any(domain.center))
    default_names = ["pde_identity", "transmission", "derivative_recursion",
                     "integration_by_parts", "maximal_bound", "convergence"]
    if closed_form_applies:
        default_names.insert(0, "closed_form")
    names = checks_cfg.get("list", default_names)
    density = build_density(cfg)
    n = domain.dim

    if N < 4:
        raise VolpotError("checks.N must be at least 4")

    def tol_for(key, fallback):
        tol = float(checks_cfg.get(f"{key}_tol", fallback))
        if tol <= 0:
            raise VolpotError(f"tolerance for {key} must be positive")
        return tol

    one = get_preset("one")
    x1 = get_preset("x1")
    x1sq = get_preset("x1sq")
    bump = get_preset("bump")

    def interior_grid(k=3):
        if domain.kind == "ball":
            inner = domain.radius
            center = domain.center
        else:
            inner = float(np.min(domain.rho(np.linspace(0, 2 * np.pi, 256))))
            center = np.zeros(n)
        span = 0.45 * inner
        axes = [np.linspace(-span, span, k)] * n
        pts = center + np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, n)
        return pts[np.array([domain.classify(p) > 0 for p in pts])]

    def exterior_grid():
        base = domain.bounding_radius
        pts = [np.full(n, base * 1.8), np.full(n, -base * 1.7)]
        pts[0][0] = base * 2.1
        pts[1][0] = -base * 2.4
        return np.stack(pts)

    def task_closed_form():
        if not closed_form_applies:
            raise VolpotError("the closed_form check requires the Laplace "
                              "kernel on the centered unit disk")
        return [verify.check_closed_form_disk(
            fs, domain, N, tol_for("closed_form",
                                   DEFAULT_TOLERANCES["closed_form"]))]

    def task_pde():
        reports = [verify.check_pde_identity(
            fs, op, domain, bump, interior_grid(), N=N,
            tol=tol_for("pde_identity", DEFAULT_TOLERANCES["pde_identity"]))]
        reports.append(verify.check_pde_identity(
            fs, op, domain, bump, exterior_grid(), h=1e-3, N=N,
            side="exterior",
            tol=tol_for("pde_identity_exterior",
                        DEFAULT_TOLERANCES["pde_identity_exterior"])))
        return reports

    def task_transmission():
        tol = tol_for("transmission", DEFAULT_TOLERANCES["transmission"])
        reports = [verify.check_transmission(fs, domain, ("volume", density),
                                             N=N, tol=tol)]
        reports.append(verify.check_transmission(
            fs, domain, ("single_layer", one), N=N, tol=tol))
        return reports

    def task_recursion():
        return [verify.check_derivative_recursion(
            fs, domain, x1, x1.grad,
            np.concatenate([interior_grid(2), exterior_grid()]), N=N,
            tol=tol_for("derivative_recursion",
                        DEFAULT_TOLERANCES["derivative_recursion"]))]

    def task_ibp():
        sn = verify.sphere_measure(n)

        def k_grad(z):
            z = np.asarray(z)
            r = np.linalg.norm(z, axis=-1)
            return z[..., 0] / (sn * r ** n)

        def dk_grad(z):
            z = np.asarray(z)
            r = np.linalg.norm(z, axis=-1)
            out = -n * z * (z[..., 0] / r ** 2)[..., None]
            out[..., 0] += 1.0
            return out / (sn * r[..., None] ** n)

        x = np.zeros(n)
        x[0] = 0.2
        reports = [verify.check_integration_by_parts(
            k_grad, dk_grad, domain, x1sq, x1sq.grad, x, 0, N=N,
            tol=tol_for("integration_by_parts",
                        DEFAULT_TOLERANCES["integration_by_parts"]))]
        reports.append(verify.check_sphere_residue(
            k_grad, 0, n, 1.0 / n,
            tol=tol_for("ibp_psi",
                        DEFAULT_TOLERANCES["ibp_psi_gradient_kernel"])))
        reports.append(verify.check_sphere_residue(
            lambda z: fs.eval(z), 0, n, 0.0,
            tol=tol_for("ibp_psi_weak",
                        DEFAULT_TOLERANCES["ibp_psi_weak_kernel"])))
        return reports

    def task_maximal():
        def k_even(z):
            z = np.asarray(z)
            r2 = np.sum(z * z, axis=-1)
            return (z[..., 0] ** 2 - z[..., 1] ** 2) / r2 ** 2

        def k_control(z):
            z = np.asarray(z)
            return 1.0 / np.sum(z * z, axis=-1) ** (n / 2.0)

        x_grid = np.zeros((2, n))
        x_grid[1, 0], x_grid[1, 1] = 0.4, 0.2
        rho = np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
        reports = [verify.check_maximal_bound(
            k_even, domain, x_grid, rho, N=N, expect="bounded",
            tol=tol_for("maximal_bound",
                        DEFAULT_TOLERANCES["maximal_bound_variation"]))]
        reports.append(verify.check_maximal_bound(
            k_control, domain, x_grid[1:], rho, N=N, expect="log-growth",
            tol=tol_for("maximal_growth",
                        DEFAULT_TOLERANCES["maximal_growth_deficit"])))
        return reports

    def task_convergence():
        x0 = np.zeros(n)
        reports = [verify.convergence_study(
            "volume_potential", fs, domain, one,
            x=x0, exact=_disk_center_value(fs, domain))]
        xb = domain.boundary_point(0.3) if n == 2 else None
        if xb is not None:
            reports.append(verify.convergence_study(
                "single_layer_onsurface", fs, domain, one, x=xb))
        xfar = np.zeros(n)
        xfar[0] = 3.0 * domain.bounding_radius
        reports.append(verify.convergence_study(
            "boundary_kernel", fs, domain, one, x=xfar))
        return reports

    table = {"closed_form": task_closed_form,
             "pde_identity": task_pde,
             "transmission": task_transmission,
             "derivative_recursion": task_recursion,
             "integration_by_parts": task_ibp,
             "maximal_bound": task_maximal,
             "convergence": task_convergence}
    tasks = []
    for name in names:
        if name not in table:
            raise VolpotError(f"unknown check {name!r}; "
                              f"available: {sorted(table)}")
        tasks.append(table[name])
    return tasks


def _disk_center_value(fs, domain):
    # exact center value of the f = 1 potential where a closed form exists
    if fs.kind == "laplace" and domain.kind == "ball":
        if domain.dim == 2 and abs(domain.radius - 1.0) < 1e-14:
            return -0.25
        if domain.dim == 3 and abs(domain.radius - 1.0) < 1e-14:
            return -0.5
    return None


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
    sec = cfg.get("converge", {})
    N_list = [int(v) for v in sec.get("N_list", [8, 16, 32, 64])]
    one = get_preset("one")
    x0 = np.zeros(domain.dim)
    reports = [verify.convergence_study(
        "volume_potential", fs, domain, one, N_list=N_list, x=x0,
        exact=_disk_center_value(fs, domain))]
    if domain.dim == 2:
        reports.append(verify.convergence_study(
            "single_layer_onsurface", fs, domain, one, N_list=N_list,
            x=domain.boundary_point(0.3)))
    xfar = np.zeros(domain.dim)
    xfar[0] = 3.0 * domain.bounding_radius
    reports.append(verify.convergence_study(
        "boundary_kernel", fs, domain, one, N_list=N_list, x=xfar))
    out = args.out / "converge.csv"
    write_reports_csv(reports, out)
    ok = all(r.passed for r in reports)
    for rep in reports:
        print(f"{'pass' if rep.passed else 'FAIL'} {rep.name} "
              f"order={rep.parameters['observed_order']:.2f}")
    print(f"wrote {out}")
    return 0 if ok else 1


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
