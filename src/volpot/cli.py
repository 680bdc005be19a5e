"""Batch driver: parse a config, run checks or evaluations, emit CSV.

Subcommands: eval | verify | converge | modulus, each with --config,
--out, --jobs, --seed.  Exit status 0 when every selected check passes,
1 when any fails (the report is still written), 2 on configuration errors.
Output is byte-deterministic for a fixed config in single-job mode.

``verify`` runs the rows of the module-level check table ``CHECKS`` for the
checks named in ``checks.list``, each row at ``checks.<key>_tol`` or its
``verify.DEFAULT_TOLERANCES`` default.  Its convergence check and
``converge`` build their reports in one function, ``_convergence_reports``.
"""

from __future__ import annotations

import argparse
import csv
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__, verify
from .config import (build_density, build_domain, build_fundsol,
                     build_operator, default_config, load_config)
from .errors import ConfigError, VolpotError
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


# -- verify: kernels and sample points of the check table ------------------

def k_grad(z):
    """s_n-normalized gradient kernel z_1 / (s_n |z|^n); residue 1/n."""
    z = np.asarray(z)
    n = z.shape[-1]
    r = np.linalg.norm(z, axis=-1)
    return z[..., 0] / (verify.sphere_measure(n) * r ** n)


def dk_grad(z):
    """z-gradient of k_grad."""
    z = np.asarray(z)
    n = z.shape[-1]
    r = np.linalg.norm(z, axis=-1)
    out = -n * z * (z[..., 0] / r ** 2)[..., None]
    out[..., 0] += 1.0
    return out / (verify.sphere_measure(n) * r[..., None] ** n)


def k_even(z):
    """Even kernel (z_1^2 - z_2^2) / |z|^4 with zero sphere mean."""
    z = np.asarray(z)
    r2 = np.sum(z * z, axis=-1)
    return (z[..., 0] ** 2 - z[..., 1] ** 2) / r2 ** 2


def k_control(z):
    """Control kernel |z|^-n, whose truncated integrals grow like log."""
    z = np.asarray(z)
    return 1.0 / np.sum(z * z, axis=-1) ** (z.shape[-1] / 2.0)


def _interior_grid(domain, k=3):
    inner = (domain.radius if domain.kind == "ball" else
             float(np.min(domain.rho(np.linspace(0, 2 * np.pi, 256)))))
    n = domain.dim
    span = 0.45 * inner
    axes = [np.linspace(-span, span, k)] * n
    pts = domain.center + np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, n)
    return pts[np.array([domain.classify(p) > 0 for p in pts])]


def _exterior_grid(domain):
    # about a ball's centre at 1.0000001 R (its bounding radius when it is
    # centred at the origin), about the origin at a star's bounding radius
    n = domain.dim
    scale = (domain.radius * 1.0000001 if domain.kind == "ball"
             else domain.bounding_radius)
    return domain.center + scale * np.array(
        [[2.1] + [1.8] * (n - 1), [-2.4] + [-1.7] * (n - 1)])


def _maximal_grid(domain):
    # the center and an off-center point (the growth row takes the latter)
    return domain.center + np.pad([[0.0, 0.0], [0.4, 0.2]],
                                  ((0, 0), (0, domain.dim - 2)))


MAXIMAL_RHO = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]

# config key -> DEFAULT_TOLERANCES key, where the two names differ
TOLERANCE_ALIASES = {"ibp_psi": "ibp_psi_gradient_kernel",
                     "ibp_psi_weak": "ibp_psi_weak_kernel",
                     "maximal_bound": "maximal_bound_variation",
                     "maximal_growth": "maximal_growth_deficit"}

# CHECKS maps each check name to its report rows, in the default order.  A
# row is (tolerance key, call); the call maps (run, tolerance) to a report
# or a list of reports, and a None key leaves the check its own default.
# Calls look verify's checks up when they run, so a wrapper later installed
# on those module attributes sees every call.
CHECKS = {
    "closed_form": [
        ("closed_form", lambda r, tol: verify.check_closed_form_disk(
            r.fs, r.domain, r.N, tol))],
    "pde_identity": [
        ("pde_identity", lambda r, tol: verify.check_pde_identity(
            r.fs, r.op, r.domain, get_preset("bump"),
            _interior_grid(r.domain), N=r.N, tol=tol)),
        ("pde_identity_exterior", lambda r, tol: verify.check_pde_identity(
            r.fs, r.op, r.domain, get_preset("bump"),
            _exterior_grid(r.domain), h=1e-3, N=r.N, side="exterior",
            tol=tol))],
    "transmission": [
        ("transmission", lambda r, tol: verify.check_transmission(
            r.fs, r.domain, ("volume", r.density), N=r.N, tol=tol)),
        ("transmission", lambda r, tol: verify.check_transmission(
            r.fs, r.domain, ("single_layer", get_preset("one")), N=r.N,
            tol=tol))],
    "derivative_recursion": [
        ("derivative_recursion",
         lambda r, tol: verify.check_derivative_recursion(
             r.fs, r.domain, get_preset("x1"), get_preset("x1").grad,
             np.concatenate([_interior_grid(r.domain, 2),
                             _exterior_grid(r.domain)]), N=r.N, tol=tol))],
    "integration_by_parts": [
        ("integration_by_parts",
         lambda r, tol: verify.check_integration_by_parts(
             k_grad, dk_grad, r.domain, get_preset("x1sq"),
             get_preset("x1sq").grad,
             r.domain.center + 0.2 * np.eye(r.domain.dim)[0], 0,
             N=r.N, tol=tol)),
        ("ibp_psi", lambda r, tol: verify.check_sphere_residue(
            k_grad, 0, r.domain.dim, 1.0 / r.domain.dim, tol=tol)),
        ("ibp_psi_weak", lambda r, tol: verify.check_sphere_residue(
            r.fs.eval, 0, r.domain.dim, 0.0, tol=tol))],
    "maximal_bound": [
        ("maximal_bound", lambda r, tol: verify.check_maximal_bound(
            k_even, r.domain, _maximal_grid(r.domain), MAXIMAL_RHO,
            N=r.N, expect="bounded", tol=tol)),
        ("maximal_growth", lambda r, tol: verify.check_maximal_bound(
            k_control, r.domain, _maximal_grid(r.domain)[1:],
            MAXIMAL_RHO, N=r.N, expect="log-growth", tol=tol))],
    "convergence": [
        (None, lambda r, tol: _convergence_reports(r.fs, r.domain))],
}


def _laplace_unit_ball(fs, domain):
    # where the f = 1 potential has a closed form
    return (fs.kind == "laplace" and domain.kind == "ball"
            and abs(domain.radius - 1.0) < 1e-14)


def _tolerance(checks_cfg, key):
    tol = float(checks_cfg.get(
        f"{key}_tol", DEFAULT_TOLERANCES[TOLERANCE_ALIASES.get(key, key)]))
    if tol <= 0:
        raise VolpotError(f"tolerance for {key} must be positive")
    return tol


def _run_rows(run, rows):
    reports = []
    for tol, call in rows:
        out = call(run, tol)
        reports.extend(out if isinstance(out, list) else [out])
    return reports


def _verify_tasks(cfg, op, fs, domain):
    """One task per selected check, each returning its report list; every
    name, N and tolerance is validated before any task runs."""
    checks_cfg = cfg.get("checks", {})
    N = int(checks_cfg.get("N", 64))
    closed_form_applies = (_laplace_unit_ball(fs, domain)
                           and domain.dim == 2 and not np.any(domain.center))
    names = checks_cfg.get("list", [
        name for name in CHECKS
        if closed_form_applies or name != "closed_form"])
    density = build_density(cfg)
    if N < 4:
        raise VolpotError("checks.N must be at least 4")
    for name in names:
        if name not in CHECKS:
            raise VolpotError(f"unknown check {name!r}; "
                              f"available: {sorted(CHECKS)}")
    if "closed_form" in names and not closed_form_applies:
        raise VolpotError("the closed_form check requires the Laplace "
                          "kernel on the centered unit disk")
    run = SimpleNamespace(fs=fs, op=op, domain=domain, density=density, N=N)
    return [partial(_run_rows, run,
                    [(key and _tolerance(checks_cfg, key), call)
                     for key, call in CHECKS[name]])
            for name in names]


def _convergence_reports(fs, domain, N_list=(8, 16, 32, 64)):
    """Convergence of the f = 1 volume potential at the domain's center
    and of the on-surface single layer (2D), against their closed forms on
    Laplace unit balls (R log R = 0 for the single layer on the unit
    circle), and of the boundary kernel at a far point."""
    one = get_preset("one")
    unit = _laplace_unit_ball(fs, domain)
    exact = {2: -0.25, 3: -0.5}[domain.dim] if unit else None
    reports = [verify.convergence_study(
        "volume_potential", fs, domain, one, N_list=N_list,
        x=domain.center, exact=exact)]
    if domain.dim == 2:
        reports.append(verify.convergence_study(
            "single_layer_onsurface", fs, domain, one, N_list=N_list,
            x=domain.boundary_point(0.3), exact=0.0 if unit else None))
    reports.append(verify.convergence_study(
        "boundary_kernel", fs, domain, one, N_list=N_list,
        x=3.0 * domain.bounding_radius * np.eye(domain.dim)[0]))
    return reports


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
    reports = _convergence_reports(fs, domain, N_list)
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
