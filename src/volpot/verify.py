"""Executable verification of the potential-theoretic identities.

Each check returns a :class:`VerificationReport`.  Observed entries are
normalized to *discrepancies*: a report passes if and only if every observed
value is at most the report tolerance.  Raw diagnostic numbers (orders,
growth rates, per-scale seminorms) are kept in ``parameters`` so that the
CSV stays field-comparable across runs.

Reports are deterministic given (inputs, N, seed); checks are independent
and may run concurrently, but each one is single-threaded internally.
"""

from __future__ import annotations

import csv
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .fundsol import FundamentalSolution, sphere_measure
from .geometry import Domain, cached_boundary_rule, _circle_grid, _gl_sphere
from .operators import OperatorCoefficients, apply_operator_fd
from .potentials import (single_layer, volume_potential,
                         volume_potential_gradient, volume_potential_hessian,
                         volume_potential_negative, _boundary_integral,
                         _excised_rules, _plan, _rule_sum, _side_class)
from .presets import get_preset
from .schauder import Modulus

DEFAULT_TOLERANCES = {
    "pde_identity": 1e-3,
    "pde_identity_exterior": 1e-6,
    "transmission": 1e-4,
    "integration_by_parts": 1e-4,
    "ibp_psi_gradient_kernel": 1e-3,
    "ibp_psi_weak_kernel": 1e-6,
    "maximal_bound_variation": 0.10,
    "maximal_growth_deficit": 1e-6,
    "derivative_recursion": 1e-5,
    "modulus_ratio": 5.0,
    "convergence_order_deficit": 1e-6,
    "closed_form": 1e-6,
}


@dataclass
class VerificationReport:
    """Outcome of one check.

    ``observed`` is a list of (label, value) pairs; the report passes iff
    every value is <= ``tolerance``.  ``parameters`` records the check setup
    and raw diagnostics.
    """

    name: str
    parameters: dict
    observed: list
    tolerance: float
    passed: bool = field(init=False)
    runtime: float = 0.0

    def __post_init__(self):
        self.passed = all(np.isfinite(v) and v <= self.tolerance
                          for _, v in self.observed)

    def param_string(self) -> str:
        items = sorted(self.parameters.items())
        return ";".join(f"{k}={_fmt(v)}" for k, v in items)

    def rows(self):
        for label, value in self.observed:
            yield (self.name, self.param_string(), label, _fmt(value),
                   _fmt(self.tolerance), "true" if value <= self.tolerance
                   and np.isfinite(value) else "false")


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + " ".join(_fmt(float(x)) for x in np.ravel(v)) + "]"
    return str(v)


def write_reports_csv(reports, path):
    """CSV columns: check,param,label,value,tolerance,pass."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "param", "label", "value", "tolerance",
                         "pass"])
        for rep in reports:
            for row in rep.rows():
                writer.writerow(row)


def compare_reports_csv(path_a, path_b, rtol: float = 1e-9,
                        atol: float = 1e-12) -> bool:
    """Golden-report comparison: the check/label/pass fields must match
    exactly, the value and tolerance fields numerically.  ``param`` is split
    into tokens at ``; = [ ]`` and blanks: separators and non-numeric tokens
    must match exactly, numeric tokens numerically (the header row holds no
    numbers, so it must match exactly).  The value of a finite-difference
    row takes the first file's ``rounding_floor`` (its move for a rounding
    of each potential) as atol, where that is larger."""
    with open(path_a, newline="") as fh:
        rows_a = list(csv.reader(fh))
    with open(path_b, newline="") as fh:
        rows_b = list(csv.reader(fh))
    if len(rows_a) != len(rows_b):
        return False
    for ra, rb in zip(rows_a, rows_b):
        if len(ra) != len(rb) or ra[0] != rb[0] or ra[2] != rb[2] \
                or ra[5:] != rb[5:]:
            return False
        pa, pb = _PARAM_SPLIT.split(ra[1]), _PARAM_SPLIT.split(rb[1])
        floor = (float(pa[pa.index("rounding_floor") + 2])
                 if "rounding_floor" in pa else 0.0)
        if len(pa) != len(pb) or not all(
                _same_token(a, b, rtol, atol)
                for a, b in zip(pa + ra[4:5], pb + rb[4:5])) \
                or not _same_token(ra[3], rb[3], rtol, max(atol, floor)):
            return False
    return True


# separators of a param string, kept as tokens by the capturing group
_PARAM_SPLIT = re.compile(r"([;=\[\]\s])")


def _same_token(a, b, rtol, atol):
    try:
        fa, fb = float(a), float(b)
    except ValueError:
        return a == b
    return bool(np.isclose(fa, fb, rtol=rtol, atol=atol, equal_nan=True))


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        rep = fn(*args, **kwargs)
        rep.runtime = time.perf_counter() - t0
        return rep
    return wrapper


# ---------------------------------------------------------------------------
# PDE identity


@_timed
def check_pde_identity(fs: FundamentalSolution, op: OperatorCoefficients,
                       domain: Domain, f, grid, h: float = 8e-3, N: int = 64,
                       tol: float = None, side: str = "interior"):
    """Apply the operator to the volume potential by finite differences on a
    point grid; interior residual is measured against the density (relative
    to sup |f|), exterior residual against zero (relative to the largest
    finite-difference term).  A grid point that is not on ``side``, or is
    closer than 5h to the boundary, raises DomainError."""
    cls = _side_class(side)
    if tol is None:
        tol = DEFAULT_TOLERANCES["pde_identity" if side == "interior"
                                 else "pde_identity_exterior"]
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    # the whole stencil must lie on the side: a point on the other side
    # has no identity to check, one near the boundary a stencil across it
    for x in grid:
        if domain.distance_to_boundary(x) < 5.0 * h:
            raise DomainError("grid point closer than 5h to the boundary")
        if domain.classify(x) != cls:
            raise DomainError(f"point is not on the {side} side")

    seen = []

    def u(p):
        seen.append(volume_potential(fs, domain, f, p, N))
        return seen[-1]

    worst = 0.0
    if side == "interior":
        norm = max(float(np.max(np.abs(f(grid)))), 1e-300)
        for x in grid:
            val = apply_operator_fd(op, u, x, h)
            fx = complex(np.asarray(f(x[None, :]))[0])
            worst = max(worst, abs(val - fx) / norm)
    else:
        # normalize by the largest term across the whole grid: at symmetry
        # points every individual term of a harmonic field can vanish
        vals, scales = [], []
        for x in grid:
            val, scale = apply_operator_fd(op, u, x, h, return_scale=True)
            vals.append(abs(val))
            scales.append(scale)
        norm = max(max(scales), 1e-300)
        worst = max(vals) / norm
    # the residual's move for a 2^-52 |u| rounding in each u: the stencil
    # has a2[j, j] (1, -2, 1) / h^2, +-a2[l, j] / (2 h^2), +-a1[j] / (2 h), a0
    a2 = np.abs(op.a2)
    floor = ((3.0 * np.trace(a2) + np.sum(a2)) / h ** 2 + abs(op.a0)
             + np.sum(np.abs(op.a1)) / h) * 2.0 ** -52 * max(map(abs, seen))
    return VerificationReport(
        "pde_identity",
        {"side": side, "h": h, "N": N, "kind": fs.kind,
         "points": len(grid), "rounding_floor": float(floor / norm)},
        [("max_relative_residual", worst)], tol)


# ---------------------------------------------------------------------------
# transmission


def _extrapolate_to_zero(deltas, values):
    """Neville polynomial extrapolation of values(delta) to delta -> 0."""
    deltas = np.asarray(deltas, dtype=float)
    tab = list(np.asarray(values, dtype=complex))
    n = len(tab)
    for level in range(1, n):
        for i in range(n - level):
            d_i, d_il = deltas[i], deltas[i + level]
            tab[i] = (d_i * tab[i + 1] - d_il * tab[i]) / (d_i - d_il)
    return tab[0]


@_timed
def check_transmission(fs: FundamentalSolution, domain: Domain, target,
                       n_samples: int = 32,
                       offsets=(1e-2, 1e-3, 1e-4), N: int = 64,
                       tol: float = None):
    """Compare interior and exterior one-sided limits on boundary samples.

    ``target`` selects the field: ("volume", f) for a classical density,
    ("negative", nd) for a component representation, ("single_layer", phi)
    for a boundary moment.
    """
    if tol is None:
        tol = DEFAULT_TOLERANCES["transmission"]
    mode, payload = target

    def evaluate(x):
        if mode == "volume":
            return volume_potential(fs, domain, payload, x, N)
        if mode == "negative":
            return volume_potential_negative(fs, domain, payload, x, N)
        if mode == "single_layer":
            return single_layer(fs, domain, payload, x, N)
        raise ValueError(f"unknown transmission target {mode!r}")

    thetas = 2.0 * np.pi * (np.arange(n_samples) + 0.5) / n_samples
    if domain.dim == 2:
        samples = domain.boundary_point(thetas)
        normals = domain.boundary_normal(thetas)
    else:
        bq = cached_boundary_rule(domain, max(4, n_samples // 4))
        idx = np.linspace(0, len(bq.nodes) - 1, n_samples).astype(int)
        samples, normals = bq.nodes[idx], bq.normals[idx]

    worst = 0.0
    for xb, nu in zip(samples, normals):
        inner = [evaluate(xb - d * nu) for d in offsets]
        outer = [evaluate(xb + d * nu) for d in offsets]
        p_in = _extrapolate_to_zero(offsets, inner)
        p_out = _extrapolate_to_zero(offsets, outer)
        worst = max(worst, abs(p_in - p_out))
    return VerificationReport(
        "transmission",
        {"target": mode, "samples": n_samples, "offsets": list(offsets),
         "N": N, "kind": fs.kind},
        [("max_jump", worst)], tol)


# ---------------------------------------------------------------------------
# integration by parts with the residue term


def sphere_residue(k, j: int, n: int, eps_seq=(1e-1, 1e-2, 1e-3, 1e-4)):
    """Extrapolated limit of eps^{n-1} int_{S} k(eps xi) xi_j dsigma,
    the delta contribution of the kernel in the parts formula."""
    xi, w = _circle_grid(256)[1:] if n == 2 else _gl_sphere(48, 96)
    vals = []
    for eps in eps_seq:
        kv = np.asarray(k(eps * xi))
        vals.append(np.sum(kv * xi[:, j] * w) * eps ** (n - 1))
    return _extrapolate_to_zero(eps_seq, vals), vals


@_timed
def check_sphere_residue(k, j: int, n: int, expected: float,
                         eps_seq=(1e-1, 1e-2, 1e-3, 1e-4),
                         tol: float = None):
    """Extrapolated residue Psi_j of a kernel against its expected value
    (s_n-normalized gradient kernels give 1/n; kernels of weaker singularity
    give 0)."""
    if tol is None:
        tol = DEFAULT_TOLERANCES["ibp_psi_gradient_kernel"]
    psi, psi_seq = sphere_residue(k, j, n, eps_seq)
    return VerificationReport(
        "sphere_residue",
        {"j": j, "dim": n, "expected": float(expected),
         "psi": complex(psi).real,
         "psi_sequence": [complex(v).real for v in psi_seq]},
        [("psi_gap", abs(psi - expected))], tol)


@_timed
def check_integration_by_parts(k, dk, domain: Domain, phi, dphi, x, j: int,
                               eps_seq=(1e-1, 1e-2, 1e-3, 1e-4), N: int = 64,
                               tol: float = None):
    """Verify

        p.v. int_Omega dK/dy_j (x, y) phi(y) dy
          = - int_Omega K phi_{,j} dy + int_dOmega K phi nu_j dsigma
            + phi(x) Psi_j

    for a convolution kernel K(x, y) = k(x - y) with z-gradient ``dk``
    (so dK/dy_j = -d_j k evaluated at x - y).  The principal value is
    computed on shrinking excisions and extrapolated; Psi_j from the sphere
    integrals.  A non-convergent excision sequence yields a failed report
    rather than an exception.
    """
    if tol is None:
        tol = DEFAULT_TOLERANCES["integration_by_parts"]
    x = np.asarray(x, dtype=float)
    n = domain.dim

    *excised, whole = _excised_rules(domain, x, N, list(eps_seq) + [0.0])
    lhs_seq = [_rule_sum(x, rays, lambda z, y:
                         -np.asarray(dk(z))[:, j] * np.asarray(phi(y)))
               for rays in excised]
    steps = np.abs(np.diff(np.asarray(lhs_seq)))
    divergent = len(steps) >= 2 and steps[-1] > 4.0 * steps[0] + 1e-12
    lhs = _extrapolate_to_zero(eps_seq, lhs_seq)

    psi, psi_seq = sphere_residue(k, j, n, eps_seq)

    rhs = -_rule_sum(x, whole, lambda z, y:
                     np.asarray(k(z)) * np.asarray(dphi(y))[:, j])
    rhs += _boundary_integral(
        _plan(domain, x, N),
        lambda y, nu: np.asarray(k(x[None, :] - y)) * np.asarray(phi(y)) * nu[:, j])
    phix = complex(np.asarray(phi(x[None, :]))[0])
    rhs += phix * psi

    observed = [("lhs_rhs_gap", float("inf") if divergent else abs(lhs - rhs))]
    params = {"j": j, "x": list(x), "N": N, "eps": list(eps_seq),
              "psi": complex(psi).real,
              "psi_sequence": [complex(v).real for v in psi_seq],
              "divergent": divergent}
    return VerificationReport("integration_by_parts", params, observed, tol)


# ---------------------------------------------------------------------------
# maximal function bound


@_timed
def check_maximal_bound(k, domain: Domain, x_grid, rho_grid, N: int = 64,
                        expect: str = "bounded", tol: float = None):
    """Truncated integrals int_{Omega \\ B(x, rho)} k(x - y) dy over a rho
    grid.  ``expect="bounded"`` passes when the values are stable in rho
    (even kernels with zero sphere mean); ``expect="log-growth"`` passes
    when they grow by at least 0.9 * s_n ln 10 per decade (control case);
    any other ``expect`` raises ValueError before anything is evaluated."""
    if expect not in ("bounded", "log-growth"):
        raise ValueError(f"unknown maximal_bound expectation {expect!r}")
    if tol is None:
        tol = DEFAULT_TOLERANCES["maximal_bound_variation" if expect == "bounded"
                                 else "maximal_growth_deficit"]
    x_grid = np.atleast_2d(np.asarray(x_grid, dtype=float))
    rho_grid = np.asarray(rho_grid, dtype=float)
    table = np.empty((len(x_grid), len(rho_grid)))
    for i, x in enumerate(x_grid):
        for jr, rays in enumerate(_excised_rules(domain, x, N, rho_grid)):
            table[i, jr] = float(np.real(_rule_sum(
                x, rays, lambda z, y: np.asarray(k(z)))))
    observed = []
    if expect == "bounded":
        worst = 0.0
        for i in range(len(x_grid)):
            vals = np.abs(table[i])
            if vals.max() <= 1e-8:     # exact cancellation case
                continue
            worst = max(worst, float((vals.max() - vals.min()) / vals.max()))
        observed.append(("max_relative_variation", worst))
    else:
        required = 0.9 * sphere_measure(domain.dim) * np.log(10.0)
        decades = np.log10(rho_grid[:-1] / rho_grid[1:])
        deficit = 0.0
        for i in range(len(x_grid)):
            growth = np.diff(np.abs(table[i])) / decades
            deficit = max(deficit, float(max(0.0, required - growth.min())))
        observed.append(("growth_deficit", deficit))
    return VerificationReport(
        "maximal_bound",
        {"expect": expect, "N": N, "rho": list(rho_grid),
         "values": [list(map(float, row)) for row in table]},
        observed, tol)


# ---------------------------------------------------------------------------
# derivative recursion


@_timed
def check_derivative_recursion(fs: FundamentalSolution, domain: Domain, phi,
                               dphi, grid, N: int = 64, tol: float = None):
    """For C^1 densities, each derivative of the volume potential equals the
    potential of the derivative minus a single layer with moment nu_j phi:

        d_j P[phi](x) = P[d_j phi](x) - v[nu_j phi](x),

    valid for interior and exterior x alike."""
    if tol is None:
        tol = DEFAULT_TOLERANCES["derivative_recursion"]
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    worst = 0.0
    for x in grid:
        lhs = volume_potential_gradient(fs, domain, phi, x, N)
        # the single layers of all n moments nu_j phi, in one pass
        v = _boundary_integral(
            _plan(domain, x, N),
            lambda y, nu: fs.eval(x[None, :] - y) * nu.T * np.asarray(phi(y)))
        for j in range(domain.dim):
            pj = volume_potential(
                fs, domain, lambda y: np.asarray(dphi(y))[:, j], x, N)
            worst = max(worst, abs(lhs[j] - (pj - v[j])))
    return VerificationReport(
        "derivative_recursion",
        {"N": N, "points": len(grid), "kind": fs.kind},
        [("max_identity_gap", worst)], tol)


# ---------------------------------------------------------------------------
# modulus experiment


@_timed
def modulus_experiment(fs: FundamentalSolution, domain: Domain, f,
                       alpha: float, scales=(1e-1, 1e-2, 1e-3, 1e-4),
                       N: int = 64, seed: int = 0, tol: float = None):
    """Tabulate, across pair-separation scales, the omega_1- and the
    Lipschitz-seminorm of the Hessian entries of the volume potential on an
    interior cloud.  For alpha = 1 the omega_1 seminorm must stay bounded:
    pass when max/min across scales is at most 5.  The Lipschitz column is
    informational: boundedness in the omega_1 gauge is the guaranteed
    property, while Lipschitz continuity of second derivatives can fail for
    merely Lipschitz densities (not asserted either way here).
    """
    if tol is None:
        tol = DEFAULT_TOLERANCES["modulus_ratio"]
    rng = np.random.default_rng(seed)
    omega1 = Modulus.omega(1.0)
    n = domain.dim
    om_by_scale, lip_by_scale = [], []
    for s in scales:
        pairs = []
        # pairs straddling x1 = 0, where |.|-type densities lose smoothness
        for t in (0.15, -0.25, 0.35):
            base = np.zeros(n)
            base[0] = -s / 2.0
            base[1] = t
            other = base.copy()
            other[0] += s
            pairs.append((base, other))
        for _ in range(2):
            base = rng.uniform(-0.3, 0.3, size=n)
            direction = rng.standard_normal(n)
            direction /= np.linalg.norm(direction)
            pairs.append((base, base + s * direction))
        om_max = lip_max = 0.0
        for a, b in pairs:
            ha = volume_potential_hessian(fs, domain, f, a, N)
            hb = volume_potential_hessian(fs, domain, f, b, N)
            d = float(np.linalg.norm(b - a))
            dh = float(np.max(np.abs(ha - hb)))
            om_max = max(om_max, dh / float(omega1(d)))
            lip_max = max(lip_max, dh / d)
        om_by_scale.append(om_max)
        lip_by_scale.append(lip_max)
    om = np.asarray(om_by_scale)
    ratio = float(om.max() / max(om.min(), 1e-300)) if om.max() > 1e-10 else 1.0
    return VerificationReport(
        "modulus_experiment",
        {"alpha": alpha, "scales": list(scales), "N": N,
         "omega1_seminorms": [float(v) for v in om_by_scale],
         "lipschitz_seminorms": [float(v) for v in lip_by_scale]},
        [("omega1_ratio", ratio)], tol)


# ---------------------------------------------------------------------------
# convergence studies


@_timed
def convergence_study(op_name: str, fs: FundamentalSolution, domain: Domain,
                      density, N_list=(8, 16, 32, 64), x=None,
                      exact=None, required_order: float = 3.0,
                      tol: float = None):
    """Errors against a closed form (or a 4x-resolution self-reference) over
    an N ladder; the observed order is the best consecutive log2 ratio above
    the rounding floor.  Passes when it reaches ``required_order``."""
    if tol is None:
        tol = DEFAULT_TOLERANCES["convergence_order_deficit"]
    N_list = list(N_list)

    def evaluate(NN):
        if op_name == "volume_potential":
            return volume_potential(fs, domain, density, x, NN)
        if op_name == "single_layer_onsurface":
            return single_layer(fs, domain, density, x, NN)
        if op_name == "boundary_kernel":
            return _boundary_integral(
                _plan(domain, np.asarray(x, dtype=float), NN),
                lambda y, nu: fs.k1(np.asarray(x)[None, :] - y)[:, 0]
                * np.asarray(density(y)))
        raise ValueError(f"unknown convergence target {op_name!r}")

    ref = exact if exact is not None else evaluate(4 * max(N_list))
    errors = [abs(evaluate(NN) - ref) for NN in N_list]
    floor = 1e-13 * max(1.0, abs(ref))
    orders = []
    for e0, e1 in zip(errors, errors[1:]):
        if e0 > floor and e1 > 0:
            orders.append(np.log2(e0 / max(e1, floor / 10)))
    if any(e <= floor for e in errors):
        observed_order = float("inf")
    else:
        observed_order = float(max(orders)) if orders else 0.0
    deficit = max(0.0, required_order - observed_order)
    return VerificationReport(
        "convergence_study",
        {"op": op_name, "x": list(np.ravel(x)), "N": N_list,
         "errors": [float(e) for e in errors],
         "observed_order": observed_order, "required_order": required_order},
        [("order_deficit", deficit)], tol)


# ---------------------------------------------------------------------------
# closed-form probe (used by the CLI default suite)


@_timed
def check_closed_form_disk(fs: FundamentalSolution, domain: Domain,
                           N: int = 64, tol: float = None):
    """Laplace unit-disk potentials of f = 1 against (|x|^2 - 1)/4 inside
    and log|x|/2 outside, on a fixed 21-point probe set."""
    if tol is None:
        tol = DEFAULT_TOLERANCES["closed_form"]
    one = get_preset("one")
    rng = np.random.default_rng(3)
    probes = [np.zeros(2)]
    for r in (0.2, 0.45, 0.7, 0.9):
        for t in rng.uniform(0, 2 * np.pi, size=3):
            probes.append(np.array([r * np.cos(t), r * np.sin(t)]))
    for r in (1.3, 2.0, 3.5, 6.0):
        for t in rng.uniform(0, 2 * np.pi, size=2):
            probes.append(np.array([r * np.cos(t), r * np.sin(t)]))
    worst = 0.0
    for x in probes:
        r = np.linalg.norm(x)
        exact = (r ** 2 - 1.0) / 4.0 if r < 1.0 else np.log(max(r, 1e-300)) / 2.0
        val = volume_potential(fs, domain, one, x, N)
        worst = max(worst, abs(val - exact))
    return VerificationReport(
        "closed_form", {"N": N, "points": len(probes)},
        [("max_error", worst)], tol)
