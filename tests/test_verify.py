import numpy as np
import pytest

from volpot import (cosine_star, disk, get_preset, laplace_fundamental,
                    laplacian)
from volpot import verify
from volpot.verify import (VerificationReport, check_integration_by_parts,
                           check_maximal_bound, check_pde_identity,
                           check_sphere_residue, check_transmission,
                           convergence_study, write_reports_csv)

FS = laplace_fundamental(2)
DISK = disk()
ONE = get_preset("one")


def k_grad2(z):
    z = np.asarray(z)
    r2 = np.sum(z * z, axis=-1)
    return z[..., 0] / (2.0 * np.pi * r2)


def dk_grad2(z):
    z = np.asarray(z)
    r2 = np.sum(z * z, axis=-1)
    out = -2.0 * z * (z[..., 0] / r2)[..., None]
    out[..., 0] += 1.0
    return out / (2.0 * np.pi * r2[..., None])


def test_report_pass_semantics():
    rep = VerificationReport("t", {}, [("a", 0.5), ("b", 2.0)], 1.0)
    assert not rep.passed
    rep = VerificationReport("t", {}, [("a", 0.5)], 1.0)
    assert rep.passed
    rep = VerificationReport("t", {}, [("a", float("inf"))], 1.0)
    assert not rep.passed


@pytest.mark.parametrize("side", ["inside", "Exterior", "exterior "])
def test_pde_identity_rejects_an_unknown_side(side):
    # an unknown side is not run as the exterior check
    with pytest.raises(verify.DomainError, match="'interior' or 'exterior'"):
        check_pde_identity(FS, laplacian(2), DISK, get_preset("bump"),
                           np.array([[0.99, 0.0]]), N=16, side=side)


@pytest.mark.parametrize("side, point, message", [
    ("exterior", (0.2, 0.1), "not on the exterior side"),
    ("interior", (1.5, 0.0), "not on the interior side"),
    ("exterior", (1.0005, 0.0), "closer than 5h"),
    ("interior", (0.9995, 0.0), "closer than 5h")])
def test_pde_identity_rejects_a_point_off_its_side(side, point, message):
    # a grid point on the other side, or one whose stencil straddles the
    # boundary, has no identity to check: it raises, not a failed report
    grid = np.array([[-0.3, 0.2], point]) if side == "interior" \
        else np.array([[2.0, 0.5], point])
    with pytest.raises(verify.DomainError, match=message):
        check_pde_identity(FS, laplacian(2), DISK, get_preset("bump"), grid,
                           h=1e-3, N=16, side=side)


def test_pde_identity_measures_a_star_distance_exactly():
    # 0.99 * 5h inside along the normal of a cosine star, where a sampled
    # distance read 0.04025 > 5h and let the stencil through
    star, h = cosine_star([1, 0, 0, 0.2]), 8e-3
    x = (star.boundary_point(4.5222)
         - 0.99 * 5.0 * h * star.boundary_normal(4.5222))
    assert star.distance_to_boundary(x) == pytest.approx(0.99 * 5.0 * h,
                                                         abs=1e-15)
    with pytest.raises(verify.DomainError, match="closer than 5h"):
        check_pde_identity(FS, laplacian(2), star, get_preset("bump"),
                           x[None, :], h=h, N=16)


def test_reports_deterministic():
    grid = np.array([[0.2, 0.1], [-0.3, 0.2]])
    bump = get_preset("bump")
    r1 = check_pde_identity(FS, laplacian(2), DISK, bump, grid, N=32)
    r2 = check_pde_identity(FS, laplacian(2), DISK, bump, grid, N=32)
    assert r1.observed == r2.observed
    assert list(r1.rows()) == list(r2.rows())


def test_pde_residual_decreases_with_N():
    # residual shrinks (within 20% slack) as N doubles, until the O(h^2)
    # finite-difference floor takes over
    bump = get_preset("bump")
    grid = np.array([[0.2, 0.1]])
    res = []
    for N in (8, 16, 32):
        rep = check_pde_identity(FS, laplacian(2), DISK, bump, grid, h=8e-3,
                                 N=N)
        res.append(rep.observed[0][1])
    floor = res[-1]
    for r0, r1 in zip(res, res[1:]):
        assert r1 <= 1.2 * max(r0, floor)


def test_integration_by_parts_random_triples():
    # ten random (kernel, density, point) draws agree to 1e-4
    rng = np.random.default_rng(17)
    presets = [get_preset("one"), get_preset("x1"), get_preset("x1sq")]

    def log_kernel(z):
        return FS.eval(z)

    def log_kernel_grad(z):
        return FS.grad(z)

    kernels = [(k_grad2, dk_grad2), (log_kernel, log_kernel_grad)]
    for trial in range(10):
        k, dk = kernels[trial % 2]
        phi = presets[trial % 3]
        x = rng.uniform(-0.4, 0.4, size=2)
        j = int(rng.integers(0, 2))
        rep = check_integration_by_parts(k, dk, DISK, phi, phi.grad, x, j,
                                         N=48, tol=1e-4)
        assert rep.passed, rep.observed


def test_sphere_residue_gradient_kernel():
    rep = check_sphere_residue(k_grad2, 0, 2, 0.5, tol=1e-4)
    assert rep.passed
    assert rep.parameters["psi"] == pytest.approx(0.5, abs=1e-4)


def test_sphere_residue_weak_kernel_vanishes():
    rep = check_sphere_residue(lambda z: FS.eval(z), 0, 2, 0.0, tol=1e-6)
    assert rep.passed


def test_transmission_single_layer():
    rep = check_transmission(FS, DISK, ("single_layer", ONE), n_samples=8,
                             N=48, tol=1e-8)
    assert rep.passed, rep.observed


def test_transmission_3d_ball():
    from volpot import laplace_fundamental, make_ball
    ball = make_ball(3, [0.0, 0.0, 0.0], 1.0)
    rep = check_transmission(laplace_fundamental(3), ball, ("volume", ONE),
                             n_samples=4, offsets=(1e-2, 1e-3), N=24,
                             tol=1e-4)
    assert rep.passed, rep.observed


def test_pde_identity_helmholtz_3d():
    from volpot import helmholtz_fundamental, helmholtz_modified, make_ball
    fs = helmholtz_fundamental(3, 1.0)
    ball = make_ball(3, [0.0, 0.0, 0.0], 1.0)
    bump = get_preset("bump")
    grid = np.array([[0.2, 0.1, -0.1], [-0.3, 0.2, 0.2]])
    rep = check_pde_identity(fs, helmholtz_modified(3, 1.0), ball, bump,
                             grid, h=1e-2, N=24, tol=5e-3)
    assert rep.passed, rep.observed


def test_maximal_bound_even_kernel_stable():
    def k_even(z):
        z = np.asarray(z)
        r2 = np.sum(z * z, axis=-1)
        return (z[..., 0] ** 2 - z[..., 1] ** 2) / r2 ** 2

    x_grid = np.array([[0.0, 0.0], [0.4, 0.2]])
    rho = np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    rep = check_maximal_bound(k_even, DISK, x_grid, rho, N=48)
    assert rep.passed, rep.parameters["values"]


def test_maximal_bound_control_grows():
    k_ctrl = lambda z: 1.0 / np.sum(np.asarray(z) ** 2, axis=-1)
    rho = np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    rep = check_maximal_bound(k_ctrl, DISK, np.array([[0.4, 0.2]]), rho,
                              N=48, expect="log-growth")
    assert rep.passed
    # growth is ~ 2 pi ln 10 per decade
    vals = np.asarray(rep.parameters["values"][0])
    growth = np.diff(np.abs(vals))
    assert np.all(growth >= 0.9 * 2.0 * np.pi * np.log(10.0))


def test_maximal_bound_rejects_an_unknown_expectation(monkeypatch):
    # a misspelt expect raises before any rule is built, instead of
    # running the log-growth check
    def no_rule(*args):
        raise AssertionError("evaluated before checking expect")

    monkeypatch.setattr(verify, "_excised_rules", no_rule)
    with pytest.raises(ValueError, match="'bound'"):
        check_maximal_bound(FS.eval, DISK, np.array([[0.4, 0.2]]),
                            np.array([1e-1, 1e-2]), N=16, expect="bound")


def test_modulus_experiment_constant_density():
    # Hessian of the f = 1 potential is constant: both seminorms ~ 0 and the
    # boundedness ratio degenerates to 1
    from volpot.verify import modulus_experiment
    rep = modulus_experiment(FS, DISK, ONE, 1.0, scales=(1e-1, 1e-3), N=32)
    assert rep.passed
    assert rep.observed[0][1] == pytest.approx(1.0)
    assert max(rep.parameters["omega1_seminorms"]) <= 1e-4


def test_modulus_experiment_smooth_density():
    from volpot.verify import modulus_experiment
    x1 = get_preset("x1")
    rep = modulus_experiment(FS, DISK, x1, 1.0, scales=(1e-1, 1e-2, 1e-3),
                             N=32)
    assert rep.passed
    # smooth density: the Lipschitz seminorm of the Hessian stays bounded too
    lip = rep.parameters["lipschitz_seminorms"]
    assert max(lip) <= 5.0 * max(min(lip), 1e-12)


def test_convergence_study_orders():
    rep = convergence_study("volume_potential", FS, DISK, ONE,
                            N_list=(8, 16, 32), x=np.zeros(2), exact=-0.25)
    assert rep.passed
    rep = convergence_study("single_layer_onsurface", FS, DISK, ONE,
                            N_list=(8, 16, 32), x=DISK.boundary_point(0.3))
    assert rep.passed
    assert (rep.parameters["observed_order"] >= 3.0
            or rep.parameters["observed_order"] == float("inf"))


def test_boundary_kernel_spectral():
    # off-surface boundary kernel: error drops by >= 10x per doubling
    rep = convergence_study("boundary_kernel", FS, DISK, ONE,
                            N_list=(4, 8, 16), x=np.array([3.0, 0.0]),
                            required_order=np.log2(10.0))
    assert rep.passed, rep.parameters


def test_compare_reports_csv_numeric_on_values(tmp_path):
    from volpot.verify import compare_reports_csv
    rep = check_sphere_residue(k_grad2, 0, 2, 0.5, tol=1e-4)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_reports_csv([rep], a)
    write_reports_csv([rep], b)
    assert compare_reports_csv(a, b)
    # a tiny numeric perturbation within rtol still matches ...
    text = b.read_text().splitlines()
    head, row = text[0], text[1].split(",")
    row[3] = f"{float(row[3]) * (1 + 1e-12) + 1e-15:.12g}"
    b.write_text(head + "\n" + ",".join(row) + "\n")
    assert compare_reports_csv(a, b)
    # ... but a label change does not
    row[2] = "renamed"
    b.write_text(head + "\n" + ",".join(row) + "\n")
    assert not compare_reports_csv(a, b)


def test_write_reports_csv(tmp_path):
    rep = check_sphere_residue(k_grad2, 0, 2, 0.5, tol=1e-4)
    out = tmp_path / "r.csv"
    write_reports_csv([rep], out)
    text = out.read_text().splitlines()
    assert text[0] == "check,param,label,value,tolerance,pass"
    assert text[1].startswith("sphere_residue,")
    assert text[1].endswith(",true")
    # byte-identical on re-run
    out2 = tmp_path / "r2.csv"
    write_reports_csv([check_sphere_residue(k_grad2, 0, 2, 0.5, tol=1e-4)],
                      out2)
    assert out.read_bytes() == out2.read_bytes()


def test_default_tolerances_positive():
    assert all(v > 0 for v in verify.DEFAULT_TOLERANCES.values())
