"""Gradients and Hessians reduced along the rays of polar rules.

On a ray set centred at the evaluation point x every node is x + r d, so
the kernels factor into a power of r times a function of d; the
potentials sum each ray first and call the kernel once per direction.
The Cartesian reductions they replaced (one kernel call per node on the
offsets x - y, over the rule drained by the public builders) are kept
here as references: the two must agree to 1e-12 of the potential's scale
for every kernel, domain, point and density, and agree as well with the
closed forms.  Values are summed in polar form too, from the radii alone:
they must agree with the Cartesian sum to rounding, and keep the bits
stored for them.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from volpot import (anisotropic, cosine_star, disk, get_preset,
                    helmholtz_fundamental, laplace_fundamental, make_ball,
                    principal_fundamental, radial_extension, volume_potential,
                    volume_potential_gradient, volume_potential_hessian,
                    volume_potential_negative)
from volpot.geometry import (RayForm, RaySet, _drain, _flux_rays,
                             _graded_boundary_rule, _nearest_point,
                             singular_volume_rule,
                             volume_rule)
from volpot.potentials import _Plan, _boundary_integral, _offsets, _ray_sums
from volpot.schauder import NegativeExponentDensity

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "ball_oracle", ROOT / "perfbench" / "oracle.py")
ball_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ball_oracle)

DISK = disk()
STAR = cosine_star([1.0, 0.0, 0.0, 0.2])
BALL = make_ball(3, [0.0, 0.0, 0.0], 1.0)
NB3 = np.array([1.0, 2.0, -2.0]) / 3.0
ANISO = {2: np.diag([3.0, 1.2]), 3: np.diag([4.0, 1.0, 2.0])}

ONE = get_preset("one")
X1SQ = get_preset("x1sq")
BUMP = get_preset("bump", 2.0)


def _complex_density(y):
    return X1SQ(y) + 1j * BUMP(y)


def _zero(y):
    return np.zeros(len(y))


DENSITIES = {"one": ONE, "x1sq": X1SQ, "bump": BUMP,
             "complex": _complex_density}
# f0 of the negative-exponent density paired with each density; a zero f0
# skips its kernel pass
F0 = {"one": X1SQ, "x1sq": _zero, "bump": X1SQ, "complex": _zero}


def _kernels(n):
    return {"laplace": laplace_fundamental(n),
            "anisotropic": principal_fundamental(anisotropic(ANISO[n])),
            "screened": helmholtz_fundamental(n, 1.0)}


def _star_point(theta, offset):
    r = float(STAR.rho(np.array(theta))) + offset
    return r * np.array([np.cos(theta), np.sin(theta)])


def _points(domain):
    """centre, interior, -/+ 1e-3, -/+ 1e-4 about the boundary, far."""
    if domain is STAR:
        pts = [np.zeros(2), _star_point(0.6, -0.4)]
        pts += [_star_point(0.6, s * h) for h in (1e-3, 1e-4)
                for s in (-1.0, 1.0)]
        return pts + [_star_point(0.6, 1.5)]
    d = NB3 if domain.dim == 3 else np.array([np.cos(0.7), np.sin(0.7)])
    radii = [0.0, 0.5, 1 - 1e-3, 1 + 1e-3, 1 - 1e-4, 1 + 1e-4, 3.0]
    return [r * d for r in radii]


# -- the Cartesian reductions, one kernel call per node ---------------------

def _drained(domain, x, N):
    """The volume rule the potentials use at x, drained: the regular rule
    far out (every far point here is a radius away); the flux rays at
    every other star point and at points within 0.1 radii of a disk or a
    ball, on either side; the polar rule about any other interior x."""
    inside = domain.classify(x) > 0
    dist = domain.distance_to_boundary(x)
    if not inside and dist > 0.5:
        return volume_rule(domain, N)
    if domain.kind == "star2d" or dist < 0.1:
        graded = _graded_boundary_rule(domain, N, _nearest_point(domain, x))
        return _drain(_flux_rays(x, N, graded)[0])
    return singular_volume_rule(domain, x, N)


def _column_sums(a):
    """Sums of the columns of an (m, n) array, each pairwise over a
    contiguous row (numpy sums an axis-0 reduction one row at a time)."""
    return np.sum(np.ascontiguousarray(a.T), axis=1)


def _cartesian_gradient(fs, domain, f, x, N):
    vq = _drained(domain, x, N)
    return _column_sums(fs.grad(_offsets(x, vq.nodes))
                        * (f(vq.nodes) * vq.weights)[:, None])


def _cartesian_hessian(fs, domain, f, x, N):
    fx = np.asarray(radial_extension(domain, f)(x[None, :]))[0]
    vq = _drained(domain, x, N)
    z = _offsets(x, vq.nodes)
    fvals = np.asarray(f(vq.nodes))
    H = fs.k1_jacobian(z, weights=(fvals - fx) * vq.weights)
    if fs.kind == "modified-helmholtz":
        H = H + fs.k2_jacobian(z, weights=fvals * vq.weights)
    n = domain.dim
    K = [[_boundary_integral(_Plan(domain, x, N), lambda y, nu, l=l, j=j:
                             fs.k1(_offsets(x, y))[:, j] * nu[:, l])
          for j in range(n)] for l in range(n)]
    return H - fx * np.array(K)


def _cartesian_negative(fs, domain, nd, x, N, grad_one=None):
    """The negative-exponent potential node by node; with grad_one, the
    gradient of the f = 1 potential at x, each component that is the
    preset one takes its volume term from grad_one instead."""
    comps, n = nd.components, domain.dim
    vq = _drained(domain, x, N)
    y, w = vq.nodes, vq.weights
    z = _offsets(x, y)
    value = np.sum(fs.eval(z) * comps[0](y) * w)
    fw = np.stack([np.asarray(comps[j + 1](y)) * w for j in range(n)], axis=1)
    grad = _column_sums(fs.grad(z) * fw)
    if grad_one is not None:
        grad = np.where([c is ONE for c in comps[1:]], grad_one, grad)

    def moment(y, nu):
        return fs.eval(x[None, :] - y) * sum(
            nu[:, j] * np.asarray(comps[j + 1](y)) for j in range(n))

    return complex(value) + _boundary_integral(_Plan(domain, x, N), moment) \
        + complex(np.sum(grad))


# -- the ray reduction against the Cartesian one ------------------------------

CASES = [(DISK, 16), (STAR, 16), (BALL, 8)]


def _exact_one(fs):
    """The closed form (value, gradient, Hessian) of the f = 1 potential
    where the kernel sums the preset one per ray from exact radial
    primitives (the screened 3D kernel), None elsewhere.  There the
    preset leaves the radial rule's error behind, so it is held against
    the closed form instead of the node sum: no farther from it."""
    if fs.kappa > 0 and fs.dim == 3:
        return lambda x: ball_oracle.screened_ball(1.0, x)
    return None


@pytest.mark.parametrize("domain, N", CASES, ids=["disk", "cosine_star",
                                                 "ball3d"])
@pytest.mark.parametrize("kname", ["laplace", "anisotropic", "screened"])
def test_ray_reduction_matches_cartesian(domain, N, kname):
    fs = _kernels(domain.dim)[kname]
    n = domain.dim
    exact_one = _exact_one(fs)
    for x in _points(domain):
        interior = domain.classify(x) > 0
        # the potential's scale: the value of the f = 1 potential (every
        # density here is at most sqrt(2) in size), or the reference
        # itself where that is larger
        scale = abs(volume_potential(fs, domain, ONE, x, N))
        exact = None if exact_one is None else exact_one(x)
        for dname, f in DENSITIES.items():
            ref = _cartesian_gradient(fs, domain, f, x, N)
            got = volume_potential_gradient(fs, domain, f, x, N)
            bound = 1e-12 * max(scale, np.max(np.abs(ref)))
            if exact is not None and f is ONE:
                err = np.max(np.abs(got - exact[1]))
                assert err <= np.max(np.abs(ref - exact[1])) + bound, \
                    ("gradient", x, dname, err)
            else:
                err = np.max(np.abs(got - ref))
                assert err <= bound, ("gradient", x, dname, err)

            # the preset one is a component of every f here: where it is
            # summed exactly, the reference takes its volume term from the
            # f = 1 gradient checked above, and the rest node by node
            nd = NegativeExponentDensity((F0[dname], f, ONE, f)[:n + 1],
                                         1.0, 0.0)
            grad_one = None if exact is None else volume_potential_gradient(
                fs, domain, ONE, x, N)
            ref = _cartesian_negative(fs, domain, nd, x, N, grad_one)
            got = volume_potential_negative(fs, domain, nd, x, N)
            assert abs(got - ref) <= 1e-12 * max(scale, abs(ref)), \
                ("negative", x, dname, abs(got - ref))

            if interior:
                ref = _cartesian_hessian(fs, domain, f, x, N)
                got = volume_potential_hessian(fs, domain, f, x, N)
                bound = 1e-12 * max(scale, np.max(np.abs(ref)))
                if exact is not None and f is ONE:
                    # the k2 term alone: the Laplace Hessian of each path
                    # carries the same boundary term K^+
                    lap = _kernels(3)["laplace"]
                    k2 = exact[2] - np.eye(3) / 3.0
                    err = np.max(np.abs(got - volume_potential_hessian(
                        lap, domain, ONE, x, N) - k2))
                    err_ref = np.max(np.abs(ref - _cartesian_hessian(
                        lap, domain, ONE, x, N) - k2))
                    assert err <= err_ref + bound, ("hessian", x, dname, err)
                else:
                    err = np.max(np.abs(got - ref))
                    assert err <= bound, ("hessian", x, dname, err)


def _cartesian_value(fs, domain, f, x, N):
    """The value summed node by node on the offsets x - y, and the sum of
    |S f w| that bounds its rounding."""
    vq = _drained(domain, x, N)
    sfw = fs.eval(_offsets(x, vq.nodes)) * f(vq.nodes) * vq.weights
    return np.sum(sfw), np.sum(np.abs(sfw))


VALUE_KERNELS = {"laplace": laplace_fundamental,
                 "anisotropic": lambda n: principal_fundamental(
                     anisotropic(np.diag([4.0, 1.0, 2.0][:n]))),
                 "screened": lambda n: helmholtz_fundamental(n, 1.0)}


@pytest.mark.parametrize("domain, N", [(DISK, 32), (STAR, 32), (BALL, 12)],
                         ids=["disk", "cosine_star", "ball3d"])
@pytest.mark.parametrize("kname", sorted(VALUE_KERNELS))
def test_values_along_rays_match_cartesian(domain, N, kname):
    # interior offsets 1e-2 and 1e-4 and 1e-3 outside (the flux rays) and
    # a far point (the regular rule, streamed a block at a time)
    fs = VALUE_KERNELS[kname](domain.dim)
    if domain is STAR:
        points = [_star_point(0.6, s) for s in (-1e-2, -1e-4, 1e-3, 1.5)]
    else:
        d = NB3 if domain.dim == 3 else np.array([np.cos(0.7), np.sin(0.7)])
        points = [r * d for r in (1 - 1e-2, 1 - 1e-4, 1 + 1e-3, 3.0)]
    exact_one = _exact_one(fs)
    for x in points:
        for dname in ("one", "bump", "abs_x1"):
            f = get_preset(dname)
            ref, size = _cartesian_value(fs, domain, f, x, N)
            got = volume_potential(fs, domain, f, x, N)
            if exact_one is not None and f is ONE:
                # summed exactly: no farther from the closed form
                u = exact_one(x)[0]
                assert abs(got - u) <= abs(ref - u) + 1e-14 * size, \
                    (x, dname, got - u, ref - u)
            else:
                assert abs(got - ref) <= 1e-14 * size, (x, dname, got - ref)


@pytest.mark.parametrize("dim", [2, 3])
def test_factored_weights_sum_like_node_weights(dim):
    # random ray sets, lo zero and nonzero, about the origin and another
    # centre: on a block, c @ ((v rn^(n-1)) @ wt) is the sum of v w over
    # the same rays' drained node weights, and c @ (v @ wt) that of
    # v w / rn^(n-1), to 1e-14 of the sum of the magnitudes; the block
    # holds one factor per ray and one per radial node, no weight per node
    rng = np.random.default_rng(dim)
    m = 60
    for center in (np.zeros(dim), rng.standard_normal(dim)):
        for lo_zero in (True, False):
            dirs = rng.standard_normal((m, dim))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            lo = np.zeros(m) if lo_zero else rng.uniform(0.0, 0.5, m)
            hi = lo + 10.0 ** rng.uniform(-6.0, 0.5, m)
            wang = rng.uniform(0.1, 1.0, m)
            for p, n_panels in ((7, 14), (4, 0)):
                rs = RaySet(center, dirs, lo, hi, wang, p, n_panels)
                w = _drain((rs,)).weights
                rays = RayForm(rs, 0, m)
                rn, c, wt = rays.rn, rays.c, rays.wt
                assert c.shape == (m,) and wt.shape == (rn.shape[1],)
                v = (rng.standard_normal(w.shape)
                     + 1j * rng.standard_normal(w.shape))
                jac = (rn if dim == 2 else rn * rn).reshape(-1)
                for got, vw in (
                        (c @ ((v.reshape(rn.shape) * rn ** (dim - 1)) @ wt),
                         v * w),
                        (c @ _ray_sums(rays, v), v * w),
                        (c @ _ray_sums(rays, v.real), v.real * w),
                        (c @ _ray_sums(rays, v, False), v * w / jac)):
                    err = abs(got - np.sum(vw))
                    assert err <= 1e-14 * np.sum(np.abs(vw)), \
                        (center.any(), lo_zero, p, err)


# -- closed forms ---------------------------------------------------------------

@pytest.mark.parametrize("r", [0.0, 0.5, 1 - 1e-3, 1 - 1e-4, 1 + 1e-4,
                               1 + 1e-3, 2.0])
def test_disk_gradient_closed_form(r):
    # grad of the f = 1 Laplace potential: x/2 inside, x/(2|x|^2) outside
    x = r * np.array([np.cos(0.7), np.sin(0.7)])
    exact = x / 2.0 if r < 1.0 else x / (2.0 * r * r)
    fs = laplace_fundamental(2)
    err = np.max(np.abs(volume_potential_gradient(fs, DISK, ONE, x, 64)
                        - exact))
    ref = np.max(np.abs(_cartesian_gradient(fs, DISK, ONE, x, 64) - exact))
    assert err <= max(ref, 1e-15) + 1e-13
    assert err <= 1e-7


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4, 1e-5])
def test_ball_near_the_sphere_is_closed_form(delta):
    # the f = 1 Laplace value and gradient just inside the unit sphere, on
    # the flux rays: to rounding (the polar rule about x on numpy's
    # leggauss weights left 3.8e-15 at 1e-2 and 5.3e-14 at 1e-5)
    fs = laplace_fundamental(3)
    for d in (NB3, np.array([0.0, 0.0, 1.0]),
              np.array([2.0, -3.0, 6.0]) / 7.0):
        x = (1.0 - delta) * d
        u, g, _ = ball_oracle.laplace_ball(x)
        assert abs(volume_potential(fs, BALL, ONE, x, 20) - u) <= 2e-15
        err = np.max(np.abs(volume_potential_gradient(fs, BALL, ONE, x, 20)
                            - g))
        assert err <= 2e-15, (d, err)


@pytest.mark.parametrize("kname", ["laplace", "anisotropic", "screened"])
def test_ball_matches_oracle(kname):
    # N = 20 and the points of the ball3d-near benchmark; the Hessian only
    # at the centre, where its boundary term is resolved
    fs = _kernels(3)[kname]
    oracle = {"laplace": ball_oracle.laplace_ball,
              "anisotropic": lambda x: ball_oracle.anisotropic_ball(
                  np.diag(ANISO[3]), x),
              "screened": lambda x: ball_oracle.screened_ball(1.0, x)}[kname]
    for r in (0.0, 1 - 1e-3, 1 - 1e-4, 1 + 1e-4, 3.0):
        x = r * NB3
        _, g_exact, h_exact = oracle(x)
        err = np.max(np.abs(volume_potential_gradient(fs, BALL, ONE, x, 20)
                            - g_exact))
        ref = np.max(np.abs(_cartesian_gradient(fs, BALL, ONE, x, 20)
                            - g_exact))
        assert err <= ref + 1e-13 and err <= 1e-5, (r, err, ref)
    H = volume_potential_hessian(fs, BALL, ONE, np.zeros(3), 20)
    ref = _cartesian_hessian(fs, BALL, ONE, np.zeros(3), 20)
    h_exact = oracle(np.zeros(3))[2]
    err = np.max(np.abs(H - h_exact))
    assert err <= np.max(np.abs(ref - h_exact)) + 1e-13 and err <= 1e-5


# -- Hessians near the boundary against closed forms ----------------------------
#
# For f = 1 the Hessian's k1 moment vanishes and its boundary term
# -K^+[k1_j, nu_l] carries it; K must take the graded boundary rule within
# 0.1 radii (the plain rule is off by O(1) at these points).  On the ball
# the bound is the ball3d-near benchmark's 1e-5 at its N = 20, and 1e-6
# at N = 40.


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
def test_disk_hessian_near_the_boundary_is_closed_form(delta):
    # u = (|x|^2 - 1) / 4 inside, so D^2 u = I / 2
    fs = laplace_fundamental(2)
    for theta in (0.7, 2.0, 4.0):
        x = (1.0 - delta) * np.array([np.cos(theta), np.sin(theta)])
        H = volume_potential_hessian(fs, DISK, ONE, x, 64)
        assert np.max(np.abs(H - np.eye(2) / 2.0)) <= 1e-9, (theta, H)


@pytest.mark.parametrize("N, bound", [(20, 1e-5), (40, 1e-6)],
                         ids=["N20", "N40"])
@pytest.mark.parametrize("kname, delta", [
    ("laplace", 1e-2), ("laplace", 1e-3), ("laplace", 1e-4),
    ("screened", 1e-2), ("screened", 1e-3), ("screened", 1e-4),
    ("anisotropic", 1e-2), ("anisotropic", 1e-3), ("anisotropic", 1e-4)])
def test_ball_hessian_near_the_boundary_matches_oracle(kname, delta, N,
                                                       bound):
    fs = _kernels(3)[kname]
    oracle = {"laplace": ball_oracle.laplace_ball,
              "anisotropic": lambda x: ball_oracle.anisotropic_ball(
                  np.diag(ANISO[3]), x),
              "screened": lambda x: ball_oracle.screened_ball(1.0, x)}[kname]
    for d in (NB3, np.array([0.0, 0.6, 0.8])):
        x = (1.0 - delta) * d
        H = volume_potential_hessian(fs, BALL, ONE, x, N)
        err = np.max(np.abs(H - oracle(x)[2]))
        assert err <= bound, (d, err)


# -- values keep their bits, and real densities stay real -----------------------

# volume_potential as float.hex, the values on rays from x summed in polar
# form with factored weights, c_i sum_j v_ij wt_j (one matrix-vector
# product per block), and every radial rule built from its table
# (s t + lo): within 6.1e-16 relative of the Cartesian sums on the same
# nodes.  Pinned on the correctly rounded Gauss-Legendre rules of
# ``geometry._leggauss``; on numpy's leggauss five of the seven differed
# in their last bits (the ball interior value by 6.8e-15 relative).  The
# star, disk near exterior and ball values but "disk interior" and "disk
# far" are the flux rays' (``geometry._flux_rays``), one ray set on the
# nodes of the graded boundary rule: "star interior" moved by one ulp when
# the rule's two halves were first joined in one set, and "disk near
# exterior" replaced the disk's chord value.  The two ball values are
# within 3.1e-16 relative of their Cartesian sums; at this N = 12 they
# are 8.3e-9 and 6.3e-6 off the N = 64 values.  The two star values sum
# the 2D screened kernel's K0 series factored along the rays, one small
# matrix product per block (``_bessel.ray_series``).  By design these
# pins check the bits of one platform: the 80-bit long double last step
# of ``geometry._leggauss`` and the BLAS kernels of the sums and of that
# product.  With the last step in double, or another BLAS kernel, they
# may differ in the last bits while the values stay as accurate.
STORED_VALUES = {
    "disk interior": "-0x1.1342719ee8f28p-3",
    "disk near exterior": "-0x1.529ace73a1dc6p-6",
    "disk far": "0x1.9e54ca58f0eb6p-3",
    "star interior": "-0x1.a443438170c2ap-4",
    "star near exterior": "-0x1.5936068fa6de0p-4",
    "ball interior": "-0x1.d37a2f7233927p-6",
    "ball near exterior": "-0x1.774d86e37027ep-5",
}

VALUE_CASES = {
    "disk interior": (laplace_fundamental(2), DISK, BUMP,
                      np.array([0.3, -0.2]), 32),
    "disk near exterior": (laplace_fundamental(2), DISK, X1SQ,
                           np.array([1.0 + 1e-3, 0.0]), 32),
    "disk far": (laplace_fundamental(2), DISK, BUMP, np.array([2.5, 0.5]),
                 32),
    "star interior": (helmholtz_fundamental(2, 1.0), STAR, BUMP,
                      _star_point(0.6, -1e-3), 32),
    "star near exterior": (helmholtz_fundamental(2, 1.0), STAR, X1SQ,
                           _star_point(0.6, 1e-3), 32),
    "ball interior": (_kernels(3)["anisotropic"], BALL, X1SQ,
                      (1 - 1e-4) * NB3, 12),
    "ball near exterior": (helmholtz_fundamental(3, 1.0), BALL, BUMP,
                   (1 + 1e-3) * NB3, 12),
}


@pytest.mark.parametrize("label", sorted(STORED_VALUES))
def test_values_keep_their_bits(label):
    fs, domain, f, x, N = VALUE_CASES[label]
    val = volume_potential(fs, domain, f, x, N)
    assert val.real == float.fromhex(STORED_VALUES[label])
    assert val.imag == 0.0


@pytest.mark.parametrize("domain, x", [
    (DISK, np.array([0.3, -0.2])), (DISK, np.array([1.0 + 1e-3, 0.0])),
    (DISK, np.array([2.5, 0.5])), (STAR, _star_point(0.6, 1e-3)),
    (BALL, 0.5 * NB3), (BALL, (1 + 1e-3) * NB3)],
    ids=["disk-interior", "disk-near", "disk-far", "star-near", "ball",
         "ball-near"])
def test_gradient_dtype_follows_density(domain, x):
    N = 12 if domain.dim == 3 else 32
    for fs in _kernels(domain.dim).values():
        g = volume_potential_gradient(fs, domain, BUMP, x, N)
        assert g.dtype == np.float64 and g.shape == (domain.dim,)
        g = volume_potential_gradient(fs, domain, _complex_density, x, N)
        assert g.dtype == np.complex128
        if domain.classify(x) > 0:
            # the Hessian's contract is complex output, as before
            H = volume_potential_hessian(fs, domain, BUMP, x, N)
            assert H.dtype == np.complex128 and not np.any(H.imag)
