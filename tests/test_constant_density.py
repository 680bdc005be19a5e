"""A density that declares itself constant (the preset ``one``) is filled
without building nodes, and matches the same density given as a plain
callable, which is called on the nodes: bit for bit where it takes the
per-node path, within the rounding of the sum where the Laplace and
anisotropic kernels sum it per ray from the radial table's moments."""

import tracemalloc

import numpy as np
import pytest

from volpot import (DensityPreset, NearBoundaryError, VolpotError, anisotropic,
                    cosine_star, disk, get_preset, helmholtz_fundamental,
                    laplace_fundamental, make_ball, principal_fundamental,
                    volume_potential, volume_potential_gradient,
                    volume_potential_hessian, volume_potential_negative)
from volpot import geometry
from volpot.geometry import Domain
from volpot.potentials import _Plan, _ray_sums, _rule_blocks
from volpot.schauder import NegativeExponentDensity

ONE = get_preset("one")
X1 = get_preset("x1")
X1SQ = get_preset("x1sq")
STAR = cosine_star([1.0, 0.0, 0.0, 0.2])
DOMAINS = {"disk": disk(), "star": STAR,
           "ball3d": make_ball(3, [0.0, 0.0, 0.0], 1.0)}
# resolution per dimension: the comparison is of bits, not of accuracy
N_OF = {2: 16, 3: 8}
# (label, signed radial gap: negative inside)
POINTS = (("interior 1e-2", -1e-2), ("interior 1e-4", -1e-4),
          ("exterior 1e-3", 1e-3), ("far", None))


def plain_one(y):
    return np.ones(np.asarray(y).shape[0])


def _point(domain, gap):
    """A point at radial gap ``gap`` from the boundary (3 bounding radii
    out for None) along a fixed direction."""
    theta = 0.9
    d = (np.array([1.0, 2.0, -2.0]) / 3.0 if domain.dim == 3
         else np.array([np.cos(theta), np.sin(theta)]))
    if gap is None:
        return 3.0 * domain.bounding_radius * d
    rho = (domain.radius if domain.kind == "ball"
           else float(domain.rho(np.array(theta))))
    return (rho + gap) * d


def _kernels(n):
    return {"laplace": laplace_fundamental(n),
            "anisotropic": principal_fundamental(
                anisotropic(np.diag([4.0, 1.0, 2.0][:n]))),
            "screened": helmholtz_fundamental(n, 1.0)}


def _bits(v):
    v = np.asarray(v)
    return v.dtype, v.shape, v.tobytes()


CASES = [(dname, label, gap, kname)
         for dname in DOMAINS for label, gap in POINTS
         for kname in ("laplace", "anisotropic", "screened")]
EPS = np.finfo(float).eps


def _resummed(fn, domain, gap, kname):
    """Whether the preset one is summed from the radial table's moments
    here (``potentials._per_ray``): the Laplace and anisotropic kernels,
    values where the rays start at x and at r = 0 (the polar rule about an
    interior point, the flux rays of every 2D point near the boundary and
    of every interior star point), gradients wherever the rays start at x
    (also the chord rule of an exterior point near a 3D ball)."""
    if kname == "screened" or gap is None or fn is volume_potential_hessian:
        return False
    if fn is volume_potential_gradient:
        return True
    return gap < 0 or domain.dim == 2


def _resum_bound(fs, domain, x, N, gradient):
    """8 eps sum_i |c_i . ray sum_i| over the rule for x, the ray sums of
    f = 1 taken node by node: the most a change of summation order
    within and across the rays may move the total by."""
    total = 0.0
    rule = _Plan(domain, x, N).volume(domain.classify(x))
    for form, _ in _rule_blocks(x, *rule):
        if gradient:
            w = form.c * _ray_sums(form, np.ones(form.rn.size), False)
            total = total + np.sum(np.abs(w[:, None] * fs.k1(form.dirs)),
                                   axis=0)
        else:
            v = fs.radial_value(form.dirs, form.rn)
            total = total + np.sum(np.abs(form.c * _ray_sums(form, v)))
    return 8.0 * EPS * total


def _matches(got, want, bound=None):
    """Bitwise equal, or within the bound where the sum is re-summed."""
    if bound is None:
        return _bits(got) == _bits(want)
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want)) <= bound))


@pytest.mark.parametrize("dname, label, gap, kname", CASES,
                         ids=[" ".join((c[0], c[1], c[3])) for c in CASES])
def test_constant_preset_matches_plain_callable_bitwise(dname, label, gap,
                                                        kname):
    # bit for bit wherever the preset one takes the per-node path with a
    # broadcast constant (screened kernel, Hessians, far rules, 3D chord
    # values); within the rounding of the re-summation where
    # it is summed per ray from the table moments
    domain = DOMAINS[dname]
    n = domain.dim
    N = N_OF[n]
    fs = _kernels(n)[kname]
    x = _point(domain, gap)
    fns = [volume_potential, volume_potential_gradient]
    if gap is not None and gap < 0:
        fns.append(volume_potential_hessian)
    bounds = {fn: (_resum_bound(fs, domain, x, N,
                                fn is volume_potential_gradient)
                   if _resummed(fn, domain, gap, kname) else None)
              for fn in fns}
    for fn in fns:
        assert _matches(fn(fs, domain, ONE, x, N),
                        fn(fs, domain, plain_one, x, N), bounds[fn]), \
            fn.__name__
    # f0 takes the value's path; the f_j are not constant
    rest = (X1, X1SQ, X1)[:n]
    got, want = (volume_potential_negative(
        fs, domain, NegativeExponentDensity((f0,) + rest, 1.0, 1.0), x, N)
        for f0 in (ONE, plain_one))
    bound = bounds[volume_potential]
    # the boundary and gradient terms are added after the value: a
    # rounding of the total more
    assert _matches(got, want,
                    None if bound is None else bound + 4.0 * EPS * abs(want))


def _count_calls(monkeypatch, name):
    """The list that gets one entry per call of ``geometry.<name>``."""
    calls = []
    build = getattr(geometry, name)

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(geometry, name, counted)
    return calls


@pytest.mark.parametrize("dname, gap", [("disk", -1e-2), ("disk", 1e-3),
                                        ("ball3d", -1e-4), ("ball3d", 1e-3),
                                        ("star", -1e-2), ("star", 1e-3)],
                         ids=["disk interior", "disk near", "ball interior",
                              "ball chord", "star interior", "star near"])
def test_constant_density_builds_no_node_where_rays_start_at_x(
        monkeypatch, dname, gap):
    domain = DOMAINS[dname]
    N = N_OF[domain.dim]
    x = _point(domain, gap)
    calls = _count_calls(monkeypatch, "_ray_nodes")
    for fs in _kernels(domain.dim).values():
        fns = [volume_potential, volume_potential_gradient]
        if gap < 0:
            fns.append(volume_potential_hessian)
        for fn in fns:
            fn(fs, domain, ONE, x, N)
            assert not calls, (fs.kind, fn.__name__)
            fn(fs, domain, plain_one, x, N)
            assert calls, (fs.kind, fn.__name__)
            calls.clear()


@pytest.mark.parametrize("dname, gap", [("disk", None), ("ball3d", None),
                                        ("star", None)],
                         ids=["disk far", "ball far", "star far"])
def test_rays_from_the_centre_still_build_their_offsets(monkeypatch, dname,
                                                        gap):
    domain = DOMAINS[dname]
    calls = _count_calls(monkeypatch, "_ray_nodes")
    volume_potential(laplace_fundamental(domain.dim), domain, ONE,
                     _point(domain, gap), N_OF[domain.dim])
    assert calls


@pytest.mark.parametrize("kind", ["laplace", "screened"])
def test_constant_hessian_checks_its_point_once(monkeypatch, kind):
    ball = DOMAINS["ball3d"]
    fs = _kernels(3)[kind]
    x = _point(ball, -1e-2)
    with pytest.raises(VolpotError, match="N must be at least 4"):
        volume_potential_hessian(fs, ball, ONE, x, 3)
    with pytest.raises(NearBoundaryError, match="interior point"):
        volume_potential_hessian(fs, ball, ONE, _point(ball, 1e-3), 8)
    classified = []
    classify = Domain.classify

    def counted(self, y):
        classified.append(1)
        return classify(self, y)

    monkeypatch.setattr(Domain, "classify", counted)
    for f in (ONE, X1SQ):
        volume_potential_hessian(fs, ball, f, x, 8)
        assert len(classified) == 1, f.name
        classified.clear()


def test_only_one_declares_itself_constant():
    assert ONE.constant == 1.0
    assert all(get_preset(name).constant is None
               for name in ("x1", "x1sq", "abs_x1", "cos_k", "bump"))
    assert DensityPreset("f", plain_one, None).constant is None


@pytest.mark.parametrize("dname, gap", [("disk", -1e-2), ("disk", 1e-3),
                                        ("ball3d", -1e-4), ("ball3d", 1e-3),
                                        ("star", -1e-2), ("star", 1e-3)],
                         ids=["disk interior", "disk near", "ball interior",
                              "ball chord", "star interior", "star near"])
def test_constant_density_builds_no_radius_for_homogeneous_kernels(
        monkeypatch, dname, gap):
    # values on the polar rule and the 2D flux rays (rays from x that
    # start at r = 0) and gradients on every rule whose rays start at x
    # are summed from the table moments: no radius for the Laplace and
    # anisotropic kernels; the screened kernel and a plain callable still
    # build them
    domain = DOMAINS[dname]
    N = N_OF[domain.dim]
    x = _point(domain, gap)
    calls = _count_calls(monkeypatch, "_graded_nodes")
    fns = [volume_potential_gradient] + (
        [volume_potential] if gap < 0 or domain.dim == 2 else [])
    kernels = _kernels(domain.dim)
    for fn in fns:
        for kname in ("laplace", "anisotropic"):
            fn(kernels[kname], domain, ONE, x, N)
            assert not calls, (kname, fn.__name__)
            fn(kernels[kname], domain, plain_one, x, N)
            assert calls, (kname, fn.__name__)
            calls.clear()
        fn(kernels["screened"], domain, ONE, x, N)
        assert calls, fn.__name__
        calls.clear()


# f = 1 with the Laplace kernel: N, u and grad u on the unit disk and ball
CLOSED_FORMS = {
    "disk": (64, lambda x: (x @ x - 1.0) / 4.0, lambda x: x / 2.0),
    "ball3d": (24, lambda x: -(3.0 - x @ x) / 6.0, lambda x: x / 3.0)}


@pytest.mark.parametrize("dname", list(CLOSED_FORMS))
@pytest.mark.parametrize("gap", [None, -1e-2, -1e-4],
                         ids=["centre", "interior 1e-2", "interior 1e-4"])
def test_moment_sums_as_accurate_as_node_sums(dname, gap):
    # the per-ray sums from the table moments against the closed forms: no
    # less accurate than the node-by-node sums of the same rule, up to the
    # rounding of the re-summation (near the disk's boundary u is small
    # against the terms it sums: at the interior 1e-2 point the error moves
    # by 3.3e-17, where 4 eps |u| is 4.4e-18)
    domain = DOMAINS[dname]
    N, u, grad_u = CLOSED_FORMS[dname]
    fs = laplace_fundamental(domain.dim)
    x = np.zeros(domain.dim) if gap is None else _point(domain, gap)
    for fn, exact in ((volume_potential, u(x)),
                      (volume_potential_gradient, grad_u(x))):
        gradient = fn is volume_potential_gradient
        err_new, err_old = (np.abs(np.asarray(fn(fs, domain, f, x, N))
                                   - exact) for f in (ONE, plain_one))
        bound = _resum_bound(fs, domain, x, N, gradient)
        assert np.all(err_new <= err_old + bound), \
            (fn.__name__, err_new, err_old)


# -- blocks sized by what they read ---------------------------------------
#
# A constant density summed per ray reads one number per ray, so its ray
# sets come in blocks sized by their per-ray arrays; every other
# evaluation keeps blocks sized by their nodes.  N as in the benchmarks:
# 20 in the ball, 64 in the disk.

N_BLOCKS = {"disk": 64, "ball3d": 20}


def _record_blocks(monkeypatch):
    """The list that gets (ray set, first ray, end) per RayForm built."""
    blocks = []
    make = geometry.RayForm

    def recorded(rs, i, j):
        blocks.append((rs, i, j))
        return make(rs, i, j)

    monkeypatch.setattr(geometry, "RayForm", recorded)
    return blocks


def _raise(*args):
    raise AssertionError("built a radius or a node")


@pytest.mark.parametrize("dname", list(N_BLOCKS))
def test_per_ray_sums_build_no_node_in_few_blocks(monkeypatch, dname):
    # 132 blocks of 91 rays in the ball and 28 in the disk when the
    # per-ray sets were cut like node blocks
    domain = DOMAINS[dname]
    x = _point(domain, -1e-4)
    monkeypatch.setattr(geometry, "_graded_nodes", _raise)
    monkeypatch.setattr(geometry, "_ray_nodes", _raise)
    blocks = _record_blocks(monkeypatch)
    kernels = _kernels(domain.dim)
    for kname in ("laplace", "anisotropic"):
        for fn in (volume_potential, volume_potential_gradient):
            fn(kernels[kname], domain, ONE, x, N_BLOCKS[dname])
            assert len(blocks) <= (8 if domain.dim == 3 else 1), \
                (kname, fn.__name__, len(blocks))
            blocks.clear()


def test_per_ray_gradient_memory_near_the_sphere():
    # 37,940 rays at 1e-5 inside the ball, in blocks of 1820: the peak is
    # the rule's own per-ray arrays
    ball = DOMAINS["ball3d"]
    fs = laplace_fundamental(3)
    x = _point(ball, -1e-5)
    volume_potential_gradient(fs, ball, ONE, x, 20)
    tracemalloc.start()
    try:
        volume_potential_gradient(fs, ball, ONE, x, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


def _node_blocks(blocks):
    """Whether every block holds the rays of a node-sized block: the
    largest count whose (nodes, n) arrays stay below _BLOCK_BYTES, or the
    rest of its set."""
    for rs, i, j in blocks:
        m, n = rs.dirs.shape
        step = (geometry._BLOCK_BYTES - 1) // (8 * n * rs.p * (rs.n_panels + 1))
        if i % step or j != min(i + step, m):
            return False
    return bool(blocks)


@pytest.mark.parametrize("dname", list(DOMAINS))
def test_node_sums_keep_node_sized_blocks(monkeypatch, dname):
    # non-constant densities with every kernel, and the constant one with
    # the screened kernel, read nodes or radii: their blocks are unchanged
    domain = DOMAINS[dname]
    N = N_OF[domain.dim]
    kernels = _kernels(domain.dim)
    blocks = _record_blocks(monkeypatch)
    cases = [(fs, f) for fs in kernels.values()
             for f in (get_preset("bump", 2.0), X1SQ)]
    cases.append((kernels["screened"], ONE))
    nd = NegativeExponentDensity((X1SQ,) + (X1,) * domain.dim, 1.0, 1.0)
    for label, gap in POINTS:
        x = _point(domain, gap)
        fns = [volume_potential, volume_potential_gradient]
        if gap is not None and gap < 0:
            fns.append(volume_potential_hessian)
        for fs, f in cases:
            for fn in fns:
                fn(fs, domain, f, x, N)
                assert _node_blocks(blocks), (label, fs.kind, f.name,
                                              fn.__name__)
                blocks.clear()
        for fs in kernels.values():
            volume_potential_negative(fs, domain, nd, x, N)
            assert _node_blocks(blocks), (label, fs.kind)
            blocks.clear()
