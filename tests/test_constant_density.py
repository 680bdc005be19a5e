"""A density that declares itself constant (the preset ``one``) is filled
without building nodes, and gives the same bits as the same density given
as a plain callable, which is called on the nodes."""

import numpy as np
import pytest

from volpot import (DensityPreset, NearBoundaryError, VolpotError, anisotropic,
                    cosine_star, disk, get_preset, helmholtz_fundamental,
                    laplace_fundamental, make_ball, principal_fundamental,
                    volume_potential, volume_potential_gradient,
                    volume_potential_hessian, volume_potential_negative)
from volpot import geometry
from volpot.geometry import Domain
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


@pytest.mark.parametrize("dname, label, gap, kname", CASES,
                         ids=[" ".join((c[0], c[1], c[3])) for c in CASES])
def test_constant_preset_matches_plain_callable_bitwise(dname, label, gap,
                                                        kname):
    domain = DOMAINS[dname]
    n = domain.dim
    N = N_OF[n]
    fs = _kernels(n)[kname]
    x = _point(domain, gap)
    fns = [volume_potential, volume_potential_gradient]
    if gap is not None and gap < 0:
        fns.append(volume_potential_hessian)
    for fn in fns:
        assert (_bits(fn(fs, domain, ONE, x, N))
                == _bits(fn(fs, domain, plain_one, x, N))), fn.__name__
    if volume_potential_hessian in fns:
        # an extension that moves Ef(x) off the constant keeps the k1 moment
        def two(y):
            return 2.0 * plain_one(y)
        assert (_bits(volume_potential_hessian(fs, domain, ONE, x, N, two))
                == _bits(volume_potential_hessian(fs, domain, plain_one, x,
                                                  N, two)))
    rest = (X1, X1SQ, X1)[:n]
    got, want = (volume_potential_negative(
        fs, domain, NegativeExponentDensity((f0,) + rest, 1.0, 1.0), x, N)
        for f0 in (ONE, plain_one))
    assert _bits(got) == _bits(want)


def _count_ray_nodes(monkeypatch):
    calls = []
    build = geometry._ray_nodes

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(geometry, "_ray_nodes", counted)
    return calls


@pytest.mark.parametrize("dname, gap", [("disk", -1e-2), ("disk", 1e-3),
                                        ("ball3d", -1e-4), ("ball3d", 1e-3),
                                        ("star", -1e-2)],
                         ids=["disk interior", "disk chord", "ball interior",
                              "ball chord", "star interior"])
def test_constant_density_builds_no_node_where_rays_start_at_x(
        monkeypatch, dname, gap):
    domain = DOMAINS[dname]
    N = N_OF[domain.dim]
    x = _point(domain, gap)
    calls = _count_ray_nodes(monkeypatch)
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
                                        ("star", None), ("star", 1e-3)],
                         ids=["disk far", "ball far", "star far",
                              "star near"])
def test_rays_from_the_centre_still_build_their_offsets(monkeypatch, dname,
                                                        gap):
    domain = DOMAINS[dname]
    calls = _count_ray_nodes(monkeypatch)
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
