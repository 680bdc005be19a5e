"""Volume rules streamed a block of rays at a time.

The potentials reduce every polar rule block by block; the public builders
drain the same ray sets into one VolumeQuadrature.  Sums over the blocks
must agree with np.sum over the drained rule to rounding (1e-13 relative),
and the memory of an evaluation must not grow with the rule.
"""

import tracemalloc

import numpy as np
import pytest

from volpot import (NearBoundaryError, cosine_star, disk, ellipse, get_preset,
                    helmholtz_fundamental, laplace_fundamental, make_ball,
                    volume_potential, volume_potential_gradient,
                    volume_potential_hessian)
from volpot import geometry
from volpot.geometry import (_drain, _excised_rays, _flux_rays,
                             _graded_boundary_rule, _nearest_point,
                             cached_volume_rule,
                             exterior_chord_rule, near_exterior_star_rule,
                             rule_forms, singular_volume_rule)
from volpot.potentials import _offsets, _ray_sums
from volpot.verify import check_integration_by_parts, check_maximal_bound

DISK = disk()
BALL = make_ball(3, [0.0, 0.0, 0.0], 1.0)
STAR = cosine_star([1.0, 0.0, 0.0, 0.2])
FS2 = laplace_fundamental(2)
FS3 = laplace_fundamental(3)
BUMP = get_preset("bump", 2.0)
NB3 = np.array([1.0, 2.0, -2.0]) / 3.0


def _star_point(theta, offset):
    r = float(STAR.rho(np.array(theta))) + offset
    return r * np.array([np.cos(theta), np.sin(theta)])


def _excised(domain, x, N, radii):
    """The excised rules about x (``geometry._excised_rays``) for its
    nearest boundary point."""
    return _excised_rays(domain, x, N, radii, _nearest_point(domain, x))


def _flux(domain, x, N):
    """The flux rays about x on the graded boundary rule about its
    nearest boundary point."""
    graded = _graded_boundary_rule(domain, N, _nearest_point(domain, x))
    return _flux_rays(x, N, graded)[0]


def _rel(a, b):
    return abs(a - b) / abs(b)


def _values(fs, x, nodes):
    return fs.eval(_offsets(x, nodes)) * BUMP(nodes)


def _streamed_and_drained(fs, x, rule):
    blocks = list(rule_forms(rule))
    streamed = sum(rays.c @ _ray_sums(rays, _values(fs, x, rays.nodes))
                   for rays in blocks)
    vq = _drain(rule)
    return len(blocks), streamed, np.sum(_values(fs, x, vq.nodes)
                                         * vq.weights)


# (label, fs, x, ray-set factory): every factory; the flux rays are one
# ray set on the nodes of the graded boundary rule
RULES = [
    ("disk interior", FS2, np.array([0.3, -0.2]),
     lambda x: _excised(DISK, x, 48, (0.0,))[0]),
    ("star interior", FS2, _star_point(0.6, -1e-3),
     lambda x: _excised(STAR, x, 32, (0.0,))[0]),
    ("disk r_min", FS2, np.array([0.2, 0.1]),
     lambda x: _excised(DISK, x, 48, (1e-3,))[0]),
    ("ball interior 1e-4", FS3, (1.0 - 1e-4) * NB3,
     lambda x: _excised(BALL, x, 12, (0.0,))[0]),
    ("disk near exterior", FS2, np.array([1.0 + 1e-3, 0.0]),
     lambda x: _flux(DISK, x, 48)),
    ("ball near exterior", FS3, (1.0 + 1e-3) * NB3,
     lambda x: _flux(BALL, x, 12)),
    ("star near exterior", FS2, _star_point(0.6, 1e-3),
     lambda x: _flux(STAR, x, 32)),
]


@pytest.mark.parametrize("label, fs, x, factory", RULES,
                         ids=[r[0] for r in RULES])
def test_streamed_sum_matches_drained_rule(label, fs, x, factory):
    rule = factory(x)
    assert len(rule) == 1
    n_blocks, streamed, drained = _streamed_and_drained(fs, x, rule)
    assert n_blocks > 1
    assert _rel(streamed, drained) <= 1e-13


def test_block_arrays_stay_below_block_bytes():
    x = (1.0 - 1e-4) * NB3
    rule = _excised(BALL, x, 20, (0.0,))[0]
    sizes = [form.nodes.nbytes for form in rule_forms(rule)]
    assert len(sizes) > 100
    assert max(sizes) < geometry._BLOCK_BYTES


@pytest.mark.parametrize("domain, fs, x, build", [
    (DISK, FS2, np.array([0.3, -0.2]), singular_volume_rule),
    (STAR, FS2, _star_point(0.6, -1e-3), singular_volume_rule),
    (BALL, FS3, (1.0 - 1e-4) * NB3, lambda *a: _drain(_flux(*a))),
    (DISK, FS2, np.array([1.0 + 1e-3, 0.0]),
     lambda *a: _drain(_flux(*a))),
    (BALL, FS3, (1.0 + 1e-3) * NB3, exterior_chord_rule),
    (BALL, FS3, 0.5 * NB3, singular_volume_rule),
    (STAR, FS2, _star_point(0.6, 1e-3), near_exterior_star_rule),
    (DISK, FS2, np.array([2.5, 0.5]), None),
    (BALL, FS3, 3.0 * NB3, None),
], ids=["disk", "star", "ball", "disk-near", "ball-chord", "ball-deep",
        "star-near", "disk-far", "ball-far"])
def test_potentials_match_drained_builders(domain, fs, x, build):
    # points within 0.1 radii of the ball take the flux rays, drained by
    # exterior_chord_rule outside, deeper ones the polar rule of
    # singular_volume_rule; the potentials stream the far (regular) rule a
    # block at a time, and the reference is that rule drained by
    # cached_volume_rule, one array
    N = 12 if domain.dim == 3 else 32
    vq = (build(domain, x, N) if build is not None
          else cached_volume_rule(domain, N))
    z = _offsets(x, vq.nodes)
    fw = BUMP(vq.nodes) * vq.weights
    value = np.sum(fs.eval(z) * fw)
    grad = np.sum(fs.grad(z) * fw[:, None], axis=0)
    assert _rel(volume_potential(fs, domain, BUMP, x, N), value) <= 1e-13
    g = volume_potential_gradient(fs, domain, BUMP, x, N)
    assert np.max(np.abs(g - grad)) <= 1e-13 * np.max(np.abs(grad))


@pytest.mark.parametrize("domain, fs, x", [
    (DISK, FS2, np.array([0.3, -0.2])),
    (STAR, FS2, _star_point(0.6, -1e-3)),
    (BALL, FS3, (1.0 - 1e-3) * NB3),
], ids=["disk", "star", "ball"])
def test_maximal_bound_matches_drained_rule(domain, fs, x):
    # verify sums its excised polar rules a block of rays at a time
    N = 12 if domain.dim == 3 else 32
    rho = [1e-1, 1e-4]
    rep = check_maximal_bound(fs.eval, domain, x[None, :], rho, N=N)
    for r, got in zip(rho, rep.parameters["values"][0]):
        vq = singular_volume_rule(domain, x, N, r_min=r)
        ref = np.sum(fs.eval(_offsets(x, vq.nodes)) * vq.weights)
        assert _rel(got, ref) <= 1e-13


@pytest.mark.parametrize("domain, x", [
    (STAR, _star_point(0.6, -1e-3)),
    (ellipse(2.0, 1.0), np.array([1.2, 0.5])),
    (cosine_star([1.0, 0.0, 0.3]), np.array([0.45, 0.72])),
], ids=["star", "ellipse", "non-convex"])
def test_excised_rules_cast_once_and_keep_their_bits(domain, x, monkeypatch):
    # every excision radius of a point shares one build of the graded
    # boundary rule, and its rays, and the sums over them, keep the bits
    # of a build per radius
    radii = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    build = geometry._graded_boundary_rule
    calls = []

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(geometry, "_graded_boundary_rule", counted)
    rules = _excised(domain, x, 32, radii)
    assert len(calls) == 1
    rep = check_maximal_bound(FS2.eval, domain, x[None, :], radii, N=32)
    assert len(calls) == 2
    for r, rule, got in zip(radii, rules, rep.parameters["values"][0]):
        ref = _excised(domain, x, 32, (r,))[0]
        assert len(rule) == len(ref) == 1
        for a, b in zip(rule, ref):
            for name in ("dirs", "lo", "hi", "wang"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
            assert (a.p, a.n_panels) == (b.p, b.n_panels)
        total = sum(rays.c @ _ray_sums(rays,
                                       FS2.eval(_offsets(x, rays.nodes)))
                    for rays in rule_forms(ref))
        assert got == float(np.real(total))


def test_excised_sums_reject_non_interior_points():
    x = np.array([1.0 + 1e-3, 0.0])
    with pytest.raises(NearBoundaryError):
        check_maximal_bound(FS2.eval, DISK, x[None, :], [1e-2], N=16)
    with pytest.raises(NearBoundaryError):
        check_integration_by_parts(FS2.eval, FS2.grad, DISK, BUMP, BUMP, x,
                                   0, N=16)


@pytest.mark.parametrize("N, delta", [(20, 1e-4), (40, 1e-4), (20, 1e-5),
                                      (40, 1e-5)],
                         ids=["20", "40", "20-1e-05", "40-1e-05"])
def test_ball_near_boundary_memory_does_not_grow_with_N(N, delta):
    # interior offsets 1e-4 and 1e-5 on the flux rays: 245k nodes at N =
    # 20 and 971k at N = 40 at 1e-4, whose (nodes, 3) array alone would
    # take 5.9 MB and 23 MB, with every Gauss-Legendre rule built cold
    x = (1.0 - delta) * NB3
    fs = helmholtz_fundamental(3, 1.0)
    f = get_preset("x1sq")
    geometry._leggauss.cache_clear()
    geometry._gl01.cache_clear()
    for fn in (volume_potential, volume_potential_gradient,
               volume_potential_hessian):
        tracemalloc.start()
        try:
            fn(fs, BALL, f, x, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, (fn.__name__, peak)


@pytest.mark.parametrize("N", [128, 256])
def test_far_point_memory_does_not_grow_with_N(N):
    # the far rule is streamed like every other: at N = 256 its 131k
    # nodes would take 2.1 MB as an (m, 2) array, its weights 1 MB more
    x = np.array([2.5, 0.5])
    for fn in (volume_potential, volume_potential_gradient):
        tracemalloc.start()
        try:
            fn(FS2, DISK, BUMP, x, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, (fn.__name__, peak)
