"""Streamed node blocks are coordinate-major: the (m, n) nodes of
``RayForm.nodes`` and the offsets of ``potentials._offsets`` are transposed
views of C-contiguous (n, m) buffers, while the public builders hand out
C-contiguous nodes.  Densities and domain functions must give the same
bits on either layout of the same points.
"""

import numpy as np
import pytest

from volpot import (cosine_star, disk, get_preset, make_ball,
                    singular_volume_rule, tabulated_from_csv,
                    write_samples_csv)
from volpot.geometry import _excised_rays, _nearest_point, rule_forms


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _points(n, m=5000, seed=0):
    """(C-contiguous, coordinate-major) copies of the same m points, with
    zeros of both signs among them."""
    y = np.random.default_rng(seed).uniform(-1.5, 1.5, (m, n))
    y[:4] = 0.0
    y[4:8] = -0.0
    return np.ascontiguousarray(y), np.ascontiguousarray(y.T).T


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("density", ["one", "x1", "x1sq", "abs_x1", "cos_k",
                                     "bump"])
def test_presets_are_layout_invariant(n, density):
    f = get_preset(density, k=1.7)
    y, yt = _points(n)
    assert yt.T.flags.c_contiguous
    assert _same_bits(f(y), f(yt))
    assert _same_bits(f.grad(y), f.grad(yt))


def test_tabulated_density_is_layout_invariant(tmp_path):
    table, _ = _points(2, m=300, seed=1)
    path = tmp_path / "f.csv"
    write_samples_csv(path, table, np.cos(3.0 * table[:, 0]) + table[:, 1],
                      header_prefix="y")
    f = tabulated_from_csv(path)
    y, yt = _points(2, m=2000)
    assert _same_bits(f(y), f(yt))


def test_projection_density_is_layout_invariant():
    # the components of the transmission benchmark's negative density
    e = np.array([np.cos(0.7), np.sin(0.7)])
    y, yt = _points(2)
    for ej in e:
        assert _same_bits(ej * (y @ e), ej * (yt @ e))


@pytest.mark.parametrize("dom", [disk(), disk(0.8, (0.1, -0.2)),
                                 cosine_star([1.0, 0.0, 0.0, 0.2]),
                                 make_ball(3, (0.1, 0.0, -0.2), 1.0)],
                         ids=["disk", "shifted-disk", "star", "ball3d"])
def test_radial_gap_is_layout_invariant(dom):
    y, yt = _points(dom.dim)
    assert _same_bits(dom.radial_gap(y), dom.radial_gap(yt))


@pytest.mark.parametrize("dom, x", [
    (cosine_star([1.0, 0.0, 0.0, 0.5]), (1.4, 0.0)),
    (make_ball(3, (0.0, 0.0, 0.0), 1.0), (0.3, -0.2, 0.5))],
    ids=["star-reentry", "ball3d"])
def test_block_nodes_coordinate_major_and_drained_nodes_c(dom, x):
    # the star point's rule is flux rays, one ray set on the nodes of the
    # graded boundary rule; the ball's is the polar rule about x,
    # one ray set too, cut into several blocks
    x = np.asarray(x)
    rays = _excised_rays(dom, x, 16, (0.0,), _nearest_point(dom, x))[0]
    assert len(rays) == 1
    blocks = [form.nodes for form in rule_forms(rays)]
    assert all(y.T.flags.c_contiguous for y in blocks)
    vq = singular_volume_rule(dom, x, 16)
    assert vq.nodes.flags.c_contiguous
    assert _same_bits(vq.nodes, np.concatenate(blocks))
