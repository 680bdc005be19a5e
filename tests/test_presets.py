import tracemalloc

import numpy as np
import pytest

from volpot import presets
from volpot import (disk, get_preset, laplace_fundamental, read_samples_csv,
                    tabulated_from_csv, volume_potential, volume_rule,
                    write_samples_csv)


def test_preset_values_and_gradients():
    y = np.array([[0.3, -0.2], [0.0, 0.5]])
    assert np.allclose(get_preset("one")(y), [1.0, 1.0])
    assert np.allclose(get_preset("x1")(y), [0.3, 0.0])
    assert np.allclose(get_preset("x1sq")(y), [0.09, 0.0])
    assert np.allclose(get_preset("abs_x1")(y), [0.3, 0.0])
    ck = get_preset("cos_k", k=2.0)
    assert np.allclose(ck(y), np.cos(2.0 * y[:, 0]))
    assert np.allclose(ck.grad(y)[:, 0], -2.0 * np.sin(2.0 * y[:, 0]))


def test_unknown_preset():
    with pytest.raises(KeyError):
        get_preset("nope")


def test_samples_csv_roundtrip(tmp_path):
    pts = np.array([[0.1, 0.2], [0.3, -0.4], [-0.5, 0.0]])
    vals = np.array([1.0, -2.5, 0.25])
    path = tmp_path / "cloud.csv"
    write_samples_csv(path, pts, vals)
    assert path.read_text().splitlines()[0] == "x1,x2,value"
    pts2, vals2 = read_samples_csv(path)
    assert np.array_equal(pts, pts2)
    assert np.array_equal(vals, vals2)


def test_tabulated_density_on_quadrature_nodes(tmp_path):
    # tabulate f = 1 on the disk's own quadrature nodes, reuse for a potential
    dom = disk()
    vq = volume_rule(dom, 32)
    path = tmp_path / "density.csv"
    write_samples_csv(path, vq.nodes, np.ones(len(vq.weights)),
                      header_prefix="y")
    assert path.read_text().splitlines()[0] == "y1,y2,value"
    density = tabulated_from_csv(path)
    fs = laplace_fundamental(2)
    val = volume_potential(fs, dom, density, np.zeros(2), 32)
    assert val.real == pytest.approx(-0.25, abs=1e-7)


def _dense_lookup(pts, vals, y):
    d = np.linalg.norm(y[:, None, :] - pts[None, :, :], axis=-1)
    return vals[np.argmin(d, axis=1)]


def test_tabulated_lookup_matches_dense_argmin(tmp_path, monkeypatch):
    # a table with repeated rows (ties keep the first) scanned in chunks of
    # 7 rows, against one argmin over the whole table
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, size=(200, 2))
    pts = np.concatenate([pts, pts[::3], pts[:10]])
    vals = np.arange(len(pts), dtype=float)
    path = tmp_path / "table.csv"
    write_samples_csv(path, pts, vals, header_prefix="y")
    y = np.concatenate([rng.uniform(-1.2, 1.2, size=(300, 2)), pts[::5]])
    monkeypatch.setattr(presets, "_LOOKUP_BYTES", 8 * len(y) * 2 * 7)
    assert np.array_equal(tabulated_from_csv(path)(y),
                          _dense_lookup(pts, vals, y))


def test_tabulated_lookup_memory_bounded(tmp_path):
    # an 8192-row table read at 2048 points: the dense (points, rows, 2)
    # difference array alone would take 268 MB
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1.0, 1.0, size=(8192, 2))
    path = tmp_path / "big.csv"
    write_samples_csv(path, pts, rng.standard_normal(8192), header_prefix="y")
    density = tabulated_from_csv(path)
    y = rng.uniform(-1.0, 1.0, size=(2048, 2))
    tracemalloc.start()
    try:
        density(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak
