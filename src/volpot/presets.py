"""Symbolic density presets and CSV-tabulated densities.

Presets carry the value and (where it exists a.e.) the analytic gradient so
that verification checks can differentiate densities without numerical
noise.  Tabulated densities are nearest-node lookups over a sample cloud.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class DensityPreset:
    name: str
    value: object          # callable (m, n) -> (m,)
    grad: object           # callable (m, n) -> (m, n), or None
    # the value of a constant density, None otherwise: the potentials then
    # fill its values without building the nodes it would be called on
    constant: object = None

    def __call__(self, y):
        return self.value(y)


def _one(y):
    return np.ones(np.asarray(y).shape[0])


def _zero_grad(y):
    y = np.asarray(y)
    return np.zeros_like(y)


def _x1(y):
    return np.asarray(y)[:, 0]


def _x1_grad(y):
    g = _zero_grad(y)
    g[:, 0] = 1.0
    return g


def _x1sq(y):
    return np.asarray(y)[:, 0] ** 2


def _x1sq_grad(y):
    g = _zero_grad(y)
    g[:, 0] = 2.0 * np.asarray(y)[:, 0]
    return g


def _abs_x1(y):
    return np.abs(np.asarray(y)[:, 0])


def _abs_x1_grad(y):
    # a.e. derivative; the kink at x1 = 0 is the point of the alpha = 1
    # modulus experiments
    g = _zero_grad(y)
    g[:, 0] = np.sign(np.asarray(y)[:, 0])
    return g


def cos_k(k: float = 1.0) -> DensityPreset:
    def value(y):
        return np.cos(k * np.asarray(y)[:, 0])

    def grad(y):
        g = _zero_grad(y)
        g[:, 0] = -k * np.sin(k * np.asarray(y)[:, 0])
        return g

    return DensityPreset(f"cos_k:{k:g}", value, grad)


def bump(sharpness: float = 2.0) -> DensityPreset:
    """Smooth radial bump exp(-s |y|^2), C^infty on any closure."""

    def value(y):
        y = np.asarray(y)
        return np.exp(-sharpness * np.sum(y * y, axis=-1))

    def grad(y):
        y = np.asarray(y)
        return -2.0 * sharpness * y * value(y)[:, None]

    return DensityPreset(f"bump:{sharpness:g}", value, grad)


_FIXED = {
    "one": DensityPreset("one", _one, _zero_grad, 1.0),
    "x1": DensityPreset("x1", _x1, _x1_grad),
    "x1sq": DensityPreset("x1sq", _x1sq, _x1sq_grad),
    "abs_x1": DensityPreset("abs_x1", _abs_x1, _abs_x1_grad),
}


def get_preset(name: str, k: float = 1.0) -> DensityPreset:
    if name in _FIXED:
        return _FIXED[name]
    if name == "cos_k":
        return cos_k(k)
    if name == "bump":
        return bump(k)
    raise KeyError(f"unknown density preset {name!r}; "
                   f"available: {sorted(_FIXED) + ['cos_k', 'bump']}")


# tabulated_from_csv scans its table in chunks of rows whose (points, rows,
# n) difference array stays near this many bytes
_LOOKUP_BYTES = 1 << 21


def tabulated_from_csv(path) -> DensityPreset:
    """Density tabulated as rows y1,y2[,y3],value; evaluation is a
    nearest-node lookup (adequate when the table was produced on the same
    quadrature nodes it is consumed on).  The table is scanned in chunks of
    rows with a running argmin, so memory does not grow with the table; of
    equally near rows the first wins, as in one argmin over all rows."""
    pts, vals = read_samples_csv(path)

    def value(y):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        m = len(y)
        step = max(1, _LOOKUP_BYTES // (8 * m * y.shape[1]))
        best = np.full(m, np.inf)
        idx = np.zeros(m, dtype=np.intp)
        rows = np.arange(m)
        for i in range(0, len(pts), step):
            d = np.linalg.norm(y[:, None, :] - pts[None, i:i + step, :],
                               axis=-1)
            j = np.argmin(d, axis=1)
            dj = d[rows, j]
            closer = dj < best
            best[closer] = dj[closer]
            idx[closer] = i + j[closer]
        return vals[idx]

    return DensityPreset(f"csv:{path}", value, None)


def read_samples_csv(path):
    """Read a sample cloud CSV with a one-line header and a trailing value
    column; returns (points (m, n), values (m,))."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty sample file")
    body = rows[1:] if not _is_numeric_row(rows[0]) else rows
    data = np.array([[float(c) for c in row] for row in body if row])
    return data[:, :-1], data[:, -1]


def _is_numeric_row(row):
    try:
        [float(c) for c in row]
        return True
    except ValueError:
        return False


def write_samples_csv(path, points, values, header_prefix: str = "x"):
    """Write a sample cloud as `x1,x2[,x3],value` (or y1,... for densities)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.asarray(values)
    n = points.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"{header_prefix}{i + 1}" for i in range(n)] + ["value"])
        for p, v in zip(points, values):
            writer.writerow([f"{c:.17g}" for c in p] + [f"{float(np.real(v)):.17g}"])
