"""Bounded smooth domains and their quadrature factories.

Two domain kinds: balls in R^2/R^3 and planar star-shaped domains
{r < rho(theta)} about the origin with smooth positive periodic rho.
Boundary rules are trapezoid-based (spectral on smooth data) in 2D and
Gauss-Legendre x trapezoid product rules on the sphere.

Every Gauss-Legendre rule, radial, polar or graded, is ``_leggauss``
(``_gl01`` maps it to [0, 1]): Halley steps on the Legendre recurrence,
O(p) memory and correctly rounded, with no p x p matrix even where the
polar rule near the sphere takes up to 2000 angles.

This module owns every angular grid: ``_circle_grid`` (the trapezoid
circle) and ``_sphere_grid`` (polar angles times the trapezoid azimuth,
about z or a given direction; ``_gl_sphere`` for Gauss-Legendre polar
angles) build them for all rules and for ``verify``.  Layer
integrals on or near the boundary use ``_graded_boundary_rules``, a tuple
of BoundaryQuadratures (the two halves of the 2D parameter window, or one
polar cap on the sphere) that callers sum a rule at a time.

The singularity-adapted volume rule integrates in polar coordinates about
the (interior) evaluation point, with Gauss-Legendre panels geometrically
graded toward the center along each ray.  The radial Jacobian r^{n-1}
tames every kernel of homogeneity down to -(n-1), and log factors are
absorbed by the graded panels; accuracy degrades gracefully (and the
angular resolution is raised automatically) as the point approaches the
boundary.  A companion chord rule covers exterior points near the boundary
of a ball; its chords are graded toward their entry points only down to
the point's distance from the ball (``_chord_levels``).  Exterior points
near a star boundary take the domain's own polar rule about the origin,
whose rays run inward from rho(theta) and so are graded toward it.

Every volume rule is a tuple of ray sets (``RaySet``), all of one shape:
an origin, unit directions, a radial interval [lo, hi] and an angular
weight per ray, and the radial order and panel count shared by the rays,
graded toward lo.  A ray with hi < lo runs inward, its angular weight
negated.  A rule is read a block of rays at a time (``rule_forms``),
so an evaluation never holds a whole 10^5-10^6 node rule.  Blocks come
in two sizes: a block whose radii or nodes a caller may read keeps its
(nodes, n) arrays below ``_BLOCK_BYTES``; a block that a caller reads
one number per ray (a constant density summed from the table moments)
keeps the per-ray arrays it forms below ``_BLOCK_BYTES`` together, and
so holds tens of times more rays (20 times in the 3D ball at N = 20, 54
in the disk at N = 64).  Every block carries its
weights in one factored form, one number per ray times the cached
radial table times r^(n-1) (``RayForm``); its radii and its nodes are
built only where a caller reads them (``RayForm.rn``,
``RayForm.nodes``), and the table's moments let a caller sum a constant
along a ray without either.  Only ``_drain`` multiplies the weights
out, for the public builders (``volume_rule``, ``singular_volume_rule``,
``exterior_chord_rule``, ``near_exterior_star_rule``) that hand callers
every node at once in a VolumeQuadrature.

Streamed blocks are coordinate-major: ``_ray_nodes`` writes the nodes
x + r d into an (n, m) C-contiguous buffer, one contiguous row per
coordinate, and hands out its (m, n) view ``buf.T`` (the 3D direction
grids of ``_cone_dirs`` are filled a column at a time).  numpy broadcasts
and reduces slowly along an innermost axis of length 2 or 3, running one
short inner loop per node; on the transposed view both writes and
reductions such as ``np.sum(y * y, axis=-1)`` run one long loop per
coordinate with the same per-element operations, in the same order, so
the same bits.  The radial nodes and weights are the per-(order, panel
count) tables of ``_radial_tables`` scaled by each ray's span
(``_graded_nodes``); the graded angular windows of the chord and
star-near rules are the same tables scaled by the window's half-width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NearBoundaryError

# Points with |radial gap| below this band count as "on the boundary" and are
# rejected by interior/exterior-only operations.
BOUNDARY_BAND = 1e-9

# Volume rules are reduced, and star rays scanned, a block of rays at a
# time, sized so that every (points, n) float array of a block stays below
# this many bytes: glibc's default mmap threshold is 128 KiB, so block
# temporaries are recycled on the heap instead of being mapped, faulted in
# page by page and unmapped again for every evaluation.
_BLOCK_BYTES = 1 << 17

# Star rays are scanned for boundary crossings at this many points between
# 0 and 2.2 bounding radii before bisection refines them.
RAY_SCAN_POINTS = 256

# make_star2d checks rho > 0 at this many angles, and bounds the radii on a
# grid 64 times finer.
STAR_CHECK_ANGLES = 256


@dataclass(frozen=True, eq=False)
class Domain:
    """Bounded open set with indicator, boundary parametrization and normals.

    ``kind`` is "ball" (any supported dim, arbitrary center) or "star2d"
    (planar, {r < rho(theta)} about the origin).  ``bounding_radius`` is an
    r with closure(Omega) inside the ball B(0, r); ``inscribed_radius`` is
    an r with B(0, r) inside Omega for star2d domains (the radius, about
    the center, for balls).  Instances are immutable and shareable; node
    generation is deterministic given (domain, N, x).
    """

    dim: int
    kind: str
    center: np.ndarray
    radius: float
    rho: object          # callable theta -> rho(theta), star2d only
    drho: object         # callable theta -> rho'(theta), star2d only
    bounding_radius: float
    inscribed_radius: float

    # -- indicator ---------------------------------------------------------

    def radial_gap(self, x):
        """Signed gap: positive inside, negative outside, ~distance scale."""
        x = np.asarray(x, dtype=float)
        if self.kind == "ball":
            return self.radius - np.linalg.norm(x - self.center, axis=-1)
        return self._gap_xy(x[..., 0], x[..., 1])

    def _gap_xy(self, px, py):
        # the star2d gap from separate coordinate arrays;
        # np.linalg.norm over a length-2 axis is sqrt(x0 * x0 + x1 * x1)
        return self.rho(np.arctan2(py, px)) - np.sqrt(px * px + py * py)

    def classify(self, x) -> int:
        """+1 interior, -1 exterior, 0 within the boundary band."""
        gap = float(self.radial_gap(x))
        if abs(gap) <= BOUNDARY_BAND:
            return 0
        return 1 if gap > 0 else -1

    def contains(self, x):
        return self.radial_gap(x) > 0

    def distance_to_boundary(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if self.kind == "ball":
            return abs(self.radius - float(np.linalg.norm(x - self.center)))
        theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
        b = self.boundary_point(theta)
        return float(np.min(np.linalg.norm(b - x[None, :], axis=1)))

    # -- boundary parametrization (2D kinds) -------------------------------

    def boundary_point(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self.kind == "ball" and self.dim == 2:
            e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            return self.center + self.radius * e
        if self.kind == "star2d":
            e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            return self.rho(theta)[..., None] * e
        raise DomainError("boundary_point is defined for 2D domains only")

    def boundary_jacobian(self, theta):
        """Arclength element |gamma'(theta)|."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "ball" and self.dim == 2:
            return np.full(theta.shape, self.radius)
        r = self.rho(theta)
        return np.sqrt(r ** 2 + self.drho(theta) ** 2)

    def boundary_normal(self, theta):
        """Outward unit normal at gamma(theta)."""
        theta = np.asarray(theta, dtype=float)
        e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        if self.kind == "ball" and self.dim == 2:
            return e
        eperp = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
        r = self.rho(theta)
        dr = self.drho(theta)
        nrm = r[..., None] * e - dr[..., None] * eperp
        return nrm / np.linalg.norm(nrm, axis=-1, keepdims=True)

    # -- ray casting --------------------------------------------------------

    def ray_exit(self, x, dirs):
        """Distance from interior x to the boundary along unit directions."""
        x = np.asarray(x, dtype=float)
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        if self.kind == "ball":
            d = x - self.center
            b = dirs @ d
            disc = b * b + (self.radius ** 2 - d @ d)
            if np.any(disc < 0):
                raise DomainError("ray_exit requires an interior point")
            return -b + np.sqrt(disc)
        return self.ray_intervals(x, dirs)[0]

    def ray_intervals(self, x, dirs):
        """Boundary crossings along rays from an interior point.

        Returns (first_exit, extras): the distance to the first boundary
        crossing per ray, plus a flat (ray_index, t_in, t_out) array of the
        further inside-intervals that rays of a non-convex domain re-enter.
        Crossings are bracketed on a ``RAY_SCAN_POINTS`` grid and refined by
        bisection; re-entered slivers thinner than the scan step go unseen,
        so coverage of strongly non-convex domains carries an
        O(RAY_SCAN_POINTS^-2) floor.

        Only scan points in the annulus between the inscribed and the
        bounding circle evaluate the radial gap; the rest are inside or
        outside by the ``inscribed_radius`` and ``bounding_radius``
        invariants.  Rays are scanned in blocks whose scan points, as an
        (points, 2) array, stay below ``_BLOCK_BYTES``, so memory does not
        grow with the ray count.  Points are formed and tested on flat
        coordinate arrays, t dx + x0 and t dy + x1, with the operations of
        ``_ray_nodes`` and ``radial_gap`` and so their bits.  Bisection
        steps every bracket at once; a bracket retires, its ends kept by
        ``np.where``, once its midpoint rounds onto an endpoint, after
        which no step could change it.
        """
        x = np.asarray(x, dtype=float)
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        if self.kind == "ball":
            return self.ray_exit(x, dirs), np.empty((0, 3))
        tmax = 2.2 * self.bounding_radius
        ts = np.linspace(0.0, tmax, RAY_SCAN_POINTS)
        r2_max = self.bounding_radius ** 2
        r2_in = self.inscribed_radius ** 2
        xx = x @ x
        dx, dy = np.ascontiguousarray(dirs.T)
        m = len(dirs)
        step = _rays_per_block(2 * RAY_SCAN_POINTS)
        ray_idx, step_idx, state_lo = [], [], []
        for start in range(0, m, step):
            d = dirs[start:start + step]
            # |x + t d|^2, without forming the points
            q = xx + ts * (2.0 * (d @ x)[:, None] + ts)
            inside = q < r2_in
            ri, si = np.nonzero((q < r2_max) & ~inside)
            t, ri_all = ts[si], ri + start
            inside[ri, si] = self._gap_xy(t * dx[ri_all] + x[0],
                                          t * dy[ri_all] + x[1]) > 0.0
            if not np.all(inside[:, 0]):
                raise DomainError("ray casting requires an interior point")
            # np.nonzero yields row-major order, so crossings are grouped
            # by ray
            r, s = np.nonzero(inside[:, :-1] != inside[:, 1:])
            ray_idx.append(r + start)
            step_idx.append(s)
            state_lo.append(inside[r, s])
        ray_idx = np.concatenate(ray_idx)
        step_idx = np.concatenate(step_idx)
        state_lo = np.concatenate(state_lo)
        lo = ts[step_idx]
        hi = ts[step_idx + 1]
        dx, dy = dx[ray_idx], dy[ray_idx]
        live = np.ones(len(lo), dtype=bool)
        for _ in range(60):
            if not live.any():
                break
            mid = 0.5 * (lo + hi)
            take_lo = (self._gap_xy(mid * dx + x[0], mid * dy + x[1])
                       > 0.0) == state_lo
            settled = (mid == lo) | (mid == hi)
            lo = np.where(live & take_lo, mid, lo)
            hi = np.where(live & ~take_lo, mid, hi)
            live &= ~settled
        cross = 0.5 * (lo + hi)
        bounds = np.searchsorted(ray_idx, np.arange(m + 1))
        first = cross[bounds[:-1]]
        # the remaining crossings of a ray pair up into re-entered
        # intervals: odd ranks within the ray enter, even ranks leave
        rank = np.arange(len(cross)) - bounds[ray_idx]
        enter = np.nonzero(rank % 2 == 1)[0]
        extras = np.column_stack([ray_idx[enter], cross[enter],
                                  cross[enter + 1]])
        return first, extras


def make_ball(n: int, center, R: float) -> Domain:
    """Ball of radius R about ``center`` in dimension n (2 or 3)."""
    if R <= 0:
        raise DomainError("radius must be positive")
    if n not in (2, 3):
        raise DomainError("only dimensions 2 and 3 are supported")
    center = np.array(np.asarray(center, dtype=float)).reshape(n)
    center.setflags(write=False)
    return Domain(n, "ball", center, float(R), None, None,
                  float(R + np.linalg.norm(center)) * 1.0000001, float(R))


def make_star2d(rho, drho=None) -> Domain:
    """Planar domain {r < rho(theta)} with smooth periodic rho > 0.

    ``drho`` is optional; without it the derivative is taken by central
    differences with step 1e-5 (adequate for normals and arclength weights).
    """
    theta = np.linspace(0.0, 2.0 * np.pi, STAR_CHECK_ANGLES, endpoint=False)
    vals = np.asarray(rho(theta), dtype=float)
    if vals.shape != theta.shape:
        raise DomainError("rho must map angle arrays to value arrays")
    if np.any(vals <= 0.0):
        raise DomainError("rho must be strictly positive")
    if drho is None:
        h = 1e-5

        def drho(t, _rho=rho, _h=h):
            return (_rho(t + _h) - _rho(t - _h)) / (2.0 * _h)

    # An extremum of rho between the check angles passes their extreme
    # value by about (dtheta / 2)^2 |rho''| / 2; on this 64x finer grid
    # (which contains the check angles) that stays within the 1e-7 margins
    # of both radii for |rho''| up to ~5 rho.
    fine = rho(np.linspace(0.0, 2.0 * np.pi, 64 * STAR_CHECK_ANGLES,
                           endpoint=False))
    center = np.zeros(2)
    center.setflags(write=False)
    return Domain(2, "star2d", center, float("nan"), rho, drho,
                  float(np.max(fine)) * 1.0000001,
                  float(np.min(fine)) * (1.0 - 1e-7))


def disk(R: float = 1.0, center=(0.0, 0.0)) -> Domain:
    return make_ball(2, center, R)


def ellipse(a: float, b: float) -> Domain:
    """Axis-aligned ellipse via rho(theta) = ab / sqrt(b^2 cos^2 + a^2 sin^2)."""

    def rho(t):
        return a * b / np.sqrt((b * np.cos(t)) ** 2 + (a * np.sin(t)) ** 2)

    def drho(t):
        c, s = np.cos(t), np.sin(t)
        q = (b * c) ** 2 + (a * s) ** 2
        return a * b * (b ** 2 - a ** 2) * c * s / q ** 1.5

    return make_star2d(rho, drho)


def cosine_star(coeffs) -> Domain:
    """Star domain rho(theta) = c0 + sum_k c_k cos(k theta)."""
    coeffs = np.asarray(coeffs, dtype=float)
    # a zero term adds +-0.0, which leaves every sum unchanged
    modes = [(k, c) for k, c in enumerate(coeffs[1:], 1) if c != 0.0]

    def rho(t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, coeffs[0])
        for k, c in modes:
            out = out + c * np.cos(k * t)
        return out

    def drho(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        for k, c in modes:
            out = out - k * c * np.sin(k * t)
        return out

    return make_star2d(rho, drho)


# ---------------------------------------------------------------------------
# quadrature containers


@dataclass(frozen=True, eq=False)
class BoundaryQuadrature:
    nodes: np.ndarray     # (m, n) points on the boundary
    weights: np.ndarray   # (m,) positive, summing to |dOmega|
    normals: np.ndarray   # (m, n) outward unit normals

    def integrate(self, values):
        return np.sum(values * self.weights)


@dataclass(frozen=True, eq=False)
class VolumeQuadrature:
    """Nodes and weights of a volume rule, all of them at once: a drained
    tuple of ray sets (see ``RaySet``)."""

    nodes: np.ndarray     # (m, n) interior points, C-contiguous (streamed
                          # blocks are coordinate-major; ``_drain`` copies)
    weights: np.ndarray   # (m,) positive, summing to |Omega|

    def integrate(self, values):
        return np.sum(values * self.weights)


@dataclass(frozen=True, eq=False)
class RaySet:
    """Rays of a polar volume rule, from which nodes are built on demand.

    Ray i carries the nodes ``center + r dirs[i]`` for r between lo[i]
    and hi[i] on n_panels + 1 Gauss-Legendre panels of order ``p``,
    refined geometrically toward lo: with s = hi - lo, the panels
    [lo + s 2^-(k+1), lo + s 2^-k] for k < n_panels and
    [lo, lo + s 2^-n_panels]; n_panels 0 is one plain panel.  A node's
    weight is its radial weight times s, r^(n-1) and ``wang[i]``.  A ray
    with hi < lo runs inward, graded toward its outer end lo, and carries
    its angular weight negated, so that s wang = |s| |wang| stays
    positive (the star-near rule, graded toward the boundary radius).
    """

    center: np.ndarray    # (n,) origin of the rays
    dirs: np.ndarray      # (M, n) unit directions
    lo: np.ndarray        # (M,) radial interval of each ray, graded
    hi: np.ndarray        # (M,) toward lo
    wang: np.ndarray      # (M,) angular weights, negated where hi < lo
    p: int
    n_panels: int


class RayForm:
    """Factored form of the block of rays i .. j-1 of a RaySet: a node
    weight is c_i wt_j rn_ij^(n-1), with c = s wang one factor per ray for
    the spans s = hi - lo and wt the ``_radial_tables`` weights h w; no
    weight per node is built (``_drain`` multiplies them out).

    ``dirs``, ``span``, ``c``, ``wt`` and the table's ``moments`` are per
    ray or per table.  Everything per node is built on first read: the
    (rays, P) distances ``rn`` = lo + s t of the nodes from the rays'
    origin, for the table's t, and the nodes themselves (``nodes``).  A
    reader that needs only per-ray numbers (a constant density summed
    from the table moments on ``zero_start`` rays, where rn = s t; see
    ``potentials``) builds neither, and reads blocks that ``rule_forms``
    sizes by their per-ray arrays: their radii, had anyone built them,
    would take several times ``_BLOCK_BYTES``."""

    __slots__ = ("_rs", "_lo", "_t", "_rn", "_nodes",
                 "dirs", "span", "c", "wt", "moments", "zero_start")

    def __init__(self, rs, i, j):
        self._rs = rs
        self._lo = rs.lo[i:j]
        self.dirs = rs.dirs[i:j]
        self.span = rs.hi[i:j] - self._lo
        self.c = self.span * rs.wang[i:j]
        self._t, self.wt, self.moments = _radial_tables(rs.p, rs.n_panels)
        # whether the rays start at 0 and are graded toward it: rn = s t
        self.zero_start = not np.count_nonzero(self._lo)
        self._rn = self._nodes = None

    # plain properties that fill a slot on first read: functools'
    # cached_property takes a lock on every read (Python < 3.12)

    @property
    def rn(self):
        if self._rn is None:
            self._rn = _graded_nodes(self._lo, self.span[:, None], self._t)
        return self._rn

    @property
    def nodes(self):
        """The (m, n) nodes, ray-major and coordinate-major in memory: the
        transposed view of a C-contiguous (n, m) buffer (see
        ``_ray_nodes``)."""
        if self._nodes is None:
            self._nodes = _ray_nodes(self._rs.center, self.rn, self.dirs)
        return self._nodes


def _rays_per_block(floats_per_ray):
    """Rays in one block when each ray holds floats_per_ray floats of the
    block's largest array (or arrays), which then stay below
    _BLOCK_BYTES."""
    return max(1, (_BLOCK_BYTES - 1) // (8 * floats_per_ray))


def rule_forms(rule, per_ray=None):
    """Factored forms (``RayForm``) of a tuple of ray sets, a block of rays
    at a time; a block's nodes are built where a caller reads them.

    A block keeps its (nodes, n) arrays below _BLOCK_BYTES, n P floats per
    ray for P nodes per ray, except on the sets rs with ``per_ray(rs)``
    true, which the caller reads one number per ray and builds no radius
    or node of (see ``potentials``): those blocks keep the per-ray arrays
    a reader forms, the directions, k1 of them, the spans, c and the ray
    values, 2 n + 3 floats per ray, below _BLOCK_BYTES together.  Python
    overhead per block, not arithmetic, dominated such sets in node-sized
    blocks.  The blocks depend on the rule and per_ray alone, so sums over
    them are deterministic."""
    for rs in rule:
        m, n = rs.dirs.shape
        if per_ray is not None and per_ray(rs):
            step = _rays_per_block(2 * n + 3)
        else:
            step = _rays_per_block(n * rs.p * (rs.n_panels + 1))
        for i in range(0, m, step):
            yield RayForm(rs, i, min(i + step, m))


def _drain(rule):
    """VolumeQuadrature of a tuple of ray sets, each built as one block,
    with C-contiguous nodes.  The one place where node weights are
    multiplied out: (s wt) r^(n-1) wang for the spans s."""
    nodes, weights = [], []
    for rs in rule:
        form = RayForm(rs, 0, len(rs.lo))
        rw = form.span[:, None] * form.wt
        nodes.append(form.nodes)
        weights.append((rw * form.rn ** (rs.dirs.shape[1] - 1)
                        * rs.wang[:, None]).reshape(-1))
    return VolumeQuadrature(np.ascontiguousarray(np.concatenate(nodes)),
                            np.concatenate(weights))


# Gauss-Legendre rules take O(p) memory and O(p^2) time: no p x p matrix,
# whose eigen-solve (numpy's leggauss) takes O(p^2) memory and O(p^3) time
# where the polar rule near the sphere reaches p = 2000.  They are cached,
# so each order is built once per process, and read-only because every
# caller shares the same arrays.

def _legendre_halley(p, theta):
    """cos(theta), sin(theta), the theta derivatives f1, f2 of f =
    P_p(cos theta) and the Halley step toward its root, in the precision
    of theta.  P_p and P_(p-1) come from the three-term recurrence written
    on the differences d_j = P_j - P_(j-1) in t = cos(theta) - 1 = -2
    sin^2(theta / 2), which keeps them accurate near x = 1, and f2 from
    Legendre's equation."""
    real = theta.dtype.type
    s = np.sin(theta / 2)
    t = -2 * s * s
    P, d, tP = 1 + t, t.copy(), np.empty_like(t)
    for j in range(1, p):
        # (j + 1) d_(j+1) = j d_j + (2j + 1) t P_j
        np.multiply(t, P, out=tP)
        tP *= real(2 * j + 1) / (j + 1)
        d *= real(j) / (j + 1)
        d += tP
        P += d
    ct, st = 1 + t, np.sin(theta)
    f1 = p * (ct * P - (P - d)) / st
    f2 = -f1 * ct / st - p * (p + 1) * P
    r = P / f1
    return ct, st, f1, f2, r / (1 - r * f2 / (2 * f1))


@lru_cache(maxsize=256)
def _leggauss(p):
    """Gauss-Legendre nodes and weights on [-1, 1] (polar angles on the
    sphere), ascending and exactly symmetric, in O(p) memory.

    The nodes x = cos(theta) >= 0 are found by Halley steps in theta
    (``_legendre_halley``) from Tricomi's estimates and mirrored.  Halley
    converges cubically, so after a step below 1e-7 / p theta is exact to
    rounding; one more step, in long double, then gives x and the weights
    2 / f1^2 = 2 sin^2(theta) / (p P_(p-1))^2 at the root by Taylor's
    formula, finer than a double theta resolves: correctly rounded but
    for rare last-bit ties where long double is the 80-bit format, a few
    ulps where it is plain double.  The weights are scaled to sum to 2."""
    k = np.arange(1, (p + 1) // 2 + 1)
    phi = (4 * k - 1) * np.pi / (4 * p + 2)
    theta = phi + (p - 1) / (8.0 * p ** 3) / np.tan(phi)
    for _ in range(8):
        step = _legendre_halley(p, theta)[-1]
        theta -= step
        if p * np.max(np.abs(step)) < 1e-7:
            break
    ct, st, f1, f2, step = _legendre_halley(p, theta.astype(np.longdouble))
    x = ct + step * (st - step * ct / 2)
    w = 2 / (f1 - step * f2) ** 2
    if p % 2:
        x[-1] = 0
    m = p // 2
    w = np.concatenate([w[:m], w[::-1]])
    w *= 2 / np.sum(w)
    z = np.concatenate([-x[:m], x[::-1]]).astype(float)
    w = w.astype(float)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


@lru_cache(maxsize=256)
def _gl01(p):
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    z, w = _leggauss(p)
    u, wu = 0.5 * (z + 1.0), 0.5 * w
    u.setflags(write=False)
    wu.setflags(write=False)
    return u, wu


def _ray_nodes(x, rn, dirs):
    """Nodes x + rn[i, j] dirs[i] of an (M, P) radius array on M rays, as
    an (M * P, n) array, ray-major: the transposed view of a C-contiguous
    (n, M * P) buffer, one contiguous row per coordinate.

    Each row is written with the per-element operations of
    ``x[None, None, :] + rn[:, :, None] * dirs[:, None, :]``, so bitwise
    equal to it."""
    n = dirs.shape[1]
    out = np.empty((n,) + rn.shape)
    for k in range(n):
        np.multiply(rn, dirs[:, k, None], out=out[k])
        out[k] += x[k]
    return out.reshape(n, -1).T


def _cone_dirs(ca, sa, axis, e1, e2, phi):
    """Unit directions ca[i] axis + sa[i] (cos phi[j] e1 + sin phi[j] e2)
    on the (polar, phi) grid, as a C-contiguous (len(ca) * len(phi), 3)
    array; column by column, with the per-element operations of the
    broadcast form."""
    c, s = np.cos(phi), np.sin(phi)
    out = np.empty((len(ca), len(phi), 3))
    for k in range(3):
        np.multiply(sa[:, None], c * e1[k] + s * e2[k], out=out[..., k])
        out[..., k] += (ca * axis[k])[:, None]
    return out.reshape(-1, 3)


def _cross(a, b):
    """a x b for 3-vectors given as sequences of floats, with the products
    and differences of ``np.cross`` and so its bits, at a tenth of its
    cost."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _axis_frame(axis):
    """Unit vectors e1, e2 with (e1, e2, axis) right-handed: e1 along
    axis x e_x (axis x e_y where axis is near e_x), e2 = axis x e1."""
    a = axis.tolist()
    e1 = _cross(a, (1.0, 0.0, 0.0) if abs(a[0]) < 0.9 else (0.0, 1.0, 0.0))
    e1 /= np.linalg.norm(e1)
    return e1, _cross(a, e1.tolist())


def _circle_grid(m):
    """Trapezoid rule on the unit circle: the angles 2 pi k / m, the
    (m, 2) unit directions and the weights 2 pi / m."""
    theta = 2.0 * np.pi * np.arange(m) / m
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return theta, dirs, np.full(m, 2.0 * np.pi / m)


def _sphere_grid(ct, st, wt, nphi, toward=None):
    """Directions, polar-major, and weights of a product rule on the unit
    sphere: polar angles with cosines ct, sines st and weights wt (sine
    Jacobian included) times the nphi-point trapezoid azimuth.  The polar
    axis is z (azimuth 0 along x), or the direction of ``toward`` (z where
    it vanishes) in the frame of ``_axis_frame``."""
    ex, ey, ez = np.eye(3)
    if toward is None:
        axis, e1, e2 = ez, ex, ey
    else:
        r = np.linalg.norm(toward)
        axis = toward / r if r > 1e-14 else ez
        e1, e2 = _axis_frame(axis)
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    return (_cone_dirs(ct, st, axis, e1, e2, phi),
            np.repeat(wt, nphi) * (2.0 * np.pi / nphi))


def _gl_sphere(nt, nphi, toward=None):
    """``_sphere_grid`` with nt Gauss-Legendre nodes in cos(polar angle)."""
    mu, wmu = _leggauss(nt)
    return _sphere_grid(mu, np.sqrt(1.0 - mu ** 2), wmu, nphi, toward)


def _radial_order(N):
    return max(3, 2 + N // 8)


def _radial_panel_count(N):
    return max(12, min(26, 6 + 2 * int(np.log2(max(N, 2)))))


@lru_cache(maxsize=256)
def _radial_tables(p, n_panels):
    """Flat (K p,) tables of the graded radial rule on [0, 1], K =
    n_panels + 1, panel k's p entries in order: the nodes t = a + h u and
    the weights wt = h w, with h = 2^-(k+1) and start a = h (h = 2^-k and
    a = 0 on the last panel) for the GL rule u, w on [0, 1]; and the
    rule's moments (sum wt, sum t wt, sum t log t wt)."""
    u, w = _gl01(p)
    K = n_panels + 1
    h = 0.5 ** np.arange(1, K + 1)
    h[-1] *= 2.0
    hp = np.repeat(h, p)
    t = np.repeat(np.append(h[:-1], 0.0), p) + hp * np.tile(u, K)
    wt = hp * np.tile(w, K)
    t.setflags(write=False)
    wt.setflags(write=False)
    moments = (np.sum(wt), np.sum(t * wt), np.sum(t * np.log(t) * wt))
    return t, wt, moments


def _graded_nodes(r_lo, span, t):
    """The radii span t (+ r_lo, where some r_lo is nonzero) of a block
    of rays (``RayForm.rn``) for the (M,) starts, the (M, 1) spans and
    the table t, each a contiguous (M, K p) op."""
    nodes = span * t
    if np.count_nonzero(r_lo):
        nodes += r_lo[:, None]
    return nodes


def _angular_count(N, dist, scale, roughness=1.0):
    """Trapezoid node count; raised as the point nears the boundary, where
    the ray-length profile develops a sqrt(dist)-scale feature (steeper on
    wavy boundaries, hence the roughness factor)."""
    base = max(16, 2 * N)
    if dist < 0.08 * scale:
        base = max(base, int(12.0 * roughness
                             / np.sqrt(max(dist, 1e-12) / scale)))
    return min(base, 8000)


def _boundary_roughness(domain):
    if domain.kind == "ball":
        return 1.0
    t = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    slope = np.max(np.abs(domain.drho(t)) / domain.rho(t))
    return float(1.0 + 2.0 * slope)


# ---------------------------------------------------------------------------
# rules as ray sets
#
# Each factory returns a tuple of RaySets; the public builders validate
# their input and drain that tuple into a VolumeQuadrature, while
# potentials consume it a block at a time (``rule_forms``).


def boundary_rule(domain: Domain, N: int) -> BoundaryQuadrature:
    """Boundary quadrature: trapezoid in the curve parameter (2D), or a
    Gauss-Legendre x trapezoid product rule on the sphere."""
    if domain.dim == 2:
        theta, _, w = _circle_grid(max(16, 2 * N))
        return BoundaryQuadrature(domain.boundary_point(theta),
                                  domain.boundary_jacobian(theta) * w,
                                  domain.boundary_normal(theta))
    R, c = domain.radius, domain.center
    nt = max(8, N)
    dirs, w = _gl_sphere(nt, 2 * nt)
    return BoundaryQuadrature(c + R * dirs, w * R ** 2, dirs)


# Grading exponent for the parameter-space substitution around the nearest
# boundary parameter.
GRADING_EXPONENT = 3


def _graded_boundary_rules(domain, x, N):
    """Boundary rules for a layer integral at x on or near the boundary,
    graded with ``GRADING_EXPONENT`` toward the boundary point nearest x:
    in 2D the two halves of the parameter window about the nearest
    parameter, each a rule of its own (callers sum them one at a time);
    on the sphere one polar cap about the axis through x.  A tuple of
    BoundaryQuadratures."""
    u, w = _gl01(max(24, 2 * N))
    s = np.pi * u ** GRADING_EXPONENT
    ws = np.pi * GRADING_EXPONENT * u ** (GRADING_EXPONENT - 1) * w
    if domain.dim == 2:
        theta0 = _nearest_boundary_parameter(domain, x)
        return tuple(BoundaryQuadrature(domain.boundary_point(theta),
                                        domain.boundary_jacobian(theta) * ws,
                                        domain.boundary_normal(theta))
                     for theta in (theta0 + s, theta0 - s))
    R, c = domain.radius, domain.center
    dirs, wts = _sphere_grid(np.cos(s), np.sin(s), ws * np.sin(s),
                             max(16, N), toward=x - c)
    return (BoundaryQuadrature(c[None, :] + R * dirs, wts * R ** 2, dirs),)


def _nearest_boundary_parameter(domain, x):
    if domain.kind == "ball":
        d = x - domain.center
        if np.linalg.norm(d) < 1e-14:
            return 0.0
        return float(np.arctan2(d[1], d[0]))
    theta = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    b = domain.boundary_point(theta)
    i = int(np.argmin(np.linalg.norm(b - x[None, :], axis=1)))
    lo, hi = theta[i] - 2 * np.pi / 1024, theta[i] + 2 * np.pi / 1024
    for _ in range(40):  # golden-section-free trisection refinement
        t = np.linspace(lo, hi, 5)
        b = domain.boundary_point(t)
        j = int(np.argmin(np.linalg.norm(b - x[None, :], axis=1)))
        lo, hi = t[max(j - 1, 0)], t[min(j + 1, 4)]
    return float(0.5 * (lo + hi))


def _regular_rays(domain, N):
    """Polar product rule about the centre for smooth integrands: one plain
    GL panel of order N per ray, trapezoid angles (2D) or GL x trapezoid
    (3D ball)."""
    if domain.dim == 2:
        theta, dirs, wang = _circle_grid(max(16, 2 * N))
        rmax = (np.full(len(theta), domain.radius) if domain.kind == "ball"
                else domain.rho(theta))
    else:
        dirs, wang = _gl_sphere(max(8, N // 2), max(8, N))
        rmax = np.full(len(dirs), domain.radius)
    return (RaySet(domain.center, dirs, np.zeros(len(dirs)), rmax, wang, N,
                   0),)


def volume_rule(domain: Domain, N: int) -> VolumeQuadrature:
    """Polar-mapped product rule for smooth integrands (GL radial x
    trapezoid angular in 2D; GL x GL x trapezoid for the 3D ball)."""
    return _drain(_regular_rays(domain, N))


def _singular_rays(domain, x, N, dist, r_min=0.0):
    """Rays of the polar rule about the interior point x, at distance dist
    from the boundary, graded toward x (toward the excised sphere of radius
    r_min when r_min > 0)."""
    return _excised_rays(domain, x, N, dist, (r_min,))[0]


def _excised_rays(domain, x, N, dist, radii):
    """``_singular_rays`` for each excision radius in radii, from one ray
    cast: the directions, exits and re-entered intervals do not depend on
    the radius, only the radial starts do.  A list of ray-set tuples."""
    p = _radial_order(N)
    n_panels = _radial_panel_count(N)
    if domain.dim == 2:
        _, dirs, wang = _circle_grid(_angular_count(
            N, dist, domain.bounding_radius, _boundary_roughness(domain)))
    else:
        # 3D ball: axisymmetric ray-length profile about the direction to
        # the center, so align the polar axis with it.
        nt = max(6, N // 2)
        if dist < 0.05 * domain.bounding_radius:
            nt = max(nt, int(6.0 / np.sqrt(max(dist, 1e-12)
                                           / domain.bounding_radius)))
            nt = min(nt, 2000)
        dirs, wang = _gl_sphere(nt, max(8, N), toward=x - domain.center)
    rex, extras = domain.ray_intervals(x, dirs)
    idx = extras[:, 0].astype(int)
    out = []
    for r_min in map(float, radii):
        rays = [RaySet(x, dirs, np.minimum(r_min, rex), rex, wang, p,
                       n_panels)]
        if len(idx):
            # re-entered intervals of rays through non-convex lobes; the
            # kernel is regular there, a few panels suffice.  The angular
            # windows of these lobes have square-root edges that the
            # uniform trapezoid resolves to ~M^{-3/2}, a ~1e-5 coverage
            # floor for near-boundary points of strongly wavy domains
            # (ample for the one-sided transmission limits they serve)
            t_in = np.maximum(extras[:, 1], r_min)
            t_out = np.maximum(extras[:, 2], t_in)
            rays.append(RaySet(x, dirs[idx], t_in, t_out, wang[idx], p, 6))
        out.append(tuple(rays))
    return out


def singular_volume_rule(domain: Domain, x, N: int,
                         r_min: float = 0.0) -> VolumeQuadrature:
    """Volume rule with nodes polar-clustered at the strictly interior
    point ``x``; integrates kernels |x - y|^{-s}, s < n, at high order.

    With ``r_min`` > 0 the ball B(x, r_min) is excised exactly (for
    principal-value and maximal-function experiments).
    """
    x = np.asarray(x, dtype=float)
    if domain.classify(x) <= 0:
        raise NearBoundaryError(
            "singular_volume_rule requires a strictly interior point")
    return _drain(_singular_rays(domain, x, N,
                                 domain.distance_to_boundary(x), r_min))


def _chord_levels(R, dist, p, n_panels):
    """Grading levels of a chord rule at distance dist from a ball of
    radius R: the levels that bring the innermost panel of the longest
    chord, 2R, down to dist (none when dist >= 2R), plus ceil(14 / p) so
    that order-p panels reach rounding there, and at most n_panels."""
    return min(n_panels, max(0, math.ceil(math.log2(2.0 * R / dist)))
               + math.ceil(14 / p))


def _chord_rays(domain, x, N):
    """Rays from the exterior point x toward a ball, chords graded toward
    the entry points down to the distance to the ball (``_chord_levels``),
    over an angular window graded toward both ends."""
    if domain.kind != "ball":
        raise DomainError("exterior chord rule is implemented for balls")
    d = domain.center - x
    rho0 = np.linalg.norm(d)
    R = domain.radius
    if rho0 <= R:
        raise DomainError("exterior rule requires an exterior point")
    beta = np.arcsin(min(R / rho0, 1.0))
    p = _radial_order(N)
    n_panels = _radial_panel_count(N)
    # Angle panels graded toward both ends of the window: near the axis the
    # entry distance (and the kernel) varies on the scale sqrt(dist * R);
    # at the tangent rays the chord mass has a square-root edge.
    t, wt, _ = _radial_tables(p, max(n_panels, 18))
    half, whalf = beta / 2.0 * t, beta / 2.0 * wt
    ang = np.concatenate([half, beta - half])
    wang1 = np.concatenate([whalf, whalf])
    if domain.dim == 2:
        axis = d / rho0
        e1 = np.array([-axis[1], axis[0]])
        phi = np.concatenate([ang, -ang])
        wang = np.concatenate([wang1, wang1])
        dirs = (np.cos(phi)[:, None] * axis[None, :]
                + np.sin(phi)[:, None] * e1[None, :])
        b = rho0 * np.cos(phi)
    else:
        dirs, wang = _sphere_grid(np.cos(ang), np.sin(ang),
                                  wang1 * np.sin(ang), max(8, N), toward=d)
        b = dirs @ d
    disc = np.maximum(b ** 2 - (rho0 ** 2 - R ** 2), 0.0)
    # The kernel's near-singularity sits dist = rho0 - R before each entry
    # point; a graded Gauss-Legendre panel stops gaining accuracy once its
    # width is about that distance (Helsing & Ojala, J. Comput. Phys. 2008),
    # so the chords are graded only that far.
    return (RaySet(x, dirs, b - np.sqrt(disc), b + np.sqrt(disc), wang, p,
                   _chord_levels(R, rho0 - R, p, n_panels)),)


def exterior_chord_rule(domain: Domain, x, N: int) -> VolumeQuadrature:
    """Volume rule for an exterior point near the boundary of a ball: rays
    from x toward the ball, chords graded toward the entry points.  The
    angular window is parametrized with endpoint clustering since the chord
    length vanishes like a square root at the tangent rays."""
    return _drain(_chord_rays(domain, np.asarray(x, dtype=float), N))


def _near_star_rays(domain, x, N):
    """Rays of a star2d domain's own polar coordinates, angles graded toward
    the direction of x, radii graded toward the boundary radius."""
    if domain.kind != "star2d":
        raise DomainError("near_exterior_star_rule requires a star2d domain")
    theta0 = float(np.arctan2(x[1], x[0]))
    p = _radial_order(N)
    n_panels = _radial_panel_count(N)
    t, wt, _ = _radial_tables(p, n_panels)
    half = np.pi * t
    theta = theta0 + np.concatenate([half, -half])
    wtheta = np.concatenate([np.pi * wt, np.pi * wt])
    e = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    # rays run inward from r = rho(theta), graded toward it (where the
    # kernel peaks), so their angular weights are negated (see ``RaySet``)
    return (RaySet(domain.center, e, domain.rho(theta), np.zeros(len(theta)),
                   -wtheta, p, n_panels),)


def near_exterior_star_rule(domain: Domain, x, N: int) -> VolumeQuadrature:
    """Volume rule for an exterior point near a star2d boundary.

    Integrates in the domain's own polar coordinates with angle panels
    graded toward the direction of ``x`` and radial panels graded toward
    the boundary radius, so integrands peaked just outside the wall are
    resolved without ray-window geometry."""
    return _drain(_near_star_rays(domain, np.asarray(x, dtype=float), N))


@lru_cache(maxsize=64)
def cached_volume_rule(domain: Domain, N: int) -> VolumeQuadrature:
    return volume_rule(domain, N)


@lru_cache(maxsize=64)
def cached_boundary_rule(domain: Domain, N: int) -> BoundaryQuadrature:
    return boundary_rule(domain, N)
