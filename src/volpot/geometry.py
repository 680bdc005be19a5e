"""Bounded smooth domains and their quadrature factories.

Two domain kinds: balls in R^2/R^3 and planar star-shaped domains
{r < rho(theta)} about the origin with smooth positive periodic rho.
Boundary rules are trapezoid-based (spectral on smooth data) in 2D and
Gauss-Legendre x trapezoid product rules on the sphere.

Every Gauss-Legendre rule, radial, polar or graded, is ``_leggauss``
(``_gl01`` maps it to [0, 1]): Halley steps on the Legendre recurrence,
O(p) memory and correctly rounded, with no p x p matrix even where the
polar rule about a point near the sphere (verify's excised sums) takes
up to 2000 angles.

This module owns every angular grid: ``_circle_grid`` (the trapezoid
circle) and ``_sphere_grid`` (polar angles times the trapezoid azimuth,
about z or a given direction; ``_gl_sphere`` for Gauss-Legendre polar
angles) build them for all rules and for ``verify``.  Every 2D boundary
point, arclength element and normal comes from one ``Domain`` method,
``_boundary``.  Layer integrals on or near the boundary use
``_graded_boundary_rule``, one BoundaryQuadrature graded toward the
boundary point nearest x (the parameter window on both sides of its
angle in 2D; on the sphere one polar cap, its angles on dyadic panels
graded down to the distance).  One search,
``_nearest_point``, finds that point and its distance exactly (by a
secant solve on a star domain); the graded rule,
``Domain.distance_to_boundary`` and every near/far switch read it.  The
rule builders take the point and the graded rule as arguments and solve
for nothing themselves: an evaluation's plan (``potentials._Plan``)
solves once and passes them down.

Every volume rule near a point integrates in polar coordinates about it,
along rays with Gauss-Legendre panels geometrically graded toward the
point.  The radial Jacobian r^{n-1} tames every kernel of homogeneity
down to -(n-1), and log factors are absorbed by the graded panels.
- In 2D and 3D alike the rays run from x to the nodes of the graded
  boundary rule (``_flux_rays``), by the divergence theorem in polar form
  about x, with signed angular weights, one ray set per point: the rule
  of every star point (interior at any distance, exterior near the
  boundary) and of every disk or ball point near the boundary on either
  side, with no ray cast and no re-entered interval, and the graded
  boundary rule's accuracy.
- The polar rule about an interior x casts its rays on a fixed angular
  grid, raised automatically as the point approaches the boundary
  (``_angular_count`` in 2D, a 1/sqrt(dist) polar count on the sphere):
  it serves disk and ball points deeper than the near/far switch, and
  verify's excised sums on a disk or a 3D ball (``_excised_rays``).
Exterior points far from the boundary take the regular rule about the
centre.

Every volume rule is a tuple of ray sets (``RaySet``: an origin, unit
directions, a radial interval [lo, hi] graded toward lo and a signed
angular weight per ray), read a block of rays at a time (``rule_forms``
sizes the blocks), so an evaluation never holds a whole 10^5-10^6 node
rule.  Every block carries its weights factored, one number per ray times
the cached radial table of ``_radial_tables`` times r^(n-1) (``RayForm``),
and builds its radii and nodes only where a caller reads them.  Only
``_drain`` multiplies the weights out, for the public builders
(``volume_rule``, ``singular_volume_rule``, ``exterior_chord_rule``,
``near_exterior_star_rule``) that hand callers every node at once in a
VolumeQuadrature.

Streamed blocks are coordinate-major (``_ray_nodes``, ``_cone_dirs``):
numpy broadcasts and reduces slowly along an innermost axis of length 2
or 3, running one short inner loop per node; on the transposed view of
an (n, m) C-contiguous buffer both writes and reductions such as
``np.sum(y * y, axis=-1)`` run one long loop per coordinate with the
same per-element operations, in the same order, so the same bits.
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

# Volume rules are reduced a block of rays at a time, sized so that every
# (points, n) float array of a block stays below this many bytes: glibc's default mmap threshold is 128 KiB, so block
# temporaries are recycled on the heap instead of being mapped, faulted in
# page by page and unmapped again for every evaluation.
_BLOCK_BYTES = 1 << 17

# make_star2d checks rho > 0 at this many angles, and bounds rho on a grid
# 64 times finer.
STAR_CHECK_ANGLES = 256


@dataclass(frozen=True, eq=False)
class Domain:
    """Bounded open set with indicator, boundary parametrization and normals.

    ``kind`` is "ball" (any supported dim, arbitrary center) or "star2d"
    (planar, {r < rho(theta)} about the origin).  ``bounding_radius`` is an
    r with closure(Omega) inside the ball B(0, r).  Instances are immutable
    and shareable; node generation is deterministic given (domain, N, x).
    """

    dim: int
    kind: str
    center: np.ndarray
    radius: float
    rho: object          # callable theta -> rho(theta), star2d only
    drho: object         # callable theta -> rho'(theta), star2d only
    bounding_radius: float

    # -- indicator ---------------------------------------------------------

    def radial_gap(self, x):
        """Signed gap: positive inside, negative outside, ~distance scale."""
        x = np.asarray(x, dtype=float)
        if self.kind == "ball":
            return self.radius - np.linalg.norm(x - self.center, axis=-1)
        # np.linalg.norm over a length-2 axis is sqrt(x0 * x0 + x1 * x1)
        px, py = x[..., 0], x[..., 1]
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
        """Distance to the boundary, exact to rounding (``_nearest_point``)."""
        return _nearest_point(self, np.asarray(x, dtype=float))[1]

    # -- boundary parametrization (2D kinds) -------------------------------

    def _boundary(self, theta):
        """The points gamma(theta), the arclength elements |gamma'(theta)|
        and the outward unit normals at the angles theta, from one cos and
        sin and (on a star domain) one rho and rho' per angle; DomainError
        on the sphere, whose rules take ``_sphere_grid``."""
        if self.dim != 2:
            raise DomainError(
                "the boundary parametrization is defined for 2D domains only")
        theta = np.asarray(theta, dtype=float)
        c, s = np.cos(theta), np.sin(theta)
        e = np.stack([c, s], axis=-1)
        if self.kind == "ball":
            return (self.center + self.radius * e,
                    np.full(theta.shape, self.radius), e)
        r, dr = self.rho(theta), self.drho(theta)
        point = r[..., None] * e
        nrm = point - dr[..., None] * np.stack([-s, c], axis=-1)
        return (point, np.sqrt(r ** 2 + dr ** 2),
                nrm / np.linalg.norm(nrm, axis=-1, keepdims=True))

    def boundary_point(self, theta):
        return self._boundary(theta)[0]

    def boundary_jacobian(self, theta):
        """Arclength element |gamma'(theta)|."""
        return self._boundary(theta)[1]

    def boundary_normal(self, theta):
        """Outward unit normal at gamma(theta)."""
        return self._boundary(theta)[2]

    # -- ray casting (balls) -----------------------------------------------

    def ray_exit(self, x, dirs):
        """Distance from interior x to the sphere along unit directions; a
        ball's method (a star domain's rules cast no ray, DomainError)."""
        if self.kind != "ball":
            raise DomainError("ray casting is defined for balls only")
        x = np.asarray(x, dtype=float)
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        d = x - self.center
        b = dirs @ d
        disc = b * b + (self.radius ** 2 - d @ d)
        if np.any(disc < 0):
            raise DomainError("ray_exit requires an interior point")
        return -b + np.sqrt(disc)

    def ray_intervals(self, x, dirs):
        """(first_exit, extras) along rays from an interior point of a
        ball: ``ray_exit`` and an empty (0, 3) array of re-entered
        intervals; DomainError on a star domain.  No rule calls it; it
        keeps the name that profilers wrap."""
        return self.ray_exit(x, dirs), np.empty((0, 3))


def make_ball(n: int, center, R: float) -> Domain:
    """Ball of radius R about ``center`` in dimension n (2 or 3)."""
    if R <= 0:
        raise DomainError("radius must be positive")
    if n not in (2, 3):
        raise DomainError("only dimensions 2 and 3 are supported")
    center = np.array(np.asarray(center, dtype=float)).reshape(n)
    center.setflags(write=False)
    return Domain(n, "ball", center, float(R), None, None,
                  float(R + np.linalg.norm(center)) * 1.0000001)


def make_star2d(rho, drho) -> Domain:
    """Planar domain {r < rho(theta)} with smooth periodic rho > 0 and its
    derivative drho = rho', which the normals and arclength weights of every
    boundary rule, and so every star volume rule, read."""
    theta = np.linspace(0.0, 2.0 * np.pi, STAR_CHECK_ANGLES, endpoint=False)
    vals = np.asarray(rho(theta), dtype=float)
    if vals.shape != theta.shape:
        raise DomainError("rho must map angle arrays to value arrays")
    if np.any(vals <= 0.0):
        raise DomainError("rho must be strictly positive")
    # A maximum of rho between the check angles passes their largest value
    # by about (dtheta / 2)^2 |rho''| / 2; on this 64x finer grid (which
    # contains the check angles) that stays within the 1e-7 margin for
    # |rho''| up to ~5 rho.
    fine = rho(np.linspace(0.0, 2.0 * np.pi, 64 * STAR_CHECK_ANGLES,
                           endpoint=False))
    center = np.zeros(2)
    center.setflags(write=False)
    return Domain(2, "star2d", center, float("nan"), rho, drho,
                  float(np.max(fine)) * 1.0000001)


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
                          # blocks are coordinate-major)
    weights: np.ndarray   # (m,) summing to |Omega|; signed on the flux rays
                          # (``_flux_rays``)

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
    weight is its radial weight times s, r^(n-1) and ``wang[i]``.  The
    angular weights are signed: the flux rays carry the sign of nu . e
    (``_flux_rays``).  A ray with hi < lo runs inward, graded toward its
    outer end lo, its weights signed by s < 0.
    """

    center: np.ndarray    # (n,) origin of the rays
    dirs: np.ndarray      # (M, n) unit directions
    lo: np.ndarray        # (M,) radial interval of each ray, graded
    hi: np.ndarray        # (M,) toward lo
    wang: np.ndarray      # (M,) signed angular weights
    p: int
    n_panels: int


class RayForm:
    """Factored form of the block of rays i .. j-1 of a RaySet: a node
    weight is c_i wt_j rn_ij^(n-1), with c = s wang one factor per ray for
    the spans s = hi - lo and wt the ``_radial_tables`` weights h w; no
    weight per node is built (``_drain`` multiplies them out).

    ``dirs``, ``span``, ``c``, the table's nodes ``t``, ``wt`` and its
    ``moments`` are per ray or per table.  Everything per node is built on
    first read: the (rays, P) distances ``rn`` = lo + s t of the nodes
    from the rays' origin, and the nodes themselves (``nodes``).  A
    reader that needs only per-ray numbers (a constant density summed
    from the table moments on rays from x, which start at r = 0, where
    rn = s t; see ``potentials``) builds neither, and reads blocks that
    ``rule_forms`` sizes by their per-ray arrays: their radii, had anyone
    built them, would take several times ``_BLOCK_BYTES``."""

    __slots__ = ("_rs", "_lo", "_rn", "_nodes",
                 "dirs", "span", "c", "t", "wt", "moments")

    def __init__(self, rs, i, j):
        self._rs = rs
        self._lo = rs.lo[i:j]
        self.dirs = rs.dirs[i:j]
        self.span = rs.hi[i:j] - self._lo
        self.c = self.span * rs.wang[i:j]
        self.t, self.wt, self.moments = _radial_tables(rs.p, rs.n_panels)
        self._rn = self._nodes = None

    # plain properties that fill a slot on first read: functools'
    # cached_property takes a lock on every read (Python < 3.12)

    @property
    def rn(self):
        if self._rn is None:
            self._rn = _graded_nodes(self._lo, self.span[:, None], self.t)
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


def rule_forms(rule, per_ray=False):
    """Factored forms (``RayForm``) of a tuple of ray sets, a block of rays
    at a time; a block's nodes are built where a caller reads them.

    A block keeps its (nodes, n) arrays below _BLOCK_BYTES, n P floats per
    ray for P nodes per ray, unless ``per_ray``: then the caller reads one
    number per ray and builds no radius or node (see ``potentials``), and
    the blocks keep the per-ray arrays a reader forms, the directions, k1
    of them, the spans, c and the ray values, 2 n + 3 floats per ray,
    below _BLOCK_BYTES together.  Python overhead per block, not
    arithmetic, dominated such rules in node-sized blocks.  The blocks
    depend on the rule and per_ray alone, so sums over them are
    deterministic."""
    for rs in rule:
        m, n = rs.dirs.shape
        step = _rays_per_block(2 * n + 3 if per_ray
                               else n * rs.p * (rs.n_panels + 1))
        for i in range(0, m, step):
            yield RayForm(rs, i, min(i + step, m))


def _drain(rule):
    """VolumeQuadrature of a tuple of ray sets, each built as one block,
    with C-contiguous nodes.  The one place where node weights are
    multiplied out: (s wt) r^(n-1) wang for the spans s.  The nodes
    (``_ray_nodes``) and the weights are written in place into the arrays
    it returns, the weights with the per-element operations of that
    product, so the same bits; besides them only one set's radii are
    alive, so the peak is about (n + 2) / (n + 1) times the rule."""
    forms = [RayForm(rs, 0, len(rs.lo)) for rs in rule]
    sizes = [len(form.span) * len(form.wt) for form in forms]
    n = rule[0].dirs.shape[1]
    nodes = np.empty((sum(sizes), n))
    weights = np.empty(sum(sizes))
    start = 0
    for rs, form, m in zip(rule, forms, sizes):
        rn = _graded_nodes(form._lo, form.span[:, None], form.t)
        block = slice(start, start + m)
        start += m
        _ray_nodes(rs.center, rn, rs.dirs, nodes[block])
        w = weights[block].reshape(rn.shape)
        np.multiply(form.span[:, None], form.wt, out=w)
        if n == 3:
            np.multiply(rn, rn, out=rn)
        w *= rn
        del rn
        w *= rs.wang[:, None]
    return VolumeQuadrature(nodes, weights)


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


def _ray_nodes(x, rn, dirs, out=None):
    """Nodes x + rn[i, j] dirs[i] of an (M, P) radius array on M rays, as
    an (M * P, n) array, ray-major: the transposed view of a C-contiguous
    (n, M * P) buffer, one contiguous row per coordinate; or written into
    ``out``, a C-contiguous (M * P, n) array, and returned (``_drain``).

    Each coordinate is written with the per-element operations of
    ``x[None, None, :] + rn[:, :, None] * dirs[:, None, :]``, so bitwise
    equal to it."""
    n = dirs.shape[1]
    buf = np.empty((n,) + rn.shape) if out is None else None
    for k in range(n):
        col = buf[k] if out is None else out[:, k].reshape(rn.shape)
        np.multiply(rn, dirs[:, k, None], out=col)
        col += x[k]
    return buf.reshape(n, -1).T if out is None else out


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


def _angular_count(N, dist, scale):
    """Trapezoid node count of the polar rule about a point of a disk (a
    deep one, or any interior point of an excised sum); raised as the
    point nears the boundary, where the ray-length profile develops a
    sqrt(dist)-scale feature."""
    base = max(16, 2 * N)
    if dist < 0.08 * scale:
        base = max(base, int(12.0 / np.sqrt(max(dist, 1e-12) / scale)))
    return min(base, 8000)


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
        y, jac, nu = domain._boundary(theta)
        return BoundaryQuadrature(y, jac * w, nu)
    R, c = domain.radius, domain.center
    nt = max(8, N)
    dirs, w = _gl_sphere(nt, 2 * nt)
    return BoundaryQuadrature(c + R * dirs, w * R ** 2, dirs)


# Grading exponent for the parameter-space substitution around the nearest
# boundary parameter (2D).
GRADING_EXPONENT = 3

# Gauss-Legendre order of the dyadic polar panels of the sphere's graded cap.
CAP_ORDER = 12


@lru_cache(maxsize=64)
def _graded_window(N):
    """Offsets s = pi u^GRADING_EXPONENT from the nearest parameter of a
    2D boundary and their weights ws, for the Gauss-Legendre rule u, w of
    order max(24, 2N) on [0, 1]; read-only."""
    u, w = _gl01(max(24, 2 * N))
    s = np.pi * u ** GRADING_EXPONENT
    ws = np.pi * GRADING_EXPONENT * u ** (GRADING_EXPONENT - 1) * w
    s.setflags(write=False)
    ws.setflags(write=False)
    return s, ws


def _cap_levels(R, dist):
    """Dyadic levels of the sphere's graded cap about a point at distance
    dist from the sphere of radius R: enough for the innermost panel, pi R
    2^-levels wide, to be at most dist / 2 (at least one level).  A point
    within ``BOUNDARY_BAND`` of the sphere, where the single layer may be
    read, takes the band's levels."""
    return max(0, math.ceil(math.log2(
        math.pi * R / max(dist, BOUNDARY_BAND * R)))) + 1


def _graded_boundary_rule(domain, N, near):
    """The boundary rule for a layer integral at a point on or near the
    boundary, graded toward its nearest point near = ``_nearest_point``.
    In 2D the parameter window about its angle t0 (``_graded_window``),
    the nodes at t0 + s and then at t0 - s.  On the sphere one polar cap
    about its direction: the polar angles pi t of the order-``CAP_ORDER``
    dyadic panels of ``_radial_tables``, graded down to the distance
    (``_cap_levels``, after Helsing & Ojala, J. Comput. Phys. 2008), times
    max(16, N) azimuths."""
    t0 = near[0]
    if domain.dim == 2:
        s, ws = _graded_window(N)
        if domain.kind == "ball":   # the angle of x - c, 0 at the centre
            t0 = (0.0 if math.hypot(t0[0], t0[1]) < 1e-14
                  else float(np.arctan2(t0[1], t0[0])))
        y, jac, nu = domain._boundary(np.concatenate([t0 + s, t0 - s]))
        return BoundaryQuadrature(y, jac * np.concatenate([ws, ws]), nu)
    R, c = domain.radius, domain.center
    t, wt, _ = _radial_tables(CAP_ORDER, _cap_levels(R, near[1]))
    s = np.pi * t
    dirs, wts = _sphere_grid(np.cos(s), np.sin(s), np.pi * wt * np.sin(s),
                             max(16, N), toward=t0)
    return BoundaryQuadrature(c[None, :] + R * dirs, wts * R ** 2, dirs)


def _star_points(domain, t):
    """The boundary points rho(t) e(t) of a star domain at the angles t
    (no rho', no normal)."""
    return domain.rho(t)[:, None] * np.stack([np.cos(t), np.sin(t)], axis=-1)


@lru_cache(maxsize=64)
def _star_samples(domain):
    """The 1024 equispaced angles of ``_nearest_point``'s samples of a
    star domain's boundary and the points there; cached per domain and
    read-only."""
    theta = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    points = _star_points(domain, theta)
    theta.setflags(write=False)
    points.setflags(write=False)
    return theta, points


def _nearest_point(domain, x):
    """(parameter, distance) of the boundary point nearest x: on a ball
    x - c, whose direction is the point's; on a star domain the angle, from
    the best of 1024 samples (``_star_samples``; the branch near a concave
    lobe) and up to 60 secant steps on g = (gamma - x) . gamma', kept in
    the bracket of the sample's neighbours by bisection, until a step is at
    rounding."""
    if domain.kind == "ball":
        d = x - domain.center
        return d, abs(domain.radius - math.sqrt(d @ d))

    theta, points = _star_samples(domain)
    b = points - x
    i = int(np.argmin(np.sum(b * b, axis=1)))

    def g(t):   # (r e - x) . (r' e + r e_perp) for e = (cos t, sin t)
        t = np.array([t])
        c, s, r = np.cos(t), np.sin(t), domain.rho(t)
        return float((domain.drho(t) * (r - x[0] * c - x[1] * s)
                      - r * (x[1] * c - x[0] * s))[0])

    a, z = theta[i] - theta[1], theta[i] + theta[1]
    t0, g0, t, gt = a, g(a), z, g(z)
    if not g0 <= 0.0 <= gt:     # no sign change: keep the sample
        a = z = t = theta[i]
    for _ in range(60):
        u = t - gt * (t - t0) / (gt - g0) if gt != g0 else a
        if abs(u - t) <= 1e-15 or z - a <= 1e-15:
            break
        t0, g0, t = t, gt, u if a < u < z else 0.5 * (a + z)
        gt = g(t)
        a, z = (a, t) if gt >= 0.0 else (t, z)
    b = _star_points(domain, np.array([t]))[0] - x
    return float(t), float(np.sqrt(b @ b))


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


def _flux_rays(x, N, rule, radii=(0.0,)):
    """The volume rule about any x off the boundary, in 2D or 3D, with
    B(x, r) excised for each r in radii: rays from x to the nodes y of its
    graded boundary rule (``_graded_boundary_rule``), by the divergence
    theorem in polar form about x (the radial integration method, X.-W.
    Gao, Eng. Anal. Bound. Elem. 26, 2002),

        int_Omega g dy = int_dOmega (nu . e) l^(1-n) int_0^l g(x + r e)
                         r^(n-1) dr dsigma(y),  l = |y - x|, e = (y - x) / l.

    The ray to y runs over [min(r, l), l], graded toward its start, with
    the signed angular weight (nu . e) w l^(1-n) for the node's weight w:
    the sign sums rays that leave and re-enter a non-convex domain, and
    the rays of an exterior x, which enter and then leave.  The rule's
    nodes make one ray set, built once for every radius; the arithmetic
    runs a coordinate row at a time, with the per-element operations of
    the row-wise sums (see the module docstring), so the same bits.  A
    list of one-set tuples."""
    nu = rule.normals
    d = (rule.nodes - x).T      # the offsets a coordinate row at a time
    n = len(d)
    ell = d[0] * d[0]
    for k in range(1, n):
        ell += d[k] * d[k]
    ell = np.sqrt(ell)
    e = d / ell
    nu_e = nu[:, 0] * e[0]
    for k in range(1, n):
        nu_e += nu[:, k] * e[k]
    wang = nu_e * rule.weights * ell ** (1 - n)
    p = _radial_order(N)
    n_panels = _radial_panel_count(N)
    return [(RaySet(x, e.T, np.minimum(r_min, ell), ell, wang, p, n_panels),)
            for r_min in map(float, radii)]


def _excised_rays(domain, x, N, radii, near):
    """The volume rule about the interior point x with B(x, r) excised,
    for each r in radii (a list of ray-set tuples), for its nearest
    boundary point near = ``_nearest_point``: the flux rays on a star
    domain, from one graded boundary rule; on a ball the polar rule about
    x, graded toward x (toward the excised sphere), from one ray cast,
    since the directions and the exits do not depend on the radius, only
    the radial starts do.  An evaluation's rule is chosen in
    ``potentials._Plan``; this one serves verify's excised sums at every
    distance (where r exceeds the distance to the boundary the flux rays
    converge only algebraically), ``singular_volume_rule`` and the ball
    points deeper than the near/far switch."""
    if domain.kind == "star2d":
        return _flux_rays(x, N, _graded_boundary_rule(domain, N, near), radii)
    p = _radial_order(N)
    n_panels = _radial_panel_count(N)
    dist = near[1]
    if domain.dim == 2:
        _, dirs, wang = _circle_grid(_angular_count(N, dist,
                                                  domain.bounding_radius))
    else:
        # axisymmetric ray-length profile about the direction to the
        # center, so align the polar axis with it.
        nt = max(6, N // 2)
        if dist < 0.05 * domain.bounding_radius:
            nt = max(nt, int(6.0 / np.sqrt(max(dist, 1e-12)
                                           / domain.bounding_radius)))
            nt = min(nt, 2000)
        dirs, wang = _gl_sphere(nt, max(8, N), toward=x - domain.center)
    rex = domain.ray_exit(x, dirs)
    return [(RaySet(x, dirs, np.minimum(r_min, rex), rex, wang, p, n_panels),)
            for r_min in map(float, radii)]


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
    return _drain(_excised_rays(domain, x, N, (r_min,),
                                _nearest_point(domain, x))[0])


def _near_exterior_rule(domain, x, N, name):
    """The flux rays (``_flux_rays``) about the exterior point x, drained:
    the body of the public near-exterior builders, which check the domain
    kind; NearBoundaryError within the boundary band, DomainError
    inside."""
    x = np.asarray(x, dtype=float)
    cls = domain.classify(x)
    if cls == 0:
        raise NearBoundaryError(f"{name} requires a point off the boundary")
    if cls > 0:
        raise DomainError(f"{name} requires an exterior point")
    rule = _graded_boundary_rule(domain, N, _nearest_point(domain, x))
    return _drain(_flux_rays(x, N, rule)[0])


def exterior_chord_rule(domain: Domain, x, N: int) -> VolumeQuadrature:
    """Volume rule for an exterior point near the boundary of a 3D ball:
    the flux rays from x (``_flux_rays``), drained.  A disk or a star
    domain raises DomainError (a star domain's builder is
    ``near_exterior_star_rule``)."""
    if domain.kind != "ball" or domain.dim != 3:
        raise DomainError("exterior chord rule is implemented for 3D balls")
    return _near_exterior_rule(domain, x, N, "exterior_chord_rule")


def near_exterior_star_rule(domain: Domain, x, N: int) -> VolumeQuadrature:
    """Volume rule for an exterior point near a star2d boundary: the flux
    rays from x (``_flux_rays``), drained."""
    if domain.kind != "star2d":
        raise DomainError("near_exterior_star_rule requires a star2d domain")
    return _near_exterior_rule(domain, x, N, "near_exterior_star_rule")


@lru_cache(maxsize=64)
def cached_volume_rule(domain: Domain, N: int) -> VolumeQuadrature:
    return volume_rule(domain, N)


@lru_cache(maxsize=64)
def cached_boundary_rule(domain: Domain, N: int) -> BoundaryQuadrature:
    return boundary_rule(domain, N)
