"""Bounded smooth domains and their quadrature factories.

Two domain kinds: balls in R^2/R^3 and planar star-shaped domains
{r < rho(theta)} about the origin with smooth positive periodic rho.
Boundary rules are trapezoid-based (spectral on smooth data) in 2D and
Gauss-Legendre x trapezoid product rules on the sphere.

The singularity-adapted volume rule integrates in polar coordinates about
the (interior) evaluation point, with Gauss-Legendre panels geometrically
graded toward the center along each ray.  The radial Jacobian r^{n-1}
tames every kernel of homogeneity down to -(n-1), and log factors are
absorbed by the graded panels; accuracy degrades gracefully (and the
angular resolution is raised automatically) as the point approaches the
boundary.  A companion chord rule covers exterior points near the boundary
of a ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, NearBoundaryError

# Points with |radial gap| below this band count as "on the boundary" and are
# rejected by interior/exterior-only operations.
BOUNDARY_BAND = 1e-9


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
        theta = np.arctan2(x[..., 1], x[..., 0])
        return self.rho(theta) - np.linalg.norm(x, axis=-1)

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

    def outward_normal_at(self, y):
        """Outward unit normal at a boundary point given in coordinates."""
        y = np.asarray(y, dtype=float)
        if self.kind == "ball":
            d = y - self.center
            return d / np.linalg.norm(d, axis=-1, keepdims=True)
        theta = np.arctan2(y[..., 1], y[..., 0])
        return self.boundary_normal(theta)

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

    def ray_intervals(self, x, dirs, n_scan: int = 256):
        """Boundary crossings along rays from an interior point.

        Returns (first_exit, extras): the distance to the first boundary
        crossing per ray, plus a flat (ray_index, t_in, t_out) array of the
        further inside-intervals that rays of a non-convex domain re-enter.
        Crossings are bracketed on an n_scan grid and refined by bisection;
        re-entered slivers thinner than the scan step go unseen, so coverage
        of strongly non-convex domains carries an O(n_scan^-2) floor.
        """
        x = np.asarray(x, dtype=float)
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        if self.kind == "ball":
            return self.ray_exit(x, dirs), np.empty((0, 3))
        tmax = 2.2 * self.bounding_radius
        ts = np.linspace(0.0, tmax, n_scan)
        pts = x[None, None, :] + ts[None, :, None] * dirs[:, None, :]
        inside = self.radial_gap(pts) > 0.0
        if not np.all(inside[:, 0]):
            raise DomainError("ray casting requires an interior point")
        if np.any(inside[:, -1]):
            raise DomainError("ray never leaves the bounding region")
        flips = inside[:, :-1] != inside[:, 1:]
        ray_idx, step_idx = np.nonzero(flips)
        lo = ts[step_idx]
        hi = ts[step_idx + 1]
        state_lo = inside[ray_idx, step_idx]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            pm = x[None, :] + mid[:, None] * dirs[ray_idx]
            mid_inside = self.radial_gap(pm) > 0.0
            take_lo = mid_inside == state_lo
            lo = np.where(take_lo, mid, lo)
            hi = np.where(take_lo, hi, mid)
        cross = 0.5 * (lo + hi)
        m = len(dirs)
        # np.nonzero yields row-major order, so crossings are grouped by ray
        bounds = np.searchsorted(ray_idx, np.arange(m + 1))
        first = cross[bounds[:-1]]
        extras = []
        for i in range(m):
            ci = cross[bounds[i] + 1:bounds[i + 1]]
            # remaining crossings pair up into re-entered intervals
            for t_in, t_out in zip(ci[0::2], ci[1::2]):
                extras.append((i, t_in, t_out))
        extras = (np.asarray(extras, dtype=float) if extras
                  else np.empty((0, 3)))
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
                  float(R + np.linalg.norm(center)) * 1.0000001)


def make_star2d(rho, drho=None, n_check: int = 256) -> Domain:
    """Planar domain {r < rho(theta)} with smooth periodic rho > 0.

    ``drho`` is optional; without it the derivative is taken by central
    differences with step 1e-5 (adequate for normals and arclength weights).
    """
    theta = np.linspace(0.0, 2.0 * np.pi, n_check, endpoint=False)
    vals = np.asarray(rho(theta), dtype=float)
    if vals.shape != theta.shape:
        raise DomainError("rho must map angle arrays to value arrays")
    if np.any(vals <= 0.0):
        raise DomainError("rho must be strictly positive")
    if drho is None:
        h = 1e-5

        def drho(t, _rho=rho, _h=h):
            return (_rho(t + _h) - _rho(t - _h)) / (2.0 * _h)

    center = np.zeros(2)
    center.setflags(write=False)
    return Domain(2, "star2d", center, float("nan"), rho, drho,
                  float(vals.max()) * 1.0000001)


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

    def rho(t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, coeffs[0])
        for k in range(1, len(coeffs)):
            out = out + coeffs[k] * np.cos(k * t)
        return out

    def drho(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        for k in range(1, len(coeffs)):
            out = out - k * coeffs[k] * np.sin(k * t)
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
    nodes: np.ndarray     # (m, n) interior points
    weights: np.ndarray   # (m,) positive, summing to |Omega|

    def integrate(self, values):
        return np.sum(values * self.weights)


# The Gauss-Legendre rules are cached because ``leggauss`` runs an
# eigen-solve, and read-only because every caller shares the same arrays.

@lru_cache(maxsize=256)
def _gl01(p):
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    z, w = leggauss(p)
    u, wu = 0.5 * (z + 1.0), 0.5 * w
    u.setflags(write=False)
    wu.setflags(write=False)
    return u, wu


@lru_cache(maxsize=256)
def _leggauss(p):
    """Gauss-Legendre nodes and weights on [-1, 1] (polar angles on the
    sphere)."""
    z, w = leggauss(p)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


def _radial_order(N):
    return max(3, 2 + N // 8)


def _radial_panel_count(N):
    return max(12, min(26, 6 + 2 * int(np.log2(max(N, 2)))))


def _graded_radial(r_lo, r_hi, p, n_panels):
    """Composite GL nodes/weights on [r_lo, r_hi] per ray, panels refined
    geometrically toward r_lo.  Shapes (M,) -> (M, n_panels*p + p)."""
    u, w = _gl01(p)
    ks = 0.5 ** np.arange(n_panels + 1)
    span = (r_hi - r_lo)[:, None]
    bp = r_lo[:, None] + span * ks[None, :]
    bp = np.concatenate([bp, r_lo[:, None]], axis=1)
    a = bp[:, 1:]
    b = bp[:, :-1]
    nodes = a[:, :, None] + (b - a)[:, :, None] * u[None, None, :]
    wts = (b - a)[:, :, None] * w[None, None, :]
    m = r_lo.shape[0]
    return nodes.reshape(m, -1), wts.reshape(m, -1)


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
# regular rules


def boundary_rule(domain: Domain, N: int) -> BoundaryQuadrature:
    """Boundary quadrature: trapezoid in the curve parameter (2D), or a
    Gauss-Legendre x trapezoid product rule on the sphere."""
    if domain.dim == 2:
        m = max(16, 2 * N)
        theta = 2.0 * np.pi * np.arange(m) / m
        nodes = domain.boundary_point(theta)
        weights = domain.boundary_jacobian(theta) * (2.0 * np.pi / m)
        normals = domain.boundary_normal(theta)
        return BoundaryQuadrature(nodes, weights, normals)
    R, c = domain.radius, domain.center
    nt = max(8, N)
    mu, wmu = _leggauss(nt)
    nphi = 2 * nt
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    st = np.sqrt(1.0 - mu ** 2)
    dirs = np.empty((nt, nphi, 3))
    dirs[..., 0] = st[:, None] * np.cos(phi)[None, :]
    dirs[..., 1] = st[:, None] * np.sin(phi)[None, :]
    dirs[..., 2] = mu[:, None]
    dirs = dirs.reshape(-1, 3)
    weights = np.repeat(wmu, nphi) * (2.0 * np.pi / nphi) * R ** 2
    return BoundaryQuadrature(c + R * dirs, weights, dirs)


def volume_rule(domain: Domain, N: int) -> VolumeQuadrature:
    """Polar-mapped product rule for smooth integrands (GL radial x
    trapezoid angular in 2D; GL x GL x trapezoid for the 3D ball)."""
    if N < 4:
        raise ValueError("N must be at least 4")
    if domain.dim == 2:
        m = max(16, 2 * N)
        theta = 2.0 * np.pi * np.arange(m) / m
        if domain.kind == "ball":
            rmax = np.full(m, domain.radius)
            center = domain.center
        else:
            rmax = domain.rho(theta)
            center = np.zeros(2)
        u, w = _gl01(N)
        rn = rmax[:, None] * u[None, :]
        rw = rmax[:, None] * w[None, :]
        e = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        nodes = center[None, None, :] + rn[:, :, None] * e[:, None, :]
        weights = rw * rn * (2.0 * np.pi / m)
        return VolumeQuadrature(nodes.reshape(-1, 2), weights.reshape(-1))
    R, c = domain.radius, domain.center
    u, w = _gl01(N)
    nt = max(8, N // 2)
    mu, wmu = _leggauss(nt)
    nphi = max(8, N)
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    st = np.sqrt(1.0 - mu ** 2)
    dirs = np.empty((nt, nphi, 3))
    dirs[..., 0] = st[:, None] * np.cos(phi)[None, :]
    dirs[..., 1] = st[:, None] * np.sin(phi)[None, :]
    dirs[..., 2] = mu[:, None]
    dirs = dirs.reshape(-1, 3)
    wang = np.repeat(wmu, nphi) * (2.0 * np.pi / nphi)
    rn = R * u
    rw = R * w
    nodes = c[None, None, :] + rn[None, :, None] * dirs[:, None, :]
    weights = wang[:, None] * rw[None, :] * rn[None, :] ** 2
    return VolumeQuadrature(nodes.reshape(-1, 3), weights.reshape(-1))


# ---------------------------------------------------------------------------
# singularity-adapted rules


def _axis_frame(axis):
    tmp = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array(
        [0.0, 1.0, 0.0])
    e1 = np.cross(axis, tmp)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    return e1, e2


def singular_volume_rule(domain: Domain, x, N: int,
                         r_min: float = 0.0) -> VolumeQuadrature:
    """Volume rule with nodes polar-clustered at the strictly interior
    point ``x``; integrates kernels |x - y|^{-s}, s < n, at high order.

    With ``r_min`` > 0 the ball B(x, r_min) is excised exactly (for
    principal-value and maximal-function experiments).
    """
    x = np.asarray(x, dtype=float)
    cls = domain.classify(x)
    if cls <= 0:
        raise NearBoundaryError(
            "singular_volume_rule requires a strictly interior point")
    dist = domain.distance_to_boundary(x)
    p = _radial_order(N)
    n_panels = _radial_panel_count(N)
    if domain.dim == 2:
        m = _angular_count(N, dist, domain.bounding_radius,
                           _boundary_roughness(domain))
        theta = 2.0 * np.pi * np.arange(m) / m
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        rex, extras = domain.ray_intervals(x, dirs)
        lo = np.minimum(np.full(m, float(r_min)), rex)
        rn, rw = _graded_radial(lo, rex, p, n_panels)
        nodes = x[None, None, :] + rn[:, :, None] * dirs[:, None, :]
        weights = rw * rn * (2.0 * np.pi / m)
        nodes = nodes.reshape(-1, 2)
        weights = weights.reshape(-1)
        if len(extras):
            # re-entered intervals of rays through non-convex lobes; the
            # kernel is regular there, a few panels suffice.  The angular
            # windows of these lobes have square-root edges that the
            # uniform trapezoid resolves to ~M^{-3/2}, a ~1e-5 coverage
            # floor for near-boundary points of strongly wavy domains
            # (ample for the one-sided transmission limits they serve)
            t_in = np.maximum(extras[:, 1], float(r_min))
            t_out = np.maximum(extras[:, 2], t_in)
            rn2, rw2 = _graded_radial(t_in, t_out, p, 6)
            e2 = dirs[extras[:, 0].astype(int)]
            nodes2 = x[None, None, :] + rn2[:, :, None] * e2[:, None, :]
            weights2 = rw2 * rn2 * (2.0 * np.pi / m)
            nodes = np.concatenate([nodes, nodes2.reshape(-1, 2)])
            weights = np.concatenate([weights, weights2.reshape(-1)])
        return VolumeQuadrature(nodes, weights)
    # 3D ball: axisymmetric ray-length profile about the direction to the
    # center, so align the polar axis with it.
    d = x - domain.center
    r0 = np.linalg.norm(d)
    axis = d / r0 if r0 > 1e-14 else np.array([0.0, 0.0, 1.0])
    e1, e2 = _axis_frame(axis)
    nt = max(6, N // 2)
    if dist < 0.05 * domain.bounding_radius:
        nt = max(nt, int(6.0 / np.sqrt(max(dist, 1e-12) / domain.bounding_radius)))
        nt = min(nt, 2000)
    nphi = max(8, N)
    mu, wmu = _leggauss(nt)
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    st = np.sqrt(1.0 - mu ** 2)
    dirs = (mu[:, None, None] * axis[None, None, :]
            + st[:, None, None] * (np.cos(phi)[None, :, None] * e1
                                   + np.sin(phi)[None, :, None] * e2))
    dirs = dirs.reshape(-1, 3)
    wang = np.repeat(wmu, nphi) * (2.0 * np.pi / nphi)
    rex = domain.ray_exit(x, dirs)
    lo = np.minimum(np.full(len(rex), float(r_min)), rex)
    rn, rw = _graded_radial(lo, rex, p, n_panels)
    nodes = x[None, None, :] + rn[:, :, None] * dirs[:, None, :]
    weights = rw * rn ** 2 * wang[:, None]
    return VolumeQuadrature(nodes.reshape(-1, 3), weights.reshape(-1))


def exterior_chord_rule(domain: Domain, x, N: int) -> VolumeQuadrature:
    """Volume rule for an exterior point near the boundary of a ball: rays
    from x toward the ball, chords graded toward the entry points.  The
    angular window is parametrized with endpoint clustering since the chord
    length vanishes like a square root at the tangent rays."""
    if domain.kind != "ball":
        raise DomainError("exterior chord rule is implemented for balls")
    x = np.asarray(x, dtype=float)
    d = domain.center - x
    rho0 = np.linalg.norm(d)
    R = domain.radius
    if rho0 <= R:
        raise DomainError("exterior rule requires an exterior point")
    axis = d / rho0
    beta = np.arcsin(min(R / rho0, 1.0))
    p = _radial_order(N)
    n_panels = _radial_panel_count(N)
    # Angle panels graded toward both ends of the window: near the axis the
    # entry distance (and the kernel) varies on the scale sqrt(dist * R);
    # at the tangent rays the chord mass has a square-root edge.
    half, whalf = _graded_radial(np.zeros(1), np.array([beta / 2.0]), p,
                                 max(n_panels, 18))
    ang = np.concatenate([half[0], beta - half[0]])
    wang1 = np.concatenate([whalf[0], whalf[0]])
    if domain.dim == 2:
        e1 = np.array([-axis[1], axis[0]])
        phi = np.concatenate([ang, -ang])
        wphi = np.concatenate([wang1, wang1])
        dirs = np.cos(phi)[:, None] * axis[None, :] + np.sin(phi)[:, None] * e1[None, :]
        b = rho0 * np.cos(phi)
        disc = np.maximum(b ** 2 - (rho0 ** 2 - R ** 2), 0.0)
        t_in = b - np.sqrt(disc)
        t_out = b + np.sqrt(disc)
        rn, rw = _graded_radial(t_in, t_out, p, n_panels)
        nodes = x[None, None, :] + rn[:, :, None] * dirs[:, None, :]
        weights = rw * rn * wphi[:, None]
        return VolumeQuadrature(nodes.reshape(-1, 2), weights.reshape(-1))
    e1, e2 = _axis_frame(axis)
    psi, wpsi = ang, wang1
    nphi = max(8, N)
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    dirs = (np.cos(psi)[:, None, None] * axis[None, None, :]
            + np.sin(psi)[:, None, None] * (np.cos(phi)[None, :, None] * e1
                                            + np.sin(phi)[None, :, None] * e2))
    dirs = dirs.reshape(-1, 3)
    wang = np.repeat(wpsi * np.sin(psi), nphi) * (2.0 * np.pi / nphi)
    b = dirs @ d
    disc = np.maximum(b ** 2 - (rho0 ** 2 - R ** 2), 0.0)
    t_in = b - np.sqrt(disc)
    t_out = b + np.sqrt(disc)
    rn, rw = _graded_radial(t_in, t_out, p, n_panels)
    nodes = x[None, None, :] + rn[:, :, None] * dirs[:, None, :]
    weights = rw * rn ** 2 * wang[:, None]
    return VolumeQuadrature(nodes.reshape(-1, 3), weights.reshape(-1))


def near_exterior_star_rule(domain: Domain, x, N: int) -> VolumeQuadrature:
    """Volume rule for an exterior point near a star2d boundary.

    Integrates in the domain's own polar coordinates with angle panels
    graded toward the direction of ``x`` and radial panels graded toward
    the boundary radius, so integrands peaked just outside the wall are
    resolved without ray-window geometry."""
    if domain.kind != "star2d":
        raise DomainError("near_exterior_star_rule requires a star2d domain")
    x = np.asarray(x, dtype=float)
    theta0 = float(np.arctan2(x[1], x[0]))
    p = _radial_order(N)
    n_panels = _radial_panel_count(N)
    half, whalf = _graded_radial(np.zeros(1), np.array([np.pi]), p, n_panels)
    theta = theta0 + np.concatenate([half[0], -half[0]])
    wtheta = np.concatenate([whalf[0], whalf[0]])
    rho = domain.rho(theta)
    # grade toward the outer edge r = rho(theta), where the kernel peaks
    rn, rw = _graded_radial(np.zeros(len(theta)), rho, p, n_panels)
    rn = rho[:, None] - rn
    e = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    nodes = rn[:, :, None] * e[:, None, :]
    weights = rw * rn * wtheta[:, None]
    return VolumeQuadrature(nodes.reshape(-1, 2), weights.reshape(-1))


@lru_cache(maxsize=64)
def cached_volume_rule(domain: Domain, N: int) -> VolumeQuadrature:
    return volume_rule(domain, N)


@lru_cache(maxsize=64)
def cached_boundary_rule(domain: Domain, N: int) -> BoundaryQuadrature:
    return boundary_rule(domain, N)
