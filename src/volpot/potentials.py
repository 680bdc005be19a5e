"""Volume potentials, layer potentials, and the subtraction operator.

The main objects are integrals of a fundamental solution (or of a general
odd homogeneous kernel) against densities on a domain or its boundary:

* volume potential  int_Omega S(x - y) f(y) dy  and its first derivatives;
* second derivatives assembled from the subtraction operator
  G_l[k, psi](x) = int_Omega d_l k(x - y) (psi(y) - psi(x)) dy, the boundary
  kernel operators K[k, mu]^{+/-}, and the integrable remainder of the
  gradient-kernel split;
* the single layer potential, continuous across the boundary, with the
  graded parametric rules of :mod:`volpot.geometry` for on-surface (and
  nearly on-surface) evaluation;
* the volume potential of a density f0 + sum_j d_j f_j given through its
  components, which trades the distributional derivative for a boundary term
  plus differentiated volume terms.

An evaluation makes its choices about its point x once, in its plan
(``_Plan``): the nearest boundary point (one ``_nearest_point`` solve),
near or far (``_far``), the graded boundary rule, its boundary rule and
its volume rule.  Every volume rule near a point is rays from it (see
:mod:`volpot.geometry`): the flux rays to the nodes of the graded
boundary rule, for every point of a star domain and for points within the
near/far switch of a disk or a 3D ball on either side; the polar rule
about an interior point deeper in a disk or a ball.  Far exterior points
take the regular rule about the centre.  Points within 1e-9 of the boundary are rejected; transmission is
tested through one-sided limits (see :mod:`volpot.verify`).

Every grid and rule comes from :mod:`volpot.geometry`.  Every integral
over the boundary seen from a point, layer potentials, the boundary terms
of the component densities and the Hessian's K^+[k1_j, nu_l] alike, goes
through ``_boundary_integral``, one integrand call (an array integrand,
the Hessian's n^2 products, in one pass) on the plan's boundary rule: the
cached plain rule far from the boundary, the graded rule near it.
Volume terms are reduced block by block: the rule for a point is a tuple
of ray sets, and each block of rays is built, run through the kernel and
the density and summed before the next one is built, so memory does not
grow with the node count.  A sum of an integrand of x - y and y over such
blocks (the subtraction operator, and the excised polar rules of
:mod:`volpot.verify`) is ``_rule_sum``.

Every block carries its weights factored, w_ij = c_i wt_j r_ij^(n-1): one
number per ray times the cached radial table (see ``geometry.RayForm``).
No per-node weight is built; a sum over a block is c @ ((v r^(n-1)) @
wt), one BLAS matrix-vector product and one dot (``_ray_sums``), unless
it needs no per-node value at all.  Three paths, picked per block:

* per ray, in closed form (``_per_ray``): a constant density
  (``DensityPreset.constant``, passed as the number itself, see
  ``_density``), a kernel with radial primitives
  (``fs._radial_primitives``) and rays that start at x, which all start
  at r = 0 (the polar rule about an interior x and the flux rays; r = s t
  for the table t).  For the homogeneous kernels (laplace,
  anisotropic-principal) S(r d) = k (log r + log q(d)) in 2D and a(d)/r
  in 3D along such a ray, so the value is sum_i c_i ``fs.ray_value``_i,
  from the table moments M1 = sum t wt and ML = sum t log t wt, and the
  gradient is -f W sum_i c_i k1(d_i), W = sum wt.  For the screened
  kernel in 3D the ray's integrals (1/s) int_0^s h(r) r^2 dr are exact
  (see :mod:`volpot.fundsol`): ``fs.ray_value`` for the value, -f sum_i
  c_i ``fs._ray_gradient``_i d_i for the gradient, and the Hessian's k2
  term f (I sum_i c_i B_i + sum_i c_i A_i d_i d_i^t) from
  ``fs._ray_k2``.  No radius, no node, no kernel call per node: O(rays)
  per block.  These sums are formed
  elementwise and reduced by numpy's pairwise np.sum (``_ray_total``):
  over blocks of thousands of rays a BLAS dot's rounding error grows
  with the length and depends on the BLAS kernel's block order, where
  the pairwise sum's grows with its logarithm.
* per node in polar form, where the rays start at x otherwise (other
  densities, the 2D screened kernel): x - y = -r d (see
  :mod:`volpot.fundsol`).
  - value: v = S f with S(r d) from the radii alone
    (``fs.radial_value``, one log per node for the 2D log kernels);
  - grad: -sum_i c_i (sum_j f_ij wt_j) k1(d_i), the r^(n-1) cancelling
    the singularity exactly; for the screened kernel v = f f'(r) and
    -sum_i d_i c_i sum_j v_ij wt_j r_ij^(n-1);
  - Hessian, k1 part: the weighted k1 moment on the directions with
    weights c_i sum_j wt_j (f_ij - f(x)) / r_ij; screened k2 part:
    I sum w f beta + sum_i d_i d_i^t sum_j w f alpha r^2.
* per node on the offsets: the far rule (rays from the domain's centre)
  runs the kernel on x - y, a call per node.

A block's radii are built only where a path reads them, and its nodes
only for those offsets and for a density that is not constant: a
constant density broadcasts as a number with the bits of a full array.
The Hessian of a constant density skips its k1 moment, whose weights
are all exactly 0, and with the screened 3D kernel reads its k2 term per
ray.

Blocks come in two sizes (``geometry.rule_forms``).  The rays from x
that the per-ray path sums (``_per_ray_sets``) are cut by their per-ray
arrays, a few thousand rays per block, since Python overhead per block,
not arithmetic, bounds them; every other block is cut by its (nodes, n)
arrays, a few dozen to a few hundred rays.  The
per-ray path reads no radius, so a block of it never builds the node
arrays that its size would not bound.

Everything here is a pure function of immutable inputs: batch evaluation
over point grids may run on several threads.  The blocks depend on the
rule and on what is summed over it alone (their sizes are fixed by
``geometry._BLOCK_BYTES``), so results are deterministic; at a BLAS
thread count of one they repeat bit for bit (the golden-test mode).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NearBoundaryError, VolpotError
from .fundsol import FundamentalSolution
from .geometry import (Domain, cached_boundary_rule, rule_forms,
                       _excised_rays, _flux_rays, _graded_boundary_rule,
                       _nearest_point, _regular_rays)
from .schauder import NegativeExponentDensity

# Points closer to the boundary than this fraction of a ball's radius (a
# star domain's bounding radius) take the graded boundary rule, and their
# volume rule is the flux rays on it, on either side (a star domain's
# interior points at any distance too).
NEAR_FRACTION = 0.1


def _far(domain, dist):
    """Whether a point at distance dist from the boundary is far from it."""
    return dist >= NEAR_FRACTION * (domain.radius if domain.kind == "ball"
                                    else domain.bounding_radius)


def _side_class(side):
    """The class (see ``Domain.classify``) of the points on a side: +1 for
    "interior", -1 for "exterior"; any other side raises DomainError."""
    if side not in ("interior", "exterior"):
        raise DomainError(
            f"side must be 'interior' or 'exterior', got {side!r}")
    return 1 if side == "interior" else -1


def _check_dims(domain, fs=None, x=None):
    """x as a float array (None stays None), after checking that the
    kernel fs (None for a bare callable kernel), the domain and the point
    x share one dimension: DomainError otherwise."""
    if fs is not None and fs.dim != domain.dim:
        raise DomainError(f"a {fs.dim}D kernel on a {domain.dim}D domain")
    if x is None:
        return None
    x = np.asarray(x, dtype=float)
    if x.shape != (domain.dim,):
        raise DomainError(f"x must be a point of R^{domain.dim}, "
                          f"got an array of shape {x.shape}")
    return x


def _classify_or_raise(domain, x):
    cls = domain.classify(x)
    if cls == 0:
        raise NearBoundaryError(
            "point is within 1e-9 of the boundary; evaluate one-sided limits "
            "at finite offsets instead")
    return cls


def _offsets(x, nodes):
    """x - y for every node y, as an (m, n) array that is the transposed
    view of a C-contiguous (n, m) buffer, coordinate-major like the nodes
    of a streamed block: bitwise equal to ``x[None, :] - nodes``, one
    contiguous row per coordinate instead of numpy's slow broadcast along
    an innermost axis of length 2 or 3."""
    z = np.empty(nodes.shape[::-1])
    for k in range(nodes.shape[1]):
        np.subtract(x[k], nodes[:, k], out=z[k])
    return z.T


def _density(f, form):
    """The values of the density f on a block's nodes: the number itself
    for a density that declares itself constant (``DensityPreset.constant``),
    without building the nodes (every per-node product broadcasts it with
    the bits of a full array), and f(nodes) for any other."""
    c = getattr(f, "constant", None)
    return np.asarray(f(form.nodes)) if c is None else c


class _Plan:
    """An evaluation's choices about the point x, each made once: its
    nearest boundary point ``near``, whether x is ``far`` from the
    boundary, the graded boundary rule about ``near`` (``graded``, built
    on first read, so at most once), the boundary rule of its layer
    integrals (``boundary``) and its volume rule (``volume``)."""

    def __init__(self, domain, x, N):
        self.domain, self.x, self.N = domain, x, N
        self.near = _nearest_point(domain, x)
        self.far = _far(domain, self.near[1])
        self._graded = None

    @property
    def graded(self):
        if self._graded is None:
            self._graded = _graded_boundary_rule(self.domain, self.N,
                                                 self.near)
        return self._graded

    @property
    def boundary(self):
        """The cached plain boundary rule far from the boundary, the
        graded rule near it, where the plain rule loses the nearly
        singular integrands."""
        return (cached_boundary_rule(self.domain, self.N) if self.far
                else self.graded)

    def volume(self, cls):
        """The volume rule about x, of class cls (``_volume_class``), as a
        tuple of ray sets (see the module docstring), and whether its rays
        start at x: the regular rule far outside, the polar rule about x
        deep in a ball, the flux rays on the graded rule everywhere else.
        Far star points keep the flux rays: the plain rule just past the
        switch is under-resolved."""
        domain, x, N = self.domain, self.x, self.N
        if cls < 0 and self.far:
            return _regular_rays(domain, N), False
        if self.far and domain.kind == "ball":
            return _excised_rays(domain, x, N, (0.0,), self.near)[0], True
        return _flux_rays(x, N, self.graded)[0], True


def _volume_class(domain, x, N):
    """The class of x (see ``Domain.classify``) for a volume evaluation,
    checked before any work: N at least 4, x off the boundary band."""
    if N < 4:
        raise VolpotError(f"N must be at least 4, got {N}")
    return _classify_or_raise(domain, x)


def _rule_blocks(x, rule, at_x, per_ray=False):
    """The blocks of a rule about x, each a pair (form, z): its factored
    form (``geometry.RayForm``) and the offsets z = x - y where the rays
    do not start at x, None where they do (there x - y = -rn d, and
    nothing per node is built unless a reader asks for it).  Rays from x
    summed per ray (``_per_ray_sets``) come in blocks sized by their
    per-ray arrays (``geometry.rule_forms``)."""
    for form in rule_forms(rule, per_ray and at_x):
        yield form, None if at_x else _offsets(x, form.nodes)


def _excised_rules(domain, x, N, radii):
    """The blocks (form, None) (see ``_rule_blocks``) of the polar rules
    about the strictly interior point x with B(x, r) excised, for each r in
    radii, from one ray cast (one build of the graded boundary rule on a
    star domain)."""
    if domain.classify(x) <= 0:
        raise NearBoundaryError(
            "the excised polar rule requires a strictly interior point")
    return [((form, None) for form in rule_forms(rays)) for rays in
            _excised_rays(domain, x, N, radii, _Plan(domain, x, N).near)]


def _rule_sum(x, blocks, integrand):
    """sum of integrand(x - y, y) w over the blocks (form, z) of a rule
    about x, a block at a time; x - y is built where z is None."""
    return sum(form.c @ _ray_sums(form, integrand(
        _offsets(x, form.nodes) if z is None else z, form.nodes))
        for form, z in blocks)


def _ray_sums(form, v, jacobian=True):
    """sum_j v_ij wt_j r_ij^(n-1) along each ray i of a block in factored
    form (``geometry.RayForm``), without the r^(n-1) unless ``jacobian``,
    for the node values v, (m,) or (rays, P): one BLAS matrix-vector
    product.  Times c, they are the sums of v w along the rays."""
    rn = form.rn
    v = np.reshape(v, rn.shape)
    if jacobian:
        v = v * rn
        if form.dirs.shape[1] == 3:
            v *= rn
    return v @ form.wt


def _per_ray(fs, z, f):
    """Whether a block with offsets z (None where its rays start at x) is
    summed against the density values f in closed form, one number per
    ray and nothing per node: f is a constant (see ``_density``), the
    kernel has radial primitives (``fs._radial_primitives``: kappa = 0,
    or the screened kernel in 3D) and the rays start at x."""
    return (z is None and not isinstance(f, np.ndarray)
            and fs._radial_primitives)


def _per_ray_sets(fs, densities):
    """Whether ``_per_ray`` holds on the blocks of rays from x for all of
    the densities: every density constant and the kernel with radial
    primitives.  Every rule about x starts its rays at r = 0, so values,
    gradients and the Hessian's k2 term alike."""
    return fs._radial_primitives and all(
        getattr(f, "constant", None) is not None for f in densities)


def _ray_total(c, v):
    """sum_i c_i v_i over the rays of a block, for v (rays,) or each
    column of v (rays, n): the products formed elementwise and summed by
    numpy's pairwise np.sum, so the bits depend on neither a BLAS
    kernel's block order nor its thread count."""
    if v.ndim == 1:
        return np.sum(c * v)
    return np.array([np.sum(c * v[:, j]) for j in range(v.shape[1])])


def _outer_total(c, d):
    """sum_i c_i d_i d_i^t over the rays of a block, row k the
    ``_ray_total`` of c d[:, k] against d."""
    return np.array([_ray_total(c * d[:, k], d) for k in range(d.shape[1])])


def _value_sum(fs, form, z, f):
    """sum_m S(x - y_m) f_m w_m over one block: for a constant f on rays
    from x (``_per_ray``; they start at r = 0), the pairwise sum of c
    times the per-ray sums of ``fs.ray_value`` (``_ray_total``), from the
    table's moments for kappa = 0 and exact for the screened 3D kernel; elsewhere
    S from the radii alone where the rays start at x (z None), else from
    the offsets z."""
    if _per_ray(fs, z, f):
        _, m1, ml = form.moments
        return f * _ray_total(form.c,
                              fs.ray_value(form.dirs, form.span, m1, ml))
    s = (fs.radial_value(form.dirs, form.rn).reshape(-1)
         if z is None else fs.eval(z))
    return form.c @ _ray_sums(form, s * f)


def _gradient_sum(fs, form, z, f):
    """sum_m grad S(x - y_m) f_m w_m over one block, for f the values of
    one density (see ``_density``) or a list of n of them, the j-th
    weighting d_j S.

    Where the rays start at x (z None) each ray is reduced before any
    kernel call (``_ray_sums``): with s_i = c_i sum_j f_ij wt_j, the k1
    kinds give -sum_i s_i k1(d_i), for a constant f -f W sum_i c_i k1(d_i)
    with the table's W = sum wt (``_per_ray``, ``_ray_total``); the
    screened kernel gives -sum_i d_i c_i sum_j f_ij f'(r_ij) wt_j
    r_ij^(n-1), for a constant f in 3D -f sum_i c_i P_i d_i with
    P_i = (1/s_i) int_0^s_i f'(r) r^2 dr exactly (``fs._ray_gradient``),
    no radius read.  Elsewhere fs.grad runs on the offsets z, and each
    component is summed like a value."""
    dirs, c = form.dirs, form.c
    one = not isinstance(f, list)
    if z is not None:
        g = fs.grad(z)
        f = [f] * g.shape[1] if one else f
        return np.array([c @ _ray_sums(form, g[:, j] * fj)
                         for j, fj in enumerate(f)])
    screened = fs.kappa > 0
    k = dirs if screened else fs.k1(dirs)
    fl = [f] if one else f
    per_ray = [_per_ray(fs, z, fj) for fj in fl]
    if screened:
        # f'(r) at the radii for the densities summed per node, the exact
        # per-ray sums for those summed per ray
        if not all(per_ray):
            g = fs.radial_gradient(form.rn).reshape(-1)
            fl = [fj if pr else g * fj for fj, pr in zip(fl, per_ray)]
        if any(per_ray):
            cg = c * fs._ray_gradient(form.span)

    def ray_sum(fj, kj, pr):
        if pr and screened:
            return fj * _ray_total(cg, kj)
        if pr:
            return fj * form.moments[0] * _ray_total(c, kj)
        return (c * _ray_sums(form, fj, screened)) @ kj

    if one:
        return -ray_sum(fl[0], k, per_ray[0])
    return -np.array([ray_sum(fj, k[:, j], pr)
                      for j, (fj, pr) in enumerate(zip(fl, per_ray))])


def volume_potential(fs: FundamentalSolution, domain: Domain, f, x,
                     N: int = 64) -> complex:
    """int_Omega S(x - y) f(y) dy for bounded f on the closure."""
    x = _check_dims(domain, fs, x)
    cls = _volume_class(domain, x, N)
    blocks = _rule_blocks(x, *_Plan(domain, x, N).volume(cls),
                          _per_ray_sets(fs, (f,)))
    return complex(sum(_value_sum(fs, form, z, _density(f, form))
                       for form, z in blocks))


def volume_potential_gradient(fs: FundamentalSolution, domain: Domain, f, x,
                              N: int = 64) -> np.ndarray:
    """Gradient of the volume potential, int_Omega grad S(x - y) f(y) dy."""
    x = _check_dims(domain, fs, x)
    cls = _volume_class(domain, x, N)
    blocks = _rule_blocks(x, *_Plan(domain, x, N).volume(cls),
                          _per_ray_sets(fs, (f,)))
    return sum(_gradient_sum(fs, form, z, _density(f, form))
               for form, z in blocks)


def radial_extension(domain: Domain, f):
    """Extend f from closure(Omega) to R^n by transporting values along rays
    from the star center, clamped at the boundary (Lipschitz-preserving)."""
    center = domain.center if domain.kind == "ball" else np.zeros(domain.dim)

    def ext(y):
        y = np.asarray(y, dtype=float)
        single = y.ndim == 1
        pts = np.atleast_2d(y)
        d = pts - center[None, :]
        r = np.linalg.norm(d, axis=-1)
        if domain.kind == "ball":
            rb = domain.radius
        else:
            rb = domain.rho(np.arctan2(d[:, 1], d[:, 0]))
        scale = np.where(r > 0, np.minimum(1.0, rb / np.maximum(r, 1e-300)), 1.0)
        clamped = center[None, :] + d * scale[:, None]
        out = np.asarray(f(clamped))
        return out[0] if single else out

    return ext


def subtracted_integral_G(k, psi, l: int, domain: Domain, x, N: int = 64,
                          dk=None) -> complex:
    """G_l[k, psi](x) = int_Omega d_l k(x - y) (psi(y) - psi(x)) dy.

    ``k`` maps points z (m, n) to kernel values; it must be odd and
    positively homogeneous of degree -(n-1) (checked by sampling).  ``dk``,
    if given, maps z to the full gradient (m, n); otherwise the l-th
    derivative is taken by central differences with a relative step.
    The subtraction makes the integrand absolutely integrable, so the
    singularity-clustered rule applies directly; exterior points of the
    bounding ball see a smooth integrand and use the regular rules.
    """
    x = _check_dims(domain, x=x)
    if np.linalg.norm(x) > domain.bounding_radius * (1.0 + 1e-12):
        raise DomainError("x must lie in the closure of the bounding ball")
    _check_odd_homogeneous(k, domain.dim)
    cls = _volume_class(domain, x, N)
    psi_x = psi(x)

    def integrand(z, y):
        if dk is not None:
            dkl = np.asarray(dk(z))[:, l]
        else:
            h = 1e-6 * np.linalg.norm(z, axis=-1)
            step = np.zeros_like(z)
            step[:, l] = h
            dkl = ((np.asarray(k(z + step)) - np.asarray(k(z - step)))
                   / (2.0 * h))
        return dkl * (psi(y) - psi_x)

    blocks = _rule_blocks(x, *_Plan(domain, x, N).volume(cls))
    return complex(_rule_sum(x, blocks, integrand))


def _check_odd_homogeneous(k, n, tol=1e-8):
    rng = np.random.default_rng(7)
    z = rng.standard_normal((8, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    z *= rng.uniform(0.5, 1.5, size=(8, 1))
    v = np.asarray(k(z))
    scale = np.max(np.abs(v)) + 1e-300
    if np.max(np.abs(np.asarray(k(-z)) + v)) > tol * scale:
        raise ValueError("kernel is not odd")
    hom = np.asarray(k(2.0 * z)) * 2.0 ** (n - 1)
    if np.max(np.abs(hom - v)) > tol * scale:
        raise ValueError(f"kernel is not homogeneous of degree -({n}-1)")


def boundary_kernel_K(k, mu, domain: Domain, x, side: str = "interior",
                      N: int = 64) -> complex:
    """K[k, mu](x) = int_dOmega k(x - y) mu(y) dsigma_y for x off the
    boundary; spectrally convergent there.  On-surface extension values are
    out of scope (points in the 1e-9 band are rejected)."""
    x = _check_dims(domain, x=x)
    if _side_class(side) != _classify_or_raise(domain, x):
        raise DomainError(f"point is not on the {side} side")
    return _boundary_integral(
        _Plan(domain, x, N),
        lambda y, nu: np.asarray(k(x[None, :] - y)) * mu(y))


def single_layer(fs: FundamentalSolution, domain: Domain, phi, x,
                 N: int = 64) -> complex:
    """Single layer potential int_dOmega S(x - y) phi(y) dsigma_y.

    Defined on all of R^n.  Off the boundary the plain boundary rule is
    spectrally accurate; on (or within ~10% of the domain scale of) the
    boundary a parameter-space rule graded about the nearest boundary
    parameter handles the log (2D) or |.|^{-1} (3D) singularity at order
    well above 3.
    """
    x = _check_dims(domain, fs, x)
    return _boundary_integral(_Plan(domain, x, N),
                              lambda y, nu: fs.eval(x[None, :] - y) * phi(y))


def _boundary_integral(plan, integrand):
    """The integral over the boundary of integrand(y, nu), which is
    vectorized over boundary points y with outward normals nu along its
    last axis: a Python complex for a value per point, an array of sums
    along that axis for an array of values per point (each row C-contiguous,
    so it sums with the bits of the same row alone).  One integrand call,
    summed on the boundary rule of the plan's point (``_Plan.boundary``)."""
    bq = plan.boundary
    total = np.sum(np.ascontiguousarray(integrand(bq.nodes, bq.normals))
                   * bq.weights, axis=-1)
    return total if np.ndim(total) else complex(total)


def volume_potential_hessian(fs: FundamentalSolution, domain: Domain, f, x,
                             N: int = 64) -> np.ndarray:
    """Second derivatives of the volume potential at a strictly interior x.

    Entry (l, j) is assembled as

        G_l[k_{j,1}, f](x) - f(x) K^+[k_{j,1}, nu_l](x)
        + int_Omega d_l k_{j,2}(x - y) f(y) dy

    with the gradient-kernel split supplied by ``fs``; the remainder term is
    absolutely integrable and uses the same singularity-clustered rule.
    Both volume terms are (n, n) kernel moments, summed block by block
    after a reduction along each ray of the rule about x, polar or flux
    rays (see the module docstring): ``fs.k1_jacobian`` receives the
    block's directions with one weight per ray, and the screened k2 term
    is formed from ``fs.k2_radial``, so no (nodes, n, n) array is formed;
    for a constant density in 3D from ``fs._ray_k2``, one pair per ray.
    K^+ is a boundary integral on the plan's boundary rule
    (``_boundary_integral``), all n^2 entries in one pass: the cached
    boundary rule far from the boundary, the graded rule within 0.1 radii
    of it, where the plain rule loses the nearly singular k1; there the
    flux rays read the same rule.  A real density stays real
    until the result is cast to complex.
    """
    x = _check_dims(domain, fs, x)
    cls = _volume_class(domain, x, N)
    if cls < 0:
        raise NearBoundaryError("Hessian evaluation requires an interior point")
    plan = _Plan(domain, x, N)
    n = domain.dim
    fx = np.asarray(f(x[None, :]))[0]

    screened = fs.kappa > 0
    # a constant density makes every k1 weight (f - f(x)) / r exactly 0:
    # no k1 moment, and no block at all without a k2 part; with radial
    # primitives its k2 part is summed per ray, no radius read
    k1_part = getattr(f, "constant", None) is None
    per_ray = _per_ray_sets(fs, (f,))
    H1 = H2 = 0.0
    for form, _ in (_rule_blocks(x, *plan.volume(cls), per_ray)
                    if k1_part or screened else ()):
        dirs, c = form.dirs, form.c
        fvals = _density(f, form)
        if per_ray:
            beta, alpha_r2 = fs._ray_k2(form.span)
            H2 = H2 + fvals * (np.eye(n) * _ray_total(c, beta)
                               + _outer_total(c * alpha_r2, dirs))
            continue
        rn = form.rn
        if isinstance(fvals, np.ndarray):
            fvals = fvals.reshape(rn.shape)
        # d k1(-r d) = r^-n d k1(d), and w r^-n = c wt / r
        if k1_part:
            H1 = H1 + fs.k1_jacobian(
                dirs, weights=c * _ray_sums(form, (fvals - fx) / rn, False))
        if screened:
            beta, alpha_r2 = fs.k2_radial(rn)
            H2 = H2 + (np.eye(n) * (c @ _ray_sums(form, fvals * beta))
                       + (dirs.T * (c * _ray_sums(form, fvals * alpha_r2)))
                       @ dirs)

    # the integrand k1_j(x - y) nu_l(y) as (l, j, node)
    K = _boundary_integral(
        plan, lambda y, nu: nu.T[:, None, :] * fs.k1(_offsets(x, y)).T)
    H = H1 - fx * K
    if screened:
        H = H + H2
    return np.asarray(H, dtype=complex)


def volume_potential_negative(fs: FundamentalSolution, domain: Domain,
                              nd: NegativeExponentDensity, x,
                              N: int = 64) -> complex:
    """Volume potential of f0 + sum_j d_j f_j given by its components:

        int_Omega S(x-y) f0 dy
        + sum_j int_dOmega S(x-y) nu_j f_j dsigma
        + sum_j d/dx_j int_Omega S(x-y) f_j dy.

    All volume terms share one rule, built once.  Each block of it is built
    once, S is evaluated once on it for f0 (not at all where f0 is zero),
    and the f_j are reduced against grad S, both along the rays where they
    start at x (see the module docstring).  A constant f0 that is summed
    per ray takes a pass of its own over the blocks of
    ``volume_potential``, which read no node, and so its bits.
    """
    x = _check_dims(domain, fs, x)
    n = domain.dim
    comps = nd.components
    cls = _volume_class(domain, x, N)
    plan = _Plan(domain, x, N)
    rule, at_x = plan.volume(cls)
    apart = at_x and _per_ray_sets(fs, comps[:1])
    value = grad = 0
    if apart and comps[0].constant:   # a zero f0 adds nothing
        for form, z in _rule_blocks(x, rule, at_x, True):
            value = value + _value_sum(fs, form, z, comps[0].constant)
    for form, z in _rule_blocks(x, rule, at_x,
                                apart and _per_ray_sets(fs, comps[1:])):
        if not apart:
            f0 = _density(comps[0], form)
            if np.any(f0):      # a zero f0 adds nothing; skip its kernel pass
                value = value + _value_sum(fs, form, z, f0)
        fj = [_density(comps[j + 1], form) for j in range(n)]
        grad = grad + _gradient_sum(fs, form, z, fj)
    total = complex(value)

    def moment(y, nu):
        out = np.zeros(y.shape[0], dtype=complex)
        for j in range(n):
            out = out + nu[:, j] * np.asarray(comps[j + 1](y))
        return fs.eval(x[None, :] - y) * out

    total += _boundary_integral(plan, moment)
    for gj in grad:
        total += gj
    return complex(total)


def exterior_field(fs: FundamentalSolution, tau, x) -> complex:
    """Field of a discretized compactly supported functional
    tau = (nodes, weights, values) at a point x outside its support hull:
    sum_i w_i v_i S(x - y_i).  Rejects x inside the bounding sphere of the
    nodes or closer than 1e-6 to it (conservative hull test)."""
    nodes, weights, values = (np.asarray(a) for a in tau)
    x = np.asarray(x, dtype=float)
    centroid = np.mean(nodes, axis=0)
    hull_r = float(np.max(np.linalg.norm(nodes - centroid[None, :], axis=1)))
    if np.linalg.norm(x - centroid) < hull_r + 1e-6:
        raise DomainError("x lies inside (or too close to) the support hull")
    return complex(np.sum(weights * values * fs.eval(x[None, :] - nodes)))


@dataclass(frozen=True, eq=False)
class PotentialField:
    """Convenience wrapper fixing (fundamental solution, domain, side, N).

    Interior and exterior fields of the same density agree on the boundary
    in the sense of one-sided limits; see verify.check_transmission.
    """

    fs: FundamentalSolution
    domain: Domain
    side: str           # "interior" | "exterior"
    resolution: int

    def __post_init__(self):
        _side_class(self.side)
        _check_dims(self.domain, self.fs)

    def _check(self, x):
        if _classify_or_raise(self.domain, x) != _side_class(self.side):
            raise DomainError(f"point is not on the {self.side} side")

    def value(self, f, x):
        self._check(x)
        return volume_potential(self.fs, self.domain, f, x, self.resolution)

    def gradient(self, f, x):
        self._check(x)
        return volume_potential_gradient(self.fs, self.domain, f, x,
                                         self.resolution)

    def hessian(self, f, x):
        self._check(x)
        return volume_potential_hessian(self.fs, self.domain, f, x,
                                        self.resolution)
