"""Independent reference computations used by the tests.

Everything here deliberately avoids the package's quadrature machinery:
scipy adaptive integration, 1D reductions done by hand, dense-grid suprema,
and Green's representation formula on a boundary rule the caller passes.  Expected values frozen in the tests were produced by these
oracles (or are stated closed forms).
"""

import numpy as np
from scipy import integrate


def disk_ray_length(x, theta, R=1.0):
    """Distance from an interior point of the disk to the circle along
    direction theta (law of cosines root)."""
    x = np.asarray(x, dtype=float)
    e = np.array([np.cos(theta), np.sin(theta)])
    b = float(e @ x)
    return -b + np.sqrt(b * b + (R * R - x @ x))


def disk_inverse_distance_integral(x, R=1.0):
    """int_disk |x - y|^{-1} dy = int_0^{2pi} L(theta) dtheta by the polar
    reduction (the radial integral of r^{-1} r dr is the ray length)."""
    val, _ = integrate.quad(lambda t: disk_ray_length(x, t, R), 0.0,
                            2.0 * np.pi, limit=400)
    return val


def adaptive_disk_integral(f, tol=1e-10):
    """Adaptive integral of f(y1, y2) over the unit disk via iterated quad."""
    def inner(y2):
        w = np.sqrt(max(1.0 - y2 * y2, 0.0))
        val, _ = integrate.quad(lambda y1: f(y1, y2), -w, w, limit=200)
        return val

    val, _ = integrate.quad(inner, -1.0, 1.0, epsabs=tol, limit=200)
    return val


def trapezoid_area_oracle(rho, m=1 << 15):
    """Area of {r < rho(theta)} as the high-resolution trapezoid value of
    int rho^2 / 2 dtheta."""
    t = 2.0 * np.pi * np.arange(m) / m
    return float(np.sum(rho(t) ** 2) * np.pi / m)


def boundary_kernel_oracle(k, mu, x, m=1 << 14, R=1.0):
    """High-resolution trapezoid for int_circle k(x - y) mu(theta) dsigma."""
    t = 2.0 * np.pi * np.arange(m) / m
    y = np.stack([np.cos(t), np.sin(t)], axis=1) * R
    vals = k(np.asarray(x)[None, :] - y) * mu(t)
    return float(np.sum(vals) * (2.0 * np.pi * R / m))


def exp_eigenvalue(op, k):
    """lambda with L e^{k.y} = lambda e^{k.y} for the operator coefficients
    op = (a2, a1, a0): k . a2 k + a1 . k + a0."""
    k = np.asarray(k, dtype=float)
    return complex(k @ op.a2 @ k + op.a1 @ k + op.a0).real


def green_exp_value(fs, k, x, inside, rules):
    """The volume potential of f = L w, w = e^{k.y}, at x by Green's
    representation formula,

        u(x) = chi w(x) + int_dOmega [ w(y) (a2 grad S(x - y)) . nu(y)
                                       + S(x - y) (a2 grad w(y)) . nu(y) ],

    chi = 1 inside (``inside``) and 0 outside, with the boundary integral
    summed on the rules (nodes, weights, normals) it is given, which
    together cover the boundary once: no volume rule.  L is the kernel's
    own operator (a1 = 0 for every kernel of the package, so L is
    self-adjoint), and f = ``exp_eigenvalue(fs.operator, k)`` w."""
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    a2 = fs.operator.a2
    total = np.exp(k @ x) if inside else 0.0
    for nodes, weights, normals in rules:
        z = x[None, :] - nodes
        w = np.exp(nodes @ k)
        flux = (w * np.sum((fs.grad(z) @ a2) * normals, axis=1)
                + fs.eval(z) * w * (normals @ (a2 @ k)))
        total += float(np.sum(flux * weights))
    return total


def star_trapezoid(rho, drho, m=1 << 20, chunk=1 << 16):
    """The m-point trapezoid rule on the curve r = rho(theta), written out
    by hand, as a list of rules (nodes, arclength weights, outward unit
    normals) of chunk points each."""
    rules = []
    for start in range(0, m, chunk):
        t = 2.0 * np.pi * np.arange(start, min(start + chunk, m)) / m
        r, dr = rho(t), drho(t)
        c, s = np.cos(t), np.sin(t)
        tangent = np.stack([dr * c - r * s, dr * s + r * c], axis=1)
        speed = np.linalg.norm(tangent, axis=1)
        rules.append((np.stack([r * c, r * s], axis=1),
                      speed * (2.0 * np.pi / m),
                      np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
                      / speed[:, None]))
    return rules


def embedding_constants(theta, theta_prime, diameter):
    """Suprema driving the modulus embedding chain on a set of the given
    diameter:  c = sup r^theta / omega_theta(r)  and
    c' = sup omega_theta(r) / r^theta_prime, both over (0, diameter]."""
    r = np.geomspace(1e-12, diameter, 200001)
    r_t = np.exp(-1.0 / theta)
    om = np.where(r <= r_t, r ** theta * np.abs(np.log(r)),
                  r_t ** theta / theta)
    c = float(np.max(r ** theta / om))
    c_prime = float(np.max(om / r ** theta_prime))
    return c, c_prime
