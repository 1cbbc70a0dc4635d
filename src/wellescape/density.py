"""Short-time transition-density approximation with computable error bounds.

For the diffusion ``dX = -grad(V) dt + sigma dW`` the transition density
``p_t(x, y)`` is, up to a vanishing correction, the free (driftless)
Gaussian kernel times an explicit potential factor evaluated along the
straight chord ``psi(r) = (1 - r) x + r y``:

    p_t(x, y) ~ exp[ sigma^-2 ( V(x) - V(y)
                     + t/2 * integral_0^1 g_V(psi(r)) dr ) ] * rho_t(y - x),

with ``g_V = sigma^2 Laplace(V) - |grad V|^2`` and ``rho_t`` the centered
Gaussian density of variance ``sigma^2 t`` per coordinate.  The
approximation error is controlled by two constants: a Lipschitz bound K on
``g_V`` near the chord, entering through ``M1 = sqrt(d) K / 2``, and the
probability that the Brownian bridge strays further than ``delta`` from
the chord, bounded by ``2 d exp(-2 delta^2 / (sigma^2 t))``.  Explicit
two-sided bounds built from these constants are returned by
:func:`bounds`; with ``delta ~ t^0.4`` both error terms vanish as
``t -> 0``, the exponential one faster than any power of t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import _box_grid, generator_apply_general, generator_apply_to_self

DEFAULT_NODES = 101
DEFAULT_DELTA_EXPONENT = 0.4


@dataclass
class DensityEstimate:
    """A density value with two-sided error bounds and their ingredients."""

    value: float
    lower: float
    upper: float
    kernel: float
    delta: float
    lipschitz: float
    m1: float
    m2: float
    gamma: float


def gaussian_kernel(noise, t, z, dimension=1):
    """Free-diffusion transition density rho_t(z) for displacement z.

    ``rho_t(z) = (2 pi sigma^2 t)^(-d/2) exp(-|z|^2 / (2 sigma^2 t))``.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    z = np.asarray(z, dtype=float)
    var = noise.sigma ** 2 * t
    if dimension == 1:
        sq = z * z
    else:
        sq = (z ** 2).sum(axis=-1)
    out = (2 * math.pi * var) ** (-dimension / 2) * np.exp(-sq / (2 * var))
    return float(out) if np.ndim(out) == 0 else out


def _chord(x, y, r):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 0:
        return (1 - r) * float(x) + r * float(y)
    return (1 - r)[:, None] * x + r[:, None] * y


def _simpson(y, x):
    """Composite Simpson's rule on an odd number of distinct nodes, with the
    operations of ``scipy.integrate.simpson(y, x=x)`` in the same order."""
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum, hprod, h0divh1 = h0 + h1, h0 * h1, h0 / h1
    tmp = hsum / 6.0 * (y[:-2:2] * (2.0 - 1.0 / h0divh1)
                        + y[1:-1:2] * (hsum * (hsum / hprod))
                        + y[2::2] * (2.0 - h0divh1))
    return np.sum(tmp)


def _chord_integral(integrand, x, y, n_nodes):
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError("n_nodes must be an odd number >= 3 for Simpson's rule")
    r = np.linspace(0.0, 1.0, n_nodes)
    vals = np.asarray(integrand(_chord(x, y, r)), dtype=float)
    return float(_simpson(vals, r))


def approximate(potential, noise, x, y, t, n_nodes=DEFAULT_NODES):
    """Leading-order short-time density p_t(x, y) for Langevin dynamics.

    Exact for every t when the potential is linear (the drift is constant
    and the density stays Gaussian); exact trivially for V = 0.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    d = potential.dimension
    integral = _chord_integral(
        lambda p: generator_apply_to_self(potential, noise, p), x, y, n_nodes
    )
    bracket = float(potential.value(x)) - float(potential.value(y)) + 0.5 * t * integral
    kernel = gaussian_kernel(noise, t, np.asarray(y, dtype=float) - np.asarray(x, dtype=float), d)
    return math.exp(bracket / noise.sigma ** 2) * kernel


def approximate_general(potential, drift, noise, x, y, t, reference_density,
                        n_nodes=DEFAULT_NODES):
    """Short-time density relative to a reference SDE dX = F dt + sigma dW.

    ``reference_density(x, y, t)`` must supply the transition density of
    the reference dynamics; the potential factor uses the general-reference
    integrand ``-|grad V|^2 + 2 F . grad V + sigma^2 Laplace(V)`` along the
    chord.  With F = 0 and the Gaussian kernel as reference this reduces
    to :func:`approximate`.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    integral = _chord_integral(
        lambda p: generator_apply_general(potential, drift, noise, p), x, y, n_nodes
    )
    bracket = float(potential.value(x)) - float(potential.value(y)) + 0.5 * t * integral
    return math.exp(bracket / noise.sigma ** 2) * float(reference_density(x, y, t))


def corridor_violation_bound(noise, t, delta, dimension=1):
    """Upper bound on P(bridge deviates more than delta from its chord).

    The linear bridge interpolating the diffusion's endpoints differs from
    the driftless bridge by a drift term; a reflection bound per coordinate
    gives ``2 d exp(-2 delta^2 / (sigma^2 t))``, independent of the
    endpoints.
    """
    if t <= 0 or delta <= 0:
        raise ValueError("time and corridor width must be positive")
    return 2.0 * dimension * math.exp(-2.0 * delta ** 2 / (noise.sigma ** 2 * t))


def _box_hull(x, y, pad):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    lo = np.minimum(x, y) - pad
    hi = np.maximum(x, y) + pad
    return lo, hi


def lipschitz_estimate(func, lo, hi, n_points=10_000):
    """Grid estimate of the Lipschitz constant of a field on a box.

    Takes the largest gradient norm seen on a dense grid (10^4 points for
    d = 1, about 10^6 total for d >= 2).  A grid estimate can only
    undershoot the true constant, so callers apply a safety factor.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    grid, axes = _box_grid(lo, hi, n_points)
    grads = np.gradient(np.asarray(func(grid), dtype=float), *axes)
    if lo.size == 1:
        return float(np.max(np.abs(grads)))
    return float(np.max(np.sqrt(sum(g ** 2 for g in grads))))


def bounds(potential, noise, x, y, t, delta=None, n_nodes=DEFAULT_NODES,
           safety=1.2):
    """Two-sided bounds on p_t(x, y) around the chord approximation.

    The Lipschitz constant K of the running integrand and its sup are
    estimated on the box hull of {x, y} inflated by 3 sigma sqrt(t), and K
    is multiplied by ``safety`` to absorb the grid estimation error.  The
    corridor half-width defaults to ``t ** 0.4``, which sends both error
    terms to zero as t -> 0.  The lower bound is clamped at 0 (the bound
    is vacuous when the corridor constants are large).
    """
    if t <= 0:
        raise ValueError("time must be positive")
    if delta is None:
        delta = t ** DEFAULT_DELTA_EXPONENT
    d = potential.dimension
    sigma = noise.sigma
    inv_eps = 1.0 / sigma ** 2

    g = lambda p: generator_apply_to_self(potential, noise, p)
    integral = _chord_integral(g, x, y, n_nodes)
    v_diff = float(potential.value(x)) - float(potential.value(y))
    bracket = v_diff + 0.5 * t * integral
    kernel = gaussian_kernel(
        noise, t, np.asarray(y, dtype=float) - np.asarray(x, dtype=float), d
    )

    lo, hi = _box_hull(x, y, 3.0 * sigma * math.sqrt(t))
    K = safety * lipschitz_estimate(g, lo, hi)
    grid, _ = _box_grid(lo, hi)
    sup_abs_g = float(np.max(np.abs(np.asarray(g(grid)))))

    m1 = 0.5 * math.sqrt(d) * K
    m2 = 2.0 * d * math.exp(inv_eps * (v_diff + 0.5 * t * sup_abs_g))
    gamma = math.exp(-2.0 * delta ** 2 / (sigma ** 2 * t))

    value = math.exp(inv_eps * bracket) * kernel
    upper = (math.exp(inv_eps * (bracket + m1 * delta * t)) + m2 * gamma) * kernel
    lower = (math.exp(inv_eps * (bracket - m1 * delta * t)) - m2 * gamma) * kernel
    return DensityEstimate(
        value=value,
        lower=max(0.0, lower),
        upper=upper,
        kernel=kernel,
        delta=delta,
        lipschitz=K,
        m1=m1,
        m2=m2,
        gamma=gamma,
    )
