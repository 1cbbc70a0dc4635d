"""Short-time transition-density approximation with computable error bounds.

For the diffusion ``dX = -V'(X) dt + sigma dW`` on the line the transition
density ``p_t(x, y)`` is, up to a vanishing correction, the free
(driftless) Gaussian kernel times an explicit potential factor evaluated
along the straight chord ``psi(r) = (1 - r) x + r y``:

    p_t(x, y) ~ exp[ sigma^-2 ( V(x) - V(y)
                     + t/2 * integral_0^1 g_V(psi(r)) dr ) ] * rho_t(y - x),

with ``g_V = sigma^2 V'' - V'^2`` and ``rho_t`` the centered Gaussian
density of variance ``sigma^2 t``.  The approximation error is controlled
by two constants: a Lipschitz bound K on ``g_V`` near the chord, entering
through ``M1 = K / 2``, and the probability that the Brownian bridge
strays further than ``delta`` from the chord, bounded by
``2 exp(-2 delta^2 / (sigma^2 t))``.  Explicit two-sided bounds built from
these constants are returned by :func:`bounds`, whose ``value`` is the
chord expression itself; with ``delta ~ t^0.4`` both error terms vanish
as ``t -> 0``, the exponential one faster than any power of t.  The
paper states these asymptotics in R^d; this module keeps the
one-dimensional case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .potentials import generator_apply_to_self

DEFAULT_DELTA_EXPONENT = 0.4
_CHORD_NODES = 101
_GRID_POINTS = 10_000
_SAFETY = 1.2


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


def gaussian_kernel(noise, t, z):
    """Free-diffusion transition density rho_t(z) for displacement z.

    ``rho_t(z) = (2 pi sigma^2 t)^(-1/2) exp(-z^2 / (2 sigma^2 t))``.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    z = np.asarray(z, dtype=float)
    var = noise.sigma ** 2 * t
    return (2 * math.pi * var) ** -0.5 * np.exp(-z * z / (2 * var))


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


def corridor_violation_bound(noise, t, delta):
    """Upper bound on P(bridge deviates more than delta from its chord).

    The linear bridge interpolating the diffusion's endpoints differs from
    the driftless bridge by a drift term; a reflection bound gives
    ``2 exp(-2 delta^2 / (sigma^2 t))``, independent of the endpoints.
    """
    if t <= 0 or delta <= 0:
        raise ValueError("time and corridor width must be positive")
    return 2.0 * math.exp(-2.0 * delta ** 2 / (noise.sigma ** 2 * t))


def _slope_and_sup(func, lo, hi):
    """Largest |slope| and largest |func| on a 10,000-point grid over
    [lo, hi], from one evaluation of ``func``."""
    grid = np.linspace(lo, hi, _GRID_POINTS)
    vals = func(grid)
    return float(np.max(np.abs(np.gradient(vals, grid)))), float(np.max(np.abs(vals)))


def bounds(potential, noise, x, y, t, delta=None):
    """The chord approximation of p_t(x, y) with two-sided bounds around it.

    ``value`` is the chord expression; it is exact for every t when V is
    linear (constant drift keeps the density Gaussian) and for V = 0.  The
    Lipschitz constant K of the running integrand and its sup are
    estimated on one grid over [min(x, y), max(x, y)] widened by
    3 sigma sqrt(t) on each side, and K is multiplied by a safety factor
    of 1.2 to absorb the grid estimation error.  The corridor half-width
    defaults to ``t ** 0.4``, which sends both error terms to zero as
    t -> 0; ``gamma`` is half of :func:`corridor_violation_bound`, which
    raises ``ValueError`` for ``delta <= 0``.  The lower bound is clamped
    at 0 (the bound is vacuous when the corridor constants are large).
    Raises :class:`SolverError` when a bound or the value leaves the float
    range.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    if delta is None:
        delta = t ** DEFAULT_DELTA_EXPONENT
    sigma = noise.sigma
    inv_eps = 1.0 / sigma ** 2

    g = lambda p: generator_apply_to_self(potential, noise, p)
    r = np.linspace(0.0, 1.0, _CHORD_NODES)
    chord = g((1 - r) * float(x) + r * float(y))
    integral = float(_simpson(chord, r))
    v_diff = float(potential.value(x)) - float(potential.value(y))
    bracket = v_diff + 0.5 * t * integral
    kernel = gaussian_kernel(noise, t, float(y) - float(x))

    pad = 3.0 * sigma * math.sqrt(t)
    slope, sup_abs_g = _slope_and_sup(g, min(x, y) - pad, max(x, y) + pad)
    K = _SAFETY * slope

    m1 = 0.5 * K
    try:
        m2 = 2.0 * math.exp(inv_eps * (v_diff + 0.5 * t * sup_abs_g))
        gamma = 0.5 * corridor_violation_bound(noise, t, delta)
        value = math.exp(inv_eps * bracket) * kernel
        upper = (math.exp(inv_eps * (bracket + m1 * delta * t)) + m2 * gamma) * kernel
        lower = (math.exp(inv_eps * (bracket - m1 * delta * t)) - m2 * gamma) * kernel
        finite = all(map(math.isfinite, (m2, value, upper, lower)))
    except OverflowError:
        finite = False
    if not finite:
        raise SolverError(f"the density bounds at t={t:g}, delta={delta:g} "
                          "leave the float range")
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
