"""Deterministic Fokker-Planck oracle for one-dimensional Langevin dynamics.

Solves the forward equation of ``dX = -V'(X) dt + sigma dW``,

    dp/dt = d/dx [ V'(x) p + (sigma^2 / 2) dp/dx ],

with a conservative (flux-form) central discretization on a uniform node
grid and Crank-Nicolson time stepping.  The discrete flux at the face
between nodes j and j+1 is

    G_{j+1/2} = V'(x_{j+1/2}) (p_j + p_{j+1}) / 2
                + (sigma^2 / 2) (p_{j+1} - p_j) / dx,

so with reflecting (zero-flux) walls the discrete mass sum(p) * dx is
conserved exactly up to solver roundoff.  Crank-Nicolson is started with
two backward-Euler half steps, which damps the spurious oscillations the
trapezoidal rule would otherwise preserve from rough initial data (point
sources).

This solver is an oracle: it provides non-sampling reference values for
escape probabilities and transition densities against which the Monte
Carlo estimators and the short-time expansions are checked.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, allocating
from .sde import steps_for

_CHECK_EVERY = 25
_NEGATIVE_TOL = 1e-6
_MASS_TOL = 1e-8    # the flux form conserves mass to roundoff, ~1e-12


@dataclass
class FpGrid:
    """A density snapshot on a uniform grid."""

    x: np.ndarray
    density: np.ndarray
    time: float
    clamped_mass: float = 0.0

    @property
    def dx(self):
        return float(self.x[1] - self.x[0])

    @property
    def mass(self):
        """The discretely conserved mass, sum(p) * dx."""
        return float(self.density.sum() * self.dx)


def gaussian_bump(center, std):
    """Normalized Gaussian initial density of standard deviation ``std``."""

    def p0(x):
        return np.exp(-((x - center) ** 2) / (2 * std**2)) / (
            std * math.sqrt(2 * math.pi)
        )

    return p0


def _operator_diagonals(potential, noise, x):
    """Lower/main/upper diagonals of the discrete Fokker-Planck operator
    with reflecting (zero-flux) walls."""
    n = x.size
    dx = float(x[1] - x[0])
    dc = 0.5 * noise.sigma**2
    faces = x[:-1] + 0.5 * dx
    b = potential.gradient(faces)  # V' at faces
    if not np.all(np.isfinite(b)):
        raise SolverError("drift is non-finite on the grid")

    upper = np.zeros(n)  # upper[j] multiplies p_{j+1} in row j
    lower = np.zeros(n)  # lower[j] multiplies p_{j-1} in row j
    main = np.zeros(n)
    # interior rows: (G_{j+1/2} - G_{j-1/2}) / dx
    upper[1:-1] = (0.5 * b[1:] + dc / dx) / dx
    lower[1:-1] = (-0.5 * b[:-1] + dc / dx) / dx
    main[1:-1] = (0.5 * (b[1:] - b[:-1]) - 2.0 * dc / dx) / dx
    # outermost faces carry zero flux
    main[0] = (0.5 * b[0] - dc / dx) / dx
    upper[0] = (0.5 * b[0] + dc / dx) / dx
    main[-1] = (-0.5 * b[-1] - dc / dx) / dx
    lower[-1] = (-0.5 * b[-1] + dc / dx) / dx
    return lower, main, upper


def _factor(lower, main, upper, scale, shift):
    """LU factors of the tridiagonal shift * I + scale * A, for dgttrs."""
    from scipy.linalg.lapack import dgttrf
    dl, d, du, du2, ipiv, info = dgttrf(
        scale * lower[1:], shift + scale * main, scale * upper[:-1])
    if info != 0:
        raise SolverError(f"time-step matrix is singular (LAPACK info={info})")
    return dl, d, du, du2, ipiv


def _apply(lower, main, upper, p):
    out = main * p
    out[:-1] += upper[:-1] * p[1:]
    out[1:] += lower[1:] * p[:-1]
    return out


def evolve(potential, noise, initial, domain, n_cells, horizon, dt):
    """Advance an initial density to time ``horizon`` between reflecting walls.

    Parameters
    ----------
    initial : callable
        Initial density p0(x) (renormalized to unit discrete mass).
    domain : (float, float)
        Grid endpoints; walls sit at the outermost nodes.
    n_cells : int
        Number of grid nodes.
    horizon, dt : float
        Final time and Crank-Nicolson step; ``horizon`` must be a whole
        multiple of ``dt``.

    Raises :class:`SolverError` when the density turns invalid, or when its
    terminal mass departs from 1 by more than 1e-8 (it underflowed, or
    the solve lost it).
    """
    lo, hi = float(domain[0]), float(domain[1])
    with allocating(SolverError, f"a grid of {int(n_cells)} cells", int(n_cells)):
        x = np.linspace(lo, hi, int(n_cells))
    dx = float(x[1] - x[0])
    if dx > 0.25 * noise.sigma * math.sqrt(dt):
        warnings.warn(
            f"grid spacing dx={dx:.2e} is coarse relative to the diffusion "
            f"scale sigma*sqrt(dt)/4={0.25 * noise.sigma * math.sqrt(dt):.2e}; "
            "consider more cells or a larger dt",
            stacklevel=2,
        )
    p = np.array(initial(x), dtype=float)
    if p.shape != x.shape:
        raise ValueError("initial density does not match the grid")
    total = p.sum() * dx
    if not (total > 0):
        raise ValueError("initial density has no mass on the grid")
    p /= total

    from scipy.linalg.lapack import dgttrs
    lower, main, upper = _operator_diagonals(potential, noise, x)
    n_steps = steps_for(horizon, dt)

    # I - (dt/2) A is both the backward-Euler half-step matrix and the
    # Crank-Nicolson left-hand side, so one factorization serves every step:
    # solves 0 and 1 are the half steps, solve i >= 2 ends at t = i * dt.
    lu = _factor(lower, main, upper, -0.5 * dt, 1.0)
    rhs_diags = (0.5 * dt * lower, 1.0 + 0.5 * dt * main, 0.5 * dt * upper)
    for i in range(n_steps + 1):
        p, _ = dgttrs(*lu, p if i < 2 else _apply(*rhs_diags, p))
        due = i < 2 or (i - 2) % _CHECK_EVERY == 0 or i == n_steps
        if due and not (np.all(np.isfinite(p))
                        and p.min() >= -_NEGATIVE_TOL * max(1.0, p.max())):
            t = (i + 1) * dt / 2 if i < 2 else i * dt
            raise SolverError(f"density became invalid at t={t:g}; "
                              "try a smaller dt or a finer grid")

    mass = float(p.sum() * dx)
    if not abs(mass - 1.0) <= _MASS_TOL:
        raise SolverError(
            f"density mass is {mass:.6g} at t={n_steps * dt:g}, not 1; "
            "try a smaller dt or a finer grid")
    clamped = float(-p[p < 0].sum() * dx) if np.any(p < 0) else 0.0
    np.clip(p, 0.0, None, out=p)
    return FpGrid(x=x, density=p, time=n_steps * dt, clamped_mass=clamped)


def integrate_density(grid, a, b):
    """Integral of the density over [a, b] with fractional end cells."""
    a = max(float(a), float(grid.x[0]))
    b = min(float(b), float(grid.x[-1]))
    if b <= a:
        return 0.0
    fine = np.linspace(a, b, 20_001)
    vals = np.interp(fine, grid.x, grid.density)
    return float(np.trapezoid(vals, fine))


def escape_probability(potential, noise, x0, region, horizon, *,
                       n_cells=6144, dt=5e-4):
    """P(X_T outside D) for X started at x0, by solving the forward PDE.

    The grid covers D and the start point inflated by 6 sigma sqrt(T)
    on each side so that reflecting far walls do not influence the
    answer; the point start is mollified to a Gaussian of standard
    deviation one grid cell.  Returns ``(p, grid)``: 1 minus the density
    mass left in D at the horizon, and the terminal :class:`FpGrid`.

    That difference has an absolute roundoff floor near 1e-12 and can
    come out slightly negative (about -5e-12 for the inverted cosine well
    at epsilon = 0.1, whose true value is near 1e-15).  Read smaller
    probabilities from the returned grid instead, as the mass outside D
    given by :func:`integrate_density` over the grid's two tails.
    """
    a, b = region.a, region.b
    pad = 6.0 * noise.sigma * math.sqrt(horizon)
    lo = min(a, float(x0)) - pad
    hi = max(b, float(x0)) + pad
    dx = (hi - lo) / (int(n_cells) - 1)
    if not math.isfinite(dx * dx):
        raise SolverError(
            f"the grid over ({lo:g}, {hi:g}) is too coarse: the start's "
            f"Gaussian has standard deviation dx={dx:g}, whose square overflows")
    grid = evolve(
        potential, noise, gaussian_bump(float(x0), dx), (lo, hi),
        n_cells, horizon, dt,
    )
    return 1.0 - integrate_density(grid, a, b), grid
