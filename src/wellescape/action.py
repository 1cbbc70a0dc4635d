"""Large-deviation action of escape paths, and its minimization.

In the small-noise limit the probability that the diffusion
``dX = -V'(X) dt + sqrt(eps) dW`` leaves the interval D = (a, b) by time
T decays like ``exp(-I / eps)`` where I is the minimal Freidlin-Wentzell
action

    I = inf over paths phi with phi(0) = x0, phi(T) outside D of
        1/2 integral_0^T ( phi'(t) + V'(phi(t)) )^2 dt.

Paths are discretized on a uniform grid and the rate integrand is
evaluated with the midpoint gradient rule,

    A[phi] = 1/2 sum_j dt ( (phi_{j+1} - phi_j) / dt + V'(m_j) )^2,
    m_j = (phi_j + phi_{j+1}) / 2,

which is second-order accurate in dt.  Minimization is plain gradient
descent with Armijo backtracking, preconditioned by the inverse of the
kinetic part of the Hessian (the pinned discrete Laplacian).  The
preconditioner is what makes gradient descent practical here: without it
the iteration count scales with the square of the number of knots.

The exit constraint is handled by pinning the terminal knot to each
endpoint of the interval in turn and keeping the better minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, allocating
from .fokker_planck import _factor

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60
_MAX_ITER = 10_000


@dataclass
class ActionResult:
    value: float
    knots: np.ndarray       # the path on a uniform grid over [0, horizon]
    converged: bool
    iterations: int
    grad_norm: float


def _residual(knots, dt, potential):
    """Segment midpoints m_j and rate residuals (phi_{j+1} - phi_j) / dt + V'(m_j)."""
    mids = 0.5 * (knots[:-1] + knots[1:])
    return mids, np.diff(knots) / dt + potential.gradient(mids)


def action(knots, dt, potential):
    """Discrete Freidlin-Wentzell action of the path with knots ``dt`` apart."""
    _, resid = _residual(np.asarray(knots, dtype=float), dt, potential)
    return 0.5 * dt * float(np.sum(resid * resid))


def action_gradient(knots, dt, potential):
    """Gradient of the discrete action with respect to every knot.

    Callers that keep endpoints pinned simply ignore the first and last
    entries.
    """
    knots = np.asarray(knots, dtype=float)
    mids, resid = _residual(knots, dt, potential)
    hr = potential.laplacian(mids) * resid
    grad = np.zeros_like(knots)
    # segment j contributes to knots j and j+1:
    #   d/d phi_j   = -(v_j + G_j) + dt/2 H_j (v_j + G_j)
    #   d/d phi_j+1 = +(v_j + G_j) + dt/2 H_j (v_j + G_j)
    grad[:-1] += -resid + 0.5 * dt * hr
    grad[1:] += resid + 0.5 * dt * hr
    return grad


def _descend(potential, knots0, dt, grad_tol):
    """Preconditioned gradient descent on the action with Armijo backtracking
    over the interior knots; the two endpoints stay pinned."""
    from scipy.linalg.lapack import dgttrs
    knots = knots0.copy()
    with np.errstate(over="ignore"):
        f = action(knots, dt, potential)
    if not math.isfinite(f):
        # descent only accepts smaller values, so a finite start ends finite
        raise SolverError(f"the action of the starting path is {f}, not finite")
    # the kinetic Hessian on the m interior knots, the pinned Laplacian / dt,
    # factored once; two decoupled unit rows lift it to LAPACK's least size, 3
    m = len(knots) - 2
    row = np.arange(m + 2)
    off = np.where(row < m - 1, -1.0 / dt, 0.0)
    precond = _factor(np.roll(off, 1), np.where(row < m, 2.0 / dt, 1.0), off,
                      1.0, 0.0)
    it = 0
    gnorm = math.inf
    for it in range(1, _MAX_ITER + 1):
        g = action_gradient(knots, dt, potential)[1:-1]
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= grad_tol:
            return knots, f, True, it - 1, gnorm
        step = dgttrs(*precond, np.append(g, (0.0, 0.0)))[0][:m]
        slope = float(np.sum(g * step))
        alpha = 1.0
        for _ in range(_MAX_BACKTRACKS):
            trial = knots.copy()
            trial[1:-1] = knots[1:-1] - alpha * step
            f_trial = action(trial, dt, potential)
            if f_trial <= f - _ARMIJO_C * alpha * slope:
                knots, f = trial, f_trial
                break
            alpha *= 0.5
        else:
            # no acceptable step: gradient noise floor reached
            return knots, f, False, it, gnorm
    return knots, f, False, it, gnorm


def minimize_action_pinned(potential, x_start, x_end, horizon, n_segments=200,
                           grad_tol=1e-6):
    """Minimize the action over paths pinned at both endpoints.

    Starts from the straight line between the endpoints.
    """
    with allocating(SolverError, f"a path of {n_segments + 1} knots", n_segments + 1):
        r = np.linspace(0.0, 1.0, n_segments + 1)
    knots = (1 - r) * float(x_start) + r * float(x_end)
    knots, f, ok, iters, gnorm = _descend(potential, knots, horizon / n_segments,
                                          grad_tol)
    return ActionResult(value=f, knots=knots, converged=ok, iterations=iters,
                        grad_norm=gnorm)


def minimize_exit_action(potential, x0, region, horizon, n_segments=200,
                         grad_tol=1e-6):
    """Minimal action to leave the region from x0 by the given horizon.

    Already-escaped starts cost nothing.  Otherwise the terminal knot is
    pinned to each endpoint of the interval in turn (the optimal exit
    passes through the boundary) and the better minimum is kept.
    """
    if not region.indicator(x0):
        with allocating(SolverError, f"a path of {n_segments + 1} knots",
                        n_segments + 1):
            knots = np.full(n_segments + 1, float(x0))
        return ActionResult(value=0.0, knots=knots, converged=True,
                            iterations=0, grad_norm=0.0)
    best = None
    for z in (region.a, region.b):
        res = minimize_action_pinned(potential, x0, z, horizon, n_segments, grad_tol)
        if best is None or res.value < best.value:
            best = res
    return best
