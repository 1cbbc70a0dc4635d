"""Pathwise change-of-measure weights between Langevin dynamics.

Let P be the law of ``dX = -V'(X) dt + sigma dW`` and P~ the law of the
same equation with a sampling potential V~ (both started at x0, observed on
[0, T]).  The log Radon-Nikodym derivative along a path admits a form that
involves no stochastic integral, only the potentials and the generator-type
integrand ``g_V = sigma^2 V'' - V'^2``:

    log dP/dP~ = sigma^-2 [ V(x0) - V(X_T) - V~(x0) + V~(X_T)
                            + 1/2 * integral_0^T (g_V - g_V~)(X_s) ds ].

The same weight in its classical stochastic-integral form, with
U = V~ - V, is

    log dP/dP~ = sigma^-1 integral U'(X_s) dW~_s
                 - sigma^-2 / 2 * integral U'(X_s)^2 ds.

The generator form is a left-endpoint Riemann sum on a coarsened mesh tau
(an integer multiple of the simulation step h), taken in one place:
:class:`WeightAccumulator` adds the integrand ``g_V - g_V~``
(:func:`wellescape.potentials.generator_difference`) block-wide, step by
step, while :func:`wellescape.sde.evolve_block` runs.  The stochastic form,
:func:`log_weight_stochastic_integral_form`, is taken on the simulation
grid from recorded states and the driving increments.  For linear U the
two discrete forms agree to machine precision when tau = h; in general
they differ at the Riemann error level, so the stochastic form serves as
an independent check of the generator form.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .potentials import _check_integrand, generator_difference
from .sde import whole_multiple


def mesh_stride(tau, h, n_steps=None):
    """Validate tau against h and return the integer stride tau / h."""
    m = whole_multiple(tau, h, "tau", "h")
    if n_steps is not None and n_steps % m != 0:
        raise ConfigurationError(
            f"tau={tau} does not divide the horizon: {n_steps} steps with "
            f"stride {m} leaves a partial cell"
        )
    return m


def log_weight_stochastic_integral_form(states, increments, h, potential,
                                        sampling_potential, noise):
    """Weights of P~-paths under P via the classical stochastic integral.

    ``states`` has shape (..., n+1) and ``increments``, the unit-variance
    draws xi_i that drove each step, shape (..., n); the result has one
    log-weight per leading index.  With U = V~ - V the discrete stochastic
    integral is sum U'(X_i) sqrt(h) xi_i.
    """
    states, xi = np.asarray(states, dtype=float), np.asarray(increments, dtype=float)
    if xi.shape != states[..., 1:].shape:
        raise ValueError(f"increments {xi.shape} do not fit states {states.shape}")
    left = states[..., :-1]
    gu = sampling_potential.gradient(left) - potential.gradient(left)
    return (np.sqrt(h) / noise.sigma) * np.sum(gu * xi, axis=-1) \
        - 0.5 / noise.sigma ** 2 * h * np.sum(gu * gu, axis=-1)


class WeightAccumulator:
    """Streaming generator-form log-weights for a block of samples.

    Plugs into :func:`wellescape.sde.evolve_block` as the observer: at
    each simulation step it adds the running integrand at whichever of
    the requested Riemann meshes fall on that step, so a single pass over
    the trajectory produces the weight at several tau values (sharing the
    same noise, which isolates the mesh effect when comparing them).

    With ``checked`` (the default) :meth:`observe` raises
    :class:`~wellescape.errors.EvaluationError` at a non-finite integrand,
    naming its point; without it the integrand is summed as computed, and
    a non-finite one makes its row's log-weight non-finite.
    """

    def __init__(self, potential, sampling_potential, noise, h, n_steps, taus,
                 checked=True):
        self.potential = potential
        self.sampling_potential = sampling_potential
        self.noise = noise
        self.h = h
        self.checked = checked
        self.strides = [mesh_stride(t, h, n_steps) for t in taus]
        self._due = [tuple(j for j, m in enumerate(self.strides) if i % m == 0)
                     for i in range(n_steps)]
        self._sums = None

    def observe(self, i, X):
        """Add the integrand at step i if due; return grad V~(X) then, else None."""
        due = self._due[i]
        if not due:
            return None
        g, inside, grad_sampling = generator_difference(
            self.potential, self.sampling_potential, self.noise, X)
        if self.checked:
            _check_integrand(np.where(inside, g, 0.0), X, self.potential,
                             self.sampling_potential)
        if self._sums is None:
            self._sums = np.zeros((len(self.strides), len(X)))
        # a row off the mask would add 0.0, which leaves a sum that starts
        # at +0.0 unchanged: it never becomes -0.0
        for j in due:
            np.add(self._sums[j], g, out=self._sums[j], where=inside)
        return grad_sampling

    def finalize(self, x0, terminal):
        """Log-weights, shape (n_taus, block); call after the last step."""
        inv_eps = 1.0 / self.noise.sigma ** 2
        boundary = inv_eps * (
            self.potential.value(x0)
            - self.potential.value(terminal)
            - self.sampling_potential.value(x0)
            + self.sampling_potential.value(terminal)
        )
        out = np.empty((len(self.strides), len(terminal)))
        for j, m in enumerate(self.strides):
            running = inv_eps * 0.5 * (m * self.h) * self._sums[j]
            out[j] = boundary + running
        return out
