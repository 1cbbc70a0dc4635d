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
step, while :func:`wellescape.sde.evolve_block` runs.  The stochastic
form, taken on the simulation grid from recorded states and the driving
increments, is the tests' independent check of it: for linear U the two
discrete forms agree to machine precision when tau = h, and in general
they differ at the Riemann error level.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .potentials import _check_integrand, generator_difference, step_arrays
from .sde import whole_multiple


def mesh_stride(tau, h, n_steps):
    """Validate tau and return the stride tau / h, a divisor of n_steps."""
    m = whole_multiple(tau, h, "tau", "h")
    if n_steps % m != 0:
        raise ConfigurationError(
            f"tau={tau} does not divide the horizon: {n_steps} steps with "
            f"stride {m} leaves a partial cell"
        )
    return m


class WeightAccumulator:
    """Streaming generator-form log-weights for a block of samples.

    Plugs into :func:`wellescape.sde.evolve_block` as the observer: at
    each simulation step it adds the running integrand at whichever of
    the requested Riemann meshes fall on that step, so a single pass over
    the trajectory produces the weight at several tau values (sharing the
    same noise, which isolates the mesh effect when comparing them).

    One accumulator serves a whole run, block after block: step 0 of a
    block zeroes the sums and, when the block's rows differ from the
    last one's, sizes its step arrays to them
    (:func:`~wellescape.potentials.step_arrays`).  A patched sampler's
    step forms its integrand and Ṽ' in those arrays, so it allocates
    none of its own; the Ṽ' that :meth:`observe` returns is valid until
    the next :meth:`observe`.

    While the attribute ``checked`` is true, as it starts, :meth:`observe`
    raises :class:`~wellescape.errors.EvaluationError` at a non-finite
    integrand, naming its point; set false, the integrand is summed as
    computed, and a non-finite one makes its row's log-weight non-finite.
    """

    def __init__(self, potential, sampling_potential, noise, h, n_steps, taus):
        self.potential = potential
        self.sampling_potential = sampling_potential
        self.noise = noise
        self.h = h
        self.checked = True
        self.strides = [mesh_stride(t, h, n_steps) for t in taus]
        self._due = [tuple(j for j, m in enumerate(self.strides) if i % m == 0)
                     for i in range(n_steps)]
        self._sums = None
        self._arrays = None

    def observe(self, i, X):
        """Add the integrand at step i if due; return grad V~(X) then, else None."""
        due = self._due[i]
        if not due:
            return None
        if i == 0:  # a new block
            if self._sums is None or self._sums.shape[1:] != X.shape:
                self._sums = np.empty((len(self.strides),) + X.shape)
                self._arrays = step_arrays(X.shape)
            self._sums.fill(0.0)
        g, grad_sampling = generator_difference(
            self.potential, self.sampling_potential, self.noise, X, self._arrays)
        if self.checked:
            _check_integrand(g, X, self.potential, self.sampling_potential)
        for j in due:
            self._sums[j] += g
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
