"""Euler-Maruyama simulation of overdamped Langevin dynamics.

The scheme for ``dX = -V'(X) dt + sigma dW`` with step ``h`` is

    X_{i+1} = X_i - V'(X_i) h + sigma sqrt(h) xi_i,

where the ``xi_i`` are independent standard normal draws.  There is one
Euler loop, :func:`evolve_block`, which advances a block of samples at
once; a single recorded path is that loop run on a one-row block.  Paths
record the unit-variance draws alongside the states so that reweighting in
:mod:`wellescape.girsanov` can rebuild the driving increments exactly.

Reproducibility is organised around :class:`RngPolicy`: noise is generated
in fixed blocks of :data:`BLOCK_SAMPLES` samples, block ``j`` seeded by
``SeedSequence(master_seed, spawn_key=(j,))``.  Sample ``k`` always reads
row ``k mod BLOCK_SAMPLES`` of block ``k // BLOCK_SAMPLES``, so its noise
depends only on ``(master_seed, k)`` and never on batch sizes, worker
counts, or scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SimulationError, allocating

BLOCK_SAMPLES = 4096


class RngPolicy:
    """Deterministic per-sample noise streams derived from one master seed."""

    def __init__(self, master_seed):
        self.master_seed = int(master_seed)

    def block_normals(self, block_index, n_steps):
        """Standard normals for one block, shape (BLOCK_SAMPLES, n_steps).

        Raises :class:`SimulationError` when the block cannot be allocated.
        """
        ss = np.random.SeedSequence(self.master_seed, spawn_key=(int(block_index),))
        gen = np.random.Generator(np.random.PCG64(ss))
        shape = (BLOCK_SAMPLES, n_steps)
        with allocating(SimulationError, f"a noise block of shape {shape}",
                        math.prod(shape)):
            return gen.standard_normal(shape)

    def normals_for_sample(self, sample_index, n_steps):
        """The noise draws sample ``sample_index`` receives, shape (n_steps,)."""
        block, row = divmod(int(sample_index), BLOCK_SAMPLES)
        return self.block_normals(block, n_steps)[row]

    def n_blocks(self, n_samples):
        return -(-int(n_samples) // BLOCK_SAMPLES)

    def __repr__(self):
        return f"RngPolicy(master_seed={self.master_seed})"


@dataclass
class SamplePath:
    """One simulated trajectory on a uniform time grid.

    ``states[i]`` is the state at ``times[i]``; ``increments[i]`` is the
    unit-variance normal draw that produced the step from ``times[i]`` to
    ``times[i+1]`` (the Brownian increment is ``sigma * sqrt(h) * increments[i]``).
    """

    times: np.ndarray
    states: np.ndarray
    increments: np.ndarray

    @property
    def x0(self):
        return self.states[0]

    @property
    def terminal(self):
        return self.states[-1]

    @property
    def n_steps(self):
        return len(self.times) - 1

    @property
    def h(self):
        return float(self.times[1] - self.times[0])


def whole_multiple(value, unit, name, unit_name):
    """``value / unit`` when it is a whole number >= 1 within 1e-9 relative,
    else a :class:`ConfigurationError`: the one step-grid rule for horizons
    and Riemann meshes, so no caller runs a rounded experiment."""
    ratio = value / unit
    n = round(ratio) if math.isfinite(ratio) else 0
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
        raise ConfigurationError(
            f"{name}={value:g} must be a whole multiple of {unit_name}={unit:g}")
    return n


def steps_for(horizon, h):
    """Number of steps of size h covering [0, horizon]; see :func:`whole_multiple`."""
    if h <= 0 or horizon <= 0:
        raise ValueError("horizon and step must be positive")
    return whole_multiple(horizon, h, "horizon", "step")


def simulate(potential, noise, x0, horizon, h, increments):
    """Euler-Maruyama path of the Langevin SDE dX = -V'(X) dt + sigma dW.

    The path is :func:`evolve_block` run on a one-row block, with the
    state recorded at the start of every step.

    Parameters
    ----------
    potential : PotentialField
    noise : NoiseScale
    x0 : float
        Initial state.
    horizon, h : float
        Final time and step size; ``horizon / h`` must be a whole number.
    increments : ndarray, shape (n_steps,)
        The unit-variance draws, e.g. ``RngPolicy.normals_for_sample(k,
        n_steps)`` for sample k; a recorded path's ``increments`` replay
        it exactly.
    """
    n = steps_for(horizon, h)
    xi = np.asarray(increments, dtype=float)
    if xi.shape != (n,):
        raise ValueError(f"increment array has shape {xi.shape}, expected {(n,)}")
    states = np.empty(n + 1)

    def record(i, X):
        states[i] = X[0]

    states[n] = evolve_block(potential, noise, x0, n, h, xi[None], record)[0]
    return SamplePath(times=h * np.arange(n + 1), states=states, increments=xi)


def evolve_block(potential, noise, x0, n_steps, h, noise_block, observer=None):
    """Advance a whole block of samples under ``potential`` and return
    their terminal states.

    ``noise_block`` has shape (B, n_steps); row b drives sample b.
    ``observer(i, X)``, when given, is called with the current states at
    the start of step i (so it sees X at times i * h for i = 0 .. n_steps
    - 1); this is how streaming weight accumulators tap the trajectory
    without storing it.  An observer may return the step's drift
    ``-potential.gradient(X)``, which is then not evaluated again.
    """
    X = np.full(noise_block.shape[0], float(x0))
    amp = noise.sigma * math.sqrt(h)
    for i in range(n_steps):
        f = observer(i, X) if observer is not None else None
        if f is None:
            f = -np.asarray(potential.gradient(X))
        X = X + f * h + amp * noise_block[:, i]
        if not np.all(np.isfinite(X)):
            raise SimulationError(
                f"a sample became non-finite at step {i} (t={(i + 1) * h:g})", step=i
            )
    return X
