"""Euler-Maruyama simulation of overdamped Langevin dynamics.

The scheme for ``dX = -V'(X) dt + sigma dW`` with step ``h`` is

    X_{i+1} = X_i - V'(X_i) h + sigma sqrt(h) xi_i,

where the ``xi_i`` are independent standard normal draws.  There is one
Euler loop, :func:`evolve_block`, which advances a block of samples at
once and returns only their terminal states.  A caller that needs whole
trajectories passes an observer that copies the states it is shown; a
single path is that loop run on a one-row block.  The streaming weight
:class:`wellescape.girsanov.WeightAccumulator` is such an observer.

Reproducibility is organised around :class:`RngPolicy`: noise is generated
in fixed blocks of :data:`BLOCK_SAMPLES` samples, block ``j`` seeded by
``SeedSequence(master_seed, spawn_key=(j,))``.  Sample ``k`` always reads
row ``k mod BLOCK_SAMPLES`` of block ``k // BLOCK_SAMPLES``, so its noise
depends only on ``(master_seed, k)`` and never on batch sizes, worker
counts, or scheduling.  A block's generator fills its rows in order, so
consecutive row slices drawn from one :meth:`RngPolicy.block_generator`
hold exactly the rows of :meth:`RngPolicy.block_normals`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, SimulationError, allocating

BLOCK_SAMPLES = 4096


def available_memory():
    """MemAvailable from /proc/meminfo in bytes, the memory the kernel can
    give without swapping (reclaimable page cache counts as free);
    ``math.inf`` when it cannot be read."""
    try:
        with open("/proc/meminfo") as f:
            return next(int(line.split()[1]) * 1024 for line in f
                        if line.startswith("MemAvailable:"))
    except (OSError, ValueError, StopIteration):
        return math.inf


def empty_block(n_steps):
    """An unfilled noise block, shape (BLOCK_SAMPLES, n_steps).

    Raises :class:`SimulationError` when numpy cannot allocate it, or when
    its bytes exceed :func:`available_memory`: numpy may reserve a block
    the machine cannot back, which the filler thread would then fault in.
    """
    shape = (BLOCK_SAMPLES, n_steps)
    with allocating(SimulationError, f"a noise block of shape {shape}",
                    math.prod(shape)):
        block = np.empty(shape)
        if block.nbytes > available_memory():
            raise MemoryError
        return block


class RngPolicy:
    """Deterministic per-sample noise streams derived from one master seed."""

    def __init__(self, master_seed):
        self.master_seed = int(master_seed)

    def block_generator(self, block_index):
        """The generator that draws block ``block_index``, row after row."""
        ss = np.random.SeedSequence(self.master_seed, spawn_key=(int(block_index),))
        return np.random.Generator(np.random.PCG64(ss))

    def block_normals(self, block_index, n_steps):
        """Standard normals for one block, shape (BLOCK_SAMPLES, n_steps).

        Raises :class:`SimulationError` when the block cannot be allocated.
        """
        return self.block_generator(block_index).standard_normal(
            out=empty_block(n_steps))

    def n_blocks(self, n_samples):
        return -(-int(n_samples) // BLOCK_SAMPLES)

    def __repr__(self):
        return f"RngPolicy(master_seed={self.master_seed})"


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


def evolve_block(potential, noise, x0, n_steps, h, noise_block, observer=None,
                 checked=True):
    """Advance a whole block of samples under ``potential`` and return
    their terminal states.

    ``noise_block`` has shape (B, n_steps); row b drives sample b.
    ``observer(i, X)``, when given, is called with the current states at
    the start of step i (so it sees X at times i * h for i = 0 .. n_steps
    - 1); this is how streaming weight accumulators tap the trajectory
    without storing it.  An observer returns ``potential.gradient(X)``,
    which is then not evaluated again, or None.
    ``X`` is updated in place, so an observer must copy anything of it
    that it keeps; ``noise_block`` and the gradient are only read, and a
    step allocates no array of its own.

    With ``checked`` (the default), a step that leaves any state
    non-finite raises :class:`SimulationError` naming that step.  Without
    it no step is checked: a non-finite state stays non-finite through
    every later step, so the caller checks the terminal states once and
    steps the same rows again with ``checked`` to name the step.
    """
    X = np.full(noise_block.shape[0], float(x0))
    tmp = np.empty_like(X)
    amp = noise.sigma * math.sqrt(h)
    for i in range(n_steps):
        g = observer(i, X) if observer is not None else None
        if g is None:
            g = potential.gradient(X)
        X -= np.multiply(g, h, out=tmp)
        X += np.multiply(amp, noise_block[:, i], out=tmp)
        if checked and not np.isfinite(X).all():
            raise SimulationError(
                f"a sample became non-finite at step {i} (t={(i + 1) * h:g})", step=i
            )
    return X
