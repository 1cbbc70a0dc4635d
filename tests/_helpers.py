"""Helpers the tests share that the package itself does not need."""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from wellescape.estimators import EstimatorSummary
from wellescape.girsanov import WeightAccumulator
from wellescape.sde import BLOCK_SAMPLES, empty_block, evolve_block, steps_for


def region_supremum(func, region):
    """Grid estimate of sup over D of a pointwise function.

    Evaluates ``func`` on 10,000 evenly spaced points over [a, b],
    masked by the indicator of the open interval.
    """
    pts = np.linspace(region.a, region.b, 10_000)
    inside = region.indicator(pts)
    if not inside.any():
        raise ValueError("no grid point falls inside the region")
    return float(np.max(np.asarray(func(pts))[inside]))


def block_normals(policy, b, n_steps):
    """Block b's standard normals, shape (BLOCK_SAMPLES, n_steps): the
    stream's reference definition, drawn row after row from
    ``policy.block_generator(b)``."""
    return policy.block_generator(b).standard_normal(out=empty_block(n_steps))


def whole_block(target, sampler, noise, x0, event, h, taus, rows):
    """One block's summaries, stepped whole on one thread; ``sampler`` None
    for a plain run."""
    n_steps = rows.shape[1]
    acc = None
    if sampler is not None:
        acc = WeightAccumulator(target, sampler, noise, h, n_steps, taus)
    terminal = evolve_block(sampler or target, noise, x0, n_steps, h, rows,
                            acc.observe if acc else None)
    ind = event.indicator(terminal)
    hits = int(np.count_nonzero(ind))
    if acc is None:
        return [EstimatorSummary.from_values(ind, "plain", hits)]
    w_ind = np.exp(np.where(ind > 0, acc.finalize(x0, terminal), -np.inf))
    return [EstimatorSummary.from_values(w, "importance", hits) for w in w_ind]


def serial_reference(target, sampler, noise, x0, event, h, taus, n, policy):
    """The run as whole blocks of :func:`block_normals`, merged in block order."""
    n_steps = steps_for(event.horizon, h)
    merged = None
    for b in range(policy.n_blocks(n)):
        rows = block_normals(policy, b, n_steps)[:n - b * BLOCK_SAMPLES]
        part = whole_block(target, sampler, noise, x0, event, h, taus, rows)
        merged = part if merged is None else [x.merge(y) for x, y in zip(merged, part)]
    return merged


def log_weight_stochastic_integral_form(states, increments, h, potential,
                                        sampling_potential, noise):
    """Weights of P~-paths under P via the classical stochastic integral,
    the oracle of the generator-form weight (AC-6).

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


def chain_escape(potential, noise, x0, region, horizon, h, cell=0.4):
    """P_h(A) = P(X_n outside D), n = horizon / h, for the Euler chain
    X_{i+1} = X_i - V'(X_i) h + sigma sqrt(h) xi_i from X_0 = x0: the
    chain the engine samples, not its continuous-time limit.

    The density of X_1 is exact.  Steps 2 .. n-1 apply the transition
    kernel K(x, y) = phi_{sigma^2 h}(y - x + V'(x) h) on a uniform grid of
    spacing ``cell`` * sigma sqrt(h) whose ends lie 10 sigma beyond D; K is
    stored as its band of diagonals within 12 sigma sqrt(h) of y = x, one
    row per destination point, and the sum over sources is a rectangle
    rule, which converges fast for a Gaussian kernel.  The last step is
    exact: the two normal tails of X_n beyond a and b, given X_{n-1}.
    """
    from scipy.special import ndtr
    n = steps_for(horizon, h)
    s = noise.sigma * math.sqrt(h)
    a, b = region.a, region.b

    def tails(x):
        mean = x - potential.gradient(x) * h
        return ndtr((a - mean) / s) + ndtr((mean - b) / s)

    if n == 1:
        return float(tails(float(x0)))
    pad = 10.0 * noise.sigma
    cells = math.ceil((b - a + 2 * pad) / (cell * s)) + 1
    x, dx = np.linspace(a - pad, b + pad, cells, retstep=True)
    w = math.ceil(12.0 * s / dx)
    # band[k, d] = K(x_j, x_k) dx from source j = k + d - w, which lies
    # (w - d) dx below x_k; sources off the grid hold no density
    sources = np.linspace(x[0] - w * dx, x[-1] + w * dx, cells + 2 * w)
    drift = sliding_window_view(potential.gradient(sources) * h, 2 * w + 1)
    z = ((w - np.arange(2 * w + 1)) * dx + drift) / s
    band = np.exp(-0.5 * z * z) * (dx / (s * math.sqrt(2 * math.pi)))
    p, q = np.zeros(cells + 2 * w), np.zeros(cells + 2 * w)
    z = (x - float(x0) + float(potential.gradient(float(x0))) * h) / s
    p[w:-w] = np.exp(-0.5 * z * z) / (s * math.sqrt(2 * math.pi))
    for _ in range(n - 2):
        np.einsum("kd,kd->k", sliding_window_view(p, 2 * w + 1), band,
                  out=q[w:-w])
        p, q = q, p
    return float(np.sum(p[w:-w] * tails(x)) * dx)
