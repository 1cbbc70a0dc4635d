"""Monte Carlo estimators of escape probabilities, plain and reweighted.

The target is P(A) for the escape event A = {X_T outside D} under the
Langevin dynamics of a potential V.  Two estimators are provided:

* plain:       average of the indicator over paths simulated under V;
* importance:  average of  w * indicator  over paths simulated under a
  sampling potential V~, with w = dP/dP~ the pathwise Girsanov weight in
  generator form.  The estimator is unbiased for every sampling potential
  admitted by the weight identity; a good V~ (e.g. the well flattened or
  inverted on D) makes escapes common and the weight small on them.

Runs stream over fixed noise blocks (see :class:`wellescape.sde.RngPolicy`)
and reduce mergeable moment summaries in block order, so results are
bit-for-bit independent of the worker count.  Efficiency diagnostics
follow the usual second-moment analysis: the relative error of the
importance estimator after N samples is sqrt((Lambda - P(A)^2) / N) / P(A)
with Lambda = E~[w^2 1_A] >= P(A)^2.  When V~ = V outside D and
|V~'| <= |V'| on D (the flattened and the inverted well both qualify),
the weight on A is at most

    W = exp( eps^-1 (V(x0) - V~(x0)) + T M ),
    M = 1/2 sup_D (Laplace V - Laplace V~),      eps = sigma^2,

so Lambda <= W P(A), and when W <= 1 the variance ratio to plain
sampling is at most W: an a-priori certificate of variance reduction
before any sampling is done.  :func:`theorem3_m` takes M on 4,001
points of the open interval D; ``validate`` prints that same M.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, SimulationError
from .girsanov import WeightAccumulator
from .potentials import NoiseScale
from .sde import BLOCK_SAMPLES, RngPolicy, evolve_block, steps_for


@dataclass(frozen=True)
class EscapeEvent:
    """The event that the path sits outside the region at the horizon."""

    region: object
    horizon: float

    def indicator(self, terminal):
        return 1.0 - self.region.indicator(terminal)


@dataclass
class EstimatorSummary:
    """Mergeable moment summary of per-sample estimator values.

    ``mean`` and ``m2`` are the running mean and sum of squared deviations
    (Welford); ``sum_w_ind`` and ``sum_w2_ind`` are the raw first and
    second moments of weight-times-indicator needed for the second-moment
    diagnostics; ``hits`` counts samples that realized the event.
    """

    n: int
    mean: float
    m2: float
    sum_w_ind: float
    sum_w2_ind: float
    hits: int
    kind: str

    @classmethod
    def from_values(cls, values, kind, hits=None):
        values = np.asarray(values, dtype=float)
        n = values.size
        mean = float(values.mean()) if n else 0.0
        m2 = float(((values - mean) ** 2).sum())
        if hits is None:
            hits = int(np.count_nonzero(values))
        return cls(
            n=n, mean=mean, m2=m2, sum_w_ind=float(values.sum()),
            sum_w2_ind=float((values**2).sum()), hits=int(hits), kind=kind,
        )

    def merge(self, other):
        """Combine two summaries as if their samples were pooled."""
        if self.kind != other.kind:
            raise ValueError(f"cannot merge {self.kind!r} with {other.kind!r}")
        if other.n == 0:
            return self
        if self.n == 0:
            return other
        n = self.n + other.n
        delta = other.mean - self.mean
        mean = self.mean + delta * other.n / n
        m2 = self.m2 + other.m2 + delta**2 * self.n * other.n / n
        return EstimatorSummary(
            n=n, mean=mean, m2=m2,
            sum_w_ind=self.sum_w_ind + other.sum_w_ind,
            sum_w2_ind=self.sum_w2_ind + other.sum_w2_ind,
            hits=self.hits + other.hits, kind=self.kind,
        )

    @property
    def variance(self):
        """Unbiased per-sample variance."""
        if self.n < 2:
            return float("nan")
        return self.m2 / (self.n - 1)

    @property
    def std_error(self):
        return math.sqrt(self.variance / self.n)

    @property
    def relative_error(self):
        if self.mean == 0.0:
            return None
        return self.std_error / self.mean

    @property
    def lambda_factor(self):
        """Lambda = n sum(w^2 1_A) / (sum w 1_A)^2, or None without weight."""
        if self.sum_w_ind > 0:
            return self.n * self.sum_w2_ind / self.sum_w_ind**2
        return None

    def variance_ratio(self, baseline):
        """Per-sample variance relative to ``baseline``'s, or None when the
        baseline's is zero or undefined (fewer than two samples)."""
        if not baseline.variance > 0:
            return None
        return self.variance / baseline.variance

    def zero_hit_upper_bound(self):
        """One-sided 95% 'rule of three' bound when no sample hit the event."""
        return 3.0 / self.n


def _finite(summaries):
    """``summaries``, if each n * sum(w^2 1_A) is finite: by Cauchy-Schwarz
    that bounds (sum w 1_A)^2, m2 and every merge term."""
    if not all(math.isfinite(s.n * s.sum_w2_ind) for s in summaries):
        raise SimulationError("importance weights overflow: n * sum(w^2 1_A) is "
                              "not finite; the sampler is too far from the target")
    return summaries


def _reduce_blocks(per_block, n_blocks, workers):
    if workers <= 1:
        results = [per_block(b) for b in range(n_blocks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(per_block, range(n_blocks)))
    merged = results[0]
    for r in results[1:]:
        merged = [a.merge(b) for a, b in zip(merged, r)]
    return merged


def _run(potential, sampling_potential, noise, x0, event, h, taus, n_samples,
         policy, workers):
    """Shared engine: simulate n_samples under the sampling law, summarize.

    Returns one summary per requested Riemann mesh (a single-entry list
    with tau None for plain runs).  All meshes share one simulation pass,
    and therefore one noise stream.
    """
    if n_samples < 1:
        raise ConfigurationError(f"n_samples must be at least 1, got {n_samples}")
    n_steps = steps_for(event.horizon, h)
    weighted = sampling_potential is not None
    sampler = sampling_potential if weighted else potential
    kind = "importance" if weighted else "plain"
    n_slots = len(taus) if weighted else 1

    def per_block(b):
        noise_block = policy.block_normals(b, n_steps)
        take = min(BLOCK_SAMPLES, n_samples - b * BLOCK_SAMPLES)
        if take < BLOCK_SAMPLES:
            noise_block = noise_block[:take]
        acc = None
        if weighted:
            acc = WeightAccumulator(
                potential, sampling_potential, noise, h, n_steps, taus
            )
        terminal = evolve_block(
            sampler, noise, x0, n_steps, h, noise_block,
            acc.observe if acc else None,
        )
        ind = event.indicator(terminal)
        hits = int(np.count_nonzero(ind))
        if not weighted:
            return [EstimatorSummary.from_values(ind, kind, hits)]
        logw = acc.finalize(x0, terminal)
        # 0 off the event, never inf * 0; _finite refuses an overflow on it
        with np.errstate(over="ignore", invalid="ignore"):
            w_ind = np.exp(np.where(ind > 0, logw, -np.inf))
            return _finite([EstimatorSummary.from_values(w_ind[j], kind, hits)
                            for j in range(n_slots)])

    return _finite(_reduce_blocks(per_block, policy.n_blocks(n_samples), workers))


def run_plain(potential, noise, x0, event, h, n_samples, policy, workers=1):
    """Vanilla Monte Carlo estimate of P(A) under the target dynamics."""
    return _run(potential, None, noise, x0, event, h, [None], n_samples,
                policy, workers)[0]


def run_importance(potential, sampling_potential, noise, x0, event, h, tau,
                   n_samples, policy, workers=1):
    """Reweighted estimate of P(A), sampling under ``sampling_potential``."""
    return _run(potential, sampling_potential, noise, x0, event, h, [tau],
                n_samples, policy, workers)[0]


def run_importance_meshes(potential, sampling_potential, noise, x0, event, h,
                          taus, n_samples, policy, workers=1):
    """Importance run evaluated at several Riemann meshes in one pass.

    All meshes see the same trajectories, so differences between the
    returned summaries isolate the effect of the weight discretization.
    """
    summaries = _run(potential, sampling_potential, noise, x0, event, h,
                     list(taus), n_samples, policy, workers)
    return dict(zip(taus, summaries))


def interior_grid(region):
    """4,001 points of the open interval D, one of them at its midpoint."""
    return np.linspace(region.a + 1e-9, region.b - 1e-9, 4001)


def theorem3_m(potential, sampling_potential, region):
    """Theorem 3's M = 1/2 sup_D (Laplace V - Laplace V~) on :func:`interior_grid`."""
    x = interior_grid(region)
    return 0.5 * float(np.max(potential.laplacian(x)
                              - sampling_potential.laplacian(x)))


def theorem3_bound(potential, sampling_potential, region, noise, horizon, x0):
    """A-priori bound on the variance ratio of importance to plain sampling.

    W = exp( eps^-1 (V(x0) - V~(x0)) + T M ) with
    M = 1/2 sup_D (Laplace V - Laplace V~) from :func:`theorem3_m`.  On
    the escape event V~(X_T) = V(X_T), and |V~'| <= |V'| on D makes the
    running integrand g_V - g_V~ at most sigma^2 (V'' - V~''), so every
    weight there is at most W.  When W <= 1 (``validate``'s noise
    condition) the variance ratio is then at most W.  An exponent too
    large for a float gives ``math.inf``, a true but vacuous bound.
    """
    m_const = theorem3_m(potential, sampling_potential, region)
    gap = float(potential.value(x0)) - float(sampling_potential.value(x0))
    try:
        return math.exp(gap / noise.epsilon + horizon * m_const)
    except OverflowError:
        return math.inf


class SweepRow(NamedTuple):
    """One noise level of :func:`small_noise_sweep`, in the CLI's column order."""

    epsilon: float
    n: int
    hits: int
    probability: float
    lambda_factor: float | None
    eps_log_lambda: float | None


def small_noise_sweep(potential, sampling_potential, region, x0, horizon, h,
                      tau, epsilons, n_samples, seed, workers=1):
    """Importance runs across noise levels, reporting eps * log(Lambda).

    For sampling schemes that keep the exit mechanism deterministic and
    flat on the boundary, eps * log(Lambda) tends to 0 as eps -> 0
    (asymptotic optimality); the rows returned here make that decay
    empirically checkable.  ``n_samples`` holds one sample count per
    entry of ``epsilons``; each level uses the derived master seed
    ``seed + its index``.
    """
    if len(n_samples) != len(epsilons):
        raise ConfigurationError(
            f"n_samples needs one entry per epsilon ({len(epsilons)}), "
            f"got {len(n_samples)}")
    rows = []
    for i, (eps, n) in enumerate(zip(epsilons, n_samples)):
        noise = NoiseScale(epsilon=eps)
        event = EscapeEvent(region, horizon)
        summary = run_importance(
            potential, sampling_potential, noise, x0, event, h, tau, n,
            RngPolicy(seed + i), workers,
        )
        if summary.hits < 100:
            warnings.warn(
                f"only {summary.hits} hits at eps={eps}; increase n_samples "
                "for a trustworthy Lambda estimate",
                stacklevel=2,
            )
        lam = summary.lambda_factor
        ell = eps * math.log(lam) if lam is not None else None
        rows.append(SweepRow(eps, n, summary.hits, summary.mean, lam, ell))
    return rows

