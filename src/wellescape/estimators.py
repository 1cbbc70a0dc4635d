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
and reduce mergeable moment summaries in block order.  One thread steps
every block in one reused noise buffer while a filler thread draws the
next slice into it.  A slice is a whole block when two blocks fit in
16 MiB (at most 256 steps), so the buffer holds two blocks; otherwise it
is a half-block, and the buffer holds one.  Either way a run allocates
that one buffer, whether or not it fails.
Efficiency diagnostics follow the usual second-moment analysis: the
relative error of the importance estimator after N samples is
sqrt((Lambda - P(A)^2) / N) / P(A) with Lambda = E~[w^2 1_A] >= P(A)^2.
When V~ = V outside D and |V~'| <= |V'| on D (the flattened and the
inverted well both qualify), the weight on A is at most

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
from .sde import BLOCK_SAMPLES, RngPolicy, empty_block, evolve_block, steps_for

#: the most bytes a run's noise buffer may take to hold two whole blocks
#: (n_steps <= 256); a longer run keeps one block and steps it in halves
_TWO_BLOCKS_MAX_BYTES = 16 * 2**20


def _slice_rows(n_steps):
    """Rows per step of a run of n_steps: a whole block when two of them
    take at most :data:`_TWO_BLOCKS_MAX_BYTES`, else half a block."""
    if 2 * BLOCK_SAMPLES * n_steps * 8 <= _TWO_BLOCKS_MAX_BYTES:
        return BLOCK_SAMPLES
    return BLOCK_SAMPLES // 2


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
    (Welford), merged pairwise (Chan, Golub & LeVeque); ``hits`` counts
    samples that realized the event.
    """

    n: int
    mean: float
    m2: float
    hits: int
    kind: str

    @classmethod
    def from_values(cls, values, kind, hits):
        values = np.asarray(values, dtype=float)
        n = values.size
        mean = float(values.mean()) if n else 0.0
        m2 = float(((values - mean) ** 2).sum())
        return cls(n=n, mean=mean, m2=m2, hits=int(hits), kind=kind)

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
        return EstimatorSummary(n=n, mean=mean, m2=m2,
                                hits=self.hits + other.hits, kind=self.kind)

    @property
    def sum_w_ind(self):
        """Sum of the values, sum(w 1_A) for an importance run."""
        return self.n * self.mean

    @property
    def sum_w2_ind(self):
        """Sum of the squared values, sum(w^2 1_A) for an importance run."""
        return self.m2 + self.n * self.mean * self.mean

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
        """Lambda = n sum(w^2 1_A) / (sum w 1_A)^2 = 1 + m2 / (n mean^2),
        or None without weight."""
        s = self.sum_w_ind
        if s > 0:
            return self.n * self.sum_w2_ind / (s * s)
        return None

    def variance_ratio(self, baseline):
        """Per-sample variance relative to ``baseline``'s, or None when the
        baseline's is zero or undefined (fewer than two samples)."""
        if not baseline.variance > 0:
            return None
        return self.variance / baseline.variance


def _finite(summaries, reported=False):
    """``summaries``, if each n * sum(w^2 1_A) is finite: by Cauchy-Schwarz
    that bounds (sum w 1_A)^2, m2 and every merge term.  A ``reported``
    summary's positive mean must also square to a normal float, or the
    squares behind Lambda and m2 are lost.  A block's mean may be that
    small while the run's is not, so blocks are not held to it."""
    if not all(math.isfinite(s.n * s.sum_w2_ind) for s in summaries):
        raise SimulationError("importance weights overflow: n * sum(w^2 1_A) is "
                              "not finite; the sampler is too far from the target")
    tiny = np.finfo(float).tiny
    for s in summaries if reported else ():
        if 0 < s.mean and s.mean * s.mean < tiny:
            raise SimulationError(
                f"importance weights underflow: the mean of w 1_A, {s.mean:.6g}, "
                f"squares to below {tiny:.6g}; the sampler is too far from "
                "the target")
    return summaries


def _run(potential, sampling_potential, noise, x0, event, h, taus, n_samples,
         policy):
    """Shared engine: simulate n_samples under the sampling law, summarize.

    Returns one summary per requested Riemann mesh (a single-entry list
    with tau None for plain runs).  All meshes share one simulation pass,
    and therefore one noise stream.

    The calling thread steps every block in order, slice by slice, in one
    noise buffer of two slices (:func:`_slice_rows`): slice k uses slot
    k mod 2, and a filler thread draws slice k + 1 into the other slot
    while slice k is stepped.  A slice is a whole block, or a half, rows
    [0, 2048) or [2048, 4096) cut at the last sample; a block's slices
    are drawn in order from its one generator, so they hold the block's
    rows of the stream (:mod:`wellescape.sde`).  The slices are made one
    ahead of the stepper, so the schedule does not grow with n_samples.
    A block's slices are joined before it is summarized, and each block's
    summaries merge in block order as it finishes.  A slice is stepped
    without per-step finiteness checks and tested once at its end; a
    slice that fails the test is stepped again in its own rows with the
    checks.  A failing block is drawn again whole into the same buffer
    and stepped at once with the checks, so the error raised is the one a
    serial whole-block run meets first.
    """
    if n_samples < 1:
        raise ConfigurationError(f"n_samples must be at least 1, got {n_samples}")
    n_steps = steps_for(event.horizon, h)
    weighted = sampling_potential is not None
    sampler = sampling_potential if weighted else potential
    kind = "importance" if weighted else "plain"
    rows = _slice_rows(n_steps)
    buffer = empty_block(n_steps, 2 * rows // BLOCK_SAMPLES)

    def take(b):
        return min(BLOCK_SAMPLES, n_samples - b * BLOCK_SAMPLES)

    # one accumulator for the run: its step arrays follow the rows stepped.
    # step is no closure over itself, so the run's arrays go when it ends
    acc = WeightAccumulator(potential, sampling_potential, noise, h, n_steps,
                            taus) if weighted else None

    def step(noise_block, passes=(False, True)):
        """Terminal states and log-weights (None for plain) of its rows."""
        # inf and nan are refused, not warned about.  A non-finite state or
        # integrand stays so to the end and makes its log-weight non-finite,
        # so an unchecked slice is tested once, on every row (an infinite
        # log-weight off the event would vanish under exp); one that fails is
        # stepped again checked, to name the step and point.  _finite refuses
        # weights that overflow on the event
        for checked in passes:
            if acc:
                acc.checked = checked
            with np.errstate(over="ignore", invalid="ignore"):
                terminal = evolve_block(
                    sampler, noise, x0, n_steps, h, noise_block,
                    acc.observe if acc else None, checked)
                logw = acc.finalize(x0, terminal) if acc else None
            if checked or np.isfinite(terminal).all() and (
                    logw is None or np.isfinite(logw).all()):
                return terminal, logw

    def summarize(parts):
        terminal = np.concatenate([t for t, _ in parts])
        ind = event.indicator(terminal)
        hits = int(np.count_nonzero(ind))
        if not weighted:
            return [EstimatorSummary.from_values(ind, kind, hits)]
        logw = np.concatenate([w for _, w in parts], axis=1)
        # 0 off the event, never inf * 0; _finite refuses an overflow on it
        with np.errstate(over="ignore", invalid="ignore"):
            w_ind = np.exp(np.where(ind > 0, logw, -np.inf))
            return _finite([EstimatorSummary.from_values(row, kind, hits)
                            for row in w_ind])

    def slices():
        """(its rows of the buffer, its block's generator, block, last) per
        slice: a block's slices share the generator, drawn from in order."""
        k = 0
        for b in range(policy.n_blocks(n_samples)):
            gen = policy.block_generator(b)
            for lo in range(0, take(b), rows):
                hi = min(lo + rows, take(b))
                slot = (k % 2) * rows
                yield buffer[slot:slot + hi - lo], gen, b, hi == take(b)
                k += 1

    parts = []
    merged = [EstimatorSummary(0, 0.0, 0.0, 0, kind) for _ in taus]
    try:
        # consecutive slices use the other slot: the next slice is drawn
        # while this one is stepped, into rows stepped before it
        schedule = slices()
        with ThreadPoolExecutor(1) as filler:
            this = next(schedule)
            drawn = filler.submit(this[1].standard_normal, out=this[0])
            while this:
                out, _, b, last = this
                drawn.result()
                this = next(schedule, None)
                if this:
                    drawn = filler.submit(this[1].standard_normal, out=this[0])
                parts.append(step(out))
                if last:
                    merged = [a.merge(c) for a, c in zip(merged, summarize(parts))]
                    parts = []
    except Exception as exc:
        failure = exc
    else:
        return _finite(merged, reported=True)
    # the filler has exited: redraw the block in place and step it checked
    policy.block_generator(b).standard_normal(out=buffer[:take(b)])
    summarize([step(buffer[:take(b)], (True,))])
    raise failure


def run_plain(potential, noise, x0, event, h, n_samples, policy):
    """Vanilla Monte Carlo estimate of P(A) under the target dynamics."""
    return _run(potential, None, noise, x0, event, h, [None], n_samples,
                policy)[0]


def run_importance(potential, sampling_potential, noise, x0, event, h, tau,
                   n_samples, policy):
    """Reweighted estimate of P(A), sampling under ``sampling_potential``."""
    return _run(potential, sampling_potential, noise, x0, event, h, [tau],
                n_samples, policy)[0]


def run_importance_meshes(potential, sampling_potential, noise, x0, event, h,
                          taus, n_samples, policy):
    """Importance run evaluated at several Riemann meshes in one pass.

    All meshes see the same trajectories, so differences between the
    returned summaries isolate the effect of the weight discretization.
    """
    summaries = _run(potential, sampling_potential, noise, x0, event, h,
                     list(taus), n_samples, policy)
    return dict(zip(taus, summaries))


def interior_grid(region):
    """4,001 points of the open interval D, one of them at its midpoint."""
    return np.linspace(region.a + 1e-9, region.b - 1e-9, 4001)


def theorem3_m(potential, sampling_potential, region):
    """Theorem 3's M = 1/2 sup_D (Laplace V - Laplace V~) on :func:`interior_grid`;
    for a patch V~ = s V on D, M = (1 - s)/2 sup_D Laplace V."""
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
                      tau, epsilons, n_samples, seed):
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
    rows, event = [], EscapeEvent(region, horizon)
    for i, (eps, n) in enumerate(zip(epsilons, n_samples)):
        summary = run_importance(potential, sampling_potential,
                                 NoiseScale(epsilon=eps), x0, event, h, tau, n,
                                 RngPolicy(seed + i))
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

