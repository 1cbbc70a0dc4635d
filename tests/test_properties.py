"""Property tests for the single Euler loop, the single Riemann sum, the
noise-scale conventions, the config echo, summary merges, the weight's
mean and the half-block run.

A recorded path is :func:`evolve_block` run on a one-row block, so its
states must equal, bit for bit, the rows the block loop passes through;
and the streaming accumulator's weight must equal, up to summation order,
a left-endpoint sum of ``generator_difference`` over those states at its
stride.  A noise scale given in any one convention reads the same in all
three, and a resolved config re-parses from its dump to an equal config.
Merging the summaries of any split of a sample, in any order, gives the
summary of the whole sample.  The stochastic-integral weight is exactly
the likelihood ratio of the Euler chains, so its sampled mean is 1 up to
Monte Carlo error.  A run's summary equals that of its whole blocks
stepped one after another and merged in block order.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    block_normals,
    log_weight_stochastic_integral_form,
    serial_reference,
)
from wellescape.config import MODES, POTENTIALS, SAMPLINGS, ExperimentConfig
from wellescape.estimators import EscapeEvent, EstimatorSummary, run_importance
from wellescape.girsanov import WeightAccumulator
from wellescape.potentials import (
    CosineWellPotential,
    Interval,
    NoiseScale,
    QuadraticPotential,
    flatten_on_region,
    generator_difference,
    invert_on_region,
)
from wellescape.sde import BLOCK_SAMPLES, RngPolicy, evolve_block

COSINE = CosineWellPotential()
WELL = Interval(-np.pi, np.pi)
# sampling potential -> the target it is reweighted to; flatten and invert
# patch COSINE itself, so the accumulator reads both fields off one
# evaluation of the target
PAIRS = {
    "cosine": (QuadraticPotential(k=1.3), COSINE),
    "flatten": (COSINE, flatten_on_region(COSINE, WELL)),
    "invert": (COSINE, invert_on_region(COSINE, WELL)),
}
NOISE = NoiseScale(sigma=0.8)
H = 1e-2


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(PAIRS)), seed=st.integers(0, 2**32 - 1),
       row=st.integers(0, BLOCK_SAMPLES - 1), n_steps=st.integers(1, 60),
       data=st.data())
def test_recorded_path_is_one_row_of_the_block_loop(name, seed, row, n_steps,
                                                    data):
    target, sampler = PAIRS[name]
    x0 = 0.1
    stride = data.draw(st.sampled_from(
        [m for m in range(1, n_steps + 1) if n_steps % m == 0]), label="stride")
    policy = RngPolicy(seed)
    block = block_normals(policy, 0, n_steps)
    acc = WeightAccumulator(target, sampler, NOISE, H, n_steps, [stride * H])
    rows = []

    def observe(i, X):
        rows.append(X[row].copy())
        return acc.observe(i, X)

    terminal = evolve_block(sampler, NOISE, x0, n_steps, H, block, observe)
    alone = []
    X_T = evolve_block(sampler, NOISE, x0, n_steps, H, block[row:row + 1],
                       lambda i, X: alone.append(X[0]))
    path = np.array(alone + [X_T[0]])
    assert np.array_equal(path, np.array(rows + [terminal[row]]))

    streamed = acc.finalize(x0, terminal)[0, row]
    g = generator_difference(target, sampler, NOISE, path[:-1:stride])[0]
    boundary = (target.value(x0) - target.value(path[-1])
                - sampler.value(x0) + sampler.value(path[-1]))
    per_path = (boundary + 0.5 * (stride * H) * g.sum()) / NOISE.sigma ** 2
    assert abs(streamed - per_path) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(s=st.floats(1e-150, 1e150))
def test_noise_scale_conventions_agree(s):
    scales = (NoiseScale(sigma=s), NoiseScale(epsilon=s * s),
              NoiseScale(beta=2 / (s * s)))
    for prop in ("sigma", "epsilon", "beta"):
        values = [getattr(n, prop) for n in scales]
        assert max(values) - min(values) <= 4 * math.ulp(max(values)), prop


_POSITIVE = st.floats(1e-3, 1e3)
_REAL = st.floats(-10.0, 10.0)


@st.composite
def valid_configs(draw):
    mode = draw(st.sampled_from(MODES))
    needs_sampler = mode in ("importance", "sweep")
    samplings = [s for s in SAMPLINGS if s != "none"] if needs_sampler else SAMPLINGS
    h = draw(st.sampled_from([1e-3, 1e-2, 0.05]))
    dt = draw(st.sampled_from([5e-4, 1e-3]))
    step = dt if mode == "fp" else h
    stride = draw(st.integers(1, 100))
    # the horizon holds whole Riemann cells: tau, or 100 h in table5
    cell = {"importance": stride, "sweep": stride, "table5": 100}.get(mode, 1)
    a = draw(_REAL)
    epsilons = tuple(draw(st.lists(_POSITIVE, min_size=1, max_size=4)))
    values = dict(
        mode=mode, potential=draw(st.sampled_from(POTENTIALS)),
        stiffness=draw(_POSITIVE), slope=draw(_REAL),
        sampling=draw(st.sampled_from(samplings)), x0=draw(_REAL),
        region=(a, a + draw(_POSITIVE)),
        T=step * (cell * draw(st.integers(1, 2000))), h=h, tau=h * stride, dt=dt,
        N=draw(st.integers(1, 10**7)),
        # seeds past 2**53 have no exact float; they must still re-parse
        seed=draw(st.integers(0, 2**32) | st.integers(2**53, 2**64)),
        workers=draw(st.integers(1, 8)),
        out=draw(st.sampled_from([None, "out.csv", "runs/a b.csv"])),
        y=draw(_REAL) if mode == "density" else draw(st.none() | _REAL),
        t=draw(st.none() | _POSITIVE), delta=draw(st.none() | _POSITIVE),
        n_cells=draw(st.integers(3, 10**5)), segments=draw(st.integers(2, 10**4)),
        epsilons=epsilons,
        sweep_n=draw(st.none() | st.tuples(
            *[st.integers(1, 10**6) for _ in epsilons])),
    )
    noise_key = draw(st.sampled_from([None, "sigma", "epsilon", "beta"]))
    if noise_key:
        values[noise_key] = draw(_POSITIVE)
    cfg = ExperimentConfig(**values)
    cfg.check()
    return cfg


@settings(max_examples=100, deadline=None)
@given(cfg=valid_configs())
def test_config_dump_reparses_to_an_equal_config(cfg, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "dump.cfg"
    path.write_text(cfg.dump())
    assert ExperimentConfig.from_file(str(path)) == cfg


def _fold(parts, order):
    merged = parts[order[0]]
    for i in order[1:]:
        merged = merged.merge(parts[i])
    return merged


@settings(max_examples=100, deadline=None)
@given(ks=st.lists(st.integers(0, 2**20), min_size=1, max_size=300),
       data=st.data())
def test_merge_is_associative_and_commutative_under_any_split(ks, data):
    # multiples of 1/1024 below 2**10, at most 300 of them: every partial
    # sum of the values and of their squares is exact in any order
    values = np.array(ks) / 1024.0
    cuts = sorted(data.draw(st.lists(st.integers(0, len(ks)), max_size=6),
                            label="cuts"))
    bounds = [0, *cuts, len(ks)]
    parts = [EstimatorSummary.from_values(values[a:b], "importance")
             for a, b in zip(bounds, bounds[1:])]
    whole = EstimatorSummary.from_values(values, "importance")
    order = data.draw(st.permutations(range(len(parts))), label="order")
    right = parts[-1]
    for part in reversed(parts[:-1]):
        right = part.merge(right)
    scale = float(np.max(values)) or 1.0
    for merged in (_fold(parts, range(len(parts))), _fold(parts, order), right):
        assert (merged.n, merged.hits) == (whole.n, whole.hits)
        assert abs(merged.mean - whole.mean) <= 1e-12 * scale
        assert abs(merged.m2 - whole.m2) <= 1e-12 * scale**2 * whole.n
        # the raw sums are read from the moments
        assert abs(merged.sum_w_ind - values.sum()) <= 1e-12 * scale * whole.n
        assert (abs(merged.sum_w2_ind - (values**2).sum())
                <= 1e-12 * scale**2 * whole.n)


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(sorted(PAIRS)), seed=st.integers(0, 2**32 - 1),
       n_steps=st.integers(1, 40))
def test_stochastic_integral_weight_has_mean_one(name, seed, n_steps):
    # w is the ratio of the two Euler chains' transition densities along
    # the sampled path: Delta X + V~' h = sigma sqrt(h) xi, so E~[w] = 1
    target, sampler = PAIRS[name]
    x0 = 1.0    # where the pairs' gradients differ by order one
    block = block_normals(RngPolicy(seed), 0, n_steps)
    states = np.empty((BLOCK_SAMPLES, n_steps + 1))

    def record(i, X):
        states[:, i] = X

    states[:, -1] = evolve_block(sampler, NOISE, x0, n_steps, H, block,
                                 record)
    w = np.exp(log_weight_stochastic_integral_form(states, block, H, target,
                                                   sampler, NOISE))
    se = w.std(ddof=1) / math.sqrt(w.size)
    assert abs(w.mean() - 1.0) <= 4 * se


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(sorted(PAIRS)), seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 3 * BLOCK_SAMPLES).filter(lambda n: n % BLOCK_SAMPLES))
def test_run_importance_equals_whole_serial_blocks(name, seed, n):
    target, sampler = PAIRS[name]
    event = EscapeEvent(Interval(-0.3, 0.5), 10 * H)    # hits are common
    got = run_importance(target, sampler, NOISE, 0.1, event, H, 5 * H, n,
                         RngPolicy(seed))
    assert [got] == serial_reference(target, sampler, NOISE, 0.1, event, H,
                                     (5 * H,), n, RngPolicy(seed))
