"""Property tests for the single Euler loop and the single Riemann sum.

A recorded path is :func:`evolve_block` run on a one-row block, so its
states must equal, bit for bit, the rows the block loop passes through;
and the per-path generator-form weight must equal the streaming
accumulator's up to summation order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wellescape.girsanov import WeightAccumulator, log_weight_generator_form
from wellescape.potentials import (
    CosineWellPotential,
    Interval,
    NoiseScale,
    QuadraticPotential,
    flatten_on_region,
    invert_on_region,
)
from wellescape.sde import BLOCK_SAMPLES, RngPolicy, evolve_block, simulate

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
    block = policy.block_normals(0, n_steps)
    acc = WeightAccumulator(target, sampler, NOISE, H, n_steps, [stride * H])
    rows = []

    def observe(i, X):
        rows.append(X[row].copy())
        return acc.observe(i, X)

    terminal = evolve_block(lambda x: -np.asarray(sampler.gradient(x)), NOISE,
                            x0, n_steps, H, block, observe)
    path = simulate(sampler, NOISE, x0, n_steps * H, H,
                    policy.normals_for_sample(row, n_steps))
    assert np.array_equal(path.states, np.array(rows + [terminal[row]]))

    streamed = acc.finalize(x0, terminal)[0, row]
    per_path = log_weight_generator_form(path, target, sampler, NOISE, stride * H)
    assert abs(streamed - per_path.log_value) <= 1e-12
