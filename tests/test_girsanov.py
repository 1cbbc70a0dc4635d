import tracemalloc

import numpy as np
import pytest

from _helpers import block_normals, log_weight_stochastic_integral_form
from wellescape.errors import ConfigurationError
from wellescape.girsanov import WeightAccumulator, mesh_stride
from wellescape.potentials import (
    CosineWellPotential,
    Interval,
    LinearPotential,
    NoiseScale,
    QuadraticPotential,
    ZeroPotential,
    flatten_on_region,
    generator_difference,
    invert_on_region,
)
from wellescape.sde import RngPolicy, evolve_block, steps_for

SIGMA1 = NoiseScale(sigma=1.0)


def recorded(sampler, x0, h, xi, acc=None):
    """States (B, n+1) of the rows of ``xi`` under ``sampler``; ``acc`` rides along."""
    n = xi.shape[1]
    states = np.empty((len(xi), n + 1))

    def observe(i, X):
        states[:, i] = X
        return acc.observe(i, X) if acc else None

    states[:, n] = evolve_block(sampler, SIGMA1, x0, n, h, xi, observe)
    return states


def brownian_draws(seed, T=1.0, h=1e-3):
    # a copy, so the rest of the 4096-row block is freed at once
    return block_normals(RngPolicy(seed), 0, steps_for(T, h))[:1].copy()


def test_identical_potentials_have_zero_weight():
    V = CosineWellPotential()
    xi = block_normals(RngPolicy(1), 0, 100)[:1]
    acc = WeightAccumulator(V, V, SIGMA1, 1e-2, 100, [1e-2])
    states = recorded(V, 0.0, 1e-2, xi, acc)
    X_T = states[:, -1]
    assert acc.finalize(0.0, X_T)[0, 0] == 0.0
    # finalize from x0 = X_T has a zero boundary term: the running part alone
    assert acc.finalize(X_T[0], X_T)[0, 0] == 0.0
    ws = log_weight_stochastic_integral_form(states, xi, 1e-2, V, V, SIGMA1)
    assert ws[0] == 0.0


def test_constant_shift_has_zero_weight():
    # adding a constant to the potential changes nothing measurable
    class Shifted(QuadraticPotential):
        def value(self, x):
            return super().value(x) + 3.0

    V = QuadraticPotential(k=1.0)
    Vc = Shifted(k=1.0)
    acc = WeightAccumulator(V, Vc, SIGMA1, 1e-2, 50, [1e-2])
    X_T = evolve_block(Vc, SIGMA1, 0.2, 50, 1e-2,
                       block_normals(RngPolicy(2), 0, 50)[:1], acc.observe)
    assert abs(acc.finalize(0.2, X_T)[0, 0]) < 1e-7


def test_linear_potential_weight_closed_form():
    # V = a x against Brownian motion (V~ = 0), sigma = 1:
    #   log w = a (x0 - X_T) - a^2 T / 2
    a, x0, T, h = 1.3, 0.4, 1.0, 1e-3
    acc = WeightAccumulator(LinearPotential(a), ZeroPotential(), SIGMA1, h, 1000, [h])
    X_T = evolve_block(ZeroPotential(), SIGMA1, x0, 1000, h, brownian_draws(3, T, h),
                       acc.observe)
    w = acc.finalize(x0, X_T)[0, 0]
    running = acc.finalize(X_T, X_T)[0, 0]
    expect = a * (x0 - X_T[0]) - a**2 * T / 2
    assert w == pytest.approx(expect, abs=1e-10)
    assert w - running == pytest.approx(a * (x0 - X_T[0]), abs=1e-12)
    assert running == pytest.approx(-(a**2) * T / 2, abs=1e-10)


def test_finalize_accepts_an_array_start_point():
    # x0 as a one-element array, such as X_T of a one-row block, gives the
    # scalar call's log-weights bit for bit
    V = CosineWellPotential()
    ref = invert_on_region(V, Interval(-np.pi, np.pi))
    acc = WeightAccumulator(V, ref, SIGMA1, 1e-2, 100, [1e-2, 1e-1])
    X_T = evolve_block(ref, SIGMA1, 0.0, 100, 1e-2,
                       block_normals(RngPolicy(6), 0, 100)[:8], acc.observe)
    scalar = acc.finalize(0.0, X_T)
    assert np.array_equal(acc.finalize(np.array([0.0]), X_T), scalar)
    assert np.array_equal(acc.finalize(np.zeros(8), X_T), scalar)


def test_generator_and_stochastic_forms_agree_for_linear_mismatch():
    # U = V~ - V linear: the discrete forms coincide to machine precision
    # at tau = h (the gradient terms cancel exactly through the update rule)
    a = 0.8
    V = LinearPotential(a)
    xi = brownian_draws(4)
    acc = WeightAccumulator(V, ZeroPotential(), SIGMA1, 1e-3, 1000, [1e-3])
    states = recorded(ZeroPotential(), 0.0, 1e-3, xi, acc)
    wg = acc.finalize(0.0, states[:, -1])[0]
    ws = log_weight_stochastic_integral_form(states, xi, 1e-3, V, ZeroPotential(),
                                             SIGMA1)
    assert wg[0] == pytest.approx(ws[0], abs=1e-12)


def test_forms_converge_together_as_h_shrinks():
    # nonlinear mismatch: the two discretizations differ at the Riemann
    # error level, which shrinks with h
    V = QuadraticPotential(k=1.0)
    gaps = []
    for h in (1e-1, 1e-2, 1e-3):
        # one path per seed, run side by side as the rows of one block
        xi = np.concatenate([brownian_draws(100 + seed, 1.0, h) for seed in range(20)])
        acc = WeightAccumulator(V, ZeroPotential(), SIGMA1, h, steps_for(1.0, h), [h])
        states = recorded(ZeroPotential(), 0.3, h, xi, acc)
        wg = acc.finalize(0.3, states[:, -1])[0]
        ws = log_weight_stochastic_integral_form(states, xi, h, V, ZeroPotential(),
                                                 SIGMA1)
        gaps.append(np.mean(np.abs(wg - ws)))
    assert gaps[0] > gaps[1] > gaps[2]


def test_mesh_validation():
    assert mesh_stride(1e-2, 1e-3) == 10
    assert mesh_stride(1e-3, 1e-3, 1000) == 1
    with pytest.raises(ConfigurationError):
        mesh_stride(1.5e-3, 1e-3)
    with pytest.raises(ConfigurationError):
        mesh_stride(3e-3, 1e-3, 1000)  # 1000 steps not divisible by 3
    with pytest.raises(ConfigurationError):
        WeightAccumulator(QuadraticPotential(), ZeroPotential(), SIGMA1, 1e-3,
                          1000, [2.5e-3])


def _riemann_weight(V, Vt, x0, states, m, h):
    """The generator-form weight as one left-endpoint sum over the recorded
    states at stride m (sigma = 1)."""
    g = generator_difference(V, Vt, SIGMA1, states[:, :-1:m])[0]
    X_T = states[:, -1]
    boundary = V.value(x0) - V.value(X_T) - Vt.value(x0) + Vt.value(X_T)
    return boundary + 0.5 * (m * h) * g.sum(axis=1)


def test_streaming_accumulator_matches_per_path_weights():
    # each stride's sum takes the integrand exactly on its own due steps
    V = CosineWellPotential()
    Vt = ZeroPotential()
    h, n_steps = 1e-3, 500
    taus = [1e-3, 1e-2, 1e-1]
    noise_block = block_normals(RngPolicy(11), 0, n_steps)[:64]
    acc = WeightAccumulator(V, Vt, SIGMA1, h, n_steps, taus)
    states = recorded(Vt, 0.0, h, noise_block, acc)
    logw = acc.finalize(0.0, states[:, -1])
    assert logw.shape == (3, 64)
    assert acc.strides == [1, 10, 100]
    for j, m in enumerate(acc.strides):
        ref = _riemann_weight(V, Vt, 0.0, states, m, h)
        assert np.abs(logw[j] - ref).max() <= 1e-12


def test_fused_accumulator_agrees_with_recorded_path_weights():
    # V~ patches this very V, so observe() reads both fields off one
    # evaluation of V and hands the step its drift
    V = CosineWellPotential()
    Vt = invert_on_region(V, Interval(-np.pi, np.pi))
    mean_gaps = []
    for h in (1e-2, 1e-3):
        n_steps = round(0.5 / h)
        noise_block = block_normals(RngPolicy(17), 0, n_steps)[:16]
        acc = WeightAccumulator(V, Vt, SIGMA1, h, n_steps, [h])
        states = recorded(Vt, 0.0, h, noise_block, acc)
        logw = acc.finalize(0.0, states[:, -1])[0]
        # the fused drift moves the block exactly as V~'s own gradient does
        assert np.array_equal(
            states[:, -1], evolve_block(Vt, SIGMA1, 0.0, n_steps, h, noise_block))
        ref = _riemann_weight(V, Vt, 0.0, states, 1, h)
        assert np.abs(logw - ref).max() <= 1e-12
        sto = log_weight_stochastic_integral_form(states, noise_block, h, V, Vt,
                                                  SIGMA1)
        mean_gaps.append(np.mean(np.abs(logw - sto)))
    # the AC-6 oracle: the stochastic-integral form closes in as h shrinks
    assert mean_gaps[1] < mean_gaps[0]


def test_stochastic_form_of_a_batch_is_its_rows_evaluated_alone():
    V = CosineWellPotential()
    Vt = invert_on_region(V, Interval(-np.pi, np.pi))
    h, n = 1e-2, 50
    xi = block_normals(RngPolicy(23), 0, n)[:33]
    states = recorded(Vt, 0.2, h, xi)
    batch = log_weight_stochastic_integral_form(states, xi, h, V, Vt, SIGMA1)
    assert batch.shape == (33,)
    for k in range(33):
        alone = log_weight_stochastic_integral_form(states[k], xi[k], h, V, Vt,
                                                    SIGMA1)
        assert batch[k] == alone
    with pytest.raises(ValueError, match="do not fit"):
        log_weight_stochastic_integral_form(states, xi[:, 1:], h, V, Vt, SIGMA1)
    with pytest.raises(ValueError, match="do not fit"):
        log_weight_stochastic_integral_form(states[:3], xi, h, V, Vt, SIGMA1)


def test_weights_average_to_one_under_sampling_law():
    # E_P~ [dP/dP~] = 1: check with V quadratic against Brownian sampling
    V = QuadraticPotential(k=1.0)
    Vt = ZeroPotential()
    h, T, n = 1e-2, 0.5, 20_000
    n_steps = steps_for(T, h)
    policy = RngPolicy(13)
    weights = []
    for b in range(policy.n_blocks(n)):
        noise = block_normals(policy, b, n_steps)
        acc = WeightAccumulator(V, Vt, SIGMA1, h, n_steps, [h])
        X = evolve_block(Vt, SIGMA1, 0.5, n_steps, h, noise, acc.observe)
        weights.append(np.exp(acc.finalize(0.5, X)[0]))
    w = np.concatenate(weights)[:n]
    sem = w.std() / np.sqrt(n)
    assert abs(w.mean() - 1.0) < 4 * sem + 0.03  # statistical + O(h) bias margin


class _Keeping(CosineWellPotential):
    """The cosine well, keeping every array it returns beside a copy."""

    def __init__(self):
        self.kept = []

    def _keep(self, *arrays):
        self.kept += [(a, a.copy()) for a in arrays]
        return arrays

    def gradient(self, x):
        return self._keep(super().gradient(x))[0]

    def derivatives(self, x, out=None):
        return self._keep(*super().derivatives(x))


class _Identity(QuadraticPotential):
    """x^2 / 2, whose gradient is its argument itself and whose Laplacian
    is one cached array."""

    def __init__(self):
        super().__init__(1.0)
        self.ones = None

    def gradient(self, x):
        return x

    def laplacian(self, x):
        if self.ones is None:
            self.ones = np.ones(np.shape(x))
        return self.ones


@pytest.mark.parametrize("sampler", ["invert", "flatten", "invert-copy",
                                     "identity"])
def test_fields_that_keep_their_arrays_step_as_copying_fields_do(sampler):
    # the engine never writes into an array a field returned: a field that
    # keeps them gives the copying field's states and log-weights bit for
    # bit, and finds them unchanged afterwards
    h, n_steps = 1e-2, 50
    noise_block = block_normals(RngPolicy(17), 0, n_steps)[:64]
    D = Interval(-np.pi, np.pi)
    patch = flatten_on_region if sampler == "flatten" else invert_on_region
    if sampler == "identity":
        V, identity = CosineWellPotential(), _Identity()
        pairs = [(V, QuadraticPotential(1.0)), (V, identity)]
    else:
        base = _Keeping()
        target = _Keeping() if sampler == "invert-copy" else base
        plain = CosineWellPotential()
        copy = CosineWellPotential() if sampler == "invert-copy" else plain
        pairs = [(plain, patch(copy, D)), (target, patch(base, D))]
    runs = []
    for V, Vt in pairs:
        acc = WeightAccumulator(V, Vt, SIGMA1, h, n_steps, [h, 5 * h],
                                checked=False)
        X = evolve_block(Vt, SIGMA1, 0.3, n_steps, h, noise_block, acc.observe,
                         checked=False)
        runs.append((X, acc.finalize(0.3, X)))
    (X0, w0), (X1, w1) = runs
    assert np.array_equal(X0, X1) and np.array_equal(w0, w1)
    if sampler == "identity":
        assert np.array_equal(identity.ones, np.ones(64))
        return
    kept = base.kept + (target.kept if target is not base else [])
    assert len(kept) >= 2 * n_steps
    assert all(np.array_equal(a, b) for a, b in kept)


@pytest.mark.parametrize("patch", [flatten_on_region, invert_on_region])
def test_an_unchecked_patched_step_calls_no_where(patch, monkeypatch):
    V = CosineWellPotential()
    Vt = patch(V, Interval(-np.pi, np.pi))
    noise_block = block_normals(RngPolicy(5), 0, 100)[:256]
    acc = WeightAccumulator(V, Vt, SIGMA1, 1e-2, 100, [1e-2], checked=False)
    calls = []
    where = np.where

    def counting(*args, **kwargs):
        calls.append(args)
        return where(*args, **kwargs)

    monkeypatch.setattr(np, "where", counting)
    evolve_block(Vt, SIGMA1, 0.0, 100, 1e-2, noise_block, acc.observe,
                 checked=False)
    assert len(calls) == 0


class _InPlaceWell(CosineWellPotential):
    """The cosine well with (V', V'') = (sin x, cos x) written into
    ``out``: a field with no scratch of its own."""

    def derivatives(self, x, out=None):
        g, lap = (np.empty(np.shape(x)), np.empty(np.shape(x))) \
            if out is None else out
        return np.sin(x, out=g), np.cos(x, out=lap)


@pytest.mark.parametrize("patch", [flatten_on_region, invert_on_region])
def test_a_partial_mask_step_allocates_no_array(patch, monkeypatch):
    # 4096 points, some outside D: past the first step an unchecked
    # observe holds less than two boolean rows at once, the indicator's
    # one and no more, and the integrand is zeroed off D under the
    # complement of D formed in the step's own mask array
    V = _InPlaceWell()
    Vt = patch(V, Interval(-np.pi, np.pi))
    x = np.random.default_rng(4).uniform(-4, 4, 4096)
    assert not Vt.region.indicator(x).all()
    acc = WeightAccumulator(V, Vt, SIGMA1, 1e-2, 10, [1e-2], checked=False)
    acc.observe(0, x)
    outs, logical_not = [], np.logical_not

    def spy(*args, **kwargs):
        outs.append(kwargs.get("out"))
        return logical_not(*args, **kwargs)

    monkeypatch.setattr(np, "logical_not", spy)
    tracemalloc.start()
    try:
        for i in range(1, 10):
            acc.observe(i, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * x.size
    assert len(outs) == 9 and all(out is acc._arrays[2] for out in outs)


def test_observe_hands_the_step_one_array_it_owns():
    # the library cosine fills the (V', V'') it is given; across steps and
    # halves of one size, an unchecked patched accumulator returns one
    # V~' array of its own, valid until the next observe
    V = CosineWellPotential()
    Vt = invert_on_region(V, Interval(-np.pi, np.pi))
    noise_block = block_normals(RngPolicy(8), 0, 20)[:64]
    x = noise_block[:, 0].copy()
    out = (np.empty(64), np.empty(64))
    got = V.derivatives(x, out=out)
    assert got[0] is out[0] and got[1] is out[1]
    assert all(np.array_equal(a, b) for a, b in zip(got, V.derivatives(x)))
    acc = WeightAccumulator(V, Vt, SIGMA1, 1e-2, 20, [1e-2], checked=False)
    grads = []

    def observe(i, X):
        grad = acc.observe(i, X)
        assert np.array_equal(grad, Vt.gradient(X))
        assert not np.shares_memory(grad, X)
        grads.append(grad)
        return grad

    for half in (noise_block[:32], noise_block[32:]):
        evolve_block(Vt, SIGMA1, 0.0, 20, 1e-2, half, observe, checked=False)
    assert len(grads) == 40 and all(g is grads[0] for g in grads)
