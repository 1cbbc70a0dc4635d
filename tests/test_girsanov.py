import numpy as np
import pytest

from wellescape.errors import ConfigurationError
from wellescape.girsanov import (
    WeightAccumulator,
    log_weight_generator_form,
    log_weight_stochastic_integral_form,
    mesh_stride,
)
from wellescape.potentials import (
    CosineWellPotential,
    Interval,
    LinearPotential,
    NoiseScale,
    QuadraticPotential,
    ZeroPotential,
    invert_on_region,
)
from wellescape.sde import RngPolicy, evolve_block, simulate, steps_for

SIGMA1 = NoiseScale(sigma=1.0)


def brownian_path(seed, x0=0.0, T=1.0, h=1e-3, sigma=SIGMA1):
    return simulate(ZeroPotential(), sigma, x0, T, h,
                    RngPolicy(seed).normals_for_sample(0, steps_for(T, h)))


def test_identical_potentials_have_zero_weight():
    V = CosineWellPotential()
    path = simulate(V, SIGMA1, 0.0, 1.0, 1e-2, RngPolicy(1).normals_for_sample(0, 100))
    w = log_weight_generator_form(path, V, V, SIGMA1, 1e-2)
    assert w.log_value == 0.0 and w.boundary_term == 0.0
    ws = log_weight_stochastic_integral_form(path, V, V, SIGMA1)
    assert ws.log_value == 0.0


def test_constant_shift_has_zero_weight():
    # adding a constant to the potential changes nothing measurable
    class Shifted(QuadraticPotential):
        def value(self, x):
            return super().value(x) + 3.0

    V = QuadraticPotential(k=1.0)
    Vc = Shifted(k=1.0)
    path = simulate(V, SIGMA1, 0.2, 0.5, 1e-2, RngPolicy(2).normals_for_sample(0, 50))
    w = log_weight_generator_form(path, V, Vc, SIGMA1, 1e-2)
    assert abs(w.log_value) < 1e-7


def test_linear_potential_weight_closed_form():
    # V = a x against Brownian motion (V~ = 0), sigma = 1:
    #   log w = a (x0 - X_T) - a^2 T / 2
    a, x0, T, h = 1.3, 0.4, 1.0, 1e-3
    path = brownian_path(3, x0, T, h)
    w = log_weight_generator_form(path, LinearPotential(a), ZeroPotential(), SIGMA1, h)
    expect = a * (x0 - path.terminal) - a**2 * T / 2
    assert w.log_value == pytest.approx(expect, abs=1e-10)
    assert w.boundary_term == pytest.approx(a * (x0 - path.terminal), abs=1e-12)
    assert w.running_integral == pytest.approx(-(a**2) * T / 2, abs=1e-10)


def test_generator_and_stochastic_forms_agree_for_linear_mismatch():
    # U = V~ - V linear: the discrete forms coincide to machine precision
    # at tau = h (the gradient terms cancel exactly through the update rule)
    a = 0.8
    V = LinearPotential(a)
    path = brownian_path(4, 0.0, 1.0, 1e-3)
    wg = log_weight_generator_form(path, V, ZeroPotential(), SIGMA1, 1e-3)
    ws = log_weight_stochastic_integral_form(path, V, ZeroPotential(), SIGMA1)
    assert wg.log_value == pytest.approx(ws.log_value, abs=1e-12)


def test_forms_converge_together_as_h_shrinks():
    # nonlinear mismatch: the two discretizations differ at the Riemann
    # error level, which shrinks with h
    V = QuadraticPotential(k=1.0)
    gaps = []
    for h in (1e-1, 1e-2, 1e-3):
        diffs = []
        for seed in range(20):
            path = simulate(
                ZeroPotential(), SIGMA1, 0.3, 1.0, h,
                RngPolicy(100 + seed).normals_for_sample(0, steps_for(1.0, h)),
            )
            wg = log_weight_generator_form(path, V, ZeroPotential(), SIGMA1, h)
            ws = log_weight_stochastic_integral_form(path, V, ZeroPotential(), SIGMA1)
            diffs.append(abs(wg.log_value - ws.log_value))
        gaps.append(np.mean(diffs))
    assert gaps[0] > gaps[1] > gaps[2]


def test_mesh_validation():
    assert mesh_stride(1e-2, 1e-3) == 10
    assert mesh_stride(1e-3, 1e-3, 1000) == 1
    with pytest.raises(ConfigurationError):
        mesh_stride(1.5e-3, 1e-3)
    with pytest.raises(ConfigurationError):
        mesh_stride(3e-3, 1e-3, 1000)  # 1000 steps not divisible by 3
    path = brownian_path(5, 0.0, 1.0, 1e-3)
    with pytest.raises(ConfigurationError):
        log_weight_generator_form(
            path, QuadraticPotential(), ZeroPotential(), SIGMA1, 2.5e-3
        )


def test_streaming_accumulator_matches_per_path_weights():
    V = CosineWellPotential()
    Vt = ZeroPotential()
    h, n_steps = 1e-3, 500
    taus = [1e-3, 1e-2, 1e-1]
    policy = RngPolicy(11)
    noise_block = policy.block_normals(0, n_steps)[:64]
    acc = WeightAccumulator(V, Vt, SIGMA1, h, n_steps, taus)
    terminal = evolve_block(Vt, SIGMA1, 0.0, n_steps, h, noise_block, acc.observe)
    logw = acc.finalize(0.0, terminal)
    assert logw.shape == (3, 64)
    for k in (0, 5, 63):
        path = simulate(Vt, SIGMA1, 0.0, n_steps * h, h, noise_block[k])
        for j, tau in enumerate(taus):
            ref = log_weight_generator_form(path, V, Vt, SIGMA1, tau)
            assert logw[j, k] == pytest.approx(ref.log_value, abs=1e-12)


def test_fused_accumulator_agrees_with_recorded_path_weights():
    # V~ patches this very V, so observe() reads both fields off one
    # evaluation of V and hands the step its drift
    V = CosineWellPotential()
    Vt = invert_on_region(V, Interval(-np.pi, np.pi))
    mean_gaps = []
    for h in (1e-2, 1e-3):
        n_steps = round(0.5 / h)
        policy = RngPolicy(17)
        noise_block = policy.block_normals(0, n_steps)[:16]
        acc = WeightAccumulator(V, Vt, SIGMA1, h, n_steps, [h])
        terminal = evolve_block(Vt, SIGMA1, 0.0, n_steps, h, noise_block,
                                acc.observe)
        logw = acc.finalize(0.0, terminal)[0]
        gaps = []
        for k in range(16):
            path = simulate(Vt, SIGMA1, 0.0, n_steps * h, h, noise_block[k])
            assert terminal[k] == path.terminal
            ref = log_weight_generator_form(path, V, Vt, SIGMA1, h)
            assert logw[k] == pytest.approx(ref.log_value, abs=1e-12)
            sto = log_weight_stochastic_integral_form(path, V, Vt, SIGMA1)
            gaps.append(abs(logw[k] - sto.log_value))
        mean_gaps.append(np.mean(gaps))
    # the AC-6 oracle: the stochastic-integral form closes in as h shrinks
    assert mean_gaps[1] < mean_gaps[0]


def test_weights_average_to_one_under_sampling_law():
    # E_P~ [dP/dP~] = 1: check with V quadratic against Brownian sampling
    V = QuadraticPotential(k=1.0)
    Vt = ZeroPotential()
    h, T, n = 1e-2, 0.5, 20_000
    n_steps = steps_for(T, h)
    policy = RngPolicy(13)
    weights = []
    for b in range(policy.n_blocks(n)):
        noise = policy.block_normals(b, n_steps)
        acc = WeightAccumulator(V, Vt, SIGMA1, h, n_steps, [h])
        X = evolve_block(Vt, SIGMA1, 0.5, n_steps, h, noise, acc.observe)
        weights.append(np.exp(acc.finalize(0.5, X)[0]))
    w = np.concatenate(weights)[:n]
    sem = w.std() / np.sqrt(n)
    assert abs(w.mean() - 1.0) < 4 * sem + 0.03  # statistical + O(h) bias margin
