import numpy as np
import pytest

from wellescape.errors import ConfigurationError, SimulationError
from wellescape.potentials import (
    LinearPotential,
    NoiseScale,
    PotentialField,
    QuadraticPotential,
    ZeroPotential,
)
from wellescape.sde import (
    BLOCK_SAMPLES,
    RngPolicy,
    evolve_block,
    simulate,
    steps_for,
)

SIGMA1 = NoiseScale(sigma=1.0)


def test_free_diffusion_is_a_random_walk():
    # V = 0: X_T = x0 + sigma sqrt(h) sum(xi), exactly
    rng = np.random.default_rng(11)
    xi = rng.standard_normal(100)
    path = simulate(ZeroPotential(), NoiseScale(sigma=0.6), 1.5, 0.1, 1e-3, xi)
    assert path.terminal == pytest.approx(1.5 + 0.6 * np.sqrt(1e-3) * xi.sum(), abs=1e-12)
    assert path.n_steps == 100
    assert np.allclose(path.increments, xi)


def test_constant_drift_shifts_linearly():
    # V = a x: drift is -a, deterministic part moves by -a T
    a = 2.0
    xi = np.zeros(50)
    path = simulate(LinearPotential(a), SIGMA1, 0.3, 0.5, 0.01, xi)
    assert path.terminal == pytest.approx(0.3 - a * 0.5, abs=1e-12)


def test_degenerate_noise_contracts_geometrically():
    # sigma = 0, V = k x^2 / 2: X_n = x0 (1 - k h)^n
    k, h, n = 1.0, 1e-2, 200
    path = simulate(
        QuadraticPotential(k), NoiseScale(sigma=0.0), 1.0, n * h, h, np.zeros(n)
    )
    assert path.terminal == pytest.approx((1 - k * h) ** n, rel=1e-12)


def test_recorded_increments_replay_the_path():
    V = QuadraticPotential(k=0.8)
    policy = RngPolicy(42)
    path = simulate(V, SIGMA1, 0.5, 1.0, 1e-2, policy.normals_for_sample(17, 100))
    replay = simulate(V, SIGMA1, 0.5, 1.0, 1e-2, path.increments)
    assert np.array_equal(path.states, replay.states)
    # and the recurrence holds at every step
    h = 1e-2
    drift = -V.gradient(path.states[:-1])
    steps = drift * h + np.sqrt(h) * path.increments
    assert np.allclose(np.diff(path.states), steps, atol=1e-12)


def test_streams_are_deterministic_and_distinct():
    policy = RngPolicy(123)
    a = policy.normals_for_sample(5, 64)
    b = policy.normals_for_sample(5, 64)
    assert np.array_equal(a, b)
    c = policy.normals_for_sample(6, 64)
    assert not np.array_equal(a, c)
    # sample k reads row k mod B of block k // B, independent of how many
    # samples are drawn around it
    k = BLOCK_SAMPLES + 3
    block = policy.block_normals(1, 64)
    assert np.array_equal(policy.normals_for_sample(k, 64), block[3])
    assert not np.array_equal(
        RngPolicy(124).normals_for_sample(5, 64), a
    )


def test_steps_for_rejects_off_grid_horizon():
    assert steps_for(1.0, 1e-3) == 1000
    assert steps_for(0.5, 0.01) == 50
    with pytest.raises(ConfigurationError,
                       match="horizon=1 must be a whole multiple of step=0.3"):
        steps_for(1.0, 0.3)


def test_blowup_raises_with_step_index():
    # inverted quartic: drift 4 x^3 runs away from a large start
    class Unstable(PotentialField):
        label = "unstable"

        def value(self, x):
            return -np.asarray(x) ** 4

        def gradient(self, x):
            return -4 * np.asarray(x) ** 3

        def laplacian(self, x):
            return -12 * np.asarray(x) ** 2

    V = Unstable()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError) as exc:
            simulate(V, SIGMA1, 5.0, 1.0, 0.1, np.zeros(10))
    assert exc.value.step is not None


def test_evolve_block_matches_per_sample_paths():
    V = QuadraticPotential(k=1.2)
    policy = RngPolicy(7)
    n_steps, h = 50, 1e-2
    noise_block = policy.block_normals(0, n_steps)
    terminal = evolve_block(V, SIGMA1, 0.4, n_steps, h, noise_block)
    for k in (0, 1, 99, BLOCK_SAMPLES - 1):
        path = simulate(V, SIGMA1, 0.4, n_steps * h, h, noise_block[k])
        assert terminal[k] == pytest.approx(path.terminal, abs=1e-12)


def test_ou_moments_match_exact_solution():
    # weak-convergence probe: OU process dX = -k X dt + sigma dW
    # E X_T = x0 e^{-kT},  Var X_T = sigma^2 (1 - e^{-2kT}) / (2k)
    k, x0, T, h = 1.0, 1.0, 1.0, 1e-3
    n_samples = 100_000
    policy = RngPolicy(2024)
    V = QuadraticPotential(k)
    n_steps = steps_for(T, h)
    terminals = []
    for b in range(policy.n_blocks(n_samples)):
        noise = policy.block_normals(b, n_steps)
        terminals.append(evolve_block(V, SIGMA1, x0, n_steps, h, noise))
    X = np.concatenate(terminals)[:n_samples]
    exact_mean = x0 * np.exp(-k * T)
    exact_var = (1 - np.exp(-2 * k * T)) / (2 * k)
    se_mean = np.sqrt(exact_var / n_samples)
    assert abs(X.mean() - exact_mean) < 4 * se_mean + 2 * k * h  # stat + bias margin
    assert abs(X.var() - exact_var) < 6 * exact_var / np.sqrt(n_samples) + 4 * h


def test_simulate_with_drift_constant_field():
    # V = -0.7 x: constant drift 0.7
    xi = np.random.default_rng(5).standard_normal(40)
    path = simulate(LinearPotential(-0.7), NoiseScale(sigma=0.3), 0.0, 0.4, 0.01, xi)
    expect = 0.7 * 0.4 + 0.3 * np.sqrt(0.01) * xi.sum()
    assert path.terminal == pytest.approx(expect, abs=1e-12)
