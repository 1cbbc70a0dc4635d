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
    steps_for,
)

SIGMA1 = NoiseScale(sigma=1.0)


def test_free_diffusion_is_a_random_walk():
    # V = 0: X_T = x0 + sigma sqrt(h) sum(xi), exactly
    rng = np.random.default_rng(11)
    xi = rng.standard_normal(100)
    # a horizon of 0.1 at h = 1e-3 takes all 100 draws
    X = evolve_block(ZeroPotential(), NoiseScale(sigma=0.6), 1.5, steps_for(0.1, 1e-3),
                     1e-3, xi[None])
    assert X[0] == pytest.approx(1.5 + 0.6 * np.sqrt(1e-3) * xi.sum(), abs=1e-12)


def test_constant_drift_shifts_linearly():
    # V = a x: drift is -a, deterministic part moves by -a T
    a = 2.0
    X = evolve_block(LinearPotential(a), SIGMA1, 0.3, 50, 0.01, np.zeros((1, 50)))
    assert X[0] == pytest.approx(0.3 - a * 0.5, abs=1e-12)


def test_degenerate_noise_contracts_geometrically():
    # a zero noise block, V = k x^2 / 2: X_n = x0 (1 - k h)^n
    k, h, n = 1.0, 1e-2, 200
    X = evolve_block(QuadraticPotential(k), SIGMA1, 1.0, n, h, np.zeros((1, n)))
    assert X[0] == pytest.approx((1 - k * h) ** n, rel=1e-12)


def test_recorded_increments_replay_the_path():
    # row 17 of a block, run again alone on its own draws, passes through
    # the same states bit for bit
    V = QuadraticPotential(k=0.8)
    h, n = 1e-2, 100
    block = RngPolicy(42).block_normals(0, n)
    rows, alone = [], []
    X_T = evolve_block(V, SIGMA1, 0.5, n, h, block, lambda i, X: rows.append(X[17]))
    X_T1 = evolve_block(V, SIGMA1, 0.5, n, h, block[17:18],
                        lambda i, X: alone.append(X[0]))
    path = np.array(alone + [X_T1[0]])
    assert np.array_equal(path, rows + [X_T[17]])
    # and the recurrence holds at every step
    drift = -V.gradient(path[:-1])
    steps = drift * h + np.sqrt(h) * block[17]
    assert np.allclose(np.diff(path), steps, atol=1e-12)


def test_streams_are_deterministic_and_distinct():
    policy = RngPolicy(123)
    a = policy.block_normals(0, 64)
    assert np.array_equal(a, policy.block_normals(0, 64))
    assert a.shape == (BLOCK_SAMPLES, 64)
    assert not np.array_equal(a[5], a[6])
    # each block has its own stream, and so does each master seed
    assert not np.array_equal(policy.block_normals(1, 64)[5], a[5])
    assert not np.array_equal(RngPolicy(124).block_normals(0, 64)[5], a[5])


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
            evolve_block(V, SIGMA1, 5.0, 10, 0.1, np.zeros((1, 10)))
    assert exc.value.step is not None


def test_evolve_block_matches_per_sample_paths():
    V = QuadraticPotential(k=1.2)
    policy = RngPolicy(7)
    n_steps, h = 50, 1e-2
    noise_block = policy.block_normals(0, n_steps)
    terminal = evolve_block(V, SIGMA1, 0.4, n_steps, h, noise_block)
    for k in (0, 1, 99, BLOCK_SAMPLES - 1):
        alone = evolve_block(V, SIGMA1, 0.4, n_steps, h, noise_block[k:k + 1])
        assert terminal[k] == pytest.approx(alone[0], abs=1e-12)


def test_in_place_step_leaves_the_noise_untouched():
    # evolve_block updates its state array in place; the draws it reads
    # stay what was passed in, whole block or one row
    V = QuadraticPotential(k=1.2)
    noise_block = RngPolicy(3).block_normals(0, 20)
    kept = noise_block.copy()
    seen = []
    terminal = evolve_block(V, SIGMA1, 0.4, 20, 1e-2, noise_block,
                            lambda i, X: seen.append(X.copy()))
    assert np.array_equal(noise_block, kept)
    assert len(seen) == 20 and not np.array_equal(seen[0], seen[-1])
    xi = kept[5:6].copy()
    alone = evolve_block(V, SIGMA1, 0.4, 20, 1e-2, xi)
    assert np.array_equal(xi, kept[5:6])
    assert alone[0] == terminal[5]


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
    X = evolve_block(LinearPotential(-0.7), NoiseScale(sigma=0.3), 0.0, 40, 0.01,
                     xi[None])
    expect = 0.7 * 0.4 + 0.3 * np.sqrt(0.01) * xi.sum()
    assert X[0] == pytest.approx(expect, abs=1e-12)
