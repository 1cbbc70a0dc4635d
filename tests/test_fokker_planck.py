import math

import numpy as np
import pytest

from wellescape.errors import SolverError
from wellescape.fokker_planck import (
    escape_probability,
    evolve,
    gaussian_bump,
    integrate_density,
)
from wellescape.potentials import (
    CosineWellPotential,
    Interval,
    NoiseScale,
    QuadraticPotential,
    ZeroPotential,
)

SIGMA1 = NoiseScale(sigma=1.0)


def stationary_density(potential, noise, x):
    """Gibbs density exp(-2 V / sigma^2), normalized so sum(p) * dx = 1."""
    v = np.asarray(potential.value(x), dtype=float)
    p = np.exp(-2.0 * (v - v.min()) / noise.sigma**2)
    dx = float(x[1] - x[0])
    return p / (p.sum() * dx)


def _normal_pdf(x, mean, var):
    return np.exp(-((x - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


def test_free_diffusion_matches_heat_kernel():
    s0 = 0.05
    grid = evolve(ZeroPotential(), SIGMA1, gaussian_bump(0.3, s0), (-5.0, 5.0),
                  2001, 0.2, 4e-4, smooth_start=False)
    exact = _normal_pdf(grid.x, 0.3, s0**2 + 0.2)
    err = np.max(np.abs(grid.density - exact)) / exact.max()
    assert err < 1e-4


def test_ou_relaxation_matches_exact_gaussian():
    m0, s0, t = 0.8, 0.3, 0.5
    grid = evolve(QuadraticPotential(k=1.0), SIGMA1, gaussian_bump(m0, s0),
                  (-5.0, 5.0), 2001, t, 4e-4)
    mean = m0 * math.exp(-t)
    var = s0**2 * math.exp(-2 * t) + 0.5 * (1 - math.exp(-2 * t))
    exact = _normal_pdf(grid.x, mean, var)
    err = np.max(np.abs(grid.density - exact)) / exact.max()
    assert err < 1e-3


def test_long_time_limit_is_gibbs_density():
    V = CosineWellPotential()
    grid = evolve(V, SIGMA1, gaussian_bump(0.5, 0.4), (-math.pi, math.pi),
                  1001, 15.0, 2e-3)
    gibbs = stationary_density(V, SIGMA1, grid.x)
    err = np.max(np.abs(grid.density / grid.mass - gibbs)) / gibbs.max()
    assert err < 1e-3


@pytest.mark.filterwarnings("ignore:grid spacing")
def test_second_order_spatial_convergence():
    s0, t = 0.05, 0.1
    errs = []
    for n in (401, 801, 1601):
        grid = evolve(ZeroPotential(), SIGMA1, gaussian_bump(0.0, s0),
                      (-2.0, 2.0), n, t, 2.5e-4, smooth_start=False)
        exact = _normal_pdf(grid.x, 0.0, s0**2 + t)
        errs.append(np.max(np.abs(grid.density - exact)) / exact.max())
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_reflecting_walls_conserve_mass():
    grid = evolve(CosineWellPotential(), SIGMA1, gaussian_bump(0.0, 0.2),
                  (-math.pi, math.pi), 1001, 1.0, 1e-3)
    assert grid.mass == pytest.approx(1.0, abs=1e-9)
    assert grid.clamped_mass == pytest.approx(0.0, abs=1e-12)
    assert grid.time == pytest.approx(1.0)
    assert grid.dx == pytest.approx(2 * math.pi / 1000)


def test_escape_probability_free_diffusion():
    # X_T ~ N(0, T): P(|X_T| > 1) = 2 Phi(-1)
    p = escape_probability(ZeroPotential(), SIGMA1, 0.0, Interval(-1.0, 1.0), 1.0)
    exact = 2 * (1 - 0.5 * (1 + math.erf(1 / math.sqrt(2))))
    assert p == pytest.approx(exact, rel=1e-4)


def test_cosine_well_escape_reference_value():
    # pinned high-resolution solver output for the sigma = 1, T = 1 well
    p = escape_probability(CosineWellPotential(), SIGMA1, 0.0,
                           Interval(-math.pi, math.pi), 1.0)
    assert p == pytest.approx(1.9094103707861798e-4, rel=1e-6)


def test_factored_steps_match_banded_solves():
    # reference: every step solved with solve_banded, refactoring the matrix
    from scipy.linalg import solve_banded

    from wellescape.fokker_planck import _apply, _operator_diagonals

    V, x, dt, n = CosineWellPotential(), np.linspace(-4.0, 4.0, 801), 2e-3, 40
    lower, main, upper = _operator_diagonals(V, SIGMA1, x)
    scale = -0.5 * dt
    ab = np.zeros((3, x.size))
    ab[0, 1:] = scale * upper[:-1]
    ab[1] = 1.0 + scale * main
    ab[2, :-1] = scale * lower[1:]
    p = gaussian_bump(0.0, 0.2)(x).copy()
    p /= p.sum() * float(x[1] - x[0])
    for _ in range(2):
        p = solve_banded((1, 1), ab, p)
    rhs = (0.5 * dt * lower, 1.0 + 0.5 * dt * main, 0.5 * dt * upper)
    for _ in range(n - 1):
        p = solve_banded((1, 1), ab, _apply(*rhs, p))
    grid = evolve(V, SIGMA1, gaussian_bump(0.0, 0.2), (-4.0, 4.0), 801, n * dt, dt)
    assert np.array_equal(grid.density, np.clip(p, 0.0, None))


def test_nan_potential_raises_solver_error():
    bad = QuadraticPotential(k=np.nan)
    with pytest.raises(SolverError):
        evolve(bad, SIGMA1, gaussian_bump(0.0, 0.2), (-1.0, 1.0), 401, 0.1, 1e-3)


def test_coarse_grid_warns():
    with pytest.warns(UserWarning):
        evolve(ZeroPotential(), SIGMA1, gaussian_bump(0.0, 0.2), (-1.0, 1.0),
               51, 1e-3, 1e-5)


def test_integrate_density_partial_intervals():
    grid = evolve(ZeroPotential(), SIGMA1, gaussian_bump(0.0, 0.1), (-3.0, 3.0),
                  1201, 0.1, 5e-4)
    total = integrate_density(grid, -3.0, 3.0)
    assert total == pytest.approx(grid.mass, rel=1e-6)
    left = integrate_density(grid, -3.0, 0.0)
    assert left == pytest.approx(total / 2, rel=1e-6)
    assert integrate_density(grid, 1.0, 0.0) == 0.0
    # clamps to the grid
    assert integrate_density(grid, -99.0, 99.0) == pytest.approx(total, rel=1e-9)


def test_stationary_density_is_normalized():
    x = np.linspace(-math.pi, math.pi, 2001)
    p = stationary_density(CosineWellPotential(), SIGMA1, x)
    assert p.sum() * (x[1] - x[0]) == pytest.approx(1.0, rel=1e-12)
    # heavier where the potential is lower
    assert p[1000] == p.max()
