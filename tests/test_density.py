import math

import numpy as np
import pytest

from wellescape.density import (
    DensityEstimate,
    _simpson,
    _slope_and_sup,
    bounds,
    corridor_violation_bound,
    gaussian_kernel,
)
from wellescape.potentials import (
    CosineWellPotential,
    LinearPotential,
    NoiseScale,
    QuadraticPotential,
    ZeroPotential,
    generator_apply_to_self,
)

SIGMA1 = NoiseScale(sigma=1.0)


def test_gaussian_kernel_values_and_mass():
    assert gaussian_kernel(SIGMA1, 1.0, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi))
    # integrates to one
    z = np.linspace(-10, 10, 100_001)
    vals = gaussian_kernel(SIGMA1, 0.7, z)
    assert np.trapezoid(vals, z) == pytest.approx(1.0, abs=1e-9)


def test_time_must_be_positive():
    with pytest.raises(ValueError):
        gaussian_kernel(SIGMA1, 0.0, 0.1)
    with pytest.raises(ValueError):
        bounds(ZeroPotential(), SIGMA1, 0.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        corridor_violation_bound(SIGMA1, 1.0, 0.0)


def test_zero_potential_gives_plain_kernel():
    for t in (0.01, 0.3, 2.0):
        got = bounds(ZeroPotential(), SIGMA1, 0.2, -0.5, t).value
        assert got == pytest.approx(gaussian_kernel(SIGMA1, t, -0.7), rel=1e-14)


def test_linear_potential_is_exact():
    # constant drift keeps the density Gaussian; the chord formula is exact
    rng = np.random.default_rng(21)
    for _ in range(10):
        a, x, y = rng.normal(size=3)
        t = rng.uniform(0.05, 2.0)
        sigma = rng.uniform(0.5, 2.0)
        ns = NoiseScale(sigma=sigma)
        got = bounds(LinearPotential(a), ns, x, y, t).value
        exact = gaussian_kernel(ns, t, y - (x - a * t))
        assert got == pytest.approx(exact, rel=1e-12)


def test_ou_error_shrinks_with_time():
    V = QuadraticPotential(k=1.0)
    x, y = 0.3, 0.7

    def exact(t):
        m = x * math.exp(-t)
        var = (1 - math.exp(-2 * t)) / 2
        return math.exp(-((y - m) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)

    errs = [abs(bounds(V, SIGMA1, x, y, t).value - exact(t)) / exact(t)
            for t in (0.2, 0.05)]
    assert errs[1] < errs[0]


@pytest.mark.parametrize("n", [3, 5, 101, 201])
def test_simpson_matches_scipy_bit_for_bit(n):
    from scipy.integrate import simpson

    rng = np.random.default_rng(n)
    r = np.linspace(0.0, 1.0, n)
    for _ in range(20):
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6)
        assert _simpson(y, r) == simpson(y, x=r)


def test_bounds_collapse_for_zero_potential():
    # g = 0 identically: K = 0, M2 = 2d, and the bracket is just the kernel
    est = bounds(ZeroPotential(), SIGMA1, 0.1, 0.4, 0.25)
    kernel = gaussian_kernel(SIGMA1, 0.25, 0.3)
    assert est.value == pytest.approx(kernel, rel=1e-14)
    gamma = math.exp(-2 * est.delta**2 / 0.25)
    assert est.m1 == 0.0
    assert est.upper == pytest.approx((1 + 2 * gamma) * kernel, rel=1e-12)
    assert est.lower == pytest.approx((1 - 2 * gamma) * kernel, rel=1e-12)
    assert est.lower <= kernel <= est.upper


def test_bounds_bracket_fokker_planck_reference():
    from wellescape.fokker_planck import evolve, gaussian_bump

    V = CosineWellPotential()
    x, y, t = 0.2, 0.7, 0.1
    n = 4001
    dx = 8.0 / (n - 1)
    grid = evolve(V, SIGMA1, gaussian_bump(x, dx), (-4.0, 4.0), n, t, 1e-4)
    p_ref = float(np.interp(y, grid.x, grid.density))
    est = bounds(V, SIGMA1, x, y, t)
    assert est.lower <= p_ref <= est.upper
    assert est.value == pytest.approx(p_ref, rel=0.02)
    assert est.lower < est.value < est.upper


def test_bounds_evaluate_the_integrand_once_on_the_grid():
    # the slope maximum and sup |g| both come from one 10^4-point grid,
    # through one field evaluation: V' alone or (V', V'') together
    class Counting(CosineWellPotential):
        grid_calls = 0

        def gradient(self, x):
            if np.size(x) == 10_000:
                Counting.grid_calls += 1
            return super().gradient(x)

        def derivatives(self, x):
            if np.size(x) == 10_000:
                Counting.grid_calls += 1
            return super().derivatives(x)

    bounds(Counting(), SIGMA1, 0.2, 0.7, 0.1)
    assert Counting.grid_calls == 1


def test_corridor_bound_values():
    # sigma = 1, t = 1, delta = 1: 2 e^{-2}
    assert corridor_violation_bound(SIGMA1, 1.0, 1.0) == pytest.approx(
        2 * math.exp(-2), rel=1e-14
    )
    # depends on delta^2 / (sigma^2 t) only
    a = corridor_violation_bound(SIGMA1, 0.25, 0.5)
    b = corridor_violation_bound(NoiseScale(sigma=2.0), 1.0, 2.0)
    assert a == pytest.approx(b, rel=1e-14)


def _bridges(x, y, t, n_steps, n_paths, sigma, seed):
    """Brownian bridges from x to y over [0, t], shape (n_paths, n_steps+1)."""
    rng = np.random.default_rng(seed)
    dt = t / n_steps
    dw = rng.standard_normal((n_paths, n_steps)) * math.sqrt(dt)
    w = np.concatenate([np.zeros((n_paths, 1)), np.cumsum(dw, axis=1)], axis=1)
    s = np.linspace(0.0, t, n_steps + 1)
    chord = x + (s / t) * (y - x)
    return chord + sigma * (w - (s / t) * w[:, -1:])


def test_approximation_consistent_with_bridge_average():
    # p_t(x,y) = rho_t(y-x) E[exp(s^-2 (V(x) - V(y) + 1/2 int g_V(bridge)))]
    V = CosineWellPotential()
    x, y, t = 0.1, 0.6, 0.1
    paths = _bridges(x, y, t, 200, 40_000, 1.0, 31)
    g = generator_apply_to_self(V, SIGMA1, paths)
    integral = np.trapezoid(g, dx=t / 200, axis=1)
    w = np.exp(V.value(x) - V.value(y) + 0.5 * integral)
    mc = gaussian_kernel(SIGMA1, t, y - x) * w.mean()
    se = gaussian_kernel(SIGMA1, t, y - x) * w.std() / math.sqrt(len(w))
    got = bounds(V, SIGMA1, x, y, t).value
    assert abs(got - mc) < 3 * se + 0.005 * mc


def test_chord_deviation_bound_along_corridor_paths():
    # on bridges confined to the delta-corridor, the running integral along
    # the path differs from the chord integral by at most K * delta * t / 2
    V = CosineWellPotential()
    x, y, t, delta = -0.3, 0.5, 0.2, 0.35
    paths = _bridges(x, y, t, 400, 2_000, 1.0, 32)
    s = np.linspace(0.0, t, 401)
    chord = x + (s / t) * (y - x)
    inside = np.max(np.abs(paths - chord), axis=1) < delta
    assert inside.sum() > 100
    g_path = generator_apply_to_self(V, SIGMA1, paths[inside])
    path_int = 0.5 * np.trapezoid(g_path, dx=t / 400, axis=1)
    r = np.linspace(0.0, 1.0, 401)
    chord_int = 0.5 * t * np.trapezoid(
        generator_apply_to_self(V, SIGMA1, (1 - r) * x + r * y), r
    )
    K = 1.2 * _slope_and_sup(
        lambda p: generator_apply_to_self(V, SIGMA1, p),
        min(x, y) - delta, max(x, y) + delta,
    )[0]
    bound = 0.5 * K * delta * t
    assert np.all(np.abs(path_int - chord_int) <= bound * 1.02 + 1e-12)


def test_estimate_fields_are_coherent():
    est = bounds(CosineWellPotential(), SIGMA1, 0.0, 0.5, 0.05)
    assert isinstance(est, DensityEstimate)
    assert est.lower <= est.value <= est.upper
    assert est.gamma == pytest.approx(
        math.exp(-2 * est.delta**2 / (1.0 * 0.05)), rel=1e-12
    )
    assert 2.0 * est.gamma == corridor_violation_bound(SIGMA1, 0.05, est.delta)
    assert est.m1 == pytest.approx(0.5 * est.lipschitz, rel=1e-12)
    assert est.lower >= 0.0
    with pytest.raises(ValueError):
        bounds(CosineWellPotential(), SIGMA1, 0.0, 0.5, 0.05, delta=0.0)
