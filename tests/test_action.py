import math

import numpy as np
import pytest

from wellescape.action import (
    action,
    action_gradient,
    minimize_action_pinned,
    minimize_exit_action,
)
from wellescape.potentials import (
    CosineWellPotential,
    Interval,
    ZeroPotential,
    invert_on_region,
)

WELL = Interval(-math.pi, math.pi)


def test_resting_at_a_critical_point_costs_nothing():
    V = CosineWellPotential()
    knots = np.zeros(51)
    assert action(knots, 1.0 / 50, V) == 0.0
    g = action_gradient(knots, 1.0 / 50, V)
    assert np.all(g == 0.0)


def test_free_motion_minimizer_is_straight_line():
    res = minimize_action_pinned(ZeroPotential(), 0.0, math.pi, 1.0, 100)
    assert res.converged
    assert res.iterations == 0
    assert res.value == pytest.approx(math.pi**2 / 2, rel=1e-14)
    straight = np.linspace(0.0, math.pi, 101)
    assert np.allclose(res.knots, straight, atol=1e-12)


def test_gradient_matches_finite_differences_1d():
    V = CosineWellPotential()
    t = np.linspace(0.0, 1.0, 41)
    knots = 0.4 * np.sin(2.1 * t) + 0.3 * t
    g = action_gradient(knots, 1.0 / 40, V)
    step = 1e-6
    for j in (0, 1, 17, 39, 40):
        bumped = knots.copy(); bumped[j] += step
        dipped = knots.copy(); dipped[j] -= step
        fd = (action(bumped, 1.0 / 40, V)
              - action(dipped, 1.0 / 40, V)) / (2 * step)
        assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_gradient_flow_of_the_inverted_well_is_free():
    # under the inverted potential the downhill flow from 0.5 drifts to the
    # boundary; following it costs (almost) nothing
    tilted = invert_on_region(CosineWellPotential(), WELL)
    T, m = 8.0, 1600
    dt = T / m
    x = np.empty(m + 1)
    x[0] = 0.5
    f = lambda z: -np.asarray(tilted.gradient(z))
    for i in range(m):
        k1 = f(x[i])
        k2 = f(x[i] + 0.5 * dt * k1)
        k3 = f(x[i] + 0.5 * dt * k2)
        k4 = f(x[i] + dt * k3)
        x[i + 1] = x[i] + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6
    assert x[-1] > math.pi - 0.01  # nearly out by the horizon
    assert action(x, dt, tilted) < 1e-6
    # ... but the flow started at the well bottom never moves at all
    assert float(tilted.gradient(0.0)) == 0.0


def test_already_escaped_start_costs_nothing():
    res = minimize_exit_action(CosineWellPotential(), 4.0, WELL, 1.0, 50)
    assert res.value == 0.0
    assert res.converged
    assert np.all(res.knots == 4.0)


def test_well_exit_value_against_independent_optimizer():
    from scipy.optimize import minimize as sp_minimize

    V = CosineWellPotential()
    m = 60
    res = minimize_exit_action(V, 0.0, WELL, 1.0, m, grad_tol=1e-9)
    assert res.converged

    def obj(inner):
        knots = np.concatenate([[0.0], inner, [math.pi]])
        return action(knots, 1.0 / m, V)

    def grad(inner):
        knots = np.concatenate([[0.0], inner, [math.pi]])
        return action_gradient(knots, 1.0 / m, V)[1:-1]

    x0 = np.linspace(0.0, math.pi, m + 1)[1:-1]
    ref = sp_minimize(obj, x0, jac=grad, method="L-BFGS-B",
                      options={"maxiter": 5000, "ftol": 1e-16, "gtol": 1e-12})
    assert res.value == pytest.approx(ref.fun, rel=1e-8)


def test_exit_value_decreases_under_refinement():
    V = CosineWellPotential()
    values = [minimize_exit_action(V, 0.0, WELL, 1.0, m, grad_tol=1e-8).value
              for m in (25, 50, 100)]
    assert values[0] >= values[1] >= values[2] > 7.18


def test_symmetric_well_exits_both_sides_equally():
    V = CosineWellPotential()
    left = minimize_action_pinned(V, 0.0, -math.pi, 1.0, 80)
    right = minimize_action_pinned(V, 0.0, math.pi, 1.0, 80)
    assert left.value == pytest.approx(right.value, rel=1e-12)


def test_result_reports_convergence_details():
    res = minimize_exit_action(CosineWellPotential(), 0.0, WELL, 1.0, 50)
    assert res.converged
    assert res.grad_norm <= 1e-6
    assert res.iterations >= 1
    assert len(res.knots) - 1 == 50
    assert 1.0 / (len(res.knots) - 1) == pytest.approx(0.02)
