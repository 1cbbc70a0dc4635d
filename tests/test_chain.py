"""The Euler chain's own escape probability as a referee.

:func:`_helpers.chain_escape` gives P_h(A), the escape probability of the
chain X_{i+1} = X_i - V'(X_i) h + sigma sqrt(h) xi_i that the engine
samples, exactly up to a quadrature that converges fast.  Sampled
estimates are held to it at their own h, with no time-discretization
error in the target, and the Fokker-Planck oracle's grid error is read
against it at a small h.
"""

import math

import pytest
from scipy.special import ndtr

from _helpers import chain_escape
from wellescape.estimators import EscapeEvent, run_importance
from wellescape.fokker_planck import escape_probability, integrate_density
from wellescape.potentials import (
    CosineWellPotential,
    Interval,
    LinearPotential,
    NoiseScale,
    flatten_on_region,
    invert_on_region,
)
from wellescape.sde import RngPolicy

WELL = Interval(-math.pi, math.pi)

# P_h(A) of the cosine well from x0 = 0 at T = 1, D = (-pi, pi), to 7 digits
CHAIN = {
    (1.0, 1e-2): "1.909766e-04", (1.0, 1e-3): "1.909284e-04",
    (0.75, 1e-2): "1.530027e-05", (0.75, 1e-3): "1.529526e-05",
    (0.5, 1e-2): "1.055128e-07", (0.5, 1e-3): "1.054623e-07",
}


def _chain(eps, h, cell=0.4):
    return chain_escape(CosineWellPotential(), NoiseScale(epsilon=eps), 0.0,
                        WELL, 1.0, h, cell)


@pytest.mark.parametrize("n", [1, 2, 50])
def test_chain_escape_is_exact_for_a_linear_potential(n):
    # under V = a x the chain is X_n ~ N(x0 - a n h, sigma^2 n h) exactly,
    # and D is not symmetric about the start, so a drift of the wrong sign
    # or a shifted band would show
    region, h = Interval(-1.0, 0.5), 1e-2
    mean, sd = 0.3 - 0.8 * n * h, 0.6 * math.sqrt(n * h)
    exact = ndtr((region.a - mean) / sd) + ndtr((mean - region.b) / sd)
    got = chain_escape(LinearPotential(0.8), NoiseScale(sigma=0.6), 0.3,
                       region, n * h, h)
    assert abs(got - exact) <= 1e-9 * exact


@pytest.mark.parametrize("eps, h", list(CHAIN))
def test_chain_escape_reproduces_its_table(eps, h):
    assert f"{_chain(eps, h):.6e}" == CHAIN[eps, h]


@pytest.mark.parametrize("eps, h", list(CHAIN))
def test_halving_dx_moves_no_chain_value(eps, h):
    coarse, fine = _chain(eps, h), _chain(eps, h, cell=0.2)
    assert abs(fine - coarse) <= 1e-9 * coarse


@pytest.mark.parametrize("patch", [invert_on_region, flatten_on_region])
def test_importance_runs_lie_within_4_se_of_the_chain(patch):
    # the target is exactly the quantity sampled: the chain at h = 1e-2
    V, noise = CosineWellPotential(), NoiseScale(epsilon=1.0)
    s = run_importance(V, patch(V, WELL), noise, 0.0, EscapeEvent(WELL, 1.0),
                       1e-2, 1e-2, 131_072, RngPolicy(2024))
    exact = chain_escape(V, noise, 0.0, WELL, 1.0, 1e-2)
    assert s.hits >= 100
    assert abs(s.mean - exact) <= 4 * s.std_error


def test_fp_tail_mass_moves_toward_the_chain_when_refined():
    # at eps = 0.5 the FP grid error exceeds the chain's time error at
    # h = 1e-3; the tail mass is read from the grid, where 1 - (mass in D)
    # has a roundoff floor near 1e-12
    V, noise = CosineWellPotential(), NoiseScale(epsilon=0.5)
    exact = chain_escape(V, noise, 0.0, WELL, 1.0, 1e-3)
    gaps = []
    for n_cells in (6144, 12288):
        grid = escape_probability(V, noise, 0.0, WELL, 1.0, n_cells=n_cells)[1]
        tail = (integrate_density(grid, grid.x[0], WELL.a)
                + integrate_density(grid, WELL.b, grid.x[-1]))
        gaps.append(abs(tail - exact))
    assert gaps[1] < gaps[0]
