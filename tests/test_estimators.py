import csv
import math
from collections import Counter

import numpy as np
import pytest

from wellescape.cli import CSV_COLUMNS, _write_rows, csv_row
from wellescape.errors import ConfigurationError, SimulationError
from wellescape.estimators import (
    EscapeEvent,
    EstimatorSummary,
    run_importance,
    run_importance_meshes,
    run_plain,
    small_noise_sweep,
    theorem3_bound,
)
from wellescape.potentials import (
    CosineWellPotential,
    Interval,
    NoiseScale,
    PotentialField,
    ZeroPotential,
    flatten_on_region,
    invert_on_region,
)
from wellescape.sde import RngPolicy

SIGMA1 = NoiseScale(sigma=1.0)
WELL = Interval(-math.pi, math.pi)


# ---------------------------------------------------------------- summaries


def test_from_values_matches_numpy_moments():
    rng = np.random.default_rng(7)
    vals = rng.exponential(size=1000)
    s = EstimatorSummary.from_values(vals, kind="importance")
    assert s.n == 1000
    assert s.mean == pytest.approx(vals.mean(), rel=1e-13)
    assert s.variance == pytest.approx(vals.var(ddof=1), rel=1e-12)
    assert s.sum_w_ind == pytest.approx(vals.sum(), rel=1e-13)
    assert s.sum_w2_ind == pytest.approx((vals**2).sum(), rel=1e-13)


def test_merge_equals_pooled_summary():
    rng = np.random.default_rng(8)
    a, b, c = (rng.normal(size=k) ** 2 for k in (100, 257, 43))
    pooled = EstimatorSummary.from_values(np.concatenate([a, b, c]), kind="plain")
    sa, sb, sc = (EstimatorSummary.from_values(v, kind="plain") for v in (a, b, c))
    merged = sa.merge(sb).merge(sc)
    assert merged.n == pooled.n
    assert merged.mean == pytest.approx(pooled.mean, rel=1e-12)
    assert merged.m2 == pytest.approx(pooled.m2, rel=1e-11)
    assert merged.hits == pooled.hits
    # association and order do not matter beyond roundoff
    alt = sa.merge(sb.merge(sc))
    rev = sc.merge(sb).merge(sa)
    assert alt.mean == pytest.approx(merged.mean, rel=1e-12)
    assert rev.m2 == pytest.approx(merged.m2, rel=1e-11)


def test_merge_with_empty_and_kind_mismatch():
    s = EstimatorSummary.from_values([1.0, 0.0], kind="plain")
    empty = EstimatorSummary.from_values([], kind="plain")
    assert s.merge(empty) is s
    assert empty.merge(s) is s
    other = EstimatorSummary.from_values([1.0], kind="importance")
    with pytest.raises(ValueError):
        s.merge(other)


def test_indicator_variance_identity():
    rng = np.random.default_rng(9)
    ind = (rng.uniform(size=5000) < 0.23).astype(float)
    s = EstimatorSummary.from_values(ind, kind="plain")
    p = s.mean
    assert s.variance == pytest.approx(p * (1 - p) * s.n / (s.n - 1), rel=1e-12)
    assert s.hits == int(ind.sum())


def test_zero_hit_reporting():
    s = EstimatorSummary.from_values(np.zeros(100), kind="plain")
    assert s.hits == 0
    assert s.mean == 0.0
    assert s.relative_error is None
    assert s.zero_hit_upper_bound() == pytest.approx(0.03)


# ------------------------------------------------------------------- runs


def test_plain_run_free_diffusion():
    # X_T ~ N(0, T): escape from (-1, 1) has probability 2 Phi(-1)
    event = EscapeEvent(Interval(-1.0, 1.0), horizon=1.0)
    s = run_plain(ZeroPotential(), SIGMA1, 0.0, event, 1e-2, 100_000,
                  RngPolicy(101))
    exact = 2 * (1 - 0.5 * (1 + math.erf(1 / math.sqrt(2))))
    assert abs(s.mean - exact) < 4 * s.std_error
    assert s.kind == "plain"
    assert s.n == 100_000


def test_event_with_unreachable_region_always_fires():
    event = EscapeEvent(Interval(5.0, 5.1), horizon=0.05)
    s = run_plain(ZeroPotential(), SIGMA1, 0.0, event, 1e-2, 500, RngPolicy(3))
    assert s.mean == 1.0
    assert s.hits == 500


def test_importance_with_target_as_reference_matches_plain():
    event = EscapeEvent(Interval(-1.5, 1.5), horizon=0.5)
    V = CosineWellPotential()
    policy = RngPolicy(55)
    plain = run_plain(V, SIGMA1, 0.0, event, 1e-2, 20_000, policy)
    imp = run_importance(V, V, SIGMA1, 0.0, event, 1e-2, 1e-2, 20_000, policy)
    # identical trajectories, weights exactly one
    assert imp.mean == plain.mean
    assert imp.m2 == plain.m2
    assert imp.hits == plain.hits
    assert imp.lambda_factor == pytest.approx(1.0 / plain.mean, rel=1e-12)
    assert imp.variance_ratio(plain) == pytest.approx(1.0, rel=1e-12)


def test_importance_agrees_with_plain_at_moderate_noise():
    # a configuration where both estimators see plenty of hits
    noise = NoiseScale(sigma=1.6)
    V = CosineWellPotential()
    flat = flatten_on_region(V, WELL)
    event = EscapeEvent(WELL, horizon=1.0)
    plain = run_plain(V, noise, 0.0, event, 5e-3, 20_000, RngPolicy(61))
    imp = run_importance(V, flat, noise, 0.0, event, 5e-3, 5e-3, 20_000,
                         RngPolicy(62))
    assert plain.hits > 200
    assert imp.hits > 400
    gap = abs(plain.mean - imp.mean)
    assert gap < 4 * math.hypot(plain.std_error, imp.std_error)


def test_meshes_share_one_set_of_trajectories():
    V = CosineWellPotential()
    flat = flatten_on_region(V, WELL)
    event = EscapeEvent(WELL, horizon=1.0)
    taus = (1e-1, 1e-2)
    multi = run_importance_meshes(V, flat, SIGMA1, 0.0, event, 1e-2, taus,
                                  4096, RngPolicy(77))
    assert set(multi) == set(taus)
    for tau, s in multi.items():
        single = run_importance(V, flat, SIGMA1, 0.0, event, 1e-2, tau, 4096,
                                RngPolicy(77))
        assert s.mean == single.mean
        assert s.m2 == single.m2
    # every mesh sees the same hits, only the weights differ
    assert multi[taus[0]].hits == multi[taus[1]].hits


def test_worker_count_does_not_change_results():
    V = CosineWellPotential()
    flat = flatten_on_region(V, WELL)
    event = EscapeEvent(Interval(-2.0, 2.0), horizon=0.1)
    args = (V, flat, SIGMA1, 0.0, event, 1e-2, 1e-2, 12_345)
    one = run_importance(*args, RngPolicy(88), workers=1)
    three = run_importance(*args, RngPolicy(88), workers=3)
    assert one == three


@pytest.mark.parametrize("patch", [flatten_on_region, invert_on_region])
def test_sampler_on_the_target_matches_sampler_on_an_equal_copy(patch):
    # patched on V itself, the weight reads V~'s field off V's one
    # evaluation; patched on an equal copy, it evaluates both potentials
    V = CosineWellPotential()
    event = EscapeEvent(WELL, horizon=1.0)
    args = (SIGMA1, 0.0, event, 1e-2, (1e-2, 1e-1), 5000)
    fused = run_importance_meshes(V, patch(V, WELL), *args, RngPolicy(21))
    apart = run_importance_meshes(V, patch(CosineWellPotential(), WELL), *args,
                                  RngPolicy(21))
    assert fused == apart


class CountingWell(CosineWellPotential):
    def __init__(self):
        self.calls = Counter()

    def gradient(self, x):
        self.calls["gradient"] += 1
        return super().gradient(x)

    def laplacian(self, x):
        self.calls["laplacian"] += 1
        return super().laplacian(x)


def test_importance_step_evaluates_the_target_field_once():
    V = CountingWell()
    inv = invert_on_region(V, WELL)
    V.calls.clear()  # construction probes the boundary
    event = EscapeEvent(WELL, horizon=0.5)
    run_importance(V, inv, SIGMA1, 0.0, event, 1e-2, 1e-2, 5000, RngPolicy(4))
    # two blocks of 50 steps, one gradient and one Laplacian each
    assert V.calls == Counter(gradient=2 * 50, laplacian=2 * 50)


@pytest.mark.parametrize("run", ["plain", "importance"])
def test_zero_samples_is_a_configuration_error(run):
    V = CosineWellPotential()
    event = EscapeEvent(WELL, horizon=0.1)
    with pytest.raises(ConfigurationError, match="n_samples"):
        if run == "plain":
            run_plain(V, SIGMA1, 0.0, event, 1e-2, 0, RngPolicy(1))
        else:
            run_importance(V, flatten_on_region(V, WELL), SIGMA1, 0.0, event,
                           1e-2, 1e-2, 0, RngPolicy(1))


def test_importance_without_noise_is_refused_at_construction():
    # the weight divides by sigma^2: zero noise never reaches a run
    with pytest.raises(ValueError, match="sigma must be positive"):
        NoiseScale(sigma=0.0)


class _LiftedStart(PotentialField):
    """V' = V'' = 0, but V(0) = c against V = 0 elsewhere: against a
    ZeroPotential sampler, every path from x0 = 0 has log-weight c."""

    def __init__(self, c):
        self.c = c

    def value(self, x):
        return np.where(np.asarray(x) == 0.0, self.c, 0.0)

    def gradient(self, x):
        return np.zeros(np.shape(x))

    laplacian = gradient


@pytest.mark.parametrize("c, n", [(800.0, 4096), (400.0, 4096), (348.5, 8192)])
def test_overflowing_weights_are_a_simulation_error(c, n):
    # e^c or n * sum(w^2 1_A) leaves the float range: refused, not clipped
    event = EscapeEvent(Interval(-0.5, 0.5), horizon=0.1)
    with pytest.raises(SimulationError, match="weights overflow"):
        run_importance(_LiftedStart(c), ZeroPotential(), SIGMA1, 0.0, event,
                       1e-2, 1e-2, n, RngPolicy(3))
    # a lift that fits runs: equal weights on A give Lambda = n / hits
    s = run_importance(_LiftedStart(300.0), ZeroPotential(), SIGMA1, 0.0,
                       event, 1e-2, 1e-2, n, RngPolicy(3))
    assert s.lambda_factor == pytest.approx(n / s.hits, rel=1e-12)


# ------------------------------------------------------------- diagnostics


def test_flattened_well_bound_value():
    V = CosineWellPotential()
    flat = flatten_on_region(V, WELL)
    # eps^-1 (V(0) - V~(0)) + T/2 sup(Lap V - Lap V~) = -2 + 1/2
    got = theorem3_bound(V, flat, WELL, SIGMA1, 1.0, 0.0)
    assert got == pytest.approx(math.exp(-1.5), rel=1e-3)


def test_diagnostics_with_no_hits_is_undefined():
    V = ZeroPotential()
    event = EscapeEvent(Interval(-50.0, 50.0), horizon=0.01)
    policy = RngPolicy(5)
    plain = run_plain(V, SIGMA1, 0.0, event, 1e-3, 200, policy)
    imp = run_importance(V, V, SIGMA1, 0.0, event, 1e-3, 1e-3, 200, policy)
    assert plain.hits == 0
    assert imp.lambda_factor is None
    assert imp.relative_error is None
    assert imp.variance_ratio(plain) is None


# -------------------------------------------------------------------- sweep


def test_sweep_row_fields_and_low_hit_warning():
    V = CosineWellPotential()
    flat = flatten_on_region(V, WELL)
    with pytest.warns(UserWarning, match="hits"):
        rows = small_noise_sweep(V, flat, WELL, 0.0, 1.0, 1e-2, 1e-2,
                                 (2.0, 1.0), (2048, 2048), seed=500)
    assert len(rows) == 2
    assert rows[0].epsilon == 2.0
    for row in rows:
        assert row.n == 2048
        assert row.hits >= 0
        if row.hits:
            assert row.probability > 0
            assert row.eps_log_lambda == pytest.approx(
                row.epsilon * math.log(row.lambda_factor), rel=1e-12
            )


def test_sweep_sample_counts_must_match_noise_levels():
    V = CosineWellPotential()
    inv = invert_on_region(V, WELL)
    with pytest.raises(ConfigurationError, match="one entry per epsilon"):
        small_noise_sweep(V, inv, WELL, 0.0, 1.0, 1e-2, 1e-2,
                          (1.0, 0.5, 0.25), [256], seed=500)


# ---------------------------------------------------------------------- csv


def test_csv_row_and_file_format(tmp_path):
    s = EstimatorSummary.from_values([0.0, 1.0, 0.0, 1.0], kind="plain")
    row = csv_row(s, potential_label="cosine", tau=None, h=0.01, seed=42)
    cells = dict(zip(CSV_COLUMNS, row))
    assert cells["estimator"] == "plain"
    assert cells["tau"] == ""
    assert cells["mean"] == 0.5
    assert cells["lambda"] is None
    path = tmp_path / "out.csv"
    _write_rows(path, CSV_COLUMNS, [row])
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].startswith("plain,cosine,4,,0.01,42,0.5,")
    # stable formatting: writing twice gives identical bytes
    path2 = tmp_path / "out2.csv"
    _write_rows(path2, CSV_COLUMNS, [row])
    assert path.read_bytes() == path2.read_bytes()
    with open(path) as fh:
        parsed = list(csv.DictReader(fh))
    assert parsed[0]["mean"] == "0.5"
