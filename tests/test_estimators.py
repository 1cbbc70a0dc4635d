import csv
import gc
import inspect
import math
import resource
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from _helpers import block_normals, serial_reference, whole_block
from wellescape import estimators, girsanov
from wellescape.cli import CSV_COLUMNS, _write_rows, csv_row
from wellescape.errors import (
    ConfigurationError,
    EvaluationError,
    SimulationError,
    WellEscapeError,
)
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
    LinearPotential,
    NoiseScale,
    PotentialField,
    QuadraticPotential,
    ZeroPotential,
    flatten_on_region,
    invert_on_region,
)
from wellescape.sde import BLOCK_SAMPLES, RngPolicy, empty_block, evolve_block

SIGMA1 = NoiseScale(sigma=1.0)
WELL = Interval(-math.pi, math.pi)


# ---------------------------------------------------------------- summaries


def test_from_values_matches_numpy_moments():
    rng = np.random.default_rng(7)
    vals = rng.exponential(size=1000)
    s = EstimatorSummary.from_values(vals, kind="importance", hits=vals.size)
    assert s.n == 1000
    assert s.mean == pytest.approx(vals.mean(), rel=1e-13)
    assert s.variance == pytest.approx(vals.var(ddof=1), rel=1e-12)
    assert s.sum_w_ind == pytest.approx(vals.sum(), rel=1e-13)
    assert s.sum_w2_ind == pytest.approx((vals**2).sum(), rel=1e-13)


def test_merge_equals_pooled_summary():
    rng = np.random.default_rng(8)
    a, b, c = (rng.normal(size=k) ** 2 for k in (100, 257, 43))
    pooled, sa, sb, sc = (
        EstimatorSummary.from_values(v, kind="plain", hits=np.count_nonzero(v))
        for v in (np.concatenate([a, b, c]), a, b, c))
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
    s = EstimatorSummary.from_values([1.0, 0.0], kind="plain", hits=1)
    empty = EstimatorSummary.from_values([], kind="plain", hits=0)
    assert s.merge(empty) is s
    assert empty.merge(s) is s
    other = EstimatorSummary.from_values([1.0], kind="importance", hits=1)
    with pytest.raises(ValueError):
        s.merge(other)


def test_indicator_variance_identity():
    rng = np.random.default_rng(9)
    ind = (rng.uniform(size=5000) < 0.23).astype(float)
    s = EstimatorSummary.from_values(ind, kind="plain", hits=np.count_nonzero(ind))
    p = s.mean
    assert s.variance == pytest.approx(p * (1 - p) * s.n / (s.n - 1), rel=1e-12)
    assert s.hits == int(ind.sum())


def test_zero_hit_reporting():
    s = EstimatorSummary.from_values(np.zeros(100), kind="plain", hits=0)
    assert s.hits == 0
    assert s.mean == 0.0
    assert s.relative_error is None


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


def _serial(target, sampler, event, taus, n, policy):
    return serial_reference(target, sampler, SIGMA1, 0.1, event, 1e-2, taus, n,
                            policy)


def _error(target, sampler, event, rows):
    """The error type and text of one block stepped whole, or None."""
    try:
        whole_block(target, sampler, SIGMA1, 0.1, event, 1e-2, (1e-2,), rows)
    except WellEscapeError as exc:
        return type(exc), str(exc)
    return None


def _layouts(monkeypatch):
    """Each slice layout in turn: whole blocks, the layout of every run of
    at most 256 steps, then half-blocks, forced by a two-block cap of 0."""
    for cap in (estimators._TWO_BLOCKS_MAX_BYTES, 0):
        monkeypatch.setattr(estimators, "_TWO_BLOCKS_MAX_BYTES", cap)
        yield


@pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 4096, 4097, 3 * 4096 + 17])
@pytest.mark.parametrize("sampling", ["plain", "invert"])
def test_half_block_lanes_equal_whole_serial_blocks(monkeypatch, sampling, n):
    V = CosineWellPotential()
    sampler = invert_on_region(V, WELL) if sampling == "invert" else None
    event = EscapeEvent(Interval(-0.3, 0.5), horizon=0.1)   # hits are common
    taus = (1e-2, 5e-2)
    want = _serial(V, sampler, event, taus, n, RngPolicy(31))
    for _ in _layouts(monkeypatch):
        if sampler is None:
            got = [run_plain(V, SIGMA1, 0.1, event, 1e-2, n, RngPolicy(31))]
        else:
            got = list(run_importance_meshes(V, sampler, SIGMA1, 0.1, event,
                                             1e-2, taus, n,
                                             RngPolicy(31)).values())
        assert got == want


def test_lanes_match_the_serial_run_under_a_short_switch_interval(monkeypatch):
    # the stepping and filler threads, switching every microsecond: a slice
    # stepped before its noise is drawn, or drawn over while it is stepped,
    # moves a summary; a lost wakeup leaves the run hanging
    V = CosineWellPotential()
    sampler = invert_on_region(V, WELL)
    event = EscapeEvent(Interval(-0.3, 0.5), horizon=0.1)
    n, taus = 5 * 4096 + 17, (1e-2,)
    want = _serial(V, sampler, event, taus, n, RngPolicy(47))
    for _ in _layouts(monkeypatch):
        got = []
        run = threading.Thread(daemon=True, target=lambda: got.append(
            run_importance(V, sampler, SIGMA1, 0.1, event, 1e-2, 1e-2, n,
                           RngPolicy(47))))
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run.start()
            run.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not run.is_alive()
        assert got == want


def test_one_thread_steps_every_block_in_one_buffer(monkeypatch):
    # three blocks: the calling thread steps them all in one noise buffer
    # of two blocks; a failing block is redrawn into that buffer, not into
    # a further block, and still raises the error of its whole block
    threads, buffers = set(), []

    def stepping(*args):
        threads.add(threading.get_ident())
        return evolve_block(*args)

    def allocating(n_steps, blocks):
        buffers.append((n_steps, blocks))
        return empty_block(n_steps, blocks)

    monkeypatch.setattr(estimators, "evolve_block", stepping)
    monkeypatch.setattr(estimators, "empty_block", allocating)
    event = EscapeEvent(Interval(-0.3, 0.5), horizon=0.1)
    run_plain(CosineWellPotential(), SIGMA1, 0.1, event, 1e-2, 3 * BLOCK_SAMPLES,
              RngPolicy(5))
    assert threads == {threading.get_ident()}
    assert buffers == [(10, 2)]

    cliff, event = _Cliff(), EscapeEvent(WELL, horizon=0.5)
    want = _error(cliff, None, event, block_normals(RngPolicy(0), 0, 50))
    assert want is not None
    buffers.clear()
    with pytest.raises(want[0]) as info:
        run_plain(cliff, SIGMA1, 0.1, event, 1e-2, BLOCK_SAMPLES + 5, RngPolicy(0))
    assert str(info.value) == want[1]
    assert buffers == [(50, 2)]


class _Cliff(PotentialField):
    """Flat below x = 2, an infinite slope above: a row fails at the first
    step its random walk passes 2, at a step that differs from row to row."""

    label = "cliff"

    def value(self, x):
        return np.zeros(np.shape(x))

    def gradient(self, x):
        return np.where(np.asarray(x) > 2.0, np.inf, 0.0)

    laplacian = value


def test_runs_step_whole_blocks_up_to_256_steps(monkeypatch):
    # two blocks of 256 steps take 16 MiB, two of 257 more: the buffer and
    # the slices stepped change layout between them
    buffers, rows = [], []

    def allocating(n_steps, blocks):
        buffers.append((n_steps, blocks))
        return empty_block(n_steps, blocks)

    def stepping(*args):
        rows.append(len(args[5]))
        return evolve_block(*args)

    monkeypatch.setattr(estimators, "empty_block", allocating)
    monkeypatch.setattr(estimators, "evolve_block", stepping)
    for horizon in (2.56, 2.57):
        run_plain(CosineWellPotential(), SIGMA1, 0.1, EscapeEvent(WELL, horizon),
                  1e-2, 5000, RngPolicy(2))
    assert buffers == [(256, 2), (257, 1)]
    assert rows == [4096, 904, 2048, 2048, 904]


def test_a_run_of_10_15_samples_fails_at_its_first_block():
    # the slices are made one ahead of the stepper, not listed up front:
    # block 0 fails at step 0 and ends the run.  The address-space cap
    # turns a schedule that grows with n_samples into a MemoryError here
    event = EscapeEvent(WELL, horizon=0.5)
    with pytest.raises(SimulationError) as info:
        whole_block(_Cliff(), None, SIGMA1, 2.5, event, 1e-2, (1e-2,),
                    block_normals(RngPolicy(0), 0, 50))
    want = str(info.value)
    assert want == "a sample became non-finite at step 0 (t=0.01)"
    with open("/proc/self/status") as status:
        used = next(int(line.split()[1]) * 1024 for line in status
                    if line.startswith("VmSize:"))
    limits = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (used + 2**30, limits[1]))
    try:
        with pytest.raises(SimulationError) as info:
            run_plain(_Cliff(), SIGMA1, 2.5, event, 1e-2, 10**15, RngPolicy(0))
    finally:
        resource.setrlimit(resource.RLIMIT_AS, limits)
    assert str(info.value) == want


@pytest.mark.parametrize("sampling", ["plain", "importance"])
def test_a_block_fails_with_the_error_of_its_whole_serial_run(monkeypatch,
                                                              sampling):
    # a seed where a row >= 2048 fails at an earlier step than every row
    # below it: stepped half by half, the first half alone would report a
    # later step (plain) or another point (importance); stepped whole, the
    # block is its own serial run
    V = _Cliff()
    sampler = ZeroPotential() if sampling == "importance" else None
    event = EscapeEvent(WELL, horizon=0.5)
    for seed in range(200):
        block = block_normals(RngPolicy(seed), 0, 50)
        whole = _error(V, sampler, event, block)
        first_half = _error(V, sampler, event, block[:2048])
        if first_half is not None and first_half != whole:
            break
    else:
        pytest.fail("no seed in 0..199 fails first in the upper half")
    for _ in _layouts(monkeypatch):
        with pytest.raises(whole[0]) as info:
            if sampler is None:
                run_plain(V, SIGMA1, 0.1, event, 1e-2, 4096 + 5, RngPolicy(seed))
            else:
                run_importance(V, sampler, SIGMA1, 0.1, event, 1e-2, 1e-2,
                               4096 + 5, RngPolicy(seed))
        assert str(info.value) == whole[1]


def test_a_run_that_succeeds_checks_finiteness_once_per_half(monkeypatch):
    # no per-step check: every slice (here a whole block, 4096 then 904
    # rows) is stepped unchecked once, and the accumulator's point-naming
    # refusal is never reached
    checked, calls = [], Counter()
    signature = inspect.signature(evolve_block)

    def stepping(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        checked.append(bound.arguments["checked"])
        return evolve_block(*args, **kwargs)

    def counting(*args):
        calls["_check_integrand"] += 1
        return check_integrand(*args)

    check_integrand = girsanov._check_integrand
    monkeypatch.setattr(estimators, "evolve_block", stepping)
    monkeypatch.setattr(girsanov, "_check_integrand", counting)
    V = CosineWellPotential()
    event = EscapeEvent(WELL, horizon=0.5)
    run_importance(V, invert_on_region(V, WELL), SIGMA1, 0.0, event, 1e-2,
                   1e-2, 5000, RngPolicy(4))
    run_plain(V, SIGMA1, 0.0, event, 1e-2, 5000, RngPolicy(4))
    assert checked == [False] * 4
    assert calls == Counter()


def test_integrands_finite_but_their_sum_overflowing_is_a_run():
    # each step adds -a^2 = -1e308, finite, and the sums overflow to -inf:
    # a log-weight of -inf on rows off the event is a weight of 0, not an
    # error, with or without per-step checks
    event = EscapeEvent(Interval(-1.0, 1.0), horizon=0.05)
    s = run_importance(LinearPotential(1e154), ZeroPotential(), SIGMA1, 0.0,
                       event, 1e-2, 1e-2, 100, RngPolicy(0))
    assert s == EstimatorSummary(n=100, mean=0.0, m2=0.0, hits=0,
                                 kind="importance")


@pytest.mark.parametrize("region, want", [
    (Interval(-1e200, 1e200),
     EstimatorSummary(n=100, mean=0.0, m2=0.0, hits=0, kind="importance")),
    (Interval(-1.0, 1.0), "importance weights overflow"),
], ids=["off-the-event", "on-the-event"])
def test_a_log_weight_non_finite_only_through_its_boundary_term(region, want):
    # V(x) = 1e-10 x^2 / 2 overflows at x0 = 1e160 and at every state, so
    # V(x0) - V(X_T) is nan while each integrand 1e-10 - 1e300 and each sum
    # is finite: weight 0 off the event, an overflow on it
    args = (QuadraticPotential(1e-10), ZeroPotential(), SIGMA1, 1e160,
            EscapeEvent(region, horizon=0.05), 1e-2, 1e-2, 100, RngPolicy(0))
    if isinstance(want, str):
        with pytest.raises(SimulationError, match=want):
            run_importance(*args)
    else:
        assert run_importance(*args) == want


class _Spike(PotentialField):
    """V = V' = 0 and V'' = inf above x = 1.5: the integrand against a
    free sampler is infinite there, while every state stays finite."""

    label = "spike"

    def value(self, x):
        return np.zeros(np.shape(x))

    gradient = value

    def laplacian(self, x):
        return np.where(np.asarray(x) > 1.5, np.inf, 0.0)


def test_an_infinite_sum_off_the_event_is_the_error_of_its_whole_block():
    # every row ends inside D, so an infinite log-weight has weight 0; the
    # end-of-half check reads the running sums of all rows, not the weights
    # on the event, and the block raises the error its serial run meets
    V, event = _Spike(), EscapeEvent(Interval(-10.0, 10.0), horizon=0.5)
    block = block_normals(RngPolicy(2), 0, 50)
    terminal = evolve_block(ZeroPotential(), SIGMA1, 0.1, 50, 1e-2, block)
    assert not event.indicator(terminal).any()
    want = _error(V, ZeroPotential(), event, block)
    assert want is not None and "integrand of 'spike'" in want[1]
    with pytest.raises(want[0]) as info:
        run_importance(V, ZeroPotential(), SIGMA1, 0.1, event, 1e-2, 1e-2,
                       BLOCK_SAMPLES, RngPolicy(2))
    assert str(info.value) == want[1]


class _SteepWell(CosineWellPotential):
    """The cosine well with W' = 1e200 on (0.5, 1): W'^2 overflows there
    while W' stays finite."""

    label = "steep"

    def derivatives(self, x, out=None):
        g, lap = super().derivatives(x, out)
        g[(x > 0.5) & (x < 1.0)] = 1e200
        return g, lap


@pytest.mark.parametrize("patch", [flatten_on_region, invert_on_region])
def test_a_non_finite_integrand_on_an_all_inside_step_is_refused(patch):
    # every row starts at 0.75, in D, where the integrand is -inf (flatten)
    # or 0 * inf = nan (invert): the unchecked half's log-weights are not
    # finite, and the checked re-step names step 0's first point
    V = _SteepWell()
    Vt = patch(V, WELL)
    with pytest.raises(EvaluationError) as info:
        run_importance(V, Vt, SIGMA1, 0.75, EscapeEvent(WELL, horizon=0.1),
                       1e-2, 1e-2, 100, RngPolicy(3))
    assert str(info.value) == (f"integrand of 'steep' against {Vt.label!r} "
                               "is non-finite at x=0.75")
    assert info.value.point == 0.75


def test_a_run_leaves_its_accumulator_to_no_cycle():
    # the run's one accumulator and its step arrays go when the run ends,
    # without waiting for the cycle collector
    V = CosineWellPotential()
    gc.collect()
    gc.disable()
    try:
        run_importance(V, invert_on_region(V, WELL), SIGMA1, 0.0,
                       EscapeEvent(WELL, horizon=0.1), 1e-2, 1e-2, 3000,
                       RngPolicy(2))
        alive = [o for o in gc.get_objects()
                 if isinstance(o, girsanov.WeightAccumulator)]
    finally:
        gc.enable()
    assert alive == []


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
        self.points = 0

    def gradient(self, x):
        self.calls["gradient"] += 1
        return super().gradient(x)

    def laplacian(self, x):
        self.calls["laplacian"] += 1
        return super().laplacian(x)

    def derivatives(self, x, out=None):
        self.calls["derivatives"] += 1
        self.points += np.size(x)
        return super().derivatives(x, out)


def test_importance_step_evaluates_the_target_field_once():
    V = CountingWell()
    inv = invert_on_region(V, WELL)
    V.calls.clear()  # construction probes the boundary
    event = EscapeEvent(WELL, horizon=0.5)
    run_importance(V, inv, SIGMA1, 0.0, event, 1e-2, 1e-2, 5000, RngPolicy(4))
    # 5000 samples step as two whole-block slices (4096, 904) of 50 steps:
    # one derivatives call per slice-step, over every point
    assert V.calls == Counter(derivatives=2 * 50)
    assert V.points == 5000 * 50


class _FailsOnce(CosineWellPotential):
    """The cosine well whose ``derivatives`` raises at call ``fail_at``
    alone; it keeps the states of every call in ``states``."""

    def __init__(self, fail_at):
        self.fail_at, self.states = fail_at, []
        self.error = EvaluationError("a one-off failure", point=0.0)

    def derivatives(self, x, out=None):
        self.states.append(np.array(x))
        if len(self.states) == self.fail_at:
            raise self.error
        return super().derivatives(x, out)


def test_a_failure_that_does_not_recur_is_raised_after_the_redraw():
    # 5000 samples step as two whole-block slices (4096, 904) of 50 steps,
    # one derivatives call each; call 60 raises in block 1, whose redraw
    # (calls 61..110) steps clean, so the run ends in the original error
    V = _FailsOnce(60)
    event = EscapeEvent(WELL, horizon=0.5)
    with pytest.raises(EvaluationError) as info:
        run_importance(V, invert_on_region(V, WELL), SIGMA1, 0.0, event,
                       1e-2, 1e-2, 5000, RngPolicy(4))
    assert info.value is V.error
    assert len(V.states) == 110
    # the redraw holds block 1's rows: from x0 = 0 the first step is the
    # noise alone, the same in the failed attempt and in the redraw
    amp = SIGMA1.sigma * math.sqrt(1e-2)
    first = amp * block_normals(RngPolicy(4), 1, 50)[:904, 0]
    assert np.array_equal(V.states[51], first)
    assert np.array_equal(V.states[61], first)


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
    s = EstimatorSummary.from_values([0.0, 1.0, 0.0, 1.0], kind="plain", hits=2)
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
