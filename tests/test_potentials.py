import math

import numpy as np
import pytest

from _helpers import region_supremum
from wellescape.errors import ConstructionError, EvaluationError
from wellescape.girsanov import WeightAccumulator
from wellescape.potentials import (
    _BOUNDARY_MATCH_TOL,
    CosineWellPotential,
    Interval,
    LinearPotential,
    NoiseScale,
    PatchedPotential,
    PotentialField,
    QuadraticPotential,
    ZeroPotential,
    _boundary_match_residual,
    flatten_on_region,
    generator_apply_to_self,
    generator_difference,
    invert_on_region,
    step_arrays,
)
from wellescape.sde import evolve_block

D_PI = Interval(-np.pi, np.pi)


def fd_gradient(pot, x, h=1e-6):
    return (pot.value(x + h) - pot.value(x - h)) / (2 * h)


def fd_laplacian(pot, x, h=1e-4):
    return (pot.value(x + h) - 2 * pot.value(x) + pot.value(x - h)) / h**2


@pytest.mark.parametrize(
    "pot",
    [CosineWellPotential(), QuadraticPotential(k=2.5), LinearPotential(0.7)],
)
def test_analytic_derivatives_match_finite_differences(pot):
    rng = np.random.default_rng(7)
    x = rng.uniform(-3, 3, size=200)
    assert np.allclose(pot.gradient(x), fd_gradient(pot, x), rtol=1e-6, atol=1e-8)
    assert np.allclose(pot.laplacian(x), fd_laplacian(pot, x), rtol=1e-4, atol=1e-4)


def test_noise_scale_conversions_consistent():
    for ns in (NoiseScale(sigma=1.0), NoiseScale(beta=2.0), NoiseScale(epsilon=1.0)):
        assert ns.sigma == 1.0 and ns.beta == 2.0 and ns.epsilon == 1.0
    ns = NoiseScale(sigma=0.5)
    assert ns.epsilon == 0.25 and ns.beta == 8.0
    with pytest.raises(ValueError):
        NoiseScale(sigma=0.0)
    with pytest.raises(ValueError):
        NoiseScale(sigma=1.0, beta=2.0)
    with pytest.raises(ValueError):
        NoiseScale()


def test_interval_is_open():
    D = Interval(-1.0, 2.0)
    assert D.indicator(0.0)
    assert not D.indicator(-1.0) and not D.indicator(2.0)
    assert not D.indicator(2.5)
    x = np.array([-1.0, -0.999, 1.999, 2.0])
    assert list(D.indicator(x)) == [False, True, True, False]
    assert (D.a, D.b) == (-1.0, 2.0)
    for a, b in ((1.0, 1.0), (1.0, 0.0), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="region must satisfy a < b"):
            Interval(a, b)


@pytest.mark.parametrize("given, message", [
    ({"sigma": 0.0}, "sigma must be positive"),
    ({"sigma": -1.0}, "sigma must be positive"),
    ({"sigma": np.nan}, "sigma must be positive"),
    ({"sigma": 1e-200}, "sigma=1e-200 is out of range"),
    ({"sigma": 1e200}, "sigma=1e+200 is out of range"),
    ({"epsilon": 1e-320}, "epsilon=9.99989e-321 is out of range"),
    ({"beta": 1e-310}, "beta=1e-310 is out of range"),
], ids=["sigma0", "sigma-neg", "sigma-nan", "sigma-tiny", "sigma-huge",
        "epsilon-subnormal", "beta-tiny"])
def test_noise_scale_refuses_what_the_cli_refuses(given, message):
    # sigma^2 and 1/sigma^2 must be positive finite floats, with the
    # config check's own text
    with pytest.raises(ValueError) as info:
        NoiseScale(**given)
    assert str(info.value).startswith(message)
    if "range" in message:
        assert str(info.value).endswith(
            ": sigma^2 and 1/sigma^2 must both be positive and finite")


def test_linear_label_survives_a_slope_that_round_overflows():
    # np.round(a, 12) scales by 1e12; the label falls back to the slope
    assert LinearPotential(1e300).label == "linear(a=1e+300)"
    assert LinearPotential(5.516981756634).label == "linear(a=5.516981756634)"


def test_generator_apply_to_self_closed_forms():
    ns = NoiseScale(sigma=1.0)
    # V = 0: both terms vanish
    assert generator_apply_to_self(ZeroPotential(), ns, 0.3) == 0.0
    # V = a x: sigma^2 * 0 - a^2
    a = 1.7
    assert generator_apply_to_self(LinearPotential(a), ns, 0.0) == pytest.approx(-a**2)
    # cosine well at the bottom: cos(0) - sin(0)^2 = 1
    assert generator_apply_to_self(CosineWellPotential(), ns, 0.0) == pytest.approx(1.0)
    # vectorized: sigma^2 cos(x) - sin(x)^2
    x = np.linspace(-3, 3, 17)
    ns2 = NoiseScale(sigma=0.7)
    expect = 0.49 * np.cos(x) - np.sin(x) ** 2
    assert np.allclose(generator_apply_to_self(CosineWellPotential(), ns2, x), expect)


def test_evaluation_error_carries_point():
    class Walled(QuadraticPotential):
        def gradient(self, x):
            x = np.asarray(x)
            return np.where(np.abs(x) > 1, np.inf, super().gradient(x))

    bad = Walled(k=2.0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(EvaluationError) as exc:
            generator_apply_to_self(
                bad, NoiseScale(sigma=1.0), np.array([0.0, 0.5, 2.0])
            )
    assert exc.value.point == 2.0
    assert "non-finite at x=2.0" in str(exc.value)


def test_flatten_removes_well_and_matches_outside():
    V = CosineWellPotential()
    Vt = flatten_on_region(V, D_PI)
    assert Vt.value(0.0) == 0.0
    assert Vt.gradient(1.0) == 0.0
    assert Vt.laplacian(0.5) == 0.0
    # well depth removed: V~ - V jumps by the depth at the minimum
    assert Vt.value(0.0) - V.value(0.0) == pytest.approx(2.0)
    # outside D the field is untouched, including derivatives
    xo = np.array([3.5, -4.0, 6.0])
    assert np.allclose(Vt.value(xo), V.value(xo))
    assert np.allclose(Vt.gradient(xo), V.gradient(xo))
    assert np.allclose(Vt.laplacian(xo), V.laplacian(xo))
    assert Vt.label == "flatten(cosine_well)"


def test_invert_flips_inside_only():
    V = CosineWellPotential()
    Vt = invert_on_region(V, D_PI)
    assert Vt.value(0.0) == pytest.approx(2.0)
    x_in = np.linspace(-3.0, 3.0, 41)
    assert np.allclose(Vt.value(x_in), -V.value(x_in))
    assert np.allclose(Vt.gradient(x_in), -V.gradient(x_in))
    # the inverted drift has the same magnitude everywhere
    x = np.linspace(-6, 6, 101)
    assert np.allclose(np.abs(Vt.gradient(x)), np.abs(V.gradient(x)))
    xo = np.array([4.0, -5.5])
    assert np.allclose(Vt.value(xo), V.value(xo))


def test_patched_fields_are_c1_across_the_boundary():
    V = CosineWellPotential()
    for Vt in (flatten_on_region(V, D_PI), invert_on_region(V, D_PI)):
        eps = 1e-6
        for b in (-np.pi, np.pi):
            assert abs(Vt.value(b - eps) - Vt.value(b + eps)) < 1e-10
            assert abs(Vt.gradient(b - eps) - Vt.gradient(b + eps)) < 1e-5


def test_boundary_match_precheck_rejects_bad_potentials():
    # quadratic does not vanish on the boundary of (-1, 1)
    with pytest.raises(ConstructionError):
        flatten_on_region(QuadraticPotential(k=1.0), Interval(-1, 1))
    with pytest.raises(ConstructionError):
        invert_on_region(LinearPotential(1.0), Interval(-1, 1))
    # zero potential trivially matches anywhere
    flatten_on_region(ZeroPotential(), Interval(-1, 1))


def test_region_supremum_on_cosine():
    # sup over D of Laplace(V) = cos attains ~1 near x = 0; M = sup/2 = 0.5
    V = CosineWellPotential()
    sup = region_supremum(lambda x: V.laplacian(x), D_PI)
    assert sup == pytest.approx(1.0, abs=1e-6)
    # and of |grad V|: sup |sin| = 1
    assert region_supremum(lambda x: np.abs(V.gradient(x)), D_PI) == pytest.approx(
        1.0, abs=1e-6
    )


def _cosine_well_points():
    rng = np.random.default_rng(2012)
    pi = np.pi
    special = [pi, -pi, np.nextafter(pi, 0), np.nextafter(pi, 4),
               np.nextafter(-pi, 0), np.nextafter(-pi, -4), pi / 2, -pi / 2,
               0.0, -0.0, 1e6, -1e6]
    return np.concatenate([special, rng.uniform(-4, 4, 100_000),
                           rng.uniform(-1e6, 1e6, 100_000)])


def test_cosine_well_derivatives_match_sin_and_cos():
    # the half-angle forms of V' and V'' agree with libm within 2.3e-16
    V = CosineWellPotential()
    x = _cosine_well_points()
    assert np.max(np.abs(V.gradient(x) - np.sin(x))) <= 2.3e-16
    assert np.max(np.abs(V.laplacian(x) - np.cos(x))) <= 2.3e-16
    # odd V' keeps the sign of zero, as sin does
    assert np.signbit(V.gradient(-0.0)) and not np.signbit(V.gradient(0.0))


def test_cosine_well_boundary_is_exactly_flat():
    V = CosineWellPotential()
    for b in (np.pi, -np.pi):
        assert V.value(b) == 0.0
        assert V.laplacian(b) == -1.0
    assert _boundary_match_residual(V, D_PI)[0] < _BOUNDARY_MATCH_TOL


_FIELDS = {
    "zero": ZeroPotential(),
    "linear": LinearPotential(-0.7),
    "quadratic": QuadraticPotential(k=2.5),
    "cosine": CosineWellPotential(),
    "flatten": flatten_on_region(CosineWellPotential(), D_PI),
    "invert": invert_on_region(CosineWellPotential(), D_PI),
}


@pytest.mark.parametrize("name", _FIELDS)
def test_field_scalar_and_array_calls_agree_exactly(name):
    # one element of a block equals the one-point call, bit for bit: the
    # SIMD body, its tail (4099 = 4096 + 3) and a 0-d call give one float
    V = _FIELDS[name]
    x = np.random.default_rng(7).uniform(-4, 4, 4099)
    x[:4] = (np.pi, -np.pi, 0.0, -0.0)
    for method in (V.value, V.gradient, V.laplacian):
        block = method(x)
        assert all(block[k] == method(float(x[k])) for k in range(x.size))


@pytest.mark.parametrize("name", _FIELDS)
def test_fields_return_numpy_values_of_the_input_shape(name):
    V = _FIELDS[name]
    for shape in ((), (7,), (3, 4)):
        # a python float in gives a numpy scalar or 0-d array out
        x = np.linspace(-4.0, 4.0, 12)[:math.prod(shape)].reshape(shape)
        x = x if shape else 0.5
        for out, dtype in ((V.value(x), np.float64),
                           (V.gradient(x), np.float64),
                           (V.laplacian(x), np.float64),
                           (D_PI.indicator(x), np.bool_)):
            assert isinstance(out, (np.ndarray, np.generic))
            assert out.shape == shape and out.dtype == dtype


@pytest.mark.parametrize("name", _FIELDS)
def test_derivatives_are_the_gradient_and_laplacian_bit_for_bit(name):
    V = _FIELDS[name]
    x = np.random.default_rng(11).uniform(-7, 7, 4099)
    x[:5] = (np.pi, -np.pi, 0.0, -0.0, 3 * np.pi)
    for point in (x, x[:4088].reshape(8, 511), 0.5, -0.0):
        g, lap = V.derivatives(point)
        for got, want in ((g, V.gradient(point)), (lap, V.laplacian(point))):
            assert got.shape == np.shape(want) and got.dtype == want.dtype
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert np.array_equal(got, want)


_SAMPLERS = {
    "flatten": lambda V: flatten_on_region(V, D_PI),
    "invert": lambda V: invert_on_region(V, D_PI),
    "half": lambda V: PatchedPotential(V, D_PI, 0.5, "half"),
}


@pytest.mark.parametrize("sigma", [1.0, 0.5])
@pytest.mark.parametrize("name", _SAMPLERS)
def test_patched_integrand_is_the_general_form_in_closed_form(name, sigma):
    # g_V - g_V~ with g = sigma^2 V'' - V'^2, each term from the fields'
    # own gradient and laplacian, at +-pi, their neighbouring doubles,
    # points outside D and |x| up to 1e3
    V = CosineWellPotential()
    Vt = _SAMPLERS[name](V)
    rng = np.random.default_rng(22)
    pi = np.pi
    x = np.concatenate([
        [pi, -pi, np.nextafter(pi, 0), np.nextafter(pi, 4),
         np.nextafter(-pi, 0), np.nextafter(-pi, -4), 0.0, -0.0, 1e3, -1e3],
        rng.uniform(-4, 4, 4000), rng.uniform(-1e3, 1e3, 4000)])
    s2 = sigma ** 2
    general = ((s2 * V.laplacian(x) - V.gradient(x) ** 2)
               - (s2 * Vt.laplacian(x) - Vt.gradient(x) ** 2))
    out, grad = generator_difference(V, Vt, NoiseScale(sigma=sigma), x)
    assert np.max(np.abs(out - general)) <= 1e-14
    want = Vt.gradient(x)
    assert np.array_equal(grad, want)
    assert np.array_equal(np.signbit(grad), np.signbit(want))


class _Steep(PotentialField):
    """The cosine well, flat at +-pi, with |V'| = 1e200 on (0.5, 1)."""

    label = "steep"
    well = CosineWellPotential()

    def value(self, x):
        return self.well.value(x)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x > 0.5) & (x < 1.0), -1e200, self.well.gradient(x))

    def laplacian(self, x):
        return self.well.laplacian(x)


@pytest.mark.parametrize("patch, points", [
    (flatten_on_region, "mixed"), (invert_on_region, "mixed"),
    (flatten_on_region, "inside"), (invert_on_region, "inside"),
], ids=["flatten_on_region", "invert_on_region", "flatten_on_region-inside",
        "invert_on_region-inside"])
def test_an_overflowing_gradient_on_d_fails_at_its_point(patch, points):
    # V'^2 = inf there while V' is finite: flatten gives -inf, invert
    # 0 * inf = nan, also on a step with every point in D; a checked
    # accumulator refuses the integrand at its first such point
    V = _Steep()
    x = np.array([0.0, -2.0, 4.0, 0.75, 0.9])
    if points == "inside":
        x = np.delete(x, 2)
    acc = WeightAccumulator(V, patch(V, D_PI), NoiseScale(sigma=1.0), 1e-2, 1,
                            [1e-2])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvaluationError) as exc:
            acc.observe(0, x)
        acc.checked = False
        acc.observe(0, x)
    assert exc.value.point == 0.75
    assert "non-finite at x=0.75" in str(exc.value)
    spike = acc._sums[0][(x > 0.5) & (x < 1.0)]
    assert (np.isneginf(spike) if patch is flatten_on_region
            else np.isnan(spike)).all()


class _NanOutside(CosineWellPotential):
    """The cosine well, but nan for |x| >= pi."""

    def value(self, x):
        return np.where(np.abs(x) >= np.pi, np.nan, super().value(x))

    def gradient(self, x):
        return np.where(np.abs(x) >= np.pi, np.nan, super().gradient(x))


@pytest.mark.parametrize("patch", [flatten_on_region, invert_on_region])
def test_a_base_that_is_nan_on_the_boundary_is_refused(patch):
    # a nan residual compares false with every bound, so it counts as inf
    V = _NanOutside()
    assert _boundary_match_residual(V, D_PI) == (np.inf, np.pi)
    with pytest.raises(ConstructionError,
                       match=r"residual inf at x=3\.141592653589793"):
        patch(V, D_PI)


def test_cosine_derivatives_in_place_are_the_quotient_forms_bit_for_bit():
    # 2t / (1 + t^2) and (1 - t^2) / (1 + t^2) with t = tan(x/2), written
    # out; scalars come back as numpy scalars, as they did
    V = CosineWellPotential()
    pi = np.pi
    x = np.concatenate([
        [pi, -pi, np.nextafter(pi, 0), np.nextafter(-pi, 0), 0.0, -0.0,
         np.nan, np.inf, -np.inf],
        np.random.default_rng(3).uniform(-1e3, 1e3, 2000)])
    with np.errstate(invalid="ignore"):
        t = np.tan(0.5 * x)
        want = (2.0 * t / (1.0 + t * t), (1.0 - t * t) / (1.0 + t * t))
        got = (V.gradient(x),) + V.derivatives(x)
        scalar = V.gradient(0.7), *V.derivatives(-0.0)
    for a, b in zip(got, (want[0], *want)):
        assert np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(np.signbit(a), np.signbit(b))
    assert all(type(v) is np.float64 for v in scalar)
    t = np.tan(0.35)
    assert scalar[0] == 2.0 * t / (1.0 + t * t)
    assert np.signbit(scalar[1]) and scalar[2] == 1.0


class _Spiky(CosineWellPotential):
    """The cosine well with W' = 1e200, so W'^2 = inf, on (0.5, 1) and
    (4, 5), and W'' = nan on (-1, -0.5) and (-5, -4): non-finite
    integrands on D and off it."""

    def gradient(self, x):
        return self.derivatives(x)[0]

    def derivatives(self, x, out=None):
        g, lap = super().derivatives(x)
        x = np.asarray(x, dtype=float)
        g = np.where((np.abs(x - 0.75) < 0.25) | (np.abs(x - 4.5) < 0.5),
                     1e200, g)
        lap = np.where((np.abs(x + 0.75) < 0.25) | (np.abs(x + 4.5) < 0.5),
                       np.nan, lap)
        return g, lap


def _spiky_points():
    """+-pi and their neighbouring doubles, signed zeros, nan, +-inf,
    _Spiky's spikes and uniform points of (-6, 6)."""
    pi = np.pi
    return np.concatenate([
        [pi, -pi, np.nextafter(pi, 0), np.nextafter(pi, 4),
         np.nextafter(-pi, 0), np.nextafter(-pi, -4), 0.0, -0.0,
         np.nan, np.inf, -np.inf, 0.75, 4.5, -0.75, -4.5],
        np.random.default_rng(8).uniform(-6, 6, 400)])


def _bits_equal(a, b):
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("sign", [0.0, -1.0, 0.5])
def test_patched_evaluators_are_where_d_sf_f_bit_for_bit(sign):
    # value, gradient and laplacian are sign * f on D and f off it, point
    # by point in python floats, with +0.0 on D at sign 0, at signed
    # zeros, nan and +-inf in x, f = 1e200 and f = nan, for arrays and
    # scalars
    V = _Spiky()
    Vt = PatchedPotential(V, D_PI, sign, "patched")
    x = _spiky_points()
    on_d = [-np.pi < p < np.pi for p in x]
    for name in ("value", "gradient", "laplacian"):
        with np.errstate(invalid="ignore"):
            f = getattr(V, name)(x)
            got = getattr(Vt, name)(x)
            scalars = [getattr(Vt, name)(p) for p in x]
        want = np.array([(sign * v if sign else 0.0) if d else v
                         for d, v in zip(on_d, f.tolist())])
        assert _bits_equal(got, want), name
        assert all(np.ndim(v) == 0 and _bits_equal(v, w)
                   for v, w in zip(scalars, want)), name
        if sign == 0.0:
            assert not np.signbit(got[on_d]).any()


def _where_reference(V, sign, sigma, x):
    """(where(D, C, 0), where(D, sW', W')) of V patched by ``sign`` on
    D_PI, formed with ``np.where`` as before the in-place step."""
    g, lap = V.derivatives(x)
    inside = D_PI.indicator(x)
    C = (1.0 - sign) * sigma ** 2 * lap - (1.0 - sign * sign) * (g * g)
    grad = np.where(inside, sign * g, g) if sign else np.where(inside, 0.0, g)
    return np.where(inside, C, 0.0), grad


@pytest.mark.parametrize("sigma, points", [
    (1.0, "mixed"), (0.5, "mixed"), (1.0, "inside"), (0.5, "inside"),
    (1.0, "outside"), (0.5, "outside"),
], ids=["1.0", "0.5", "1.0-inside", "0.5-inside", "1.0-outside",
        "0.5-outside"])
@pytest.mark.parametrize("sign", [0.0, -1.0, 0.5])
def test_unchecked_observe_adds_the_masked_closed_form(sign, sigma, points,
                                                      monkeypatch):
    # the integrand is where(D, C, 0), which the sums gain, and the step
    # gets where(D, sW', W'), sign bit and all, at non-finite W', W'' and
    # x on D and off it; whatever the points, the step forms the
    # complement of D once, and with every point off D (nan, +-inf, +-pi,
    # the outer spikes) C is +0.0 and W~' is W' on every row
    V = _Spiky()
    Vt = PatchedPotential(V, D_PI, sign, "patched")
    noise = NoiseScale(sigma=sigma)
    x = _spiky_points()
    if points != "mixed":
        x = x[D_PI.indicator(x) == (points == "inside")]
    acc = WeightAccumulator(V, Vt, noise, 1e-2, 2, [1e-2])
    acc.checked = False
    first = np.random.default_rng(9).permutation(x)
    complements, logical_not = [], np.logical_not

    def spy(*args, **kwargs):
        complements.append(args)
        return logical_not(*args, **kwargs)

    with np.errstate(over="ignore", invalid="ignore"):
        acc.observe(0, first)
        before = acc._sums.copy()
        grad = acc.observe(1, x)
        monkeypatch.setattr(np, "logical_not", spy)
        integrand = generator_difference(V, Vt, noise, x, step_arrays(x.shape))[0]
        monkeypatch.undo()
        (C0, _), (C, want) = (_where_reference(V, sign, sigma, first),
                              _where_reference(V, sign, sigma, x))
        assert _bits_equal(before[0], np.zeros(len(x)) + C0)
        assert _bits_equal(acc._sums[0], before[0] + C)
        assert _bits_equal(integrand, C)
        assert _bits_equal(grad, want)
        assert _bits_equal(grad, Vt.gradient(x))
        if points == "outside":
            assert _bits_equal(integrand, np.zeros(len(x)))
            assert _bits_equal(grad, V.gradient(x))
    assert len(complements) == 1


@pytest.mark.parametrize("path", ["inside", "out-and-back"])
@pytest.mark.parametrize("patch", [flatten_on_region, invert_on_region])
def test_one_accumulator_steps_blocks_as_the_where_reference(patch, path):
    # one accumulator steps a 2048-row half, a short last half and a
    # 4096-row redraw on arrays sized for the rows before it; every step
    # matches the np.where reference in its integrand, sums and drift,
    # and every block in its terminal states, bit for bit (flatten's sV'
    # is +0.0); "out-and-back" kicks row 0 out of D and back mid-run, so
    # the unmasked branch gives way to the masked one and returns
    V = CosineWellPotential()
    Vt = patch(V, D_PI)
    sign, sigma, h, n_steps = Vt.sign, 0.5, 1e-2, 30
    noise = NoiseScale(sigma=sigma)
    acc = WeightAccumulator(V, Vt, noise, h, n_steps, [h, 5 * h])
    acc.checked = False
    for rows in (2048, 904, 4096):
        xi = np.random.default_rng(rows).standard_normal((rows, n_steps))
        if path == "out-and-back":
            xi[0, 10], xi[0, 12] = 120.0, -120.0    # sigma sqrt(h) = 0.05
        sums = np.zeros((2, rows))
        log, ref = [], []

        def stepped(i, X):
            grad = acc.observe(i, X)
            C, gt = acc._arrays[:2]
            assert grad is gt
            log.append((C.copy(), acc._sums.copy(), grad.copy()))
            return grad

        def reference(i, X):
            C, grad = _where_reference(V, sign, sigma, X)
            for j in (0, 1) if i % 5 == 0 else (0,):
                sums[j] += C
            ref.append((C, sums.copy(), grad, D_PI.indicator(X).all()))
            return grad

        X = evolve_block(Vt, noise, 0.3, n_steps, h, xi, stepped, checked=False)
        X_ref = evolve_block(Vt, noise, 0.3, n_steps, h, xi, reference,
                             checked=False)
        assert _bits_equal(X, X_ref)
        assert acc._arrays[0].shape == (rows,)
        for got, want in zip(log, ref):
            assert all(_bits_equal(a, b) for a, b in zip(got, want))
        branch = [r[3] for r in ref]
        if path == "inside":
            assert all(branch)
        else:
            assert branch[:11] == [True] * 11 and not any(branch[11:13])
            assert all(branch[13:])
