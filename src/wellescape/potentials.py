"""Potential energy fields on the line, the escape interval, and the generator integrand.

The central object is :class:`PotentialField`: a scalar field ``V`` with
``value``, ``gradient`` and ``laplacian`` evaluators, which every
subclass implements in closed form.  Fields act elementwise on arrays of
any shape and return numpy values of that shape: an array for an array,
a numpy scalar or 0-d array for a scalar, which ``float()`` turns into a
python float.

One differential expression recurs throughout the package, built from
the generator ``L_V = -V' d/dx + beta^{-1} d^2/dx^2`` of the overdamped
Langevin diffusion ``dX = -V'(X) dt + sigma dW`` (``sigma^2 = 2 / beta``):

    (L_V + L_0) V = sigma^2 V'' - V'^2,

where ``L_0`` is the generator of the driftless diffusion.  It is the
integrand of the pathwise reweighting identity in
:mod:`wellescape.girsanov` and of the short-time density approximation in
:mod:`wellescape.density`.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstructionError, EvaluationError

_BOUNDARY_MATCH_TOL = 1e-8


class NoiseScale:
    """Noise amplitude of the diffusion, readable in every convention.

    The same scale can be read as the amplitude ``sigma`` in
    ``dX = -grad(V) dt + sigma dW``, the inverse temperature
    ``beta = 2 / sigma^2``, or the small-noise parameter
    ``epsilon = sigma^2``.  It is given once, in one convention, and is
    immutable.  The given value must be positive, and sigma^2 and
    1/sigma^2 positive finite floats: every weight, density bound and
    oracle divides by epsilon.
    """

    def __init__(self, sigma=None, *, beta=None, epsilon=None):
        given = [(k, float(v)) for k, v in zip(("sigma", "beta", "epsilon"),
                                               (sigma, beta, epsilon)) if v is not None]
        if len(given) != 1:
            raise ValueError("specify exactly one of sigma, beta, epsilon")
        (name, value), = given
        if not value > 0:
            raise ValueError(f"{name} must be positive")
        sigma = (value if name == "sigma" else
                 (2.0 / value) ** 0.5 if name == "beta" else value ** 0.5)
        s2 = sigma * sigma
        if not (0.0 < s2 < np.inf and 1.0 / s2 < np.inf):
            raise ValueError(
                f"{name}={value:g} is out of range: sigma^2 and 1/sigma^2 "
                "must both be positive and finite")
        self._sigma = sigma

    @property
    def sigma(self):
        return self._sigma

    @property
    def epsilon(self):
        return self._sigma ** 2

    @property
    def beta(self):
        return 2.0 / self._sigma ** 2

    def __repr__(self):
        return f"NoiseScale(sigma={self._sigma!r})"


class PotentialField:
    """Scalar potential on the line with gradient and Laplacian evaluators.

    Attributes
    ----------
    label : str
        Short name used in reports and CSV output.
    """

    label = "potential"

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    def laplacian(self, x):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(label={self.label!r})"


class ZeroPotential(PotentialField):
    """V = 0: free diffusion."""

    label = "zero"

    def value(self, x):
        return np.zeros(np.shape(x))

    def gradient(self, x):
        return self.value(x)

    def laplacian(self, x):
        return self.value(x)


class LinearPotential(PotentialField):
    """V(x) = a x with constant slope ``a``."""

    def __init__(self, slope):
        self.slope = float(slope)
        with np.errstate(over="ignore"):  # round scales by 1e12
            rounded = np.round(self.slope, 12)
        self.label = f"linear(a={rounded if np.isfinite(rounded) else self.slope})"

    def value(self, x):
        return self.slope * np.asarray(x, dtype=float)

    def gradient(self, x):
        return np.full(np.shape(x), self.slope)

    def laplacian(self, x):
        return np.zeros(np.shape(x))


class QuadraticPotential(PotentialField):
    """V(x) = k x^2 / 2: the Ornstein-Uhlenbeck well for k > 0."""

    def __init__(self, k=1.0):
        self.k = float(k)
        self.label = f"quadratic(k={self.k})"

    def value(self, x):
        return 0.5 * self.k * np.asarray(x, dtype=float) ** 2

    def gradient(self, x):
        return self.k * np.asarray(x, dtype=float)

    def laplacian(self, x):
        return np.full(np.shape(x), self.k)


class CosineWellPotential(PotentialField):
    """V(x) = -cos(x) - 1 on the line.

    A periodic well with minimum -2 at x = 0 and flat maxima V = 0,
    V' = 0 at odd multiples of pi, so the boundary of D = (-pi, pi)
    satisfies the matching condition needed by the region transforms
    below.  V' = sin x = 2t / (1 + t^2) and V'' = cos x = (1 - t^2) /
    (1 + t^2) with t = tan(x/2): numpy runs float64 ``tan`` in SIMD where
    it can, ``sin``/``cos`` in scalar libm, and the two agree within 2.3e-16.
    """

    label = "cosine_well"

    def value(self, x):
        return -np.cos(np.asarray(x, dtype=float)) - 1.0

    def gradient(self, x):
        t = np.tan(0.5 * np.asarray(x, dtype=float))
        return 2.0 * t / (1.0 + t * t)

    def laplacian(self, x):
        t2 = np.square(np.tan(0.5 * np.asarray(x, dtype=float)))
        return (1.0 - t2) / (1.0 + t2)


class Interval:
    """The open interval D = (a, b) on the line, the usual pre-escape region."""

    def __init__(self, a, b):
        a, b = float(a), float(b)
        if not a < b:
            raise ValueError(f"region must satisfy a < b, got ({a}, {b})")
        self.a, self.b = a, b
        self.label = f"interval({a:g},{b:g})"

    def indicator(self, x):
        x = np.asarray(x, dtype=float)
        return (x > self.a) & (x < self.b)

    def __repr__(self):
        return f"{type(self).__name__}({self.label})"


def _boundary_match_residual(potential, region):
    """Max of |V| and |V'| over the two endpoints of the interval."""
    worst = 0.0
    worst_point = None
    for p in (region.a, region.b):
        r = float(max(abs(potential.value(p)), abs(potential.gradient(p))))
        if r >= worst:
            worst, worst_point = r, p
    return worst, worst_point


class PatchedPotential(PotentialField):
    """Equal to the base potential outside D, to ``sign`` times it inside D.

    ``sign = 0`` flattens the well: sampling diffuses freely inside D,
    which makes escapes far more frequent.  ``sign = -1`` inverts it into
    a hill whose drift pushes samples toward the boundary of D.  Both
    require V = 0 and V' = 0 at the endpoints of D so the patched field
    stays C^1 (checked at construction).
    """

    def __init__(self, base, region, sign, name):
        worst, point = _boundary_match_residual(base, region)
        if worst > _BOUNDARY_MATCH_TOL:
            raise ConstructionError(
                f"{name}_on_region: potential {base.label!r} does not vanish to "
                f"first order on the boundary of {region.label} (residual "
                f"{worst:.3e} at x={point!r}, tolerance "
                f"{_BOUNDARY_MATCH_TOL:.1e}); the patched field would not be C^1")
        self.base = base
        self.region = region
        self.sign = float(sign)
        self.label = f"{name}({base.label})"

    def patch(self, x, *fields):
        """This field's values from the base's ``fields`` at x, e.g. its
        (gradient, Laplacian), with one indicator.  A nonzero sign scales by
        where(inside, sign, 1): bit for bit where(inside, sign * f, f)."""
        inside = self.region.indicator(x)
        if self.sign:
            scale = np.where(inside, self.sign, 1.0)
            return tuple(scale * f for f in fields)
        return tuple(np.where(inside, 0.0, f) for f in fields)

    def value(self, x):
        return self.patch(x, self.base.value(x))[0]

    def gradient(self, x):
        return self.patch(x, self.base.gradient(x))[0]

    def laplacian(self, x):
        return self.patch(x, self.base.laplacian(x))[0]


def flatten_on_region(potential, region):
    """Return the potential with its values replaced by 0 inside the region."""
    return PatchedPotential(potential, region, 0, "flatten")


def invert_on_region(potential, region):
    """Return the potential with its sign flipped inside the region."""
    return PatchedPotential(potential, region, -1, "invert")


def _check_finite(out, x, what):
    if np.isfinite(out).all():
        return
    bad = int(np.flatnonzero(~np.isfinite(np.ravel(out)))[0])
    point = float(np.ravel(x)[bad])
    raise EvaluationError(f"{what} is non-finite at x={point!r}", point=point)


def generator_apply_to_self(potential, noise, x):
    """Evaluate (L_V + L_0) V = sigma^2 V'' - V'^2 at x.

    This is the running integrand of the generator-form reweighting
    identity and of the short-time density approximation.  Raises
    :class:`EvaluationError` if the result is non-finite.
    """
    g, lap = potential.gradient(x), potential.laplacian(x)
    out = noise.sigma ** 2 * lap - g * g
    _check_finite(out, x, f"(L+L0) applied to {potential.label!r}")
    return out


def generator_difference(potential, sampling_potential, noise, x):
    """(L_V + L_0) V - (L_V~ + L_0) V~ at x, and V~' at x.

    One evaluation of V' and V'' serves both terms when V~ is a
    :class:`PatchedPotential` of this very V.  Raises
    :class:`EvaluationError` if the difference is non-finite.
    """
    g, lap = potential.gradient(x), potential.laplacian(x)
    patched = isinstance(sampling_potential, PatchedPotential)
    if patched and sampling_potential.base is potential:
        gt, lapt = sampling_potential.patch(x, g, lap)
    else:
        gt = sampling_potential.gradient(x)
        lapt = sampling_potential.laplacian(x)
    s2 = noise.sigma ** 2
    out = (s2 * lap - g * g) - (s2 * lapt - gt * gt)
    _check_finite(out, x, f"integrand of {potential.label!r} "
                  f"against {sampling_potential.label!r}")
    return out, gt


def region_supremum(func, region):
    """Grid estimate of sup over D of a pointwise function.

    Evaluates ``func`` on 10,000 evenly spaced points over [a, b],
    masked by the indicator of the open interval.
    """
    pts = np.linspace(region.a, region.b, 10_000)
    inside = region.indicator(pts)
    if not inside.any():
        raise ValueError("no grid point falls inside the region")
    return float(np.max(np.asarray(func(pts))[inside]))
