"""Potential energy fields on the line, the escape interval, and the generator integrand.

The central object is :class:`PotentialField`: a scalar field ``V`` with
``value``, ``gradient`` and ``laplacian`` evaluators, which every
subclass implements in closed form, and ``derivatives``, the pair
``(V', V'')`` from one evaluation where a field shares work between
them.  Fields act elementwise on arrays of any shape and return numpy
values of that shape: an array for an array, a numpy scalar or 0-d
array for a scalar, which ``float()`` turns into a python float.
``derivatives(x, out=None)`` and :meth:`Interval.indicator` take an
optional output: the library fields write into it and return it, and a
field may ignore it and return arrays of its own.  So a patched
Euler-Girsanov step (:meth:`PatchedPotential.integrand_and_gradient`
into :func:`step_arrays`) allocates no array beyond the fields' scratch.

One differential expression recurs throughout the package, built from
the generator ``L_V = -V' d/dx + beta^{-1} d^2/dx^2`` of the overdamped
Langevin diffusion ``dX = -V'(X) dt + sigma dW`` (``sigma^2 = 2 / beta``):

    (L_V + L_0) V = sigma^2 V'' - V'^2,

where ``L_0`` is the generator of the driftless diffusion.  Its difference
g_V - g_V~ for target and sampler is the weight integrand of
:mod:`wellescape.girsanov`; V's weight integrand against the free diffusion
(V~ = 0) is the chord integrand of :mod:`wellescape.density`.
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
        given = [(k, float(v)) for k, v in zip(("sigma", "epsilon", "beta"),
                                               (sigma, epsilon, beta)) if v is not None]
        if len(given) != 1:
            raise ValueError("give exactly one of sigma/epsilon/beta, got "
                             f"{[k for k, _ in given]}")
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

    def derivatives(self, x, out=None):
        """``(gradient(x), laplacian(x))``; a field overrides it to share
        work between the two, bit for bit.  ``out``, a pair of arrays of
        x's shape, may receive the two; the caller reads only the pair
        returned, which need not be ``out``."""
        return self.gradient(x), self.laplacian(x)

    def __repr__(self):
        return f"{type(self).__name__}(label={self.label!r})"


class ZeroPotential(PotentialField):
    """V = 0: free diffusion."""

    label = "zero"

    def value(self, x):
        return np.zeros(np.shape(x))

    gradient = laplacian = value


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
    ``derivatives`` takes both from one ``tan``, into ``out`` when given.
    """

    label = "cosine_well"

    def value(self, x):
        return -np.cos(np.asarray(x, dtype=float)) - 1.0

    def gradient(self, x):
        t = np.tan(0.5 * np.asarray(x, dtype=float))
        g = 2.0 * t
        t *= t
        t += 1.0
        g /= t
        return g

    def laplacian(self, x):
        return self.derivatives(x)[1]

    def derivatives(self, x, out=None):
        # the operations of 2t / (1 + t^2) and (1 - t^2) / (1 + t^2) into
        # ``out`` or arrays of this call: t = tan(x/2), then t^2, in place
        # in the Laplacian's array, and 1 + t^2 the one temporary
        x = np.asarray(x, dtype=float)
        g, lap = (np.empty(x.shape), np.empty(x.shape)) if out is None else out
        t = np.multiply(0.5, x, out=lap)
        np.tan(t, out=t)
        np.multiply(2.0, t, out=g)
        t *= t
        d = t + 1.0
        np.subtract(1.0, t, out=lap)
        g /= d
        lap /= d
        return (g, lap) if x.ndim or out is not None else (g[()], lap[()])


class Interval:
    """The open interval D = (a, b) on the line, the usual pre-escape region."""

    def __init__(self, a, b):
        a, b = float(a), float(b)
        if not a < b:
            raise ValueError(f"region must satisfy a < b, got ({a}, {b})")
        self.a, self.b = a, b
        self.label = f"interval({a:g},{b:g})"

    def indicator(self, x, out=None):
        """The boolean mask of D at x, into ``out`` when given."""
        x = np.asarray(x, dtype=float)
        inside = np.greater(x, self.a, out=out)
        inside &= x < self.b
        return inside

    def __repr__(self):
        return f"{type(self).__name__}({self.label})"


def _boundary_match_residual(potential, region):
    """Max of |V| and |V'| over the endpoints of D, a non-finite one as inf,
    and the endpoint where it is taken (b on a tie)."""
    def residual(p):
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.abs([potential.value(p), potential.gradient(p)])
        return float(r.max()) if np.isfinite(r).all() else np.inf
    return max((residual(p), p) for p in (region.a, region.b))


class PatchedPotential(PotentialField):
    """Equal to the base potential outside D, to ``sign`` times it inside D.

    ``sign = 0`` flattens the well: sampling diffuses freely inside D,
    which makes escapes far more frequent.  ``sign = -1`` inverts it into
    a hill whose drift pushes samples toward the boundary of D.  Both
    require V = 0 and V' = 0 at the endpoints of D so the patched field
    stays C^1 (tested at construction).
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

    def _patch(self, x, f):
        """where(D, sign * f, f) at x, +0.0 on D at sign 0, in an array of
        its own: ``f`` may be an array the base keeps."""
        s = self.sign
        return np.where(self.region.indicator(x), s * f if s else 0.0, f)

    def value(self, x):
        return self._patch(x, self.base.value(x))

    def gradient(self, x):
        return self._patch(x, self.base.gradient(x))

    def laplacian(self, x):
        return self._patch(x, self.base.laplacian(x))

    def integrand_and_gradient(self, noise, x, out=None):
        """(C, W~') at x from one evaluation of the base W, which it does
        not write into: with g_W = sigma^2 W'' - W'^2, C = g_W - g_W~ is
        (1 - s) sigma^2 W'' - (1 - s^2) W'^2 on D and +0.0 off it.  Its W'^2
        term stays at s = -1 so that an overflowing W'^2 gives nan there,
        as in the general form.

        C and W~' are written into ``out``, the :func:`step_arrays` of x's
        shape (new ones by default), which also hold the base's W' and W''
        and end the step holding the complement of D.  C and sW' are formed
        at every point, unmasked; the points off D then get back +0.0 and
        W' under that complement."""
        C, gt, mask, *pair = step_arrays(np.shape(x)) if out is None else out
        g, lap = self.base.derivatives(x, out=pair)
        s = self.sign
        np.multiply((1.0 - s) * noise.sigma ** 2, lap, out=C)
        square = np.multiply(g, g, out=gt)  # W'^2 in W~'s array until sW'
        square *= 1.0 - s * s
        C -= square
        if s:
            np.multiply(g, s, out=gt)
        else:
            gt.fill(0.0)
        outside = np.logical_not(self.region.indicator(x, out=mask), out=mask)
        np.copyto(gt, g, where=outside)
        np.copyto(C, 0.0, where=outside)
        return C, gt


def step_arrays(shape):
    """Arrays of one patched step at points of ``shape``: the integrand,
    the sampler's gradient, the mask of D (its complement once the step
    is done), and the base's V' and V''."""
    return (np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool),
            np.empty(shape), np.empty(shape))


def flatten_on_region(potential, region):
    """Return the potential with its values replaced by 0 inside the region."""
    return PatchedPotential(potential, region, 0, "flatten")


def invert_on_region(potential, region):
    """Return the potential with its sign flipped inside the region."""
    return PatchedPotential(potential, region, -1, "invert")


def _check_integrand(out, x, potential, sampling_potential):
    """Refuse a non-finite integrand ``out`` at x, naming its first point."""
    if np.isfinite(out).all():
        return
    bad = int(np.flatnonzero(~np.isfinite(np.ravel(out)))[0])
    point = float(np.ravel(x)[bad])
    raise EvaluationError(
        f"integrand of {potential.label!r} against {sampling_potential.label!r} "
        f"is non-finite at x={point!r}", point=point)


def generator_apply_to_self(potential, noise, x):
    """Evaluate (L_V + L_0) V = sigma^2 V'' - V'^2 at x.

    This is V's weight integrand against the free diffusion (V~ = 0): the
    running integrand of the reweighting identity and the chord integrand
    of the short-time density approximation.  Raises
    :class:`EvaluationError` if the result is non-finite.
    """
    zero = ZeroPotential()
    with np.errstate(over="ignore", invalid="ignore"):
        out = generator_difference(potential, zero, noise, x)[0]
    _check_integrand(out, x, potential, zero)
    return out


def _general_difference(potential, sampling_potential, noise, x):
    g, lap = potential.derivatives(x)
    gt, lapt = sampling_potential.derivatives(x)
    s2 = noise.sigma ** 2
    return (s2 * lap - g * g) - (s2 * lapt - gt * gt), gt


def generator_difference(potential, sampling_potential, noise, x, out=None):
    """(integrand, V~') at x, with integrand (L_V + L_0) V - (L_V~ + L_0) V~.

    A :class:`PatchedPotential` V~ of a base W gives g_W - g_V~ in closed
    form, +0.0 off D, in ``out``, its :func:`step_arrays` (new ones when
    None).  When W is not this very V, that closed form plus g_V - g_W,
    exactly 0 for an equal copy, is an array of its own.  Values are
    returned as computed, inf and nan included: a caller that needs them
    finite refuses them itself.
    """
    if isinstance(sampling_potential, PatchedPotential):
        out, gt = sampling_potential.integrand_and_gradient(noise, x, out)
        if sampling_potential.base is not potential:
            out = out + _general_difference(
                potential, sampling_potential.base, noise, x)[0]
        return out, gt
    return _general_difference(potential, sampling_potential, noise, x)
