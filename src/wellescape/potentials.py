"""Potential energy fields, regions, and generator-type differential expressions.

The central object is :class:`PotentialField`: a scalar field ``V`` with
``value``, ``gradient`` and ``laplacian`` evaluators, plus ``field`` for
the (gradient, Laplacian) pair in one call.  Fields are vectorized with
numpy conventions:

* one-dimensional fields act elementwise on arrays of any shape (scalars in,
  python floats out);
* ``d``-dimensional fields (``d >= 2``) take points of shape ``(..., d)`` and
  return shape ``(...)`` for scalars, ``(..., d)`` for gradients.

Subclasses with closed-form derivatives override the evaluators; the base
class falls back to central finite differences with a per-coordinate step
``1e-4 * max(1, |x_k|)``.

Two differential expressions recur throughout the package, both built from
the generator ``L_V = -grad(V) . grad + beta^{-1} Laplace`` of the overdamped
Langevin diffusion ``dX = -grad(V) dt + sigma dW`` (``sigma^2 = 2 / beta``):

* ``generator_apply_to_self``:   ``(L_V + L_0) V = sigma^2 Laplace(V) - |grad V|^2``
  where ``L_0`` is the generator of the driftless diffusion;
* ``generator_apply_general``:   ``-|grad V|^2 + 2 F . grad V + sigma^2 Laplace(V)``
  for an arbitrary reference drift field ``F``.

These are the integrands of the pathwise reweighting identities in
:mod:`wellescape.girsanov` and of the short-time density approximation in
:mod:`wellescape.density`.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstructionError, EvaluationError

_FD_SCALE = 1e-4
_BOUNDARY_MATCH_TOL = 1e-8


def _fd_steps(x):
    """Finite-difference steps, relative above |x| = 1, absolute below."""
    return _FD_SCALE * np.maximum(1.0, np.abs(x))


def _as_float(a):
    """Return a python float for 0-d results, pass arrays through."""
    a = np.asarray(a)
    if a.ndim == 0:
        return float(a)
    return a


class NoiseScale:
    """Noise amplitude of the diffusion, kept consistent across conventions.

    The same scale can be read as the amplitude ``sigma`` in
    ``dX = -grad(V) dt + sigma dW``, the inverse temperature
    ``beta = 2 / sigma^2``, or the small-noise parameter
    ``epsilon = sigma^2``.  Assigning through any property updates the
    others.  ``sigma = 0`` (degenerate noise, ``beta = inf``) is allowed so
    deterministic dynamics can be exercised in tests.
    """

    def __init__(self, sigma=None, *, beta=None, epsilon=None):
        given = [v for v in (sigma, beta, epsilon) if v is not None]
        if len(given) != 1:
            raise ValueError("specify exactly one of sigma, beta, epsilon")
        if sigma is not None:
            self.sigma = sigma
        elif beta is not None:
            self.beta = beta
        else:
            self.epsilon = epsilon

    @property
    def sigma(self):
        return self._sigma

    @sigma.setter
    def sigma(self, value):
        value = float(value)
        if value < 0:
            raise ValueError("sigma must be nonnegative")
        self._sigma = value

    @property
    def epsilon(self):
        return self._sigma ** 2

    @epsilon.setter
    def epsilon(self, value):
        value = float(value)
        if value < 0:
            raise ValueError("epsilon must be nonnegative")
        self._sigma = value ** 0.5

    @property
    def beta(self):
        if self._sigma == 0.0:
            return np.inf
        return 2.0 / self._sigma ** 2

    @beta.setter
    def beta(self, value):
        value = float(value)
        if value <= 0:
            raise ValueError("beta must be positive")
        self._sigma = (2.0 / value) ** 0.5

    def __repr__(self):
        return f"NoiseScale(sigma={self._sigma!r})"


class PotentialField:
    """Scalar potential with gradient and Laplacian evaluators.

    Attributes
    ----------
    dimension : int
        Spatial dimension ``d``.
    derivatives : str
        ``"analytic"`` when the evaluators are closed-form,
        ``"finite_difference"`` when they fall back to numerical stencils.
    label : str
        Short name used in reports and CSV output.
    """

    dimension = 1
    derivatives = "analytic"
    label = "potential"

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        if self.dimension == 1:
            h = _fd_steps(x)
            return _as_float((self.value(x + h) - self.value(x - h)) / (2 * h))
        g = np.empty_like(x)
        for k in range(self.dimension):
            h = _fd_steps(x[..., k])
            xp = x.copy()
            xm = x.copy()
            xp[..., k] += h
            xm[..., k] -= h
            g[..., k] = (self.value(xp) - self.value(xm)) / (2 * h)
        return _as_float(g)

    def laplacian(self, x):
        x = np.asarray(x, dtype=float)
        if self.dimension == 1:
            h = _fd_steps(x)
            return _as_float(
                (self.value(x + h) - 2 * self.value(x) + self.value(x - h)) / h ** 2
            )
        out = np.zeros(x.shape[:-1])
        v0 = self.value(x)
        for k in range(self.dimension):
            h = _fd_steps(x[..., k])
            xp = x.copy()
            xm = x.copy()
            xp[..., k] += h
            xm[..., k] -= h
            out += (self.value(xp) - 2 * v0 + self.value(xm)) / h ** 2
        return _as_float(out)

    def field(self, x):
        """``(gradient(x), laplacian(x))``; override to share work between them."""
        return self.gradient(x), self.laplacian(x)

    def __repr__(self):
        return f"{type(self).__name__}(label={self.label!r})"


class ZeroPotential(PotentialField):
    """V = 0: free diffusion."""

    label = "zero"

    def __init__(self, dimension=1):
        self.dimension = dimension

    def value(self, x):
        x = np.asarray(x, dtype=float)
        shape = x.shape if self.dimension == 1 else x.shape[:-1]
        return _as_float(np.zeros(shape))

    def gradient(self, x):
        return _as_float(np.zeros(np.shape(x)))

    def laplacian(self, x):
        return self.value(x)


class LinearPotential(PotentialField):
    """V(x) = a . x with constant slope ``a`` (scalar for d = 1)."""

    def __init__(self, slope):
        slope = np.asarray(slope, dtype=float)
        if slope.ndim == 0:
            self.dimension = 1
            self.slope = float(slope)
        else:
            self.dimension = slope.size
            self.slope = slope
        self.label = f"linear(a={np.round(slope, 12)})"

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if self.dimension == 1:
            return _as_float(self.slope * x)
        return _as_float(x @ self.slope)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        if self.dimension == 1:
            return _as_float(np.full(x.shape, self.slope))
        return _as_float(np.broadcast_to(self.slope, x.shape).copy())

    def laplacian(self, x):
        x = np.asarray(x, dtype=float)
        shape = x.shape if self.dimension == 1 else x.shape[:-1]
        return _as_float(np.zeros(shape))


class QuadraticPotential(PotentialField):
    """V(x) = k |x|^2 / 2: the Ornstein-Uhlenbeck well for k > 0."""

    def __init__(self, k=1.0, dimension=1):
        self.k = float(k)
        self.dimension = dimension
        self.label = f"quadratic(k={self.k})"

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if self.dimension == 1:
            return _as_float(0.5 * self.k * x ** 2)
        return _as_float(0.5 * self.k * (x ** 2).sum(axis=-1))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return _as_float(self.k * x)

    def laplacian(self, x):
        x = np.asarray(x, dtype=float)
        shape = x.shape if self.dimension == 1 else x.shape[:-1]
        return _as_float(np.full(shape, self.k * self.dimension))


class CosineWellPotential(PotentialField):
    """V(x) = -cos(x) - 1 on the line.

    A periodic well with minimum -2 at x = 0 and flat maxima V = 0,
    V' = 0 at odd multiples of pi, so the boundary of D = (-pi, pi)
    satisfies the matching condition needed by the region transforms
    below.
    """

    label = "cosine_well"

    def value(self, x):
        return _as_float(-np.cos(np.asarray(x, dtype=float)) - 1.0)

    def gradient(self, x):
        return _as_float(np.sin(np.asarray(x, dtype=float)))

    def laplacian(self, x):
        return _as_float(np.cos(np.asarray(x, dtype=float)))

    def field(self, x):
        x = np.asarray(x, dtype=float)
        return _as_float(np.sin(x)), _as_float(np.cos(x))


class CallablePotential(PotentialField):
    """Wrap a plain function as a potential; derivatives by finite differences."""

    derivatives = "finite_difference"

    def __init__(self, func, dimension=1, label="callable"):
        self._func = func
        self.dimension = dimension
        self.label = label

    def value(self, x):
        return _as_float(np.asarray(self._func(np.asarray(x, dtype=float)), dtype=float))


class Region:
    """An open subset D of R^d given by an indicator and a bounding box.

    Parameters
    ----------
    indicator : callable
        Maps points (same conventions as potentials) to booleans; points on
        the topological boundary must map to False (D is open).
    bounding_box : array_like, shape (d, 2)
        Per-coordinate [low, high] bounds containing D.
    boundary_probe : tuple or None
        For d = 1, the pair (a, b) of boundary points used by construction
        checks; None when unavailable.
    """

    def __init__(self, indicator, bounding_box, boundary_probe=None, label="region"):
        self._indicator = indicator
        self.bounding_box = np.atleast_2d(np.asarray(bounding_box, dtype=float))
        self.boundary_probe = boundary_probe
        self.label = label

    @property
    def dimension(self):
        return self.bounding_box.shape[0]

    def indicator(self, x):
        return self._indicator(np.asarray(x, dtype=float))

    def __repr__(self):
        return f"{type(self).__name__}({self.label})"


class Interval(Region):
    """The open interval (a, b) on the line, the usual pre-escape region."""

    def __init__(self, a, b):
        a, b = float(a), float(b)
        if a > b:
            raise ValueError(f"empty interval: a={a} > b={b}")
        self.a, self.b = a, b
        super().__init__(None, [[a, b]], boundary_probe=(a, b),
                         label=f"interval({a:g},{b:g})")

    def indicator(self, x):
        x = np.asarray(x, dtype=float)
        out = (x > self.a) & (x < self.b)
        if out.ndim == 0:
            return bool(out)
        return out


def _boundary_match_residual(potential, region):
    """Max of |V| and |grad V| over the boundary probe points."""
    worst = 0.0
    worst_point = None
    for p in region.boundary_probe:
        v = abs(potential.value(p))
        g = np.linalg.norm(np.atleast_1d(potential.gradient(p)))
        r = max(v, g)
        if r >= worst:
            worst, worst_point = r, p
    return worst, worst_point


class PatchedPotential(PotentialField):
    """Equal to the base potential outside D, to ``sign`` times it inside D.

    ``sign = 0`` flattens the well: sampling diffuses freely inside D,
    which makes escapes far more frequent.  ``sign = -1`` inverts it into
    a hill whose drift pushes samples toward the boundary of D.  Both
    require V = 0 and grad V = 0 on the boundary of D so the patched field
    stays C^1 (checked on the region's boundary probe points at
    construction).
    """

    def __init__(self, base, region, sign, name, tol=_BOUNDARY_MATCH_TOL):
        what = f"{name}_on_region"
        if region.boundary_probe is None:
            raise ConstructionError(
                f"{what}: region {region.label} has no boundary probe points "
                f"to check that {base.label!r} is flat on its boundary")
        worst, point = _boundary_match_residual(base, region)
        if worst > tol:
            raise ConstructionError(
                f"{what}: potential {base.label!r} does not vanish to "
                f"first order on the boundary of {region.label} (residual "
                f"{worst:.3e} at x={point!r}, tolerance {tol:.1e}); the "
                f"patched field would not be C^1")
        if base.dimension != region.dimension:
            raise ConstructionError("potential and region dimensions differ")
        self.base = base
        self.region = region
        self.sign = float(sign)
        self.dimension = base.dimension
        self.derivatives = base.derivatives
        self.label = f"{name}({base.label})"

    def _patch(self, inside, values):
        inside, values = np.asarray(inside), np.asarray(values)
        if values.ndim > inside.ndim:
            inside = inside[..., None]
        inner = self.sign * values if self.sign else 0.0
        return _as_float(np.where(inside, inner, values))

    def value(self, x):
        return self._patch(self.region.indicator(x), self.base.value(x))

    def gradient(self, x):
        return self._patch(self.region.indicator(x), self.base.gradient(x))

    def laplacian(self, x):
        return self._patch(self.region.indicator(x), self.base.laplacian(x))

    def field(self, x):
        return self.patch(x, *self.base.field(x))

    def patch(self, x, gradient, laplacian):
        """This field's (gradient, Laplacian) at x from the base's there."""
        inside = np.asarray(self.region.indicator(x))
        return self._patch(inside, gradient), self._patch(inside, laplacian)


def flatten_on_region(potential, region, tol=_BOUNDARY_MATCH_TOL):
    """Return the potential with its values replaced by 0 inside the region."""
    return PatchedPotential(potential, region, 0, "flatten", tol=tol)


def invert_on_region(potential, region, tol=_BOUNDARY_MATCH_TOL):
    """Return the potential with its sign flipped inside the region."""
    return PatchedPotential(potential, region, -1, "invert", tol=tol)


def _squared_norm(g, dimension):
    g = np.asarray(g)
    if dimension == 1:
        return g * g
    return (g ** 2).sum(axis=-1)


def _check_finite(out, x, what):
    if np.all(np.isfinite(out)):
        return
    flat_out = np.atleast_1d(np.asarray(out))
    bad = int(np.flatnonzero(~np.isfinite(flat_out))[0])
    xa = np.asarray(x, dtype=float)
    pts = xa.reshape(flat_out.size, -1) if xa.size else xa
    point = pts[bad] if pts.size else xa
    raise EvaluationError(f"{what} is non-finite at x={point!r}", point=point)


def generator_apply_to_self(potential, noise, x):
    """Evaluate (L_V + L_0) V = sigma^2 Laplace(V) - |grad V|^2 at x.

    This is the running integrand of the generator-form reweighting
    identity and of the short-time density approximation.  Raises
    :class:`EvaluationError` if the result is non-finite.
    """
    g, lap = potential.field(x)
    out = noise.sigma ** 2 * np.asarray(lap) - _squared_norm(g, potential.dimension)
    _check_finite(out, x, f"(L+L0) applied to {potential.label!r}")
    return _as_float(out)


def generator_difference(potential, sampling_potential, noise, x):
    """(L_V + L_0) V - (L_V~ + L_0) V~ at x, and grad V~ at x.

    One field evaluation of V serves both terms when V~ is a
    :class:`PatchedPotential` of this very V.  Raises
    :class:`EvaluationError` if the difference is non-finite.
    """
    g, lap = potential.field(x)
    patched = isinstance(sampling_potential, PatchedPotential)
    if patched and sampling_potential.base is potential:
        gt, lapt = sampling_potential.patch(x, g, lap)
    else:
        gt, lapt = sampling_potential.field(x)
    s2, d = noise.sigma ** 2, potential.dimension
    out = ((s2 * np.asarray(lap) - _squared_norm(g, d))
           - (s2 * np.asarray(lapt) - _squared_norm(gt, d)))
    _check_finite(out, x, f"integrand of {potential.label!r} "
                  f"against {sampling_potential.label!r}")
    return out, gt


def generator_apply_general(potential, drift, noise, x):
    """Evaluate -|grad V|^2 + 2 F(x) . grad V + sigma^2 Laplace(V) at x.

    The running integrand of the reweighting identity against an
    arbitrary reference SDE dX = F dt + sigma dW: the
    :func:`generator_apply_to_self` value plus ``2 F . grad V``.
    """
    cross = np.asarray(drift(x)) * np.asarray(potential.gradient(x))
    if potential.dimension > 1:
        cross = cross.sum(axis=-1)
    out = np.asarray(generator_apply_to_self(potential, noise, x)) + 2.0 * cross
    _check_finite(out, x, f"general-reference integrand of {potential.label!r}")
    return _as_float(out)


def _box_grid(lo, hi, n_points=10_000):
    """Dense grid over the box [lo, hi] and its per-axis coordinates.

    ``n_points`` points for d = 1, shape (n_points,); for d >= 2 a
    per-axis resolution that keeps the total near 10^6 points, with the
    points in a mesh of shape (n, ..., n, d).
    """
    if len(lo) == 1:
        x = np.linspace(lo[0], hi[0], n_points)
        return x, [x]
    per_axis = max(8, int(round(10.0 ** (6.0 / len(lo)))))
    axes = [np.linspace(a, b, per_axis) for a, b in zip(lo, hi)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1), axes


def region_supremum(func, region, n_points=10_000):
    """Grid estimate of sup over D of a pointwise function.

    Evaluates ``func`` on a dense grid over the bounding box of the
    region, masked by the indicator.  The default is 10^4 points per
    dimension for d = 1; for d >= 2 a coarser per-axis resolution is used
    so the total grid stays near 10^6 points.
    """
    d = region.dimension
    pts, _ = _box_grid(*region.bounding_box.T, n_points)
    if d > 1:
        pts = pts.reshape(-1, d)
    inside = np.asarray(region.indicator(pts))
    if not inside.any():
        raise ValueError("no grid point falls inside the region")
    return float(np.max(np.asarray(func(pts))[inside]))
