"""Flat key=value experiment configuration with command-line overrides.

The configuration surface is deliberately small: one text file of
``key = value`` lines (``#`` starts a comment) plus ``--key value``
overrides.  Unknown keys are rejected with the offending line or flag so
typos fail loudly instead of silently running the default experiment.

Scalar values accept ``pi`` multiples (``-pi``, ``0.5pi``, ``2*pi``) so
interval endpoints like ``(-pi, pi)`` can be written exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigurationError
from .girsanov import mesh_stride
from .potentials import (
    CosineWellPotential,
    Interval,
    LinearPotential,
    NoiseScale,
    QuadraticPotential,
    ZeroPotential,
    flatten_on_region,
    invert_on_region,
)
from .sde import whole_multiple

MODES = ("plain", "importance", "density", "fp", "action", "sweep", "table5")
POTENTIALS = ("cosine", "zero", "quadratic", "linear")
SAMPLINGS = ("none", "same", "flatten", "invert")


def parse_scalar(token):
    """A finite float literal, optionally a multiple of pi: ``-pi``, ``0.5pi``."""
    text = str(token).strip().lower().replace(" ", "")
    if not text:
        raise ValueError("empty numeric value")
    factor = 1.0
    if text.endswith("pi"):
        factor = math.pi
        text = text[:-2].rstrip("*")
        if text in ("", "+"):
            return factor
        if text == "-":
            return -factor
    value = float(text) * factor
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {token!r}")
    return value


def _parse_int(token):
    text = str(token).strip()
    if text.lstrip("+-").isdigit():
        return int(text)  # exact beyond 2**53, where a float would round
    value = parse_scalar(token)
    if abs(value - round(value)) > 1e-9:
        raise ValueError(f"expected an integer, got {token!r}")
    return int(round(value))


def _parse_interval(token):
    text = str(token).strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated endpoints, got {token!r}")
    return parse_scalar(parts[0]), parse_scalar(parts[1])


def _parse_list(token):
    return tuple(parse_scalar(p) for p in str(token).split(",") if p.strip())


def _parse_int_list(token):
    return tuple(_parse_int(p) for p in str(token).split(",") if p.strip())


@dataclass
class ExperimentConfig:
    """Everything a run needs, with the documented defaults filled in."""

    mode: str = "plain"
    potential: str = "cosine"
    stiffness: float = 1.0          # quadratic potential spring constant
    slope: float = 1.0              # linear potential slope
    sampling: str = "none"
    sigma: float = None
    epsilon: float = None
    beta: float = None
    x0: float = 0.0
    region: tuple = (-math.pi, math.pi)
    T: float = 1.0
    h: float = 1e-3
    tau: float = 1e-2
    N: int = 100_000
    seed: int = 0
    workers: int = 1
    out: str = None
    # density mode
    y: float = None
    t: float = None
    delta: float = None
    # fp mode
    n_cells: int = 6144
    dt: float = 5e-4
    # action mode
    segments: int = 200
    # sweep mode
    epsilons: tuple = (1.0, 0.5, 0.25)
    sweep_n: tuple = None

    _PARSERS = {
        "mode": str, "potential": str, "sampling": str, "out": str,
        "stiffness": parse_scalar, "slope": parse_scalar,
        "sigma": parse_scalar, "epsilon": parse_scalar, "beta": parse_scalar,
        "x0": parse_scalar, "region": _parse_interval,
        "T": parse_scalar, "h": parse_scalar, "tau": parse_scalar,
        "N": _parse_int, "seed": _parse_int, "workers": _parse_int,
        "y": parse_scalar, "t": parse_scalar, "delta": parse_scalar,
        "n_cells": _parse_int, "dt": parse_scalar, "segments": _parse_int,
        "epsilons": _parse_list, "sweep_n": _parse_int_list,
    }

    @classmethod
    def from_pairs(cls, pairs):
        """Build and validate a config from (key, value, context) triples."""
        values = {}
        for key, raw, context in pairs:
            if key not in cls._PARSERS:
                raise ConfigurationError(f"{context}: unknown key {key!r}")
            try:
                values[key] = cls._PARSERS[key](raw)
            except (ValueError, TypeError) as exc:
                raise ConfigurationError(
                    f"{context}: bad value for {key!r}: {exc}"
                ) from exc
        cfg = cls(**values)
        cfg.check()
        return cfg

    @classmethod
    def from_file(cls, path, overrides=()):
        """Parse a config file, then apply ``--key value`` override tokens."""
        pairs = []
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}"
                )
            key, _, raw = text.partition("=")
            pairs.append((key.strip(), raw.strip(), f"{path}:{lineno}"))
        pairs.extend(cls.parse_override_tokens(overrides))
        return cls.from_pairs(pairs)

    @staticmethod
    def parse_override_tokens(tokens):
        """Turn ``--key value`` / ``--key=value`` tokens into pairs."""
        pairs = []
        tokens = list(tokens)
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if not tok.startswith("--"):
                raise ConfigurationError(
                    f"command line: expected --key, got {tok!r}"
                )
            body = tok[2:]
            if "=" in body:
                key, _, raw = body.partition("=")
                i += 1
            else:
                key = body
                if i + 1 >= len(tokens):
                    raise ConfigurationError(
                        f"command line: missing value for --{key}"
                    )
                raw = tokens[i + 1]
                i += 2
            pairs.append((key, raw, "command line"))
        return pairs

    def check(self):
        """Validate cross-field invariants; raise ConfigurationError."""
        if self.mode not in MODES:
            raise ConfigurationError(
                f"mode must be one of {', '.join(MODES)}; got {self.mode!r}"
            )
        if self.potential not in POTENTIALS:
            raise ConfigurationError(
                f"potential must be one of {', '.join(POTENTIALS)}; "
                f"got {self.potential!r}"
            )
        if self.sampling not in SAMPLINGS:
            raise ConfigurationError(
                f"sampling must be one of {', '.join(SAMPLINGS)}; "
                f"got {self.sampling!r}"
            )
        given = [k for k in ("sigma", "epsilon", "beta")
                 if getattr(self, k) is not None]
        if len(given) > 1:
            raise ConfigurationError(
                f"give at most one of sigma/epsilon/beta, got {given}"
            )
        optional = [k for k in ("t", "delta") if getattr(self, k) is not None]
        for key in ("T", "h", "tau", "stiffness", "dt", *given, *optional):
            if getattr(self, key) <= 0:
                raise ConfigurationError(f"{key} must be positive")
        for key, least in (("N", 1), ("seed", 0), ("workers", 1), ("n_cells", 3),
                           ("segments", 2)):
            if getattr(self, key) < least:
                raise ConfigurationError(f"{key} must be at least {least}")
        if not all(e > 0 for e in self.epsilons):
            raise ConfigurationError(
                f"epsilons must all be positive, got {self.epsilons}")
        levels = [(k, getattr(self, k), self.noise()) for k in given]
        levels += [("epsilons", e, NoiseScale(epsilon=e)) for e in self.epsilons]
        for key, value, noise in levels:
            s2 = noise.sigma * noise.sigma
            if not (0.0 < s2 < math.inf and 1.0 / s2 < math.inf):
                raise ConfigurationError(
                    f"{key}={value:g} is out of range: sigma^2 and 1/sigma^2 "
                    "must both be positive and finite")
        if self.sweep_n is not None and not all(n >= 1 for n in self.sweep_n):
            raise ConfigurationError(
                f"sweep_n must all be positive, got {self.sweep_n}")
        if self.sweep_n is not None and len(self.sweep_n) != len(self.epsilons):
            raise ConfigurationError(
                f"sweep_n needs one entry per epsilon ({len(self.epsilons)}), "
                f"got {len(self.sweep_n)}")
        a, b = self.region
        if not b > a:
            raise ConfigurationError(f"region must satisfy a < b, got ({a}, {b})")
        multiples = [("tau", "h")]
        if self.mode in ("plain", "importance", "table5", "sweep"):
            multiples.append(("T", "h"))
        elif self.mode == "fp":
            multiples.append(("T", "dt"))
        for key, unit in multiples:
            whole_multiple(getattr(self, key), getattr(self, unit), key, unit)
        if self.mode in ("importance", "sweep", "table5"):
            tau = 100 * self.h if self.mode == "table5" else self.tau
            mesh_stride(tau, self.h, whole_multiple(self.T, self.h, "T", "h"))
        if self.mode in ("importance", "sweep") and self.sampling == "none":
            raise ConfigurationError(
                f"mode={self.mode} needs a sampling potential "
                "(sampling=flatten|invert|same)"
            )
        if self.mode == "density" and self.y is None:
            raise ConfigurationError("mode=density needs the endpoint key y")

    # ------------------------------------------------------------- builders

    def noise(self):
        if self.sigma is not None:
            return NoiseScale(sigma=self.sigma)
        if self.epsilon is not None:
            return NoiseScale(epsilon=self.epsilon)
        if self.beta is not None:
            return NoiseScale(beta=self.beta)
        return NoiseScale(sigma=1.0)

    def build_region(self):
        return Interval(*self.region)

    def build_potential(self):
        if self.potential == "cosine":
            return CosineWellPotential()
        if self.potential == "zero":
            return ZeroPotential()
        if self.potential == "quadratic":
            return QuadraticPotential(k=self.stiffness)
        return LinearPotential(self.slope)

    def build_sampling_potential(self, target=None):
        """The sampling potential built on ``target`` (default: a new one), or None."""
        if self.sampling == "none":
            return None
        target = target if target is not None else self.build_potential()
        if self.sampling == "same":
            return target
        region = self.build_region()
        if self.sampling == "flatten":
            return flatten_on_region(target, region)
        return invert_on_region(target, region)

    # ---------------------------------------------------------------- echo

    def dump(self):
        """Canonical key=value text that re-parses to an equal config."""
        out = []
        for f in fields(self):
            if f.name.startswith("_"):
                continue
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = ",".join(format(v, ".17g") for v in value)
            elif isinstance(value, float):
                value = format(value, ".17g")
            out.append(f"{f.name} = {value}")
        return "\n".join(out) + "\n"
