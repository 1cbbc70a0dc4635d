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
from dataclasses import dataclass, field, fields

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
SAMPLED_MODES = ("plain", "importance", "table5", "sweep")
# table5's Riemann meshes, as multiples of the step h, coarsest first
TABLE5_MESHES = (100, 10, 1)
POTENTIAL_BUILDERS = {
    "cosine": lambda cfg: CosineWellPotential(),
    "zero": lambda cfg: ZeroPotential(),
    "quadratic": lambda cfg: QuadraticPotential(k=cfg.stiffness),
    "linear": lambda cfg: LinearPotential(cfg.slope),
}
# each builds the sampling potential from the target potential and region
SAMPLER_BUILDERS = {
    "none": None,
    "same": lambda target, region: target,
    "flatten": flatten_on_region,
    "invert": invert_on_region,
}
POTENTIALS = tuple(POTENTIAL_BUILDERS)
SAMPLINGS = tuple(SAMPLER_BUILDERS)


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


def _key(default, parse, rule=None, modes=None):
    """A config key: its default, the parser of its text, its rule, which
    is a tuple of allowed values, "positive" or a least integer, and the
    modes that read it (None: every mode).  A list key's rule applies to
    each entry.  A key left at None, or one the current mode does not
    read, is not checked."""
    return field(default=default,
                 metadata={"parse": parse, "rule": rule, "modes": modes})


@dataclass
class ExperimentConfig:
    """Everything a run needs, with the documented defaults filled in."""

    mode: str = _key("plain", str, MODES)
    potential: str = _key("cosine", str, POTENTIALS)
    # quadratic potential spring constant
    stiffness: float = _key(1.0, parse_scalar, "positive")
    slope: float = _key(1.0, parse_scalar)      # linear potential slope
    sampling: str = _key("none", str, SAMPLINGS)
    sigma: float = _key(None, parse_scalar, "positive")
    epsilon: float = _key(None, parse_scalar, "positive")
    beta: float = _key(None, parse_scalar, "positive")
    x0: float = _key(0.0, parse_scalar)
    region: tuple = _key((-math.pi, math.pi), _parse_interval)
    T: float = _key(1.0, parse_scalar, "positive")
    h: float = _key(1e-3, parse_scalar, "positive", SAMPLED_MODES)
    tau: float = _key(1e-2, parse_scalar, "positive", ("importance", "sweep"))
    N: int = _key(100_000, _parse_int, 1, SAMPLED_MODES)
    seed: int = _key(0, _parse_int, 0, SAMPLED_MODES)
    workers: int = _key(1, _parse_int, 1, SAMPLED_MODES)
    out: str = _key(None, str)
    # density mode
    y: float = _key(None, parse_scalar)
    t: float = _key(None, parse_scalar, "positive", ("density",))
    delta: float = _key(None, parse_scalar, "positive", ("density",))
    # fp mode
    n_cells: int = _key(6144, _parse_int, 3, ("fp",))
    dt: float = _key(5e-4, parse_scalar, "positive", ("fp",))
    # action mode
    segments: int = _key(200, _parse_int, 2, ("action",))
    # sweep mode
    epsilons: tuple = _key((1.0, 0.5, 0.25), _parse_list, "positive",
                           ("sweep",))
    sweep_n: tuple = _key(None, _parse_int_list, 1, ("sweep",))

    @classmethod
    def from_pairs(cls, pairs):
        """Build and validate a config from (key, value, context) triples."""
        parsers = {f.name: f.metadata["parse"] for f in fields(cls)}
        values = {}
        for key, raw, context in pairs:
            if key not in parsers:
                raise ConfigurationError(f"{context}: unknown key {key!r}")
            try:
                values[key] = parsers[key](raw)
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
        for f in fields(self):
            rule, modes = f.metadata["rule"], f.metadata["modes"]
            value = getattr(self, f.name)
            skipped = modes is not None and self.mode not in modes
            if rule is None or value is None or skipped:
                continue
            for entry in value if isinstance(value, tuple) else (value,):
                if isinstance(rule, tuple) and entry not in rule:
                    raise ConfigurationError(f"{f.name} must be one of "
                                             f"{', '.join(rule)}; got {entry!r}")
                if rule == "positive" and entry <= 0:
                    raise ConfigurationError(f"{f.name} must be positive")
                if isinstance(rule, int) and entry < rule:
                    raise ConfigurationError(f"{f.name} must be at least {rule}")
        given = [k for k in ("sigma", "epsilon", "beta")
                 if getattr(self, k) is not None]
        if len(given) > 1:
            raise ConfigurationError(
                f"give at most one of sigma/epsilon/beta, got {given}"
            )
        if self.mode == "sweep":
            if not self.epsilons:
                raise ConfigurationError("epsilons must list at least one value")
            if self.sweep_n is not None and len(self.sweep_n) != len(self.epsilons):
                raise ConfigurationError(
                    f"sweep_n needs one entry per epsilon ({len(self.epsilons)}), "
                    f"got {len(self.sweep_n)}")
        try:
            self.noise()
            for e in self.epsilons if self.mode == "sweep" else ():
                NoiseScale(epsilon=e)
            self.build_region()
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        if self.mode in SAMPLED_MODES:
            n_steps = whole_multiple(self.T, self.h, "T", "h")
        elif self.mode == "fp":
            whole_multiple(self.T, self.dt, "T", "dt")
        if self.mode in ("importance", "sweep", "table5"):
            tau = TABLE5_MESHES[0] * self.h if self.mode == "table5" else self.tau
            mesh_stride(tau, self.h, n_steps)
        if self.mode in ("importance", "sweep") and self.sampling == "none":
            raise ConfigurationError(
                f"mode={self.mode} needs a sampling potential "
                "(sampling=flatten|invert|same)"
            )
        if self.mode == "density" and self.y is None:
            raise ConfigurationError("mode=density needs the endpoint key y")

    # ------------------------------------------------------------- builders

    def noise(self):
        given = {k: getattr(self, k) for k in ("sigma", "epsilon", "beta")
                 if getattr(self, k) is not None}
        return NoiseScale(**given) if given else NoiseScale(sigma=1.0)

    def build_region(self):
        return Interval(*self.region)

    def build_potential(self):
        return POTENTIAL_BUILDERS[self.potential](self)

    def build_sampling_potential(self, target=None):
        """The sampling potential built on ``target`` (default: a new one), or None."""
        build = SAMPLER_BUILDERS[self.sampling]
        if build is None:
            return None
        target = target if target is not None else self.build_potential()
        return build(target, self.build_region())

    # ---------------------------------------------------------------- echo

    def dump(self):
        """Canonical key=value text that re-parses to an equal config."""
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = ",".join(format(v, ".17g") for v in value)
            elif isinstance(value, float):
                value = format(value, ".17g")
            out.append(f"{f.name} = {value}")
        return "\n".join(out) + "\n"
