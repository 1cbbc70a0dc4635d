"""Batch command-line runner: experiments from config files, CSV reports.

Two subcommands::

    wellescape run <config> [--key value ...]
    wellescape validate <config> [--key value ...]

``run`` executes the configured experiment mode and writes a CSV report
when ``out`` is set; ``validate`` checks the change-of-measure hypotheses
for the configured potential pair and reports pass/fail per hypothesis
without aborting.  Exit codes: 0 success, 1 configuration error, 2
runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields

import numpy as np

from .action import minimize_exit_action
from .config import SAMPLER_BUILDERS, TABLE5_MESHES, ExperimentConfig
from .density import bounds
from .errors import ConfigurationError, WellEscapeError
from .estimators import (
    EscapeEvent,
    interior_grid,
    run_importance,
    run_importance_meshes,
    run_plain,
    small_noise_sweep,
    theorem3_bound,
    theorem3_m,
)
from .fokker_planck import escape_probability
from .potentials import _BOUNDARY_MATCH_TOL, _boundary_match_residual
from .sde import RngPolicy

CSV_COLUMNS = [
    "estimator", "potential", "N", "tau", "h", "seed", "mean",
    "per_sample_variance", "std_error", "relative_error", "lambda",
    "variance_ratio", "theorem3_bound",
]


def _echo(cfg):
    print("# resolved configuration")
    print(cfg.dump(), end="")
    print("# ---")


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def csv_row(summary, *, potential_label, tau, h, seed, baseline=None,
            bound=None):
    """One result row, its cells in ``CSV_COLUMNS`` order.  An importance
    row reports Lambda, its variance ratio to the plain ``baseline`` run
    and the a-priori ``bound`` on Lambda."""
    return [
        summary.kind, potential_label, summary.n, "" if tau is None else tau,
        h, seed, summary.mean, summary.variance, summary.std_error,
        summary.relative_error,
        summary.lambda_factor if summary.kind == "importance" else None,
        summary.variance_ratio(baseline) if baseline is not None else None,
        bound,
    ]


def _write_rows(path, header, rows):
    """Write a header and rows of values as CSV with stable formatting; a
    path that cannot be written is a runtime error."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    except (OSError, ValueError) as exc:
        raise WellEscapeError(f"cannot write out {path!r}: {exc}") from exc


# ------------------------------------------------------------------ modes


def _say(pairs, tag=None):
    """Print ``key=value`` pairs on one line, after ``tag: `` when given."""
    line = "  ".join(f"{k}={_fmt(v)}" for k, v in pairs)
    print(f"{tag}: {line}" if tag else line)


def _moments(s):
    return [("mean", s.mean), ("std_error", s.std_error),
            ("variance", s.variance), ("hits", s.hits), ("n", s.n)]


def _sampled(cfg):
    """The target potential, region, noise and escape event of a config."""
    V, region = cfg.build_potential(), cfg.build_region()
    return V, region, cfg.noise(), EscapeEvent(region, cfg.T)


def _run_plain(cfg):
    V, _, noise, event = _sampled(cfg)
    s = run_plain(V, noise, cfg.x0, event, cfg.h, cfg.N, RngPolicy(cfg.seed))
    _say(_moments(s), "plain")
    return CSV_COLUMNS, [csv_row(s, potential_label=V.label, tau=None, h=cfg.h,
                                 seed=cfg.seed)]


def _run_importance(cfg):
    V, region, noise, event = _sampled(cfg)
    ref = cfg.build_sampling_potential(V)
    imp = run_importance(V, ref, noise, cfg.x0, event, cfg.h, cfg.tau,
                         cfg.N, RngPolicy(cfg.seed))
    plain = run_plain(V, noise, cfg.x0, event, cfg.h, cfg.N,
                      RngPolicy(cfg.seed + 1))
    bound = theorem3_bound(V, ref, region, noise, cfg.T, cfg.x0)
    row = csv_row(imp, potential_label=ref.label, tau=cfg.tau, h=cfg.h,
                  seed=cfg.seed, baseline=plain, bound=bound)
    _say(_moments(imp), "importance")
    _say(_moments(plain), "plain baseline")
    _say(zip(CSV_COLUMNS[-3:], row[-3:]))
    return CSV_COLUMNS, [row, csv_row(plain, potential_label=V.label, tau=None,
                                      h=cfg.h, seed=cfg.seed + 1)]


def _run_table5(cfg):
    """The seven-row escape table: one plain run, two reweighted potentials
    evaluated at the three Riemann meshes of ``TABLE5_MESHES`` each."""
    V, region, noise, event = _sampled(cfg)
    taus = tuple(m * cfg.h for m in TABLE5_MESHES)
    plain = run_plain(V, noise, cfg.x0, event, cfg.h, cfg.N,
                      RngPolicy(cfg.seed))
    rows = [csv_row(plain, potential_label=V.label, tau=None, h=cfg.h,
                    seed=cfg.seed)]
    _say(_moments(plain), "plain")
    for seed, name in enumerate(("flatten", "invert"), start=cfg.seed + 1):
        ref = SAMPLER_BUILDERS[name](V, region)
        summaries = run_importance_meshes(V, ref, noise, cfg.x0, event, cfg.h,
                                          taus, cfg.N, RngPolicy(seed))
        bound = theorem3_bound(V, ref, region, noise, cfg.T, cfg.x0)
        for tau in taus:
            s = summaries[tau]
            _say(_moments(s), f"{name} tau={tau:g}")
            rows.append(csv_row(s, potential_label=ref.label, tau=tau,
                                h=cfg.h, seed=seed, baseline=plain, bound=bound))
    return CSV_COLUMNS, rows


def _run_density(cfg):
    V = cfg.build_potential()
    t = cfg.t if cfg.t is not None else cfg.T
    est = bounds(V, cfg.noise(), cfg.x0, cfg.y, t, delta=cfg.delta)
    rows = [(f.name, getattr(est, f.name)) for f in fields(est)]
    for row in rows:
        _say([row])
    return ("quantity", "value"), rows


def _run_fp(cfg):
    V = cfg.build_potential()
    p, grid = escape_probability(
        V, cfg.noise(), cfg.x0, cfg.build_region(), cfg.T,
        n_cells=cfg.n_cells, dt=cfg.dt)
    _say([("escape_probability", p)])
    _say([("mass", grid.mass), ("cells", len(grid.x)), ("dx", grid.dx)])
    return ("x", "density"), list(zip(grid.x.tolist(), grid.density.tolist()))


def _run_action(cfg):
    V = cfg.build_potential()
    res = minimize_exit_action(V, cfg.x0, cfg.build_region(), cfg.T,
                               cfg.segments)
    _say([("action", res.value), ("converged", res.converged),
          ("iterations", res.iterations), ("grad_norm", res.grad_norm)])
    times = np.linspace(0.0, cfg.T, cfg.segments + 1)
    return ("time", "position"), list(zip(times.tolist(), res.knots.tolist()))


def _run_sweep(cfg):
    V = cfg.build_potential()
    ref = cfg.build_sampling_potential(V)
    ns = cfg.sweep_n or (cfg.N,) * len(cfg.epsilons)
    rows = small_noise_sweep(V, ref, cfg.build_region(), cfg.x0, cfg.T,
                             cfg.h, cfg.tau, cfg.epsilons, ns, cfg.seed)
    header = ("epsilon", "n", "hits", "probability", "lambda",
              "eps_log_lambda")
    for row in rows:
        _say(zip(header, row))
    return header, rows


_RUNNERS = {
    "plain": _run_plain,
    "importance": _run_importance,
    "table5": _run_table5,
    "density": _run_density,
    "fp": _run_fp,
    "action": _run_action,
    "sweep": _run_sweep,
}


def _cmd_run(cfg):
    """Run the mode, which prints its report, and write its table to out."""
    _echo(cfg)
    header, rows = _RUNNERS[cfg.mode](cfg)
    if cfg.out:
        _write_rows(cfg.out, header, rows)
        print(f"wrote {cfg.out}")
    return 0


# --------------------------------------------------------------- validate


def _report(label, measured, ok, note=""):
    verdict = "PASS" if ok else "FAIL"
    tail = f"  ({note})" if note else ""
    print(f"{label}: {measured} -> {verdict}{tail}")
    return ok


@np.errstate(over="ignore", invalid="ignore")  # inf and nan report FAIL
def _cmd_validate(cfg):
    """Check the change-of-measure hypotheses for the configured pair.

    Reports the flattened-well hypotheses (start-point lift, gradient
    domination, agreement outside the region) and the inverted-well
    hypotheses (flat boundary, second-derivative continuity, deterministic
    escape of the noise-free flow).  Informational: always exits 0.
    """
    _echo(cfg)
    if cfg.sampling == "none":
        print("sampling=none: no reference potential to validate")
        return 0
    V, region, noise, _ = _sampled(cfg)
    ref = cfg.build_sampling_potential(V)
    a, b = region.a, region.b
    inside = interior_grid(region)
    ring = np.concatenate([np.linspace(a - 2.0, a - 1e-9, 1001),
                           np.linspace(b + 1e-9, b + 2.0, 1001)])

    print("[variance-ratio bound hypotheses]")
    v0, r0 = float(V.value(cfg.x0)), float(ref.value(cfg.x0))
    _report("(i) start-point lift V(x0) < Vref(x0)",
            f"V(x0)={_fmt(v0)} Vref(x0)={_fmt(r0)}", v0 < r0)
    gap = np.max(np.abs(ref.gradient(inside)) - np.abs(V.gradient(inside)))
    _report("(ii) gradient domination on D",
            f"sup(|grad Vref| - |grad V|)={_fmt(float(gap))}", gap <= 1e-9)
    outside_gap = float(np.max(np.abs(ref.value(ring) - V.value(ring))))
    _report("(iii) agreement outside D",
            f"max|Vref - V|={_fmt(outside_gap)}", outside_gap <= 1e-12)
    lap_gap = theorem3_m(V, ref, region)
    eps = noise.epsilon
    lhs, rhs = r0 - v0, eps * cfg.T * lap_gap
    print(f"M = sup(lap V - lap Vref)/2 = {_fmt(lap_gap)}")
    _report("noise condition Vref(x0)-V(x0) >= eps*T*M",
            f"{_fmt(lhs)} >= {_fmt(rhs)}", lhs >= rhs)

    print("[inverted-well hypotheses]")
    flat = _boundary_match_residual(V, region)[0]
    _report("flat boundary V=0, grad V=0 on dD",
            f"max boundary |V|,|grad V|={_fmt(flat)}", flat <= _BOUNDARY_MATCH_TOL)
    step = 1e-6
    jump = max(
        abs(float(ref.laplacian(a + step)) - float(ref.laplacian(a - step))),
        abs(float(ref.laplacian(b - step)) - float(ref.laplacian(b + step))),
    )
    _report("Vref twice differentiable across dD",
            f"second-derivative jump={_fmt(jump)}", jump <= 1e-6,
            note="" if jump <= 1e-6 else "C^1 only")

    n_steps = 4000
    dt = cfg.T / n_steps
    y = float(cfg.x0)
    exit_time = None
    f = lambda z: -float(ref.gradient(z))
    for i in range(n_steps):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        if not (np.isfinite(y) and region.indicator(y)):
            exit_time = (i + 1) * dt
            break
    if exit_time is None:
        note = ""
        if abs(f(float(cfg.x0))) == 0.0:
            note = "x0 is an equilibrium of the noise-free flow"
        _report("noise-free flow exits D by T",
                f"y(T)={_fmt(y)} still in D", False, note=note)
    elif not np.isfinite(y):
        _report("noise-free flow exits D by T",
                f"y={_fmt(y)} at t={_fmt(exit_time)}", False,
                note="the flow left the float range")
    else:
        _report("noise-free flow exits D by T",
                f"exit at t={_fmt(exit_time)}", True)
    return 0


# ------------------------------------------------------------------- main


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wellescape",
        description="Rare-event escape estimators for Langevin dynamics.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "execute the configured experiment"),
        ("validate", "check change-of-measure hypotheses, report per item"),
    ):
        p = sub.add_parser(name, help=helptext, allow_abbrev=False)
        p.add_argument("config", help="path to a key=value config file")
    args, extra = parser.parse_known_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config, overrides=extra)
        if args.command == "run":
            return _cmd_run(cfg)
        return _cmd_validate(cfg)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except WellEscapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
