"""Child process of one benchmark run: set up, run units, check, measure.

Started by ``run.py``; not meant to be run by hand.  It imports
``wellescape`` from ``<root>/src``, calls the CLI entry point
``wellescape.cli.main`` on generated config files, checks every output and
writes one JSON result file.  Timers around the public estimator calls are
always on (at most 7 per CLI run); with ``--trace 1`` every other unit
also runs with spans around the calls into each layer.  Before the first
unit and after each one a reference kernel is timed, so that unit times
can be scaled to the host's typical speed.
"""

from __future__ import annotations

import argparse
import inspect
import io
import json
import statistics
import sys
import time
import warnings
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer, block_seconds, self_times  # noqa: E402
from workloads import (  # noqa: E402
    OpResult, config_text, end_to_end, is_headline, pooled_problems,
    read_rows, table5_extras, unit_ops,
)

MIN_UNITS = {"table5": 3, "sweep": 2, "fp_oracle": 2}
CLIP = 700.0    # log-weights above this are clipped by the estimators
PROBE_REPS = 9

LAYER_METRICS = (
    "config.parse_s", "cli.csv_write_s", "cli.csv_bytes",
    "estimators.blocks", "estimators.block_p50_s", "estimators.block_tail_s",
    "estimators.block_tail_pct", "estimators.worker_busy_frac",
    "estimators.reduce_s", "estimators.diagnostics_s", "estimators.hit_frac",
    "estimators.ess_frac", "estimators.rel_var", "estimators.clipped",
    "estimators.plain_sample_steps_per_s", "estimators.t1pct_flatten_s",
    "sde.block_normals_s", "sde.normals_per_s", "sde.noise_bytes",
    "sde.evolve_block_self_s", "sde.sample_steps",
    "potentials.gradient_calls_per_step", "potentials.laplacian_calls_per_step",
    "potentials.field_s", "potentials.points_per_s",
    "girsanov.observe_self_s", "girsanov.finalize_s",
    "girsanov.integrand_evals_per_step",
    "fokker_planck.solve_s", "fokker_planck.banded_solves",
    "fokker_planck.cell_steps_per_s", "fokker_planck.integrate_s",
    "action.minimize_s", "action.iterations",
    "density.bounds_s", "density.bounds_calls", "trace.overhead_frac",
)


# ------------------------------------------------------------ instrumentation


def _bound(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def install_timers(tracer, wellescape, passes, solves):
    """Timers around the public estimator calls and the FP solver call.

    Each estimator pass appends {sampling, epsilon, n, steps, seconds,
    workers, summaries} to ``passes``; each FP solve appends {epsilon,
    cell_steps, value, seconds} to ``solves``.
    """
    cli, est = wellescape.cli, wellescape.estimators

    def log_pass(bind):
        def on_result(tr, i, result, args, kwargs):
            a = bind(args, kwargs)
            sampling = a.get("sampling_potential")
            n, h = int(a["n_samples"]), float(a["h"])
            summaries = result.items() if isinstance(result, dict) \
                else [(a.get("tau"), result)]
            passes.append(dict(
                sampling=sampling.label if sampling is not None else "none",
                epsilon=a["noise"].epsilon, n=n,
                steps=n * round(a["event"].horizon / h),
                seconds=tr.end[i] - tr.start[i], workers=int(a.get("workers", 1)),
                summaries=[dict(tau=tau, n=s.n, hits=s.hits, mean=s.mean,
                                variance=s.variance, sum_w=s.sum_w_ind,
                                sum_w2=s.sum_w2_ind) for tau, s in summaries],
            ))
        return on_result

    for owner, attr in ((cli, "run_plain"), (cli, "run_importance"),
                        (cli, "run_importance_meshes"), (est, "run_importance")):
        fn = getattr(owner, attr)
        tracer.patch(owner, attr, "estimators.pass", on_result=log_pass(_bound(fn)))

    bind_fp = _bound(cli.escape_probability)

    def log_solve(tr, i, result, args, kwargs):
        a = bind_fp(args, kwargs)
        n_cells = int(a.get("n_cells", 6144))
        dt = float(a.get("dt", 5e-4))
        value = result[0] if isinstance(result, tuple) else result
        solves.append(dict(
            epsilon=a["noise"].epsilon, value=float(value),
            cell_steps=n_cells * (round(float(a["horizon"]) / dt) + 1),
            seconds=tr.end[i] - tr.start[i],
        ))

    tracer.patch(cli, "escape_probability", "fokker_planck.escape_probability",
                 on_result=log_solve)


def install_layers(tracer, wellescape):
    """Spans around the calls into every layer, patched from outside."""
    import numpy as np

    cli, est, sde = wellescape.cli, wellescape.estimators, wellescape.sde
    gir, pot, fp = wellescape.girsanov, wellescape.potentials, wellescape.fokker_planck
    bind_evolve = _bound(est.evolve_block)

    def csv_bytes(tr, i, result, args, kwargs):
        tr.aux[i] = float(Path(args[0]).stat().st_size)

    def noise_size(tr, i, result, args, kwargs):
        tr.aux[i], tr.aux2[i] = float(result.size), float(result.nbytes)

    def evolve_aux(args, kwargs):
        a = bind_evolve(args, kwargs)
        n_steps = int(a["n_steps"])
        rows = a["noise_block"].shape[0]
        return float(rows * n_steps), float(n_steps if a.get("observer") else 0)

    def clipped(tr, i, result, args, kwargs):
        tr.aux[i] = float((result > CLIP).sum())

    def iterations(tr, i, result, args, kwargs):
        tr.aux[i] = float(result.iterations)

    tracer.patch(wellescape.config.ExperimentConfig, "from_file", "config.parse")
    tracer.patch(cli, "_write_rows", "cli.csv_write", on_result=csv_bytes)
    tracer.patch(cli, "write_csv", "cli.csv_write", on_result=csv_bytes)
    tracer.patch(cli, "diagnostics", "estimators.diagnostics")
    tracer.patch(est.EstimatorSummary, "from_values", "estimators.from_values")
    tracer.patch(est.EstimatorSummary, "merge", "estimators.merge")
    tracer.patch(sde.RngPolicy, "block_normals", "sde.block_normals",
                 on_result=noise_size)
    tracer.patch(est, "evolve_block", "sde.evolve_block", aux=evolve_aux)
    tracer.patch(gir.WeightAccumulator, "observe", "girsanov.observe")
    tracer.patch(gir.WeightAccumulator, "finalize", "girsanov.finalize",
                 on_result=clipped)
    tracer.patch(gir, "generator_apply_to_self", "girsanov.integrand")
    for cls in vars(pot).values():
        if isinstance(cls, type) and issubclass(cls, pot.PotentialField):
            for method in ("value", "gradient", "laplacian"):
                tracer.patch(cls, method, f"potentials.{method}",
                             aux=lambda args, kwargs: (float(np.size(args[1])), 0.0))
    tracer.patch(fp, "solve_banded", "fokker_planck.solve_banded",
                 aux=lambda args, kwargs: (float(np.size(args[2])), 0.0))
    tracer.patch(fp, "integrate_density", "fokker_planck.integrate")
    tracer.patch(cli, "minimize_exit_action", "action.minimize",
                 on_result=iterations)
    tracer.patch(cli, "bounds", "density.bounds")


# --------------------------------------------------------------- analysis


def unit_layers(cols, passes):
    """Per-layer sums of one traced unit, from its spans."""
    names, start, end, parent = cols["name"], cols["start"], cols["end"], cols["parent"]
    aux, aux2 = cols["aux"], cols["aux2"]
    own = self_times(start, end, parent)
    dur = [e - s for s, e in zip(start, end)]
    evolve = [-1] * len(names)
    for i, name in enumerate(names):
        if name == "sde.evolve_block":
            evolve[i] = i
        elif parent[i] >= 0:
            evolve[i] = evolve[parent[i]]

    total, selft, count, a1, a2 = {}, {}, {}, {}, {}
    outer = {"gradient": 0, "laplacian": 0, "points": 0.0, "seconds": 0.0}
    integrand_in_steps = 0
    for i, name in enumerate(names):
        total[name] = total.get(name, 0.0) + dur[i]
        selft[name] = selft.get(name, 0.0) + own[i]
        count[name] = count.get(name, 0) + 1
        a1[name] = a1.get(name, 0.0) + aux[i]
        a2[name] = a2.get(name, 0.0) + aux2[i]
        in_importance_step = evolve[i] >= 0 and aux2[evolve[i]] > 0
        if name.startswith("potentials.") and (
                parent[i] < 0 or not names[parent[i]].startswith("potentials.")):
            outer["points"] += aux[i]
            outer["seconds"] += dur[i]
            kind = name.split(".", 1)[1]
            if in_importance_step and kind in outer:
                outer[kind] += 1
        if name == "girsanov.integrand" and in_importance_step:
            integrand_in_steps += 1

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    steps = a2.get("sde.evolve_block", 0.0)
    blocks = block_seconds(names, start, end)
    capacity = sum(p["workers"] * p["seconds"] for p in passes)
    fp_s = total.get("fokker_planck.escape_probability", 0.0)
    return {
        "config.parse_s": total.get("config.parse", 0.0),
        "cli.csv_write_s": total.get("cli.csv_write", 0.0),
        "cli.csv_bytes": a1.get("cli.csv_write", 0.0),
        "estimators.worker_busy_frac": ratio(sum(blocks), capacity),
        "estimators.reduce_s": (total.get("estimators.from_values", 0.0)
                                + total.get("estimators.merge", 0.0)),
        "estimators.diagnostics_s": total.get("estimators.diagnostics", 0.0),
        "estimators.clipped": a1.get("girsanov.finalize", 0.0),
        "sde.block_normals_s": total.get("sde.block_normals", 0.0),
        "sde.normals_per_s": ratio(a1.get("sde.block_normals", 0.0),
                                   total.get("sde.block_normals", 0.0)),
        "sde.noise_bytes": a2.get("sde.block_normals", 0.0),
        "sde.evolve_block_self_s": selft.get("sde.evolve_block", 0.0),
        "sde.sample_steps": a1.get("sde.evolve_block", 0.0),
        "potentials.gradient_calls_per_step": ratio(outer["gradient"], steps),
        "potentials.laplacian_calls_per_step": ratio(outer["laplacian"], steps),
        "potentials.field_s": outer["seconds"],
        "potentials.points_per_s": ratio(outer["points"], outer["seconds"]),
        "girsanov.observe_self_s": selft.get("girsanov.observe", 0.0),
        "girsanov.finalize_s": total.get("girsanov.finalize", 0.0),
        "girsanov.integrand_evals_per_step": ratio(integrand_in_steps, steps),
        "fokker_planck.solve_s": fp_s,
        "fokker_planck.banded_solves": float(count.get("fokker_planck.solve_banded", 0)),
        "fokker_planck.cell_steps_per_s": ratio(a1.get("fokker_planck.solve_banded", 0.0), fp_s),
        "fokker_planck.integrate_s": total.get("fokker_planck.integrate", 0.0),
        "action.minimize_s": total.get("action.minimize", 0.0),
        "action.iterations": a1.get("action.minimize", 0.0),
        "density.bounds_s": total.get("density.bounds", 0.0),
        "density.bounds_calls": float(count.get("density.bounds", 0)),
    }, blocks


def tail_percentile(n, beyond=10):
    """Highest whole percentile with at least ``beyond`` of ``n`` samples above it."""
    if n <= 2 * beyond:
        return 50
    return int(100 * (1 - beyond / n))


def percentile(values, pct):
    values = sorted(values)
    k = (len(values) - 1) * pct / 100
    lo = int(k)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (k - lo)


def headline_counts(workload, unit):
    """hit_frac, ess_frac and rel_var of the unit's headline estimator.

    table5: the inverted sampler at tau = 10h; sweep: eps = 0.5.  They
    repeat exactly at a fixed seed.
    """
    for p in unit["passes"]:
        if not is_headline(workload, p):
            continue
        s = min(p["summaries"], key=lambda s: abs(s["tau"] - 1e-2))
        return {
            "estimators.hit_frac": s["hits"] / s["n"],
            "estimators.ess_frac": s["sum_w"] ** 2 / (s["n"] * s["sum_w2"]) if s["sum_w2"] else 0.0,
            "estimators.rel_var": s["variance"] / s["mean"] ** 2 if s["mean"] else 0.0,
        }
    return {}


def layer_metrics(workload, units):
    traced = [u for u in units if u["traced"]]
    untraced = [u for u in units if not u["traced"]]
    out = {name: statistics.median(u["layers"][name] for u in traced)
           for name in traced[0]["layers"]}
    blocks = [d for u in traced for d in u["block_seconds"]]
    pct = tail_percentile(len(blocks))
    out["estimators.blocks"] = float(len(blocks))
    out["estimators.block_p50_s"] = percentile(blocks, 50) if blocks else 0.0
    out["estimators.block_tail_s"] = percentile(blocks, pct) if blocks else 0.0
    out["estimators.block_tail_pct"] = float(pct)
    out["estimators.clipped"] = units[0]["layers"]["estimators.clipped"]
    out.update(headline_counts(workload, units[0]))
    if workload == "table5":
        out.update(table5_extras(untraced or units))
    if untraced:
        def wall(group):
            return statistics.median(u["wall"] * u["host_scale"] for u in group)
        out["trace.overhead_frac"] = wall(traced) / wall(untraced) - 1.0
    return {name: float(out.get(name) or 0.0) for name in LAYER_METRICS}


# ------------------------------------------------------------- host speed


def euler_kernel():
    """A fixed numpy job shaped like Euler steps on a noise block:
    normals, sin/cos and axpy on 4096-vectors."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(12345))
    x = np.zeros(4096)
    for _ in range(40):
        x = x - np.sin(x) * 1e-2 + 0.1 * rng.standard_normal(4096)
        g = np.cos(x) - np.sin(x) ** 2
    return float(x.sum() + g.sum())


def banded_kernel():
    """A fixed scipy job shaped like Crank-Nicolson steps on the default
    FP grid: a tridiagonal product and ``solve_banded`` on 6144 cells."""
    import numpy as np
    from scipy.linalg import solve_banded

    x = np.linspace(-3.0, 3.0, 6144)
    main, off = -2.0 - 0.1 * np.cos(x), np.full(x.size, 5e-4)
    ab = np.vstack([off, 1.0 - 5e-4 * main, off])
    p = np.exp(-x * x)
    for _ in range(42):
        rhs = (1.0 + 5e-4 * main) * p
        rhs[:-1] += off[1:] * p[1:]
        rhs[1:] += off[:-1] * p[:-1]
        p = solve_banded((1, 1), ab, rhs)
    return float(p.sum())


# Each workload's reference kernel, shaped like the work its time is
# spent in, and the kernel's typical median time on the machine in
# bench/README.md.  Unit times are scaled to that time.  The kernels call
# nothing in the package, so only the host's speed moves their time.
REFERENCE_KERNELS = {
    "table5": (euler_kernel, 0.010),
    "sweep": (euler_kernel, 0.010),
    "fp_oracle": (banded_kernel, 0.010),
}


def probe_host(kernel):
    """Median seconds of PROBE_REPS runs of ``kernel`` (about 0.1 s in all)."""
    times = []
    for _ in range(PROBE_REPS):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


# ------------------------------------------------------------------- runs


def run_op(cli, op, path_stem):
    cfg_path, out = path_stem.with_suffix(".cfg"), path_stem.with_suffix(".csv")
    cfg_path.write_text(config_text(op.cfg, out))
    out.unlink(missing_ok=True)
    buf = io.StringIO()
    code = error = None
    t = time.perf_counter()
    try:
        with redirect_stdout(buf), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(["run", str(cfg_path)])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash of the program is one failed operation
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t
    res = OpResult(op.tag, code, error, buf.getvalue(), read_rows(out), seconds)
    if error or code != 0:
        res.problems = [f"{op.tag}: {error or f'exit code {code}'}"]
    else:
        res.problems = op.check(res, op.cfg)
    return res


def run_unit(wellescape, workload, seed, u, scale, workdir, tracer, passes, solves):
    """Run one unit; keep the estimator rows, drop every other output.

    Only the few table5/sweep rows are kept, so that the benchmark's own
    memory does not grow with the number of units and stays out of
    ``peak_rss_mb``.
    """
    p0, s0, lo = len(passes), len(solves), len(tracer)
    ops, rows = [], []
    for k, op in enumerate(unit_ops(workload, seed, u, scale)):
        res = run_op(wellescape.cli, op, workdir / f"op{k}")
        if op.cfg["mode"] in ("table5", "sweep"):
            rows.extend(res.rows)
        ops.append(dict(tag=res.tag, seconds=res.seconds, problems=res.problems))
    return dict(wall=sum(o["seconds"] for o in ops), passes=passes[p0:],
                fp=solves[s0:], rows=rows, ops=ops, span_range=(lo, len(tracer)))


def setup(wellescape, workload, seed, scale, workdir):
    """Parse the first config and build its potentials, as a run would."""
    op = unit_ops(workload, seed, 0, scale)[0]
    path = workdir / "setup.cfg"
    path.write_text(config_text(op.cfg, workdir / "setup.csv"))
    cfg = wellescape.config.ExperimentConfig.from_file(str(path))
    cfg.build_potential()
    cfg.build_sampling_potential()


def import_package(root):
    t = time.monotonic()
    sys.path.insert(0, str(root / "src"))
    import wellescape
    import wellescape.cli  # noqa: F401  (the entry point and all it imports)
    src = (root / "src").resolve()
    if src not in Path(wellescape.__file__).resolve().parents:
        raise SystemExit(f"wellescape imported from {wellescape.__file__}, not {src}")
    return wellescape, time.monotonic() - t


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wellescape, import_s = import_package(args.root)
    setup(wellescape, args.workload, args.seed, args.scale, args.workdir)
    result = dict(setup_done=time.monotonic(), import_s=import_s)
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    tracer = Tracer()
    passes, solves = [], []
    install_timers(tracer, wellescape, passes, solves)
    timers = len(tracer.patches)
    units = []
    kernel, kernel_s = REFERENCE_KERNELS[args.workload]
    probes = [probe_host(kernel)]
    begin = time.monotonic()
    min_units = MIN_UNITS[args.workload] + (1 if args.trace else 0)
    while True:
        traced = bool(args.trace) and len(units) % 2 == 0
        if traced:
            install_layers(tracer, wellescape)
        try:
            unit = run_unit(wellescape, args.workload, args.seed, len(units),
                            args.scale, args.workdir, tracer, passes, solves)
        finally:
            tracer.unpatch(keep=timers)
        unit["traced"] = traced
        probes.append(probe_host(kernel))
        unit["host_s"] = (probes[-2] + probes[-1]) / 2
        unit["host_scale"] = kernel_s / unit["host_s"]
        lo, hi = unit.pop("span_range")
        if traced:
            unit["layers"], unit["block_seconds"] = unit_layers(
                tracer.columns(lo, hi), unit["passes"])
        units.append(unit)
        elapsed = time.monotonic() - begin
        typical = statistics.median(u["wall"] for u in units)
        if len(units) >= min_units and elapsed + typical > args.seconds:
            break

    checks = [op["problems"] for u in units for op in u["ops"]]
    checks.extend(pooled_problems(args.workload, [r for u in units for r in u["rows"]]))
    if args.trace:
        metrics = layer_metrics(args.workload, units)
    else:
        metrics = end_to_end(args.workload, units)
    if args.spans and args.trace:
        write_spans(tracer, args.spans)
    for u in units:
        u.pop("layers", None)
        u.pop("block_seconds", None)
    result.update(attempted=len(checks), failed=sum(1 for c in checks if c),
                  problems=[p for c in checks for p in c], metrics=metrics,
                  units=units, noise_block_bytes=noise_block_bytes(
                      wellescape, args.workload, args.scale))
    args.result.write_text(json.dumps(result))
    return 0


def noise_block_bytes(wellescape, workload, scale):
    """Noise one block in flight holds: samples x steps x 8 bytes (computed)."""
    cfg = unit_ops(workload, 0, 0, scale)[0].cfg
    if cfg["mode"] not in ("table5", "sweep"):
        return 0
    return wellescape.sde.BLOCK_SAMPLES * round(cfg["T"] / cfg["h"]) * 8


def write_spans(tracer, path):
    import numpy as np
    names = sorted(set(tracer.names))
    code = {n: k for k, n in enumerate(names)}
    np.savez_compressed(
        path, names=np.array(names), name=np.array([code[n] for n in tracer.names]),
        start=np.array(tracer.start), end=np.array(tracer.end),
        parent=np.array(tracer.parent), aux=np.array(tracer.aux),
        aux2=np.array(tracer.aux2),
    )


if __name__ == "__main__":
    sys.exit(main())
