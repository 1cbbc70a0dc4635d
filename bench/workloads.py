"""The three workloads: generated CLI configs, output checks, end-to-end metrics.

One *unit* of a workload is a fixed list of CLI runs (``wellescape run
<config>``).  A benchmark run repeats units until its time is up; unit
``u`` of workload seed ``s`` gets its own master seeds, so the same seed
always produces the same inputs.

* ``table5``: one ``mode=table5`` run, cosine well, T=1, h=1e-3 (noise
  blocks of 4096 x 1000 normals, 32.8 MB), workers=1.
* ``sweep``: one ``mode=sweep`` run with the inverted sampler at
  h = tau = 1e-2 over eps = 1, 0.75, 0.5 (blocks of 4096 x 100), workers=1.
* ``fp_oracle``: six ``mode=fp`` runs (three noise levels on the default
  and the refined grid), one ``mode=action`` run and three ``mode=density``
  runs at seed-chosen (y, t).  It never enters the sampling loop.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())
FP_REF = REFERENCE["escape_probability"]
RELVAR = REFERENCE["relative_variance"]
EPSILONS = (1.0, 0.75, 0.5)

Z_MAX = 4.0             # a sampled row must lie within this many SE of the FP value
# Meshes of the pooled table5 checks.  At tau = 100h the Riemann sum of the
# weight is biased (+7% inverted, +5% flatten, over 2.8 M samples), so those
# rows are checked one by one only.
POOLED_TAUS = (1e-3, 1e-2)
FP_REL_TOL = 1e-6       # FP and action values must repeat the stored ones this closely
TARGET_RE = 0.01        # time-to-accuracy metrics are quoted at 1% relative error

# Per-unit sizes; "tiny" is the self-test's scale.
SIZES = {
    "full": dict(table5_n=16384, sweep_n=(32768, 65536, 262144),
                 fp_grids=(("default", 6144, 5e-4), ("refined", 12288, 2.5e-4))),
    "tiny": dict(table5_n=4096, sweep_n=(4096, 4096, 16384),
                 fp_grids=(("default", 256, 4e-3), ("refined", 512, 2e-3))),
}

TABLE5_BASE = dict(mode="table5", potential="cosine", T=1.0, h=1e-3, workers=1)
SWEEP_BASE = dict(mode="sweep", potential="cosine", sampling="invert", T=1.0,
                  h=1e-2, tau=1e-2, epsilons=EPSILONS, workers=1)


@dataclass
class Op:
    """One CLI run: its config keys and ``check(result, cfg) -> problems``."""

    tag: str
    cfg: dict
    check: object


@dataclass
class OpResult:
    tag: str
    code: int | None
    error: str | None
    stdout: str
    rows: list
    seconds: float
    problems: list = field(default_factory=list)


def _ref_key(eps):
    return format(float(eps), "g")


def unit_seed(seed, unit):
    """Master seed of unit ``unit``; a CLI run uses at most 3 seeds from it."""
    return 10 * (int(seed) * 100_000 + int(unit))


def unit_ops(workload, seed, unit, scale="full"):
    size = SIZES[scale]
    s = unit_seed(seed, unit)
    if workload == "table5":
        cfg = dict(TABLE5_BASE, N=size["table5_n"], seed=s)
        return [Op("table5", cfg, check_table5)]
    if workload == "sweep":
        cfg = dict(SWEEP_BASE, sweep_n=size["sweep_n"], seed=s)
        return [Op("sweep", cfg, check_sweep)]
    if workload != "fp_oracle":
        raise ValueError(f"unknown workload {workload!r}")
    ops = []
    for eps in EPSILONS:
        for grid, n_cells, dt in size["fp_grids"]:
            cfg = dict(mode="fp", potential="cosine", epsilon=eps, T=1.0,
                       n_cells=n_cells, dt=dt)
            ops.append(Op(f"fp eps={_ref_key(eps)} {grid}", cfg, check_fp))
    ops.append(Op("action", dict(mode="action", potential="cosine", T=1.0,
                                 segments=800), check_action))
    rng = random.Random(s)
    for k in range(3):
        y, t = round(rng.uniform(-2.0, 2.0), 6), round(rng.uniform(0.05, 0.5), 6)
        ops.append(Op(f"density {k}", dict(mode="density", potential="cosine",
                                           y=y, t=t), check_density))
    return ops


def config_text(cfg, out):
    lines = []
    for key, value in dict(cfg, out=out).items():
        if isinstance(value, tuple):
            value = ",".join(format(v, ".17g") for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def read_rows(path):
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError:
        return []


# ------------------------------------------------------------------ checks


def _number(text):
    return float(text) if text not in ("", None) else None


def _printed(stdout, key):
    """The value printed as ``key=value`` by the CLI, or None."""
    for line in stdout.splitlines():
        for part in line.split():
            k, sep, v = part.partition("=")
            if sep and k == key:
                return v
    return None


def _se_with_floor(se, ref, relvar, n):
    """The row's SE, but at least the SE its sampler has at the FP value.

    With few hits and heavy-tailed weights, a row that missed the rare
    large weights reports both a low mean and a far too small SE; the
    floor ``ref * sqrt(relvar / n)`` keeps that from reading as a wrong
    answer.
    """
    return max(se or 0.0, ref * math.sqrt(relvar / n))


def _z_problem(label, mean, se, ref):
    if se is None or not se > 0:
        return f"{label}: no standard error"
    z = abs(mean - ref) / se
    if z > Z_MAX:
        return f"{label}: mean {mean:.6g} is {z:.1f} SE from FP {ref:.6g}"
    return None


def check_table5(res, cfg):
    """Importance rows: hits, a lambda, and within 4 SE of the FP value.

    The plain row is checked once per run on the pooled rows
    (:func:`pooled_problems`): at eps=1 one run sees ~3 plain hits.
    """
    if len(res.rows) != 7:
        return [f"expected 7 rows, got {len(res.rows)}"]
    ref = FP_REF["values"]["1"]["refined"]
    problems = []
    for r in res.rows:
        if r["estimator"] == "plain":
            continue
        label = f"{r['potential']} tau={r['tau']}"
        mean = float(r["mean"])
        if mean == 0.0:
            problems.append(f"{label}: zero hits")
        elif _number(r["lambda"]) is None:
            problems.append(f"{label}: lambda is None")
        else:
            sampling = r["potential"].split("(", 1)[0]
            se = _se_with_floor(_number(r["std_error"]), ref,
                                RELVAR["table5"][sampling], int(r["N"]))
            problems.append(_z_problem(label, mean, se, ref))
    return [p for p in problems if p]


def pooled_plain_problems(rows):
    """The run's plain rows pooled: hits, and within 4 binomial SE of FP."""
    n = hits = 0
    for r in rows:
        if r.get("estimator") == "plain":
            n += int(r["N"])
            hits += round(float(r["mean"]) * int(r["N"]))
    if n == 0:
        return ["no plain rows"]
    if hits == 0:
        return [f"pooled plain row: zero hits in {n} samples"]
    p0 = FP_REF["values"]["1"]["refined"]
    se0 = math.sqrt(p0 * (1.0 - p0) / n)
    problem = _z_problem("pooled plain row", hits / n, se0, p0)
    return [problem] if problem else []


def _pooled_problems(label, parts, ref, relvar):
    stats = pooled(parts)
    if stats is None or stats[1] == 0.0:
        return [f"{label}: no hits in the run"]
    n, mean, var = stats
    se = _se_with_floor(math.sqrt(var / n), ref, relvar, n)
    problem = _z_problem(label, mean, se, ref)
    return [problem] if problem else []


def pooled_problems(workload, rows):
    """One check per estimator on all the run's rows pooled.

    Each (sampler, tau) of table5 at tau = h and 10h, its plain rows, and
    each eps of sweep: the pooled mean must lie within 4 pooled SE (with
    the floor of :func:`_se_with_floor`) of the FP value.  Pooling a run's
    units makes the test sqrt(units) times tighter than the per-row one.
    Returns one problem list per estimator: each counts as one operation.
    """
    if workload == "table5":
        ref = FP_REF["values"]["1"]["refined"]
        checks = [pooled_plain_problems(rows)]
        for sampling in ("flatten", "invert"):
            for tau in POOLED_TAUS:
                checks.append(_pooled_problems(
                    f"pooled {sampling} tau={tau:g}", table5_parts(rows, sampling, tau),
                    ref, RELVAR["table5"][sampling]))
        return checks
    if workload == "sweep":
        return [_pooled_problems(f"pooled eps={_ref_key(eps)}", sweep_parts(rows, eps),
                                 FP_REF["values"][_ref_key(eps)]["refined"],
                                 RELVAR["sweep"][_ref_key(eps)])
                for eps in EPSILONS]
    return []


def sweep_se(row):
    """Standard error of a sweep row: mean * sqrt((lambda - 1) / n)."""
    lam = _number(row["lambda"])
    return float(row["probability"]) * math.sqrt(max(lam - 1.0, 0.0) / int(row["n"]))


def check_sweep(res, cfg):
    """Every level: hits, a lambda, and within 4 SE of its stored FP value."""
    if len(res.rows) != len(cfg["epsilons"]):
        return [f"expected {len(cfg['epsilons'])} rows, got {len(res.rows)}"]
    problems = []
    for r in res.rows:
        label = f"eps={r['epsilon']}"
        key = _ref_key(r["epsilon"])
        ref = FP_REF["values"].get(key, {}).get("refined")
        if int(r["hits"]) == 0:
            problems.append(f"{label}: zero hits")
        elif _number(r["lambda"]) is None:
            problems.append(f"{label}: lambda is None")
        elif ref is not None:
            se = _se_with_floor(sweep_se(r), ref, RELVAR["sweep"][key], int(r["n"]))
            problems.append(_z_problem(label, float(r["probability"]), se, ref))
    return [p for p in problems if p]


def _rel_problem(label, value, ref):
    if value is None:
        return [f"{label}: no value printed"]
    if abs(value - ref) > FP_REL_TOL * abs(ref):
        return [f"{label}: {value!r} differs from stored {ref!r}"]
    return []


def check_fp(res, cfg):
    """The printed value repeats the stored one; the CSV has every cell."""
    grid = next((name for name, g in FP_REF["grids"].items()
                 if (g["n_cells"], g["dt"]) == (cfg["n_cells"], cfg["dt"])), None)
    if grid is None:
        problems = [f"{res.tag}: no stored value for this grid"]
    else:
        problems = _rel_problem(res.tag, _number(_printed(res.stdout, "escape_probability")),
                                FP_REF["values"][_ref_key(cfg["epsilon"])][grid])
    if len(res.rows) != cfg["n_cells"]:
        problems.append(f"{res.tag}: density CSV has {len(res.rows)} rows, "
                        f"not {cfg['n_cells']}")
    return problems


def check_action(res, cfg):
    if _printed(res.stdout, "converged") != "True":
        return ["action: minimizer did not converge"]
    return _rel_problem("action", _number(_printed(res.stdout, "action")),
                        REFERENCE["exit_action"]["value"])


def check_density(res, cfg):
    q = {r["quantity"]: _number(r["value"]) for r in res.rows}
    lo, val, hi = q.get("lower"), q.get("value"), q.get("upper")
    if None in (lo, val, hi) or not all(math.isfinite(v) for v in (lo, val, hi)):
        return [f"{res.tag}: missing or non-finite bounds"]
    if not 0.0 <= lo <= val <= hi:
        return [f"{res.tag}: bounds not ordered ({lo}, {val}, {hi})"]
    return []


# --------------------------------------------------------------- metrics


def pooled(parts):
    """(n, mean, per-sample variance) of pooled (n, mean, variance) parts."""
    n = sum(p[0] for p in parts)
    if n < 2:
        return None
    mean = sum(p[0] * p[1] for p in parts) / n
    m2 = sum((pn - 1) * pv + pn * (pm - mean) ** 2 for pn, pm, pv in parts)
    return n, mean, m2 / (n - 1)


def pooled_relvar(parts):
    """Per-sample variance over mean^2 of pooled (n, mean, variance) parts."""
    stats = pooled(parts)
    if stats is None or stats[1] == 0.0:
        return None
    return stats[2] / stats[1] ** 2


def table5_parts(rows, sampling, tau=1e-2):
    parts = []
    for r in rows:
        if r["potential"].startswith(sampling) and r["tau"] \
                and math.isclose(float(r["tau"]), tau):
            parts.append((int(r["N"]), float(r["mean"]),
                          float(r["per_sample_variance"])))
    return parts


def sweep_parts(rows, eps):
    """(n, mean, variance) of the rows at ``eps``; a zero-hit row is all zeros."""
    parts = []
    for r in rows:
        if not math.isclose(float(r["epsilon"]), eps):
            continue
        n = int(r["n"])
        if int(r["hits"]) == 0:
            parts.append((n, 0.0, 0.0))
        elif _number(r["lambda"]):
            var = float(r["probability"]) ** 2 * (float(r["lambda"]) - 1) * n / (n - 1)
            parts.append((n, float(r["probability"]), var))
    return parts


def _rows(units):
    return [r for u in units for r in u["rows"]]


def is_headline(workload, p):
    """Whether pass ``p`` is the one ``t1pct_s`` follows: the inverted
    sampler on table5, eps = 0.5 on sweep."""
    if workload == "table5":
        return p["sampling"].startswith("invert")
    return math.isclose(p["epsilon"], 0.5)


def time_to_target(units, pass_filter, parts):
    """Median pass seconds per sample x pooled relative variance / 0.01^2.

    This is the wall time the pass would need to reach a 1% relative
    error: cost per sample times the samples that error requires.  Pass
    seconds are scaled to the reference host speed (see ``end_to_end``).
    """
    relvar = pooled_relvar(parts)
    per_sample = [p["seconds"] * u["host_scale"] / p["n"] for u in units
                  for p in u["passes"] if pass_filter(p)]
    if relvar is None or not per_sample:
        return None
    return statistics.median(per_sample) * relvar / TARGET_RE ** 2


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _rate(unit, timed, work):
    """Summed ``work`` over summed scaled seconds of a unit's passes or solves."""
    seconds = sum(t["seconds"] for t in unit[timed]) * unit["host_scale"]
    return sum(t[work] for t in unit[timed]) / seconds if seconds > 0 else None


def _fp_time_to_target(unit, eps=0.5):
    """Scaled seconds of the cheapest FP solve at eps within 1% of the refined value."""
    ref = FP_REF["values"][_ref_key(eps)]["refined"]
    solves = sorted((f for f in unit["fp"] if math.isclose(f["epsilon"], eps)),
                    key=lambda f: f["cell_steps"])
    for f in solves:
        if f["value"] is not None and abs(f["value"] - ref) <= TARGET_RE * ref:
            return f["seconds"] * unit["host_scale"]
    return solves[-1]["seconds"] * unit["host_scale"] if solves else None


def end_to_end(workload, units):
    """``wall_s``, ``steps_per_s`` and ``t1pct_s``: medians over a run's units.

    Every time is scaled by the unit's ``host_scale``, the reference
    kernel's time on the reference host over its time next to the unit, so
    that a slowdown of the whole host drops out and a slowdown of the
    package's code does not.  setup_s and peak_rss_mb are measured by run.py.
    """
    out = {"wall_s": _median(u["wall"] * u["host_scale"] for u in units)}
    if workload == "fp_oracle":
        out["steps_per_s"] = _median(_rate(u, "fp", "cell_steps") for u in units)
        out["t1pct_s"] = _median(_fp_time_to_target(u) for u in units)
        return out
    out["steps_per_s"] = _median(_rate(u, "passes", "steps") for u in units)
    parts = table5_parts(_rows(units), "invert") if workload == "table5" \
        else sweep_parts(_rows(units), 0.5)
    out["t1pct_s"] = time_to_target(units, lambda p: is_headline(workload, p), parts)
    return out


def table5_extras(units):
    """Plain-pass throughput and flatten time-to-1% (traced runs' extras)."""
    plain = [p["steps"] / (p["seconds"] * u["host_scale"]) for u in units
             for p in u["passes"] if p["sampling"] == "none" and p["seconds"] > 0]
    return {
        "estimators.plain_sample_steps_per_s": _median(plain),
        "estimators.t1pct_flatten_s": time_to_target(
            units, lambda p: p["sampling"].startswith("flatten"),
            table5_parts(_rows(units), "flatten")),
    }
