"""Golden CLI matrix: the CLI's output on a fixed set of small invocations.

``CASES`` names about fifty ``wellescape`` invocations at h = 1e-2 and
N <= 8192: every mode, each ``validate`` sampler, one case of each exit-2
family and one config error per rule.  ``run_case`` runs one in-process
through ``cli.main`` and records its exit code, stdout, stderr, warnings
(category and message) and CSV text, with its working directory written
as ``{dir}``.  ``tests/test_golden.py`` replays every case against
``cli.json``.

After an intended change of CLI output, regenerate the record with::

    PYTHONPATH=src python tests/golden/regen.py

It prints every moved line, warning and CSV cell as ``old -> new``
against the old record, then rewrites ``cli.json``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

GOLDEN = Path(__file__).with_name("cli.json")

BASE = """\
mode = plain
potential = cosine
region = (-pi, pi)
T = 1.0
h = 1e-2
N = 2048
seed = 7
"""


def _run(*overrides):
    return ("run", "{dir}/base.cfg", *overrides, "--out", "{dir}/out.csv")


_INVERT = ("--mode", "importance", "--sampling", "invert")
_SWEEP = ("--mode", "sweep", "--sampling", "invert")
_DIVERGES = ("--potential", "quadratic", "--stiffness", "1e6", "--region", "(-1,1)")

CASES = {
    # sampled modes
    "plain": _run(),
    "plain-seed11": _run("--seed", "11", "--N", "8192"),
    "plain-quadratic": _run("--potential", "quadratic", "--stiffness", "2",
                            "--region", "(-1,1)"),
    "plain-linear": _run("--potential", "linear", "--slope", "0.5",
                         "--region", "(-1,2)", "--sigma", "0.8"),
    "plain-zero-beta": _run("--potential", "zero", "--beta", "4"),
    "importance-invert": _run(*_INVERT),
    "importance-invert-seed23": _run(*_INVERT, "--seed", "23", "--N", "8192"),
    "importance-flatten": _run("--mode", "importance", "--sampling", "flatten"),
    "importance-same": _run("--mode", "importance", "--sampling", "same"),
    "importance-workers2": _run(*_INVERT, "--N", "8192", "--workers", "2"),
    "importance-tau5h": _run(*_INVERT, "--tau", "0.05", "--seed", "11"),
    "importance-epsilon": _run(*_INVERT, "--epsilon", "0.5"),
    "table5": _run("--mode", "table5", "--N", "4096"),
    "table5-eps0.5": _run("--mode", "table5", "--epsilon", "0.5",
                          "--seed", "23", "--N", "8192"),
    "sweep": _run(*_SWEEP, "--epsilons", "1,0.5", "--sweep_n", "4096,8192"),
    "sweep-low-hits": _run("--mode", "sweep", "--sampling", "flatten",
                           "--epsilons", "1,0.25", "--N", "512", "--seed", "11"),
    # oracles
    "density": _run("--mode", "density", "--y", "0.7", "--t", "0.1"),
    "density-quadratic": _run("--mode", "density", "--potential", "quadratic",
                              "--y", "-0.4", "--t", "0.2", "--delta", "0.5",
                              "--epsilon", "0.5"),
    "fp": _run("--mode", "fp", "--n_cells", "2048", "--dt", "1e-3"),
    "fp-coarse-zero": _run("--mode", "fp", "--potential", "zero",
                           "--n_cells", "512", "--dt", "1e-2"),
    "action": _run("--mode", "action", "--segments", "50"),
    "action-quadratic": _run("--mode", "action", "--potential", "quadratic",
                             "--stiffness", "3", "--region", "(-1,1)",
                             "--segments", "40"),
    # validate, each sampler
    "validate-none": ("validate", "{dir}/base.cfg"),
    "validate-same": ("validate", "{dir}/base.cfg", "--sampling", "same"),
    "validate-flatten": ("validate", "{dir}/base.cfg", "--sampling", "flatten"),
    "validate-invert": ("validate", "{dir}/base.cfg", "--sampling", "invert"),
    # exit 2: allocation, float range, lost answers, construction, the
    # sampling loop
    "noise-block-unallocatable": _run("--h", "1e-12", "--N", "10",
                                      "--epsilon", "0.5"),
    "fp-grid-unallocatable": _run("--mode", "fp", "--n_cells", "1e20"),
    "fp-x0-huge": _run("--mode", "fp", "--x0", "1e200"),
    "density-t-huge": _run("--mode", "density", "--y", "0.5", "--t", "1e300"),
    "fp-mass-underflow": _run("--mode", "fp", "--potential", "quadratic",
                              "--stiffness", "1e300"),
    "action-T-tiny": _run("--mode", "action", "--T", "1e-300",
                          "--segments", "4"),
    "flatten-linear": _run("--mode", "importance", "--sampling", "flatten",
                           "--potential", "linear", "--region", "(-1,1)"),
    "plain-diverges": _run(*_DIVERGES),
    "importance-integrand-nonfinite": _run(*_DIVERGES, "--mode", "importance",
                                           "--sampling", "same"),
    "importance-weights-underflow": _run(*_INVERT, "--epsilon", "0.001",
                                         "--x0", "2.5", "--T", "3", "--N", "4096"),
    # exit 1: one config error per rule
    "missing-config": ("run", "{dir}/missing.cfg"),
    "bad-line": ("run", "{dir}/bad.cfg"),
    "unknown-key": _run("--bogus", "1"),
    "not-a-flag": ("run", "{dir}/base.cfg", "N", "5"),
    "missing-value": ("run", "{dir}/base.cfg", "--N"),
    "bad-value": _run("--T", "two"),
    "choice-rule": _run("--mode", "dance"),
    "positive-rule": _run("--T", "0"),
    "least-rule": _run("--N", "0"),
    "two-noise-keys": _run("--sigma", "1", "--beta", "2"),
    "noise-out-of-range": _run("--epsilon", "1e-320"),
    "region-order": _run("--region", "(2,1)"),
    "horizon-off-grid": _run("--T", "1.005"),
    "tau-off-grid": _run(*_INVERT, "--tau", "0.005"),
    "mesh-not-dividing": _run(*_INVERT, "--tau", "0.03"),
    "needs-sampling": _run("--mode", "importance"),
    "density-needs-y": _run("--mode", "density"),
    "sweep-epsilons-empty": _run(*_SWEEP, "--epsilons", ","),
    "sweep-n-length": _run(*_SWEEP, "--epsilons", "1,0.5", "--sweep_n", "500"),
}


def environment():
    """What decides whether floats reproduce bit for bit."""
    return {"numpy": np.__version__, "cpu_features": dict(__cpu_features__)}


def run_case(argv, workdir):
    """The record of one invocation, run in ``workdir`` through ``cli.main``."""
    from wellescape.cli import main

    workdir = Path(workdir)
    (workdir / "base.cfg").write_text(BASE)
    (workdir / "bad.cfg").write_text(BASE + "just words\n")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([a.replace("{dir}", str(workdir)) for a in argv])
    table = workdir / "out.csv"

    def norm(text):
        return text.replace(str(workdir), "{dir}")

    return {
        "argv": list(argv),
        "exit": code,
        "stdout": norm(out.getvalue()),
        "stderr": norm(err.getvalue()),
        "warnings": [[w.category.__name__, norm(str(w.message))] for w in caught],
        "csv": table.read_text() if table.exists() else None,
    }


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def same_text(a, b, rtol):
    """Equal text, or with rtol > 0: equal but for floats within rtol;
    integers and every other character still match exactly."""
    if a == b:
        return True
    if not rtol or a is None or b is None:
        return False
    na, nb = _NUMBER.findall(a), _NUMBER.findall(b)
    if _NUMBER.split(a) != _NUMBER.split(b) or len(na) != len(nb):
        return False
    for x, y in zip(na, nb):
        if x == y:
            continue
        if not any(c in x + y for c in ".eE"):
            return False
        if not math.isclose(float(x), float(y), rel_tol=rtol, abs_tol=0.0):
            return False
    return True


def _pairs(old, new):
    for i in range(max(len(old), len(new))):
        yield (i, old[i] if i < len(old) else None,
               new[i] if i < len(new) else None)


def _cells(text):
    rows = list(csv.reader(io.StringIO(text or "")))
    if not rows:
        return []
    header = rows[0]
    return [(f"row {r} {header[c] if c < len(header) else c}", cell)
            for r, row in enumerate(rows[1:], start=1)
            for c, cell in enumerate(row)]


def diff(name, old, new, rtol=0.0):
    """Every moved item of record ``new`` against ``old``, one ``old -> new``
    line each: argv, exit code, output lines, warnings and CSV cells."""
    moved = []
    for key in ("argv", "exit"):
        if old[key] != new[key]:
            moved.append(f"{name}: {key}: {old[key]!r} -> {new[key]!r}")
    for key in ("stdout", "stderr"):
        for i, a, b in _pairs(old[key].splitlines(), new[key].splitlines()):
            if not same_text(a, b, rtol):
                moved.append(f"{name}: {key} line {i + 1}: {a!r} -> {b!r}")
    for i, a, b in _pairs([": ".join(w) for w in old["warnings"]],
                          [": ".join(w) for w in new["warnings"]]):
        if not same_text(a, b, rtol):
            moved.append(f"{name}: warning {i + 1}: {a!r} -> {b!r}")
    if (old["csv"] is None) != (new["csv"] is None):
        moved.append(f"{name}: csv: {old['csv']!r} -> {new['csv']!r}")
    for _, a, b in _pairs(_cells(old["csv"]), _cells(new["csv"])):
        if a is None or b is None or a[0] != b[0] or not same_text(a[1], b[1], rtol):
            where = (a or b)[0]
            moved.append(f"{name}: csv {where}: {a and a[1]!r} -> {b and b[1]!r}")
    return moved


def record():
    cases = {}
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            cases[name] = run_case(argv, workdir)
    return {"environment": environment(), "cases": cases}


def main():
    new = record()
    if GOLDEN.exists():
        old = json.loads(GOLDEN.read_text())["cases"]
        moved = [f"{name}: case removed" for name in old if name not in new["cases"]]
        for name, rec in new["cases"].items():
            moved += (diff(name, old[name], rec) if name in old
                      else [f"{name}: case added"])
        print("\n".join(moved) if moved else "no output moved")
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    main()
