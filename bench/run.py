"""wellescape benchmark: one run of one workload, one JSON line out.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload table5 --seed 1 --seconds 30 --trace 0

Workloads: ``table5``, ``sweep``, ``fp_oracle`` (see bench/README.md).
This process times a few set-up-only child processes, then starts one child
(``bench/child.py``) that runs the workload's units for ``--seconds``
seconds through the CLI entry point, while this process samples the resident
memory of the child's whole process tree from ``/proc``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  A record of the machine, the library versions and the run
is printed before it and saved under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4            # set-up-only children per run, plus the main child
SETUP_TIMEOUT_S = 60.0
CHILD_SLACK_S = 120.0       # the main child may run this long beyond --seconds
RSS_POLL_S = 0.02

class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# ----------------------------------------------------------- process tree


def _descendants(pid):
    """pid and every process below it, from /proc/<pid>/task/*/children."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            tasks = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for t in tasks:
            try:
                with open(f"/proc/{p}/task/{t}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
            except OSError:
                pass
    return out


def _status_kb(pid, field):
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_rss_kb(pid):
    return sum(_status_kb(p, "VmRSS") for p in _descendants(pid))


def run_child(args, timeout, sample_rss=False):
    """Start the child, wait for it, return (start time, peak tree RSS in kB)."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                            stdout=subprocess.DEVNULL)
    peak = 0
    try:
        while proc.poll() is None:
            if sample_rss:
                peak = max(peak, tree_rss_kb(proc.pid),
                           _status_kb(proc.pid, "VmHWM"))
            if time.monotonic() - start > timeout:
                raise BenchError(f"child ran longer than {timeout:.0f} s")
            time.sleep(RSS_POLL_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    return start, peak


# ----------------------------------------------------------------- record


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_record():
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    versions = {"python": platform.python_version()}
    for mod in ("numpy", "scipy"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = None
    return dict(cpu_model=cpu, nproc=len(os.sched_getaffinity(0)),
                versions=versions, commit=git_commit(), caches=caches)


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return None
    if head.startswith("ref: "):
        ref = head[5:]
        return _read(git / ref) or next(
            (line.split()[0] for line in (_read(git / "packed-refs") or "").splitlines()
             if line.endswith(" " + ref)), None)
    return head


# ------------------------------------------------------------------- main


def measure(args, spec):
    if not (ROOT / "src" / "wellescape" / "cli.py").is_file():
        raise BenchError(f"no wellescape sources under {ROOT / 'src'}")
    work = ROOT / ".bench_work"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = work / f"{tag}-{os.getpid()}"
    results = work / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    common = ["--root", str(ROOT), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--scale", args.scale,
              "--workdir", str(workdir)]
    try:
        setups, imports = [], []
        for k in range(SETUP_PROBES):
            out = workdir / f"setup{k}.json"
            start, _ = run_child([*common, "--result", str(out), "--setup-only"],
                                 SETUP_TIMEOUT_S)
            probe = json.loads(out.read_text())
            setups.append(probe["setup_done"] - start)
            imports.append(probe["import_s"])
        out = workdir / "result.json"
        start, peak_kb = run_child(
            [*common, "--result", str(out), "--spans", str(results / f"{args.workload}-spans.npz")],
            args.seconds + CHILD_SLACK_S, sample_rss=True)
        child = json.loads(out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(child["setup_done"] - start)
    imports.append(child["import_s"])

    metrics = dict(child["metrics"])
    if args.trace:
        metrics["setup.import_s"] = min(imports)
    else:
        metrics["setup_s"] = min(setups)
        metrics["peak_rss_mb"] = peak_kb / 1024.0
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    record = machine_record()
    record.update(noise_block_bytes_computed=child["noise_block_bytes"],
                  workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, scale=args.scale,
                  setup_samples_s=setups, problems=child["problems"],
                  units=child["units"])
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (results / f"{tag}.json").write_text(json.dumps(dict(record, result=result), indent=1))
    return record, result


def main(argv=None):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's sizes")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind through run_child's cleanup so the child is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record, result = measure(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    summary = {k: v for k, v in record.items() if k != "units"}
    print("record: " + json.dumps(summary))
    failed_frac = result["failed"] / result["attempted"]
    print(f"failed_frac: {failed_frac:.6g} ({result['failed']} of {result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
