"""Run one benchmark workload against the kickedchain CLI and print its metrics.

    python3 bench/run.py --workload kicked_omega0_j2 --seed 1 --seconds 20 --trace 0

Each sample is a fresh ``python -m kickedchain <mode> --config <yaml>``
process, launched only after the previous one has exited (a closed loop
with one client), and preceded by a ``validate`` run of the same config
that times start-up.  Every output row is checked against
``bench/reference``.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it spends half its time on untraced samples
and half on traced ones (``bench/tracer.py``) and reports the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object.  Inputs, outputs and records stay inside the
checkout: ``.bench_tmp/`` (deleted) and ``.bench_out/`` (kept).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import PER_LAYER, layer_metrics
from workloads import (ROOT, WORKLOADS, Case, check_rows, config_yaml, load_reference,
                       make_case)

BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
OUT_ROOT = ROOT / ".bench_out"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "cells_per_s": "1/s", "peak_rss_mb": "MB"}


@dataclass
class ChildResult:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    # absolute, because children run in a temp directory
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], cwd: Path, script: Path | None = None) -> ChildResult:
    """Run ``python -m kickedchain *args`` (or ``python script *args``) and wait for it.

    Wall time runs from just before the spawn to the reaped exit; peak
    memory is the child's own maximum resident set, from ``wait4``.
    """
    head = [sys.executable, str(script)] if script else [sys.executable, "-m", "kickedchain"]
    err_path = cwd / "child.err"
    with open(cwd / "child.out", "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(head + args, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                       err_path.read_text(encoding="utf-8", errors="replace"))


@dataclass
class Tally:
    rows_checked: int = 0
    rows_failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: set[str] = field(default_factory=set)


def _sample(case: Case, reference, tmp: Path, tally: Tally,
            traced: str | None = None) -> ChildResult:
    """One CLI run, its rows checked and its output bytes hashed."""
    out = tmp / "out"
    outputs = [out.with_suffix(".csv"), out.with_suffix(".json")]
    args = [case.workload.mode, "--config", str(tmp / "config.yaml"), "--out", str(out),
            "--workers", str(case.workload.workers)]
    if traced is None:
        result = run_child(args, tmp)
    else:
        result = run_child(["--spans", str(tmp / "spans.json"), "--run-id", traced, "--"] + args,
                           tmp, script=BENCH / "tracer.py")
    csv_text = None
    if result.exit_code == 0:
        csv_bytes, json_bytes = (path.read_bytes() for path in outputs)
        csv_text = csv_bytes.decode("utf-8")
        tally.digests.add(hashlib.sha256(csv_bytes + b"\0" + json_bytes).hexdigest())
    else:
        tally.problems.append(f"exit {result.exit_code}: {result.stderr.strip()[-300:]}")
    for path in outputs:
        # gone before the next run, so no stale file can pass the check, and
        # deleted before the kernel writes it back, so no disk traffic overlaps the next sample
        path.unlink(missing_ok=True)
    checked, failed = check_rows(case, csv_text, reference)
    tally.rows_checked += checked
    tally.rows_failed += failed
    return result


def _setup_sample(tmp: Path, tally: Tally) -> float:
    result = run_child(["validate", "--config", str(tmp / "config.yaml")], tmp)
    if result.exit_code != 0:
        tally.problems.append(f"validate exit {result.exit_code}: {result.stderr.strip()[-300:]}")
    return result.wall_s


def high_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest of p75..p99.9 with at least ten samples beyond it, if any."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return f"p{p:g}", statistics.quantiles(ordered, n=1000, method="inclusive")[
                int(round(p * 10)) - 1]
    return None


def _git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {"benchmark": {k: os.environ.get(k) for k in THREAD_ENV},
                       "cli_child": THREAD_ENV},
        "machine": platform.machine(),
        "seed": seed,
    }


def measure(case: Case, seconds: float, trace: bool) -> dict:
    """Run the closed loop for ``seconds``; returns samples, tally and traces."""
    reference = load_reference(case.workload.name)
    tally = Tally()
    walls, rss, setups, traced_walls, traces = [], [], [], [], []
    TMP_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp_name:
        tmp = Path(tmp_name)
        (tmp / "config.yaml").write_text(config_yaml(case.config, str(tmp / "out")),
                                         encoding="utf-8")
        _setup_sample(tmp, tally)        # warm-up: byte-compiles, fills the file cache
        untraced_s = seconds / 2 if trace else seconds
        end = time.perf_counter() + untraced_s
        while not walls or time.perf_counter() < end:
            setups.append(_setup_sample(tmp, tally))
            result = _sample(case, reference, tmp, tally)
            walls.append(result.wall_s)
            rss.append(result.peak_rss_mb)
        untraced_digests = set(tally.digests)
        end = time.perf_counter() + (seconds - untraced_s)
        while trace and (not traced_walls or time.perf_counter() < end):
            run_id = f"{case.workload.name}-{len(traced_walls)}"
            result = _sample(case, reference, tmp, tally, traced=run_id)
            traced_walls.append(result.wall_s)
            if result.exit_code == 0:
                doc = json.loads((tmp / "spans.json").read_text(encoding="utf-8"))
                doc["wall_s"] = result.wall_s
                traces.append(doc)
        if trace and tally.digests != untraced_digests:
            tally.problems.append("traced output bytes differ from the untraced run's")
    if len(untraced_digests) > 1:
        tally.problems.append("untraced reruns wrote different bytes")
    return {"walls": walls, "rss": rss, "setups": setups, "tally": tally,
            "traced_walls": traced_walls, "traces": traces}


def end_to_end_metrics(case: Case, m: dict) -> dict:
    wall = statistics.median(m["walls"])
    return {
        "wall_s": wall,
        "setup_s": statistics.median(m["setups"]),
        "cells_per_s": case.cells / wall,
        "peak_rss_mb": statistics.median(m["rss"]),
    }


def per_layer_metrics(m: dict) -> dict:
    """Median over traced runs of every per-layer metric, plus the tracing overhead."""
    per_run = [layer_metrics(doc) for doc in m["traces"]]
    out = {name: statistics.median(r[name] for r in per_run) if per_run else 0.0
           for name in PER_LAYER if name != "trace.overhead_s"}
    out["trace.overhead_s"] = (statistics.median(m["traced_walls"])
                               - statistics.median(m["walls"]))
    return out


def describe(case: Case) -> str:
    w = case.workload
    if w.mode == "evolve":
        return (f"evolve tau={case.tau} x {len(case.states)} states x {case.n_kicks + 1} rows"
                f" = {case.cells} cells")
    return (f"{len(case.grid)} points {list(case.grid)} x {len(case.states)} states,"
            f" --workers {w.workers} = {case.cells} cells")


def report(args, case: Case, m: dict, metrics: dict, units: dict) -> dict:
    tally = m["tally"]
    correct = tally.rows_failed == 0 and not tally.problems
    print(f"workload {case.workload.name} seed {args.seed}: {describe(case)}")
    print(f"samples: {len(m['walls'])} untraced, {len(m['traced_walls'])} traced")
    high = high_percentile(m["walls"])
    for name, value in metrics.items():
        extra = ""
        if name == "wall_s":
            extra = f"  (median of {len(m['walls'])}" + (
                f"; {high[0]} {high[1]:.6g} s)" if high else "; too few for a high percentile)")
        elif name == "setup_s":
            extra = f"  (median of {len(m['setups'])})"
        print(f"{name:44s} {value:>16.6g} {units[name]}{extra}")
    print(f"{'rows_checked':44s} {tally.rows_checked:>16d} count")
    print(f"{'rows_failed':44s} {tally.rows_failed:>16d} count")
    for problem in tally.problems[:5]:
        print(f"problem: {problem}")
    return {
        "correct": correct,
        "attempted": tally.rows_checked,
        "failed": tally.rows_failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one grid point / 500 kicks, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "kickedchain" / "__init__.py").is_file():
        print(f"benchmark: no kickedchain package under {SRC}", file=sys.stderr)
        return 2
    try:
        case = make_case(args.workload, args.seed, tiny=args.tiny)
        m = measure(case, args.seconds, trace=bool(args.trace))
    except (OSError, ValueError, KeyError) as exc:
        print(f"benchmark: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, units = per_layer_metrics(m), PER_LAYER
    else:
        metrics, units = end_to_end_metrics(case, m), END_TO_END
    env = environment(args.seed)
    print(f"environment: {json.dumps(env)}")
    result = report(args, case, m, metrics, units)
    OUT_ROOT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seconds": args.seconds, "tiny": args.tiny,
              "environment": env, "case": describe(case),
              "samples": {k: m[k] for k in ("walls", "rss", "setups", "traced_walls")},
              "problems": m["tally"].problems, "result": result}
    (OUT_ROOT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        trace_doc = {"workload": args.workload, "seed": args.seed,
                     "untraced_wall_s": statistics.median(m["walls"]), "runs": m["traces"]}
        (OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(trace_doc), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
