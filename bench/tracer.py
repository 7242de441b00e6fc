"""Trace one kickedchain CLI invocation by wrapping the package's public functions from outside.

    python3 bench/tracer.py --spans spans.json --run-id ID -- sweep --config c.yaml --out o

``kickedchain`` must be importable (``PYTHONPATH`` holding ``src``).  Every
traced name is replaced in each ``kickedchain`` module that holds it, so
calls between modules are seen too.  Coarse calls get a span (name,
start, end, parent, thread, run id; the parent is tracked per thread).
The scorers in ``fidelity`` are called once per lattice cell, so they only
count calls and time per name; that time is charged to the enclosing span
like a child's.  Spans stay in memory and are written once, at exit.  A
name missing from the package is reported as absent, not as an error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import itertools
import json
import math
import sys
import threading
import time
from pathlib import Path

import numpy as np

SPANNED = (
    "basis.enumerate_basis",
    "model.build_hamiltonian",
    "model.chirality_operator",
    "model.vacuum_energy",
    "model.apply_impurity",
    "propagator.kick_step",
    "propagator.eigendecompose",
    "sweep.sweep_axis",
    "sweep.max_fidelity",
    "sweep.fidelity_series",
    "sweep.continuous_fidelity_series",
    "cli.parse_config",
    "cli.run",
    "cli.write_tables",
)
COUNTED = (
    "fidelity.single_qubit_fidelity",
    "fidelity.bell_fidelity_omega1",
    "fidelity.bell_fidelity_omega2",
)
LAYERS = ("basis", "model", "propagator", "fidelity", "sweep", "cli")
SPAN_FIELDS = ("id", "name", "thread", "parent", "start", "end", "scored_s", "info")

# Per-layer metrics: name -> unit.  Units marked "computed" are derived
# from call arguments and sector sizes, not measured.
PER_LAYER = {
    "basis.enumerate_basis.calls": "count",
    "basis.enumerate_basis.s": "s",
    "model.build_hamiltonian.calls": "count",
    "model.build_hamiltonian.self_s": "s",
    "model.build_hamiltonian.unique_ratio": "ratio",
    "model.chirality_operator.calls": "count",
    "model.vacuum_energy.calls": "count",
    "model.apply_impurity.calls": "count",
    "propagator.kick_step.calls": "count",
    "propagator.kick_step.self_s": "s",
    "propagator.eigendecompose.calls": "count",
    "propagator.eigendecompose.s": "s",
    "propagator.eigendecompose.unique_ratio": "ratio",
    "sweep.sweep_axis.s": "s",
    "sweep.points": "count",
    "sweep.max_fidelity.calls": "count",
    "sweep.max_fidelity.s": "s",
    "sweep.fidelity_series.calls": "count",
    "sweep.fidelity_series.self_s": "s",
    "sweep.kick_applications": "computed-count",
    "sweep.matvec_flops": "computed-flop",
    "sweep.continuous_fidelity_series.calls": "count",
    "sweep.continuous_fidelity_series.self_s": "s",
    "fidelity.single_qubit_fidelity.calls": "count",
    "fidelity.bell_fidelity_omega1.calls": "count",
    "fidelity.bell_fidelity_omega2.calls": "count",
    "fidelity.score.s": "s",
    "cli.parse_config.s": "s",
    "cli.run.s": "s",
    "cli.write_tables.s": "s",
    "cli.write_tables.bytes": "B",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# What each span records besides its timing, from the call's arguments
# ---------------------------------------------------------------------------

def _hamiltonian_key(args: dict, result):
    params, basis = args["params"], args["basis"]
    key = repr((params, basis.n_sites, basis.n_excitations))
    return hashlib.sha1(key.encode()).hexdigest()


def _matrix_key(args: dict, result):
    matrix = next(iter(args.values()))
    return hashlib.sha1(np.ascontiguousarray(matrix).tobytes()).hexdigest()


def _kick_work(args: dict, result):
    """One step application per kick; a complex (dim x dim) by (dim x sources) product each."""
    n_sites = args["params"].profile.n_sites
    state = args["state"]
    m_max = args.get("m_max")
    kicks = args["schedule"].n_kicks if m_max is None else m_max
    dim = math.comb(n_sites, 2 if state == "omega2" else 1)
    sources = 2 if state == "omega1" else 1
    return {"kicks": kicks, "flops": kicks * 8 * dim * dim * sources}


def _plan_points(args: dict, result):
    return len(args["plan"].grid)


def _written_bytes(args: dict, result):
    return sum(Path(p).stat().st_size for p in result)


INFO = {
    "model.build_hamiltonian": _hamiltonian_key,
    "propagator.eigendecompose": _matrix_key,
    "sweep.fidelity_series": _kick_work,
    "sweep.sweep_axis": _plan_points,
    "cli.write_tables": _written_bytes,
}


class Tracer:
    """Collects spans and per-name call counters for one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._thread_counts: list[dict] = []
        self._lock = threading.Lock()

    def _thread(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []            # open frames: [span id, scored seconds]
            local.counts = {}
            with self._lock:
                self._thread_counts.append(local.counts)
        return local

    def span(self, name: str, fn):
        signature = inspect.signature(fn)
        info_of = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = self._thread()
            frame = [next(self._ids), 0.0]
            parent = local.stack[-1][0] if local.stack else None
            local.stack.append(frame)
            result, ok = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                local.stack.pop()
                info = None
                if ok and info_of is not None:
                    try:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        info = info_of(bound.arguments, result)
                    except (AttributeError, KeyError, TypeError, ValueError, OSError):
                        info = None
                self.spans.append([frame[0], name, threading.get_ident(), parent,
                                   start, end, frame[1], info])
        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                local = self._thread()
                entry = local.counts.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                if local.stack:
                    local.stack[-1][1] += elapsed
        return wrapper

    def counters(self) -> dict:
        merged: dict = {}
        for counts in self._thread_counts:
            for name, (calls, seconds) in counts.items():
                total = merged.setdefault(name, [0, 0.0])
                total[0] += calls
                total[1] += seconds
        return merged

    def document(self) -> dict:
        return {"run_id": self.run_id, "span_fields": list(SPAN_FIELDS),
                "spans": self.spans, "counters": self.counters(), "absent": self.absent}


def install(tracer: Tracer) -> None:
    """Replace every traced name in each loaded kickedchain module that holds it."""
    import kickedchain  # noqa: F401  (imports every layer)
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "kickedchain" or n.startswith("kickedchain.")]
    for qualified in SPANNED + COUNTED:
        layer, attr = qualified.split(".")
        owner = sys.modules.get(f"kickedchain.{layer}")
        original = getattr(owner, attr, None)
        if not callable(original):
            tracer.absent.append(qualified)
            continue
        make = tracer.span if qualified in SPANNED else tracer.counter
        wrapper = make(qualified, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


# ---------------------------------------------------------------------------
# From a trace document to per-layer metrics
# ---------------------------------------------------------------------------

def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def span_table(doc: dict) -> list[dict]:
    """Spans as dicts, each with its duration ``s`` and ``self_s``.

    Self time is the span's duration minus the part covered by its child
    spans and minus the scorer time counted inside it.  Children on other
    threads may overlap; only their union is subtracted.
    """
    spans = [dict(zip(doc["span_fields"], row)) for row in doc["spans"]]
    for span in spans:
        if span["parent"] is None:
            # a pool worker's outermost span belongs to the innermost span of
            # another thread that encloses it (the call that ran the pool)
            enclosing = [o for o in spans if o["thread"] != span["thread"]
                         and o["start"] <= span["start"] and span["end"] <= o["end"]]
            if enclosing:
                span["parent"] = min(enclosing, key=lambda o: o["end"] - o["start"])["id"]
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    for span in spans:
        span["s"] = span["end"] - span["start"]
        in_children = covered(span["start"], span["end"], children.get(span["id"], []))
        span["self_s"] = span["s"] - in_children - span["scored_s"]
    return spans


def layer_self_times(doc: dict) -> dict:
    """Self seconds per layer; the scorers' counted time is the fidelity layer's."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for span in span_table(doc):
        layer = span["name"].split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + span["self_s"]
    totals["fidelity"] += sum(seconds for _, seconds in doc["counters"].values())
    return totals


def layer_metrics(doc: dict) -> dict:
    """Every PER_LAYER metric but trace.overhead_s, from one run's trace document."""
    by_name: dict = {}
    for span in span_table(doc):
        by_name.setdefault(span["name"], []).append(span)

    def spans(name):
        return by_name.get(name, [])

    def total(name, field):
        return sum(s[field] for s in spans(name))

    def unique_ratio(name):
        keys = [s["info"] for s in spans(name)]
        return len(set(keys)) / len(keys) if keys else 0.0

    def info_sum(name, key=None):
        infos = [s["info"] for s in spans(name) if s["info"] is not None]
        return sum(i[key] if key else i for i in infos)

    counters = doc["counters"]
    out = {}
    for metric in PER_LAYER:
        name, _, field = metric.rpartition(".")
        if name in COUNTED:
            out[metric] = counters.get(name, [0, 0.0])[0]
        elif field == "calls":
            out[metric] = len(spans(name))
        elif field in ("s", "self_s"):
            out[metric] = total(name, field)
        elif field == "unique_ratio":
            out[metric] = unique_ratio(name)
    out["sweep.points"] = info_sum("sweep.sweep_axis")
    out["sweep.kick_applications"] = info_sum("sweep.fidelity_series", "kicks")
    out["sweep.matvec_flops"] = info_sum("sweep.fidelity_series", "flops")
    out["fidelity.score.s"] = sum(counters.get(n, [0, 0.0])[1] for n in COUNTED)
    out["cli.write_tables.bytes"] = info_sum("cli.write_tables")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, required=True, help="trace file to write")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="kickedchain CLI arguments, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer(args.run_id)
    install(tracer)
    from kickedchain.cli import main as cli_main
    code = cli_main(cli_args)
    args.spans.write_text(json.dumps(tracer.document()), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
