"""Print self time per layer per workload from the trace files of traced benchmark runs.

    python3 bench/trace_summary.py [trace files ...]

Without arguments it reads every ``.bench_out/trace-*.json`` that
``bench/run.py --trace 1`` wrote.  Each row is one workload and seed; each
layer column is the median over that run's traced invocations of the
summed self time of the layer's spans (the ``fidelity`` column is the
scorers' counted time).  ``untraced`` is the traced wall time not covered
by any span (interpreter start, imports, exit), and ``trace.overhead_s``
is the traced wall time minus the untraced median.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from tracer import LAYERS, covered, layer_self_times, span_table

OUT_ROOT = Path(__file__).resolve().parent.parent / ".bench_out"


def _root_span_seconds(doc: dict) -> float:
    roots = [(s["start"], s["end"]) for s in span_table(doc) if s["parent"] is None]
    return covered(min(a for a, _ in roots), max(b for _, b in roots), roots) if roots else 0.0


def summarize(trace_file: dict) -> dict:
    """Median per-layer self time, uncovered time and overhead for one trace file."""
    runs = trace_file["runs"]
    row = {}
    for layer in LAYERS:
        row[layer] = statistics.median(layer_self_times(r)[layer] for r in runs)
    row["untraced"] = statistics.median(r["wall_s"] - _root_span_seconds(r) for r in runs)
    row["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in runs)
                               - trace_file["untraced_wall_s"])
    return row


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(OUT_ROOT.glob("trace-*.json"))
    if not paths:
        print("no trace files; run bench/run.py with --trace 1 first", file=sys.stderr)
        return 1
    columns = list(LAYERS) + ["untraced", "trace.overhead_s"]
    print(f"{'workload':22s} {'seed':>5s} " + " ".join(f"{c:>16s}" for c in columns))
    for path in paths:
        trace_file = json.loads(path.read_text(encoding="utf-8"))
        if not trace_file["runs"]:
            print(f"{trace_file['workload']:22s} {trace_file['seed']:>5d} no traced runs")
            continue
        row = summarize(trace_file)
        print(f"{trace_file['workload']:22s} {trace_file['seed']:>5d} "
              + " ".join(f"{row[c]:>16.4f}" for c in columns))
        absent = sorted({name for r in trace_file["runs"] for name in r["absent"]})
        if absent:
            print(f"{'':28s}absent: {', '.join(absent)}")
    print("(self seconds per layer; medians over each run's traced invocations)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
