"""Tests for the benchmark itself: tiny runs, the row check, the tracer, the contract.

    python3 -m pytest -q bench/tests

Every CLI run here is a tiny instance (one grid point, or 500 kicks), so
the whole file takes about half a minute on a 2-core machine.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, TMP_ROOT, run_child  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import (ROOT, WORKLOADS, check_rows, config_yaml, load_reference,  # noqa: E402
                       make_case)

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    TMP_ROOT.mkdir(exist_ok=True)
    return tmp_path_factory.mktemp("bench")


def cli_output(case, tmp, traced=False):
    """(csv bytes, json bytes) of one tiny CLI run, plain or under the tracer."""
    (tmp / "config.yaml").write_text(config_yaml(case.config, str(tmp / "out")),
                                     encoding="utf-8")
    args = [case.workload.mode, "--config", str(tmp / "config.yaml"),
            "--workers", str(case.workload.workers)]
    if traced:
        args = ["--spans", str(tmp / "spans.json"), "--run-id", "test", "--"] + args
    result = run_child(args, tmp, script=BENCH / "tracer.py" if traced else None)
    assert result.exit_code == 0, result.stderr
    return (tmp / "out.csv").read_bytes(), (tmp / "out.json").read_bytes()


def test_contract_lists_the_metrics_the_benchmark_prints():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == PER_LAYER
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_same_seed_same_inputs_and_every_seed_costs_the_same():
    for name in WORKLOADS:
        assert make_case(name, 7) == make_case(name, 7)
        assert len({make_case(name, seed).cells for seed in range(20)}) == 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_of_every_workload_passes_the_row_check(name):
    result = result_of(bench("--workload", name, "--seed", "1", "--seconds", "0.1",
                             "--trace", "0", "--tiny"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = result_of(bench("--workload", "kicked_omega2_e1_w2", "--seed", "2",
                             "--seconds", "0.1", "--trace", "1", "--tiny"))
    assert result["correct"] is True and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(PER_LAYER)
    assert metrics["sweep.points"] == 1
    assert metrics["propagator.kick_step.calls"] == 100
    assert metrics["sweep.kick_applications"] == 100 * 500
    assert metrics["fidelity.bell_fidelity_omega2.calls"] == 100 * 501
    assert metrics["model.apply_impurity.calls"] >= 1


@pytest.mark.parametrize("name", ["kicked_omega0_j2", "evolve_long"])
def test_a_perturbed_reference_value_fails_exactly_one_row(name, tmp):
    case = make_case(name, 3, tiny=True)
    csv_text = cli_output(case, tmp)[0].decode()
    reference = load_reference(name)
    assert check_rows(case, csv_text, reference) == (case.expected_rows, 0)
    if case.workload.mode == "evolve":
        reference[case.tau] = reference[case.tau].copy()
        reference[case.tau][7, 1] += 2e-9
    else:
        key = (case.grid[0], case.states[0])
        row = dict(reference[key])
        row["max_fidelity"] = repr(float(row["max_fidelity"]) + 2e-9)
        reference[key] = row
    assert check_rows(case, csv_text, reference) == (case.expected_rows, 1)


def test_a_failed_run_fails_every_expected_row():
    case = make_case("nokick_all_states", 1, tiny=True)
    assert check_rows(case, None, load_reference(case.workload.name)) == (3, 3)


@pytest.mark.parametrize("name", ["kicked_omega2_e1_w2", "evolve_long"])
def test_traced_output_bytes_equal_untraced(name, tmp):
    case = make_case(name, 4, tiny=True)
    plain = cli_output(case, tmp)
    traced = cli_output(case, tmp, traced=True)
    assert traced == plain
    spans = json.loads((tmp / "spans.json").read_text())
    assert spans["run_id"] == "test" and spans["spans"] and spans["absent"] == []


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "evolve_long", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
