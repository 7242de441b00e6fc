"""Config parsing, table writing, and the command-line entry point."""

import csv
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kickedchain
from kickedchain import DEFAULT_TAU_GRID, cli, float_grid, periodogram
from kickedchain.cli import (
    _BLOCK_ROWS,
    _typed_table,
    _write_csv,
    _write_json,
    ChainBlock,
    ConfigError,
    DriveBlock,
    ExperimentConfig,
    OutputBlock,
    RunBlock,
    main,
    parse_config,
    run,
    serialize_config,
    write_tables,
)

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).parent.parent / "configs"
README = Path(__file__).parent.parent / "README.md"
RECIPES = sorted(CONFIGS.glob("*.yaml"))


def parsed(text: str) -> ExperimentConfig:
    return parse_config(text)


# -- defaults and round trips -----------------------------------------------------

def test_empty_document_yields_canonical_defaults():
    cfg = parsed("")
    assert (cfg.chain.n_sites, cfg.chain.j1, cfg.chain.j2, cfg.chain.b_field) == (10, 1.0, -1.0, 0.0)
    assert (cfg.drive.e0, cfg.drive.e1, cfg.drive.tau, cfg.drive.n_kicks) == (0.1, 1.0, 2.0, 500)
    assert cfg.drive.u0_convention == "hamiltonian_tau"
    assert cfg.drive.omega2_convention == "re_amplitude"
    assert cfg.impurity is None
    assert cfg.run.mode == "evolve"
    assert cfg.run.states == ("omega0",)
    assert cfg.run.tau_grid == DEFAULT_TAU_GRID
    assert (cfg.run.m_max, cfg.run.workers) == (500, 1)
    assert (cfg.output.path, cfg.output.format) == ("results", "csv")
    assert cfg.output.physical_time_column


@pytest.mark.parametrize("text", [
    "",
    "impurity: {kind: type1, strength: 1.7}\n",
    ("chain: {n_sites: 8, j1: 1.5}\n"
     "drive: {e1: 0.0, tau: 1.5}\n"
     "run: {mode: sweep, axis: e1, grid: [0.0, 0.5, 1.0], states: [omega0, omega2]}\n"
     "output: {path: out/run1, format: json}\n"),
    *(pytest.param(path.read_text(encoding="utf-8"), id=path.stem) for path in RECIPES),
])
def test_serialize_parse_round_trip(text):
    cfg = parsed(text)
    assert parse_config(serialize_config(cfg)) == cfg


def test_serialized_defaults_are_pinned():
    # key order and float formatting of the normalized form
    want = (DATA / "default_config.yaml").read_text(encoding="utf-8")
    assert serialize_config(parse_config("")) == want


def test_readme_config_reference_shows_the_defaults():
    # the block sets run.axis, run.grid, output.path and an impurity on purpose
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Config reference"):]
    start = section.index("```yaml\n") + len("```yaml\n")
    block = section[start:section.index("```\n", start)]
    cfg = parse_config(block)
    assert cfg.chain == ChainBlock()
    assert cfg.drive == DriveBlock()
    assert replace(cfg.run, axis=None, grid=None) == RunBlock()
    assert replace(cfg.output, path=OutputBlock().path) == OutputBlock()
    assert (cfg.run.axis, cfg.impurity.kind) == ("tau", "type1")


def test_readme_library_names_resolve_on_the_package():
    # every backticked name in "Lower layers" and every name the "Library use"
    # example imports is an attribute of kickedchain (dotted names by getattr)
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    example = section[section.index("from kickedchain import"):section.index(")")]
    imported = example.removeprefix("from kickedchain import").strip(" (").replace("\n", " ")
    layers = section[section.index("Lower layers"):]
    layers = layers[:layers.index("\n\n")]
    names = [n.strip() for n in imported.split(",")] + re.findall(r"`([^`]+)`", layers)
    assert len(names) > 10
    for name in names:
        obj = kickedchain
        for part in name.split("."):
            assert hasattr(obj, part), f"README names {name!r}, which kickedchain lacks"
            obj = getattr(obj, part)


def test_impurity_strength_normalizes_to_explicit_ratios():
    cfg = parsed("impurity: {kind: type2, strength: 3.0}\n")
    imp = cfg.impurity
    assert imp.site == 6                      # default N//2 + 1 on ten sites
    assert imp.ratio_nn == 0.5
    assert imp.ratio_nnn_strong == 3.0
    assert imp.ratio_nnn_weak == 0.5
    assert "strength" not in serialize_config(cfg)


def test_grid_mapping_expands_like_float_grid():
    cfg = parsed("run: {mode: sweep, axis: e1, grid: {start: 0.0, stop: 1.0, step: 0.25}}\n")
    assert cfg.run.grid == float_grid(0.0, 1.0, 0.25)
    listed = parsed("run: {mode: sweep, axis: tau, grid: [0.3, 0.7]}\n")
    assert listed.run.grid == (0.3, 0.7)


def test_all_checked_in_recipes_parse():
    paths = sorted(CONFIGS.glob("*.yaml"))
    assert len(paths) >= 30
    for path in paths:
        cfg = parse_config(path.read_text(encoding="utf-8"))
        assert cfg.output.path.startswith("results/")


# -- rejection paths ----------------------------------------------------------------

@pytest.mark.parametrize("text,key_path", [
    ("chains: {}\n", "chains"),
    ("chain: {bogus: 1}\n", "chain.bogus"),
    ("drive: {amplitude: 1}\n", "drive.amplitude"),
    ("run: {modes: evolve}\n", "run.modes"),
    ("run: {seed: 1}\n", "run.seed"),
    ("output: {fmt: csv}\n", "output.fmt"),
    ("impurity: {kind: type1, strength: 1.5, power: 2}\n", "impurity.power"),
])
def test_unknown_keys_are_rejected_with_their_path(text, key_path):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key_path == key_path


@pytest.mark.parametrize("text,fragment", [
    ("chain: {n_sites: true}\n", "chain.n_sites"),
    ("chain: {n_sites: 1}\n", "chain.n_sites"),
    ("chain: {j1: one}\n", "chain.j1"),
    ("drive: {tau: -1.0}\n", "drive"),
    ("drive: {tau: 0}\n", "drive"),
    ("drive: {n_kicks: 2.5}\n", "drive.n_kicks"),
    ("drive: {u0_convention: eq5}\n", "drive.u0_convention"),
    ("drive: {omega2_convention: modulus}\n", "drive.omega2_convention"),
    ("run: {mode: scan}\n", "run.mode"),
    ("run: {states: []}\n", "run.states"),
    ("run: {states: [omega9]}\n", "run.states[0]"),
    ("run: {states: [omega0, omega0]}\n", "run.states[1]"),
    ("run: {m_max: 0}\n", "run.m_max"),
    ("run: {workers: 0}\n", "run.workers"),
    ("run: {mode: sweep, grid: [1.0]}\n", "run.axis"),
    ("run: {mode: sweep, axis: tau}\n", "run.grid"),
    ("run: {mode: sweep, axis: tau, grid: {start: 1.0, stop: 2.0}}\n", "run.grid"),
    ("run: {mode: sweep, axis: tau, grid: [1.0, true]}\n", "run.grid[1]"),
    ("run: {mode: sweep, axis: tau, grid: []}\n", "run.grid"),
    ("drive: {tau: .nan}\n", "drive.tau"),
    ("drive: {e1: -.inf}\n", "drive.e1"),
    ("run: {mode: sweep, axis: e1, grid: [0, .nan]}\n", "run.grid[1]"),
    ("run: {mode: sweep, axis: tau, grid: {start: 0, stop: .inf, step: 1}}\n", "run.grid.stop"),
    ("chain: {n_sites: 3}\nrun: {states: [omega0, omega1]}\n", "run.states[1]"),
    ("run: {mode: sweep, axis: kick_count, grid: [0.5]}\n", "run: kick_count grid values"),
    ("run: {mode: sweep, axis: tau, grid: [-1]}\n", "run: grid values must be positive"),
    ("drive: {n_kicks: 2}\nrun: {mode: periodogram}\n", "drive.n_kicks"),
    ("output: {format: parquet}\n", "output.format"),
    ("output: {path: null}\n", "output.path"),
    ("output: {path: 3}\n", "output.path"),
    ("output: {path: [a]}\n", "output.path"),
    ("output: {path: ''}\n", "output.path"),
    ("output: {path: .}\n", "output.path"),
    ("output: {path: sub/..}\n", "output.path"),
    ("output: {physical_time_column: yes please}\n", "output"),
    ("impurity: {strength: 1.5}\n", "impurity.kind"),
    ("impurity: {kind: type3, strength: 1.5}\n", "impurity.kind"),
    ("impurity: {kind: type1, strength: 0.9}\n", "impurity"),
    ("impurity: {kind: type1, strength: 1.5, ratio_nn: 1.5}\n", "impurity.strength"),
    ("impurity: {kind: type1, ratio_nn: 1.5}\n", "impurity"),
    ("impurity: {kind: type1, strength: 1.5, site: 1}\n", "impurity.site"),
    ("impurity: {kind: type2, strength: 1.5, site: 10}\n", "impurity.site"),
    ("[1, 2, 3]\n", "document"),
    ("chain: [1, 2]\n", "chain"),
    (":\n  - {", ""),
])
def test_invalid_configs_fail_at_parse_time(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_config_error_is_a_value_error_with_key_path():
    err = ConfigError("run.grid", "boom")
    assert isinstance(err, ValueError)
    assert err.key_path == "run.grid"
    assert str(err) == "run.grid: boom"


# -- table output --------------------------------------------------------------------

EVOLVE_TEXT = (DATA / "golden_evolve.yaml").read_text(encoding="utf-8")


def evolve_config(tmp_path: Path) -> ExperimentConfig:
    cfg = parse_config(EVOLVE_TEXT)
    return replace(cfg, output=replace(cfg.output, path=str(tmp_path / "evolve")))


def test_evolve_writes_csv_and_json_mirror(tmp_path):
    paths = run(evolve_config(tmp_path))
    assert [p.suffix for p in paths] == [".csv", ".json"]
    lines = paths[0].read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("kick_index,time,physical_time_ps,"
                        "fidelity_omega0,fidelity_omega1,classical_threshold")
    assert len(lines) == 22                     # header + kicks 0..20
    first = lines[1].split(",")
    assert first[:3] == ["0", "0", "0"]
    assert first[3] == "0.5" and first[4] == "0"
    assert first[5] == "0.66666666666666663"    # 2/3 in %.17g
    records = json.loads(paths[1].read_text(encoding="utf-8"))
    assert len(records) == 21
    assert records[0]["fidelity_omega0"] == 0.5
    assert records[3]["kick_index"] == 3


def test_evolve_matches_golden_table(tmp_path):
    # regenerate with: python -m kickedchain evolve --config tests/data/golden_evolve.yaml
    #                  --out tests/data/golden_evolve
    golden = (DATA / "golden_evolve.csv").read_text(encoding="utf-8").splitlines()
    got = run(evolve_config(tmp_path))[0].read_text(encoding="utf-8").splitlines()
    assert got[0] == golden[0]
    assert len(got) == len(golden)
    for got_line, golden_line in zip(got[1:], golden[1:]):
        for a, b in zip(got_line.split(","), golden_line.split(",")):
            assert abs(float(a) - float(b)) <= 1e-12 * max(1.0, abs(float(b)))


def test_rerun_is_byte_identical(tmp_path):
    first = run(replace(evolve_config(tmp_path),
                        output=replace(parse_config(EVOLVE_TEXT).output,
                                       path=str(tmp_path / "a"))))
    second = run(replace(evolve_config(tmp_path),
                         output=replace(parse_config(EVOLVE_TEXT).output,
                                        path=str(tmp_path / "b"))))
    assert first[0].read_bytes() == second[0].read_bytes()
    assert first[1].read_bytes() == second[1].read_bytes()


def test_physical_time_column_can_be_dropped(tmp_path):
    cfg = parse_config(EVOLVE_TEXT + "output:\n  physical_time_column: false\n")
    cfg = replace(cfg, output=replace(cfg.output, path=str(tmp_path / "plain")))
    header = run(cfg)[0].read_text(encoding="utf-8").splitlines()[0]
    assert "physical_time_ps" not in header


def test_output_suffix_is_normalized(tmp_path):
    cfg = parse_config("chain: {n_sites: 4}\ndrive: {n_kicks: 3}\n")
    cfg = replace(cfg, output=replace(cfg.output, path=str(tmp_path / "table.csv")))
    paths = run(cfg)
    assert paths[0].name == "table.csv" and paths[1].name == "table.json"


def test_dotfile_output_name_writes_two_files(tmp_path):
    cfg = parse_config(f"chain: {{n_sites: 4}}\ndrive: {{n_kicks: 3}}\n"
                       f"output: {{path: {tmp_path / 'sub' / '.hidden'}}}\n")
    csv_path, json_path = run(cfg)
    assert (csv_path.name, json_path.name) == (".hidden.csv", ".hidden.json")
    assert csv_path.read_text(encoding="utf-8").startswith("kick_index,")
    assert json_path.read_text(encoding="utf-8").startswith("[")


def test_json_format_puts_json_first(tmp_path):
    cfg = parse_config("chain: {n_sites: 4}\ndrive: {n_kicks: 3}\noutput: {format: json}\n")
    cfg = replace(cfg, output=replace(cfg.output, path=str(tmp_path / "t")))
    paths = run(cfg)
    assert paths[0].suffix == ".json" and paths[1].suffix == ".csv"


def reference_rendering(columns, rows):
    """CSV and JSON text rendered cell by cell: what write_tables must reproduce."""
    def cell(value):
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, int):
            return str(value)
        if isinstance(value, float):
            return format(value, ".17g")
        return str(value)

    lines = [",".join(columns)] + [",".join(cell(v) for v in row) for row in rows]
    records = [dict(zip(columns, row)) for row in rows]
    return "\n".join(lines) + "\n", json.dumps(records, indent=2) + "\n"


TYPED_COLUMNS = ["index", "state", "value", "flag", "rate_%d"]
TYPED_DTYPES = [np.int64, str, float, bool, float]
TYPED_ROWS = [
    [0, "omega0", 0.1, True, -0.0],
    [-7, 'say "hi" \\ 100%', float("nan"), False, float("inf")],
    [2 ** 63 - 1, "caf\u00e9", 1e-300, True, float("-inf")],
    [3, "", np.float64(2.0 / 3.0), False, 5e-324],
    [-2 ** 63, "%s,%d", -2.5e17, True, 1.0],
]


def columns_of(dtypes, rows):
    """The columns of a row-major table, as numpy arrays of the given dtypes."""
    return [np.array([row[i] for row in rows], dtype=dtype) for i, dtype in enumerate(dtypes)]


def rows_of(columns):
    """The rows of a column-major table, as Python values."""
    return list(zip(*(c.tolist() for c in columns)))


def assert_written_as_reference(tmp_path, names, columns):
    """Write a column-major table and compare it with the cell-by-cell rendering."""
    cfg = parse_config(f"output: {{path: {tmp_path / 't'}}}")
    csv_path, json_path = write_tables(cfg, names, columns)
    want_csv, want_json = reference_rendering(names, rows_of(columns))
    assert csv_path.read_text(encoding="utf-8") == want_csv
    assert json_path.read_text(encoding="utf-8") == want_json
    return want_csv, want_json


@pytest.mark.parametrize("rows", [TYPED_ROWS, TYPED_ROWS[:1], []],
                         ids=["typed", "one_row", "zero_rows"])
def test_write_tables_equals_the_cell_by_cell_rendering(tmp_path, rows):
    cfg = parse_config(f"output: {{path: {tmp_path / 't'}}}")
    csv_path, json_path = write_tables(cfg, TYPED_COLUMNS, columns_of(TYPED_DTYPES, rows))
    want_csv, want_json = reference_rendering(TYPED_COLUMNS, rows)
    assert csv_path.read_text(encoding="utf-8") == want_csv
    assert json_path.read_text(encoding="utf-8") == want_json


@pytest.mark.parametrize("n_rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                    2 * _BLOCK_ROWS + 1])
def test_write_tables_streams_blocks_that_equal_the_cell_by_cell_rendering(tmp_path, n_rows):
    index = np.arange(n_rows)
    late = index / 7                             # non-finite only in the last block
    if n_rows > _BLOCK_ROWS:
        late[-2:] = [float("nan"), float("-inf")]
    columns = [
        index,                                          # int64
        np.sin(index) * 1e5,                            # float64
        index % 3 == 0,                                 # bool
        np.array([f"s{i % 5}" for i in range(n_rows)], dtype=str),
        late,                                           # float64, non-finite late
        index.astype(np.uint32) ** 2,                   # uint32
        np.array([f"{i % 3}%" for i in range(n_rows)], dtype=str),
        np.full(n_rows, 2.0 / 3.0),                     # constant float64
    ]
    names = ["index", "wave", "third", "label", "late", "square", "percent", "constant"]
    assert_written_as_reference(tmp_path, names, columns)


def test_write_tables_constant_columns_compare_bits(tmp_path):
    n_rows = _BLOCK_ROWS + 3
    signed_zero = np.zeros(n_rows)
    signed_zero[_BLOCK_ROWS + 1] = -0.0                # == 0.0, but written "-0.0"
    late_label = np.full(n_rows, "a")
    late_label[_BLOCK_ROWS + 1] = "b"
    columns = [
        signed_zero,
        np.full(n_rows, np.nan),
        np.full(n_rows, "100% %s,%d"),
        late_label,
        np.full(n_rows, -7),
        np.full(n_rows, True),
    ]
    names = ["zero", "nan", "percent", "late_label", "int", "flag"]
    csv_text, json_text = assert_written_as_reference(tmp_path, names, columns)
    lines = csv_text.splitlines()
    assert lines[1] == "0,nan,100% %s,%d,a,-7,1"
    assert lines[_BLOCK_ROWS + 2] == "-0,nan,100% %s,%d,b,-7,1"
    assert '"nan": NaN' in json_text


def test_write_tables_rejects_a_column_that_is_not_a_typed_array(tmp_path):
    cfg = parse_config(f"output: {{path: {tmp_path / 't'}}}")
    n_rows = _BLOCK_ROWS + 5
    for bad in ([0.5] * n_rows,                           # a list, even of one type
                np.full(n_rows, 0.5, dtype=object),
                np.full(n_rows, 0.5 + 1j),
                np.full(n_rows, b"bytes")):
        # the bad column comes after a good one and is found before either file is opened
        with pytest.raises(TypeError, match="'late'"):
            write_tables(cfg, ["index", "late"], [np.arange(n_rows), bad])
        assert not list(tmp_path.iterdir())


def test_write_tables_rejects_columns_of_unequal_length(tmp_path):
    cfg = parse_config(f"output: {{path: {tmp_path / 't'}}}")
    with pytest.raises(ValueError, match="one length"):
        write_tables(cfg, ["a", "b"], [np.arange(3), np.arange(2)])
    with pytest.raises(ValueError, match="one column per name"):
        write_tables(cfg, ["a", "b"], [np.arange(3)])
    assert not list(tmp_path.iterdir())


def test_write_tables_memory_does_not_grow_with_the_table(tmp_path):
    # a long table's JSON is written by a forked child, which tracemalloc cannot
    # see from here, so each file's writer is also measured in this process
    cfg = parse_config(f"output: {{path: {tmp_path / 't'}}}")

    def peak(write):
        tracemalloc.start()
        try:
            write()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def peaks(n_rows):
        column = np.arange(n_rows) % 100       # small ints: no cell objects to allocate
        table = _typed_table(["i"], [column])
        with open(tmp_path / "one_file", "w", encoding="utf-8") as file:
            return [peak(lambda: write_tables(cfg, ["i"], [column])),
                    peak(lambda: _write_csv(file, table)),
                    peak(lambda: _write_json(file, table))]

    for short, long in zip(peaks(_BLOCK_ROWS), peaks(8 * _BLOCK_ROWS)):
        assert long <= 1.5 * short, (short, long)


LONG_LABELS = np.array([f"s{i % 5}" for i in range(2 * _BLOCK_ROWS + 1)])


def assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_write_tables_without_fork_writes_a_long_table_in_process(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert_written_as_reference(tmp_path, ["index", "label"],
                                [np.arange(len(LONG_LABELS)), LONG_LABELS])


def test_write_tables_reports_a_failed_json_child(tmp_path, monkeypatch, capfd):
    csv_spec, json_spec, encode = cli._FORMATS["U"]
    calls = []

    def second_block_fails(cells):
        calls.append(len(cells))
        if len(calls) == 2:
            raise ValueError("no room for block 2")
        return encode(cells)

    monkeypatch.setitem(cli._FORMATS, "U", (csv_spec, json_spec, second_block_fails))
    cfg = parse_config(f"output: {{path: {tmp_path / 't'}}}")
    with pytest.raises(RuntimeError) as failure:
        write_tables(cfg, ["label"], [LONG_LABELS])
    assert str(tmp_path / "t.json") in str(failure.value)
    assert "ValueError: no room for block 2" in str(failure.value)
    assert not calls                              # the JSON was formatted in the child only
    assert (tmp_path / "t.csv").read_text(encoding="utf-8").count("\n") == 1 + len(LONG_LABELS)
    assert_no_child_is_left()

    # the command line reports the child's failure as its one JSON error line
    capfd.readouterr()
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(f"chain: {{n_sites: 5}}\ndrive: {{n_kicks: {_BLOCK_ROWS}}}\n"
                        "run: {states: [omega0, omega1]}\n", encoding="utf-8")
    code = main(["periodogram", "--config", str(cfg_file), "--out", str(tmp_path / "p")])
    assert code == 1
    out, err = capfd.readouterr()
    assert out == ""
    [line] = err.splitlines()
    record = json.loads(line)
    assert record["error"] == "RuntimeError"
    assert str(tmp_path / "p.json") in record["message"]
    assert "ValueError: no room for block 2" in record["message"]
    assert_no_child_is_left()


def test_write_tables_raises_a_failed_fork_and_closes_its_pipe(tmp_path, monkeypatch):
    real_pipe, pipes = os.pipe, []

    def recorded_pipe():
        pipes.append(real_pipe())
        return pipes[-1]

    def fork_fails():
        raise BlockingIOError("out of processes")

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", fork_fails)
    cfg = parse_config(f"output: {{path: {tmp_path / 't'}}}")
    with pytest.raises(BlockingIOError, match="out of processes"):
        write_tables(cfg, ["label"], [LONG_LABELS])
    for fd in pipes[0]:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_write_tables_kills_and_reaps_the_json_child_when_the_csv_fails(tmp_path, monkeypatch):
    csv_spec, json_spec, _ = cli._FORMATS["U"]
    monkeypatch.setitem(cli._FORMATS, "U",                  # a stuck child
                        (csv_spec, json_spec, lambda cells: time.sleep(60)))

    def csv_fails(file, table):
        raise OSError("csv disk full")

    monkeypatch.setattr(cli, "_write_csv", csv_fails)
    cfg = parse_config(f"output: {{path: {tmp_path / 't'}}}")
    start = time.monotonic()
    with pytest.raises(OSError, match="csv disk full"):
        write_tables(cfg, ["label"], [LONG_LABELS])
    assert time.monotonic() - start < 30          # the child was killed, not waited out
    assert_no_child_is_left()


SWEEP_TEXT = (
    "chain: {n_sites: 6}\n"
    "drive: {e1: 1.0}\n"
    "run:\n"
    "  mode: sweep\n"
    "  axis: tau\n"
    "  grid: [1.0, 2.0, 3.0]\n"
    "  states: [omega0, omega1]\n"
    "  m_max: 30\n"
)


def test_sweep_table_shape_and_ordering(tmp_path):
    cfg = parse_config(SWEEP_TEXT)
    cfg = replace(cfg, output=replace(cfg.output, path=str(tmp_path / "sweep")))
    paths = run(cfg)
    lines = paths[0].read_text(encoding="utf-8").splitlines()
    assert lines[0] == "grid_value,state,max_fidelity,argmax_tau,argmax_kicks,out_of_range_flag"
    assert len(lines) == 1 + 3 * 2
    cells = [line.split(",") for line in lines[1:]]
    assert [c[0] for c in cells] == ["1", "1", "2", "2", "3", "3"]
    assert [c[1] for c in cells] == ["omega0", "omega1"] * 3
    assert all(c[5] in ("0", "1") for c in cells)


def test_sweep_workers_do_not_change_bytes(tmp_path):
    base = parse_config(SWEEP_TEXT)
    one = replace(base, output=replace(base.output, path=str(tmp_path / "w1")))
    three = replace(base, output=replace(base.output, path=str(tmp_path / "w3")))
    p1 = run(one, workers=1)
    p3 = run(three, workers=3)
    assert p1[0].read_bytes() == p3[0].read_bytes()


def test_periodogram_mode_emits_spectrum_rows(tmp_path):
    cfg = parse_config(
        "chain: {n_sites: 5}\n"
        "drive: {tau: 2.0, n_kicks: 63}\n"
        "run: {mode: periodogram, states: [omega0]}\n")
    cfg = replace(cfg, output=replace(cfg.output, path=str(tmp_path / "spec")))
    lines = run(cfg)[0].read_text(encoding="utf-8").splitlines()
    assert lines[0] == "state,frequency,magnitude,is_dominant"
    assert len(lines) == 1 + 64                 # one row per frequency bin
    dominant_rows = [l for l in lines[1:] if l.endswith(",1")]
    assert len(dominant_rows) == 1


def test_periodogram_table_marks_the_dominant_bin_of_each_state(tmp_path):
    text = "chain: {n_sites: 5}\ndrive: {tau: 2.0, n_kicks: 63}\nrun: {states: [omega0, omega1]}\n"
    cfg = parse_config(text)
    evolve = replace(cfg, output=replace(cfg.output, path=str(tmp_path / "series")))
    spectrum = replace(evolve, run=replace(cfg.run, mode="periodogram"),
                       output=replace(cfg.output, path=str(tmp_path / "spec")))
    with open(run(evolve)[0], encoding="utf-8") as f:
        series = list(csv.DictReader(f))
    rows = []
    for state in ("omega0", "omega1"):
        fs, mags, dominant = periodogram([float(r[f"fidelity_{state}"]) for r in series])
        rows += [[state, float(f), float(m), float(f) == dominant] for f, m in zip(fs, mags)]
    csv_path, json_path = run(spectrum)
    want_csv, want_json = reference_rendering(["state", "frequency", "magnitude", "is_dominant"],
                                              rows)
    assert csv_path.read_text(encoding="utf-8") == want_csv
    assert json_path.read_text(encoding="utf-8") == want_json
    assert sum(row[3] for row in rows) == 2


# -- entry point -----------------------------------------------------------------------

def test_main_evolve_with_out_override(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(EVOLVE_TEXT, encoding="utf-8")
    code = main(["evolve", "--config", str(cfg_file), "--out", str(tmp_path / "x")])
    assert code == 0
    out = capsys.readouterr().out
    assert "x.csv" in out and "x.json" in out
    assert (tmp_path / "x.csv").exists()


def test_main_subcommand_overrides_config_mode(tmp_path):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(SWEEP_TEXT.replace("mode: sweep", "mode: evolve"), encoding="utf-8")
    code = main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "s")])
    assert code == 0
    header = (tmp_path / "s.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("grid_value,")


def test_main_subcommand_mode_is_set_before_validation(tmp_path):
    # a sweep config without an axis is a valid evolve config
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text("chain: {n_sites: 5}\nrun: {mode: sweep}\n", encoding="utf-8")
    code = main(["evolve", "--config", str(cfg_file), "--out", str(tmp_path / "e")])
    assert code == 0
    header = (tmp_path / "e.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("kick_index,")


def test_main_periodogram_checks_the_kick_count_of_an_evolve_config(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text("chain: {n_sites: 5}\ndrive: {n_kicks: 2}\n", encoding="utf-8")
    assert main(["evolve", "--config", str(cfg_file), "--out", str(tmp_path / "e")]) == 0
    code = main(["periodogram", "--config", str(cfg_file), "--out", str(tmp_path / "p")])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert record["key_path"] == "drive.n_kicks"
    assert not (tmp_path / "p.csv").exists()


def test_main_sweep_without_axis_fails_cleanly(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text("chain: {n_sites: 5}\n", encoding="utf-8")
    code = main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "s")])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert record["key_path"] == "run.axis"


def test_main_reports_parse_errors_as_json(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text("chain: {bogus: 1}\n", encoding="utf-8")
    code = main(["evolve", "--config", str(cfg_file)])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record == {
        "error": "ConfigError",
        "message": "chain.bogus: unknown key",
        "key_path": "chain.bogus",
    }


def test_main_rejects_bad_worker_override(tmp_path, capsys):
    code = main(["evolve", "--workers", "0", "--out", str(tmp_path / "x")])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["key_path"] == "run.workers"


def test_main_validate_prints_normalized_config(capsys):
    code = main(["validate"])
    assert code == 0
    text = capsys.readouterr().out
    assert parse_config(text) == parse_config("")
    assert text.startswith("chain:")


def test_module_entry_point_wiring(tmp_path):
    # the subprocess runs in tmp_path, so a relative PYTHONPATH would not find the package
    src = str(Path(kickedchain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "kickedchain", "validate"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("chain:")


def test_forked_writer_duplicates_no_output(tmp_path):
    # stdout is a pipe, so block-buffered: a child that returned into main, or
    # flushed a buffer it shares with the parent, would print the lines twice.
    # One BLAS thread keeps Python >= 3.12 from warning about the fork on stderr.
    src = str(Path(kickedchain.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(f"drive: {{n_kicks: {2 * _BLOCK_ROWS}}}\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "kickedchain", "evolve", "--config", str(cfg_file),
         "--out", str(tmp_path / "long")],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"wrote {tmp_path / 'long.csv'}\nwrote {tmp_path / 'long.json'}\n"
    assert proc.stderr == ""
    assert len(json.loads((tmp_path / "long.json").read_text(encoding="utf-8"))) == 2 * _BLOCK_ROWS + 1
