"""Config parsing, table writing, and the command-line entry point."""

import csv
import gc
import importlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import kickedchain
import kickedchain.__main__
import kickedchain.sweep as sweep_module
from kickedchain import (
    DEFAULT_TAU_GRID,
    ChainParams,
    ImpuritySpec,
    KickSchedule,
    SweepPlan,
    apply_impurity,
    cli,
    fidelity_series,
    float_grid,
    impurity_from_strength,
    periodogram,
    uniform_profile,
)
from kickedchain.cli import (
    _BLOCK_ROWS,
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
from kickedchain.model import FieldError

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


@pytest.mark.parametrize("text,message", [
    ("chain:\n  n_sites: 6\n  j1: 1.0\n  j1: 2.0\n", "chain.j1: given twice (line 4)"),
    ("drive: {tau: 3.0}\ndrive: {e1: 0.5}\n", "drive: given twice (line 2)"),
    ("run: {mode: sweep, axis: tau, grid: {start: 1, stop: 2, step: 1, 'step': 2}}\n",
     "run.grid.step: given twice (line 1)"),
], ids=["key-in-a-block", "block", "quoted-grid-key"])
def test_a_key_given_twice_is_rejected_on_its_path(text, message):
    # YAML would keep the last value and drop the first without a word
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message


def test_a_merged_key_may_be_overridden():
    cfg = parse_config("chain:\n  <<: {j1: 3.0, j2: 1.0}\n  j1: 2.0\n")
    assert (cfg.chain.j1, cfg.chain.j2) == (2.0, 1.0)


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
    ("run: {mode: sweep, axis: tau, grid: 5}\n", "run.grid: expected a list of numbers"),
    ("run: {mode: sweep, axis: impurity_ratio, grid: [1.5]}\n",
     "impurity: impurity_ratio axis needs an impurity template"),
    ("drive: {tau: .nan}\n", "drive.tau"),
    ("drive: {e1: -.inf}\n", "drive.e1"),
    ("run: {mode: sweep, axis: e1, grid: [0, .nan]}\n", "run.grid[1]"),
    ("run: {mode: sweep, axis: tau, grid: {start: 0, stop: .inf, step: 1}}\n", "run.grid.stop"),
    ("run: {tau_grid: {start: 0.1, stop: 10, step: 1.0e-9}}\n", "run.tau_grid"),
    ("run: {tau_grid: {start: 0.1, stop: 10, step: 5.0e-324}}\n", "run.tau_grid"),
    ("chain: {n_sites: 3}\nrun: {states: [omega0, omega1]}\n", "run.states[1]"),
    ("run: {mode: sweep, axis: kick_count, grid: [0.5]}\n", "run.grid: kick_count grid values"),
    ("run: {mode: sweep, axis: tau, grid: [-1]}\n", "run.grid: grid values must be positive"),
    ("drive: {n_kicks: 2}\nrun: {mode: periodogram}\n", "drive.n_kicks"),
    ("output: {format: parquet}\n", "output.format"),
    ("output: {path: null}\n", "output.path"),
    ("output: {path: 3}\n", "output.path"),
    ("output: {path: [a]}\n", "output.path"),
    ("output: {path: ''}\n", "output.path"),
    ("output: {path: .}\n", "output.path"),
    ("output: {path: sub/..}\n", "output.path"),
    ("output: {path: res/}\n", "output.path"),
    ("output: {path: res/.}\n", "output.path"),
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


@pytest.mark.parametrize("n_sites", [1, 0, -3])
def test_short_chain_is_rejected_by_the_coupling_profile_on_its_key(n_sites):
    # the rule is CouplingProfile's, reported on chain.n_sites before the impurity is applied
    text = f"chain: {{n_sites: {n_sites}}}\nimpurity: {{kind: type1, strength: 1.5}}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == f"chain.n_sites: need at least 2 sites, got {n_sites}"


@pytest.mark.parametrize("text,key_path", [
    ("run: {mode: sweep, axis: e1, grid: [1.0, 0.5]}\n", "run.grid"),
    ("run: {mode: sweep, axis: e1, grid: [1.0], tau_grid: [2.0, 1.0]}\n", "run.tau_grid"),
    ("run: {mode: sweep, axis: tau, grid: [-0.5, 1.0]}\n", "run.grid"),
    ("run: {mode: sweep, axis: kick_count, grid: [10, 20.5]}\n", "run.grid"),
], ids=["decreasing-grid", "decreasing-tau-grid", "negative-tau", "fractional-kick-count"])
def test_sweep_grid_errors_name_the_grid_key(text, key_path):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key_path == key_path


IMPURITY_SWEEP = "impurity: {kind: type1, strength: 1.5}\nrun: {mode: sweep, axis: impurity_ratio, "


@pytest.mark.parametrize("text,key_path", [
    ("drive: {tau: -1.0}\n", "drive.tau"),
    ("drive: {n_kicks: -3}\n", "drive.n_kicks"),
    ("impurity: {kind: type1, strength: 0.9}\n", "impurity.strength"),
    ("impurity: {kind: type1, strength: 5}\n", "impurity.strength"),
    ("impurity: {kind: type1, strength: 6}\n", "impurity.strength"),
    ("impurity: {kind: type2, strength: 5}\n", "impurity.strength"),
    ("impurity: {kind: type1, ratio_nn: 0.5, ratio_nnn_strong: 1.5, ratio_nnn_weak: 0.8}\n",
     "impurity.ratio_nn"),
    ("impurity: {kind: type2, ratio_nn: 1.5, ratio_nnn_strong: 1.5, ratio_nnn_weak: 0.8}\n",
     "impurity.ratio_nn"),
    ("impurity: {kind: type1, ratio_nn: 1.5, ratio_nnn_strong: 0.5, ratio_nnn_weak: 0.8}\n",
     "impurity.ratio_nnn_strong"),
    ("impurity: {kind: type1, ratio_nn: 1.5, ratio_nnn_strong: 1.5, ratio_nnn_weak: 1.2}\n",
     "impurity.ratio_nnn_weak"),
    ("impurity: {kind: type1, ratio_nn: 1.5, ratio_nnn_strong: 1.5, ratio_nnn_weak: -0.8}\n",
     "impurity.ratio_nnn_weak"),
    ("impurity: {kind: type2, ratio_nn: 0, ratio_nnn_strong: 1.5, ratio_nnn_weak: 0.8}\n",
     "impurity.ratio_nn"),
    ("impurity: {kind: type3, ratio_nn: 1.5, ratio_nnn_strong: 1.5, ratio_nnn_weak: 0.8}\n",
     "impurity.kind"),
    ("impurity: {kind: type1, strength: 1.5, site: 1}\n", "impurity.site"),
    (IMPURITY_SWEEP + "grid: [0.5, 1.0]}\n", "run.grid"),
    (IMPURITY_SWEEP + "grid: [1.0, 6.0]}\n", "run.grid"),
    ("run: {mode: sweep, axis: impurity_ratio, grid: [1.5]}\n", "impurity"),
    ("run: {mode: sweep, axis: kick_count, grid: [10, 20.5]}\n", "run.grid"),
    ("run: {mode: sweep, axis: e1, grid: [1.0], tau_grid: [2.0, 1.0]}\n", "run.tau_grid"),
], ids=["negative-tau", "negative-kick-count", "strength-below-one", "strength-five",
        "strength-six", "type2-strength-five", "type1-ratio-nn-below-one",
        "type2-ratio-nn-above-one", "strong-ratio-below-one", "weak-ratio-above-one",
        "negative-weak-ratio", "type2-zero-ratio-nn", "unknown-kind", "site-off-chain",
        "strength-grid-below-one", "strength-grid-above-five", "strength-grid-without-impurity",
        "fractional-kick-count", "decreasing-tau-grid"])
def test_rejected_values_name_their_exact_key(text, key_path):
    # the library checks (KickSchedule, ImpuritySpec, impurity_from_strength,
    # apply_impurity, SweepPlan) decide; the config reports the one key that
    # carried the bad value
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key_path == key_path


@pytest.mark.parametrize("changes,key_path", [
    (dict(drive=DriveBlock(tau=-1.0)), "drive.tau"),
    (dict(impurity=ImpuritySpec("type1", 12, 1.5, 1.5, 0.8)), "impurity.site"),
    (dict(run=RunBlock(mode="sweep", axis="e1", grid=(1.0, 0.5))), "run.grid"),
    (dict(run=RunBlock(states=("omega0", "omega0"))), "run.states[1]"),
    (dict(run=RunBlock(states=())), "run.states"),
    (dict(run=RunBlock(m_max=0)), "run.m_max"),
    (dict(run=RunBlock(workers=0)), "run.workers"),
    (dict(run=RunBlock(mode="scan")), "run.mode"),
    (dict(run=RunBlock(axis="temperature")), "run.axis"),
    (dict(drive=DriveBlock(u0_convention="eq5")), "drive.u0_convention"),
    (dict(drive=DriveBlock(omega2_convention="modulus")), "drive.omega2_convention"),
    (dict(output=OutputBlock(format="xml")), "output.format"),
    (dict(output=OutputBlock(path="res/")), "output.path"),
], ids=["negative-tau", "site-off-chain", "decreasing-grid", "repeated-state", "no-states",
        "m_max-zero", "workers-zero", "unknown-mode", "unknown-axis-in-evolve",
        "unknown-u0-convention", "unknown-omega2-convention", "unknown-format",
        "path-without-file-name"])
def test_run_reports_a_hand_built_config_on_the_key_parse_config_names(tmp_path, changes,
                                                                       key_path):
    # run judges a config through the same checks as parse_config, before opening a file;
    # output.path is taken under tmp_path, its trailing "/" kept
    config = replace(ExperimentConfig(), **changes)
    config = replace(config, output=replace(config.output,
                                            path=os.path.join(tmp_path, config.output.path)))
    with pytest.raises(ConfigError) as err:
        run(config)
    assert err.value.key_path == key_path
    assert list(tmp_path.iterdir()) == []


# One wrong-typed value for each field annotation, with "| None" dropped; a float
# field also takes NaN, inf and an integer too large for a float.
WRONG_VALUES = {"int": [6.0], "float": ["one", float("nan"), float("inf"), 10 ** 400], "str": [3],
                "bool": ["yes"], "tuple[float, ...]": ["one"], "tuple[str, ...]": ["omega0"]}


@pytest.mark.parametrize("block,name,value", [
    pytest.param(block, f.name, value, id=f"{block}.{f.name}={value!r}")
    for block, cls in (("chain", ChainBlock), ("drive", DriveBlock), ("run", RunBlock),
                       ("output", OutputBlock))
    for f in fields(cls)
    for value in WRONG_VALUES[f.type.removesuffix(" | None")]])
def test_parse_config_and_run_reject_a_value_on_the_same_key(tmp_path, monkeypatch, block,
                                                             name, value):
    # the value goes in once as YAML and once into a hand-built config; run runs in
    # tmp_path, so a file it wrote, even under output.path 3, would be seen
    with pytest.raises(ConfigError) as parsed_err:
        parse_config(yaml.safe_dump({block: {name: value}}))
    config = ExperimentConfig()
    config = replace(config, **{block: replace(getattr(config, block), **{name: value})})
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError) as run_err:
        run(config)
    assert parsed_err.value.key_path == run_err.value.key_path == f"{block}.{name}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["evolve", "sweep"])
def test_numpy_scalars_in_a_hand_built_config_write_the_plain_bytes(tmp_path, mode):
    # run reads a NumPy integer or float as the number it holds
    def config(num_int, num_float, path):
        return ExperimentConfig(
            chain=ChainBlock(n_sites=num_int(6), j1=num_float(1.5), b_field=num_float(0.25)),
            drive=DriveBlock(e0=num_float(0.5), tau=num_float(0.75), n_kicks=num_int(12)),
            run=RunBlock(mode=mode, states=("omega0", "omega2"), axis="e1",
                         grid=(num_float(0.0), num_float(0.5)), tau_grid=(num_float(0.5), 1.0),
                         m_max=num_int(4), workers=num_int(1)),
            output=OutputBlock(path=str(tmp_path / path)))
    plain = run(config(int, float, "plain"))
    numpy = run(config(np.int64, np.float64, "numpy"))
    assert [p.read_bytes() for p in numpy] == [p.read_bytes() for p in plain]
    # and serialize_config writes the plain number, not a NumPy object it cannot represent,
    # in a tuple or a list
    want = serialize_config(config(int, float, "c"))
    numpy_config = config(np.int64, np.float64, "c")
    assert serialize_config(numpy_config) == want
    listed = replace(numpy_config, run=replace(numpy_config.run, grid=list(numpy_config.run.grid)))
    assert serialize_config(listed) == want


def test_config_error_is_a_value_error_with_key_path():
    err = ConfigError("run.grid", "boom")
    assert isinstance(err, ValueError)
    assert err.key_path == "run.grid"
    assert str(err) == "run.grid: boom"


@pytest.mark.parametrize("states,n_sites,key_path", [
    ([], 10, "run.states"),
    (["omega9"], 10, "run.states[0]"),
    (["omega1"], 3, "run.states[0]"),
    (["omega0", "omega0"], 10, "run.states[1]"),
    (["omega0", "omega0", "omega9"], 10, "run.states[1]"),
], ids=["empty", "unknown", "bell-on-three-sites", "repeated", "repeat-before-unknown"])
@pytest.mark.parametrize("mode", ["evolve", "sweep"])
def test_a_bad_state_list_gets_one_reason_from_plan_and_config(mode, states, n_sites, key_path):
    # fidelity._state_list_error states the list rules once and judges in list order,
    # so the last list reports its repeat before its unknown name, in both callers
    run_block = {"mode": mode, "states": states}
    if mode == "sweep":
        run_block.update(axis="e1", grid=[1.0])
    with pytest.raises(ConfigError) as config_err:
        parse_config(yaml.safe_dump({"chain": {"n_sites": n_sites}, "run": run_block}))
    with pytest.raises(FieldError) as plan_err:
        SweepPlan(params=ChainParams(uniform_profile(n_sites, 1.0, -1.0), dm_field=0.1),
                  axis="e1", grid=(1.0,), states=tuple(states))
    assert plan_err.value.field == "states"
    assert config_err.value.key_path == key_path
    assert str(config_err.value) == f"{key_path}: {plan_err.value}"


def test_both_periodogram_length_checks_name_the_same_minimum():
    # one constant, read by the config's drive.n_kicks check and by periodogram itself
    assert sweep_module.PERIODOGRAM_MIN_SAMPLES == 4
    with pytest.raises(ConfigError) as config_err:
        parse_config("drive: {n_kicks: 2}\nrun: {mode: periodogram}\n")
    with pytest.raises(ValueError) as series_err:
        periodogram(np.zeros(3))
    assert str(config_err.value) == ("drive.n_kicks: a periodogram needs at least 3 kicks "
                                     "(4 samples), got 2")
    assert str(series_err.value) == "series too short for a periodogram: 3 < 4"
    parse_config("drive: {n_kicks: 3}\nrun: {mode: periodogram}\n")
    periodogram(np.zeros(4))


EXPONENT_HINT = ("; YAML reads a number with an exponent only with a decimal point and a "
                 "signed exponent (1.0e-3, 1.0e+3)")


@pytest.mark.parametrize("text,key_path,value", [
    ("drive: {tau: 1e-3}\n", "drive.tau", "1e-3"),
    ("drive: {tau: 1.0e3}\n", "drive.tau", "1.0e3"),
    ("chain: {j2: 1.0e308}\n", "chain.j2", "1.0e308"),
    ("run: {mode: sweep, axis: e1, grid: [0.5, 2E0]}\n", "run.grid[1]", "2E0"),
    ("run: {tau_grid: {start: 1e-1, stop: 1.0, step: 0.1}}\n", "run.tau_grid.start", "1e-1"),
])
def test_an_exponent_yaml_reads_as_a_string_is_rejected_with_a_hint(text, key_path, value):
    # PyYAML (YAML 1.1) reads a float only with a decimal point and a signed exponent;
    # the message is model._require_finite's, on the key below its block
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key_path == key_path
    name = key_path.split(".", 1)[1]
    assert str(err.value) == (f"{key_path}: {name} must be a real number, got {value!r}"
                              f"{EXPONENT_HINT}")


def test_only_a_string_float_reads_with_an_exponent_gets_the_hint():
    assert parse_config("drive: {tau: 1.0e-3}\n").drive.tau == 1e-3
    assert parse_config("drive: {tau: 1.0e+3}\n").drive.tau == 1e3
    for text, value in (("one", "one"), ("'2.0'", "2.0"), ("e", "e"), ("1e", "1e")):
        with pytest.raises(ConfigError) as err:
            parse_config(f"chain: {{j1: {text}}}\n")
        assert str(err.value) == f"chain.j1: j1 must be a real number, got {value!r}"


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


def test_kick_free_sweep_matches_golden_table(tmp_path):
    # regenerate with: python -m kickedchain sweep --config tests/data/golden_nokick.yaml
    #                  --out tests/data/golden_nokick
    cfg = parse_config((DATA / "golden_nokick.yaml").read_text(encoding="utf-8"))
    cfg = replace(cfg, output=replace(cfg.output, path=str(tmp_path / "nokick")))
    with open(DATA / "golden_nokick.csv", encoding="utf-8", newline="") as f:
        golden = list(csv.DictReader(f))
    with open(run(cfg)[0], encoding="utf-8", newline="") as f:
        got = list(csv.DictReader(f))
    assert len(got) == len(golden) == 9                 # three J2/J1 values by three states
    for row, want in zip(got, golden):
        assert row.keys() == want.keys()
        assert abs(float(row["max_fidelity"]) - float(want["max_fidelity"])) <= 1e-12
        for key in ("grid_value", "state", "argmax_tau", "argmax_kicks", "out_of_range_flag"):
            assert row[key] == want[key]


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


def test_dropped_physical_time_column_keeps_the_column_order(tmp_path):
    cfg = parse_config("chain: {n_sites: 6}\ndrive: {n_kicks: 3}\n"
                       "run: {states: [omega0, omega1, omega2]}\n"
                       f"output: {{path: {tmp_path / 'plain'}, physical_time_column: false}}\n")
    csv_path, json_path = run(cfg)
    names = ["kick_index", "time", "fidelity_omega0", "fidelity_omega1", "fidelity_omega2",
             "classical_threshold"]
    assert csv_path.read_text(encoding="utf-8").splitlines()[0] == ",".join(names)
    records = json.loads(json_path.read_text(encoding="utf-8"))
    assert len(records) == 4 and all(list(record) == names for record in records)


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
    csv_path, json_path = write_tables(cfg, dict(zip(names, columns)))
    want_csv, want_json = reference_rendering(names, rows_of(columns))
    assert csv_path.read_text(encoding="utf-8") == want_csv
    assert json_path.read_text(encoding="utf-8") == want_json
    return want_csv, want_json


@pytest.mark.parametrize("rows", [TYPED_ROWS, TYPED_ROWS[:1], []],
                         ids=["typed", "one_row", "zero_rows"])
def test_write_tables_equals_the_cell_by_cell_rendering(tmp_path, rows):
    cfg = parse_config(f"output: {{path: {tmp_path / 't'}}}")
    table = dict(zip(TYPED_COLUMNS, columns_of(TYPED_DTYPES, rows)))
    csv_path, json_path = write_tables(cfg, table)
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
            write_tables(cfg, {"index": np.arange(n_rows), "late": bad})
        assert not list(tmp_path.iterdir())


def test_write_tables_rejects_columns_of_unequal_length(tmp_path):
    cfg = parse_config(f"output: {{path: {tmp_path / 't'}}}")
    with pytest.raises(ValueError, match="one length"):
        write_tables(cfg, {"a": np.arange(3), "b": np.arange(2)})
    assert not list(tmp_path.iterdir())


def test_write_tables_memory_does_not_grow_with_the_table(tmp_path):
    # both files are written in this process, so one peak covers both writers
    cfg = parse_config(f"output: {{path: {tmp_path / 't'}}}")

    def peak(n_rows):
        column = np.arange(n_rows) % 100       # small ints: no cell objects to allocate
        tracemalloc.start()
        try:
            write_tables(cfg, {"i": column})
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(_BLOCK_ROWS), peak(8 * _BLOCK_ROWS)
    assert long <= 1.5 * short, (short, long)


LONG_LABELS = np.array([f"s{i % 5}" for i in range(2 * _BLOCK_ROWS + 1)])


def test_write_tables_reports_a_failed_json_writer(tmp_path, monkeypatch, capfd):
    csv_spec, json_spec, encode = cli._FORMATS["U"]
    calls = []

    def second_block_fails(cells):
        calls.append(len(cells))
        if len(calls) == 2:
            raise ValueError("no room for block 2")
        return encode(cells)

    monkeypatch.setitem(cli._FORMATS, "U", (csv_spec, json_spec, second_block_fails))
    cfg = parse_config(f"output: {{path: {tmp_path / 't'}}}")
    with pytest.raises(ValueError, match="^no room for block 2$"):
        write_tables(cfg, {"label": LONG_LABELS})
    assert calls == [_BLOCK_ROWS, _BLOCK_ROWS]    # failed on block 2, in this process
    assert not list(tmp_path.iterdir())           # no half-written pair: t.csv and t.json gone

    # the command line reports the writer's own exception as its one JSON error line
    calls.clear()
    capfd.readouterr()
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(f"chain: {{n_sites: 5}}\ndrive: {{n_kicks: {_BLOCK_ROWS}}}\n"
                        "run: {states: [omega0, omega1]}\n", encoding="utf-8")
    code = main(["periodogram", "--config", str(cfg_file), "--out", str(tmp_path / "p")])
    assert code == 1
    out, err = capfd.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert json.loads(line) == {"error": "ValueError", "message": "no room for block 2"}
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.yaml"]    # no p.csv, no p.json


def test_write_tables_writes_a_long_table_without_starting_a_process(tmp_path, monkeypatch):
    def no_process(*args, **kwargs):
        raise AssertionError("write_tables started a process")

    for name in ("fork", "pipe", "posix_spawn"):
        monkeypatch.setattr(os, name, no_process, raising=False)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    assert_written_as_reference(tmp_path, ["index", "label"],
                                [np.arange(len(LONG_LABELS)), LONG_LABELS])


@pytest.mark.parametrize("failing", ["t.csv", "t.json"])
def test_write_tables_removes_both_files_when_a_write_fails(tmp_path, monkeypatch, failing):
    opened = []

    def recorded_open(*args, **kwargs):
        file = open(*args, **kwargs)
        opened.append(file)
        if Path(file.name).name == failing:
            write, calls = file.write, []

            def block_2_fails(text):       # the header or "[", block 1, then block 2
                calls.append(text)
                if len(calls) == 3:
                    raise OSError(f"{failing} disk full")
                return write(text)
            file.write = block_2_fails
        return file

    monkeypatch.setattr(cli, "open", recorded_open, raising=False)
    cfg = parse_config(f"output: {{path: {tmp_path / 't'}}}")
    with pytest.raises(OSError, match=f"^{failing} disk full$"):
        write_tables(cfg, {"label": LONG_LABELS})
    assert [Path(file.name).name for file in opened] == ["t.csv", "t.json"]
    assert all(file.closed for file in opened)
    assert not list(tmp_path.iterdir())


def test_write_tables_removes_only_the_files_it_opened(tmp_path):
    (tmp_path / "t.json").mkdir()            # t.csv opens, then t.json cannot
    (tmp_path / "t.json" / "kept").write_text("kept", encoding="utf-8")
    cfg = parse_config(f"output: {{path: {tmp_path / 't'}}}")
    with pytest.raises(IsADirectoryError):
        write_tables(cfg, {"label": LONG_LABELS})
    assert [path.name for path in tmp_path.iterdir()] == ["t.json"]
    assert (tmp_path / "t.json" / "kept").read_text(encoding="utf-8") == "kept"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
@pytest.mark.parametrize("full", ["csv", "json"])
def test_command_line_leaves_no_output_when_a_file_is_full(tmp_path, capfd, full):
    # the link is removed, not the device it points to
    (tmp_path / f"t.{full}").symlink_to("/dev/full")
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(f"drive: {{n_kicks: {2 * _BLOCK_ROWS}}}\n", encoding="utf-8")
    capfd.readouterr()
    assert main(["evolve", "--config", str(cfg_file), "--out", str(tmp_path / "t")]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert json.loads(line)["error"] == "OSError"
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.yaml"]
    assert Path("/dev/full").is_char_device()


def test_command_line_prints_each_path_of_a_long_table_once(tmp_path):
    # stdout is a pipe, so block-buffered: every line must reach it exactly once
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(f"drive: {{n_kicks: {2 * _BLOCK_ROWS}}}\n", encoding="utf-8")
    proc = _run_python(["-m", "kickedchain", "evolve", "--config", str(cfg_file),
                        "--out", str(tmp_path / "long")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"wrote {tmp_path / 'long.csv'}\nwrote {tmp_path / 'long.json'}\n"
    assert proc.stderr == ""
    records = json.loads((tmp_path / "long.json").read_text(encoding="utf-8"))
    assert len(records) == 2 * _BLOCK_ROWS + 1
    assert (tmp_path / "long.csv").read_text(encoding="utf-8").count("\n") == 2 * _BLOCK_ROWS + 2


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
    written = []
    for workers in (1, 3):
        cfg = parse_config(SWEEP_TEXT + f"  workers: {workers}\n")
        assert cfg.run.workers == workers
        out = replace(cfg.output, path=str(tmp_path / f"w{workers}"))
        written.append([path.read_bytes() for path in run(replace(cfg, output=out))])
    assert written[0] == written[1]


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


def test_evolve_and_periodogram_run_on_the_impurity_chain(tmp_path):
    text = ("chain: {n_sites: 6}\ndrive: {tau: 1.0, n_kicks: 40}\n"
            "impurity: {kind: type1, strength: 2.0}\nrun: {states: [omega0, omega1, omega2]}\n")
    cfg = parse_config(text)
    assert cfg.impurity.site == 4                      # the default, mid-chain
    evolve = replace(cfg, output=replace(cfg.output, path=str(tmp_path / "series")))
    spectrum = replace(evolve, run=replace(cfg.run, mode="periodogram"),
                       output=replace(cfg.output, path=str(tmp_path / "spec")))
    with open(run(evolve)[0], encoding="utf-8") as f:
        series = list(csv.DictReader(f))
    with open(run(spectrum)[0], encoding="utf-8") as f:
        dominant_rows = [r for r in csv.DictReader(f) if r["is_dominant"] == "1"]
    pure = ChainParams(uniform_profile(6, 1.0, -1.0), dm_field=0.1)
    doped = replace(pure, profile=apply_impurity(pure.profile,
                                                 impurity_from_strength("type1", 4, 2.0)))
    schedule = KickSchedule(tau=1.0, e1=1.0, n_kicks=40)
    for state in cfg.run.states:
        got = np.array([float(r[f"fidelity_{state}"]) for r in series])
        assert np.array_equal(got, fidelity_series(doped, schedule, state))
        assert np.abs(got - fidelity_series(pure, schedule, state)).max() > 1e-3
        dominant = [float(r["frequency"]) for r in dominant_rows if r["state"] == state]
        assert dominant == [periodogram(got)[2]]
    assert round(float(series[1]["fidelity_omega0"]), 5) == 0.51253
    assert round(float(fidelity_series(pure, schedule, "omega0")[1]), 5) == 0.52077


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


@pytest.mark.parametrize("command", cli.MODES)
def test_main_writes_each_mode_command_into_run_mode(tmp_path, monkeypatch, command):
    # the file says another mode; the command's mode is what run is handed
    other = next(mode for mode in cli.MODES if mode != command)
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(f"run: {{mode: {other}, axis: e1, grid: [1.0]}}\n", encoding="utf-8")
    handed = []
    monkeypatch.setattr(cli, "run", lambda config: handed.append(config) or [])
    assert main([command, "--config", str(cfg_file)]) == 0
    assert [config.run.mode for config in handed] == [command]


@pytest.mark.parametrize("mode", cli.MODES)
def test_main_validate_keeps_the_files_own_mode(tmp_path, capsys, mode):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(f"run: {{mode: {mode}, axis: e1, grid: [1.0]}}\n", encoding="utf-8")
    assert main(["validate", "--config", str(cfg_file)]) == 0
    assert parse_config(capsys.readouterr().out).run.mode == mode


def test_main_takes_the_flags_before_the_command(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(SWEEP_TEXT, encoding="utf-8")
    assert main(["validate", "--config", str(cfg_file), "--workers", "2"]) == 0
    after = capsys.readouterr().out
    assert main(["--config", str(cfg_file), "--workers", "2", "validate"]) == 0
    assert capsys.readouterr().out == after
    assert "workers: 2" in after


def test_main_rejects_an_unknown_command_before_reading_any_file(tmp_path, capsys):
    # a missing config read would be a one-line OSError record and status 1
    with pytest.raises(SystemExit) as exit_info:
        main(["scan", "--config", str(tmp_path / "missing.yaml")])
    assert exit_info.value.code == 2
    assert "invalid choice: 'scan'" in capsys.readouterr().err


def test_main_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    usage = capsys.readouterr().out
    assert all(command in usage for command in (*cli.MODES, "validate"))


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


def test_main_rejects_an_out_flag_naming_a_directory(tmp_path, capsys):
    # Path("res/") is Path("res"): the run would write res.csv beside the directory
    (tmp_path / "res").mkdir()
    code = main(["evolve", "--out", f"{tmp_path / 'res'}/"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["key_path"] == "output.path"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["res"]


@pytest.mark.parametrize("command", ["validate", "evolve", "sweep", "periodogram"])
def test_each_command_judges_its_config_once(tmp_path, monkeypatch, command):
    # one judgement per command; a sweep's plan builds each grid point, and the sweep again
    judged, points = [], []

    def counted(target, calls):
        def wrapper(*args):
            calls.append(args)
            return target(*args)
        return wrapper

    monkeypatch.setattr(cli, "_experiment", counted(cli._experiment, judged))
    monkeypatch.setattr(sweep_module, "_point_setup", counted(sweep_module._point_setup, points))
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text("chain: {n_sites: 5}\ndrive: {n_kicks: 7}\n"
                        "run: {axis: tau, grid: [1.0, 2.0], m_max: 5}\n", encoding="utf-8")
    assert main([command, "--config", str(cfg_file), "--out", str(tmp_path / "t")]) == 0
    assert len(judged) == 1
    assert len(points) == (4 if command == "sweep" else 0)


def test_main_validate_prints_normalized_config(capsys):
    code = main(["validate"])
    assert code == 0
    text = capsys.readouterr().out
    assert parse_config(text) == parse_config("")
    assert text.startswith("chain:")


def _run_python(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    # the subprocess runs in tmp_path, so a relative PYTHONPATH would not find the package
    src = str(Path(kickedchain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=env)


def test_module_entry_point_wiring(tmp_path):
    proc = _run_python(["-m", "kickedchain", "validate"], tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.startswith("chain:")


def test_console_script_runs_the_module_entry():
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^\[project\.scripts\]\nkickedchain = "([\w.]+):(\w+)"$', text, re.M)
    assert getattr(importlib.import_module(target[1]), target[2]) is kickedchain.__main__.entry


def test_console_script_prints_what_the_module_prints(tmp_path):
    # the installed script's wrapper: `from <module> import <name>; sys.exit(<name>())`
    wrapper = "import sys; from kickedchain.__main__ import entry; sys.exit(entry())"
    recipe = CONFIGS / "ci_sweep_coarse.yaml"
    argv = ["validate", "--config", str(recipe)]
    script = _run_python(["-c", wrapper, *argv], tmp_path)
    module = _run_python(["-m", "kickedchain", *argv], tmp_path)
    assert (script.returncode, script.stderr) == (0, "")
    assert script.stdout == module.stdout
    assert parse_config(script.stdout) == parse_config(recipe.read_text(encoding="utf-8"))


def test_module_entry_failure_is_one_json_record_on_stderr(tmp_path):
    proc = _run_python(["-m", "kickedchain", "evolve", "--workers", "0",
                        "--out", str(tmp_path / "x")], tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["key_path"] == "run.workers"
    assert not (tmp_path / "x.csv").exists()


def test_subprocess_sweep_writes_the_in_process_bytes(tmp_path):
    recipe = CONFIGS / "ci_sweep_coarse.yaml"
    proc = _run_python(["-m", "kickedchain", "sweep", "--config", str(recipe),
                        "--out", str(tmp_path / "sub")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    cfg = parse_config(recipe.read_text(encoding="utf-8"))
    run(replace(cfg, output=replace(cfg.output, path=str(tmp_path / "own"))))
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"sub{suffix}").read_bytes() == (tmp_path / f"own{suffix}").read_bytes()


def test_entry_freezes_the_collector_only_after_main_returns(tmp_path):
    probe = ("import gc, kickedchain.__main__ as m\n"
             "seen = []\n"
             "m.main = lambda: seen.append(gc.get_freeze_count()) or 7\n"
             "code = m.entry()\n"
             "print(code, seen, gc.get_freeze_count() > 0)\n")
    proc = _run_python(["-c", probe], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "7 [0] True\n"


def test_library_main_never_freezes_the_collector(capsys):
    before = gc.get_freeze_count()
    assert main(["validate"]) == 0
    assert gc.get_freeze_count() == before
    assert capsys.readouterr().out.startswith("chain:")
