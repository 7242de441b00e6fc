"""Regenerate the reference rows in bench/reference with the CLI of this checkout.

Runs every grid point and evolve interval that any seed can pick (the full
``fig8a_r17`` sweep alone takes about 40 s on a 2-core machine):

    python3 bench/make_reference.py

Only rerun this when the reference itself must change; the benchmark's
row check is only meaningful against values made by a trusted commit.
"""

from __future__ import annotations

import csv
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from run import TMP_ROOT, run_child
from workloads import (EVOLVE_TAUS, REFERENCE, WORKLOADS, config_yaml, full_recipe,
                       reference_path)


def _cli_csv(mode: str, config: dict, tmp: Path) -> str:
    cfg = tmp / "config.yaml"
    cfg.write_text(config_yaml(config, str(tmp / "out")), encoding="utf-8")
    result = run_child([mode, "--config", str(cfg), "--workers", "1"], tmp)
    if result.exit_code != 0:
        raise SystemExit(f"CLI failed ({result.exit_code}): {result.stderr}")
    return (tmp / "out.csv").read_text(encoding="utf-8")


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    TMP_ROOT.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        recipe = full_recipe(name)
        with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp_name:
            tmp = Path(tmp_name)
            if workload.mode == "sweep":
                text = _cli_csv("sweep", recipe, tmp)
                reference_path(name).write_text(text, encoding="utf-8")
            else:
                series = {}
                states = recipe["run"]["states"]
                for tau in EVOLVE_TAUS:
                    recipe["drive"]["tau"] = tau
                    rows = csv.DictReader(io.StringIO(_cli_csv("evolve", recipe, tmp)))
                    series[f"tau_{tau}"] = np.array(
                        [[float(r[f"fidelity_{s}"]) for s in states] for r in rows])
                np.savez_compressed(reference_path(name), **series)
        print(f"wrote {reference_path(name)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
