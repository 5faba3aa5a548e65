"""Monte Carlo step of the published_power job.

Reads the power table the CLI wrote and runs ``synth.simulate_power`` at
every cell.  Cell i uses seed ``plan seed + i``, so a rerun with the same
plan must give the same powers exactly.  Prints one JSON object: the
cells with their simulated power and the trial count.

    PYTHONPATH=src python3 perfbench/mc.py POWER_CSV MC_PLAN_JSON
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path


def read_power_csv(path: Path) -> list[tuple[str, float, float, float]]:
    """(label, benchmark rate, relative rate, required VMT) per filled cell."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")]
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    relative = [float(col.rstrip("%")) / 100.0 for col in header[2:]]
    cells = []
    for row in body:
        label, rate = row[0], float(row[1])
        for r, text in zip(relative, row[2:]):
            if text:
                cells.append((label, rate, r, float(text)))
    return cells


def simulate_cells(cells, seed: int, n_trials: int, call) -> list[float]:
    """simulate_power at each cell; ``call(name, fn, *args)`` may record a span."""
    from crashbench.synth import simulate_power

    return [
        call("synth.simulate_power", simulate_power, rate, r, vmt, 0.05,
             n_trials, seed + i)
        for i, (_, rate, r, vmt) in enumerate(cells)
    ]


def main(argv: list[str]) -> int:
    power_csv, plan_path = Path(argv[0]), Path(argv[1])
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    cells = read_power_csv(power_csv)
    powers = simulate_cells(cells, plan["seed"], plan["n_trials"],
                            lambda name, fn, *args: fn(*args))
    print(json.dumps({
        "cells": [[label, rate, r, vmt, p]
                  for (label, rate, r, vmt), p in zip(cells, powers)],
        "trials": plan["n_trials"] * len(cells),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
