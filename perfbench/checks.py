"""Output checks for the perfbench workloads.

Each check returns a list of (name, ok, detail) triples; the harness
counts every triple as one attempted operation and every false one as a
failed operation.  The checks use the repository's own references: the
synth brute-force oracle, the ingest goldens and the closed-form power
formulas.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

from inputs import FIXTURES, population_spec, strip_suffix

Check = tuple[str, bool, str]

CANONICAL_TABLES = ("crashes.csv", "vehicles.csv", "persons.csv", "mileage.csv")
REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def canonical_report(out: Path, seed: int, size: str) -> list[Check]:
    """benchmark.json counts against synth.brute_force_tally on the surface subset.

    The population has integer weights, so crash counts and the
    imputation weight must agree exactly; vehicle counts carry the real
    imputation weight and must agree to 1e-9 relative.
    """
    from crashbench.model import SeverityLevel
    from crashbench.synth import brute_force_tally, generate

    crashes, vehicles, _ = generate(population_spec(seed, size))
    report = json.loads((out / "benchmark.json").read_text())["reports"][0]
    w = brute_force_tally(crashes, vehicles, "imputation_weight", road="surface")
    checks: list[Check] = [
        ("imputation_w", report["imputation_w"] == w, f"{report['imputation_w']!r} vs {w!r}"),
    ]
    for level in SeverityLevel:
        if level is SeverityLevel.ANY_PROPERTY_DAMAGE_OR_INJURY:
            continue
        name = level.value
        crash = brute_force_tally(crashes, vehicles, "crash_count", severity=level,
                                  road="surface")
        vehicle = brute_force_tally(crashes, vehicles, "vehicle_count", severity=level,
                                    road="surface", w=w)
        got_crash = report["crash_counts"][name]
        got_vehicle = report["vehicle_counts"][name]
        checks.append((f"crash_counts.{name}", got_crash == crash,
                       f"{got_crash!r} vs oracle {crash!r}"))
        checks.append((f"vehicle_counts.{name}", _close(got_vehicle, vehicle),
                       f"{got_vehicle!r} vs oracle {vehicle!r}"))
    return checks


def raw_golden(out: Path) -> list[Check]:
    """The 1x national ingest is byte-identical to the golden files."""
    golden = FIXTURES / "golden" / "national_2022"
    return [
        (f"golden.{name}", (out / name).read_bytes() == (golden / name).read_bytes(), "")
        for name in CANONICAL_TABLES
    ]


def _rows(path: Path) -> tuple[list[str], Counter]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, Counter(tuple(row) for row in reader)


def raw_replicated(out: Path, out_1x: Path, replicas: int) -> list[Check]:
    """With replica suffixes removed, each row occurs ``replicas`` times as
    often as in the golden; audit counts scale the same way.

    Mileage files are copied unchanged, so the mileage table and the
    mileage share of the diagnostics stay as in the 1x run.
    """
    golden = FIXTURES / "golden" / "national_2022"
    checks: list[Check] = []
    for name in CANONICAL_TABLES:
        g_header, g_rows = _rows(golden / name)
        header, rows = _rows(out / name)
        if name != "mileage.csv":
            stripped: Counter = Counter()
            for row, n in rows.items():
                stripped[(strip_suffix(row[0]),) + row[1:]] += n
            rows = stripped
            g_rows = Counter({r: n * replicas for r, n in g_rows.items()})
        checks.append((f"replicated.{name}", header == g_header and rows == g_rows,
                       f"{sum(rows.values())} rows vs {sum(g_rows.values())} expected"))

    audit, audit_1x = (json.loads((d / "audit.json").read_text()) for d in (out, out_1x))
    scaled_ok = True
    for src, src_1x in zip(audit["sources"], audit_1x["sources"]):
        for part in ("rows_in", "records", "diagnostics"):
            expected = {k: v * replicas for k, v in src_1x[part].items()}
            scaled_ok = scaled_ok and src[part] == expected
    checks.append(("audit.sources", scaled_ok, "per-source rows_in/records/diagnostics"))

    records_ok = all(audit["records"][k] == audit_1x["records"][k] * replicas
                     for k in ("crashes", "vehicles", "persons"))
    records_ok = records_ok and audit["records"]["mileage_cells"] == \
        audit_1x["records"]["mileage_cells"]
    checks.append(("audit.records", records_ok, json.dumps(audit["records"])))

    source_diag_1x = Counter()
    for src in audit_1x["sources"]:
        source_diag_1x.update(src["diagnostics"])
    role_1x = audit_1x["diagnostics"].get("role_excluded", 0)
    expected = {}
    for key, value in audit_1x["diagnostics"].items():
        scaled = source_diag_1x.get(key, 0) + (role_1x if key == "role_excluded" else 0)
        expected[key] = value + scaled * (replicas - 1)
    checks.append(("audit.diagnostics", audit["diagnostics"] == expected,
                   f"{audit['diagnostics']} vs {expected}"))
    return checks


def power_table(out: Path, relative_rates: tuple[float, ...],
                mc_cells: list | None) -> list[Check]:
    """Every power.csv cell equals required_vmt recomputed, achieved_power
    at that cell gives back the target power, and the Monte Carlo step
    simulated exactly those cells.  Its powers are reported, not gated."""
    from crashbench.cli import POWER_ROWS
    from crashbench.power import PowerQuery, achieved_power, required_vmt
    from mc import read_power_csv

    cells = read_power_csv(out / "power.csv")
    checks: list[Check] = [
        ("power.cells", len(cells) == len(POWER_ROWS) * len(relative_rates),
         f"{len(cells)} cells"),
        ("mc.cells", [list(c) for c in cells] == [c[:4] for c in mc_cells or []],
         "one simulated power per power-table cell"),
    ]
    columns_ok = sorted({r for _, _, r, _ in cells}) == sorted(relative_rates)
    checks.append(("power.columns", columns_ok, "default relative rates"))
    vmt_ok = power_ok = True
    for label, rate, r, vmt in cells:
        vmt_ok = vmt_ok and vmt == required_vmt(PowerQuery(rate, r))
        power_ok = power_ok and abs(achieved_power(rate, r, vmt) - 0.80) <= 1e-9
    checks.append(("power.required_vmt", vmt_ok, "cells recomputed"))
    checks.append(("power.achieved_power", power_ok, "target within 1e-9"))
    return checks
