"""Seeded input builders for the three perfbench workloads.

Each builder writes every file a workload's job reads into one directory
and returns a small summary (paths, row counts, sizes) that the harness
and the output checks use.  The same seed always gives the same bytes.

Run as a script it builds one workload's inputs, which is how the
harness times set-up in a fresh interpreter, and prints the spans of the
build as JSON:

    PYTHONPATH=src python3 perfbench/inputs.py canonical_report \
        --seed 1 --out DIR --size full
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import shutil
import sys
from pathlib import Path

from spans import Recorder

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

# Workload sizes.  "full" is what a measured run uses; "smoke" keeps the
# smoke test to a few seconds.
SIZES = {
    "full": {"n_crashes": 20000, "replicas": 1500, "mc_trials": 1000},
    "smoke": {"n_crashes": 400, "replicas": 20, "mc_trials": 1000},
}

# Raw national fixtures: spec name, files, and the crash-id column the
# replicator rewrites in every file of that source.
RAW_SOURCES = (
    ("crss", "CASENUM", ("crss_crashes.csv", "crss_vehicles.csv", "crss_persons.csv")),
    ("fars_national", "ST_CASE",
     ("fars_crashes.csv", "fars_vehicles.csv", "fars_persons.csv")),
)
RAW_MILEAGE = ("vm2_2022.csv", "vm4_2022.csv")
SUFFIX_SEP = "~"

_MASK = (1 << 64) - 1


def mix64(z: int) -> int:
    """splitmix64 finalizer: a bijection on 64-bit words."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, stream: int) -> int:
    """Seed for one named use of the benchmark seed (population, MC, ...)."""
    return mix64((seed << 8) ^ stream)


def replica_suffix(seed: int, k: int) -> str:
    """Seed-derived suffix of replica k; distinct for distinct k."""
    return f"{SUFFIX_SEP}{mix64(mix64(seed) ^ k):016x}"


def strip_suffix(crash_id: str) -> str:
    return crash_id.split(SUFFIX_SEP, 1)[0]


def build_canonical_report(out: Path, seed: int, size: str, rec) -> dict:
    """Synthetic county population as canonical CSVs, plus mileage and manifest."""
    from crashbench.interchange import write_crashes, write_mileage, write_vehicles
    from crashbench.model import AreaType, FunctionalClass, MileageCell
    from crashbench.synth import SplitMix64, generate

    spec = population_spec(seed, size)
    crashes, vehicles, _ = rec.call("synth.generate", generate, spec)
    rec.call("interchange.write_crashes", write_crashes, out / "crashes.csv", crashes)
    rec.call("interchange.write_vehicles", write_vehicles, out / "vehicles.csv", vehicles)

    rng = SplitMix64(derive_seed(seed, 2))
    cells = [
        MileageCell(region=spec.region, year=spec.year, functional_class=fc,
                    area_type=area, vmt_millions=100.0 + 900.0 * rng.random())
        for fc in FunctionalClass if fc is not FunctionalClass.AGGREGATE
        for area in (AreaType.URBAN, AreaType.RURAL)
    ]
    rec.call("interchange.write_mileage", write_mileage, out / "mileage.csv", cells)
    region = spec.region
    manifest = {
        "region": {"kind": region.kind, "name": region.name, "state": region.state},
        "year": spec.year,
        "road_rule": "county_functional",
        "crash_sources": [{"spec": "canonical", "crash_file": "crashes.csv",
                           "vehicle_file": "vehicles.csv"}],
        "mileage": [{"spec": "canonical", "file": "mileage.csv"}],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return {"manifest": "manifest.json",
            "rows": {"crashes": len(crashes), "vehicles": len(vehicles), "persons": 0}}


def population_spec(seed: int, size: str):
    """The fixture mixture at the workload's size, seeded from the benchmark seed."""
    from crashbench.synth import PopulationSpec

    base = PopulationSpec.from_config(str(FIXTURES / "synth" / "mixed_population.ini"))
    return dataclasses.replace(base, n_crashes=SIZES[size]["n_crashes"],
                               seed=derive_seed(seed, 1))


def _replicate(src: Path, dst: Path, id_column: str, seed: int, replicas: int) -> int:
    """Write ``replicas`` copies of a raw CSV with suffixed crash ids."""
    with open(src, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    col = header.index(id_column)
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for k in range(replicas):
            suffix = replica_suffix(seed, k)
            for row in rows:
                copy = list(row)
                copy[col] += suffix
                writer.writerow(copy)
    return len(rows) * replicas


def build_raw_ingest(out: Path, seed: int, size: str, rec) -> dict:
    """The national CRSS+FARS fixtures replicated, with VM-2/VM-4 copied as is."""
    replicas = SIZES[size]["replicas"]
    manifest = json.loads(
        (FIXTURES / "manifests" / "national_2022.json").read_text(encoding="utf-8"))
    rows = {"crashes": 0, "vehicles": 0, "persons": 0}
    for source, (spec_name, id_column, files) in zip(manifest["crash_sources"],
                                                      RAW_SOURCES):
        if source["spec"] != spec_name:
            raise ValueError(f"national manifest lists {source['spec']}, expected {spec_name}")
        for table, name in zip(("crashes", "vehicles", "persons"), files):
            rows[table] += _replicate(FIXTURES / "raw" / name, out / name,
                                      id_column, seed, replicas)
        source["crash_file"], source["vehicle_file"], source["person_file"] = files
    for name in RAW_MILEAGE:
        shutil.copyfile(FIXTURES / "mileage" / name, out / name)
    manifest["mileage"][0]["file"] = RAW_MILEAGE[0]
    manifest["shares"][0]["file"] = RAW_MILEAGE[1]
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return {"manifest": "manifest.json", "rows": rows, "replicas": replicas}


def build_published_power(out: Path, seed: int, size: str, rec) -> dict:
    """The Monte Carlo plan; the aggregate table ships with the package."""
    plan = {"seed": derive_seed(seed, 3), "n_trials": SIZES[size]["mc_trials"]}
    (out / "mc_plan.json").write_text(json.dumps(plan) + "\n")
    return {"mc_plan": "mc_plan.json",
            "rows": {"crashes": 0, "vehicles": 0, "persons": 0}}


BUILDERS = {
    "canonical_report": build_canonical_report,
    "raw_ingest": build_raw_ingest,
    "published_power": build_published_power,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    rec = Recorder()
    summary = BUILDERS[args.workload](args.out, args.seed, args.size, rec)
    (args.out / "inputs.json").write_text(json.dumps(summary, sort_keys=True) + "\n")
    print(json.dumps({"spans": rec.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
