"""In-process replay of one workload's job, in the CLI's call order.

The replay calls the same public functions the ``crashbench`` command
calls for the workload and, in ``spans`` mode, records a span around
every call, including the calls those functions make into other
modules (the module attributes are wrapped in this process only).  What
the replay leaves out is what the CLI does around those calls: argument
parsing, provenance hashing and writing the report files.

Modes:
  null    no spans, nothing wrapped: the untraced baseline
  spans   spans around every call into a layer
  memory  tracemalloc peaks of load_dataset and build_benchmark

    PYTHONPATH=src python3 perfbench/replay.py WORKLOAD INPUT_DIR OUT_DIR MODE

Prints one JSON object: the replay's wall time, its record counts, and
the spans or memory peaks of the mode.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from pathlib import Path

from mc import simulate_cells
from spans import NullRecorder, Recorder

DEFAULT_RELATIVE_RATES = (0.01, 0.10, 0.25, 0.50, 0.75, 1.25, 1.50)
MEMORY_CALLS = ("ingest.load_dataset", "rates.build_benchmark")


class MemoryRecorder(NullRecorder):
    """Peak traced memory (MiB) during each named top-level call."""

    def __init__(self) -> None:
        super().__init__()
        self.peaks_mb: dict[str, float] = {}

    def call(self, name: str, fn, *args, **kwargs):
        if name not in MEMORY_CALLS:
            return fn(*args, **kwargs)
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / (1 << 20)
            self.peaks_mb[name] = max(self.peaks_mb.get(name, 0.0), peak)


def instrument(rec) -> None:
    """Wrap the inner layer calls that the public entry points make."""
    from crashbench import filters, ingest, interchange, rates

    spec_names: dict[int, str] = {}
    load_schema = ingest.load_schema

    def named_load_schema(name, *args, **kwargs):
        spec = load_schema(name, *args, **kwargs)
        spec_names[id(spec)] = str(name)
        return spec

    ingest.load_schema = named_load_schema
    rec.wrap(ingest, "load_schema", "schema.load_schema")
    rec.wrap(ingest, "load_crash_source", "ingest.load_crash_source",
             before=lambda a, k: {"key": spec_names.get(id(a[0] if a else k.get("spec")))},
             after=lambda result: {"rows": sum(result.rows_in.values())})
    for name in ("combine_sources", "load_mileage", "load_passenger_share"):
        rec.wrap(ingest, name, f"ingest.{name}")
    for name in ("read_crashes", "read_vehicles", "read_persons", "read_mileage"):
        rec.wrap(interchange, name, f"interchange.{name}")
    rec.wrap(filters, "select_subset", "filters.select_subset",
             before=lambda a, k: {"key": k.get("road", "surface")})
    for name in ("resolve_imputation", "tally_vehicle_counts", "tally_crash_counts",
                 "count_crashed_vehicles", "merge_mileage", "garwood_interval"):
        rec.wrap(rates, name, f"rates.{name}")


def _dataset_counts(dataset) -> dict:
    records = dataset.records
    return {
        "ingest.rows_in": sum(sum(a["rows_in"].values()) for a in dataset.source_audits),
        "ingest.records_out": (len(records.crashes) + len(records.vehicles)
                               + len(records.persons)),
        "ingest.diagnostics_total": sum(records.diagnostics.values()),
    }


def _power_rates(report) -> list[tuple[str, float]]:
    from crashbench.cli import POWER_ROWS

    found = []
    for severity, scheme in POWER_ROWS:
        for rate in report.rows:
            if rate.severity is severity and rate.adjustment == scheme:
                found.append((f"{severity.value}:{scheme}", rate.rate_ipmm))
                break
    return found


def _power_table(rec, reports, counts: dict):
    from crashbench.power import power_table

    chosen = next((r for r in reports if r.region.kind == "national"), reports[0])
    table = rec.call("power.power_table", power_table, _power_rates(chosen),
                     list(DEFAULT_RELATIVE_RATES))
    counts["power.cells"] = sum(1 for _, _, cells in table.rows
                                for c in cells if c.vmt_millions is not None)
    return table


def replay_canonical_report(rec, inputs: Path, out: Path) -> dict:
    from crashbench import ingest, interchange, rates

    counts: dict = {}
    manifests = rec.call("interchange.load_manifest", interchange.load_manifest,
                         inputs / "manifest.json")
    reports = []
    for ds in manifests:
        dataset = rec.call("ingest.load_dataset", ingest.load_dataset, ds)
        counts.update(_dataset_counts(dataset))
        report = rec.call("rates.build_benchmark", rates.build_benchmark, dataset,
                          rates.DEFAULT_ROWS)
        surface = report.audit["surface"]
        counts["filters.crashes_retained"] = surface["crashes_retained"]
        counts["filters.vehicles_retained"] = surface["vehicles_retained"]
        counts["filters.units_excluded"] = sum(
            n for k, n in surface["exclusions"].items() if k.startswith("unit_"))
        reports.append(report)
    _power_table(rec, reports, counts)
    return counts


def replay_raw_ingest(rec, inputs: Path, out: Path) -> dict:
    from crashbench import ingest, interchange

    counts: dict = {}
    manifests = rec.call("interchange.load_manifest", interchange.load_manifest,
                         inputs / "manifest.json")
    for ds in manifests:
        dataset = rec.call("ingest.load_dataset", ingest.load_dataset, ds)
        counts.update(_dataset_counts(dataset))
        records = dataset.records
        rec.call("interchange.write_crashes", interchange.write_crashes,
                 out / "crashes.csv", records.crashes)
        rec.call("interchange.write_vehicles", interchange.write_vehicles,
                 out / "vehicles.csv", records.vehicles)
        rec.call("interchange.write_persons", interchange.write_persons,
                 out / "persons.csv", records.persons)
        rec.call("interchange.write_mileage", interchange.write_mileage,
                 out / "mileage.csv", dataset.mileage)
    return counts


def replay_published_power(rec, inputs: Path, out: Path) -> dict:
    from crashbench import rates

    counts: dict = {}
    aggregates = rec.call("rates.load_aggregates", rates.load_aggregates, "2022")
    reports = [rec.call("rates.benchmark_from_aggregates", rates.benchmark_from_aggregates,
                        agg, rates.DEFAULT_ROWS) for agg in aggregates]
    table = _power_table(rec, reports, counts)
    plan = json.loads((inputs / "mc_plan.json").read_text(encoding="utf-8"))
    cells = [(label, lam, c.relative_rate, c.vmt_millions)
             for label, lam, row in table.rows for c in row if c.vmt_millions is not None]
    simulate_cells(cells, plan["seed"], plan["n_trials"], rec.call)
    counts["synth.trials"] = plan["n_trials"] * len(cells)
    return counts


REPLAYS = {
    "canonical_report": replay_canonical_report,
    "raw_ingest": replay_raw_ingest,
    "published_power": replay_published_power,
}


def main(argv: list[str]) -> int:
    workload, inputs, out, mode = argv[0], Path(argv[1]), Path(argv[2]), argv[3]
    out.mkdir(parents=True, exist_ok=True)
    rec = {"null": NullRecorder, "spans": Recorder, "memory": MemoryRecorder}[mode]()
    import crashbench.cli  # noqa: F401  the CLI's imports, outside the replay
    if mode == "spans":
        instrument(rec)
    if mode == "memory":
        tracemalloc.start()
    started = time.perf_counter()
    with rec.span("replay"):
        counts = REPLAYS[workload](rec, inputs, out)
    replay_s = time.perf_counter() - started
    print(json.dumps({
        "mode": mode,
        "replay_s": replay_s,
        "counts": counts,
        "spans": rec.spans,
        "peaks_mb": getattr(rec, "peaks_mb", {}),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
