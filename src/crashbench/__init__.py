"""Vehicle-level crash-rate benchmarks from police-reported crash data.

The pipeline: schema-driven ingest of raw crash and mileage files into
canonical records, severity classification and road filtering, NFS
imputation, underreporting adjustment, rate assembly against
passenger-vehicle miles, and Poisson power calculations on the
resulting benchmarks.

Public names load their module on first use (PEP 562): ``import
crashbench`` loads no layer, and ``crashbench.power_table`` loads only
``power`` and what it imports.  ``crashbench.X`` is always the defining
module's current ``X``.  ``_PUBLIC`` names each public name once, under
the module that defines it; ``__all__`` is read from it.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC: dict[str, tuple[str, ...]] = {
    "errors": ("ReferentialError", "SchemaError", "UndefinedStatistic", "ValidationError"),
    "model": (
        "AdjustmentScheme", "AreaType", "BenchmarkRate", "BodyClass", "CrashEvent",
        "FunctionalClass", "Kabco", "MileageCell", "PassengerShareTable",
        "PersonOutcome", "Region", "RoadClass", "SCHEMES", "SEVERITY_CHAIN",
        "SeverityLevel", "VehicleInvolvement",
    ),
    "filters": ("select_subset",),
    "rates": (
        "DEFAULT_ROWS", "BenchmarkReport", "SeverityCounts", "apply_adjustment",
        "benchmark_from_aggregates", "build_benchmark", "compute_rate",
        "count_crashed_vehicles", "garwood_interval", "load_aggregates",
        "merge_mileage",
    ),
    "power": (
        "PowerQuery", "achieved_power", "normal_cdf", "normal_quantile",
        "power_table", "required_vmt",
    ),
    "ingest": ("load_crash_source", "load_dataset", "load_mileage"),
    "interchange": ("DatasetManifest", "load_manifest"),
    "schema": ("SchemaSpec", "load_schema", "parse_spec", "shipped_specs"),
    "synth": ("PopulationSpec", "SplitMix64", "brute_force_tally", "generate",
              "simulate_power"),
}

_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
