"""Vehicle-level crash-rate benchmarks from police-reported crash data.

The pipeline: schema-driven ingest of raw crash and mileage files into
canonical records, severity classification and road filtering, NFS
imputation, underreporting adjustment, rate assembly against
passenger-vehicle miles, and Poisson power calculations on the
resulting benchmarks.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    ReferentialError,
    SchemaError,
    UndefinedStatistic,
    ValidationError,
)
from .model import (
    AdjustmentScheme,
    AreaType,
    BenchmarkRate,
    BodyClass,
    CrashEvent,
    FunctionalClass,
    Kabco,
    MileageCell,
    PassengerShareTable,
    PersonOutcome,
    Region,
    RoadClass,
    SCHEMES,
    SEVERITY_CHAIN,
    SeverityLevel,
    VehicleInvolvement,
)
from .filters import classify_severity, select_subset
from .rates import (
    DEFAULT_ROWS,
    BenchmarkReport,
    SeverityCounts,
    apply_adjustment,
    benchmark_from_aggregates,
    build_benchmark,
    compute_rate,
    count_crashed_vehicles,
    garwood_interval,
    load_aggregates,
    merge_mileage,
)
from .power import (
    PowerQuery,
    achieved_power,
    normal_cdf,
    normal_quantile,
    power_table,
    required_vmt,
)
from .ingest import load_crash_source, load_dataset, load_mileage
from .interchange import DatasetManifest, load_manifest
from .schema import SchemaSpec, load_schema, parse_spec, shipped_specs
from .synth import PopulationSpec, SplitMix64, brute_force_tally, generate, simulate_power

__all__ = [
    "AdjustmentScheme",
    "AreaType",
    "BenchmarkRate",
    "BenchmarkReport",
    "BodyClass",
    "CrashEvent",
    "DEFAULT_ROWS",
    "DatasetManifest",
    "FunctionalClass",
    "Kabco",
    "MileageCell",
    "PassengerShareTable",
    "PersonOutcome",
    "PopulationSpec",
    "PowerQuery",
    "ReferentialError",
    "Region",
    "RoadClass",
    "SCHEMES",
    "SEVERITY_CHAIN",
    "SchemaError",
    "SchemaSpec",
    "SeverityCounts",
    "SeverityLevel",
    "SplitMix64",
    "UndefinedStatistic",
    "ValidationError",
    "VehicleInvolvement",
    "achieved_power",
    "apply_adjustment",
    "benchmark_from_aggregates",
    "brute_force_tally",
    "build_benchmark",
    "classify_severity",
    "compute_rate",
    "count_crashed_vehicles",
    "garwood_interval",
    "generate",
    "load_aggregates",
    "load_crash_source",
    "load_dataset",
    "load_manifest",
    "load_mileage",
    "load_schema",
    "merge_mileage",
    "normal_cdf",
    "normal_quantile",
    "parse_spec",
    "power_table",
    "required_vmt",
    "select_subset",
    "shipped_specs",
    "simulate_power",
    "__version__",
]
