"""Command-line front door: configured, reproducible benchmark runs.

Subcommands wire the library together: ``ingest`` normalizes raw source
files to the canonical interchange layout, ``benchmark`` computes the
full rate table from a manifest or from published aggregate totals,
``power`` turns benchmark rates into required-mileage tables, ``synth``
materializes a synthetic population, and ``report`` chains benchmark and
power.

Runs are reproducible: report outputs start with a provenance block
(tool version, a digest of the effective configuration, and content
digests of every external input file) and contain nothing else that
varies between identical runs.  Canonical interchange CSVs carry no
provenance at all so they compare byte-for-byte across runs and
implementations; the audit file written next to them carries it instead.

Configuration lives in an INI file (see ``--config``); every key has a
matching flag, and flags win.  Sections: [run] out_dir, formats,
verbosity; [benchmark] manifest, aggregates, region, road_rule, rows;
[power] relative_rates, alpha, target_power.

Exit codes: 0 success, 2 input or validation problem, 1 unexpected
internal error.  Warnings never change the exit code.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .errors import UndefinedStatistic, ValidationError
from .ingest import load_dataset
from .interchange import (
    DatasetManifest,
    load_manifest,
    write_crashes,
    write_mileage,
    write_persons,
    write_vehicles,
)
from .model import SCHEMES, SeverityLevel
from .power import PowerTable, power_table
from .rates import (
    DEFAULT_ROWS,
    BenchmarkReport,
    ROAD_RULES,
    benchmark_from_aggregates,
    build_benchmark,
    load_aggregates,
)
from .synth import PopulationSpec, generate

# Benchmark rows fed to the power calculator by `report`, outermost first.
POWER_ROWS: tuple[tuple[SeverityLevel, str], ...] = (
    (SeverityLevel.ANY_PROPERTY_DAMAGE_OR_INJURY, "blanco"),
    (SeverityLevel.POLICE_REPORTED, "unadjusted"),
    (SeverityLevel.ANY_INJURY_REPORTED, "blincoe"),
    (SeverityLevel.SUSPECTED_SERIOUS_INJURY_PLUS, "unadjusted"),
    (SeverityLevel.FATAL, "unadjusted"),
)

_DEFAULT_RELATIVE_RATES = (0.01, 0.10, 0.25, 0.50, 0.75, 1.25, 1.50)

_INPUT_ERRORS = (ValidationError, UndefinedStatistic, FileNotFoundError,
                 IsADirectoryError, NotADirectoryError, PermissionError)


# ---------------------------------------------------------------------------
# Configuration plumbing


def _load_config(path: Path | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",)
    )
    parser.optionxform = str  # type: ignore[method-assign]
    if path is not None:
        if not Path(path).is_file():
            raise ValidationError(f"config file not found: {path}")
        parser.read(path)
    parser.path = path  # type: ignore[attr-defined]  # named in value errors
    return parser


def _opt(flag_value, cfg: configparser.ConfigParser, section: str, key: str,
         default=None):
    """Flag wins over config file wins over default."""
    if flag_value is not None:
        return flag_value
    if cfg.has_option(section, key):
        return cfg.get(section, key)
    return default


def _opt_number(flag_value, cfg: configparser.ConfigParser, section: str, key: str,
                default, convert):
    """``_opt`` passed through ``convert``.  Flags arrive typed, so only a
    config value can be unreadable: an input error naming the file, the
    section, the key and the value."""
    value = _opt(flag_value, cfg, section, key, default)
    try:
        return convert(value)
    except ValueError:
        raise ValidationError(
            f"config file {cfg.path}: [{section}] {key}: unreadable value {value!r}"
        ) from None


def _parse_rows(text: str) -> tuple[tuple[SeverityLevel, str], ...]:
    rows = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        severity_name, _, scheme = part.partition(":")
        scheme = scheme.strip() or "unadjusted"
        try:
            severity = SeverityLevel(severity_name.strip())
        except ValueError:
            raise ValidationError(f"unknown severity level {severity_name.strip()!r}")
        if scheme not in SCHEMES:
            raise ValidationError(
                f"unknown adjustment scheme {scheme!r}; expected one of {sorted(SCHEMES)}"
            )
        rows.append((severity, scheme))
    if not rows:
        raise ValidationError("row list is empty")
    return tuple(rows)


def _parse_floats(text: str) -> tuple[float, ...]:
    values = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(float(part))
        except ValueError:
            raise ValidationError(f"unreadable number {part!r}")
    if not values:
        raise ValidationError("number list is empty")
    return tuple(values)


def _parse_formats(text: str) -> tuple[str, ...]:
    formats = tuple(p.strip() for p in str(text).split(",") if p.strip())
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ValidationError(f"unknown output format {fmt!r}")
    if not formats:
        raise ValidationError("format list is empty")
    return formats


# ---------------------------------------------------------------------------
# Provenance


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _provenance(effective: dict, inputs: list[Path]) -> dict:
    entries: dict[str, str] = {}
    for path in sorted({str(p) for p in inputs}):
        p = Path(path)
        key = p.name
        if key in entries:
            key = f"{p.parent.name}/{p.name}"
        entries[key] = _digest_bytes(p.read_bytes())
    config_blob = json.dumps(effective, sort_keys=True).encode("utf-8")
    return {
        "tool": f"crashbench {__version__}",
        "config_digest": _digest_bytes(config_blob),
        "inputs": entries,
    }


def _provenance_lines(provenance: dict) -> list[str]:
    lines = [
        f"# tool: {provenance['tool']}\n",
        f"# config_digest: {provenance['config_digest']}\n",
    ]
    for name, digest in provenance["inputs"].items():
        lines.append(f"# input {name}: {digest}\n")
    return lines


def _manifest_inputs(path: Path, manifests: list[DatasetManifest]) -> list[Path]:
    inputs = [path]
    for ds in manifests:
        for ref in ds.crash_sources:
            inputs.append(ref.crash_file)
            if ref.vehicle_file:
                inputs.append(ref.vehicle_file)
            if ref.person_file:
                inputs.append(ref.person_file)
            if Path(ref.spec).is_file():
                inputs.append(Path(ref.spec))
        for mref in ds.mileage:
            inputs.append(mref.file)
            if Path(mref.spec).is_file():
                inputs.append(Path(mref.spec))
        for sref in ds.shares:
            inputs.append(sref.file)
            if Path(sref.spec).is_file():
                inputs.append(Path(sref.spec))
    return inputs


# ---------------------------------------------------------------------------
# Serialization helpers


def _region_dict(region) -> dict:
    return {"kind": region.kind, "name": region.name, "state": region.state}


def _counts_dict(counts) -> dict | None:
    return None if counts is None else dataclasses.asdict(counts)


def _rate_dict(rate) -> dict:
    return {
        "severity": rate.severity.value,
        "adjustment": rate.adjustment,
        "numerator": rate.numerator,
        "vmt_millions": rate.vmt_millions,
        "rate_ipmm": rate.rate_ipmm,
        "ci_low_ipmm": rate.ci_low_ipmm,
        "ci_high_ipmm": rate.ci_high_ipmm,
        "display": rate.display,
    }


def _report_dict(report: BenchmarkReport) -> dict:
    return {
        "region": _region_dict(report.region),
        "year": report.year,
        "road_rule": report.road_rule,
        "weighted": report.weighted,
        "mileage": report.mileage,
        "intermediates": report.intermediates,
        "vehicle_counts": _counts_dict(report.vehicle_counts),
        "crash_counts": _counts_dict(report.crash_counts),
        "imputation_w": report.imputation_w,
        "vehicles_per_crash": report.vehicles_per_crash,
        "rows": [_rate_dict(r) for r in report.rows],
        "pdo_share_vehicle": report.pdo_share_vehicle,
        "pdo_share_crash": report.pdo_share_crash,
        "caveats": list(report.caveats),
        "audit": report.audit,
    }


def _write_json(path: Path, payload: dict, verbosity: int) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    if verbosity:
        print(f"wrote {path}")


def _csv_cell(value) -> str:
    return "" if value is None else repr(value)


_BENCH_HEADER = (
    "region", "region_state", "year", "road_rule", "severity", "adjustment",
    "numerator", "vmt_millions", "rate_ipmm", "display",
    "ci_low_ipmm", "ci_high_ipmm",
)


def _write_benchmark_csv(path: Path, reports: list[BenchmarkReport],
                         provenance: dict, verbosity: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_provenance_lines(provenance))
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_BENCH_HEADER)
        for report in reports:
            for rate in report.rows:
                writer.writerow([
                    report.region.name,
                    report.region.state,
                    str(report.year),
                    report.road_rule,
                    rate.severity.value,
                    rate.adjustment,
                    _csv_cell(rate.numerator),
                    _csv_cell(rate.vmt_millions),
                    _csv_cell(rate.rate_ipmm),
                    rate.display,
                    _csv_cell(rate.ci_low_ipmm),
                    _csv_cell(rate.ci_high_ipmm),
                ])
    if verbosity:
        print(f"wrote {path}")


def _fmt_relative(r: float) -> str:
    return f"{r * 100.0:g}%"


def _write_power_csv(path: Path, table: PowerTable, provenance: dict,
                     verbosity: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_provenance_lines(provenance))
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["label", "benchmark_rate_ipmm"]
            + [_fmt_relative(r) for r in table.relative_rates]
        )
        for label, rate, cells in table.rows:
            writer.writerow(
                [label, repr(rate)]
                + [_csv_cell(c.vmt_millions) for c in cells]
            )
    if verbosity:
        print(f"wrote {path}")


def _power_payload(table: PowerTable, provenance: dict) -> dict:
    return {
        "provenance": provenance,
        "alpha": table.alpha,
        "target_power": table.target_power,
        "relative_rates": list(table.relative_rates),
        "rows": [
            {
                "label": label,
                "benchmark_rate_ipmm": rate,
                "cells": [
                    {
                        "relative_rate": cell.relative_rate,
                        "required_vmt_mmi": cell.vmt_millions,
                        "note": cell.note,
                    }
                    for cell in cells
                ],
            }
            for label, rate, cells in table.rows
        ],
    }


# ---------------------------------------------------------------------------
# Subcommands


def _out_dir(args, cfg) -> Path:
    out = Path(_opt(args.out, cfg, "run", "out_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _verbosity(args, cfg) -> int:
    if args.quiet:
        return 0
    return _opt_number(None, cfg, "run", "verbosity", 1, int)


def _formats(args, cfg) -> tuple[str, ...]:
    return _parse_formats(_opt(args.formats, cfg, "run", "formats", "csv,json"))


def _region_slug(region) -> str:
    return region.name.lower().replace(" ", "_")


def cmd_ingest(args) -> int:
    cfg = _load_config(args.config)
    manifest_path = _opt(args.manifest, cfg, "benchmark", "manifest")
    if manifest_path is None:
        raise ValidationError("ingest needs a manifest (--manifest or config)")
    manifest_path = Path(manifest_path)
    out = _out_dir(args, cfg)
    verbosity = _verbosity(args, cfg)
    manifests = load_manifest(manifest_path)
    effective = {
        "command": "ingest",
        "manifest": str(manifest_path),
        "out_dir": str(out),
    }
    for ds in manifests:
        target = out if len(manifests) == 1 else out / _region_slug(ds.region)
        target.mkdir(parents=True, exist_ok=True)
        dataset = load_dataset(ds)
        write_crashes(target / "crashes.csv", dataset.records.crashes)
        write_vehicles(target / "vehicles.csv", dataset.records.vehicles)
        write_persons(target / "persons.csv", dataset.records.persons)
        write_mileage(target / "mileage.csv", dataset.mileage)
        provenance = _provenance(effective, _manifest_inputs(manifest_path, [ds]))
        audit = {
            "provenance": provenance,
            "dataset": {
                "region": _region_dict(ds.region),
                "year": ds.year,
                "road_rule": ds.road_rule,
            },
            "sources": dataset.source_audits,
            "diagnostics": dict(sorted(dataset.records.diagnostics.items())),
            "records": {
                "crashes": len(dataset.records.crashes),
                "vehicles": len(dataset.records.vehicles),
                "persons": len(dataset.records.persons),
                "mileage_cells": len(dataset.mileage),
            },
            "caveats": list(dataset.records.caveats),
        }
        _write_json(target / "audit.json", audit, 0)
        if verbosity:
            for name in ("crashes.csv", "vehicles.csv", "persons.csv",
                         "mileage.csv", "audit.json"):
                print(f"wrote {target / name}")
    return 0


def _select_reports(args, cfg) -> tuple[list[BenchmarkReport], list[Path], dict]:
    """Shared benchmark assembly for `benchmark` and `report`."""
    manifest_path = _opt(args.manifest, cfg, "benchmark", "manifest")
    aggregates = _opt(args.aggregates, cfg, "benchmark", "aggregates")
    region_filter = _opt(args.region, cfg, "benchmark", "region")
    rows_text = _opt(args.rows, cfg, "benchmark", "rows")
    rows = _parse_rows(rows_text) if rows_text else DEFAULT_ROWS
    road_rule = _opt(getattr(args, "road_rule", None), cfg, "benchmark", "road_rule")
    if road_rule is not None and road_rule not in ROAD_RULES:
        raise ValidationError(
            f"unknown road rule {road_rule!r}; expected one of {sorted(ROAD_RULES)}"
        )
    if manifest_path is None and aggregates is None:
        raise ValidationError(
            "benchmark needs a manifest or an aggregate table "
            "(--manifest / --aggregates / config)"
        )
    if manifest_path is not None and aggregates is not None:
        raise ValidationError("give either a manifest or an aggregate table, not both")

    def keep(region) -> bool:
        if region_filter is None:
            return True
        return region.name.casefold() == str(region_filter).casefold()

    reports: list[BenchmarkReport] = []
    inputs: list[Path] = []
    effective = {
        "command": "benchmark",
        "manifest": str(manifest_path) if manifest_path else None,
        "aggregates": str(aggregates) if aggregates else None,
        "region": region_filter,
        "road_rule": road_rule,
        "rows": [f"{severity.value}:{scheme}" for severity, scheme in rows],
    }
    if aggregates is not None:
        source = str(aggregates)
        if Path(source).is_file():
            inputs.append(Path(source))
        for agg in load_aggregates(source):
            if keep(agg.region):
                reports.append(benchmark_from_aggregates(agg, rows))
    else:
        manifest_path = Path(manifest_path)
        manifests = [
            ds for ds in load_manifest(manifest_path) if keep(ds.region)
        ]
        if road_rule is not None:
            manifests = [
                dataclasses.replace(ds, road_rule=road_rule) for ds in manifests
            ]
        inputs.extend(_manifest_inputs(manifest_path, manifests))
        for ds in manifests:
            reports.append(build_benchmark(load_dataset(ds), rows))
    if not reports:
        raise ValidationError(
            f"no dataset matches region {region_filter!r}" if region_filter
            else "no datasets to benchmark"
        )
    return reports, inputs, effective


def _emit_benchmark(reports, inputs, effective, out, formats, verbosity) -> None:
    provenance = _provenance(effective, inputs)
    if "csv" in formats:
        _write_benchmark_csv(out / "benchmark.csv", reports, provenance, verbosity)
    if "json" in formats:
        payload = {
            "provenance": provenance,
            "reports": [_report_dict(r) for r in reports],
        }
        _write_json(out / "benchmark.json", payload, verbosity)


def cmd_benchmark(args) -> int:
    cfg = _load_config(args.config)
    out = _out_dir(args, cfg)
    verbosity = _verbosity(args, cfg)
    formats = _formats(args, cfg)
    reports, inputs, effective = _select_reports(args, cfg)
    if args.config:
        inputs.append(Path(args.config))
    _emit_benchmark(reports, inputs, effective, out, formats, verbosity)
    return 0


def _power_rates(args, cfg) -> tuple[list[tuple[str, float]], list[Path]]:
    """Benchmark rates for the power table, from flags or a benchmark file."""
    inputs: list[Path] = []
    rates: list[tuple[str, float]] = []
    for item in args.rates or []:
        label, sep, value = str(item).partition("=")
        if not sep or not label.strip():
            raise ValidationError(f"--rate expects LABEL=VALUE, got {item!r}")
        try:
            rates.append((label.strip(), float(value)))
        except ValueError:
            raise ValidationError(f"--rate {item!r}: unreadable value")
    table_path = getattr(args, "benchmark_table", None)
    if table_path is not None:
        table_path = Path(table_path)
        if not table_path.is_file():
            raise ValidationError(f"benchmark table not found: {table_path}")
        inputs.append(table_path)
        payload = json.loads(table_path.read_text(encoding="utf-8"))
        selectors = args.power_rows or []
        if not selectors:
            raise ValidationError(
                "--benchmark-table needs at least one --row REGION:SEVERITY:SCHEME"
            )
        for selector in selectors:
            parts = str(selector).split(":")
            if len(parts) != 3:
                raise ValidationError(
                    f"--row expects REGION:SEVERITY:SCHEME, got {selector!r}"
                )
            region_name, severity_name, scheme = (p.strip() for p in parts)
            found = None
            for report in payload.get("reports", []):
                if report["region"]["name"].casefold() != region_name.casefold():
                    continue
                for row in report["rows"]:
                    if (row["severity"] == severity_name
                            and row["adjustment"] == scheme):
                        found = row["rate_ipmm"]
                        break
            if found is None:
                raise ValidationError(f"no benchmark row matches {selector!r}")
            rates.append((f"{region_name}:{severity_name}:{scheme}", float(found)))
    if not rates:
        raise ValidationError(
            "power needs rates: --rate LABEL=VALUE or --benchmark-table with --row"
        )
    return rates, inputs


def _power_settings(args, cfg) -> tuple[tuple[float, ...], float, float]:
    """(relative rates, alpha, target power) from flags, config and defaults."""
    relative_text = _opt(args.relative_rates, cfg, "power", "relative_rates")
    relative = (
        _parse_floats(relative_text) if relative_text else _DEFAULT_RELATIVE_RATES
    )
    alpha = _opt_number(args.alpha, cfg, "power", "alpha", 0.05, float)
    target = _opt_number(args.target_power, cfg, "power", "target_power", 0.80, float)
    return relative, alpha, target


def _emit_power(settings, rates, inputs, effective, out, formats, verbosity) -> None:
    """The power table over ``rates`` at the power settings, as power.csv/json."""
    relative, alpha, target = settings
    table = power_table(rates, list(relative), alpha=alpha, target_power=target)
    effective = {
        **effective,
        "relative_rates": list(relative),
        "alpha": alpha,
        "target_power": target,
    }
    provenance = _provenance(effective, inputs)
    if "csv" in formats:
        _write_power_csv(out / "power.csv", table, provenance, verbosity)
    if "json" in formats:
        _write_json(out / "power.json", _power_payload(table, provenance), verbosity)


def cmd_power(args) -> int:
    cfg = _load_config(args.config)
    out = _out_dir(args, cfg)
    verbosity = _verbosity(args, cfg)
    formats = _formats(args, cfg)
    settings = _power_settings(args, cfg)
    rates, inputs = _power_rates(args, cfg)
    if args.config:
        inputs.append(Path(args.config))
    effective = {
        "command": "power",
        "rates": [[label, value] for label, value in rates],
    }
    _emit_power(settings, rates, inputs, effective, out, formats, verbosity)
    return 0


def cmd_synth(args) -> int:
    cfg = _load_config(args.config)
    out = _out_dir(args, cfg)
    verbosity = _verbosity(args, cfg)
    spec_path = Path(args.spec)
    if not spec_path.is_file():
        raise ValidationError(f"population spec not found: {spec_path}")
    spec = PopulationSpec.from_config(str(spec_path))
    crashes, vehicles, truth = generate(spec)
    write_crashes(out / "crashes.csv", crashes)
    write_vehicles(out / "vehicles.csv", vehicles)
    effective = {"command": "synth", "spec": str(spec_path), "seed": spec.seed}
    payload = {
        "provenance": _provenance(effective, [spec_path]),
        "population": {
            "n_crashes": spec.n_crashes,
            "seed": spec.seed,
            "region": _region_dict(spec.region),
            "year": spec.year,
            "weights": spec.weights,
        },
        "truth": {
            "crash_count": truth.crash_count,
            "vehicle_count": truth.vehicle_count,
            "weighted_crashes": truth.weighted_crashes,
            "weighted_vehicles": truth.weighted_vehicles,
            "crashes_by_severity": {
                level.value: value for level, value in truth.crashes_by_severity
            },
            "units_by_body": {
                body.value: value for body, value in truth.units_by_body
            },
        },
    }
    _write_json(out / "truth.json", payload, 0)
    if verbosity:
        for name in ("crashes.csv", "vehicles.csv", "truth.json"):
            print(f"wrote {out / name}")
    return 0


def cmd_report(args) -> int:
    cfg = _load_config(args.config)
    out = _out_dir(args, cfg)
    verbosity = _verbosity(args, cfg)
    formats = _formats(args, cfg)
    settings = _power_settings(args, cfg)
    reports, inputs, effective = _select_reports(args, cfg)
    effective = {**effective, "command": "report"}
    if args.config:
        inputs.append(Path(args.config))
    _emit_benchmark(reports, inputs, effective, out, formats, verbosity)

    # Power rows come from the national report when present, else the first.
    chosen = next(
        (r for r in reports if r.region.kind == "national"), reports[0]
    )
    rates = []
    for severity, scheme in POWER_ROWS:
        for rate in chosen.rows:
            if rate.severity is severity and rate.adjustment == scheme:
                rates.append((f"{severity.value}:{scheme}", rate.rate_ipmm))
                break
    if not rates:
        wanted = [f"{severity.value}:{scheme}" for severity, scheme in POWER_ROWS]
        reason = (
            f"the requested rows include none of {', '.join(wanted)}"
            if set(wanted).isdisjoint(effective["rows"])
            else "its headline rows need totals that were not published"
        )
        raise ValidationError(
            f"benchmark for {chosen.region.name}: no rows for the power table: {reason}"
        )
    try:
        _emit_power(settings, rates, inputs, effective, out, formats, verbosity)
    except ValidationError as exc:
        raise ValidationError(f"benchmark for {chosen.region.name}: {exc}") from None
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crashbench",
        description="Crash-rate benchmarks and power tables from police-reported data.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="INI run configuration; flags override it")
    common.add_argument("--out", type=Path, default=None,
                        help="output directory (default out)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress lines")
    common.add_argument("--format", dest="formats", default=None,
                        help="comma list of csv,json (default both)")

    p = sub.add_parser("ingest", parents=[common],
                       help="normalize raw sources to canonical CSVs plus audit")
    p.add_argument("--manifest", type=Path, default=None,
                   help="dataset manifest JSON")
    p.set_defaults(func=cmd_ingest)

    bench = argparse.ArgumentParser(add_help=False)
    bench.add_argument("--manifest", type=Path, default=None,
                       help="dataset manifest JSON")
    bench.add_argument("--aggregates", default=None,
                       help="published-aggregate CSV path, or a shipped year like 2022")
    bench.add_argument("--region", default=None,
                       help="only benchmark the dataset with this region name")
    bench.add_argument("--road-rule", dest="road_rule", default=None,
                       help="override the manifest's road rule")
    bench.add_argument("--rows", default=None,
                       help="severity:scheme pairs, comma separated")

    p = sub.add_parser("benchmark", parents=[common, bench],
                       help="compute the benchmark rate table")
    p.set_defaults(func=cmd_benchmark)

    powargs = argparse.ArgumentParser(add_help=False)
    powargs.add_argument("--r", dest="relative_rates", default=None,
                         help="comma list of relative rates "
                              "(default 0.01,0.1,0.25,0.5,0.75,1.25,1.5)")
    powargs.add_argument("--alpha", type=float, default=None,
                         help="two-sided significance level (default 0.05)")
    powargs.add_argument("--power", dest="target_power", type=float, default=None,
                         help="target power (default 0.80)")

    p = sub.add_parser("power", parents=[common, powargs],
                       help="required-mileage table for benchmark rates")
    p.add_argument("--rate", action="append", dest="rates", metavar="LABEL=VALUE",
                   help="benchmark rate in events per million miles; repeatable")
    p.add_argument("--benchmark-table", type=Path, default=None,
                   help="benchmark.json from the benchmark subcommand")
    p.add_argument("--row", action="append", dest="power_rows",
                   metavar="REGION:SEVERITY:SCHEME",
                   help="row to pull from --benchmark-table; repeatable")
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic population fixture")
    p.add_argument("--spec", required=True, help="population spec INI")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", parents=[common, bench, powargs],
                       help="benchmark plus power in one run")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
