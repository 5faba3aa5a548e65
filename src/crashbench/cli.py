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

Configuration lives in an INI file (see ``--config``).  ``_SETTINGS``
declares every setting once: its [section] key, its flag, its default
and its parser.  A flag wins over the config file, which wins over the
default.  A section or key outside the table, or a value that does not
parse, is an input error naming the flag or the file, section and key.

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
from collections.abc import Callable
from pathlib import Path

from . import __version__
from .errors import UndefinedStatistic, ValidationError
from .ingest import dataset_rows, load_dataset
from .interchange import (
    DatasetManifest,
    load_manifest,
    write_crashes,
    write_mileage,
    write_rows,
    write_vehicles,
)
from .model import SCHEMES, SeverityLevel
from .power import PowerTable, check_setting, power_table
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
# Settings: each is declared once, in _SETTINGS


def _readable(convert: Callable[[str], object]) -> Callable[[str], object]:
    """``convert``, failing with a message that quotes the text."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise ValueError(f"unreadable value {text!r}") from None
    return parse


def _listed(parse_item: Callable[[str], object], what: str) -> Callable[[str], tuple]:
    """A parser of comma lists whose items ``parse_item`` reads."""
    def parse(text: str) -> tuple:
        items = tuple(parse_item(p.strip()) for p in text.split(",") if p.strip())
        if not items:
            raise ValueError(f"{what} list is empty")
        return items
    return parse


def _power_setting(name: str) -> Callable[[str], float]:
    """A parser of numbers that must lie in the range ``PowerQuery`` gives
    its field ``name``."""
    read = _readable(float)
    return lambda text: check_setting(name, read(text))


def _row(text: str) -> tuple[SeverityLevel, str]:
    severity_name, _, scheme = text.partition(":")
    scheme = scheme.strip() or "unadjusted"
    try:
        severity = SeverityLevel(severity_name.strip())
    except ValueError:
        raise ValueError(f"unknown severity level {severity_name.strip()!r}") from None
    if scheme not in SCHEMES:
        raise ValueError(
            f"unknown adjustment scheme {scheme!r}; expected one of {sorted(SCHEMES)}"
        )
    return severity, scheme


def _format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError(f"unknown output format {text!r}")
    return text


def _road_rule(text: str) -> str:
    if text not in ROAD_RULES:
        raise ValueError(
            f"unknown road rule {text!r}; expected one of {sorted(ROAD_RULES)}"
        )
    return text


@dataclasses.dataclass(frozen=True)
class _Setting:
    """A setting's flag, default and parser.  The flag's value and the
    config value are text for ``parse``; the default is already parsed.
    A flag with a ``const`` takes no value and stands for that text."""

    flag: str
    default: object
    parse: Callable[[str], object]
    help: str
    const: str | None = None


# Keyed by (config section, config key); the key is also the flag's dest.
_SETTINGS: dict[tuple[str, str], _Setting] = {
    ("run", "out_dir"): _Setting(
        "--out", Path("out"), Path, "output directory (default out)"),
    ("run", "formats"): _Setting(
        "--format", ("csv", "json"), _listed(_format, "format"),
        "comma list of csv,json (default both)"),
    ("run", "verbosity"): _Setting(
        "--quiet", 1, _readable(int), "suppress progress lines", const="0"),
    ("benchmark", "manifest"): _Setting(
        "--manifest", None, Path, "dataset manifest JSON"),
    ("benchmark", "aggregates"): _Setting(
        "--aggregates", None, str,
        "published-aggregate CSV path, or a shipped year like 2022"),
    ("benchmark", "region"): _Setting(
        "--region", None, str, "only benchmark the dataset with this region name"),
    ("benchmark", "road_rule"): _Setting(
        "--road-rule", None, _road_rule, "override the manifest's road rule"),
    ("benchmark", "rows"): _Setting(
        "--rows", DEFAULT_ROWS, _listed(_row, "row"),
        "severity:scheme pairs, comma separated"),
    ("power", "relative_rates"): _Setting(
        "--r", _DEFAULT_RELATIVE_RATES, _listed(_power_setting("relative_rate"), "number"),
        "comma list of relative rates (default 0.01,0.1,0.25,0.5,0.75,1.25,1.5)"),
    ("power", "alpha"): _Setting(
        "--alpha", 0.05, _power_setting("alpha"),
        "two-sided significance level (default 0.05)"),
    ("power", "target_power"): _Setting(
        "--power", 0.80, _power_setting("target_power"), "target power (default 0.80)"),
}


def _load_config(path: Path | None) -> configparser.ConfigParser:
    # No default section: a [DEFAULT] header is an unknown section, not
    # keys copied into every other section.
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",), default_section=""
    )
    parser.optionxform = str  # type: ignore[method-assign]
    parser.path = path  # type: ignore[attr-defined]  # named in value errors
    if path is None:
        return parser
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"config file {path}: {exc}") from None
    sections = {section for section, _ in _SETTINGS}
    for section in parser.sections():
        if section not in sections:
            raise ValidationError(
                f"config file {path}: unknown section [{section}]; "
                f"expected one of {sorted(sections)}"
            )
        for key in parser.options(section):
            if (section, key) not in _SETTINGS:
                keys = sorted(k for s, k in _SETTINGS if s == section)
                raise ValidationError(
                    f"config file {path}: [{section}] {key}: unknown key; "
                    f"expected one of {keys}"
                )
    return parser


def _setting(args, cfg: configparser.ConfigParser, section: str, key: str):
    """The flag's value, else the config file's, else the default; a value
    that does not parse is an input error naming where it came from."""
    setting = _SETTINGS[section, key]
    text, origin = getattr(args, key), setting.flag
    if text is None and cfg.has_option(section, key):
        text = cfg.get(section, key)
        origin = f"config file {cfg.path}: [{section}] {key}"
    if text is None:
        return setting.default
    try:
        return setting.parse(text)
    except ValueError as exc:
        raise ValidationError(f"{origin}: {exc}") from None


def _configure(args) -> tuple[dict, list[Path]]:
    """Every setting the subcommand offers, by key, and the config file as
    a provenance input list.  Creates the output directory, so nothing is
    written before every setting has parsed."""
    cfg = _load_config(args.config)
    opts = {key: _setting(args, cfg, section, key) for section, key in args.settings}
    opts["out_dir"].mkdir(parents=True, exist_ok=True)
    return opts, [args.config] if args.config else []


# ---------------------------------------------------------------------------
# Provenance


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(inputs: list[Path]) -> dict[str, str]:
    """The content digest of every input file, named by file name (or
    parent/name where two names clash); each file is read once."""
    entries: dict[str, str] = {}
    for path in sorted({str(p) for p in inputs}):
        p = Path(path)
        key = p.name
        if key in entries:
            key = f"{p.parent.name}/{p.name}"
        entries[key] = _digest_bytes(p.read_bytes())
    return entries


def _provenance(effective: dict, digests: dict[str, str]) -> dict:
    config_blob = json.dumps(effective, sort_keys=True).encode("utf-8")
    return {
        "tool": f"crashbench {__version__}",
        "config_digest": _digest_bytes(config_blob),
        "inputs": digests,
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
        refs = (*ds.crash_sources, *ds.mileage, *ds.shares)
        inputs += [Path(ref.spec) for ref in refs if Path(ref.spec).is_file()]
        inputs += [ref.file for ref in (*ds.mileage, *ds.shares)]
        inputs += [
            file for ref in ds.crash_sources
            for file in (ref.crash_file, ref.vehicle_file, ref.person_file) if file
        ]
    return inputs


# ---------------------------------------------------------------------------
# Serialization helpers


def _report_dict(report: BenchmarkReport) -> dict:
    payload = dataclasses.asdict(report)
    for rate, row in zip(report.rows, payload["rows"]):
        del row["region"], row["year"]
        row["display"] = rate.display
    return payload


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


def _region_slug(region) -> str:
    return region.name.lower().replace(" ", "_")


def cmd_ingest(args) -> int:
    opts, inputs = _configure(args)
    manifest_path, out = opts["manifest"], opts["out_dir"]
    if manifest_path is None:
        raise ValidationError("ingest needs a manifest (--manifest or config)")
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
        rows = dataset_rows(dataset)
        for table, table_rows in rows.items():
            write_rows(target / f"{table}.csv", table, table_rows)
        write_mileage(target / "mileage.csv", dataset.mileage)
        provenance = _provenance(
            effective, _digests(inputs + _manifest_inputs(manifest_path, [ds])))
        audit = {
            "provenance": provenance,
            "dataset": {
                "region": dataclasses.asdict(ds.region),
                "year": ds.year,
                "road_rule": ds.road_rule,
            },
            "sources": dataset.source_audits,
            "diagnostics": dict(sorted(dataset.records.diagnostics.items())),
            "records": {
                **{table: len(table_rows) for table, table_rows in rows.items()},
                "mileage_cells": len(dataset.mileage),
            },
            "caveats": list(dataset.records.caveats),
        }
        _write_json(target / "audit.json", audit, 0)
        if opts["verbosity"]:
            for name in ("crashes.csv", "vehicles.csv", "persons.csv",
                         "mileage.csv", "audit.json"):
                print(f"wrote {target / name}")
    return 0


def _select_reports(opts: dict) -> tuple[list[BenchmarkReport], list[Path], dict]:
    """Shared benchmark assembly for `benchmark` and `report`."""
    manifest_path, aggregates = opts["manifest"], opts["aggregates"]
    region_filter, road_rule, rows = opts["region"], opts["road_rule"], opts["rows"]
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
        return region.name.casefold() == region_filter.casefold()

    reports: list[BenchmarkReport] = []
    inputs: list[Path] = []
    effective = {
        "command": "benchmark",
        "manifest": str(manifest_path) if manifest_path else None,
        "aggregates": aggregates,
        "region": region_filter,
        "road_rule": road_rule,
        "rows": [f"{severity.value}:{scheme}" for severity, scheme in rows],
    }
    if aggregates is not None:
        if Path(aggregates).is_file():
            inputs.append(Path(aggregates))
        for agg in load_aggregates(aggregates):
            if keep(agg.region):
                reports.append(benchmark_from_aggregates(agg, rows))
    else:
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


def _emit_benchmark(reports, digests, effective, opts) -> None:
    out, verbosity = opts["out_dir"], opts["verbosity"]
    provenance = _provenance(effective, digests)
    if "csv" in opts["formats"]:
        _write_benchmark_csv(out / "benchmark.csv", reports, provenance, verbosity)
    if "json" in opts["formats"]:
        payload = {
            "provenance": provenance,
            "reports": [_report_dict(r) for r in reports],
        }
        _write_json(out / "benchmark.json", payload, verbosity)


def cmd_benchmark(args) -> int:
    opts, inputs = _configure(args)
    reports, report_inputs, effective = _select_reports(opts)
    _emit_benchmark(reports, _digests(inputs + report_inputs), effective, opts)
    return 0


def _power_rates(args) -> tuple[list[tuple[str, float]], list[Path]]:
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
    table_path = args.benchmark_table
    if table_path is not None:
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


def _emit_power(rates, digests, effective, opts) -> None:
    """The power table over ``rates`` at the power settings, as power.csv/json."""
    relative, alpha, target = opts["relative_rates"], opts["alpha"], opts["target_power"]
    table = power_table(rates, list(relative), alpha=alpha, target_power=target)
    effective = {
        **effective,
        "relative_rates": list(relative),
        "alpha": alpha,
        "target_power": target,
    }
    provenance = _provenance(effective, digests)
    out, verbosity = opts["out_dir"], opts["verbosity"]
    if "csv" in opts["formats"]:
        _write_power_csv(out / "power.csv", table, provenance, verbosity)
    if "json" in opts["formats"]:
        _write_json(out / "power.json", _power_payload(table, provenance), verbosity)


def cmd_power(args) -> int:
    opts, inputs = _configure(args)
    rates, table_inputs = _power_rates(args)
    effective = {
        "command": "power",
        "rates": [[label, value] for label, value in rates],
    }
    _emit_power(rates, _digests(inputs + table_inputs), effective, opts)
    return 0


def cmd_synth(args) -> int:
    opts, inputs = _configure(args)
    out = opts["out_dir"]
    spec_path = Path(args.spec)
    if not spec_path.is_file():
        raise ValidationError(f"population spec not found: {spec_path}")
    spec = PopulationSpec.from_config(str(spec_path))
    crashes, vehicles, truth = generate(spec)
    write_crashes(out / "crashes.csv", crashes)
    write_vehicles(out / "vehicles.csv", vehicles)
    effective = {"command": "synth", "spec": str(spec_path), "seed": spec.seed}
    payload = {
        "provenance": _provenance(effective, _digests(inputs + [spec_path])),
        "population": {
            "n_crashes": spec.n_crashes,
            "seed": spec.seed,
            "region": dataclasses.asdict(spec.region),
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
    if opts["verbosity"]:
        for name in ("crashes.csv", "vehicles.csv", "truth.json"):
            print(f"wrote {out / name}")
    return 0


def cmd_report(args) -> int:
    opts, inputs = _configure(args)
    reports, report_inputs, effective = _select_reports(opts)
    digests = _digests(inputs + report_inputs)
    effective = {**effective, "command": "report"}
    _emit_benchmark(reports, digests, effective, opts)

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
    _emit_power(rates, digests, effective, opts)
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

    run = [("run", "out_dir"), ("run", "verbosity")]
    formats = [("run", "formats")]
    bench = [("benchmark", key)
             for key in ("manifest", "aggregates", "region", "road_rule", "rows")]
    power = [("power", key) for key in ("relative_rates", "alpha", "target_power")]
    commands = {
        "ingest": (cmd_ingest, "normalize raw sources to canonical CSVs plus audit",
                   run + [("benchmark", "manifest")]),
        "benchmark": (cmd_benchmark, "compute the benchmark rate table",
                      run + formats + bench),
        "power": (cmd_power, "required-mileage table for benchmark rates",
                  run + formats + power),
        "synth": (cmd_synth, "generate a synthetic population fixture", run),
        "report": (cmd_report, "benchmark plus power in one run",
                   run + formats + bench + power),
    }
    subparsers = {}
    for name, (func, help_text, settings) in commands.items():
        p = subparsers[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None,
                       help="INI run configuration; flags override it")
        for section, key in settings:
            setting = _SETTINGS[section, key]
            if setting.const is None:
                p.add_argument(setting.flag, dest=key, help=setting.help)
            else:
                p.add_argument(setting.flag, dest=key, action="store_const",
                               const=setting.const, help=setting.help)
        p.set_defaults(func=func, settings=settings)

    p = subparsers["power"]
    p.add_argument("--rate", action="append", dest="rates", metavar="LABEL=VALUE",
                   help="benchmark rate in events per million miles; repeatable")
    p.add_argument("--benchmark-table", type=Path, default=None,
                   help="benchmark.json from the benchmark subcommand")
    p.add_argument("--row", action="append", dest="power_rows",
                   metavar="REGION:SEVERITY:SCHEME",
                   help="row to pull from --benchmark-table; repeatable")
    subparsers["synth"].add_argument("--spec", required=True,
                                     help="population spec INI")
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
