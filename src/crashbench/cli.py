"""Command-line front door: configured, reproducible benchmark runs.

Subcommands wire the library together: ``ingest`` normalizes raw source
files to the canonical interchange layout, ``benchmark`` computes the
full rate table from a manifest or from published aggregate totals,
``power`` turns benchmark rates into required-mileage tables, ``synth``
materializes a synthetic population, and ``report`` chains benchmark and
power.  Each command imports the layers it runs: ``ingest``,
``interchange`` and ``synth`` load inside the commands that read or
write microdata, and ``rates`` loads ``filters`` only to count
microdata, so ``report --aggregates`` loads none of them.

Runs are reproducible: report outputs start with a provenance block
(tool version, a digest of the effective configuration, and the digest
of every file the run read, shipped ones too, as ``errors._opened``
records them) and contain nothing else that varies between identical
runs.  Canonical interchange CSVs carry no provenance at all so they
compare byte-for-byte across runs and implementations; the audit file
written next to each dataset's carries it instead, naming the config,
the manifest and that dataset's files.

Configuration lives in an INI file (see ``--config``).  ``_SETTINGS``
declares every setting once: its [section] key, its flag, its default
and its parser.  A flag wins over the config file, which wins over the
default; an empty config value gives none.  A section or key outside the
table (``[DEFAULT]`` too), or a value that does not parse, is an input
error naming the flag or the file, section and key;
so is a target power that ``PowerQuery`` rejects with the other power
settings, named by its own flag or key.

Exit codes: 0 success, 2 input or validation problem, 1 unexpected
internal error.  Warnings never change the exit code.

``run`` is the ``crashbench`` process, as the console script and as
``python -m crashbench.cli``: it runs ``main`` on the command line with
the cyclic garbage collector off, flushes stdout and stderr, and ends
the process with ``os._exit``, skipping the interpreter's teardown.
Every output file is closed by the time ``main`` returns and every
worker process is reaped, so nothing is lost by skipping it.  ``main``
itself leaves the collector as its caller set it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import hashlib
import json
import os
import sys
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import NoReturn

from . import __version__, errors
from .errors import UndefinedStatistic, ValidationError, _Ini, _json_check, _opened
from .model import SCHEMES, SeverityLevel
from .power import PowerQuery, PowerTable, check_setting, power_table
from .rates import (
    DEFAULT_ROWS,
    BenchmarkReport,
    ROAD_RULES,
    benchmark_from_aggregates,
    build_benchmark,
    load_aggregates,
)

# Benchmark rows fed to the power calculator by `report`, outermost first.
POWER_ROWS: tuple[tuple[SeverityLevel, str], ...] = (
    (SeverityLevel.ANY_PROPERTY_DAMAGE_OR_INJURY, "blanco"),
    (SeverityLevel.POLICE_REPORTED, "unadjusted"),
    (SeverityLevel.ANY_INJURY_REPORTED, "blincoe"),
    (SeverityLevel.SUSPECTED_SERIOUS_INJURY_PLUS, "unadjusted"),
    (SeverityLevel.FATAL, "unadjusted"),
)

_DEFAULT_RELATIVE_RATES = (0.01, 0.10, 0.25, 0.50, 0.75, 1.25, 1.50)

_INPUT_ERRORS = (ValidationError, UndefinedStatistic, OSError)


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


def _load_config(path: Path | None) -> dict[tuple[str, str], tuple[str, str]]:
    """The config file's settings: (section, key) -> (its text, where it is
    given), for each key it gives a value; none without a file, and then
    no INI reader is loaded.  Every key of ``_SETTINGS`` is looked up, so
    a file written for one subcommand serves every other."""
    if path is None:
        return {}
    with _opened(path, "config file") as fh:
        ini = _Ini(fh.read(), f"config file {path}")
    settings = {(section, key): (text, f"{ini.label}: [{section}] {key}")
                for section, key in _SETTINGS if (text := ini.get(section, key)) is not None}
    ini.check()
    return settings


def _source(args, cfg: dict, section: str, key: str):
    """The setting's text, the flag's else the config file's (None if
    neither gives one), and the flag or config key it came from."""
    text = getattr(args, key)
    if text is None and (section, key) in cfg:
        return cfg[section, key]
    return text, _SETTINGS[section, key].flag


def _setting(args, cfg: dict, section: str, key: str):
    """The flag's value, else the config file's, else the default; a value
    that does not parse is an input error naming where it came from."""
    setting = _SETTINGS[section, key]
    text, origin = _source(args, cfg, section, key)
    if text is None:
        return setting.default
    try:
        return setting.parse(text)
    except ValueError as exc:
        raise ValidationError(f"{origin}: {exc}") from None


def _configure(args) -> dict:
    """Every setting the subcommand offers, by key.  Creates the output
    directory, so nothing is written before every setting has parsed and
    the power settings have passed ``PowerQuery``'s checks together."""
    cfg = _load_config(args.config)
    opts = {key: _setting(args, cfg, section, key) for section, key in args.settings}
    if "target_power" in opts:
        try:
            # The largest r has the highest floor, so its message names
            # a target that every column accepts.
            for r in sorted(opts["relative_rates"], reverse=True):
                PowerQuery(1.0, r, alpha=opts["alpha"], target_power=opts["target_power"])
        except ValidationError as exc:
            origin = _source(args, cfg, "power", "target_power")[1]
            raise ValidationError(f"{origin}: {exc}") from None
    opts["out_dir"].mkdir(parents=True, exist_ok=True)
    return opts


# ---------------------------------------------------------------------------
# Provenance


def _digests() -> dict[str, str]:
    """The digest of every file the open recording (``errors._reading``)
    holds, named by file name, else parent/name where that name is taken,
    else the path as given, in name order.  Shorter paths are named first,
    so a path as given never meets a parent/name taken before it."""
    entries: dict[str, str] = {}
    for path in sorted(errors._record, key=lambda path: (len(Path(path).parts), path)):
        p = Path(path)
        key = next((k for k in (p.name, f"{p.parent.name}/{p.name}") if k not in entries), path)
        entries[key] = errors._record[path]
    return dict(sorted(entries.items()))


def _provenance(effective: dict) -> dict:
    config_blob = json.dumps(effective, sort_keys=True).encode("utf-8")
    return {
        "tool": f"crashbench {__version__}",
        "config_digest": hashlib.sha256(config_blob).hexdigest(),
        "inputs": _digests(),
    }


def _provenance_lines(provenance: dict) -> list[str]:
    lines = [
        f"# tool: {provenance['tool']}\n",
        f"# config_digest: {provenance['config_digest']}\n",
    ]
    for name, digest in provenance["inputs"].items():
        lines.append(f"# input {name}: {digest}\n")
    return lines


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


def _write_csv(path: Path, provenance: dict, header: Iterable[str],
               rows: Iterable[list[str]], verbosity: int) -> None:
    """A CSV output: its provenance lines, ``header``, then ``rows``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_provenance_lines(provenance))
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
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


def _dataset_label(ds) -> str:
    """A dataset's region, state and year, as in "Maricopa, AZ 2022"."""
    state = f", {ds.region.state}" if ds.region.state else ""
    return f"{ds.region.name}{state} {ds.year}"


def cmd_ingest(args) -> int:
    from .ingest import dataset_rows, load_dataset
    from .interchange import load_manifest, write_mileage, write_rows

    opts = _configure(args)
    manifest_path, out = opts["manifest"], opts["out_dir"]
    if manifest_path is None:
        raise ValidationError("ingest needs a manifest (--manifest or config)")
    manifests = load_manifest(manifest_path)
    targets = [out if len(manifests) == 1 else out / _region_slug(ds.region)
               for ds in manifests]
    for ds, target in zip(manifests, targets):
        slug = _region_slug(ds.region)
        if len(manifests) > 1 and (slug in ("", ".", "..") or "/" in slug or "\\" in slug):
            raise ValidationError(
                f"{manifest_path}: {_dataset_label(ds)}: region name {ds.region.name!r} "
                f"is not one directory name under {out}")
        first = manifests[targets.index(target)]
        if first is not ds:
            raise ValidationError(
                f"{manifest_path}: {_dataset_label(first)} and {_dataset_label(ds)} "
                f"would both be written to {target}")
    effective = {
        "command": "ingest",
        "manifest": str(manifest_path),
        "out_dir": str(out),
    }
    for ds, target in zip(manifests, targets):
        target.mkdir(parents=True, exist_ok=True)
        with errors._reading():
            dataset = load_dataset(ds)
            runs = dataset_rows(dataset)
            provenance = _provenance(effective)
        for table, table_runs in runs.items():
            write_rows(target / f"{table}.csv", table, table_runs)
        write_mileage(target / "mileage.csv", dataset.mileage)
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
                **{table: sum(map(len, table_runs)) for table, table_runs in runs.items()},
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


def _select_reports(opts: dict) -> tuple[list[BenchmarkReport], dict]:
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
    effective = {
        "command": "benchmark",
        "manifest": str(manifest_path) if manifest_path else None,
        "aggregates": aggregates,
        "region": region_filter,
        "road_rule": road_rule,
        "rows": [f"{severity.value}:{scheme}" for severity, scheme in rows],
    }
    if aggregates is not None:
        for agg in load_aggregates(aggregates):
            if keep(agg.region):
                reports.append(benchmark_from_aggregates(agg, rows))
    else:
        from .ingest import load_dataset
        from .interchange import load_manifest

        manifests = [
            ds for ds in load_manifest(manifest_path) if keep(ds.region)
        ]
        if road_rule is not None:
            manifests = [
                dataclasses.replace(ds, road_rule=road_rule) for ds in manifests
            ]
        for ds in manifests:
            reports.append(build_benchmark(load_dataset(ds), rows))
    if not reports:
        raise ValidationError(
            f"no dataset matches region {region_filter!r}" if region_filter
            else "no datasets to benchmark"
        )
    return reports, effective


def _emit_benchmark(reports, effective, opts) -> None:
    out, verbosity = opts["out_dir"], opts["verbosity"]
    provenance = _provenance(effective)
    if "csv" in opts["formats"]:
        rows = ([report.region.name, report.region.state, str(report.year), report.road_rule,
                 rate.severity.value, rate.adjustment, _csv_cell(rate.numerator),
                 _csv_cell(rate.vmt_millions), _csv_cell(rate.rate_ipmm), rate.display,
                 _csv_cell(rate.ci_low_ipmm), _csv_cell(rate.ci_high_ipmm)]
                for report in reports for rate in report.rows)
        _write_csv(out / "benchmark.csv", provenance, _BENCH_HEADER, rows, verbosity)
    if "json" in opts["formats"]:
        payload = {
            "provenance": provenance,
            "reports": [_report_dict(r) for r in reports],
        }
        _write_json(out / "benchmark.json", payload, verbosity)


def cmd_benchmark(args) -> int:
    opts = _configure(args)
    reports, effective = _select_reports(opts)
    _emit_benchmark(reports, effective, opts)
    return 0


def _table_rows(path: Path, payload) -> list[tuple[str, str, str, float]]:
    """(region name, severity, adjustment, rate_ipmm) of each row of a
    benchmark.json payload.  A payload of another shape is an input error
    naming the file and the first value that is out of place."""
    check = _json_check(f"benchmark table {path}")
    rows = []
    reports = check(check(payload, dict, "the top level").get("reports"), list, "reports")
    for i, report in enumerate(reports):
        at = f"reports[{i}]"
        region = check(check(report, dict, at).get("region"), dict, f"{at}.region")
        name = check(region.get("name"), str, f"{at}.region.name")
        for j, row in enumerate(check(report.get("rows"), list, f"{at}.rows")):
            row_at = f"{at}.rows[{j}]"
            check(row, dict, row_at)
            rows.append((name, check(row.get("severity"), str, f"{row_at}.severity"),
                         check(row.get("adjustment"), str, f"{row_at}.adjustment"),
                         check(row.get("rate_ipmm"), (int, float), f"{row_at}.rate_ipmm")))
    return rows


def _power_rates(args) -> list[tuple[str, float]]:
    """Benchmark rates for the power table, from flags or a benchmark file."""
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
        with _opened(table_path, "benchmark table") as fh:
            table = _table_rows(table_path, json.loads(fh.read()))
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
            # Of reports for one region, the last one listed wins.
            found = [rate for name, severity, adjustment, rate in table
                     if name.casefold() == region_name.casefold()
                     and severity == severity_name and adjustment == scheme]
            if not found:
                raise ValidationError(f"no benchmark row matches {selector!r}")
            rates.append((f"{region_name}:{severity_name}:{scheme}", float(found[-1])))
    if not rates:
        raise ValidationError(
            "power needs rates: --rate LABEL=VALUE or --benchmark-table with --row"
        )
    return rates


def _emit_power(rates, effective, opts) -> None:
    """The power table over ``rates`` at the power settings, as power.csv/json."""
    relative, alpha, target = opts["relative_rates"], opts["alpha"], opts["target_power"]
    table = power_table(rates, list(relative), alpha=alpha, target_power=target)
    effective = {
        **effective,
        "relative_rates": list(relative),
        "alpha": alpha,
        "target_power": target,
    }
    provenance = _provenance(effective)
    out, verbosity = opts["out_dir"], opts["verbosity"]
    if "csv" in opts["formats"]:
        header = ["label", "benchmark_rate_ipmm",
                  *(f"{r * 100.0:g}%" for r in table.relative_rates)]
        rows = ([label, repr(rate), *(_csv_cell(c.vmt_millions) for c in cells)]
                for label, rate, cells in table.rows)
        _write_csv(out / "power.csv", provenance, header, rows, verbosity)
    if "json" in opts["formats"]:
        _write_json(out / "power.json", _power_payload(table, provenance), verbosity)


def cmd_power(args) -> int:
    opts = _configure(args)
    rates = _power_rates(args)
    effective = {
        "command": "power",
        "rates": [[label, value] for label, value in rates],
    }
    _emit_power(rates, effective, opts)
    return 0


def cmd_synth(args) -> int:
    from .interchange import write_crashes, write_vehicles
    from .synth import PopulationSpec, generate

    opts = _configure(args)
    out = opts["out_dir"]
    spec_path = Path(args.spec)
    spec = PopulationSpec.from_config(str(spec_path))
    crashes, vehicles, truth = generate(spec)
    write_crashes(out / "crashes.csv", crashes)
    write_vehicles(out / "vehicles.csv", vehicles)
    effective = {"command": "synth", "spec": str(spec_path), "seed": spec.seed}
    payload = {
        "provenance": _provenance(effective),
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
    opts = _configure(args)
    reports, effective = _select_reports(opts)
    effective = {**effective, "command": "report"}
    _emit_benchmark(reports, effective, opts)

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
    _emit_power(rates, effective, opts)
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
        with errors._reading():
            return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """``main`` on the command line, as its own process: without the cyclic
    collector, whose passes cost time and would free only the few
    reference cycles a run leaves, and ending without the interpreter's
    teardown.  A flush that fails goes through the teardown, which
    reports it as it would without this entry."""
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
