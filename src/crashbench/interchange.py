"""Canonical record interchange: fixed-header CSV tables and the run manifest.

One CSV file per table (crashes, vehicles, persons, mileage), UTF-8,
minimal RFC-4180 quoting, LF line endings.  Booleans are written as 1/0
and floats with repr so that a write/read/write cycle is byte-identical.

Each table is declared once: header, natural sort key, one encoder from a
record to a row, and one decoder per record field.  The writer sorts rows
on the key, so the same records always give the same bytes.  The reader
streams rows and builds each record through its constructor, so the
record types' own checks run; cells other than ids and floats come from
small domains and are parsed once per distinct text per file.  A cell
that does not parse raises ValidationError naming ``path:line``, the
column and the bad value; a record its constructor rejects names
``path:line`` and the reason.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cache
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .errors import ValidationError
from .model import (
    AreaType,
    BodyClass,
    CrashEvent,
    FunctionalClass,
    Kabco,
    MileageCell,
    PersonOutcome,
    Region,
    RoadClass,
    VehicleInvolvement,
)
from .rates import ROAD_RULES

CRASH_HEADER = (
    "crash_id", "source", "region", "region_state", "year", "road_class",
    "sample_weight", "max_kabco", "tow_away", "airbag_deployed",
)
VEHICLE_HEADER = (
    "crash_id", "unit_id", "body_class", "in_transport", "towed", "airbag_deployed",
)
PERSON_HEADER = ("crash_id", "unit_id", "person_id", "kabco", "airbag_deployed")
MILEAGE_HEADER = (
    "region", "region_state", "year", "functional_class", "area_type", "vmt_millions",
)


class _Table(NamedTuple):
    header: tuple[str, ...]
    key: Callable          # natural sort key of a record
    encode: Callable       # record -> row
    make: Callable         # record constructor
    fields: dict           # "column[,column]" -> parse, in constructor order


_UNMEMOIZED = (str, float)      # ids and measures; every other parse is memoized
_BOOL = {"1": True, "0": False}.__getitem__


def _parse_region(cells: tuple[str, str]) -> Region:
    name, state = cells
    if name == "national" and not state:
        return Region.national()
    return Region.county(name, state)


_CRASHES = _Table(
    CRASH_HEADER, attrgetter("source", "crash_id"),
    lambda c: (
        c.crash_id, c.source, c.region.name, c.region.state, c.year, c.road_class.value,
        repr(c.sample_weight), c.max_kabco.value, int(c.tow_away), int(c.airbag_deployed),
    ),
    CrashEvent,
    {"crash_id": str, "source": str, "region,region_state": _parse_region, "year": int,
     "road_class": RoadClass, "sample_weight": float, "max_kabco": Kabco,
     "tow_away": _BOOL, "airbag_deployed": _BOOL},
)
_VEHICLES = _Table(
    VEHICLE_HEADER, attrgetter("crash_id", "unit_id"),
    lambda v: (
        v.crash_id, v.unit_id, v.body_class.value, int(v.in_transport), int(v.towed),
        int(v.airbag_deployed),
    ),
    VehicleInvolvement,
    {"crash_id": str, "unit_id": str, "body_class": BodyClass, "in_transport": _BOOL,
     "towed": _BOOL, "airbag_deployed": _BOOL},
)
_PERSONS = _Table(
    PERSON_HEADER, attrgetter("crash_id", "unit_id", "person_id"),
    lambda p: (p.crash_id, p.unit_id, p.person_id, p.kabco.value, int(p.airbag_deployed)),
    PersonOutcome,
    {"crash_id": str, "unit_id": str, "person_id": str, "kabco": Kabco,
     "airbag_deployed": _BOOL},
)
_MILEAGE = _Table(
    MILEAGE_HEADER,
    attrgetter("region.name", "year", "functional_class.value", "area_type.value"),
    lambda m: (
        m.region.name, m.region.state, m.year, m.functional_class.value,
        m.area_type.value, repr(m.vmt_millions),
    ),
    MileageCell,
    {"region,region_state": _parse_region, "year": int,
     "functional_class": FunctionalClass, "area_type": AreaType, "vmt_millions": float},
)


def _write_table(path: str | Path, table: _Table, records: Iterable) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(table.header)
        writer.writerows(map(table.encode, sorted(records, key=table.key)))


def _read_table(path: str | Path, table: _Table) -> list:
    header = table.header
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        found = next(reader, None)
        if found is None:
            raise ValidationError(f"{path}: empty file, expected header {','.join(header)}")
        if tuple(found) != header:
            raise ValidationError(
                f"{path}: header {found!r} does not match canonical header {list(header)!r}"
            )
        # Per field: (row -> its cell or cells, cell text -> value).
        plan = [
            (itemgetter(*map(header.index, columns.split(","))),
             parse if parse in _UNMEMOIZED else cache(parse))
            for columns, parse in table.fields.items()
        ]
        width, make = len(header), table.make
        records = []
        for line, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ValidationError(f"{path}:{line}: expected {width} cells, got {len(row)}")
            try:
                values = [decode(cells(row)) for cells, decode in plan]
            except (KeyError, ValueError):
                raise _cell_error(f"{path}:{line}", table, plan, row) from None
            try:
                records.append(make(*values))
            except ValidationError as exc:
                raise ValidationError(f"{path}:{line}: {exc}") from None
    return records


def _cell_error(where: str, table: _Table, plan: list, row: list) -> ValidationError:
    """The error naming the first cell of ``row`` that does not decode."""
    for columns, (cells, decode) in zip(table.fields, plan):
        try:
            decode(cells(row))
        except (KeyError, ValueError):
            return ValidationError(f"{where}: unreadable {columns} {cells(row)!r}")


def write_crashes(path: str | Path, crashes: Iterable[CrashEvent]) -> None:
    _write_table(path, _CRASHES, crashes)


def read_crashes(path: str | Path) -> list[CrashEvent]:
    return _read_table(path, _CRASHES)


def write_vehicles(path: str | Path, vehicles: Iterable[VehicleInvolvement]) -> None:
    _write_table(path, _VEHICLES, vehicles)


def read_vehicles(path: str | Path) -> list[VehicleInvolvement]:
    return _read_table(path, _VEHICLES)


def write_persons(path: str | Path, persons: Iterable[PersonOutcome]) -> None:
    _write_table(path, _PERSONS, persons)


def read_persons(path: str | Path) -> list[PersonOutcome]:
    return _read_table(path, _PERSONS)


def write_mileage(path: str | Path, cells: Iterable[MileageCell]) -> None:
    _write_table(path, _MILEAGE, cells)


def read_mileage(path: str | Path) -> list[MileageCell]:
    return _read_table(path, _MILEAGE)


# ---------------------------------------------------------------------------
# Run manifest


@dataclass(frozen=True)
class CrashSourceRef:
    """One raw crash database in a manifest."""

    spec: str                      # shipped spec name or path to a .spec file
    crash_file: Path
    vehicle_file: Path | None
    person_file: Path | None
    role: str = "all"              # all | nonfatal | fatal
    region_filter: str | None = None


@dataclass(frozen=True)
class MileageRef:
    spec: str
    file: Path
    region_filter: str | None = None


@dataclass(frozen=True)
class ShareRef:
    spec: str
    file: Path


@dataclass(frozen=True)
class DatasetManifest:
    """Everything needed to benchmark one region and year."""

    region: Region
    year: int
    crash_sources: tuple[CrashSourceRef, ...]
    mileage: tuple[MileageRef, ...]
    shares: tuple[ShareRef, ...]
    road_rule: str = "county_functional"


_ROLES = ("all", "nonfatal", "fatal")


def _manifest_region(value) -> Region:
    if isinstance(value, str):
        if value == "national":
            return Region.national()
        raise ValidationError(
            f"manifest region {value!r}: counties must be an object with kind/name/state"
        )
    if not isinstance(value, dict):
        raise ValidationError(f"manifest region must be a string or object, got {value!r}")
    kind = value.get("kind", "county")
    if kind == "national":
        return Region.national()
    return Region.county(value.get("name", ""), value.get("state", ""))


def _resolve(base: Path, value: str) -> Path:
    path = Path(value)
    return path if path.is_absolute() else base / path


def _parse_dataset(obj: dict, base: Path) -> DatasetManifest:
    region = _manifest_region(obj.get("region"))
    try:
        year = int(obj["year"])
    except (KeyError, TypeError, ValueError):
        raise ValidationError(f"manifest dataset for {region.name}: missing or bad year")
    sources = []
    for entry in obj.get("crash_sources", []):
        role = entry.get("role", "all")
        if role not in _ROLES:
            raise ValidationError(f"manifest crash source role {role!r} not one of {_ROLES}")
        sources.append(CrashSourceRef(
            spec=entry["spec"],
            crash_file=_resolve(base, entry["crash_file"]),
            vehicle_file=_resolve(base, entry["vehicle_file"]) if entry.get("vehicle_file") else None,
            person_file=_resolve(base, entry["person_file"]) if entry.get("person_file") else None,
            role=role,
            region_filter=entry.get("region_filter"),
        ))
    mileage = tuple(
        MileageRef(
            spec=entry["spec"],
            file=_resolve(base, entry["file"]),
            region_filter=entry.get("region_filter"),
        )
        for entry in obj.get("mileage", [])
    )
    shares = tuple(
        ShareRef(spec=entry["spec"], file=_resolve(base, entry["file"]))
        for entry in obj.get("shares", [])
    )
    return DatasetManifest(
        region=region,
        year=year,
        crash_sources=tuple(sources),
        mileage=mileage,
        shares=shares,
        road_rule=obj.get("road_rule", "county_functional"),
    )


def load_manifest(path: str | Path) -> list[DatasetManifest]:
    """Read a manifest file; paths inside are resolved against its directory."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    base = path.parent
    if isinstance(obj, dict) and "datasets" in obj:
        datasets = obj["datasets"]
    elif isinstance(obj, dict):
        datasets = [obj]
    else:
        raise ValidationError(f"{path}: manifest must be an object")
    out = [_parse_dataset(entry, base) for entry in datasets]
    if not out:
        raise ValidationError(f"{path}: manifest lists no datasets")
    for ds in out:
        if ds.road_rule not in ROAD_RULES:
            raise ValidationError(
                f"{path}: unknown road rule {ds.road_rule!r}; "
                f"expected one of {sorted(ROAD_RULES)}"
            )
    return out
