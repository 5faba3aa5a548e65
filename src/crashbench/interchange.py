"""Canonical record interchange: fixed-header CSV tables and the run manifest.

One CSV file per table (crashes, vehicles, persons, mileage), UTF-8,
minimal RFC-4180 quoting, LF line endings.  Booleans are written as 1/0
and floats with repr so that a write/read/write cycle is byte-identical.
Rows are sorted on their natural keys before writing, so regenerating a
file from the same records always produces the same bytes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

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


def _fmt_bool(value: bool) -> str:
    return "1" if value else "0"


def _parse_bool(cell: str, context: str) -> bool:
    if cell == "1":
        return True
    if cell == "0":
        return False
    raise ValidationError(f"{context}: boolean cell must be 1 or 0, got {cell!r}")


def _region_columns(region: Region) -> tuple[str, str]:
    return region.name, region.state


def _parse_region(name: str, state: str) -> Region:
    if name == "national" and not state:
        return Region.national()
    return Region.county(name, state)


def _open_writer(path: Path):
    handle = open(path, "w", encoding="utf-8", newline="")
    return handle, csv.writer(handle, lineterminator="\n")


def _read_rows(path: Path, header: Sequence[str]) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            found = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file, expected header {','.join(header)}")
        if tuple(found) != tuple(header):
            raise ValidationError(
                f"{path}: header {found!r} does not match canonical header {list(header)!r}"
            )
        rows = []
        for i, raw in enumerate(reader, start=2):
            if len(raw) != len(header):
                raise ValidationError(f"{path}:{i}: expected {len(header)} cells, got {len(raw)}")
            rows.append(dict(zip(header, raw)))
    return rows


def write_crashes(path: str | Path, crashes: Iterable[CrashEvent]) -> None:
    handle, writer = _open_writer(Path(path))
    with handle:
        writer.writerow(CRASH_HEADER)
        for c in sorted(crashes, key=attrgetter("source", "crash_id")):
            name, state = _region_columns(c.region)
            writer.writerow([
                c.crash_id, c.source, name, state, c.year, c.road_class.value,
                repr(c.sample_weight), c.max_kabco.value,
                _fmt_bool(c.tow_away), _fmt_bool(c.airbag_deployed),
            ])


def read_crashes(path: str | Path) -> list[CrashEvent]:
    out = []
    for row in _read_rows(Path(path), CRASH_HEADER):
        ctx = f"crash {row['crash_id']}"
        out.append(CrashEvent(
            crash_id=row["crash_id"],
            source=row["source"],
            region=_parse_region(row["region"], row["region_state"]),
            year=int(row["year"]),
            road_class=RoadClass(row["road_class"]),
            sample_weight=float(row["sample_weight"]),
            max_kabco=Kabco(row["max_kabco"]),
            tow_away=_parse_bool(row["tow_away"], ctx),
            airbag_deployed=_parse_bool(row["airbag_deployed"], ctx),
        ))
    return out


def write_vehicles(path: str | Path, vehicles: Iterable[VehicleInvolvement]) -> None:
    handle, writer = _open_writer(Path(path))
    with handle:
        writer.writerow(VEHICLE_HEADER)
        for v in sorted(vehicles, key=attrgetter("crash_id", "unit_id")):
            writer.writerow([
                v.crash_id, v.unit_id, v.body_class.value,
                _fmt_bool(v.in_transport), _fmt_bool(v.towed),
                _fmt_bool(v.airbag_deployed),
            ])


def read_vehicles(path: str | Path) -> list[VehicleInvolvement]:
    out = []
    for row in _read_rows(Path(path), VEHICLE_HEADER):
        ctx = f"vehicle {row['crash_id']}/{row['unit_id']}"
        out.append(VehicleInvolvement(
            crash_id=row["crash_id"],
            unit_id=row["unit_id"],
            body_class=BodyClass(row["body_class"]),
            in_transport=_parse_bool(row["in_transport"], ctx),
            towed=_parse_bool(row["towed"], ctx),
            airbag_deployed=_parse_bool(row["airbag_deployed"], ctx),
        ))
    return out


def write_persons(path: str | Path, persons: Iterable[PersonOutcome]) -> None:
    handle, writer = _open_writer(Path(path))
    with handle:
        writer.writerow(PERSON_HEADER)
        for p in sorted(persons, key=attrgetter("crash_id", "unit_id", "person_id")):
            writer.writerow([
                p.crash_id, p.unit_id, p.person_id, p.kabco.value,
                _fmt_bool(p.airbag_deployed),
            ])


def read_persons(path: str | Path) -> list[PersonOutcome]:
    out = []
    for row in _read_rows(Path(path), PERSON_HEADER):
        ctx = f"person {row['crash_id']}/{row['person_id']}"
        out.append(PersonOutcome(
            crash_id=row["crash_id"],
            unit_id=row["unit_id"],
            person_id=row["person_id"],
            kabco=Kabco(row["kabco"]),
            airbag_deployed=_parse_bool(row["airbag_deployed"], ctx),
        ))
    return out


def write_mileage(path: str | Path, cells: Iterable[MileageCell]) -> None:
    handle, writer = _open_writer(Path(path))
    with handle:
        writer.writerow(MILEAGE_HEADER)
        ordered = sorted(cells, key=attrgetter(
            "region.name", "year", "functional_class.value", "area_type.value"))
        for m in ordered:
            name, state = _region_columns(m.region)
            writer.writerow([
                name, state, m.year, m.functional_class.value, m.area_type.value,
                repr(m.vmt_millions),
            ])


def read_mileage(path: str | Path) -> list[MileageCell]:
    out = []
    for row in _read_rows(Path(path), MILEAGE_HEADER):
        out.append(MileageCell(
            region=_parse_region(row["region"], row["region_state"]),
            year=int(row["year"]),
            functional_class=FunctionalClass(row["functional_class"]),
            area_type=AreaType(row["area_type"]),
            vmt_millions=float(row["vmt_millions"]),
        ))
    return out


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
