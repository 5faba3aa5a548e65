"""Canonical record interchange: fixed-header CSV tables and the run manifest.

One CSV file per table (crashes, vehicles, persons, mileage), UTF-8,
minimal RFC-4180 quoting, LF line endings.  Booleans are written as 1/0
and floats with repr so that a write/read/write cycle is byte-identical.

A canonical row is a tuple of the cells a table's file holds, in header
order, as text.  Each table is declared once: header, the key cells it
sorts on, one encoder from a record to its row, and one decoder per
record field.  There is one writer, ``write_rows``: it sorts rows on the
key cells, stably.  Raw sources load straight to rows
(``ingest.load_crash_source``); ``write_crashes`` and the other record
writers encode, then call it.  Crash, vehicle and person keys are
unique, so the order of their rows does not show in the file; two
mileage cells may share a key and then keep the order given.

Rows are read from a file or taken from memory (``Rows``) alike.
``read_records`` builds each record through its constructor, so the
record types' own checks run.  The benchmark path builds no record:
``read_crashes`` folds a crash table into per-crash columns
(``filters.CrashColumns``), keeping one region and year, and
``read_vehicles`` and ``read_persons`` fold their tables into those
crashes, so the canonical files of a county, or a raw source's rows,
are counted in one pass each.  The folds decode every cell with the
table's own decoders and run the records' checks (``model.check_crash``,
``model.check_unit``) on every row, kept or not.  Either way, cells
other than ids and floats come from small domains and are parsed once
per distinct text per table.  A cell that does not parse raises
ValidationError naming ``path:line``, the column and the bad value; a
row a check rejects names ``path:line`` and the reason; a repeated key
names ``path:line`` and the key.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import ValidationError
from .filters import CrashColumns, crash_evidence, unit_effect
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
    check_crash,
    check_unit,
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
    key: Callable          # canonical row -> its natural sort key
    encode: Callable       # record -> canonical row
    make: Callable         # record constructor
    fields: dict           # "column[,column]" -> parse, in constructor order


_UNMEMOIZED = (str, float)      # ids and measures; every other parse is memoized
_BOOL = {"1": True, "0": False}.__getitem__
FLAG = ("0", "1")               # a flag's cell: FLAG[flag]


def _parse_region(cells: tuple[str, str]) -> Region:
    name, state = cells
    if name == "national" and not state:
        return Region.national()
    return Region.county(name, state)


def _cells(header: tuple[str, ...], *columns: str) -> Callable:
    """Row -> its cells in ``columns`` (one cell for one column), located by
    ``header``."""
    return itemgetter(*map(header.index, columns))


_CRASHES = _Table(
    CRASH_HEADER, _cells(CRASH_HEADER, "source", "crash_id"),
    lambda c: (
        c.crash_id, c.source, c.region.name, c.region.state, str(c.year),
        c.road_class.value, repr(c.sample_weight), c.max_kabco.value,
        FLAG[c.tow_away], FLAG[c.airbag_deployed],
    ),
    CrashEvent,
    {"crash_id": str, "source": str, "region,region_state": _parse_region, "year": int,
     "road_class": RoadClass, "sample_weight": float, "max_kabco": Kabco,
     "tow_away": _BOOL, "airbag_deployed": _BOOL},
)
_VEHICLES = _Table(
    VEHICLE_HEADER, _cells(VEHICLE_HEADER, "crash_id", "unit_id"),
    lambda v: (
        v.crash_id, v.unit_id, v.body_class.value, FLAG[v.in_transport], FLAG[v.towed],
        FLAG[v.airbag_deployed],
    ),
    VehicleInvolvement,
    {"crash_id": str, "unit_id": str, "body_class": BodyClass, "in_transport": _BOOL,
     "towed": _BOOL, "airbag_deployed": _BOOL},
)
_PERSONS = _Table(
    PERSON_HEADER, _cells(PERSON_HEADER, "crash_id", "unit_id", "person_id"),
    lambda p: (p.crash_id, p.unit_id, p.person_id, p.kabco.value, FLAG[p.airbag_deployed]),
    PersonOutcome,
    {"crash_id": str, "unit_id": str, "person_id": str, "kabco": Kabco,
     "airbag_deployed": _BOOL},
)
_MILEAGE = _Table(
    MILEAGE_HEADER, _cells(MILEAGE_HEADER, "region", "year", "functional_class", "area_type"),
    lambda m: (
        m.region.name, m.region.state, str(m.year), m.functional_class.value,
        m.area_type.value, repr(m.vmt_millions),
    ),
    MileageCell,
    {"region,region_state": _parse_region, "year": int,
     "functional_class": FunctionalClass, "area_type": AreaType, "vmt_millions": float},
)
_TABLES = {"crashes": _CRASHES, "vehicles": _VEHICLES, "persons": _PERSONS,
           "mileage": _MILEAGE}


def write_rows(path: str | Path, table: str, rows: Iterable[Sequence[str]]) -> None:
    """The one canonical writer: ``rows`` of ``table`` (crashes, vehicles,
    persons or mileage) sorted on the table's key cells."""
    table = _TABLES[table]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(table.header)
        writer.writerows(sorted(rows, key=table.key))


def encode(table: str, records: Iterable) -> list[tuple[str, ...]]:
    """The canonical rows of ``records`` of ``table``, in the given order."""
    return list(map(_TABLES[table].encode, records))


class Rows(NamedTuple):
    """Canonical rows held in memory, named ``label`` in errors; the folds
    and ``read_records`` take them in place of a file."""

    label: str
    rows: Sequence[Sequence[str]]


@contextmanager
def _lines(source: str | Path | Rows, header: tuple[str, ...]):
    """(where, (line, row) pairs) of a canonical table: a file's rows past
    its checked header, or rows in memory numbered as if below a header."""
    if isinstance(source, Rows):
        yield source.label, enumerate(source.rows, start=2)
        return
    with open(source, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        found = next(reader, None)
        if found is None:
            raise ValidationError(f"{source}: empty file, expected header {','.join(header)}")
        if tuple(found) != header:
            raise ValidationError(
                f"{source}: header {found!r} does not match canonical header {list(header)!r}"
            )
        yield source, enumerate(reader, start=2)


def _plan(table: _Table) -> list:
    """Per field: (row -> its cell or cells, cell text -> value)."""
    return [
        (_cells(table.header, *columns.split(",")),
         parse if parse in _UNMEMOIZED else cache(parse))
        for columns, parse in table.fields.items()
    ]


def _records(source: str | Path | Rows, table: _Table) -> list:
    plan = _plan(table)
    width, make = len(table.header), table.make
    records = []
    with _lines(source, table.header) as (where, lines):
        for line, row in lines:
            if len(row) != width:
                raise _row_error(f"{where}:{line}", table, row)
            try:
                values = [decode(cells(row)) for cells, decode in plan]
            except (KeyError, ValueError):
                raise _row_error(f"{where}:{line}", table, row) from None
            try:
                records.append(make(*values))
            except ValidationError as exc:
                raise ValidationError(f"{where}:{line}: {exc}") from None
    return records


def _row_error(where: str, table: _Table, row: list) -> ValidationError:
    """The error naming what is wrong with ``row``: its width, or the first
    of its cells that does not decode."""
    if len(row) != len(table.header):
        return ValidationError(f"{where}: expected {len(table.header)} cells, got {len(row)}")
    for columns, (cells, decode) in zip(table.fields, _plan(table)):
        try:
            decode(cells(row))
        except (KeyError, ValueError):
            return ValidationError(f"{where}: unreadable {columns} {cells(row)!r}")


def _fold_fields(table: _Table, *names: str) -> tuple[Callable, Callable]:
    """For the table fields ``names`` (two or more columns in all): row ->
    their cells, as one tuple, and that tuple -> the fields' values, each
    decoded by the table's own decoder.  The folds memoize the second on
    the first."""
    columns = [column for name in names for column in name.split(",")]
    getters = [itemgetter(*name.split(",")) for name in names]

    def decode(cells: tuple[str, ...]) -> list:
        by_column = dict(zip(columns, cells))
        return [table.fields[name](get(by_column)) for name, get in zip(names, getters)]

    return _cells(table.header, *columns), decode


def _check_unique(source: str | Path | Rows, table: _Table, *columns: str) -> None:
    """A row whose key (its cells in ``columns``) an earlier line holds is
    an error naming ``path:line``.  The folds notice a possible repeat as
    they read (crash ids by count and by overlap of kept and dropped ids,
    unit and person keys by key order); only then are the rows read a
    second time, here."""
    label = columns[0] if len(columns) == 1 else f"({', '.join(columns)})"
    key = _cells(table.header, *columns)
    seen = set()
    with _lines(source, table.header) as (where, lines):
        for line, row in lines:
            value = key(row)
            if value in seen:
                raise ValidationError(f"{where}:{line}: repeated {label} {value!r}")
            seen.add(value)


class _Memo(dict):
    """Cell texts decoded once per file: a missing key is decoded, and a key
    that does not decode raises KeyError or ValueError."""

    def __init__(self, decode: Callable) -> None:
        super().__init__()
        self.decode = decode

    def __missing__(self, key):
        value = self[key] = self.decode(key)
        return value


@dataclass
class CanonicalFold:
    """Canonical crash, vehicle and person tables folded into per-crash
    columns as they are read, with every row accounted for.

    Crashes of other regions and years are dropped as they are read and
    counted under ``region_filtered`` and ``year_mismatch``.  A vehicle or
    person row of a dropped crash counts as ``parent_dropped``, one whose
    crash is absent from the crash table as ``parent_unknown``.
    """

    columns: CrashColumns
    index: dict[str, int]            # kept crash id -> its position in the columns
    dropped: set[str]                # crash ids of other regions or years
    rows_in: dict[str, int]          # data rows read per table
    records: dict[str, int]          # rows kept per table
    diagnostics: Counter

    def count_orphan(self, crash_id: str) -> None:
        """Count a vehicle or person row whose crash is not kept."""
        self.diagnostics["parent_dropped" if crash_id in self.dropped
                         else "parent_unknown"] += 1


def read_crashes(source: str | Path | Rows, region: Region, year: int) -> CanonicalFold:
    """Fold a crash table (``crashes.csv`` or rows in memory) into per-crash
    columns, keeping ``region`` and ``year``; every row's cells and crash
    checks are read either way."""
    id_and_weight = _cells(CRASH_HEADER, "crash_id", "sample_weight")
    parse_weight = _CRASHES.fields["sample_weight"]
    cells, decode_cells = _fold_fields(
        _CRASHES, "region,region_state", "year", "road_class", "max_kabco", "tow_away",
        "airbag_deployed")

    def decode(key: tuple[str, ...]) -> tuple[int, str, RoadClass, int]:
        """Year, fate ("" when kept, else the diagnostic), road class and
        severity evidence of a row's cells other than its id and weight."""
        found, year_value, road, kabco, tow, airbag = decode_cells(key)
        fate = ("region_filtered" if found != region
                else "year_mismatch" if year_value != year else "")
        return year_value, fate, road, crash_evidence(kabco, tow, airbag)

    decoded = _Memo(decode)
    width = len(CRASH_HEADER)
    ids, weights, road_class, evidence = [], [], [], []
    index: dict[str, int] = {}
    dropped: set[str] = set()
    diagnostics: Counter = Counter()
    line = 1
    with _lines(source, CRASH_HEADER) as (where, lines):
        for line, row in lines:
            if len(row) != width:
                raise _row_error(f"{where}:{line}", _CRASHES, row)
            try:
                crash_id, weight = id_and_weight(row)
                year_value, fate, road, bits = decoded[cells(row)]
                weight = parse_weight(weight)
            except (KeyError, ValueError):
                raise _row_error(f"{where}:{line}", _CRASHES, row) from None
            try:
                check_crash(crash_id, weight, year_value)
            except ValidationError as exc:
                raise ValidationError(f"{where}:{line}: {exc}") from None
            if fate:
                diagnostics[fate] += 1
                dropped.add(crash_id)
                continue
            index[crash_id] = len(ids)
            ids.append(crash_id)
            weights.append(weight)
            road_class.append(road)
            evidence.append(bits)
    # Each row adds its id to ``index`` or ``dropped``: the ids are distinct
    # when neither holds a repeat and no id is in both.
    if len(index) + len(dropped) < line - 1 or not index.keys().isdisjoint(dropped):
        _check_unique(source, _CRASHES, "crash_id")
    return CanonicalFold(
        columns=CrashColumns.of_crashes(ids, weights, road_class, evidence),
        index=index, dropped=dropped,
        rows_in={"crashes": line - 1, "vehicles": 0, "persons": 0},
        records={"crashes": len(ids), "vehicles": 0, "persons": 0},
        diagnostics=diagnostics,
    )


def read_vehicles(source: str | Path | Rows, fold: CanonicalFold) -> None:
    """Fold a vehicle table (``vehicles.csv`` or rows in memory) into the
    unit tallies and severity evidence of ``fold``'s crashes
    (``filters.unit_effect``); no record is built."""
    columns = fold.columns
    unit_key = _cells(VEHICLE_HEADER, "crash_id", "unit_id")
    cells, decode = _fold_fields(
        _VEHICLES, "body_class", "in_transport", "towed", "airbag_deployed")
    effects = _Memo(lambda key: _effect(columns, *decode(key)))
    index, evidence = fold.index, columns.evidence
    width = len(VEHICLE_HEADER)
    orphans, in_order, last_crash, last_unit, i = 0, True, "", "", None
    line = 1
    with _lines(source, VEHICLE_HEADER) as (where, lines):
        for line, row in lines:
            if len(row) != width:
                raise _row_error(f"{where}:{line}", _VEHICLES, row)
            try:
                tally, bits = effects[cells(row)]
            except (KeyError, ValueError):
                raise _row_error(f"{where}:{line}", _VEHICLES, row) from None
            crash_id, unit_id = unit_key(row)
            try:
                check_unit(crash_id, unit_id)
            except ValidationError as exc:
                raise ValidationError(f"{where}:{line}: {exc}") from None
            # Key order is checked as rows pass; a crash's units sit together
            # in a canonical file and in a raw source's rows, so its position
            # is looked up once.
            if crash_id == last_crash:
                in_order = in_order and unit_id > last_unit
            else:
                in_order = in_order and crash_id > last_crash
                last_crash, i = crash_id, index.get(crash_id)
            last_unit = unit_id
            if i is None:
                fold.count_orphan(crash_id)
                orphans += 1
                continue
            tally[i] += 1
            evidence[i] |= bits
    if not in_order:
        _check_unique(source, _VEHICLES, "crash_id", "unit_id")
    fold.rows_in["vehicles"] = line - 1
    fold.records["vehicles"] = line - 1 - orphans


def _effect(columns: CrashColumns, *unit) -> tuple[list[int], int]:
    tally, bits = unit_effect(*unit)
    return getattr(columns, tally), bits


def read_persons(path: str | Path, fold: CanonicalFold) -> None:
    """Count ``persons.csv``'s rows against ``fold``'s crashes; persons are
    checked and counted for the audit, not kept."""
    person_key = _cells(PERSON_HEADER, "crash_id", "unit_id", "person_id")
    cells, decode = _fold_fields(_PERSONS, "kabco", "airbag_deployed")
    decoded = _Memo(decode)
    index = fold.index
    width = len(PERSON_HEADER)
    orphans, in_order, last = 0, True, ("", "", "")
    line = 1
    with _lines(path, PERSON_HEADER) as (where, lines):
        for line, row in lines:
            if len(row) != width:
                raise _row_error(f"{where}:{line}", _PERSONS, row)
            try:
                decoded[cells(row)]
            except (KeyError, ValueError):
                raise _row_error(f"{where}:{line}", _PERSONS, row) from None
            key = person_key(row)
            in_order = in_order and key > last
            last = key
            if key[0] not in index:
                fold.count_orphan(key[0])
                orphans += 1
    if not in_order:
        _check_unique(path, _PERSONS, "crash_id", "unit_id", "person_id")
    fold.rows_in["persons"] = line - 1
    fold.records["persons"] = line - 1 - orphans


def write_crashes(path: str | Path, crashes: Iterable[CrashEvent]) -> None:
    write_rows(path, "crashes", encode("crashes", crashes))


def write_vehicles(path: str | Path, vehicles: Iterable[VehicleInvolvement]) -> None:
    write_rows(path, "vehicles", encode("vehicles", vehicles))


def write_persons(path: str | Path, persons: Iterable[PersonOutcome]) -> None:
    write_rows(path, "persons", encode("persons", persons))


def write_mileage(path: str | Path, cells: Iterable[MileageCell]) -> None:
    write_rows(path, "mileage", encode("mileage", cells))


def read_mileage(path: str | Path) -> list[MileageCell]:
    return _records(path, _MILEAGE)


def read_records(source: str | Path | Rows, table: str) -> list:
    """Every record of one canonical table (crashes, vehicles, persons or
    mileage), from a file or from rows in memory, each built through its
    constructor.  The benchmark path folds crash tables instead
    (``read_crashes``)."""
    return _records(source, _TABLES[table])


def read_rows(path: str | Path, table: str) -> list[list[str]]:
    """Every row of one canonical file as the writer gives it back: a number
    cell (a year, a weight, a mileage) is written again from its value, so
    ``" 2022"`` reads ``"2022"`` and ``"1"`` reads ``"1.0"``.  The other
    cells are kept as read, unchecked; ``ingest`` reads only files that the
    folds have checked."""
    table = _TABLES[table]
    numbers = [(table.header.index(column), cache(lambda text, parse=parse: repr(parse(text))))
               for column, parse in table.fields.items() if parse in (int, float)]
    width = len(table.header)
    rows = []
    with _lines(path, table.header) as (where, lines):
        for line, row in lines:
            try:
                if len(row) != width:
                    raise ValueError
                for at, normal in numbers:
                    row[at] = normal(row[at])
            except ValueError:
                raise _row_error(f"{where}:{line}", table, row) from None
            rows.append(row)
    return rows


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
