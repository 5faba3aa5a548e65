"""Raw file loading: spec-driven adapters to the canonical record model.

Every raw row either becomes exactly one canonical record or is counted
under exactly one diagnostic reason, so row counts are conserved and the
filter audit can account for every exclusion.  Unknown codes never drop a
record silently: they classify to an explicit unknown bucket and bump a
warning counter.

Raw tables are read into positional rows with the semantics of
``csv.DictReader``: blank lines are skipped, a short row is padded with
nulls (a missing cell is null, so rules over it evaluate to unknown),
extra cells are ignored, and a header name that appears twice resolves
to its last column.  Each spec rule is bound once per file to the
positions of the cells it reads and memoized on those cells: rows that
hold equal cells share one ``Rule.eval`` (or code-table lookup) call,
made on a dict of just those cells.  Warnings are still counted once per
row, never once per evaluation.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice, pairwise
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable

from .errors import ReferentialError, SchemaError, ValidationError
from . import interchange
from .model import (
    BodyClass,
    CrashEvent,
    Kabco,
    KABCO_FOLD_RANK,
    MileageCell,
    PassengerShareTable,
    PersonOutcome,
    Region,
    VehicleInvolvement,
)
from .schema import CodeMap, Rule, SchemaSpec, load_schema


@dataclass
class LoadResult:
    """Canonical records from one raw source, plus row accounting.

    The flags mirror what the source can support downstream: whether tow
    status is known per unit or only per crash, whether airbag flags are
    populated on units, and whether sample weights are meaningful.
    """

    tag: str
    crashes: list[CrashEvent]
    vehicles: list[VehicleInvolvement]
    persons: list[PersonOutcome]
    diagnostics: Counter = field(default_factory=Counter)
    rows_in: dict = field(default_factory=dict)
    weighted: bool = False
    tow_level: str = "none"           # vehicle | crash | none
    airbag_units: bool = False
    caveats: tuple[str, ...] = ()


def _read_table(path: Path, required: set[str],
                label: str) -> tuple[dict[str, int], list[list]]:
    """(column name -> position, rows) of one raw CSV file.

    A duplicated header name maps to its last column, blank lines are
    skipped and short rows are padded with None, as ``csv.DictReader``
    would read them.
    """
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValidationError(f"{label} file {path}: {exc}") from None
    with handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        positions = {name: i for i, name in enumerate(header)}
        missing = sorted(required - positions.keys())
        if missing:
            raise SchemaError(f"{label} file {path}: missing column(s) {', '.join(missing)}")
        width = len(header)
        rows = []
        for row in reader:
            if len(row) < width:
                if not row:
                    continue
                row += [None] * (width - len(row))
            rows.append(row)
    return positions, rows


def _locator(label: str, path: str | Path, rows: list[list]) -> Callable[[list], str]:
    """``row -> "LABEL file PATH:LINE"`` for errors about one of the ``rows``
    ``_read_table`` read from ``path``.  Only an error reads the file again."""
    def locate(row: list) -> str:
        index = next(i for i, r in enumerate(rows) if r is row)
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            next(reader, None)
            lines = (reader.line_num for r in reader if r)
            return f"{label} file {path}:{next(islice(lines, index, None))}"

    return locate


def _bind(positions: dict[str, int], columns: Iterable[str],
          evaluate: Callable[[dict], object]) -> Callable[[list], object]:
    """``evaluate`` of a row's cells at ``columns``, memoized on those cells.

    ``evaluate`` sees a dict of just those cells, so spec rules keep their
    one evaluator; rows holding equal cells share one call.  The cache
    lives as long as the returned function.
    """
    columns = sorted(columns)
    getter = itemgetter(*(positions[c] for c in columns))
    cache: dict = {}

    def classify(row: list):
        key = getter(row)
        try:
            return cache[key]
        except KeyError:
            cells = dict(zip(columns, key)) if len(columns) > 1 else {columns[0]: key}
            value = cache[key] = evaluate(cells)
            return value

    return classify


def _bind_kabco(positions: dict[str, int], column: str,
                codes: CodeMap) -> Callable[[list], tuple[Kabco, bool]]:
    """(KABCO, known) of a row; an empty or unmapped cell is (UNK, False)."""
    def lookup(cells: dict) -> tuple[Kabco, bool]:
        kabco = codes.get(cells[column])
        return (Kabco.UNK, False) if kabco is None else (kabco, True)

    return _bind(positions, (column,), lookup)


def _crash_columns(spec: SchemaSpec) -> set[str]:
    crash = spec.crash
    cols = {crash.id_column}
    for col in (crash.year_column, crash.weight_column):
        if col:
            cols.add(col)
    if crash.kabco_column is not None:
        cols.add(crash.kabco_column)
    cols.update(_rule_columns(crash.road.surface, crash.road.excluded, crash.towed))
    return cols


def _unit_rules(spec: SchemaSpec) -> tuple[Rule | None, ...]:
    v = spec.vehicle
    return (v.passenger, v.vehicle_nfs, v.non_vehicle, v.in_transport, v.towed, v.airbag)


def _rule_columns(*rules: Rule | None) -> set[str]:
    return {col for rule in rules if rule is not None for col in rule.columns()}


def _vehicle_columns(spec: SchemaSpec) -> set[str]:
    v = spec.vehicle
    return {v.id_column, v.crash_column} | _rule_columns(*_unit_rules(spec))


def _person_columns(spec: SchemaSpec) -> set[str]:
    p = spec.person
    cols = {p.id_column, p.crash_column}
    if p.unit_column:
        cols.add(p.unit_column)
    if p.kabco_column is not None:
        cols.add(p.kabco_column)
    if p.airbag is not None:
        cols.update(p.airbag.columns())
    return cols


def _eval_flag(rule: Rule | None, row: dict, diagnostics: Counter, warn_key: str) -> bool:
    """Evaluate a boolean rule; missing inputs count as false plus a warning."""
    if rule is None:
        return False
    value = rule.eval(row)
    if value is None:
        diagnostics[warn_key] += 1
        return False
    return value


def _classify_unit(spec: SchemaSpec, cells: dict) -> tuple:
    """(body class, in transport, towed, airbag, warning keys) of one unit."""
    v = spec.vehicle
    warnings: Counter = Counter()
    return (
        _classify_body(spec, cells, warnings),
        _eval_flag(v.in_transport, cells, warnings, "unknown_in_transport"),
        _eval_flag(v.towed, cells, warnings, "unknown_towed"),
        _eval_flag(v.airbag, cells, warnings, "unknown_airbag"),
        tuple(warnings.elements()),
    )


def _unit_ref(spec: SchemaSpec, cell: str | None) -> str:
    """The unit a person row names, or "" when it names none."""
    null_codes = spec.person.unit_null_codes
    cell = (cell or "").strip()
    if cell and not (null_codes is not None and null_codes.contains(cell)):
        return cell
    return ""


def load_crash_source(
    spec: SchemaSpec,
    crash_file: str | Path,
    vehicle_file: str | Path | None = None,
    person_file: str | Path | None = None,
    *,
    region: Region,
    year: int,
    region_filter: str | None = None,
) -> LoadResult:
    """Normalize one raw crash database extract.

    Produces one CrashEvent per retained crash row, one VehicleInvolvement
    per unit row, and one PersonOutcome per person row.  Person airbag
    flags fold into their unit and crash; person injury codes fold into
    the crash-level maximum when the spec says severity lives on the
    person table.  A child row pointing at a crash id that never appeared
    raises; a child of a deliberately dropped crash is counted instead.
    """
    if spec.kind != "crash":
        raise SchemaError(f"spec {spec.tag} is a {spec.kind} spec, not a crash spec")
    diagnostics: Counter = Counter()
    filter_rule = (
        Rule.parse(region_filter, f"{spec.tag} region_filter")
        if region_filter else None
    )

    crash_pos, crash_rows = _read_table(
        Path(crash_file),
        _crash_columns(spec) | (filter_rule.columns() if filter_rule else set()),
        f"{spec.tag} crash",
    )
    vehicle_pos, vehicle_rows = (
        _read_table(Path(vehicle_file), _vehicle_columns(spec), f"{spec.tag} vehicle")
        if vehicle_file is not None else ({}, [])
    )
    person_pos, person_rows = (
        _read_table(Path(person_file), _person_columns(spec), f"{spec.tag} person")
        if person_file is not None and spec.person is not None else ({}, [])
    )
    locate_crash = _locator(f"{spec.tag} crash", crash_file, crash_rows)
    locate_vehicle = _locator(f"{spec.tag} vehicle", vehicle_file, vehicle_rows)
    locate_person = _locator(f"{spec.tag} person", person_file, person_rows)
    rows_in = {
        "crashes": len(crash_rows),
        "vehicles": len(vehicle_rows),
        "persons": len(person_rows),
    }

    crash_schema = spec.crash
    id_at = crash_pos[crash_schema.id_column]
    year_column = crash_schema.year_column
    region_match = (_bind(crash_pos, filter_rule.columns(), filter_rule.eval)
                    if filter_rule is not None else None)
    kept: dict[str, list] = {}       # crash_id -> raw row
    dropped: set[str] = set()
    for row in crash_rows:
        crash_id = (row[id_at] or "").strip()
        if not crash_id:
            raise ValidationError(
                f"{locate_crash(row)}: crash row with empty id column {crash_schema.id_column}"
            )
        if crash_id in kept or crash_id in dropped:
            raise ValidationError(f"{locate_crash(row)}: duplicate crash id {crash_id}")
        if region_match is not None:
            match = region_match(row)
            if match is not True:
                key = "region_filtered" if match is False else "region_filter_unknown"
                diagnostics[key] += 1
                dropped.add(crash_id)
                continue
        if year_column:
            cell = (row[crash_pos[year_column]] or "").strip()
            try:
                row_year = int(cell)
            except ValueError:
                raise ValidationError(
                    f"{locate_crash(row)}: crash {crash_id} has unreadable year {cell!r} "
                    f"in column {year_column}"
                )
            if row_year != year:
                diagnostics["year_mismatch"] += 1
                dropped.add(crash_id)
                continue
        kept[crash_id] = row

    # Units, with folds accumulated per crash.  A unit's memo entry is
    # shared by every unit whose classifier cells are equal.
    vehicle_schema = spec.vehicle
    unit_info: dict[tuple[str, str], tuple] = {}
    crash_towed: set[str] = set()
    crash_airbag: set[str] = set()
    if vehicle_rows:
        vcrash_at = vehicle_pos[vehicle_schema.crash_column]
        unit_at = vehicle_pos[vehicle_schema.id_column]
        classify_unit = _bind(vehicle_pos, _rule_columns(*_unit_rules(spec)),
                              lambda cells: _classify_unit(spec, cells))
    for row in vehicle_rows:
        crash_id = (row[vcrash_at] or "").strip()
        if crash_id in dropped:
            diagnostics["parent_dropped"] += 1
            continue
        if crash_id not in kept:
            raise ReferentialError(
                f"{locate_vehicle(row)}: vehicle row references unknown crash {crash_id!r}"
            )
        unit_id = (row[unit_at] or "").strip()
        if not unit_id:
            raise ValidationError(
                f"{locate_vehicle(row)}: crash {crash_id} has a unit with no id "
                f"in column {vehicle_schema.id_column}"
            )
        if (crash_id, unit_id) in unit_info:
            raise ValidationError(f"{locate_vehicle(row)}: duplicate unit {crash_id}/{unit_id}")
        info = unit_info[(crash_id, unit_id)] = classify_unit(row)
        _, _, towed, airbag, warnings = info
        if warnings:
            diagnostics.update(warnings)
        if towed:
            crash_towed.add(crash_id)
        if airbag:
            crash_airbag.add(crash_id)

    # Persons.
    person_schema = spec.person
    persons: list[PersonOutcome] = []
    person_seen: set[tuple[str, str, str]] = set()
    person_airbag: set[tuple[str, str]] = set()
    crash_person_kabco: dict[str, Kabco] = {}
    if person_rows:
        pcrash_at = person_pos[person_schema.crash_column]
        person_at = person_pos[person_schema.id_column]
        unit_column = person_schema.unit_column
        unit_ref = (_bind(person_pos, (unit_column,),
                          lambda cells: _unit_ref(spec, cells[unit_column]))
                    if unit_column else None)
        person_kabco = (_bind_kabco(person_pos, person_schema.kabco_column,
                                    person_schema.kabco)
                        if person_schema.kabco is not None else None)
        airbag_rule = person_schema.airbag
        person_airbag_of = (_bind(person_pos, airbag_rule.columns(), airbag_rule.eval)
                            if airbag_rule is not None else None)
    for row in person_rows:
        crash_id = (row[pcrash_at] or "").strip()
        if crash_id in dropped:
            diagnostics["parent_dropped"] += 1
            continue
        if crash_id not in kept:
            raise ReferentialError(
                f"{locate_person(row)}: person row references unknown crash {crash_id!r}"
            )
        unit_id = unit_ref(row) if unit_ref is not None else ""
        if unit_id and (crash_id, unit_id) not in unit_info:
            raise ReferentialError(
                f"{locate_person(row)}: person row references unknown unit "
                f"{crash_id}/{unit_id}"
            )
        person_id = (row[person_at] or "").strip()
        if not person_id:
            raise ValidationError(
                f"{locate_person(row)}: crash {crash_id} has a person with no id "
                f"in column {person_schema.id_column}"
            )
        if (crash_id, unit_id, person_id) in person_seen:
            raise ValidationError(
                f"{locate_person(row)}: duplicate person {crash_id}/{unit_id}/{person_id}"
            )
        person_seen.add((crash_id, unit_id, person_id))
        if person_kabco is not None:
            kabco, known = person_kabco(row)
            if not known:
                diagnostics["unknown_person_kabco"] += 1
        else:
            kabco = Kabco.UNK
        airbag = False
        if person_airbag_of is not None:
            airbag = person_airbag_of(row)
            if airbag is None:
                diagnostics["unknown_airbag"] += 1
                airbag = False
        persons.append(PersonOutcome(
            crash_id=crash_id, unit_id=unit_id, person_id=person_id,
            kabco=kabco, airbag_deployed=airbag,
        ))
        if airbag:
            if unit_id:
                person_airbag.add((crash_id, unit_id))
            crash_airbag.add(crash_id)
        prev = crash_person_kabco.get(crash_id)
        if prev is None or KABCO_FOLD_RANK[kabco] > KABCO_FOLD_RANK[prev]:
            crash_person_kabco[crash_id] = kabco

    vehicles = [
        VehicleInvolvement(
            crash_id=crash_id,
            unit_id=unit_id,
            body_class=body,
            in_transport=in_transport,
            towed=towed,
            airbag_deployed=airbag or (crash_id, unit_id) in person_airbag,
        )
        for (crash_id, unit_id), (body, in_transport, towed, airbag, _)
        in unit_info.items()
    ]

    crashes: list[CrashEvent] = []
    road_class_of = _bind(crash_pos, _rule_columns(crash_schema.road.surface,
                                                   crash_schema.road.excluded),
                          crash_schema.road.classify)
    crash_kabco = (_bind_kabco(crash_pos, crash_schema.kabco_column, crash_schema.kabco)
                   if spec.kabco_from == "crash" else None)
    crash_towed_of = (_bind(crash_pos, crash_schema.towed.columns(), crash_schema.towed.eval)
                      if crash_schema.towed is not None else None)
    weight_column = crash_schema.weight_column
    for crash_id, row in kept.items():
        road_class, known = road_class_of(row)
        if not known:
            diagnostics["unknown_road"] += 1
        if crash_kabco is not None:
            kabco, kabco_known = crash_kabco(row)
            if not kabco_known:
                diagnostics["unknown_kabco"] += 1
        else:
            kabco = crash_person_kabco.get(crash_id, Kabco.UNK)
            if kabco is Kabco.UNK:
                diagnostics["unknown_kabco"] += 1
        if weight_column:
            cell = (row[crash_pos[weight_column]] or "").strip()
            try:
                weight = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{locate_crash(row)}: crash {crash_id} has unreadable weight {cell!r} "
                    f"in column {weight_column}"
                )
        else:
            weight = 1.0
        towed = crash_id in crash_towed
        if not towed and crash_towed_of is not None:
            towed = crash_towed_of(row)
            if towed is None:
                diagnostics["unknown_towed"] += 1
                towed = False
        try:
            crashes.append(CrashEvent(
                crash_id=crash_id,
                source=spec.tag,
                region=region,
                year=year,
                road_class=road_class,
                sample_weight=weight,
                max_kabco=kabco,
                tow_away=towed,
                airbag_deployed=crash_id in crash_airbag,
            ))
        except ValidationError as exc:
            raise ValidationError(f"{locate_crash(row)}: {exc}") from None

    airbag_units = vehicle_schema.airbag is not None or (
        spec.person is not None and spec.person.airbag is not None
        and spec.person.unit_column is not None
    )
    return LoadResult(
        tag=spec.tag, crashes=crashes, vehicles=vehicles, persons=persons,
        diagnostics=diagnostics, rows_in=rows_in, weighted=spec.weighted,
        tow_level=spec.tow_level, airbag_units=airbag_units,
        caveats=spec.caveats,
    )


def _classify_body(spec: SchemaSpec, row: dict, diagnostics: Counter) -> BodyClass:
    v = spec.vehicle
    p = v.passenger.eval(row)
    if p is True:
        return BodyClass.PASSENGER
    nfs = v.vehicle_nfs.eval(row) if v.vehicle_nfs is not None else False
    if nfs is True:
        return BodyClass.VEHICLE_NFS
    non = v.non_vehicle.eval(row) if v.non_vehicle is not None else False
    if non is True:
        return BodyClass.NON_VEHICLE
    if p is None or nfs is None or non is None:
        # vehicle of unknown type; route to NFS so imputation covers it
        diagnostics["unknown_body"] += 1
        return BodyClass.VEHICLE_NFS
    return BodyClass.OTHER_VEHICLE


@dataclass
class CombinedRecords:
    """Crash/vehicle/person records merged across a dataset's sources, in input order."""

    crashes: list[CrashEvent]
    vehicles: list[VehicleInvolvement]
    persons: list[PersonOutcome]
    diagnostics: Counter
    unit_tow_flags: bool
    unit_airbag_flags: bool
    weighted: bool
    caveats: tuple[str, ...]


def combine_sources(loads: list[tuple[str, LoadResult]]) -> CombinedRecords:
    """Merge per-source loads under their dataset roles.

    A nonfatal-role source contributes only its non-fatal crashes and a
    fatal-role source only its fatal ones, so a sampled non-fatal database
    and a fatal census can cover one region without double counting.
    """
    crashes: list[CrashEvent] = []
    vehicles: list[VehicleInvolvement] = []
    persons: list[PersonOutcome] = []
    diagnostics: Counter = Counter()
    caveats: list[str] = []
    seen_ids: dict[str, str] = {}
    unit_tow = True
    unit_airbag = True
    weighted = False
    for role, load in loads:
        diagnostics.update(load.diagnostics)
        for caveat in load.caveats:
            if caveat not in caveats:
                caveats.append(caveat)
        if load.tow_level != "vehicle":
            unit_tow = False
        if not load.airbag_units:
            unit_airbag = False
        if load.weighted:
            weighted = True
        drop: set[str] = set()
        for crash in load.crashes:
            is_fatal = crash.max_kabco is Kabco.K
            if (role == "nonfatal" and is_fatal) or (role == "fatal" and not is_fatal):
                drop.add(crash.crash_id)
                diagnostics["role_excluded"] += 1
                continue
            if crash.crash_id in seen_ids:
                raise ValidationError(
                    f"crash id {crash.crash_id} appears in both "
                    f"{seen_ids[crash.crash_id]} and {load.tag}"
                )
            seen_ids[crash.crash_id] = load.tag
            crashes.append(crash)
        if drop:
            vehicles.extend(v for v in load.vehicles if v.crash_id not in drop)
            persons.extend(p for p in load.persons if p.crash_id not in drop)
        else:
            vehicles.extend(load.vehicles)
            persons.extend(load.persons)
    return CombinedRecords(
        crashes=crashes, vehicles=vehicles, persons=persons,
        diagnostics=diagnostics, unit_tow_flags=unit_tow,
        unit_airbag_flags=unit_airbag, weighted=weighted,
        caveats=tuple(caveats),
    )


def load_mileage(
    spec: SchemaSpec,
    file: str | Path,
    *,
    region: Region,
    year: int,
    region_filter: str | None = None,
) -> tuple[list[MileageCell], Counter]:
    if spec.kind != "mileage":
        raise SchemaError(f"spec {spec.tag} is a {spec.kind} spec, not a mileage spec")
    schema = spec.mileage
    diagnostics: Counter = Counter()
    filter_rule = (
        Rule.parse(region_filter, f"{spec.tag} region_filter")
        if region_filter else None
    )
    required = {schema.class_column, schema.vmt_column}
    for col in (schema.area_column, schema.year_column):
        if col:
            required.add(col)
    if filter_rule is not None:
        required.update(filter_rule.columns())
    positions, rows = _read_table(Path(file), required, f"{spec.tag} mileage")
    locate = _locator(f"{spec.tag} mileage", file, rows)
    region_match = (_bind(positions, filter_rule.columns(), filter_rule.eval)
                    if filter_rule is not None else None)
    class_at = positions[schema.class_column]
    vmt_at = positions[schema.vmt_column]
    area_at = positions[schema.area_column] if schema.area_column else None
    cells: list[MileageCell] = []
    for row in rows:
        if region_match is not None and region_match(row) is not True:
            diagnostics["region_filtered"] += 1
            continue
        if schema.year_column:
            cell_text = (row[positions[schema.year_column]] or "").strip()
            try:
                row_year = int(cell_text)
            except ValueError:
                raise ValidationError(f"{locate(row)}: unreadable year {cell_text!r}")
            if row_year != year:
                diagnostics["year_mismatch"] += 1
                continue
        vmt_text = (row[vmt_at] or "").strip()
        try:
            vmt = float(vmt_text)
        except ValueError:
            raise ValidationError(f"{locate(row)}: unreadable mileage {vmt_text!r}")
        functional_class = schema.class_codes.get(row[class_at])
        if functional_class is None:
            raise SchemaError(f"{locate(row)}: unmapped functional class code {row[class_at]!r}")
        area = row[area_at] if area_at is not None else None
        area_type = schema.area_codes.get(area) if area and area.strip() else schema.area_default
        if area_type is None:
            raise SchemaError(f"{locate(row)}: unmapped area code {area!r}")
        try:
            cells.append(MileageCell(
                region=region,
                year=year,
                functional_class=functional_class,
                area_type=area_type,
                vmt_millions=schema.to_millions(vmt),
            ))
        except ValidationError as exc:
            raise ValidationError(f"{locate(row)}: {exc}") from None
    return cells, diagnostics


def load_passenger_share(spec: SchemaSpec, file: str | Path) -> PassengerShareTable:
    if spec.kind != "shares":
        raise SchemaError(f"spec {spec.tag} is a {spec.kind} spec, not a shares spec")
    schema = spec.shares
    required = {schema.state_column, schema.area_column, schema.group_column,
                schema.share_column}
    positions, rows = _read_table(Path(file), required, f"{spec.tag} shares")
    locate = _locator(f"{spec.tag} shares", file, rows)
    state_at, area_at, group_at, share_at = (
        positions[c] for c in (schema.state_column, schema.area_column,
                               schema.group_column, schema.share_column)
    )
    mapping: dict = {}
    for row in rows:
        state = (row[state_at] or "").strip()
        if not state:
            raise ValidationError(f"{locate(row)}: empty state")
        area = schema.area_codes.get(row[area_at])
        if area is None:
            raise SchemaError(f"{locate(row)}: unmapped area code {row[area_at]!r}")
        group = schema.group_codes.get(row[group_at])
        if group is None:
            raise SchemaError(f"{locate(row)}: unmapped class group {row[group_at]!r}")
        share_text = (row[share_at] or "").strip()
        try:
            share = float(share_text)
        except ValueError:
            raise ValidationError(f"{locate(row)}: unreadable share {share_text!r}")
        if schema.values == "percent":
            if not 0.0 <= share <= 100.0:
                raise ValidationError(f"{locate(row)}: share {share!r} outside [0, 100]")
            share /= 100.0
        elif not 0.0 <= share <= 1.0:
            raise ValidationError(f"{locate(row)}: share {share!r} outside [0, 1]")
        key = (state, area, group)
        if key in mapping:
            raise ValidationError(f"{locate(row)}: duplicate share for {key}")
        mapping[key] = share
    return PassengerShareTable.from_mapping(mapping)


# ---------------------------------------------------------------------------
# Dataset assembly from a manifest entry

CANONICAL_SPEC = "canonical"


@dataclass
class DatasetRecords:
    """Everything loaded for one region-year: records, mileage, shares."""

    manifest: interchange.DatasetManifest
    records: CombinedRecords
    mileage: list[MileageCell]
    shares: PassengerShareTable | None
    source_audits: list[dict]


def _read_unique(read: Callable, path: Path, key: Callable, label: str) -> list:
    """``read(path)``; a record whose key an earlier line holds is an error
    naming ``path:line``.  A file in strictly increasing key order, as the
    canonical writer leaves it, passes on neighbour comparisons alone."""
    records = read(path)
    if all(a < b for a, b in pairwise(map(key, records))):
        return records
    seen = set()
    for line, record in enumerate(records, start=2):
        value = key(record)
        if value in seen:
            raise ValidationError(f"{path}:{line}: repeated {label} {value!r}")
        seen.add(value)
    return records


def _load_canonical_source(ref: interchange.CrashSourceRef, region: Region,
                           year: int) -> LoadResult:
    if ref.region_filter:
        raise ValidationError(
            "canonical sources are filtered by their region column, not region_filter"
        )
    diagnostics: Counter = Counter()
    crashes = []
    for c in _read_unique(interchange.read_crashes, ref.crash_file,
                          attrgetter("crash_id"), "crash_id"):
        if c.region != region:
            diagnostics["region_filtered"] += 1
        elif c.year != year:
            diagnostics["year_mismatch"] += 1
        else:
            crashes.append(c)
    ids = {c.crash_id for c in crashes}
    vehicles = [v for v in _read_unique(interchange.read_vehicles, ref.vehicle_file,
                                        attrgetter("crash_id", "unit_id"),
                                        "(crash_id, unit_id)")
                if v.crash_id in ids] if ref.vehicle_file else []
    persons = [p for p in _read_unique(interchange.read_persons, ref.person_file,
                                       attrgetter("crash_id", "unit_id", "person_id"),
                                       "(crash_id, unit_id, person_id)")
               if p.crash_id in ids] if ref.person_file else []
    return LoadResult(
        tag=CANONICAL_SPEC, crashes=crashes, vehicles=vehicles, persons=persons,
        diagnostics=diagnostics,
        rows_in={"crashes": len(crashes) + diagnostics.total(),
                 "vehicles": len(vehicles), "persons": len(persons)},
        weighted=any(c.sample_weight != 1.0 for c in crashes),
        tow_level="vehicle" if vehicles else "crash",
        airbag_units=bool(vehicles),
    )


def load_dataset(manifest: interchange.DatasetManifest) -> DatasetRecords:
    """Load and merge every source named by one dataset manifest."""
    loads: list[tuple[str, LoadResult]] = []
    for ref in manifest.crash_sources:
        if ref.spec == CANONICAL_SPEC:
            load = _load_canonical_source(ref, manifest.region, manifest.year)
        else:
            load = load_crash_source(
                load_schema(ref.spec), ref.crash_file, ref.vehicle_file,
                ref.person_file, region=manifest.region, year=manifest.year,
                region_filter=ref.region_filter,
            )
        loads.append((ref.role, load))

    records = combine_sources(loads)
    audits = []
    for (role, load), ref in zip(loads, manifest.crash_sources):
        audits.append({
            "spec": ref.spec,
            "role": role,
            "rows_in": load.rows_in,
            "records": {"crashes": len(load.crashes), "vehicles": len(load.vehicles),
                        "persons": len(load.persons)},
            "diagnostics": dict(sorted(load.diagnostics.items())),
            "caveats": list(load.caveats),
        })

    cells: list[MileageCell] = []
    for ref in manifest.mileage:
        if ref.spec == CANONICAL_SPEC:
            cells.extend(m for m in interchange.read_mileage(ref.file)
                         if m.region == manifest.region and m.year == manifest.year)
            continue
        spec = load_schema(ref.spec)
        loaded, diag = load_mileage(
            spec, ref.file, region=manifest.region, year=manifest.year,
            region_filter=ref.region_filter,
        )
        cells.extend(loaded)
        records.diagnostics.update(diag)

    shares: PassengerShareTable | None = None
    if manifest.shares:
        merged: dict = {}
        for ref in manifest.shares:
            table = load_passenger_share(load_schema(ref.spec), ref.file)
            for key, value in table.shares:
                if key in merged and merged[key] != value:
                    raise ValidationError(f"conflicting passenger shares for {key}")
                merged[key] = value
        shares = PassengerShareTable.from_mapping(merged)

    return DatasetRecords(
        manifest=manifest, records=records, mileage=cells, shares=shares,
        source_audits=audits,
    )
