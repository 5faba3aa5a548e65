"""Raw file loading: spec-driven adapters to canonical rows.

Every raw row either becomes exactly one canonical row or is counted
under exactly one diagnostic reason, so row counts are conserved and the
filter audit can account for every exclusion.  A canonical row holds the
cells ``interchange`` writes for its table, in header order, and has
passed the checks of its record type (``model.check_crash``; a unit's
crash is a kept one, and its id is checked non-empty as it is read); no
record is built.  Unknown codes never drop a row silently: they classify
to an explicit unknown bucket and bump a warning counter.

Raw tables are read through the chunk reader of the canonical folds
(``interchange._fold_file``), in chunks of whole lines.  A clean chunk,
by the contract ``_fold_file`` states, is split at its commas and folded
column by column: each of a source's three passes (crashes, vehicles,
persons) reads strided columns through the same memos, converters and
checks as its row loop, and changes nothing unless every row of the
chunk would pass.  Any other chunk, from its first line on, goes to the
row loop, which reads positional rows with the semantics of
``csv.DictReader``: blank lines are skipped, a short row is padded with
nulls (a missing cell is null, so rules over it evaluate to unknown),
extra cells are ignored, and a header name that appears twice resolves
to its last column.  A short last row with no line ending is a file cut short, and
an error.  So a fault is met, and named, row by row, at the physical
line its row ends on.  A kept crash row is checked as it is read, and no
raw row is held: until its vehicle and person files are read, a kept
crash holds its id, its weight cell and the memoized road class, KABCO
and tow results, and its vehicle and person rows take that one id str
for their own.  One reader per raw file (``_RawFile``) binds each spec
rule once per file to the positions of the cells it reads, memoized on
those cells: rows that hold equal cells share one ``Rule.eval`` (or
code-table lookup) call on a dict of just those cells, and the memo
holds the canonical cells it gives.  Warnings are still counted once per
row.  A column is required because the reader reads it: every header of
a source is checked for all of them before its first row is read.

``load_dataset`` loads a dataset's first raw source in this process and
each other one in its own forked worker process, started before that
load, with at most one worker per available CPU but one alive at a
time.  It takes the workers' rows, sorted into one run per table
(``interchange.sort_rows``), and the digests of the files they read
back over a pipe in manifest order; so the first source's rows are
never pickled or held twice, this process holds no other loader's
working state, and errors are raised as a load in turn would raise
them.  All raw sources load in this process where there is one, or
one CPU, or where the files after the first hold fewer than
``_WORKER_BYTES``, where a worker costs as much time as it saves.  The
cyclic garbage collector is paused while a raw source's rows are built
and sorted, in a worker or here, and while a worker's rows are
unpickled, and the caller's setting is restored after: rows are tuples
of str, which hold no reference cycle, so its passes over them would
free nothing.

Canonical sources are not normalized again: their crash, vehicle and
person tables are folded into per-crash columns as they are read
(``interchange.read_crashes``), with the same accounting.  A run reads a
spec only for a raw source, mileage or shares table, so ``schema`` is
imported by the first one it reads (``load_schema``), or, where raw
sources load in workers, once before the first forks, with the INI
reader that parses specs.  A crash row
of another region or year, and a vehicle or person row of such a crash
or of a crash the crash table does not hold, is counted under a
diagnostic, and ``rows_in`` counts every row read.  A raw source's rows
go through that same fold when a benchmark counts them
(``CombinedRecords.classify``), and ``ingest`` writes them as they are.
Where ``ingest`` writes a canonical source out, ``dataset_rows`` reads it
again as records encoded to rows (``interchange.read_records``,
``interchange.encode``) and folds those crash rows in memory: the rows it
keeps are those of the crashes the fold keeps, so which rows belong to a
dataset is decided by ``read_crashes`` alone.  Records (``.crashes``,
``.vehicles``, ``.persons``) are decoded from the rows only when a caller
asks for them.
"""

from __future__ import annotations

import csv
import gc
import os
import threading
from collections import Counter, deque
from contextlib import ExitStack, closing, contextmanager, suppress
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from operator import is_, is_not, itemgetter, ne, not_
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator

from . import errors, interchange
from .errors import (
    ReferentialError, SchemaError, ValidationError, _ends_a_line, _opened)
from .filters import CrashColumns, Subset
from .interchange import FLAG
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
    check_crash,
)

if TYPE_CHECKING:
    from .schema import CodeMap, RoadRules, Rule, SchemaSpec


_TABLES = ("crashes", "vehicles", "persons")    # each row starts with its crash id
_KABCO_AT = interchange.CRASH_HEADER.index("max_kabco")
_RANK = {kabco.value: rank for kabco, rank in KABCO_FOLD_RANK.items()}
_UNK, _FATAL = Kabco.UNK.value, Kabco.K.value
# A raw crash row's region filter result -> "" where it passes, else the
# diagnostic its row is counted under.
_REGION_FATES = {True: "", False: "region_filtered", None: "region_filter_unknown"}


def _no_rows() -> dict[str, list]:
    return {table: [] for table in _TABLES}


def _in_memory(rows: list, table: str) -> interchange.Rows:
    return interchange.Rows(f"canonical {table} rows", rows)


class _RowRecords:
    """Records decoded from canonical rows (each table's ``_runs``) when a
    caller asks for them, through each table's decoders and record
    constructors."""

    def _runs(self, table: str) -> list[list]:
        raise NotImplementedError

    def _records(self, table: str) -> list:
        return [record for run in self._runs(table)
                for record in interchange.read_records(_in_memory(run, table), table)]

    @property
    def crashes(self) -> list[CrashEvent]:
        return self._records("crashes")

    @property
    def vehicles(self) -> list[VehicleInvolvement]:
        return self._records("vehicles")

    @property
    def persons(self) -> list[PersonOutcome]:
        return self._records("persons")


@dataclass
class LoadResult(_RowRecords):
    """Canonical rows from one crash source, plus row accounting.

    A raw source gives canonical rows per table (``interchange``'s
    header order), in input order from ``load_crash_source`` and sorted
    on each table's key (``interchange.sort_rows``) from ``load_dataset``;
    a canonical source is folded into per-crash columns as it is read
    (``folded``) and gives none.  The flags mirror what the source can
    support downstream: whether tow status is known per unit or only per
    crash, and whether airbag flags are populated on units.
    """

    tag: str
    rows: dict[str, list] = field(default_factory=_no_rows)
    diagnostics: Counter = field(default_factory=Counter)
    rows_in: dict = field(default_factory=dict)
    records: dict = field(default_factory=dict)   # rows kept per table
    tow_level: str = "none"           # vehicle | crash | none
    airbag_units: bool = False
    caveats: tuple[str, ...] = ()
    folded: CrashColumns = field(default_factory=CrashColumns)

    def _runs(self, table: str) -> list[list]:
        return [self.rows[table]]


def _lines(reader: csv.reader, line: int, width: int, handle, where: str) -> Iterator:
    """(line, row) per row of ``reader`` that is not blank, its physical
    line ``line + reader.line_num``.

    A row short of ``width`` cells is padded with nulls, unless it is the
    last row and the file (``handle``, from ``errors._opened``) ends
    without a line ending: a file cut in its last row.  So a short row is
    held until the reader has read on.
    """
    short = None        # (line, padded row) of a short row not yet given
    for row in reader:
        if short is not None:
            yield short
            short = None
        if len(row) < width:
            if not row:
                continue
            short = line + reader.line_num, row + [None] * (width - len(row))
            continue
        yield line + reader.line_num, row
    if short is not None:
        if not _ends_a_line(handle):
            cells = width - short[1].count(None)
            raise ValidationError(
                f"{where}:{short[0]}: last row cut short: {cells} of "
                f"{width} cells and no line ending")
        yield short


class _RawFile:
    """One raw CSV file of a spec-driven loader: its header's positions,
    its rows (``fold``, ``rows``) and every column the loader reads.

    ``at`` and the binders record each column they look up; ``check``
    rejects every recorded column the header lacks, at once.  A loader
    looks up all it reads, and checks, before it reads a row.
    """

    def __init__(self, file: str | Path, tag: str, kind: str):
        self.kind, self.label, self.path = kind, f"{tag} {kind}", Path(file)
        self.where = f"{self.label} file {file}"    # prefix of errors about a row
        with ExitStack() as opened:
            self._handle = opened.enter_context(_opened(self.path, f"{self.label} file"))
            self._reader = csv.reader(self._handle, strict=True)
            header = next(self._reader, [])
            self._open = opened.pop_all()       # closed, and hashed, once the rows are read
        self.width = len(header)
        self.positions = {name: i for i, name in enumerate(header)}
        self.read: set[str] = set()

    def at(self, column: str) -> int:
        """The position of ``column``, or -1 until ``check`` rejects its absence."""
        self.read.add(column)
        return self.positions.get(column, -1)

    def check(self) -> None:
        missing = sorted(self.read - self.positions.keys())
        if missing:
            raise SchemaError(
                f"{self.label} file {self.path}: missing column(s) {', '.join(missing)}")

    def rows(self) -> Iterator[tuple[int, list]]:
        """(line, row) per row past the header, by ``_lines``' rules."""
        with self._open:
            yield from _lines(self._reader, 0, self.width, self._handle, self.where)

    def fold(self, chunk: Callable[[list[str]], bool], rows: Callable[..., int]) -> int:
        """Read the rows past the header into a fold; the number of rows
        read.  Clean chunks go to ``chunk(cells)`` and what it does not
        fold, from that chunk's first line on, to ``rows(rows, n)``, n rows
        in, with (line, row) pairs by ``_lines``' rules
        (``interchange._fold_file``).  A blank line, which a one-column
        file's chunk would split to one empty cell, holds no crash id: no
        chunk fold takes it."""
        width = self.width
        with self._open:
            return interchange._fold_file(
                self._handle, self._reader, width, chunk,
                lambda reader, line, n: rows(
                    _lines(reader, line, width, self._handle, self.where), n))

    def column(self, cells: list[str], at: int, keep: list | None = None) -> list[str]:
        """The stripped cells at position ``at`` of a clean chunk's rows, or
        of those that ``keep`` marks."""
        column = cells[at::self.width]
        return list(map(str.strip, column if keep is None else compress(column, keep)))

    def bind(self, columns: Iterable[str],
             evaluate: Callable[[dict], object]) -> Callable[[list], object]:
        """``evaluate`` of a dict of a row's cells at ``columns``, memoized on
        those cells (``interchange.Memo``) while the returned function lives:
        ``bound(row)`` of one row, and ``bound.over(cells, keep=None)`` of
        each of a clean chunk's rows, or of those ``keep`` marks.  A closure,
        not an object with ``__call__``: the row loop calls it once a row,
        and a call through ``__call__`` costs that loop more."""
        columns = sorted(columns)
        positions, width = list(map(self.at, columns)), self.width
        getter = itemgetter(*positions)
        memo = interchange.Memo(
            (lambda key: evaluate(dict(zip(columns, key)))) if len(columns) > 1
            else lambda key: evaluate({columns[0]: key}))

        def bound(row: list):
            return memo[getter(row)]

        def over(cells: list[str], keep: list | None = None) -> list:
            keys = (cells[positions[0]::width] if len(positions) == 1
                    else zip(*(cells[i::width] for i in positions)))
            return list(map(memo.__getitem__, keys if keep is None else compress(keys, keep)))

        bound.over = over
        return bound

    def rule(self, rule: Rule | None) -> Callable[[list], bool | None] | None:
        """``rule`` of a row, or None where the spec gives no rule."""
        return self.bind(rule.columns(), rule.eval) if rule is not None else None

    def kabco(self, column: str, codes: CodeMap) -> Callable[[list], tuple[str, bool]]:
        """(KABCO cell, known) of a row; an empty or unmapped cell is UNK."""
        def lookup(cells: dict) -> tuple[str, bool]:
            kabco = codes.get(cells[column])
            return (_UNK, False) if kabco is None else (kabco.value, True)

        return self.bind((column,), lookup)

    def number(self, column: str, convert: Callable[[str], object],
               what: str) -> Callable[..., object]:
        """``read(line, row, crash=None)``: ``convert`` of the row's stripped
        ``column`` cell.  A cell it cannot read is a ValidationError naming
        the line, and the crash and column where a crash is given.
        ``read.over(cells, keep=None)`` converts the cells of a clean
        chunk's rows, or of those ``keep`` marks, and raises ValueError."""
        at = self.at(column)

        def read(line: int, row: list, crash: str | None = None):
            text = (row[at] or "").strip()
            try:
                return convert(text)
            except ValueError:
                fault = (f"crash {crash} has unreadable {what} {text!r} in column {column}"
                         if crash else f"unreadable {what} {text!r}")
                raise ValidationError(f"{self.where}:{line}: {fault}") from None

        read.over = lambda cells, keep=None: list(map(convert, self.column(cells, at, keep)))
        return read


def load_schema(ref: str) -> SchemaSpec:
    """``schema.load_schema``, which imports ``schema`` when a run first
    reads a spec: a run of canonical tables alone imports none."""
    from .schema import load_schema
    return load_schema(ref)


def _region_rule(spec: SchemaSpec, region_filter: str | None) -> Rule | None:
    """The region filter of a crash or mileage source, parsed."""
    from .schema import Rule
    return Rule.parse(region_filter, f"{spec.tag} region_filter") if region_filter else None


def _rule_columns(*rules: Rule | None) -> set[str]:
    return {col for rule in rules if rule is not None for col in rule.columns()}


def _count(diagnostics: Counter, reason: str, rows: int) -> None:
    """Count ``rows`` rows under ``reason``, which is not listed when none is."""
    if rows:
        diagnostics[reason] += rows


def _unkept(crash_id: str, dropped: set[str], diagnostics: Counter,
            file: _RawFile, line: int) -> None:
    """Count a vehicle or person row of a crash the source dropped; a row of
    a crash it never read is a ReferentialError."""
    if crash_id not in dropped:
        raise ReferentialError(
            f"{file.where}:{line}: {file.kind} row references unknown crash {crash_id!r}")
    diagnostics["parent_dropped"] += 1


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
    """(body class cell, in-transport cell, towed cell, towed, airbag,
    warning keys) of one unit; its airbag cell waits for its persons."""
    v = spec.vehicle
    warnings: Counter = Counter()
    body = _classify_body(spec, cells, warnings)
    in_transport = _eval_flag(v.in_transport, cells, warnings, "unknown_in_transport")
    towed = _eval_flag(v.towed, cells, warnings, "unknown_towed")
    airbag = _eval_flag(v.airbag, cells, warnings, "unknown_airbag")
    return (body.value, FLAG[in_transport], FLAG[towed], towed, airbag,
            tuple(warnings.elements()))


def _classify_road(road: RoadRules, cells: dict) -> tuple[str, bool]:
    """(road class cell, known) of one crash."""
    road_class, known = road.classify(cells)
    return road_class.value, known


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
    """Normalize one raw crash database extract to canonical rows.

    Produces one crash row per retained crash row, one vehicle row per
    unit row, and one person row per person row, each holding the cells
    ``interchange`` writes; the crash and unit checks of the record types
    run on every row.  Person airbag flags fold into their unit and crash;
    person injury codes fold into the crash-level maximum when the spec
    gives no crash KABCO column.  A child row pointing at a
    crash id that never appeared raises; a child of a deliberately dropped
    crash is counted instead.
    """
    if spec.kind != "crash":
        raise SchemaError(f"spec {spec.tag} is a {spec.kind} spec, not a crash spec")
    diagnostics: Counter = Counter()
    filter_rule = _region_rule(spec, region_filter)
    crash_schema, vehicle_schema, person_schema = spec.crash, spec.vehicle, spec.person
    rows_in = dict.fromkeys(_TABLES, 0)     # rows read per table, set as each is folded

    # Every rule of the three files is bound, and every header checked, first.
    crash_in = _RawFile(crash_file, spec.tag, "crash")
    id_at = crash_in.at(crash_schema.id_column)
    region_match = crash_in.rule(filter_rule)
    year_of = (crash_in.number(crash_schema.year_column, int, "year")
               if crash_schema.year_column else None)
    weight_of = (crash_in.number(crash_schema.weight_column, float, "weight")
                 if crash_schema.weight_column else None)
    road = crash_schema.road
    road_class_of = crash_in.bind(_rule_columns(road.surface, road.excluded),
                                  lambda cells: _classify_road(road, cells))
    crash_kabco = (crash_in.kabco(crash_schema.kabco_column, crash_schema.kabco)
                   if crash_schema.kabco_column is not None else None)
    crash_towed_of = crash_in.rule(crash_schema.towed)
    crash_in.check()

    vehicle_in = person_in = None
    if vehicle_file is not None:
        vehicle_in = _RawFile(vehicle_file, spec.tag, "vehicle")
        vcrash_at = vehicle_in.at(vehicle_schema.crash_column)
        unit_at = vehicle_in.at(vehicle_schema.id_column)
        classify_unit = vehicle_in.bind(
            _rule_columns(vehicle_schema.passenger, vehicle_schema.vehicle_nfs,
                          vehicle_schema.non_vehicle, vehicle_schema.in_transport,
                          vehicle_schema.towed, vehicle_schema.airbag),
            lambda cells: _classify_unit(spec, cells))
        vehicle_in.check()
    if person_file is not None and person_schema is not None:
        person_in = _RawFile(person_file, spec.tag, "person")
        pcrash_at = person_in.at(person_schema.crash_column)
        person_at = person_in.at(person_schema.id_column)
        unit_column = person_schema.unit_column
        unit_ref = (person_in.bind((unit_column,),
                                   lambda cells: _unit_ref(spec, cells[unit_column]))
                    if unit_column else None)
        person_kabco = (person_in.kabco(person_schema.kabco_column, person_schema.kabco)
                        if person_schema.kabco is not None else None)
        person_airbag_of = person_in.rule(person_schema.airbag)
        person_in.check()

    # crash_id -> (crash_id, (road class, known), (KABCO, known) or None,
    #              weight cell, the crash tow rule's result)
    kept: dict[str, tuple] = {}
    dropped: set[str] = set()

    def crash_rows(rows: Iterable, n: int) -> int:
        for n, (line, row) in enumerate(rows, n + 1):
            crash_id = (row[id_at] or "").strip()
            if not crash_id:
                raise ValidationError(
                    f"{crash_in.where}:{line}: crash row with empty id column "
                    f"{crash_schema.id_column}"
                )
            if crash_id in kept or crash_id in dropped:
                raise ValidationError(f"{crash_in.where}:{line}: duplicate crash id {crash_id}")
            match = region_match(row) if region_match is not None else True
            if match is not True:
                reason = "region_filtered" if match is False else "region_filter_unknown"
            elif year_of is not None and year_of(line, row, crash_id) != year:
                reason = "year_mismatch"
            else:
                weight = weight_of(line, row, crash_id) if weight_of is not None else 1.0
                try:
                    check_crash(crash_id, weight, year)
                except ValidationError as exc:
                    raise ValidationError(f"{crash_in.where}:{line}: {exc}") from None
                kept[crash_id] = (
                    crash_id, road_class_of(row),
                    crash_kabco(row) if crash_kabco is not None else None, repr(weight),
                    crash_towed_of(row) if crash_towed_of is not None else False)
                continue
            diagnostics[reason] += 1
            dropped.add(crash_id)
        return n

    def crash_chunk(cells: list[str]) -> bool:
        ids = crash_in.column(cells, id_at)
        if ("" in ids or len(set(ids)) < len(ids) or not kept.keys().isdisjoint(ids)
                or not dropped.isdisjoint(ids)):
            return False
        try:
            # Each row's fate: "" where it is kept, else its diagnostic.
            fates = (list(map(_REGION_FATES.__getitem__, region_match.over(cells)))
                     if region_match is not None else [""] * len(ids))
            keep = list(map(not_, fates)) if any(fates) else None
            if year_of is not None:
                years = year_of.over(cells, keep)
                if years.count(year) < len(years):
                    mismatched = map(ne, years, repeat(year))
                    fates = [fate or ("year_mismatch" if next(mismatched) else "")
                             for fate in fates]
                    keep = list(map(not_, fates))
            kept_ids = ids if keep is None else list(compress(ids, keep))
            weights = (weight_of.over(cells, keep) if weight_of is not None
                       else [1.0] * len(kept_ids))
            interchange._check_each(check_crash, kept_ids, weights, repeat(year))
            roads = road_class_of.over(cells, keep)
            kabcos = crash_kabco.over(cells, keep) if crash_kabco is not None else repeat(None)
            tows = crash_towed_of.over(cells, keep) if crash_towed_of is not None else repeat(False)
        except (KeyError, ValueError):
            return False
        if keep is not None:
            diagnostics.update(filter(None, fates))
            dropped.update(compress(ids, fates))
        kept.update(zip(kept_ids, zip(kept_ids, roads, kabcos, map(repr, weights), tows)))
        return True

    rows_in["crashes"] = crash_in.fold(crash_chunk, crash_rows)

    def parents(file: _RawFile, cells: list[str], at: int) -> tuple | None:
        """(own ids, keep, orphans) of a clean chunk's rows, whose crash ids
        are at ``at``: the crash row's own id str of each row of a kept
        crash, which rows those are (None for all) and how many rows are
        of dropped crashes; None where a row names a crash the source
        never read."""
        crash_ids = file.column(cells, at)
        crashes = list(map(kept.get, crash_ids))
        orphans = crashes.count(None)
        keep = None
        if orphans:
            keep = list(map(is_not, crashes, repeat(None)))
            if not dropped.issuperset(compress(crash_ids, map(not_, keep))):
                return None
            crashes = compress(crashes, keep)
        return list(map(itemgetter(0), crashes)), keep, orphans

    # Units, with folds accumulated per crash.  A unit's memo entry is
    # shared by every unit whose classifier cells are equal.
    unit_info: dict[tuple[str, str], tuple] = {}
    crash_towed: set[str] = set()
    crash_airbag: set[str] = set()

    def unit_rows(rows: Iterable, n: int) -> int:
        for n, (line, row) in enumerate(rows, n + 1):
            crash_id = (row[vcrash_at] or "").strip()
            crash = kept.get(crash_id)
            if crash is None:
                _unkept(crash_id, dropped, diagnostics, vehicle_in, line)
                continue
            crash_id = crash[0]     # the crash row's own id str
            unit_id = (row[unit_at] or "").strip()
            if not unit_id:
                raise ValidationError(
                    f"{vehicle_in.where}:{line}: crash {crash_id} has a unit with no id "
                    f"in column {vehicle_schema.id_column}"
                )
            if (crash_id, unit_id) in unit_info:
                raise ValidationError(
                    f"{vehicle_in.where}:{line}: duplicate unit {crash_id}/{unit_id}")
            info = unit_info[(crash_id, unit_id)] = classify_unit(row)
            _, _, _, towed, airbag, warnings = info
            if warnings:
                diagnostics.update(warnings)
            if towed:
                crash_towed.add(crash_id)
            if airbag:
                crash_airbag.add(crash_id)
        return n

    def unit_chunk(cells: list[str]) -> bool:
        found = parents(vehicle_in, cells, vcrash_at)
        if found is None:
            return False
        own, keep, orphans = found
        unit_ids = vehicle_in.column(cells, unit_at, keep)
        keys = list(zip(own, unit_ids))
        if ("" in unit_ids or len(set(keys)) < len(keys)
                or not unit_info.keys().isdisjoint(keys)):
            return False
        infos = classify_unit.over(cells, keep)
        _count(diagnostics, "parent_dropped", orphans)
        unit_info.update(zip(keys, infos))
        diagnostics.update(chain.from_iterable(map(itemgetter(5), infos)))
        crash_towed.update(compress(own, map(itemgetter(3), infos)))
        crash_airbag.update(compress(own, map(itemgetter(4), infos)))
        return True

    rows_in["vehicles"] = vehicle_in.fold(unit_chunk, unit_rows) if vehicle_in else 0

    persons: list[tuple[str, ...]] = []
    person_seen: set[tuple[str, str, str]] = set()
    person_airbag: set[tuple[str, str]] = set()
    crash_person_kabco: dict[str, str] = {}

    def person_rows(rows: Iterable, n: int) -> int:
        for n, (line, row) in enumerate(rows, n + 1):
            crash_id = (row[pcrash_at] or "").strip()
            crash = kept.get(crash_id)
            if crash is None:
                _unkept(crash_id, dropped, diagnostics, person_in, line)
                continue
            crash_id = crash[0]     # the crash row's own id str
            unit_id = unit_ref(row) if unit_ref is not None else ""
            if unit_id and (crash_id, unit_id) not in unit_info:
                raise ReferentialError(
                    f"{person_in.where}:{line}: person row references unknown unit "
                    f"{crash_id}/{unit_id}"
                )
            person_id = (row[person_at] or "").strip()
            if not person_id:
                raise ValidationError(
                    f"{person_in.where}:{line}: crash {crash_id} has a person with no id "
                    f"in column {person_schema.id_column}"
                )
            if (crash_id, unit_id, person_id) in person_seen:
                raise ValidationError(
                    f"{person_in.where}:{line}: duplicate person "
                    f"{crash_id}/{unit_id}/{person_id}"
                )
            person_seen.add((crash_id, unit_id, person_id))
            if person_kabco is not None:
                kabco, known = person_kabco(row)
                if not known:
                    diagnostics["unknown_person_kabco"] += 1
            else:
                kabco = _UNK
            airbag = False
            if person_airbag_of is not None:
                airbag = person_airbag_of(row)
                if airbag is None:
                    diagnostics["unknown_airbag"] += 1
                    airbag = False
            persons.append((crash_id, unit_id, person_id, kabco, FLAG[airbag]))
            if airbag:
                if unit_id:
                    person_airbag.add((crash_id, unit_id))
                crash_airbag.add(crash_id)
            prev = crash_person_kabco.get(crash_id)
            if prev is None or _RANK[kabco] > _RANK[prev]:
                crash_person_kabco[crash_id] = kabco
        return n

    def person_chunk(cells: list[str]) -> bool:
        found = parents(person_in, cells, pcrash_at)
        if found is None:
            return False
        own, keep, orphans = found
        units = unit_ref.over(cells, keep) if unit_ref is not None else [""] * len(own)
        person_ids = person_in.column(cells, person_at, keep)
        keys = list(zip(own, units, person_ids))
        if ("" in person_ids or len(set(keys)) < len(keys) or not person_seen.isdisjoint(keys)
                or not all(map(unit_info.__contains__, filter(itemgetter(1), zip(own, units))))):
            return False
        kabcos = person_kabco.over(cells, keep) if person_kabco is not None else None
        airbags = person_airbag_of.over(cells, keep) if person_airbag_of is not None else None
        _count(diagnostics, "parent_dropped", orphans)
        person_seen.update(keys)
        if kabcos is not None:
            _count(diagnostics, "unknown_person_kabco",
                   len(kabcos) - sum(map(itemgetter(1), kabcos)))
            kabcos = list(map(itemgetter(0), kabcos))
        else:
            kabcos = [_UNK] * len(keys)
        flags = [False] * len(keys)
        if airbags is not None:
            _count(diagnostics, "unknown_airbag", airbags.count(None))
            flags = list(map(is_, airbags, repeat(True)))
            person_airbag.update(filter(itemgetter(1), compress(zip(own, units), flags)))
            crash_airbag.update(compress(own, flags))
        persons.extend(zip(own, units, person_ids, kabcos, map(FLAG.__getitem__, flags)))
        for crash_id, kabco in zip(own, kabcos) if crash_kabco is None else ():
            prev = crash_person_kabco.get(crash_id)   # read only without a crash KABCO column
            if prev is None or _RANK[kabco] > _RANK[prev]:
                crash_person_kabco[crash_id] = kabco
        return True

    rows_in["persons"] = person_in.fold(person_chunk, person_rows) if person_in else 0

    vehicles = [
        (crash_id, unit_id, body, in_transport, towed,
         FLAG[airbag or (crash_id, unit_id) in person_airbag])
        for (crash_id, unit_id), (body, in_transport, towed, _, airbag, _)
        in unit_info.items()
    ]

    crashes: list[tuple[str, ...]] = []
    source, year_cell = spec.tag, str(year)
    for crash_id, (road_class, known), kabco_known, weight, towed_rule in kept.values():
        if not known:
            diagnostics["unknown_road"] += 1
        if kabco_known is not None:
            kabco, known = kabco_known
        else:
            kabco = crash_person_kabco.get(crash_id, _UNK)
            known = kabco != _UNK
        if not known:
            diagnostics["unknown_kabco"] += 1
        towed = crash_id in crash_towed
        if not towed:
            towed = towed_rule
            if towed is None:
                diagnostics["unknown_towed"] += 1
                towed = False
        crashes.append((crash_id, source, region.name, region.state, year_cell, road_class,
                        weight, kabco, FLAG[towed], FLAG[crash_id in crash_airbag]))

    airbag_units = vehicle_schema.airbag is not None or (
        person_schema is not None and person_schema.airbag is not None
        and person_schema.unit_column is not None)
    rows = {"crashes": crashes, "vehicles": vehicles, "persons": persons}
    return LoadResult(
        tag=spec.tag, rows=rows, diagnostics=diagnostics, rows_in=rows_in,
        records={table: len(kept) for table, kept in rows.items()},
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
class CombinedRecords(_RowRecords):
    """The sources' canonical rows across a dataset, one run per source and
    table in input order (``runs``, each sorted where ``load_dataset``
    loaded it), and the canonical sources' crashes, folded into columns as
    they were read."""

    runs: dict[str, list[list]]
    diagnostics: Counter
    unit_tow_flags: bool
    unit_airbag_flags: bool
    caveats: tuple[str, ...]
    folded: CrashColumns = field(default_factory=CrashColumns)

    def _runs(self, table: str) -> list[list]:
        return self.runs[table]

    def classify(self, region: Region, year: int) -> Subset:
        """The all-roads subset of every crash of ``region`` and ``year``:
        the canonical sources' columns, and each source's rows folded by
        the fold that reads canonical files."""
        parts = [self.folded]
        for crashes, vehicles in zip(self.runs["crashes"], self.runs["vehicles"]):
            if crashes:
                fold = interchange.read_crashes(_in_memory(crashes, "crashes"), region, year)
                interchange.read_vehicles(_in_memory(vehicles, "vehicles"), fold)
                parts.append(fold.columns)
        return Subset.classify(
            CrashColumns.concat(parts),
            tow_from_units=self.unit_tow_flags, airbag_from_units=self.unit_airbag_flags,
            caveats=self.caveats,
        )


def combine_sources(loads: list[tuple[str, LoadResult]]) -> CombinedRecords:
    """Merge per-source loads under their dataset roles.

    A nonfatal-role source contributes only its non-fatal crashes and a
    fatal-role source only its fatal ones, read from the ``max_kabco``
    cell of its crash rows or its folded columns, so a sampled non-fatal
    database and a fatal census can cover one region without double
    counting.  A crash id may appear in one source only.  Each source's
    rows stay one run per table, in the order given.
    """
    runs = _no_rows()
    folded: list[CrashColumns] = []
    diagnostics: Counter = Counter()
    seen_ids: dict[str, str] = {}
    for role, load in loads:
        diagnostics.update(load.diagnostics)
        kept, columns = load.rows, load.folded
        if role != "all":
            wanted = role == "fatal"
            drop = {row[0] for row in kept["crashes"]
                    if (row[_KABCO_AT] == _FATAL) is not wanted}
            if drop:
                kept = {table: [row for row in kept[table] if row[0] not in drop]
                        for table in _TABLES}
            columns = columns.select([fatal is wanted for fatal in columns.fatal()])
            excluded = len(drop) + len(load.folded.crash_id) - len(columns.crash_id)
            if excluded:
                diagnostics["role_excluded"] += excluded
        if len(loads) > 1:
            ids = [row[0] for row in kept["crashes"]] + columns.crash_id
            clash = next((cid for cid in ids if cid in seen_ids), None)
            if clash is not None:
                raise ValidationError(
                    f"crash id {clash} appears in both {seen_ids[clash]} and {load.tag}"
                )
            seen_ids.update(dict.fromkeys(ids, load.tag))
        for table in _TABLES:
            runs[table].append(kept[table])
        folded.append(columns)
    return CombinedRecords(
        runs=runs, diagnostics=diagnostics,
        unit_tow_flags=all(load.tow_level == "vehicle" for _, load in loads),
        unit_airbag_flags=all(load.airbag_units for _, load in loads),
        caveats=tuple(dict.fromkeys(c for _, load in loads for c in load.caveats)),
        folded=CrashColumns.concat(folded),
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
    filter_rule = _region_rule(spec, region_filter)
    table = _RawFile(file, spec.tag, "mileage")
    region_match = table.rule(filter_rule)
    year_of = table.number(schema.year_column, int, "year") if schema.year_column else None
    vmt_of = table.number(schema.vmt_column, float, "mileage")
    class_at = table.at(schema.class_column)
    area_at = table.at(schema.area_column) if schema.area_column else None
    table.check()
    at = table.where
    cells: list[MileageCell] = []
    for line, row in table.rows():
        if region_match is not None and region_match(row) is not True:
            diagnostics["region_filtered"] += 1
            continue
        if year_of is not None and year_of(line, row) != year:
            diagnostics["year_mismatch"] += 1
            continue
        vmt = vmt_of(line, row)
        functional_class = schema.class_codes.get(row[class_at])
        if functional_class is None:
            raise SchemaError(f"{at}:{line}: unmapped functional class code {row[class_at]!r}")
        area = row[area_at] if area_at is not None else None
        area_type = schema.area_codes.get(area) if area and area.strip() else schema.area_default
        if area_type is None:
            raise SchemaError(f"{at}:{line}: unmapped area code {area!r}")
        try:
            cells.append(MileageCell(
                region=region,
                year=year,
                functional_class=functional_class,
                area_type=area_type,
                vmt_millions=schema.to_millions(vmt),
            ))
        except ValidationError as exc:
            raise ValidationError(f"{at}:{line}: {exc}") from None
    return cells, diagnostics


def load_passenger_share(spec: SchemaSpec, file: str | Path) -> PassengerShareTable:
    if spec.kind != "shares":
        raise SchemaError(f"spec {spec.tag} is a {spec.kind} spec, not a shares spec")
    schema = spec.shares
    table = _RawFile(file, spec.tag, "shares")
    state_at = table.at(schema.state_column)
    area_at = table.at(schema.area_column)
    group_at = table.at(schema.group_column)
    share_of = table.number(schema.share_column, float, "share")
    table.check()
    at = table.where
    mapping: dict = {}
    for line, row in table.rows():
        state = (row[state_at] or "").strip()
        if not state:
            raise ValidationError(f"{at}:{line}: empty state")
        area = schema.area_codes.get(row[area_at])
        if area is None:
            raise SchemaError(f"{at}:{line}: unmapped area code {row[area_at]!r}")
        group = schema.group_codes.get(row[group_at])
        if group is None:
            raise SchemaError(f"{at}:{line}: unmapped class group {row[group_at]!r}")
        share = share_of(line, row)
        if schema.values == "percent":
            if not 0.0 <= share <= 100.0:
                raise ValidationError(f"{at}:{line}: share {share!r} outside [0, 100]")
            share /= 100.0
        elif not 0.0 <= share <= 1.0:
            raise ValidationError(f"{at}:{line}: share {share!r} outside [0, 1]")
        key = (state, area, group)
        if key in mapping:
            raise ValidationError(
                f"{at}:{line}: duplicate share for {PassengerShareTable.label(key)}")
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


def _load_canonical_source(ref: interchange.CrashSourceRef, region: Region,
                           year: int) -> LoadResult:
    """Fold one canonical source's tables into per-crash columns as they
    are read; no record is built."""
    if ref.region_filter:
        raise ValidationError(
            "canonical sources are filtered by their region column, not region_filter"
        )
    fold = interchange.read_crashes(ref.crash_file, region, year)
    if ref.vehicle_file:
        interchange.read_vehicles(ref.vehicle_file, fold)
    if ref.person_file:
        interchange.read_persons(ref.person_file, fold)
    units = fold.records["vehicles"]
    return LoadResult(
        tag=CANONICAL_SPEC, diagnostics=fold.diagnostics, rows_in=fold.rows_in,
        records=fold.records,
        tow_level="vehicle" if units else "crash",
        airbag_units=bool(units),
        folded=fold.columns,
    )


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, restoring the caller's setting
    however the block ends: raw rows are tuples of str, which it would scan
    again and again and never free."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _load_raw_source(ref: interchange.CrashSourceRef, region: Region,
                     year: int) -> LoadResult:
    """One raw source through ``load_crash_source``, each table's rows
    sorted on its key into one run, with the collector paused."""
    with _collector_paused():
        load = load_crash_source(
            load_schema(ref.spec), ref.crash_file, ref.vehicle_file, ref.person_file,
            region=region, year=year, region_filter=ref.region_filter,
        )
        for table, rows in load.rows.items():
            interchange.sort_rows(table, rows)
    return load


# Raw sources load in this process alone where the files of the sources
# after the first, which workers would load, hold fewer bytes than this:
# below it, forking and pickling cost about as much time as loading them
# beside this process's load saves, or more (README, "From raw files").
_WORKER_BYTES = 1 << 18


def _raw_bytes(refs: list[interchange.CrashSourceRef]) -> int:
    """The size of the files ``refs`` name, a file that cannot be read
    (which its load reports) counting nothing."""
    total = 0
    for ref in refs:
        for path in (ref.crash_file, ref.vehicle_file, ref.person_file):
            if path is not None:
                with suppress(OSError):
                    total += os.stat(path).st_size
    return total


def _start_worker(ref: interchange.CrashSourceRef, region: Region,
                  year: int) -> tuple[int, BinaryIO]:
    """Fork a worker process that loads ``ref`` (``_load_raw_source``) and
    pickles to a pipe its LoadResult and the digests its reads recorded
    (``errors._record``), or the exception it raised: (its pid, the
    pipe's read end).  A fork that fails is a RuntimeError naming the
    source."""
    import pickle
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read_end)
        os.close(write_end)
        raise RuntimeError(f"crash source {ref.spec} ({ref.crash_file}): could not "
                           f"start its worker process: {exc}") from exc
    if pid:
        os.close(write_end)
        return pid, os.fdopen(read_end, "rb")
    code = 1
    try:
        os.close(read_end)
        with os.fdopen(write_end, "wb") as pipe:
            try:
                outcome = _load_raw_source(ref, region, year), errors._record
            except Exception as exc:
                outcome = exc
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _raw_loads(refs: list[interchange.CrashSourceRef], region: Region,
               year: int) -> Iterator[LoadResult]:
    """Each raw source's LoadResult (``_load_raw_source``), in the order of
    ``refs``.  This process loads the first source itself while each
    other one loads in its own forked worker process, with at most one
    worker per available CPU but one alive at a time (this process uses
    a CPU too), and the digests its reads recorded join the open
    recording; an exception it raised is raised here, in its turn.  So
    the first source's rows are never pickled, and are held once.  Every
    worker is reaped however this ends.  All sources load in this
    process where there is one, or one CPU, where the files of the
    sources after the first hold fewer than ``_WORKER_BYTES`` in all,
    where there is no ``os.fork``, and where other threads run (a forked
    child of a threaded process can deadlock)."""
    rest = refs[1:]
    workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1) - 1
    if (not rest or workers < 1 or not hasattr(os, "fork")
            or threading.active_count() > 1 or _raw_bytes(rest) < _WORKER_BYTES):
        for ref in refs:
            yield _load_raw_source(ref, region, year)
        return
    import pickle  # imported only where workers run, off the canonical path
    import signal

    # Imported once, here, not by each worker: the spec module and the INI
    # reader it parses specs with, which a run without a config file has
    # not loaded.
    import configparser  # noqa: F401

    from . import schema  # noqa: F401
    waiting = iter(rest)
    running: deque = deque()      # (ref, pid, pipe) of each worker not reaped, in order

    def start() -> None:
        for ref in islice(waiting, workers - len(running)):
            running.append((ref, *_start_worker(ref, region, year)))

    try:
        start()
        yield _load_raw_source(refs[0], region, year)
        for _ in rest:
            start()
            ref, pid, pipe = running[0]
            try:
                with pipe, _collector_paused():
                    outcome = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                outcome = None      # the worker ended before it wrote a whole result
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.popleft()
            if outcome is None:
                how = f"killed by signal {-code}" if code < 0 else f"ended with exit code {code}"
                raise RuntimeError(
                    f"crash source {ref.spec} ({ref.crash_file}): its worker process "
                    f"{how} before it returned its rows")
            if isinstance(outcome, Exception):
                raise outcome
            load, record = outcome
            if errors._record is not None:
                errors._record.update(record)
            yield load
    finally:
        for _, pid, pipe in running:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def load_dataset(manifest: interchange.DatasetManifest) -> DatasetRecords:
    """Load and merge every source named by one dataset manifest.

    The first raw source loads in this process and the others in worker
    processes (``_raw_loads``), and canonical ones in this process; loads
    are taken in manifest order, so the first bad source is the one
    reported."""
    loads: list[tuple[str, LoadResult]] = []
    audits: list[dict] = []
    region, year = manifest.region, manifest.year
    raw = _raw_loads([ref for ref in manifest.crash_sources if ref.spec != CANONICAL_SPEC],
                     region, year)
    with closing(raw):
        for ref in manifest.crash_sources:
            load = (_load_canonical_source(ref, region, year) if ref.spec == CANONICAL_SPEC
                    else next(raw))
            loads.append((ref.role, load))
            audits.append({
                "spec": ref.spec,
                "role": ref.role,
                "rows_in": load.rows_in,
                "records": load.records,
                "diagnostics": dict(sorted(load.diagnostics.items())),
                "caveats": list(load.caveats),
            })
    records = combine_sources(loads)

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
                    raise ValidationError(
                        f"conflicting passenger shares for {PassengerShareTable.label(key)}")
                merged[key] = value
        shares = PassengerShareTable.from_mapping(merged)

    return DatasetRecords(
        manifest=manifest, records=records, mileage=cells, shares=shares,
        source_audits=audits,
    )


def _canonical_rows(ref: interchange.CrashSourceRef, region: Region,
                    year: int) -> LoadResult:
    """One canonical source's rows, encoded from its records, of the crashes
    its crash rows' fold keeps (``interchange.read_crashes``)."""
    files = zip(_TABLES, (ref.crash_file, ref.vehicle_file, ref.person_file))
    rows = {table: interchange.encode(table, interchange.read_records(path, table))
            for table, path in files if path is not None}
    kept = interchange.read_crashes(_in_memory(rows["crashes"], "crashes"), region, year).index
    return LoadResult(tag=CANONICAL_SPEC, rows={
        table: interchange.sort_rows(table, [row for row in rows.get(table, ())
                                             if row[0] in kept])
        for table in _TABLES})


def dataset_rows(dataset: DatasetRecords) -> dict[str, list[list]]:
    """Every crash, vehicle and person row of ``dataset`` by table, as
    sorted runs (``interchange.write_rows``), one per source, as
    ``ingest`` writes them.  ``load_dataset`` has checked, filtered and
    counted every source, but folds a canonical source into columns
    without rows; so the canonical sources are read again here as
    records and encoded to rows.  Each source keeps the rows of the
    crashes that the fold of its own crash rows keeps, and its role's
    crashes, and they are added to the raw sources' runs."""
    manifest = dataset.manifest
    canonical = combine_sources([
        (ref.role, _canonical_rows(ref, manifest.region, manifest.year))
        for ref in manifest.crash_sources if ref.spec == CANONICAL_SPEC
    ])
    raw = dataset.records
    return {table: raw.runs[table] + canonical.runs[table] for table in _TABLES}
