"""Canonical record interchange: fixed-header CSV tables and the run manifest.

One CSV file per table (crashes, vehicles, persons, mileage), UTF-8,
minimal RFC-4180 quoting, LF line endings.  Booleans are written as 1/0
and floats with repr so that a write/read/write cycle is byte-identical.

A canonical row is a tuple of the cells a table's file holds, in header
order, as text.  Each table is declared once: header, the columns it
sorts on, one encoder from a record to its row, and one decoder per
record field.  There is one writer, ``write_rows``: it takes rows as
runs, each sorted on the table's sort columns (``sort_rows``), and
merges them.  It joins the cells of each chunk of merged rows with
commas and writes that text as it is, unless a cell in the chunk needs
quoting, when each cell of the chunk is quoted as it needs; the bytes
are ``csv.writer``'s, but that a cell holding a lone CR is quoted too,
so that it reads back.  Raw sources load straight to rows
(``ingest.load_crash_source``) and give one run each; ``write_crashes``
and the other record writers encode, sort their one run, then call it.
Crash, vehicle and person keys are unique, and mileage rows, whose key
cells two rows may share, sort on all their cells, so no file shows the
order its rows were given in.

Rows are read from a file or taken from memory (``Rows``) alike.
``read_records`` builds each record through its constructor, so the
record types' own checks run.  The benchmark path builds no record:
``read_crashes`` folds a crash table into per-crash columns
(``filters.CrashColumns``), keeping one region and year, and
``read_vehicles`` and ``read_persons`` fold their tables into those
crashes through one child-table fold, so the canonical files of a
county, a raw source's rows, or records encoded to rows
(``filters.select_subset``) are counted in one pass each.  A fold reads
a file in chunks of whole lines (``_fold_file``, which ``ingest``'s
raw loaders read through too): a clean chunk, one that needs no ``csv``
parsing by the contract ``_fold_file`` states, is split at its commas
once and folded column by column, and every other chunk, from its
first line to the end of the file, and rows in memory, row by row.
Both ways run the same decoders, memos (on the same keys) and checks,
and a chunk is folded only once all its rows have passed them, so a
fault is met, and named, row by row.  The folds decode every cell with
the table's own decoders and run the records' checks
(``model.check_crash``, ``check_unit``, ``check_person``) on every row,
kept or not.  Either way, a cell other than an id or a float comes
from a small domain and is parsed once per distinct text per table (a
``Memo``).  A cell that does not parse raises ValidationError naming
``path:line``, the column and the bad value; a row a check rejects names
``path:line`` and the reason; a repeated key names ``path:line`` and the
key: a crash id as its row passes, a vehicle or person key, when the
table's keys are out of order, by reading the table again.  The line is
the physical line the row ends on, so a quoted cell that spans lines
does not shift the lines named after it.
"""

from __future__ import annotations

import csv
import json
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import gt, is_, itemgetter, not_
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import ValidationError, _json_check, _opened
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
    check_person,
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
    key: tuple[str, ...]   # the columns rows sort on
    encode: Callable       # record -> canonical row
    make: Callable         # record constructor
    fields: dict           # "column[,column]" -> parse, in constructor order


_UNMEMOIZED = (str, float)      # ids and measures; every other parse is memoized
_BOOL = {"1": True, "0": False}.__getitem__
FLAG = ("0", "1")               # a flag's cell: FLAG[flag]


def _cells(header: tuple[str, ...], *columns: str) -> Callable:
    """Row -> its cells in ``columns`` (one cell for one column), located by
    ``header``."""
    return itemgetter(*map(header.index, columns))


_CRASHES = _Table(
    CRASH_HEADER, ("source", "crash_id"),
    lambda c: (
        c.crash_id, c.source, c.region.name, c.region.state, str(c.year),
        c.road_class.value, repr(c.sample_weight), c.max_kabco.value,
        FLAG[c.tow_away], FLAG[c.airbag_deployed],
    ),
    CrashEvent,
    {"crash_id": str, "source": str, "region,region_state": Region.of_cells,
     "year": int, "road_class": RoadClass, "sample_weight": float, "max_kabco": Kabco,
     "tow_away": _BOOL, "airbag_deployed": _BOOL},
)
_VEHICLES = _Table(
    VEHICLE_HEADER, ("crash_id", "unit_id"),
    lambda v: (
        v.crash_id, v.unit_id, v.body_class.value, FLAG[v.in_transport], FLAG[v.towed],
        FLAG[v.airbag_deployed],
    ),
    VehicleInvolvement,
    {"crash_id": str, "unit_id": str, "body_class": BodyClass, "in_transport": _BOOL,
     "towed": _BOOL, "airbag_deployed": _BOOL},
)
_PERSONS = _Table(
    PERSON_HEADER, ("crash_id", "unit_id", "person_id"),
    lambda p: (p.crash_id, p.unit_id, p.person_id, p.kabco.value, FLAG[p.airbag_deployed]),
    PersonOutcome,
    {"crash_id": str, "unit_id": str, "person_id": str, "kabco": Kabco,
     "airbag_deployed": _BOOL},
)
_MILEAGE = _Table(
    MILEAGE_HEADER, MILEAGE_HEADER,
    lambda m: (
        m.region.name, m.region.state, str(m.year), m.functional_class.value,
        m.area_type.value, repr(m.vmt_millions),
    ),
    MileageCell,
    {"region,region_state": Region.of_cells, "year": int,
     "functional_class": FunctionalClass, "area_type": AreaType, "vmt_millions": float},
)
_TABLES = {"crashes": _CRASHES, "vehicles": _VEHICLES, "persons": _PERSONS,
           "mileage": _MILEAGE}


def _sort_key(table: str) -> Callable:
    spec = _TABLES[table]
    return _cells(spec.header, *spec.key)


def sort_rows(table: str, rows: list) -> list:
    """``rows`` of ``table``, sorted in place on the table's sort columns:
    one run for ``write_rows``.  Rows are sorted on one column at a time,
    the last first, each sort stable: the order of sorting on the tuple of
    those cells, without building a tuple per row."""
    spec = _TABLES[table]
    for position in reversed(list(map(spec.header.index, spec.key))):
        rows.sort(key=itemgetter(position))
    return rows


_CHUNK = 4096   # merged rows encoded at a time (``write_rows``)


def _quoted(cell: str) -> str:
    """``cell`` as a canonical file holds it: in quotes, each quote doubled,
    when it holds a comma, a quote, LF or CR; as it is otherwise."""
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_rows(path: str | Path, table: str,
               runs: Iterable[Sequence[Sequence[str]]]) -> None:
    """The one canonical writer: the rows of ``table`` (crashes, vehicles,
    persons or mileage) in ``runs``, each sorted on the table's sort
    columns (``sort_rows``), merged on them.  A chunk of merged rows whose
    joined text shows that no cell holds a comma, a quote, LF or CR (one
    comma fewer than cells and one LF per row, no quote, no CR) needs no
    quoting and is written as it is; in any other, each cell is
    ``_quoted``.  The bytes are ``csv.writer``'s, but for a cell holding a
    lone CR, which ``csv.writer`` leaves unquoted and ``csv.reader`` would
    end the row at."""
    import heapq  # imported only by the commands that write tables
    header = _TABLES[table].header
    commas = len(header) - 1
    merged = heapq.merge(*runs, key=_sort_key(table))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        while chunk := list(islice(merged, _CHUNK)):
            text = "\n".join(map(",".join, chunk)) + "\n"
            if not (text.count(",") == commas * len(chunk) and text.count("\n") == len(chunk)
                    and '"' not in text and "\r" not in text):
                text = "".join(",".join(map(_quoted, row)) + "\n" for row in chunk)
            handle.write(text)


def encode(table: str, records: Iterable) -> list[tuple[str, ...]]:
    """The canonical rows of ``records`` of ``table``, in the given order."""
    return list(map(_TABLES[table].encode, records))


class Rows(NamedTuple):
    """Canonical rows held in memory, named ``label`` in errors; the folds
    and ``read_records`` take them in place of a file."""

    label: str
    rows: Sequence[Sequence[str]]


def _past_header(source: str | Path, header: tuple[str, ...], handle) -> csv.reader:
    """A strict ``csv.reader`` on ``handle`` (``errors._opened``) that has
    read the file's header, which must be ``header``."""
    reader = csv.reader(handle, strict=True)
    found = next(reader, None)
    if found is None:
        raise ValidationError(f"{source}: empty file, expected header {','.join(header)}")
    if tuple(found) != header:
        raise ValidationError(
            f"{source}: header {found!r} does not match canonical header {list(header)!r}"
        )
    return reader


@contextmanager
def _open(source: str | Path | Rows, header: tuple[str, ...]):
    """(rows, at) of a canonical table: a file's rows past its checked
    header, or rows in memory.  ``at(n)``, called while the n-th row
    (from 1) is the last one read, names it ``path:line``: the physical
    line a file's row ends on, as ``csv.reader`` counts it, or for rows in
    memory the line it would hold below a header."""
    if isinstance(source, Rows):
        yield source.rows, lambda n: f"{source.label}:{n + 1}"
        return
    with _opened(source, "canonical file") as handle:
        reader = _past_header(source, header, handle)
        yield reader, lambda n: f"{source}:{reader.line_num}"


_READ = 1 << 14     # characters of a file a fold reads at a time, in whole lines


def _fold(source: str | Path | Rows, header: tuple[str, ...],
          chunk: Callable[[list[str]], bool], rows: Callable[..., int]) -> int:
    """Read a canonical table into a fold; the number of data rows read.

    A file is read past its checked header by ``_fold_file``, and
    ``rows(rows, at, n)`` folds, n rows in, what ``chunk`` does not, with
    ``at`` as ``_open`` gives it; rows in memory go to ``rows`` alone.
    ``rows`` returns the rows read in all."""
    if isinstance(source, Rows):
        return rows(source.rows, lambda n: f"{source.label}:{n + 1}", 0)
    with _opened(source, "canonical file") as handle:
        reader = _past_header(source, header, handle)
        return _fold_file(
            handle, reader, len(header), chunk,
            lambda reader, line, n: rows(reader, lambda _: f"{source}:{line + reader.line_num}", n))


def _fold_file(handle, reader: csv.reader, width: int, chunk: Callable[[list[str]], bool],
               rows: Callable[..., int]) -> int:
    """Read the rest of a CSV file, past the lines ``reader`` (a strict
    ``csv.reader`` on ``handle``, from ``errors._opened``) has read, into a
    fold; what ``rows`` returns, or the number of rows ``chunk`` folded.

    The file is read in chunks of whole lines, ``_READ`` characters or just
    over.  The clean-chunk contract, which every fold's ``chunk`` relies on
    and which is checked here alone: a clean chunk has no quote or NUL, no
    CR but in a CR LF line end (read as LF, as ``csv`` reads it), and no
    line longer than ``csv`` takes a cell to be; split at its commas, it
    has ``width`` cells a line, and each row's LF sits in its last cell,
    which proves that every row has ``width`` cells.  The LFs are dropped,
    so ``chunk(cells)`` gets each row's cells exactly as the row loop reads
    them, and may read its columns in any order.  It folds them column by
    column; where a row of them would fail, it returns False and has
    changed nothing.  From the first line of any other chunk, of one that
    ``chunk`` does not fold or of one holding a byte that is not UTF-8, to
    the end of the file, ``rows(reader, line, n)`` folds row by row, n rows
    in: ``reader`` is a strict ``csv.reader`` from that line, and ``line +
    reader.line_num`` the physical line its last row ends on."""
    longest = csv.field_size_limit()
    n = 0
    try:
        while lines := handle.readlines(_READ):
            text = ",".join(lines)
            if "\r" in text and text.count("\r") == text.count("\r\n"):
                text = text.replace("\r\n", "\n")
            if ('"' in text or "\r" in text or "\0" in text
                    or len(text) > longest and max(map(len, lines)) > longest):
                break
            cells = text.split(",")
            if len(cells) != width * len(lines):
                break
            # A cell holds at most one LF, at its end, so one LF for each row
            # among the rows' last cells means every row has ``width`` cells.
            ends = "".join(cells[width - 1::width]).split("\n")
            if len(ends) != len(lines) + 1:
                break
            cells[width - 1::width] = ends[:-1]
            if not chunk(cells):
                break
            n += len(lines)
        else:
            return n
    except UnicodeDecodeError:
        # A byte of the chunk is not UTF-8.  Read the file again up to the
        # chunk, so that the rows before the byte are decoded and folded
        # as the row loop alone would read them, and a fault among them
        # is named first.
        handle.seek(0)
        deque(islice(handle, reader.line_num + n), 0)
        lines = []
    line = reader.line_num + n
    return rows(csv.reader(chain(lines, handle), strict=True), line, n)


class Memo(dict):
    """``decode`` of each distinct key (cells), made once: a missing key is
    decoded and kept; one that does not decode raises and is not kept."""

    def __init__(self, decode: Callable) -> None:
        super().__init__()
        self.decode = decode

    def __missing__(self, key):
        value = self[key] = self.decode(key)
        return value


def _plan(table: _Table) -> list:
    """Per field: (row -> its cell or cells, cell text -> value)."""
    return [
        (_cells(table.header, *columns.split(",")),
         parse if parse in _UNMEMOIZED else Memo(parse).__getitem__)
        for columns, parse in table.fields.items()
    ]


def _records(source: str | Path | Rows, table: _Table) -> list:
    plan = _plan(table)
    width, make = len(table.header), table.make
    records = []
    with _open(source, table.header) as (rows, at):
        for n, row in enumerate(rows, 1):
            if len(row) != width:
                raise _row_error(at(n), table, row)
            try:
                values = [decode(cells(row)) for cells, decode in plan]
            except (KeyError, ValueError):
                raise _row_error(at(n), table, row) from None
            try:
                records.append(make(*values))
            except ValidationError as exc:
                raise ValidationError(f"{at(n)}: {exc}") from None
    return records


def _row_error(where: str, table: _Table, row: list) -> ValidationError:
    """The error naming what is wrong with ``row``: its width, or the first
    of its cells that does not decode."""
    if len(row) != len(table.header):
        return ValidationError(f"{where}: expected {len(table.header)} cells, got {len(row)}")
    for columns, (cells, decode) in zip(table.fields, _plan(table)):
        try:
            decode(cells(row))
        except (KeyError, ValueError) as exc:
            reason = f": {exc}" if isinstance(exc, ValidationError) else ""
            return ValidationError(f"{where}: unreadable {columns} {cells(row)!r}{reason}")


def _fold_fields(table: _Table, *names: str) -> tuple[list[int], Callable]:
    """For the table fields ``names`` (two or more columns in all): the
    positions of their cells in a row, and the tuple of those cells ->
    the fields' values, each decoded by the table's own decoder.  The
    folds memoize the second on the first."""
    columns = [column for name in names for column in name.split(",")]
    getters = [itemgetter(*name.split(",")) for name in names]

    def decode(cells: tuple[str, ...]) -> list:
        by_column = dict(zip(columns, cells))
        return [table.fields[name](get(by_column)) for name, get in zip(names, getters)]

    return list(map(table.header.index, columns)), decode


def _check_each(check: Callable, *columns: Sequence) -> None:
    """``check`` of each row's cells in ``columns``, row by row."""
    deque(map(check, *columns), 0)


def _check_unique(source: str | Path | Rows, table: _Table, *columns: str) -> None:
    """A row whose key (its cells in ``columns``) an earlier line holds is
    an error naming ``path:line``.  A child table's fold reads its rows a
    second time, here, only when their keys are out of order."""
    label = columns[0] if len(columns) == 1 else f"({', '.join(columns)})"
    key = _cells(table.header, *columns)
    seen = set()
    with _open(source, table.header) as (rows, at):
        for n, row in enumerate(rows, 1):
            value = key(row)
            if value in seen:
                raise ValidationError(f"{at(n)}: repeated {label} {value!r}")
            seen.add(value)


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
    columns, keeping ``region`` and ``year``, the one rule for which crashes
    a canonical source holds.  Every row's cells and checks are read either
    way; a crash id read before, kept or not, is an error at its row."""
    id_at, weight_at = map(CRASH_HEADER.index, ("crash_id", "sample_weight"))
    parse_weight = _CRASHES.fields["sample_weight"]
    at_cells, decode_cells = _fold_fields(
        _CRASHES, "region,region_state", "year", "road_class", "max_kabco", "tow_away",
        "airbag_deployed")
    cells_of = itemgetter(*at_cells)

    def decode(key: tuple[str, ...]) -> tuple[int, str, RoadClass, int]:
        """Year, fate ("" when kept, else the diagnostic), road class and
        severity evidence of a row's cells other than its id and weight."""
        found, year_value, road, kabco, tow, airbag = decode_cells(key)
        fate = ("region_filtered" if found != region
                else "year_mismatch" if year_value != year else "")
        return year_value, fate, road, crash_evidence(kabco, tow, airbag)

    decoded = Memo(decode)
    width = len(CRASH_HEADER)
    ids, weights, road_class, evidence = [], [], [], []
    index: dict[str, int] = {}
    dropped: set[str] = set()
    diagnostics: Counter = Counter()

    def fold_chunk(cells: list[str]) -> bool:
        chunk_ids = cells[id_at::width]
        try:
            years, fates, roads, bits = zip(*map(
                decoded.__getitem__, zip(*(cells[i::width] for i in at_cells))))
            chunk_weights = list(map(parse_weight, cells[weight_at::width]))
            _check_each(check_crash, chunk_ids, chunk_weights, years)
        except (KeyError, ValueError):
            return False
        if (len(set(chunk_ids)) < len(chunk_ids) or not index.keys().isdisjoint(chunk_ids)
                or not dropped.isdisjoint(chunk_ids)):
            return False
        if any(fates):
            diagnostics.update(filter(None, fates))
            dropped.update(compress(chunk_ids, fates))
            keep = list(map(not_, fates))
            chunk_ids, chunk_weights, roads, bits = (
                list(compress(column, keep)) for column in (chunk_ids, chunk_weights, roads, bits))
        index.update(zip(chunk_ids, count(len(ids))))
        ids.extend(chunk_ids)
        weights.extend(chunk_weights)
        road_class.extend(roads)
        evidence.extend(bits)
        return True

    def fold_rows(rows: Iterable, at: Callable, n: int) -> int:
        for n, row in enumerate(rows, n + 1):
            if len(row) != width:
                raise _row_error(at(n), _CRASHES, row)
            try:
                crash_id, weight = row[id_at], row[weight_at]
                year_value, fate, road, bits = decoded[cells_of(row)]
                weight = parse_weight(weight)
            except (KeyError, ValueError):
                raise _row_error(at(n), _CRASHES, row) from None
            try:
                check_crash(crash_id, weight, year_value)
            except ValidationError as exc:
                raise ValidationError(f"{at(n)}: {exc}") from None
            if crash_id in index or crash_id in dropped:
                raise ValidationError(f"{at(n)}: repeated crash_id {crash_id!r}")
            if fate:
                diagnostics[fate] += 1
                dropped.add(crash_id)
                continue
            index[crash_id] = len(ids)
            ids.append(crash_id)
            weights.append(weight)
            road_class.append(road)
            evidence.append(bits)
        return n

    n = _fold(source, CRASH_HEADER, fold_chunk, fold_rows)
    return CanonicalFold(
        columns=CrashColumns.of_crashes(ids, weights, road_class, evidence),
        index=index, dropped=dropped,
        rows_in={"crashes": n, "vehicles": 0, "persons": 0},
        records={"crashes": len(ids), "vehicles": 0, "persons": 0},
        diagnostics=diagnostics,
    )


def _fold_children(source: str | Path | Rows, table: str, fold: CanonicalFold,
                   at_cells: list[int], effect: Callable, check: Callable) -> None:
    """Fold a child table (vehicles or persons) into ``fold``'s crashes.

    Every row is decoded and checked: ``effect`` of its cells at
    ``at_cells``, memoized on them, gives the (tally, evidence bits) the
    row adds to its crash, or None for a row that adds nothing, and
    ``check`` runs on its key.  A row of a crash not kept is counted
    (``CanonicalFold.count_orphan``); rows read and kept are set in
    ``fold``.
    """
    spec = _TABLES[table]
    at_key = list(map(spec.header.index, spec.key))     # the crash id's first
    key_of, cells_of = itemgetter(*at_key), itemgetter(*at_cells)
    effects = Memo(effect)
    index, evidence = fold.index, fold.columns.evidence
    width = len(spec.header)
    orphans = 0
    in_order, last = True, ()

    def fold_chunk(cells: list[str]) -> bool:
        nonlocal orphans, in_order, last
        key_columns = [cells[i::width] for i in at_key]
        try:
            adds = list(map(effects.__getitem__, zip(*(cells[i::width] for i in at_cells))))
            _check_each(check, *key_columns)
        except (KeyError, ValueError):
            return False
        if in_order:
            keys = list(zip(*key_columns))
            in_order, last = all(map(gt, keys, chain((last,), keys))), keys[-1]
        crash_ids = key_columns[0]
        places = list(map(index.get, crash_ids))
        if None in places:
            for crash_id in compress(crash_ids, map(is_, places, repeat(None))):
                fold.count_orphan(crash_id)
            orphans += places.count(None)
        if any(adds):
            for i, adds_to in zip(places, adds):
                if i is not None and adds_to is not None:
                    tally, bits = adds_to
                    tally[i] += 1
                    evidence[i] |= bits
        return True

    def fold_rows(rows: Iterable, at: Callable, n: int) -> int:
        nonlocal orphans, in_order, last
        last_crash = i = None
        for n, row in enumerate(rows, n + 1):
            if len(row) != width:
                raise _row_error(at(n), spec, row)
            try:
                adds = effects[cells_of(row)]
            except (KeyError, ValueError):
                raise _row_error(at(n), spec, row) from None
            key = key_of(row)
            try:
                check(*key)
            except ValidationError as exc:
                raise ValidationError(f"{at(n)}: {exc}") from None
            # Key order is checked as rows pass; a crash's rows sit together
            # in a canonical file and in a raw source's rows, so its position
            # is looked up once.
            in_order = in_order and key > last
            last = key
            if key[0] != last_crash:
                last_crash, i = key[0], index.get(key[0])
            if i is None:
                fold.count_orphan(last_crash)
                orphans += 1
            elif adds is not None:
                tally, bits = adds
                tally[i] += 1
                evidence[i] |= bits
        return n

    n = _fold(source, spec.header, fold_chunk, fold_rows)
    if not in_order:
        _check_unique(source, spec, *spec.key)
    fold.rows_in[table] = n
    fold.records[table] = n - orphans


def read_vehicles(source: str | Path | Rows, fold: CanonicalFold) -> None:
    """Fold a vehicle table (``vehicles.csv`` or rows in memory) into the
    unit tallies and severity evidence of ``fold``'s crashes
    (``filters.unit_effect``); no record is built."""
    columns = fold.columns
    at_cells, decode = _fold_fields(
        _VEHICLES, "body_class", "in_transport", "towed", "airbag_deployed")
    _fold_children(source, "vehicles", fold, at_cells,
                   lambda key: _effect(columns, *decode(key)), check_unit)


def _effect(columns: CrashColumns, *unit) -> tuple[list[int], int]:
    tally, bits = unit_effect(*unit)
    return getattr(columns, tally), bits


def read_persons(source: str | Path | Rows, fold: CanonicalFold) -> None:
    """Count a person table's rows against ``fold``'s crashes; persons are
    checked and counted for the audit, not kept."""
    at_cells, decode = _fold_fields(_PERSONS, "kabco", "airbag_deployed")

    def no_effect(key: tuple[str, ...]) -> None:
        decode(key)         # the cells must decode; a person adds nothing to its crash

    _fold_children(source, "persons", fold, at_cells, no_effect, check_person)


def write_crashes(path: str | Path, crashes: Iterable[CrashEvent]) -> None:
    write_rows(path, "crashes", [sort_rows("crashes", encode("crashes", crashes))])


def write_vehicles(path: str | Path, vehicles: Iterable[VehicleInvolvement]) -> None:
    write_rows(path, "vehicles", [sort_rows("vehicles", encode("vehicles", vehicles))])


def write_persons(path: str | Path, persons: Iterable[PersonOutcome]) -> None:
    write_rows(path, "persons", [sort_rows("persons", encode("persons", persons))])


def write_mileage(path: str | Path, cells: Iterable[MileageCell]) -> None:
    write_rows(path, "mileage", [sort_rows("mileage", encode("mileage", cells))])


def read_mileage(path: str | Path) -> list[MileageCell]:
    return _records(path, _MILEAGE)


def read_records(source: str | Path | Rows, table: str) -> list:
    """Every record of one canonical table (crashes, vehicles, persons or
    mileage), from a file or from rows in memory, each built through its
    constructor.  The benchmark path folds crash tables instead
    (``read_crashes``)."""
    return _records(source, _TABLES[table])


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


def _manifest_region(value, check: Callable, where: str) -> Region:
    """The region at ``where``: "national", or an object of ``kind``
    national or county (the default) with a non-blank string ``name`` and
    ``state``; a county may not take the national region's name."""
    if value == "national":
        return Region.national()
    check(value, dict, where)
    if check(value.get("kind", "county"), str, f"{where}.kind",
             among=("national", "county")) == "national":
        return Region.national()
    name = check(value.get("name"), str, f"{where}.name", text=True)
    state = check(value.get("state"), str, f"{where}.state", text=True)
    try:
        return Region.county(name, state)
    except ValidationError as exc:
        raise ValidationError(f"{check.label}: {where}.name: {exc}") from None


def _resolve(base: Path, value: str) -> Path:
    path = Path(value)
    return path if path.is_absolute() else base / path


def _parse_dataset(obj, base: Path, check: Callable, at: str) -> DatasetManifest:
    """One dataset of a manifest, at path ``at`` in it ("" for the top
    level); ``check`` (``errors._json_check``) names a value out of place."""
    check(obj, dict, at or "the top level")
    prefix = f"{at}." if at else ""

    def entries(key: str) -> list[tuple[str, dict]]:
        where = prefix + key
        return [(f"{where}[{i}]", check(entry, dict, f"{where}[{i}]"))
                for i, entry in enumerate(check(obj.get(key, []), list, where))]

    def text(entry: dict, key: str, where: str, optional: bool = False) -> str | None:
        value = entry.get(key)
        return None if optional and value is None else check(value, str, f"{where}.{key}")

    region = _manifest_region(obj.get("region"), check, f"{prefix}region")
    year = check(obj.get("year"), int, f"{prefix}year")
    sources = []
    for where, entry in entries("crash_sources"):
        role = check(entry.get("role", "all"), str, f"{where}.role", among=_ROLES)
        vehicle_file, person_file = (text(entry, key, where, optional=True)
                                     for key in ("vehicle_file", "person_file"))
        sources.append(CrashSourceRef(
            spec=text(entry, "spec", where),
            crash_file=_resolve(base, text(entry, "crash_file", where)),
            vehicle_file=_resolve(base, vehicle_file) if vehicle_file else None,
            person_file=_resolve(base, person_file) if person_file else None,
            role=role,
            region_filter=text(entry, "region_filter", where, optional=True),
        ))
    mileage = tuple(
        MileageRef(
            spec=text(entry, "spec", where),
            file=_resolve(base, text(entry, "file", where)),
            region_filter=text(entry, "region_filter", where, optional=True),
        )
        for where, entry in entries("mileage")
    )
    shares = tuple(
        ShareRef(spec=text(entry, "spec", where), file=_resolve(base, text(entry, "file", where)))
        for where, entry in entries("shares")
    )
    return DatasetManifest(
        region=region,
        year=year,
        crash_sources=tuple(sources),
        mileage=mileage,
        shares=shares,
        road_rule=check(obj.get("road_rule", "county_functional"), str, f"{prefix}road_rule"),
    )


def load_manifest(path: str | Path) -> list[DatasetManifest]:
    """Read a manifest file; paths inside are resolved against its directory."""
    path = Path(path)
    with _opened(path, "manifest") as handle:
        obj = json.loads(handle.read())
    base = path.parent
    check = _json_check(f"manifest {path}")
    if isinstance(obj, dict) and "datasets" in obj:
        out = [_parse_dataset(entry, base, check, f"datasets[{i}]")
               for i, entry in enumerate(check(obj["datasets"], list, "datasets"))]
    else:
        out = [_parse_dataset(obj, base, check, "")]
    if not out:
        raise ValidationError(f"{path}: manifest lists no datasets")
    for ds in out:
        if ds.road_rule not in ROAD_RULES:
            raise ValidationError(
                f"{path}: unknown road rule {ds.road_rule!r}; "
                f"expected one of {sorted(ROAD_RULES)}"
            )
    return out
