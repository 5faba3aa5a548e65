"""The canonical folds read a file the same way at every chunk size, and
rows sort to one order however they are sorted.

``interchange._fold`` reads a canonical table in chunks of whole lines
(``interchange._READ`` characters or just over): a clean chunk is folded
column by column, and any other, from its first line on, row by row.  So
the fold of a table, or the error it raises, must not depend on where the
chunks end.  Each table here is read at every chunk size from one line to
the whole file, and a table that reads is also folded from its rows in
memory, which the row loop alone reads.
"""

import csv
import heapq
import io
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from crashbench import interchange
from crashbench.errors import ValidationError
from crashbench.model import Region

TOWN = Region.county("Springfield", "IL")
YEAR = 2022
HEADERS = {"crashes": interchange.CRASH_HEADER, "vehicles": interchange.VEHICLE_HEADER,
           "persons": interchange.PERSON_HEADER}
READERS = {"vehicles": interchange.read_vehicles, "persons": interchange.read_persons}


def _fold(paths: dict):
    """The fold of the tables at ``paths`` (crashes, then vehicles and
    persons where given), or the text of the error it raises."""
    try:
        fold = interchange.read_crashes(paths["crashes"], TOWN, YEAR)
        for table in ("vehicles", "persons"):
            if table in paths:
                READERS[table](paths[table], fold)
    except ValidationError as exc:
        return str(exc)
    return fold


def _at_every_size(paths: dict) -> list:
    """``_fold(paths)`` with ``_READ`` at every size from one character (one
    line a chunk) to the longest file's length (one chunk)."""
    longest = max(len(path.read_text(encoding="utf-8")) for path in paths.values())
    outcomes = []
    for size in range(1, longest + 2):
        with mock.patch.object(interchange, "_READ", size):
            outcomes.append(_fold(paths))
    return outcomes


def _in_memory(texts: dict):
    """The fold of the tables' rows, parsed by ``csv.reader`` and read from
    memory: the row loop alone."""
    def rows(table):
        parsed = list(csv.reader(io.StringIO(texts[table], newline=""), strict=True))
        return interchange.Rows(table, parsed[1:])

    fold = interchange.read_crashes(rows("crashes"), TOWN, YEAR)
    for table in ("vehicles", "persons"):
        if table in texts:
            READERS[table](rows(table), fold)
    return fold


# Mostly plain cells, so most chunks are clean; the rest need quoting, are
# empty, or do not decode.
ID = st.sampled_from(["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8",
                      "C,9", 'C"10', "C\n11", "C\r12", "C\r\n13", "C\x0014", ""])
PLACE = st.sampled_from([("Springfield", "IL", "2022")] * 5
                        + [("Springfield", "IL", "2021"), ("Shelbyville", "IL", "2022")])
ROAD = st.sampled_from(["surface_street"] * 3 + ["excluded_highway", "unknown"])
WEIGHT = st.sampled_from(["1.0"] * 6 + ["2.5", "0.25", "abc", "0", "nan"])
KABCO = st.sampled_from(["O"] * 4 + ["K", "A", "B", "C", "ISU", "UNK", "Z"])
FLAG = st.sampled_from(["0"] * 4 + ["1"] * 4 + ["2"])
UNIT = st.sampled_from(["1"] * 3 + ["2", "3", ""])
BODY = st.sampled_from(["passenger"] * 4 + ["vehicle_nfs", "other_vehicle", "non_vehicle",
                                            "bus"])
SHAPE = st.sampled_from(["plain"] * 12 + ["short", "long", "blank_before", "crlf"])


@st.composite
def _row(draw, table: str) -> list[str]:
    if table == "crashes":
        region, state, year = draw(PLACE)
        return [draw(ID), "town", region, state, year, draw(ROAD), draw(WEIGHT),
                draw(KABCO), draw(FLAG), draw(FLAG)]
    if table == "vehicles":
        return [draw(ID), draw(UNIT), draw(BODY), draw(FLAG), draw(FLAG), draw(FLAG)]
    return [draw(ID), draw(UNIT), draw(st.sampled_from(["1", "2", ""])), draw(KABCO),
            draw(FLAG)]


@st.composite
def _table(draw, table: str) -> str:
    """A canonical table's text: quoted where a cell needs it, in key order
    or not, with the odd short, long, blank or CR LF line, and maybe no
    final LF."""
    rows = draw(st.lists(_row(table), max_size=9))
    if draw(st.booleans()):
        rows.sort()
    lines = [",".join(HEADERS[table]) + "\n"]
    for row in rows:
        shape = draw(SHAPE)
        if shape == "short":
            row = row[:-1]
        elif shape == "long":
            row = [*row, "x"]
        elif shape == "blank_before":
            lines.append("\n")
        lines.append(",".join(map(interchange._quoted, row))
                     + ("\r\n" if shape == "crlf" else "\n"))
    text = "".join(lines)
    return text[:-1] if rows and draw(st.integers(0, 4)) == 0 else text


@settings(max_examples=60)
@given(crashes=_table("crashes"), vehicles=_table("vehicles"), persons=_table("persons"))
def test_every_chunk_size_folds_alike(tmp_path_factory, crashes, vehicles, persons):
    texts = {"crashes": crashes, "vehicles": vehicles, "persons": persons}
    folder = tmp_path_factory.mktemp("tables")
    paths = {}
    for table, text in texts.items():
        paths[table] = folder / f"{table}.csv"
        paths[table].write_text(text, encoding="utf-8", newline="")
    first, *rest = _at_every_size(paths)
    for outcome in rest:
        assert outcome == first
    if not isinstance(first, str):
        assert first == _in_memory(texts)


def _crashes(*rows: str) -> str:
    return ",".join(interchange.CRASH_HEADER) + "\n" + "".join(rows)


def _vehicles(*rows: str) -> str:
    return ",".join(interchange.VEHICLE_HEADER) + "\n" + "".join(rows)


def _persons(*rows: str) -> str:
    return ",".join(interchange.PERSON_HEADER) + "\n" + "".join(rows)


def _crash(crash_id: str, weight: str = "1.0", year: str = "2022") -> str:
    return f"{crash_id},town,Springfield,IL,{year},surface_street,{weight},O,0,1\n"


CRASHES = _crashes(*(_crash(f"C{i}") for i in range(1, 7)))

# Malformed tables, and the error each raises at every chunk size, as the
# row-by-row reader raised it before the chunked one.  ``{}`` is the file.
MALFORMED = {
    "bad_weight": (
        {"crashes": _crashes(_crash("C1"), _crash("C2"), _crash("C3", "abc"))},
        "{}:4: unreadable sample_weight 'abc'"),
    "zero_weight": (
        {"crashes": _crashes(_crash("C1"), _crash("C2", "0"))},
        "{}:3: crash C2: sample_weight must be positive, got 0.0"),
    "implausible_year": (
        {"crashes": _crashes(_crash("C1"), _crash("C2", year="1850"))},
        "{}:3: crash C2: implausible year 1850"),
    "short_row": (
        {"crashes": _crashes(_crash("C1"), "C2,town,Springfield,IL,2022,unknown,1.0,O,0\n")},
        "{}:3: expected 10 cells, got 9"),
    "long_row": (
        {"crashes": _crashes(_crash("C1"), _crash("C2")[:-1] + ",x\n")},
        "{}:3: expected 10 cells, got 11"),
    "blank_line": (
        {"crashes": _crashes(_crash("C1"), "\n", _crash("C2"))},
        "{}:3: expected 10 cells, got 0"),
    "repeated_crash_id": (
        {"crashes": _crashes(_crash("C1"), _crash("C2", year="2021"), _crash("C3"),
                             _crash("C2"))},
        "{}:5: repeated crash_id 'C2'"),
    "cell_over_two_lines": (
        {"crashes": _crashes(_crash("C1"), _crash('"C\n2"'), _crash("C3", "abc"))},
        "{}:5: unreadable sample_weight 'abc'"),
    "unquoted_cr": (
        {"crashes": _crashes(_crash("C1"), "C\r" + _crash("2"))},
        "{}:3: expected 10 cells, got 1"),
    "open_quote": (
        {"crashes": _crashes(_crash("C1"), '"C2,town\n')},
        "canonical file {}:3: unexpected end of data"),
    "last_row_cut": (
        {"crashes": _crashes(_crash("C1"), "C2,town,Springfield")},
        "{}:3: expected 10 cells, got 3"),
    "empty_unit_id": (
        {"crashes": CRASHES, "vehicles": _vehicles("C1,1,passenger,1,0,0\n",
                                                   "C2,,passenger,1,0,0\n")},
        "{}:3: crash C2: vehicle unit_id is empty"),
    "bad_body_class": (
        {"crashes": CRASHES, "vehicles": _vehicles("C1,1,passenger,1,0,0\n",
                                                   "C2,1,bus,1,0,0\n")},
        "{}:3: unreadable body_class 'bus'"),
    "repeated_vehicle_key": (
        {"crashes": CRASHES, "vehicles": _vehicles(
            "C1,1,passenger,1,0,0\n", "C2,1,passenger,1,0,0\n", "C1,2,passenger,1,0,0\n",
            "C2,1,passenger,1,0,0\n")},
        "{}:5: repeated (crash_id, unit_id) ('C2', '1')"),
    "short_row_then_long_row": (
        # Split at their commas, the two rows' ten cells would read as two
        # rows of five, but for the LF that ends the first.
        {"crashes": CRASHES, "persons": _persons("C1,1\n", "1,O,0x,C1,1,2,O,0\n")},
        "{}:2: expected 5 cells, got 2"),
    "empty_person_id": (
        {"crashes": CRASHES, "persons": _persons("C1,1,1,O,0\n", "C1,1,,O,0\n")},
        "{}:3: crash C1: person_id is empty"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_tables_raise_the_same_error_at_every_size(tmp_path, name):
    texts, expected = MALFORMED[name]
    paths = {}
    for table, text in texts.items():
        paths[table] = tmp_path / f"{table}.csv"
        paths[table].write_text(text, encoding="utf-8", newline="")
    broken = paths[list(texts)[-1]]
    for outcome in _at_every_size(paths):
        assert outcome == expected.format(broken)


def test_a_long_line_is_read_as_csv_reads_it(tmp_path):
    # A cell longer than csv's field limit is an error, in a chunk that is
    # otherwise clean too.
    path = tmp_path / "crashes.csv"
    path.write_text(_crashes(_crash("C1"), _crash("C" + "x" * csv.field_size_limit())))
    with pytest.raises(ValidationError, match=r"crashes\.csv:3: field larger than field limit"):
        interchange.read_crashes(path, TOWN, YEAR)


@pytest.mark.parametrize("bad_row, expected", [
    (150, "{}:150: unreadable sample_weight 'abc'"),
    (300, "canonical file {}:402: byte 0xe9 at offset 21996 is not UTF-8"),
])
def test_a_byte_that_is_not_utf8_is_met_where_the_row_loop_meets_it(tmp_path, bad_row,
                                                                      expected):
    # The row loop decodes a file 8 KiB at a time, so it names a faulty row
    # 8 KiB or more before the bad byte, and the byte otherwise.  A chunk
    # holding the byte is read again up to its first line and goes to the
    # row loop, so every chunk size names the same fault.
    rows = [_crash(f"C{i}", "abc" if i == bad_row else "1.0") for i in range(2, 402)]
    data = _crashes(*rows).encode() + _crash("C\xe9").encode("latin-1")
    path = tmp_path / "crashes.csv"
    path.write_bytes(data + "".join(_crash(f"D{i}") for i in range(300)).encode())
    for size in (1, 100, 1 << 13, 1 << 15, len(data)):
        with mock.patch.object(interchange, "_READ", size):
            assert _fold({"crashes": path}) == expected.format(path)


@pytest.mark.parametrize("table", sorted(interchange._TABLES))
@pytest.mark.parametrize("seed", range(8))
def test_sorting_one_key_column_at_a_time_gives_the_tuple_key_order(table, seed):
    # Key cells come from small domains, so rows tie on leading key columns
    # and on whole keys, within a run and across runs; rows that tie on the
    # whole key differ in a later cell, so the order among them shows.
    rng = random.Random(seed)
    spec = interchange._TABLES[table]
    key = interchange._cells(spec.header, *spec.key)
    runs = []
    for _ in range(rng.randint(1, 4)):
        rows = [tuple(rng.choice(["", "1", "10", "2", "a", "A", "b"])
                      for _ in spec.header) for _ in range(rng.randint(0, 60))]
        rng.shuffle(rows)
        assert interchange.sort_rows(table, list(rows)) == sorted(rows, key=key)
        runs.append(rows)
    expected = list(heapq.merge(*(sorted(rows, key=key) for rows in runs), key=key))
    merged = heapq.merge(*(interchange.sort_rows(table, list(rows)) for rows in runs),
                         key=interchange._sort_key(table))
    assert list(merged) == expected
