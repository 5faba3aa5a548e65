"""The raw loaders read a file the same way at every chunk size.

``ingest._RawFile.fold`` reads a raw file through the chunk reader the
canonical folds use (``interchange._fold_file``): a clean chunk is folded
column by column, and any other, from its first line on, by the row loop
with the rules of ``csv.DictReader``.  So what a source loads, or the
error it raises, must not depend on where the chunks end.  The fixture
datasets are loaded at every chunk size from one character to past the
longest raw file, and each pinned case below, placed in the first, a
middle and the last chunk, is loaded at a spread of sizes; every outcome
must equal the row loop's alone.
"""

import json
import os
from pathlib import Path
from unittest import mock

import pytest

from crashbench import errors, ingest, interchange
from crashbench.cli import main
from crashbench.errors import ValidationError
from crashbench.ingest import load_crash_source, load_dataset
from crashbench.interchange import load_manifest
from crashbench.model import Region
from crashbench.schema import load_schema

FIXTURES = Path(__file__).parent / "fixtures"
RAW_MANIFESTS = ("california_2022", "la_2022", "maricopa_2022", "national_2022", "sf_2022")


def _row_loop_alone():
    """Refuse every chunk, so that each file is read by the row loop alone."""
    return mock.patch.object(ingest, "_drop_line_ends", lambda cells, width: False)


def _datasets(name: str) -> list:
    """What ``load_dataset`` gives for each dataset of a fixture manifest:
    each table's runs, the source audits, the diagnostics and the digests
    of the files it read."""
    outcomes = []
    for manifest in load_manifest(FIXTURES / "manifests" / f"{name}.json"):
        with errors._reading():
            dataset = load_dataset(manifest)
            outcomes.append((dataset.records.runs, dataset.source_audits,
                             dict(dataset.records.diagnostics), dict(errors._record)))
    return outcomes


@pytest.mark.parametrize("name", RAW_MANIFESTS)
def test_every_fixture_dataset_loads_alike_at_every_chunk_size(monkeypatch, name):
    raw = [path for dataset in load_manifest(FIXTURES / "manifests" / f"{name}.json")
           for ref in dataset.crash_sources
           for path in (ref.crash_file, ref.vehicle_file, ref.person_file) if path]
    longest = max(len(path.read_text(encoding="utf-8")) for path in raw)
    monkeypatch.setattr(ingest, "_WORKER_BYTES", 1 << 62)
    with _row_loop_alone():
        expected = _datasets(name)
    for size in range(1, longest + 2):
        monkeypatch.setattr(interchange, "_READ", size)
        assert _datasets(name) == expected, size


@pytest.mark.skipif(not hasattr(os, "fork"), reason="raw sources load in this process")
@pytest.mark.parametrize("name", RAW_MANIFESTS)
def test_every_fixture_dataset_loads_alike_in_workers(monkeypatch, name):
    # A worker forks with this process's chunk size; a spread of sizes
    # keeps the number of forks small.
    monkeypatch.setattr(ingest, "_WORKER_BYTES", 1 << 62)
    with _row_loop_alone():
        expected = _datasets(name)
    monkeypatch.setattr(ingest, "_WORKER_BYTES", 0)
    for size in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 1 << 14):
        monkeypatch.setattr(interchange, "_READ", size)
        assert _datasets(name) == expected, size


# A CRSS-layout source of N crashes, two vehicles and one person each: large
# enough that the row loop decodes the crash file in two 8 KiB blocks.
N = 600
CRASH_HEADER = "CASENUM,YEAR,WEIGHT,MAXSEV_IM,INT_HWY\n"
VEHICLE_HEADER = "VEH_NO,CASENUM,BODY_TYP,UNITTYPE,TOWED\n"
PERSON_HEADER = "PER_NO,CASENUM,VEH_NO,INJ_SEV,AIR_BAG\n"


def _crash(i: int, year: str = "2022", weight: str = "1.5") -> str:
    return f"C{i},{year},{weight},{i % 6},{i % 3}\n"


def _source() -> dict[str, list[str]]:
    """Each file's lines, its header first."""
    return {
        "crashes": [CRASH_HEADER] + [_crash(i) for i in range(N)],
        "vehicles": [VEHICLE_HEADER] + [line for i in range(N) for line in (
            f"1,C{i},{4 + i % 3},1,{i % 8}\n", f"2,C{i},{98 + i % 2},{i % 2},2\n")],
        "persons": [PERSON_HEADER] + [f"1,C{i},{i % 3},{i % 7},{(1, 20, 9)[i % 3]}\n"
                                      for i in range(N)],
    }


def _edit(lines: list[str], at: int, *new: str) -> None:
    lines[at:at + 1] = new


# Each case edits line k + 1 of the source (index k of its lines): (file,
# edit, the message it raises, with {} for the file, {line} for k + 1 and
# {k} for k - 1; None where the source reads, and ... where the fault it
# names depends on where the row loop's 8 KiB blocks end, as the last test
# here pins).  Python 3.11's csv reads a NUL as any other character.
CASES = {
    "quoted_cell": ("crashes", lambda s, k: _edit(s["crashes"], k, f'"C{k - 1}",2022,1.5,0,0\n'),
                    None),
    "crlf": ("crashes", lambda s, k: _edit(s["crashes"], k, _crash(k - 1)[:-1] + "\r\n"), None),
    "nul": ("crashes", lambda s, k: _edit(s["crashes"], k, f"C{k - 1},2022,1.5,0\0,0\n"),
            None),
    "blank_line": ("vehicles", lambda s, k: _edit(s["vehicles"], k, "\n", s["vehicles"][k]),
                   None),
    "short_row": ("crashes", lambda s, k: _edit(s["crashes"], k, f"C{k - 1},2022,1.5\n"), None),
    "long_row": ("crashes", lambda s, k: _edit(s["crashes"], k, _crash(k - 1)[:-1] + ",x,y\n"),
                 None),
    "short_row_then_long_row": (
        # Split at their commas, the two rows' ten cells would read as two
        # rows of five, but for the LF that ends the first.
        "vehicles", lambda s, k: _edit(s["vehicles"], k, s["vehicles"][k],
                                       f"3,C{k // 2},4\n", f"4,C{k // 2},4,1,2,x,y\n"),
        None),
    "repeated_header_name": (
        "crashes", lambda s, k: s.update(crashes=[
            "CASENUM,INT_HWY,YEAR,WEIGHT,MAXSEV_IM,INT_HWY\n"]
            + [f"C{i},{i % 2},2022,1.5,{i % 6},{i % 3}\n" for i in range(N)]), None),
    "not_utf8_after_a_faulty_row": (
        "crashes", lambda s, k: (_edit(s["crashes"], k, _crash(k - 1, weight="lots")),
                                 _edit(s["crashes"], min(k + 40, N), "C\udce9,2022,1.5,0,0\n")),
        ...),
    "repeated_crash_id": ("crashes", lambda s, k: _edit(s["crashes"], k, _crash(0)),
                          "ValidationError: crss crash file {}:{line}: duplicate crash id C0"),
    "vehicle_of_an_unknown_crash": (
        "vehicles", lambda s, k: _edit(s["vehicles"], k, "1,X9,4,1,0\n"),
        "ReferentialError: crss vehicle file {}:{line}: vehicle row references unknown "
        "crash 'X9'"),
    "vehicle_of_a_dropped_crash": (
        "vehicles", lambda s, k: _edit(s["crashes"], k // 2, _crash(k // 2 - 1, year="2021")),
        None),
    "person_of_an_unknown_unit": (
        "persons", lambda s, k: _edit(s["persons"], k, f"1,C{k - 1},7,0,1\n"),
        "ReferentialError: crss person file {}:{line}: person row references unknown unit "
        "C{k}/7"),
    "empty_unit_id": (
        "vehicles", lambda s, k: _edit(s["vehicles"], k, f" ,C{(k - 1) // 2},4,1,0\n"),
        "ValidationError: crss vehicle file {}:{line}: crash C{half} has a unit with no id "
        "in column VEH_NO"),
    "empty_person_id": (
        "persons", lambda s, k: _edit(s["persons"], k, f",C{k - 1},1,0,1\n"),
        "ValidationError: crss person file {}:{line}: crash C{k} has a person with no id "
        "in column PER_NO"),
    "unreadable_weight": (
        "crashes", lambda s, k: _edit(s["crashes"], k, _crash(k - 1, weight="lots")),
        "ValidationError: crss crash file {}:{line}: crash C{k} has unreadable weight "
        "'lots' in column WEIGHT"),
    "unreadable_year": (
        "crashes", lambda s, k: _edit(s["crashes"], k, _crash(k - 1, year="20x2")),
        "ValidationError: crss crash file {}:{line}: crash C{k} has unreadable year "
        "'20x2' in column YEAR"),
    "last_row_cut_short_with_lf": (
        "persons", lambda s, k: _edit(s["persons"], N, f"1,C{N - 1},0\n"), None),
    "last_row_cut_short_without_lf": (
        "persons", lambda s, k: _edit(s["persons"], N, f"1,C{N - 1},0"),
        "ValidationError: crss person file {}:601: last row cut short: 3 of 5 cells and no "
        "line ending"),
}
# Data rows in the first, a middle and the last chunk at the default size.
PLACES = {"first": 3, "middle": N // 2 + 7, "last": N - 2}
SIZES = (1, 97, 1000, 4096, 1 << 14, 1 << 20)


def _load(folder: Path, source: dict[str, list[str]]):
    """The rows, counts and diagnostics ``load_crash_source`` gives for
    ``source``, or the error it raises."""
    paths = []
    for table, lines in source.items():
        paths.append(folder / f"{table}.csv")
        paths[-1].write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
    try:
        load = load_crash_source(load_schema("crss"), *paths, region=Region.national(),
                                 year=2022)
    except ValidationError as exc:
        return f"{type(exc).__name__}: {exc}"
    return load.rows, load.rows_in, load.records, dict(load.diagnostics)


@pytest.mark.parametrize("place", sorted(PLACES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_a_raw_case_loads_as_the_row_loop_loads_it(tmp_path, monkeypatch, name, place):
    table, edit, message = CASES[name]
    k = PLACES[place] + (place == "last" and table == "vehicles") * N
    source = _source()
    edit(source, k)
    with _row_loop_alone():
        expected = _load(tmp_path, source)
    if message is None:
        assert not isinstance(expected, str), expected
    elif message is not ...:
        assert expected == message.format(tmp_path / f"{table}.csv", line=k + 1, k=k - 1,
                                          half=(k - 1) // 2)
    for size in SIZES:
        monkeypatch.setattr(interchange, "_READ", size)
        assert _load(tmp_path, source) == expected, size


def test_a_byte_that_is_not_utf8_is_met_where_the_row_loop_meets_it(tmp_path, monkeypatch):
    # The row loop decodes a file 8 KiB at a time, so it names a faulty row
    # in an earlier block than the bad byte, and the byte otherwise.
    for bad_row, expected in ((100, "crash C99 has unreadable weight 'lots' in column WEIGHT"),
                              (550, "byte 0xe9 at offset 9992 is not UTF-8")):
        source = _source()
        _edit(source["crashes"], bad_row, _crash(bad_row - 1, weight="lots"))
        _edit(source["crashes"], 560, "C\udce9,2022,1.5,0,0\n")
        for size in SIZES:
            monkeypatch.setattr(interchange, "_READ", size)
            assert _load(tmp_path, source).endswith(expected), (bad_row, size)


def test_crlf_copies_fold_in_chunks_and_write_the_golden_bytes(tmp_path, monkeypatch, capsys):
    # CR LF line ends are clean: CR LF copies of the national raw files, and
    # of the national golden read as a canonical source, are folded chunk
    # by chunk with no chunk left to the row loop, and ``ingest`` writes
    # the golden bytes from each.
    golden = FIXTURES / "golden" / "national_2022"
    names = ("crashes.csv", "vehicles.csv", "persons.csv", "mileage.csv")
    manifest = json.loads((FIXTURES / "manifests" / "national_2022.json").read_text())
    raw = tmp_path / "raw"
    raw.mkdir()
    for entry in manifest["crash_sources"] + manifest["mileage"] + manifest["shares"]:
        for key in ("crash_file", "vehicle_file", "person_file", "file"):
            if key in entry:
                name = Path(entry[key]).name
                source = FIXTURES / "manifests" / entry[key]
                (raw / name).write_bytes(source.read_bytes().replace(b"\n", b"\r\n"))
                entry[key] = str(raw / name)
    (raw / "manifest.json").write_text(json.dumps(manifest))
    canonical = tmp_path / "canonical"
    canonical.mkdir()
    for name in names:
        (canonical / name).write_bytes((golden / name).read_bytes().replace(b"\n", b"\r\n"))
    (canonical / "manifest.json").write_text(json.dumps({
        "region": "national", "year": 2022, "road_rule": "national_functional",
        "crash_sources": [{"spec": "canonical", **{
            key: str(canonical / name) for key, name in (
                ("crash_file", "crashes.csv"), ("vehicle_file", "vehicles.csv"),
                ("person_file", "persons.csv"))}}],
        "mileage": [{"spec": "canonical", "file": str(canonical / "mileage.csv")}]}))

    folded, refused = [], []
    fold_file = interchange._fold_file

    def chunks_only(handle, reader, width, chunk, rows):
        folded.append(Path(handle.name).name)
        return fold_file(handle, reader, width, chunk,
                         lambda *args: refused.append(Path(handle.name).name) or rows(*args))

    monkeypatch.setattr(interchange, "_fold_file", chunks_only)
    for folder in (raw, canonical):
        code = main(["ingest", "--manifest", str(folder / "manifest.json"),
                     "--out", str(folder / "out"), "--quiet"])
        assert code == 0, capsys.readouterr().err
        for name in names:
            assert (folder / "out" / name).read_bytes() == (golden / name).read_bytes(), (
                folder, name)
    assert sorted(folded) == sorted(
        [f"{spec}_{table}.csv" for spec in ("crss", "fars")
         for table in ("crashes", "vehicles", "persons")]
        + ["crashes.csv", "vehicles.csv", "persons.csv"]) and refused == []
