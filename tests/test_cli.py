"""End-to-end command behavior, exit codes, and byte-stable outputs."""

import csv
import dataclasses
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import crashbench
from crashbench import errors, interchange
from crashbench.cli import _region_slug, main
from crashbench.interchange import (
    CRASH_HEADER,
    MILEAGE_HEADER,
    PERSON_HEADER,
    VEHICLE_HEADER,
    load_manifest,
)
from crashbench.model import Region

CANONICAL_FILES = ("crashes.csv", "vehicles.csv", "persons.csv", "mileage.csv")
SHIPPED = Path(crashbench.__file__).parent


# Not a golden: copies of a record whose ids need quoting (``needing_quotes``).
NEEDING_QUOTES = "ids_needing_quotes"
# What every 7th key of each chunk of rows holds beside its number: a comma,
# nothing, a quote, LF, and CR LF.
CHUNK_MARKS = (",", "", '"', "\n", "\r\n")


def needing_quotes(fixtures, table):
    """Four and a half chunks (``interchange._CHUNK``) of copies of sf_2022's
    first ``table`` record, the i-th keyed by i written out and marked
    (``CHUNK_MARKS``): its crash id, or for mileage its region's name."""
    golden = fixtures / "golden" / "sf_2022" / f"{table}.csv"
    first = interchange.read_records(golden, table)[0]
    chunk = interchange._CHUNK
    records = []
    for i in range(chunk * 9 // 2):
        key = f"{i:06d}{'' if i % 7 else CHUNK_MARKS[i // chunk]}"
        records.append(
            dataclasses.replace(first, region=Region.county(key, first.region.state))
            if table == "mileage" else dataclasses.replace(first, crash_id=key))
    return records


def csv_writer_bytes(table, records):
    """``records`` of ``table`` as one ``csv.writer`` pass writes their
    header and sorted rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(interchange._TABLES[table].header)
    writer.writerows(interchange.sort_rows(table, interchange.encode(table, records)))
    return buffer.getvalue().encode()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_bench_csv(path):
    """Provenance comment lines, then parsed CSV rows."""
    comments, data = [], []
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line)
            else:
                data.append(line)
    return comments, list(csv.reader(data))


def national_manifest(fixtures):
    """The national fixture manifest with absolute file paths, to edit and
    write elsewhere."""
    manifest = json.loads((fixtures / "manifests" / "national_2022.json").read_text())
    for entry in manifest["crash_sources"]:
        for key in ("crash_file", "vehicle_file", "person_file"):
            entry[key] = str(fixtures / "manifests" / entry[key])
    for entry in manifest["mileage"] + manifest["shares"]:
        entry["file"] = str(fixtures / "manifests" / entry["file"])
    return manifest


def aggregates_edited(tmp_path, year, region, cells):
    """(path, row number) of a copy of a shipped aggregate table whose
    row for ``region`` has ``cells`` replaced."""
    text = (Path(crashbench.__file__).parent / "data" / f"aggregates_{year}.csv").read_text()
    header, *rows = list(csv.reader(text.splitlines()))
    edited = next(r for r in rows if r[0] == region)
    for column, value in cells.items():
        edited[header.index(column)] = value
    path = tmp_path / "aggregates.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return path, rows.index(edited) + 2


def maricopa_edited(tmp_path, year, cells):
    return aggregates_edited(tmp_path, year, "Maricopa", cells)


def sf_golden_as_canonical(fixtures, tmp_path):
    """A manifest reading a copy of the sf_2022 golden CSVs, written to
    ``tmp_path``, as a canonical source."""
    for name in CANONICAL_FILES:
        shutil.copy(fixtures / "golden" / "sf_2022" / name, tmp_path)
    manifest = {
        "region": {"kind": "county", "name": "San Francisco", "state": "CA"},
        "year": 2022, "road_rule": "all_roads",
        "crash_sources": [{"spec": "canonical", "crash_file": "crashes.csv",
                           "vehicle_file": "vehicles.csv",
                           "person_file": "persons.csv"}],
        "mileage": [{"spec": "canonical", "file": "mileage.csv"}],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def opens(monkeypatch, tmp_path_factory):
    """``opens()``: a Counter of (resolved path, mode) per ``Path.open``
    call, in this process and in the worker processes it forks: the
    opener reads an input in mode "r" and hashes it in mode "rb".  Each
    call is appended to a log as one line, so a worker's calls count."""
    log = tmp_path_factory.mktemp("opens") / "log"
    log.touch()
    path_open = Path.open

    def counted(path, mode="r", *args, **kwargs):
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{mode}\t{path.resolve()}\n")
        return path_open(path, mode, *args, **kwargs)

    def seen() -> Counter:
        with path_open(log, encoding="utf-8") as lines:
            return Counter((Path(path), mode) for mode, path in
                           (line.rstrip("\n").split("\t") for line in lines))

    monkeypatch.setattr(Path, "open", counted)
    return seen


def read_and_hashed(opens):
    """The files opened to read, and a Counter of the hashes of each."""
    read = {path for path, mode in opens if mode == "r"}
    return read, Counter({path: n for (path, mode), n in opens.items() if mode == "rb"})


def provenance_inputs(path):
    return json.loads(path.read_text())["provenance"]["inputs"]


def dataset_files(ds):
    """Every file that loading dataset manifest ``ds`` reads: its data
    files and the shipped specs its sources name by tag."""
    refs = (*ds.crash_sources, *ds.mileage, *ds.shares)
    return ({SHIPPED / "specs" / f"{ref.spec}.spec" for ref in refs if ref.spec != "canonical"}
            | {ref.file for ref in (*ds.mileage, *ds.shares)}
            | {file for ref in ds.crash_sources
               for file in (ref.crash_file, ref.vehicle_file, ref.person_file) if file})


class TestExitCodes:
    def test_no_inputs_is_an_input_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "benchmark", "--out", str(tmp_path))
        assert code == 2
        assert "manifest or an aggregate table" in err

    def test_missing_manifest_names_the_path(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        code, _, err = run(capsys, "benchmark", "--manifest", str(missing),
                           "--out", str(tmp_path))
        assert code == 2
        assert "nope.json" in err

    def test_output_directory_that_is_a_file_is_an_input_error(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        code, _, err = run(capsys, "report", "--aggregates", "2022", "--out", str(taken))
        assert code == 2
        assert "File exists" in err and str(taken) in err

    def test_both_sources_rejected(self, capsys, tmp_path, fixtures):
        code, _, err = run(
            capsys, "benchmark",
            "--manifest", str(fixtures / "manifests" / "national_2022.json"),
            "--aggregates", "2022", "--out", str(tmp_path))
        assert code == 2
        assert "not both" in err

    @pytest.mark.parametrize("role, crashes, vehicles, excluded", [
        ("all", 2, 3, {}),
        ("fatal", 0, 0, {"role_excluded": 2}),
    ])
    def test_ingest_writes_a_canonical_source_by_role(self, capsys, tmp_path, fixtures,
                                                     role, crashes, vehicles, excluded):
        # A canonical source is written out again, filtered by region, year
        # and role like a raw one; Springfield has no fatal crash.
        canonical = fixtures / "canonical"
        manifest = json.loads((fixtures / "manifests" / "town_2022.json").read_text())
        manifest["crash_sources"][0].update(
            role=role, crash_file=str(canonical / "town_crashes.csv"),
            vehicle_file=str(canonical / "town_vehicles.csv"))
        manifest["mileage"][0]["file"] = str(canonical / "town_mileage.csv")
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        code, _, err = run(capsys, "ingest", "--manifest", str(tmp_path / "manifest.json"),
                           "--out", str(out), "--quiet")
        assert code == 0, err
        for table, kept in (("crashes", crashes), ("vehicles", vehicles)):
            lines = (canonical / f"town_{table}.csv").read_text().splitlines(keepends=True)
            assert (out / f"{table}.csv").read_text() == "".join(lines[:kept + 1])
        audit = json.loads((out / "audit.json").read_text())
        assert audit["records"] == {"crashes": crashes, "vehicles": vehicles,
                                    "persons": 0, "mileage_cells": 1}
        assert audit["diagnostics"] == excluded

    def test_ingest_writes_a_canonical_number_from_its_value(self, capsys, tmp_path,
                                                             fixtures):
        # A canonical source is written out as rows, and a year or weight
        # cell is written again from its value, as a record's would be.
        canonical = fixtures / "canonical"
        lines = (canonical / "town_crashes.csv").read_text().splitlines(keepends=True)
        header, first = lines[0], lines[1]
        assert ",2022,surface_street,1.0," in first
        (tmp_path / "crashes.csv").write_text(
            header + first.replace(",2022,surface_street,1.0,", ", 2022,surface_street,1,"))
        manifest = json.loads((fixtures / "manifests" / "town_2022.json").read_text())
        manifest["crash_sources"][0].update(crash_file=str(tmp_path / "crashes.csv"),
                                            vehicle_file=None)
        manifest["mileage"][0]["file"] = str(canonical / "town_mileage.csv")
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        code, _, err = run(capsys, "ingest", "--manifest", str(tmp_path / "manifest.json"),
                           "--out", str(out), "--quiet")
        assert code == 0, err
        assert (out / "crashes.csv").read_text() == header + first

    def test_unexpected_failure_is_exit_one(self, capsys, tmp_path, fixtures,
                                            monkeypatch):
        import crashbench.cli as cli_module

        def boom(*args, **kwargs):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli_module, "build_benchmark", boom)
        code, _, err = run(
            capsys, "benchmark",
            "--manifest", str(fixtures / "manifests" / "national_2022.json"),
            "--out", str(tmp_path), "--quiet")
        assert code == 1
        assert "internal error" in err and "wires crossed" in err

    def test_unknown_manifest_road_rule_names_the_file(self, capsys, tmp_path,
                                                       fixtures):
        manifest = national_manifest(fixtures)
        manifest["road_rule"] = "by_vibes"
        path = tmp_path / "vibes.json"
        path.write_text(json.dumps(manifest))
        code, _, err = run(capsys, "ingest", "--manifest", str(path),
                           "--out", str(tmp_path / "out"), "--quiet")
        assert code == 2
        assert "unknown road rule" in err and "vibes.json" in err

    @pytest.mark.parametrize("column, value", [
        ("fatal", "nan"),
        ("police_reported", "inf"),
        ("year", "20x2"),
        ("weighted", "yes"),
        ("fatal", "-5"),
    ])
    def test_bad_aggregate_cell_names_the_row_and_column(self, capsys, tmp_path,
                                                         column, value):
        path, row = maricopa_edited(tmp_path, "2022", {column: value})
        code, _, err = run(capsys, "benchmark", "--aggregates", str(path),
                           "--out", str(tmp_path / "out"), "--quiet")
        assert code == 2, err
        assert f"row {row}" in err and column in err

    def test_bad_aggregate_row_after_a_blank_line_names_its_line(self, capsys, tmp_path):
        path, row = maricopa_edited(tmp_path, "2022", {"year": "20x2"})
        header, *rows = path.read_text().splitlines(keepends=True)
        path.write_text("".join([header, "\n", *rows]))
        code, _, err = run(capsys, "benchmark", "--aggregates", str(path),
                           "--out", str(tmp_path / "out"), "--quiet")
        assert code == 2, err
        assert f"row {row + 1}: unreadable year '20x2'" in err

    def test_unpublished_level_keeps_containment_checked(self, capsys, tmp_path):
        # An empty any_injury_reported cell must not let fatal exceed
        # police_reported.
        path, row = maricopa_edited(tmp_path, "2021",
                                    {"any_injury_reported": "", "fatal": "999999"})
        code, _, err = run(capsys, "report", "--aggregates", str(path),
                           "--out", str(tmp_path / "out"), "--quiet")
        assert code == 2, err
        assert f"row {row}" in err and "containment" in err

    @pytest.mark.parametrize("cells, inner, outer", [
        ({"mileage_surface_passenger_mmi": "99999"},
         "mileage_surface_passenger_mmi", "mileage_all_roads_passenger_mmi"),
        ({"mileage_all_roads_passenger_mmi": "99999"},
         "mileage_all_roads_passenger_mmi", "mileage_all_roads_mmi"),
        ({"mileage_all_roads_passenger_mmi": "", "mileage_surface_passenger_mmi": "99999"},
         "mileage_surface_passenger_mmi", "mileage_all_roads_mmi"),
        ({"vehicles_all_roads_passenger": "999999"},
         "vehicles_all_roads_passenger", "vehicles_all_roads"),
    ], ids=["surface_passenger", "all_roads_passenger", "surface_total", "vehicles"])
    def test_intermediate_totals_must_nest(self, capsys, tmp_path, cells, inner, outer):
        path, row = maricopa_edited(tmp_path, "2022", cells)
        code, _, err = run(capsys, "benchmark", "--aggregates", str(path),
                           "--out", str(tmp_path / "out"), "--quiet")
        assert code == 2, err
        assert f"{path} row {row}" in err
        assert f"{inner} 99999" in err and f"exceeds {outer} " in err

    @pytest.mark.parametrize("edit, rows, reason", [
        ({"mileage_surface_passenger_mmi": ""}, None, "totals that were not published"),
        ({}, "tow_away", "include none of"),
    ], ids=["unpublished", "not_requested"])
    def test_report_without_power_rows_names_the_region(self, capsys, tmp_path,
                                                       edit, rows, reason):
        path, _ = aggregates_edited(tmp_path, "2022", "national", edit)
        extra = ("--rows", rows) if rows else ()
        code, _, err = run(capsys, "report", "--aggregates", str(path), *extra,
                           "--out", str(tmp_path / "out"), "--quiet")
        assert code == 2, err
        assert "benchmark for national: no rows for the power table" in err
        assert reason in err

    def test_national_aggregate_row_with_a_state_names_its_row(self, capsys, tmp_path):
        path, line = aggregates_edited(tmp_path, "2022", "national", {"region_state": "AZ"})
        code, _, err = run(capsys, "benchmark", "--aggregates", str(path),
                           "--out", str(tmp_path / "out"), "--quiet")
        assert code == 2, err
        assert (f"aggregate table {path} row {line}: national region carries no state"
                in err)

    def test_national_canonical_row_with_a_state_names_its_line(self, capsys, tmp_path,
                                                               fixtures):
        # "national" is the national region in a canonical table as in an
        # aggregate one, and a national row carries no state.
        canonical = fixtures / "canonical"
        lines = (canonical / "town_crashes.csv").read_text().splitlines(keepends=True)
        (tmp_path / "crashes.csv").write_text(
            lines[0] + lines[1] + lines[2].replace(",Springfield,IL,", ",national,AZ,"))
        manifest = json.loads((fixtures / "manifests" / "town_2022.json").read_text())
        manifest["crash_sources"][0].update(crash_file=str(tmp_path / "crashes.csv"),
                                            vehicle_file=None)
        manifest["mileage"][0]["file"] = str(canonical / "town_mileage.csv")
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        code, _, err = run(capsys, "benchmark", "--manifest", str(tmp_path / "manifest.json"),
                           "--out", str(tmp_path / "out"), "--quiet")
        assert code == 2, err
        assert (f"{tmp_path / 'crashes.csv'}:3: unreadable region,region_state "
                f"('national', 'AZ')") in err
        # The record check's own reason follows the cells it rejects.
        assert (f"{tmp_path / 'crashes.csv'}:3: unreadable region,region_state "
                f"('national', 'AZ'): national region carries no state") in err

    @pytest.mark.parametrize("command", ["ingest", "benchmark"])
    def test_county_named_national_is_rejected(self, capsys, tmp_path, fixtures, command):
        # A county named "national" would be written as rows that read back
        # as the national region with a state, which the reader rejects.
        manifest = json.loads((fixtures / "manifests" / "maricopa_2022.json").read_text())
        for entry in manifest["crash_sources"] + manifest["mileage"] + manifest["shares"]:
            for key in ("crash_file", "vehicle_file", "person_file", "file"):
                if key in entry:
                    entry[key] = str(fixtures / "manifests" / entry[key])
        manifest["region"] = {"kind": "county", "name": "national", "state": "AZ"}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        code, _, err = run(capsys, command, "--manifest", str(path), "--out", str(out),
                           "--quiet")
        assert code == 2, err
        assert (f"manifest {path}: region.name: a county cannot be named 'national'"
                in err), err
        assert not out.exists() or not any(out.rglob("*"))

    @pytest.mark.parametrize("file_key, old, new, column", [
        ("crash_file", "C002,2022,80.25,1,0", "C002,20x2,80.25,1,0", "YEAR"),
        ("crash_file", "C002,2022,80.25,1,0", "C002,2022,lots,1,0", "WEIGHT"),
        ("crash_file", "C002,2022,80.25,1,0", ",2022,80.25,1,0", "CASENUM"),
        ("vehicle_file", "2,C001,20,1,0", ",C001,20,1,0", "VEH_NO"),
        ("person_file", "2,C001,2,0,20", ",C001,2,0,20", "PER_NO"),
    ], ids=["year", "weight", "crash_id", "unit_id", "person_id"])
    def test_malformed_raw_row_names_the_file_and_column(
            self, capsys, tmp_path, fixtures, file_key, old, new, column):
        manifest = national_manifest(fixtures)
        crss, = (e for e in manifest["crash_sources"] if e["spec"] == "crss")
        text = Path(crss[file_key]).read_text()
        assert text.count(old) == 1
        broken = tmp_path / f"broken_{Path(crss[file_key]).name}"
        broken.write_text(text.replace(old, new))
        crss[file_key] = str(broken)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(manifest))
        code, _, err = run(capsys, "ingest", "--manifest", str(path),
                           "--out", str(tmp_path / "out"), "--quiet")
        assert code == 2
        assert str(broken) in err and column in err

    @pytest.mark.parametrize("table, column, value", [
        ("crashes", "road_class", "surfce"),
        ("crashes", "max_kabco", "Q"),
        ("crashes", "sample_weight", "abc"),
        ("crashes", "year", "20x2"),
        ("crashes", "tow_away", "2"),
        ("vehicles", "body_class", "car"),
        ("mileage", "vmt_millions", "lots"),
    ])
    def test_malformed_canonical_cell_names_the_file_line_and_column(
            self, capsys, tmp_path, fixtures, table, column, value):
        for folder, pattern in (("manifests", "town_2022.json"),
                                ("canonical", "town_*.csv")):
            (tmp_path / folder).mkdir()
            for source in (fixtures / folder).glob(pattern):
                shutil.copy(source, tmp_path / folder)
        path = tmp_path / "canonical" / f"town_{table}.csv"
        rows = list(csv.reader(path.read_text().splitlines()))
        rows[-1][rows[0].index(column)] = value
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        code, _, err = run(capsys, "benchmark",
                           "--manifest", str(tmp_path / "manifests" / "town_2022.json"),
                           "--out", str(tmp_path / "out"), "--quiet")
        assert code == 2, err
        assert f"town_{table}.csv:{len(rows)}:" in err
        assert column in err and repr(value) in err

    @pytest.mark.parametrize("table, key", [
        ("crashes", "'S002'"),
        ("vehicles", "('S001', '2')"),
        ("persons", "('S003', '1', '1')"),
    ])
    def test_repeated_canonical_key_names_the_file_line_and_key(
            self, capsys, tmp_path, fixtures, table, key):
        manifest = sf_golden_as_canonical(fixtures, tmp_path)
        path = tmp_path / f"{table}.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(3, lines[2])
        path.write_text("".join(lines))
        code, _, err = run(capsys, "benchmark", "--manifest", str(manifest),
                           "--out", str(tmp_path / "out"), "--quiet")
        assert code == 2, err
        assert f"{table}.csv:4: repeated" in err and key in err

    @pytest.mark.parametrize("row, reason", [
        ("S001,1,,O,0", "crash S001: person_id is empty"),
        (",1,,O,0", "person crash_id is empty"),
    ])
    def test_canonical_person_without_key_names_the_file_and_line(
            self, capsys, tmp_path, fixtures, row, reason):
        manifest = sf_golden_as_canonical(fixtures, tmp_path)
        path = tmp_path / "persons.csv"
        lines = path.read_text().splitlines(keepends=True) + [row + "\n"]
        path.write_text("".join(lines))
        code, _, err = run(capsys, "ingest", "--manifest", str(manifest),
                           "--out", str(tmp_path / "out"), "--quiet")
        assert code == 2, err
        assert f"persons.csv:{len(lines)}: {reason}" in err

    @pytest.mark.parametrize("other, at", [
        ("T001,town,Shelbyville,IL,2022,surface_street,1.0,O,0,0", 3),  # after the kept row
        ("T002,town,Springfield,IL,2021,surface_street,1.0,K,1,1", 1),  # before it
    ])
    def test_crash_id_repeated_outside_the_dataset_is_rejected(
            self, capsys, tmp_path, fixtures, other, at):
        # One id kept for Springfield 2022 and again on a row of another
        # region or year: its units could not be told apart, so the file is
        # rejected as for any repeated key.
        canonical = fixtures / "canonical"
        lines = (canonical / "town_crashes.csv").read_text().splitlines(keepends=True)
        lines.insert(at, other + "\n")
        (tmp_path / "crashes.csv").write_text("".join(lines))
        crash_id = other.split(",")[0]
        (tmp_path / "vehicles.csv").write_text(
            (canonical / "town_vehicles.csv").read_text() + f"{crash_id},7,passenger,1,1,1\n")
        shutil.copy(canonical / "town_mileage.csv", tmp_path / "mileage.csv")
        manifest = json.loads((fixtures / "manifests" / "town_2022.json").read_text())
        manifest["crash_sources"][0].update(crash_file="crashes.csv",
                                            vehicle_file="vehicles.csv")
        manifest["mileage"][0]["file"] = "mileage.csv"
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        code, _, err = run(capsys, "benchmark", "--manifest", str(tmp_path / "manifest.json"),
                           "--out", str(tmp_path / "out"), "--quiet")
        assert code == 2, err
        assert f"crashes.csv:4: repeated crash_id '{crash_id}'" in err

    def test_spec_code_mapped_twice_names_the_spec_and_section(self, capsys, tmp_path,
                                                                fixtures):
        shipped = Path(crashbench.__file__).parent / "specs" / "fhwa_vm2.spec"
        spec = tmp_path / "vm2_dup.spec"
        spec.write_text(shipped.read_text().replace("local = 7", "local = 7, 1"))
        manifest = national_manifest(fixtures)
        manifest["mileage"][0]["spec"] = str(spec)
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(manifest))
        code, _, err = run(capsys, "benchmark", "--manifest", str(path),
                           "--out", str(tmp_path / "out"), "--quiet")
        assert code == 2, err
        assert "vm2_dup.spec [mileage.class_codes]: code '1' mapped twice" in err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "crashbench" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, flags", [
        ("ingest", ("--manifest", "manifests/town_2022.json")),
        ("synth", ("--spec", "synth/mixed_population.ini")),
    ])
    def test_format_is_not_offered_where_nothing_reads_it(self, capsys, tmp_path,
                                                          fixtures, command, flags):
        option, path = flags
        with pytest.raises(SystemExit) as exc:
            main([command, option, str(fixtures / path), "--format", "yaml",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err


class TestIngestGoldens:
    @pytest.mark.parametrize("name", [
        "national_2022", "maricopa_2022", "sf_2022", "la_2022"])
    def test_outputs_are_byte_identical_to_goldens(self, capsys, tmp_path,
                                                   fixtures, name):
        code, _, err = run(
            capsys, "ingest",
            "--manifest", str(fixtures / "manifests" / f"{name}.json"),
            "--out", str(tmp_path), "--quiet")
        assert code == 0, err
        for file_name in CANONICAL_FILES:
            produced = (tmp_path / file_name).read_bytes()
            golden = (fixtures / "golden" / name / file_name).read_bytes()
            assert produced == golden, f"{name}/{file_name} drifted"

    @pytest.mark.parametrize("name", sorted(
        p.name for p in (Path(__file__).parent / "fixtures" / "golden").iterdir()))
    def test_goldens_survive_a_read_write_cycle(self, tmp_path, fixtures, name):
        for table in ("crashes", "vehicles", "persons", "mileage"):
            golden = fixtures / "golden" / name / f"{table}.csv"
            records = interchange.read_records(golden, table)
            getattr(interchange, f"write_{table}")(tmp_path / golden.name, records)
            assert (tmp_path / golden.name).read_bytes() == golden.read_bytes(), table

    @pytest.mark.parametrize("name", [*sorted(
        p.name for p in (Path(__file__).parent / "fixtures" / "golden").iterdir()),
        NEEDING_QUOTES])
    def test_records_and_their_rows_write_the_same_bytes(self, tmp_path, fixtures,
                                                         monkeypatch, name):
        # One writer serves records and their rows alike.  Crash, vehicle and
        # person keys are unique and mileage rows sort on all their cells
        # (Los Angeles has two local/all cells), so no file depends on the
        # order given.  Rows come as sorted runs, merged on the key whether
        # their keys interleave or not.  Keys that need quoting, in chunks
        # beside plain ones, are written as csv.writer writes them; a small
        # chunk keeps the rows few.
        monkeypatch.setattr(interchange, "_CHUNK", 100)
        rng = random.Random(name)
        for table in ("crashes", "vehicles", "persons", "mileage"):
            if name == NEEDING_QUOTES:
                records = needing_quotes(fixtures, table)
                expected = csv_writer_bytes(table, records)
            else:
                golden = fixtures / "golden" / name / f"{table}.csv"
                records = interchange.read_records(golden, table)
                expected = golden.read_bytes()
            rng.shuffle(records)
            getattr(interchange, f"write_{table}")(tmp_path / "records.csv", records)
            written = (tmp_path / "records.csv").read_bytes()
            assert written == expected, table
            rows = interchange.encode(table, records)
            assert interchange.encode(table, interchange.read_records(
                tmp_path / "records.csv", table)) == interchange.sort_rows(table, list(rows))
            half = len(rows) // 2
            ordered = interchange.sort_rows(table, list(rows))
            for runs in ([interchange.sort_rows(table, rows[i::3]) for i in range(3)],
                         [ordered[half:], [], ordered[:half]]):
                interchange.write_rows(tmp_path / "rows.csv", table, runs)
                assert (tmp_path / "rows.csv").read_bytes() == written, table

    def test_an_id_holding_a_lone_cr_reads_back(self, tmp_path, fixtures):
        first = interchange.read_records(fixtures / "golden" / "sf_2022" / "crashes.csv",
                                         "crashes")[0]
        records = [dataclasses.replace(first, crash_id="C\r1")]
        interchange.write_crashes(tmp_path / "crashes.csv", records)
        assert interchange.read_records(tmp_path / "crashes.csv", "crashes") == records

    def test_audit_sits_next_to_the_csvs(self, capsys, tmp_path, fixtures):
        run(capsys, "ingest",
            "--manifest", str(fixtures / "manifests" / "maricopa_2022.json"),
            "--out", str(tmp_path), "--quiet")
        audit = json.loads((tmp_path / "audit.json").read_text())
        assert audit["dataset"]["region"]["name"] == "Maricopa"
        assert audit["provenance"]["tool"].startswith("crashbench ")
        assert audit["diagnostics"]["parent_dropped"] == 2
        assert audit["records"]["crashes"] == 8

    def test_multi_dataset_manifest_gets_region_subdirs(self, capsys, tmp_path,
                                                        fixtures):
        code, _, err = run(
            capsys, "ingest",
            "--manifest", str(fixtures / "manifests" / "california_2022.json"),
            "--out", str(tmp_path), "--quiet")
        assert code == 0, err
        for slug, golden_name in (("san_francisco", "sf_2022"),
                                  ("los_angeles", "la_2022")):
            for file_name in CANONICAL_FILES:
                produced = (tmp_path / slug / file_name).read_bytes()
                golden = (fixtures / "golden" / golden_name / file_name).read_bytes()
                assert produced == golden, f"{slug}/{file_name} drifted"

    def test_datasets_sharing_a_region_directory_are_rejected(self, capsys, tmp_path,
                                                               fixtures):
        dataset = json.loads((fixtures / "manifests" / "maricopa_2022.json").read_text())
        for entry in dataset["crash_sources"] + dataset["mileage"] + dataset["shares"]:
            for key in ("crash_file", "vehicle_file", "person_file", "file"):
                if key in entry:
                    entry[key] = str(fixtures / "manifests" / entry[key])
        path = tmp_path / "maricopa.json"
        path.write_text(json.dumps({"datasets": [dataset, {**dataset, "year": 2021}]}))
        out = tmp_path / "out"
        code, _, err = run(capsys, "ingest", "--manifest", str(path),
                           "--out", str(out), "--quiet")
        assert code == 2, err
        assert (f"{path}: Maricopa, AZ 2022 and Maricopa, AZ 2021 would both be "
                f"written to {out / 'maricopa'}") in err
        assert not out.exists() or not any(out.rglob("*.*"))

    def test_region_directory_outside_out_is_rejected(self, capsys, tmp_path, fixtures):
        # A two-dataset manifest writes each dataset to a directory named
        # for its region, which must be one name directly under --out.
        dataset = json.loads((fixtures / "manifests" / "maricopa_2022.json").read_text())
        for entry in dataset["crash_sources"] + dataset["mileage"] + dataset["shares"]:
            for key in ("crash_file", "vehicle_file", "person_file", "file"):
                if key in entry:
                    entry[key] = str(fixtures / "manifests" / entry[key])
        escaped = {**dataset, "region": {"kind": "county", "name": "../escaped",
                                         "state": "AZ"}}
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"datasets": [dataset, escaped]}))
        code, _, err = run(capsys, "ingest", "--manifest", str(path),
                           "--out", str(tmp_path / "out"), "--quiet")
        assert code == 2, err
        assert (f"{path}: ../escaped, AZ 2022: region name '../escaped' is not one "
                f"directory name under {tmp_path / 'out'}") in err
        assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == [path]

    def test_canonical_headers(self, capsys, tmp_path, fixtures):
        run(capsys, "ingest",
            "--manifest", str(fixtures / "manifests" / "national_2022.json"),
            "--out", str(tmp_path), "--quiet")
        for file_name, header in (
                ("crashes.csv", CRASH_HEADER), ("vehicles.csv", VEHICLE_HEADER),
                ("persons.csv", PERSON_HEADER), ("mileage.csv", MILEAGE_HEADER)):
            first = (tmp_path / file_name).read_text().splitlines()[0]
            assert first == ",".join(header)

    def test_runs_are_reproducible(self, capsys, tmp_path, fixtures):
        manifest = str(fixtures / "manifests" / "sf_2022.json")
        run(capsys, "ingest", "--manifest", manifest,
            "--out", str(tmp_path / "a"), "--quiet")
        run(capsys, "ingest", "--manifest", manifest,
            "--out", str(tmp_path / "b"), "--quiet")
        for file_name in CANONICAL_FILES:
            assert ((tmp_path / "a" / file_name).read_bytes()
                    == (tmp_path / "b" / file_name).read_bytes())


class TestBenchmarkCommand:
    def test_manifest_run_writes_both_formats(self, capsys, tmp_path, fixtures):
        code, _, err = run(
            capsys, "benchmark",
            "--manifest", str(fixtures / "manifests" / "national_2022.json"),
            "--out", str(tmp_path), "--quiet")
        assert code == 0, err
        comments, rows = read_bench_csv(tmp_path / "benchmark.csv")
        assert comments[0].startswith("# tool: crashbench ")
        assert comments[1].startswith("# config_digest: ")
        assert any(line.startswith("# input ") for line in comments)
        assert rows[0] == list(
            ("region", "region_state", "year", "road_rule", "severity",
             "adjustment", "numerator", "vmt_millions", "rate_ipmm", "display",
             "ci_low_ipmm", "ci_high_ipmm"))
        assert len(rows) == 1 + 9
        payload = json.loads((tmp_path / "benchmark.json").read_text())
        assert len(payload["reports"]) == 1
        assert payload["reports"][0]["region"]["kind"] == "national"

    @staticmethod
    def with_crss_spec(tmp_path, fixtures, text):
        """The national manifest, its CRSS source read by a spec file holding
        ``text``."""
        spec = tmp_path / "sampled.spec"
        spec.write_text(text)
        manifest = national_manifest(fixtures)
        crss, = (entry for entry in manifest["crash_sources"] if entry["spec"] == "crss")
        crss["spec"] = str(spec)
        path = tmp_path / "national.json"
        path.write_text(json.dumps(manifest))
        return spec, path

    def test_a_weight_column_makes_the_benchmark_weighted(self, capsys, tmp_path,
                                                          fixtures):
        # Weighted sums are not Poisson counts: no exact interval is published.
        text = (SHIPPED / "specs" / "crss.spec").read_text()
        assert "weight = WEIGHT" in text
        _, manifest = self.with_crss_spec(tmp_path, fixtures, text)
        code, _, err = run(capsys, "benchmark", "--manifest", str(manifest),
                           "--out", str(tmp_path / "out"), "--quiet")
        assert code == 0, err
        report, = json.loads((tmp_path / "out" / "benchmark.json").read_text())["reports"]
        assert report["weighted"] is True
        assert report["rows"] and all(
            row["ci_low_ipmm"] is None and row["ci_high_ipmm"] is None
            for row in report["rows"])

    @pytest.mark.parametrize("line", ["weighted = false", "kabco_from = crash"])
    def test_a_removed_source_key_exits_2(self, capsys, tmp_path, fixtures, line):
        text = (SHIPPED / "specs" / "crss.spec").read_text()
        spec, manifest = self.with_crss_spec(
            tmp_path, fixtures, text.replace("kind = crash\n", f"kind = crash\n{line}\n"))
        code, _, err = run(capsys, "benchmark", "--manifest", str(manifest),
                           "--out", str(tmp_path / "out"), "--quiet")
        assert code == 2, err
        key = line.split(" = ")[0]
        assert f"spec {spec}: [source] {key}: unknown key" in err

    def test_identical_runs_write_identical_bytes(self, capsys, tmp_path,
                                                  fixtures):
        manifest = str(fixtures / "manifests" / "national_2022.json")
        run(capsys, "benchmark", "--manifest", manifest,
            "--out", str(tmp_path / "a"), "--quiet")
        run(capsys, "benchmark", "--manifest", manifest,
            "--out", str(tmp_path / "b"), "--quiet")
        for name in ("benchmark.csv", "benchmark.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_shipped_aggregates_by_year(self, capsys, tmp_path):
        code, _, err = run(capsys, "benchmark", "--aggregates", "2022",
                           "--region", "national", "--out", str(tmp_path),
                           "--quiet")
        assert code == 0, err
        _, rows = read_bench_csv(tmp_path / "benchmark.csv")
        displays = {(r[4], r[5]): r[9] for r in rows[1:]}
        assert displays[("police_reported", "unadjusted")] == "4.10 IPMM"
        assert displays[("fatal", "unadjusted")] == "18.0 IPBM"
        assert rows[1][3] == "published_aggregates"

    def test_region_filter_with_no_match(self, capsys, tmp_path):
        code, _, err = run(capsys, "benchmark", "--aggregates", "2022",
                           "--region", "Atlantis", "--out", str(tmp_path))
        assert code == 2
        assert "Atlantis" in err

    def test_rows_override(self, capsys, tmp_path):
        code, _, _ = run(capsys, "benchmark", "--aggregates", "2022",
                         "--region", "national", "--rows", "fatal:unadjusted",
                         "--out", str(tmp_path), "--quiet")
        assert code == 0
        _, rows = read_bench_csv(tmp_path / "benchmark.csv")
        assert len(rows) == 2
        assert rows[1][4] == "fatal"

    def test_bad_rows_and_road_rule_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "benchmark", "--aggregates", "2022",
                           "--rows", "catastrophic", "--out", str(tmp_path))
        assert code == 2 and "unknown severity level" in err
        code, _, err = run(capsys, "benchmark", "--aggregates", "2022",
                           "--road-rule", "scenic", "--out", str(tmp_path))
        assert code == 2 and "unknown road rule" in err

    def test_format_selection(self, capsys, tmp_path):
        run(capsys, "benchmark", "--aggregates", "2022", "--region", "national",
            "--format", "json", "--out", str(tmp_path), "--quiet")
        assert not (tmp_path / "benchmark.csv").exists()
        assert (tmp_path / "benchmark.json").exists()
        code, _, err = run(capsys, "benchmark", "--aggregates", "2022",
                           "--format", "yaml", "--out", str(tmp_path))
        assert code == 2 and "unknown output format" in err


class TestPowerCommand:
    def test_rate_flags_build_the_table(self, capsys, tmp_path):
        lam_fatal = 38507.0 / 2140140.0
        code, _, err = run(
            capsys, "power", f"--rate=fatal={lam_fatal!r}", "--rate",
            "police=4.0973", "--out", str(tmp_path), "--quiet")
        assert code == 0, err
        comments, rows = read_bench_csv(tmp_path / "power.csv")
        assert comments[0].startswith("# tool: crashbench ")
        assert rows[0] == ["label", "benchmark_rate_ipmm", "1%", "10%", "25%",
                           "50%", "75%", "125%", "150%"]
        fatal_row = next(r for r in rows[1:] if r[0] == "fatal")
        assert float(fatal_row[5]) == pytest.approx(1451.3478638300876, rel=1e-9)

    def test_unit_relative_rate_leaves_an_empty_cell(self, capsys, tmp_path):
        code, _, _ = run(capsys, "power", "--rate", "any=2.0",
                         "--r", "0.5,1.0,2.0", "--out", str(tmp_path), "--quiet")
        assert code == 0
        _, rows = read_bench_csv(tmp_path / "power.csv")
        assert rows[1][3] == ""
        payload = json.loads((tmp_path / "power.json").read_text())
        cells = payload["rows"][0]["cells"]
        assert cells[1]["required_vmt_mmi"] is None
        assert cells[1]["note"] == "diverges"

    def test_rates_from_benchmark_table(self, capsys, tmp_path, fixtures):
        run(capsys, "benchmark",
            "--manifest", str(fixtures / "manifests" / "national_2022.json"),
            "--out", str(tmp_path), "--quiet")
        code, _, err = run(
            capsys, "power",
            "--benchmark-table", str(tmp_path / "benchmark.json"),
            "--row", "national:police_reported:unadjusted",
            "--out", str(tmp_path), "--quiet")
        assert code == 0, err
        payload = json.loads((tmp_path / "power.json").read_text())
        label = payload["rows"][0]["label"]
        assert label == "national:police_reported:unadjusted"
        bench = json.loads((tmp_path / "benchmark.json").read_text())
        expected = next(
            r["rate_ipmm"] for r in bench["reports"][0]["rows"]
            if r["severity"] == "police_reported" and r["adjustment"] == "unadjusted")
        assert payload["rows"][0]["benchmark_rate_ipmm"] == expected

    def test_power_input_errors(self, capsys, tmp_path, fixtures):
        code, _, err = run(capsys, "power", "--out", str(tmp_path))
        assert code == 2 and "needs rates" in err
        code, _, err = run(capsys, "power", "--rate", "fatal", "--out",
                           str(tmp_path))
        assert code == 2 and "LABEL=VALUE" in err
        run(capsys, "benchmark", "--aggregates", "2022", "--region", "national",
            "--out", str(tmp_path), "--quiet")
        code, _, err = run(
            capsys, "power",
            "--benchmark-table", str(tmp_path / "benchmark.json"),
            "--out", str(tmp_path))
        assert code == 2 and "--row" in err
        code, _, err = run(
            capsys, "power",
            "--benchmark-table", str(tmp_path / "benchmark.json"),
            "--row", "national:fatal:blanco", "--out", str(tmp_path))
        assert code == 2 and "no benchmark row matches" in err


class TestSynthCommand:
    def test_population_and_truth(self, capsys, tmp_path, fixtures):
        spec = str(fixtures / "synth" / "mixed_population.ini")
        code, _, err = run(capsys, "synth", "--spec", spec,
                           "--out", str(tmp_path), "--quiet")
        assert code == 0, err
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert truth["population"]["seed"] == 42
        assert truth["truth"]["crash_count"] == 40
        assert truth["truth"]["weighted_crashes"] == 135.0
        assert truth["truth"]["crashes_by_severity"]["fatal"] == 6.0
        first = (tmp_path / "crashes.csv").read_text().splitlines()[0]
        assert first == ",".join(CRASH_HEADER)
        n_rows = len((tmp_path / "crashes.csv").read_text().splitlines())
        assert n_rows == 1 + 40

    def test_regenerates_byte_identically(self, capsys, tmp_path, fixtures):
        spec = str(fixtures / "synth" / "mixed_population.ini")
        run(capsys, "synth", "--spec", spec, "--out", str(tmp_path / "a"),
            "--quiet")
        run(capsys, "synth", "--spec", spec, "--out", str(tmp_path / "b"),
            "--quiet")
        for name in ("crashes.csv", "vehicles.csv", "truth.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_missing_spec(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth", "--spec",
                           str(tmp_path / "ghost.ini"), "--out", str(tmp_path))
        assert code == 2
        assert "ghost.ini" in err


class TestReportCommand:
    def test_chains_benchmark_into_power(self, capsys, tmp_path, fixtures):
        code, _, err = run(
            capsys, "report",
            "--manifest", str(fixtures / "manifests" / "national_2022.json"),
            "--out", str(tmp_path), "--quiet")
        assert code == 0, err
        for name in ("benchmark.csv", "benchmark.json", "power.csv",
                     "power.json"):
            assert (tmp_path / name).exists()
        bench = json.loads((tmp_path / "benchmark.json").read_text())
        power = json.loads((tmp_path / "power.json").read_text())
        labels = [row["label"] for row in power["rows"]]
        assert labels == [
            "any_property_damage_or_injury:blanco",
            "police_reported:unadjusted",
            "any_injury_reported:blincoe",
            "suspected_serious_injury_plus:unadjusted",
            "fatal:unadjusted",
        ]
        by_kind = {
            (r["severity"], r["adjustment"]): r["rate_ipmm"]
            for r in bench["reports"][0]["rows"]
        }
        for row in power["rows"]:
            severity, scheme = row["label"].split(":")
            assert row["benchmark_rate_ipmm"] == by_kind[(severity, scheme)]


    def test_zero_rate_power_row_is_left_empty(self, capsys, tmp_path, fixtures):
        # Springfield has no serious-injury crashes: that row's power cells
        # are left empty with a note, and the rest of the table is written.
        manifest = str(fixtures / "manifests" / "town_2022.json")
        code, _, err = run(capsys, "report", "--manifest", manifest,
                           "--out", str(tmp_path), "--quiet")
        assert code == 0, err
        power = json.loads((tmp_path / "power.json").read_text())
        serious, = (row for row in power["rows"]
                    if row["label"] == "suspected_serious_injury_plus:unadjusted")
        assert serious["benchmark_rate_ipmm"] == 0.0
        assert {c["note"] for c in serious["cells"]} == {"zero rate"}
        assert all(c["required_vmt_mmi"] is None for c in serious["cells"])


REPORT_GOLDENS = Path(__file__).parent / "fixtures" / "reports"


def without_provenance(path):
    """A report file with its provenance block dropped: the config digest
    covers the absolute input paths, so it differs between checkouts."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload.pop("provenance")
        return payload
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]


class TestReportGoldens:
    def test_report_digests_each_input_once(self, capsys, tmp_path, fixtures, opens):
        # benchmark.* and power.* carry one provenance block, which names
        # every file the run read, shipped specs too, each hashed once.
        manifest = fixtures / "manifests" / "national_2022.json"
        code, _, err = run(capsys, "report", "--manifest", str(manifest),
                           "--out", str(tmp_path), "--quiet")
        assert code == 0, err
        read, hashed = read_and_hashed(opens())
        assert set(hashed) == read and set(hashed.values()) == {1}
        assert {"crss.spec", "fars_national.spec", "fhwa_vm2.spec",
                "fhwa_vm4.spec"} <= {path.name for path in read}
        for name in ("benchmark.json", "power.json"):
            assert provenance_inputs(tmp_path / name) == {
                path.name: sha256(path) for path in read}


    @pytest.mark.parametrize("name", sorted(p.name for p in REPORT_GOLDENS.iterdir()))
    def test_report_matches_goldens(self, capsys, tmp_path, fixtures, name):
        if name.startswith("aggregates_"):
            source = ("--aggregates", name.removeprefix("aggregates_"))
        else:
            source = ("--manifest", str(fixtures / "manifests" / f"{name}.json"))
        run(capsys, "report", *source, "--out", str(tmp_path), "--quiet")
        golden = REPORT_GOLDENS / name
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            p.name for p in golden.iterdir())
        for expected in golden.iterdir():
            assert (without_provenance(tmp_path / expected.name)
                    == without_provenance(expected)), f"{name}/{expected.name} drifted"


def canonical_rerun(raw_manifest: Path, ingested: Path) -> Path:
    """A canonical manifest over ``ingest``'s output of ``raw_manifest``, in
    ``ingested``: per dataset, its region, year and road rule, the four
    CSVs (a region's directory of them where there are several), and the
    raw manifest's shares, which ``ingest`` does not write out."""
    raw = json.loads(raw_manifest.read_text())
    datasets = raw.get("datasets", [raw])
    parsed = load_manifest(raw_manifest)
    entries = []
    for obj, ds in zip(datasets, parsed):
        folder = ingested if len(parsed) == 1 else ingested / _region_slug(ds.region)
        entries.append({
            "region": obj["region"], "year": obj["year"], "road_rule": obj["road_rule"],
            "crash_sources": [{"spec": "canonical", **{
                key: str(folder / f"{table}.csv") for key, table in (
                    ("crash_file", "crashes"), ("vehicle_file", "vehicles"),
                    ("person_file", "persons"))}}],
            "mileage": [{"spec": "canonical", "file": str(folder / "mileage.csv")}],
            "shares": [{"spec": ref.spec, "file": str(ref.file)} for ref in ds.shares],
        })
    path = ingested / "rerun.json"
    path.write_text(json.dumps({"datasets": entries}))
    return path


def without_source_accounts(path):
    """A benchmark.json with neither its provenance nor, per report, the
    audit's per-source accounts and run diagnostics, which count the raw
    rows that a raw load reads and a canonical one never sees."""
    payload = without_provenance(path)
    for report in payload["reports"]:
        del report["audit"]["sources"], report["audit"]["diagnostics"]
    return payload


TOW_AND_CAVEATS = (
    "the canonical layout carries neither the tow basis nor the caveats, so a "
    "canonical re-run guesses the basis from its vehicles file and drops the "
    "caveats (ROADMAP direction 16)")


class TestRoundTrip:
    """Raw files reported directly, and ``ingest`` followed by ``benchmark``
    on what it wrote, give the same benchmark (ROADMAP direction 6)."""

    @pytest.mark.parametrize("name", [
        "national_2022",
        *(pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=TOW_AND_CAVEATS))
          for name in ("sf_2022", "maricopa_2022", "la_2022", "california_2022")),
    ])
    def test_ingest_then_benchmark_reports_as_raw_does(self, capsys, tmp_path, fixtures,
                                                        name):
        manifest = fixtures / "manifests" / f"{name}.json"
        for argv in (("report", "--manifest", str(manifest), "--out", str(tmp_path / "raw")),
                     ("ingest", "--manifest", str(manifest),
                      "--out", str(tmp_path / "ingested"))):
            code, _, err = run(capsys, *argv, "--quiet")
            assert code == 0, err
        rerun = canonical_rerun(manifest, tmp_path / "ingested")
        code, _, err = run(capsys, "benchmark", "--manifest", str(rerun),
                           "--out", str(tmp_path / "rerun"), "--quiet")
        assert code == 0, err
        assert (without_source_accounts(tmp_path / "rerun" / "benchmark.json")
                == without_source_accounts(tmp_path / "raw" / "benchmark.json"))
        assert (without_provenance(tmp_path / "rerun" / "benchmark.csv")
                == without_provenance(tmp_path / "raw" / "benchmark.csv"))


class TestProvenance:
    @pytest.mark.parametrize("stray", [False, True])
    def test_aggregates_name_the_shipped_table(self, capsys, tmp_path, monkeypatch, stray):
        # The shipped table behind every number is named; a file in the
        # working directory named like the year is not read, and not named.
        monkeypatch.chdir(tmp_path)
        if stray:
            (tmp_path / "2022").write_text("not a table\n")
        code, _, err = run(capsys, "report", "--aggregates", "2022", "--out", "out", "--quiet")
        assert code == 0, err
        table = SHIPPED / "data" / "aggregates_2022.csv"
        for name in ("benchmark.json", "power.json"):
            assert provenance_inputs(tmp_path / "out" / name) == {
                "aggregates_2022.csv": sha256(table)}

    def test_raw_manifest_names_each_shipped_spec(self, capsys, tmp_path, fixtures):
        manifest = fixtures / "manifests" / "sf_2022.json"
        code, _, err = run(capsys, "benchmark", "--manifest", str(manifest),
                           "--out", str(tmp_path), "--quiet")
        assert code == 0, err
        inputs = provenance_inputs(tmp_path / "benchmark.json")
        for spec in ("switrs", "ca_prd", "fhwa_vm4"):
            assert inputs[f"{spec}.spec"] == sha256(SHIPPED / "specs" / f"{spec}.spec")

    @pytest.mark.parametrize("mixed", [False, True])
    def test_each_audit_names_only_its_own_dataset(self, capsys, tmp_path, fixtures, mixed):
        # Each audit.json names the config, the manifest and the files of
        # its own dataset; the mixed manifest's two datasets share only the
        # VM-4 table and its spec.
        manifest = fixtures / "manifests" / "california_2022.json"
        if mixed:
            manifest = tmp_path / "manifests" / "mixed.json"
            manifest.parent.mkdir()
            for name in ("raw", "mileage"):
                (tmp_path / name).symlink_to(fixtures / name)
            manifest.write_text(json.dumps({"datasets": [
                json.loads((fixtures / "manifests" / f"{name}.json").read_text())
                for name in ("sf_2022", "national_2022")]}))
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nverbosity = 0\n")
        out = tmp_path / "out"
        code, _, err = run(capsys, "ingest", "--manifest", str(manifest),
                           "--config", str(cfg), "--out", str(out))
        assert code == 0, err
        datasets = interchange.load_manifest(manifest)
        assert len(datasets) == 2
        for ds in datasets:
            audit = out / ds.region.name.lower().replace(" ", "_") / "audit.json"
            assert provenance_inputs(audit) == {
                path.name: sha256(path) for path in {manifest, cfg, *dataset_files(ds)}}

    def test_a_canonical_source_read_twice_is_hashed_once(self, capsys, tmp_path, fixtures,
                                                          opens):
        # ingest folds a canonical source, then reads it again for its rows.
        code, _, err = run(capsys, "ingest", "--manifest",
                           str(fixtures / "manifests" / "town_2022.json"),
                           "--out", str(tmp_path), "--quiet")
        assert code == 0, err
        crashes = (fixtures / "canonical" / "town_crashes.csv").resolve()
        assert opens()[crashes, "r"] == 2 and opens()[crashes, "rb"] == 1
        read, hashed = read_and_hashed(opens())
        assert set(hashed) == read and set(hashed.values()) == {1}
        assert errors._record is None

    def test_every_file_read_gets_its_own_entry(self, capsys, tmp_path, fixtures,
                                                monkeypatch):
        # Three inputs share a name and a parent's name.  The one given as
        # data/a.csv, the shortest path, is named a.csv; the next data/a.csv;
        # and the third by its path, which no other entry takes.
        monkeypatch.chdir(tmp_path)
        manifest = national_manifest(fixtures)
        crss = manifest["crash_sources"][0]
        copies = []
        for parent, key in zip(("", "x", "y"), ("crash_file", "vehicle_file", "person_file")):
            copy = tmp_path / parent / "data" / "a.csv"
            copy.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(crss[key], copy)
            crss[key] = str(copy.relative_to(tmp_path) if parent == "" else copy)
            copies.append(copy)
        Path("manifest.json").write_text(json.dumps(manifest))
        ds, = interchange.load_manifest("manifest.json")
        code, _, err = run(capsys, "benchmark", "--manifest", "manifest.json",
                           "--out", "out", "--quiet")
        assert code == 0, err
        inputs = provenance_inputs(tmp_path / "out" / "benchmark.json")
        assert len(inputs) == len({Path("manifest.json"), *dataset_files(ds)})
        assert [inputs[key] for key in ("a.csv", "data/a.csv", str(copies[2]))] == [
            sha256(copy) for copy in copies]


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, capsys, tmp_path,
                                                    fixtures):
        manifest = fixtures / "manifests" / "national_2022.json"
        cfg_out = tmp_path / "from_config"
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[run]\n"
            f"out_dir = {cfg_out}\n"
            "formats = json\n"
            "verbosity = 0\n"
            "[benchmark]\n"
            f"manifest = {manifest}\n"
            "rows = fatal:unadjusted\n")

        code, out, err = run(capsys, "benchmark", "--config", str(cfg))
        assert code == 0, err
        assert out == ""
        assert not (cfg_out / "benchmark.csv").exists()
        payload = json.loads((cfg_out / "benchmark.json").read_text())
        assert [r["severity"] for r in payload["reports"][0]["rows"]] == ["fatal"]

        flag_out = tmp_path / "from_flags"
        code, _, _ = run(capsys, "benchmark", "--config", str(cfg),
                         "--format", "csv", "--rows", "police_reported",
                         "--out", str(flag_out), "--quiet")
        assert code == 0
        assert not (flag_out / "benchmark.json").exists()
        _, rows = read_bench_csv(flag_out / "benchmark.csv")
        assert [r[4] for r in rows[1:]] == ["police_reported"]

    def test_power_section(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[power]\nrelative_rates = 0.5\nalpha = 0.01\n")
        code, _, err = run(capsys, "power", "--config", str(cfg),
                           "--rate", "x=1.0", "--out", str(tmp_path), "--quiet")
        assert code == 0, err
        payload = json.loads((tmp_path / "power.json").read_text())
        assert payload["relative_rates"] == [0.5]
        assert payload["alpha"] == 0.01

    @pytest.mark.parametrize("section, key, value", [
        ("power", "alpha", "abc"),
        ("power", "target_power", "high"),
        ("run", "verbosity", "loud"),
    ])
    def test_unreadable_value_names_the_file_section_and_key(self, capsys, tmp_path,
                                                           section, key, value):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "out"
        code, _, err = run(capsys, "report", "--aggregates", "2022",
                           "--config", str(cfg), "--out", str(out))
        assert code == 2, err
        assert f"config file {cfg}: [{section}] {key}: unreadable value {value!r}" in err
        assert not list(out.glob("benchmark.*"))

    @pytest.mark.parametrize("section, key, value, item", [
        ("power", "relative_rates", "0.5,abc", "abc"),
        ("benchmark", "rows", "fatal:nope", "nope"),
        ("run", "formats", "yaml", "yaml"),
        ("benchmark", "road_rule", "scenic", "scenic"),
    ])
    def test_rejected_value_names_the_file_section_key_and_item(
            self, capsys, tmp_path, section, key, value, item):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "out"
        code, _, err = run(capsys, "report", "--aggregates", "2022",
                           "--config", str(cfg), "--out", str(out))
        assert code == 2, err
        assert f"error: config file {cfg}: [{section}] {key}: " in err
        assert repr(item) in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, item", [
        ("--r", "0.5,abc", "abc"),
        ("--rows", "fatal:nope", "nope"),
        ("--format", "yaml", "yaml"),
        ("--road-rule", "scenic", "scenic"),
        ("--alpha", "abc", "abc"),
        ("--power", "high", "high"),
    ])
    def test_rejected_flag_value_names_the_flag(self, capsys, tmp_path, flag,
                                                value, item):
        out = tmp_path / "out"
        code, _, err = run(capsys, "report", "--aggregates", "2022",
                           flag, value, "--out", str(out))
        assert code == 2, err
        assert f"error: {flag}: " in err and repr(item) in err
        assert not out.exists()

    @pytest.mark.parametrize("args, named", [
        (("--alpha", "1.5"), "--alpha: alpha must lie in (0, 1), got 1.5"),
        (("--alpha", "nan"), "--alpha: alpha must lie in (0, 1), got nan"),
        (("--power", "1"), "--power: target_power must lie in (0, 1), got 1.0"),
        (("--r", "0.5,-1"), "--r: relative_rate must be positive, got -1.0"),
        (("--r", "inf"), "--r: relative_rate must be positive, got inf"),
        (("--config", "run.ini"), "[power] alpha: alpha must lie in (0, 1), got 1.5"),
    ])
    def test_out_of_range_power_setting_is_named_before_any_write(
            self, capsys, tmp_path, args, named):
        (tmp_path / "run.ini").write_text("[power]\nalpha = 1.5\n")
        flag, value = args
        if flag == "--config":
            value = str(tmp_path / value)
        out = tmp_path / "out"
        code, _, err = run(capsys, "report", "--aggregates", "2022",
                           flag, value, "--out", str(out))
        assert code == 2, err
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize("command, args, named", [
        ("report", ("--power", "0.01"), "--power: target_power 0.01 "),
        ("report", ("--config", "run.ini"), "[power] target_power: target_power 1e-07 "),
        ("power", ("--power", "0.01"), "--power: target_power 0.01 "),
    ])
    def test_power_target_met_at_any_exposure_is_named_before_any_write(
            self, capsys, tmp_path, command, args, named):
        # Under the normal approximation the power at r = 1.5 and alpha 0.05
        # never falls below Phi(-z_a / sqrt(1.5)), about 0.054, at any
        # exposure: a lower target has no required mileage.
        (tmp_path / "run.ini").write_text("[power]\ntarget_power = 1e-7\n")
        flag, value = args
        if flag == "--config":
            value = str(tmp_path / value)
        source = (("--aggregates", "2022") if command == "report"
                  else ("--rate", "fatal=0.01"))
        out = tmp_path / "out"
        code, _, err = run(capsys, command, *source, flag, value, "--out", str(out))
        assert code == 2, err
        assert named + "is met at any exposure at relative_rate 1.5" in err
        assert not out.exists()

    @pytest.mark.parametrize("text, named", [
        ("[power]\nalpah = 0.01\n", "[power] alpah: unknown key"),
        ("[powr]\nalpha = 0.01\n", "unknown section [powr]"),
        ("[DEFAULT]\nalpha = 0.01\n", "unknown section [DEFAULT]"),
        ("alpha = 0.01\n", "no section headers"),
    ])
    def test_unknown_section_or_key_is_rejected(self, capsys, tmp_path, text, named):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        code, _, err = run(capsys, "report", "--aggregates", "2022",
                           "--config", str(cfg), "--out", str(out))
        assert code == 2, err
        assert f"config file {cfg}: " in err and named in err
        assert not out.exists()

    def test_readme_configuration_example_runs(self, capsys, tmp_path,
                                               monkeypatch):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("## Configuration", 1)[1]
        example = section.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = tmp_path / "run.ini"
        cfg.write_text(example)
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "report", "--aggregates", "2022",
                           "--config", str(cfg))
        assert code == 0, err

    @pytest.mark.parametrize("command, flags, written", [
        ("ingest", ("--manifest", "manifests/town_2022.json"), "audit.json"),
        ("synth", ("--spec", "synth/mixed_population.ini"), "truth.json"),
    ])
    def test_config_file_is_a_provenance_input(self, capsys, tmp_path, fixtures,
                                               command, flags, written):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nverbosity = 0\n")
        out = tmp_path / "out"
        option, path = flags
        code, _, err = run(capsys, command, option, str(fixtures / path),
                           "--config", str(cfg), "--out", str(out))
        assert code == 0, err
        inputs = json.loads((out / written).read_text())["provenance"]["inputs"]
        assert inputs["run.ini"] == hashlib.sha256(cfg.read_bytes()).hexdigest()

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "benchmark", "--aggregates", "2022",
                           "--config", str(tmp_path / "none.ini"),
                           "--out", str(tmp_path))
        assert code == 2
        assert "config file not found" in err


class TestImportHygiene:
    def test_weighted_benchmark_loads_no_numpy(self, tmp_path, fixtures):
        # The canonical read and the tallies run on plain lists; a weighted
        # benchmark computes no exact interval, so nothing loads numpy.
        rows = (fixtures / "canonical" / "town_crashes.csv").read_text().splitlines()
        rows[1] = rows[1].replace(",1.0,", ",2.5,")
        (tmp_path / "crashes.csv").write_text("\n".join(rows) + "\n")
        for name in ("vehicles", "mileage"):
            shutil.copy(fixtures / "canonical" / f"town_{name}.csv", tmp_path / f"{name}.csv")
        manifest = json.loads((fixtures / "manifests" / "town_2022.json").read_text())
        manifest["crash_sources"][0].update(crash_file="crashes.csv",
                                            vehicle_file="vehicles.csv")
        manifest["mileage"][0]["file"] = "mileage.csv"
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        probe = (
            "import sys\n"
            "from crashbench import build_benchmark, load_dataset, load_manifest\n"
            f"ds, = load_manifest({str(tmp_path / 'manifest.json')!r})\n"
            "report = build_benchmark(load_dataset(ds))\n"
            "assert report.weighted and report.vehicle_counts.police_reported == 6.0\n"
            "assert 'numpy' not in sys.modules\n"
        )
        src = str(Path(crashbench.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("name", ["national_2022", "sf_2022"])
    def test_raw_ingest_and_report_build_no_record(self, tmp_path, fixtures, name):
        # Raw sources load to canonical rows, which ingest writes and report
        # folds as they are: a record constructor that raises is never called.
        probe = (
            "import sys\n"
            "from crashbench import model\n"
            "def refuse(self, *args, **kwargs):\n"
            "    raise AssertionError(f'built a {type(self).__name__}')\n"
            "for record in (model.CrashEvent, model.VehicleInvolvement,"
            " model.PersonOutcome):\n"
            "    record.__init__ = refuse\n"
            "from crashbench.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(crashbench.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        manifest = str(fixtures / "manifests" / f"{name}.json")
        for command in ("ingest", "report"):
            out = tmp_path / command
            result = subprocess.run(
                [sys.executable, "-c", probe, command, "--manifest", manifest,
                 "--out", str(out), "--quiet"],
                env=env, capture_output=True, text=True, timeout=60)
            assert result.returncode == 0, result.stderr
        for file_name in CANONICAL_FILES:
            golden = fixtures / "golden" / name / file_name
            assert (tmp_path / "ingest" / file_name).read_bytes() == golden.read_bytes()
        for expected in (REPORT_GOLDENS / name).iterdir():
            assert (without_provenance(tmp_path / "report" / expected.name)
                    == without_provenance(expected)), expected.name

    @staticmethod
    def layers_loaded_by(code: str, *args: str) -> list[str]:
        """The crashbench modules loaded after running ``code`` with
        ``args`` in a fresh interpreter."""
        code += ("\nimport json, sys\n"
                 "print(json.dumps(sorted(m.removeprefix('crashbench.')"
                 " for m in sys.modules if m.startswith('crashbench.'))))\n")
        src = str(Path(crashbench.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        result = subprocess.run([sys.executable, "-c", code, *args], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    @pytest.mark.parametrize("statement, layers", [
        ("import crashbench", []),
        ("import crashbench.synth", ["errors", "model", "power", "synth"]),
        ("from crashbench import power_table", ["errors", "power"]),
    ])
    def test_each_entry_loads_only_its_layers(self, statement, layers):
        assert self.layers_loaded_by(statement) == layers

    def test_aggregate_report_loads_no_microdata_layer(self, tmp_path):
        # Published totals need neither ingest, interchange, schema nor synth.
        loaded = self.layers_loaded_by(
            "import sys\n"
            "from crashbench.cli import main\n"
            "assert main(sys.argv[1:]) == 0",
            "report", "--aggregates", "2022", "--out", str(tmp_path), "--quiet")
        assert loaded == ["cli", "errors", "filters", "model", "power", "rates"]
        golden = REPORT_GOLDENS / "aggregates_2022"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            p.name for p in golden.iterdir())
        for expected in golden.iterdir():
            assert (without_provenance(tmp_path / expected.name)
                    == without_provenance(expected)), expected.name

    def test_canonical_report_loads_no_spec_machinery(self, tmp_path, fixtures):
        # A canonical manifest names no spec, so schema is never imported;
        # ingest.load_schema stays a module attribute that its callers use.
        loaded = self.layers_loaded_by(
            "import sys\n"
            "from crashbench import ingest\n"
            "from crashbench.cli import main\n"
            "assert callable(ingest.load_schema)\n"
            "assert main(sys.argv[1:]) == 0",
            "report", "--manifest", str(fixtures / "manifests" / "town_2022.json"),
            "--out", str(tmp_path), "--quiet")
        assert loaded == ["cli", "errors", "filters", "ingest", "interchange", "model",
                          "power", "rates"]
        golden = REPORT_GOLDENS / "town_2022"
        for expected in golden.iterdir():
            assert (without_provenance(tmp_path / expected.name)
                    == without_provenance(expected)), expected.name

    @pytest.mark.parametrize("source", ["manifest", "aggregates"])
    def test_a_report_without_a_config_file_loads_no_ini_reader(self, tmp_path, fixtures,
                                                                source):
        # Without --config no INI text is read, so configparser stays unloaded.
        given = (["--manifest", str(fixtures / "manifests" / "town_2022.json")]
                 if source == "manifest" else ["--aggregates", "2022"])
        self.layers_loaded_by(
            "import sys\n"
            "from crashbench.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "assert 'configparser' not in sys.modules\n",
            "report", *given, "--out", str(tmp_path), "--quiet")

    def test_schema_is_imported_before_the_first_worker_forks(self, tmp_path, fixtures):
        # Each worker would import it, and the INI reader its specs are
        # parsed with, again otherwise, and the mileage after.  The second
        # source, FARS, is the one that loads in a worker.
        self.layers_loaded_by(
            "import os, sys\n"
            "from crashbench import ingest\n"
            "from crashbench.cli import main\n"
            "ingest._WORKER_BYTES = 0\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "start, imported = ingest._start_worker, []\n"
            "def spy(*args):\n"
            "    imported.append('crashbench.schema' in sys.modules\n"
            "                    and 'configparser' in sys.modules)\n"
            "    return start(*args)\n"
            "ingest._start_worker = spy\n"
            "assert main(sys.argv[1:]) == 0\n"
            "assert imported == [True], imported",
            "ingest", "--manifest", str(fixtures / "manifests" / "national_2022.json"),
            "--out", str(tmp_path), "--quiet")

    def test_cli_start_loads_neither_numpy_nor_scipy_stats(self):
        # Every command pays for what the package imports at start-up:
        # numpy and scipy load only inside the functions that need them.
        probe = (
            "import sys, crashbench, crashbench.cli\n"
            "loaded = sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('numpy', 'scipy'))\n"
            "assert not loaded, loaded\n"
            "crashbench.garwood_interval(3)\n"
            "assert 'scipy.stats' not in sys.modules\n"
        )
        src = str(Path(crashbench.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
