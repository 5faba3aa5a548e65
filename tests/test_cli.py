"""End-to-end command behavior, exit codes, and byte-stable outputs."""

import csv
import hashlib
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
from crashbench import interchange
from crashbench.cli import main
from crashbench.interchange import (
    CRASH_HEADER,
    MILEAGE_HEADER,
    PERSON_HEADER,
    VEHICLE_HEADER,
)

CANONICAL_FILES = ("crashes.csv", "vehicles.csv", "persons.csv", "mileage.csv")


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
        for name in CANONICAL_FILES:
            shutil.copy(fixtures / "golden" / "sf_2022" / name, tmp_path)
        path = tmp_path / f"{table}.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(3, lines[2])
        path.write_text("".join(lines))
        manifest = {
            "region": {"kind": "county", "name": "San Francisco", "state": "CA"},
            "year": 2022, "road_rule": "all_roads",
            "crash_sources": [{"spec": "canonical", "crash_file": "crashes.csv",
                               "vehicle_file": "vehicles.csv",
                               "person_file": "persons.csv"}],
            "mileage": [{"spec": "canonical", "file": "mileage.csv"}],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        code, _, err = run(capsys, "benchmark", "--manifest", str(tmp_path / "manifest.json"),
                           "--out", str(tmp_path / "out"), "--quiet")
        assert code == 2, err
        assert f"{table}.csv:4: repeated" in err and key in err

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

    @pytest.mark.parametrize("name", sorted(
        p.name for p in (Path(__file__).parent / "fixtures" / "golden").iterdir()))
    def test_records_and_their_rows_write_the_same_bytes(self, tmp_path, fixtures, name):
        # One writer serves records and their rows alike.  Crash, vehicle and
        # person keys are unique, so their files do not depend on the order
        # given; two mileage cells may share a key (Los Angeles has two
        # local/all cells) and then keep the order given.
        rng = random.Random(name)
        for table in ("crashes", "vehicles", "persons", "mileage"):
            golden = fixtures / "golden" / name / f"{table}.csv"
            records = interchange.read_records(golden, table)
            rng.shuffle(records)
            getattr(interchange, f"write_{table}")(tmp_path / "records.csv", records)
            interchange.write_rows(tmp_path / "rows.csv", table,
                                   interchange.encode(table, records))
            written = (tmp_path / "records.csv").read_bytes()
            assert (tmp_path / "rows.csv").read_bytes() == written, table
            if table != "mileage":
                assert written == golden.read_bytes(), table

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
    def test_report_digests_each_input_once(self, capsys, tmp_path, fixtures,
                                            monkeypatch):
        # benchmark.* and power.* carry one provenance block, from one read
        # of each input file.
        reads = Counter()
        read_bytes = Path.read_bytes

        def counted(path):
            reads[path.resolve()] += 1
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counted)
        manifest = fixtures / "manifests" / "national_2022.json"
        code, _, err = run(capsys, "report", "--manifest", str(manifest),
                           "--out", str(tmp_path), "--quiet")
        assert code == 0, err
        ds, = interchange.load_manifest(manifest)
        inputs = {manifest.resolve()} | {
            path.resolve() for ref in ds.crash_sources
            for path in (ref.crash_file, ref.vehicle_file, ref.person_file)
        } | {ref.file.resolve() for ref in (*ds.mileage, *ds.shares)}
        assert set(reads) == inputs
        assert set(reads.values()) == {1}


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
