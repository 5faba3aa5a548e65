"""Every input file, broken at the byte level, is an input error.

Each case copies one run's inputs, breaks one file in one way and runs
each command that reads it, in-process.  No case may exit 1 (an internal
error).  A case that exits 2 names the broken file; where a byte of a CSV
file's first row is broken, it names that line too.  A case that exits 0
must be listed in ``ACCEPTED`` with the reason the broken file still
reads as a valid one.
"""

import json
import shutil
from importlib import resources
from pathlib import Path

import pytest

from crashbench.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SHIPPED = resources.files("crashbench")
MANIFESTS = ("sf_2022", "national_2022", "town_2022")
# The sf_2022 copy names its crash spec by path, so a spec file is read.
SPEC_BY_PATH = "switrs.spec"
POWER_ROW = "national:fatal:unadjusted"


def _at_line_2(insert: bytes):
    def mutate(data: bytes) -> bytes:
        start = data.index(b"\n") + 1
        return data[:start] + insert + data[start:]
    return mutate


def _truncated(data: bytes) -> bytes:
    """``data`` cut halfway through its last line."""
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    return data[:(start + len(data.rstrip(b"\n"))) // 2]


MUTATIONS = {
    "non_utf8": _at_line_2(b"\xe9"),
    "long_cell": _at_line_2(b"x" * 200_000),
    "open_quote": _at_line_2(b'"'),
    "truncated": _truncated,
    "empty": lambda data: b"",
}
LINE_2 = {"non_utf8", "long_cell", "open_quote"}

# (run/file, mutation) cases whose commands exit 0, and why.  A raw row
# short of cells is padded with nulls, as csv.DictReader reads it, so a raw
# table cut in its last row loses only that row's last cells.
ACCEPTED = {
    ("sf_2022/switrs_crashes.csv", "truncated"):
        "the cut row, crash S008, has an empty county: the region filter drops it, cut or not",
    ("sf_2022/switrs_parties.csv", "truncated"):
        "the cut row is a party of crash S008, which the region filter drops",
    ("sf_2022/switrs_victims.csv", "truncated"):
        "the cut victim of crash S007 counts under unknown_person_kabco and unknown_airbag",
    ("sf_2022/prd_2022.csv", "truncated"):
        "the cut row, of 2021, reads county 'San Fran' and counts as region_filtered",
    ("national_2022/crss_vehicles.csv", "truncated"):
        "the cut row is a vehicle of crash C009, of 2021, which the run drops",
    ("national_2022/crss_persons.csv", "truncated"):
        "the cut row is a person of crash C009, of 2021, which the run drops",
    ("national_2022/fars_vehicles.csv", "truncated"):
        "the cut vehicle of crash F007 counts under unknown_body, unknown_towed "
        "and unknown_in_transport",
    ("national_2022/vm2_2022.csv", "truncated"):
        "the cut row keeps its year cell, 2021, so it counts as year_mismatch, cut or not",
}


FILE_KEYS = ("crash_file", "vehicle_file", "person_file", "file")


def _manifest(name: str) -> tuple[dict, list[dict]]:
    """A fixture manifest, and its entries that name files."""
    manifest = json.loads((FIXTURES / "manifests" / f"{name}.json").read_text())
    return manifest, [*manifest["crash_sources"], *manifest.get("mileage", []),
                      *manifest.get("shares", [])]


def _manifest_files(name: str) -> list[str]:
    """The names of the files a fixture manifest's run reads."""
    _, entries = _manifest(name)
    names = ["manifest.json", *dict.fromkeys(
        Path(entry[key]).name for entry in entries for key in FILE_KEYS if key in entry)]
    return names + [SPEC_BY_PATH] if name == "sf_2022" else names


CASES = [
    *((name, file) for name in MANIFESTS for file in _manifest_files(name)),
    ("aggregates", "aggregates_2022.csv"),
    ("synth", "mixed_population.ini"),
    ("power", "benchmark.json"),
]


def _stage(run: str, tmp: Path) -> dict[str, list[str]]:
    """Copy ``run``'s inputs into ``tmp``; the argv of each command that
    reads them."""
    if run == "aggregates":
        shutil.copy(SHIPPED / "data" / "aggregates_2022.csv", tmp)
        return {"report": ["report", "--aggregates", str(tmp / "aggregates_2022.csv")]}
    if run == "synth":
        shutil.copy(FIXTURES / "synth" / "mixed_population.ini", tmp)
        return {"synth": ["synth", "--spec", str(tmp / "mixed_population.ini")]}
    if run == "power":
        assert main(["benchmark", "--aggregates", "2022", "--format", "json",
                     "--out", str(tmp), "--quiet"]) == 0
        return {"power": ["power", "--benchmark-table", str(tmp / "benchmark.json"),
                          "--row", POWER_ROW]}
    manifest, entries = _manifest(run)
    for entry in entries:
        for key in FILE_KEYS:
            if key in entry:
                shutil.copy(FIXTURES / "manifests" / entry[key], tmp)
                entry[key] = Path(entry[key]).name
    if run == "sf_2022":
        (tmp / SPEC_BY_PATH).write_bytes((SHIPPED / "specs" / SPEC_BY_PATH).read_bytes())
        manifest["crash_sources"][0]["spec"] = str(tmp / SPEC_BY_PATH)
    (tmp / "manifest.json").write_text(json.dumps(manifest, indent=1))
    path = str(tmp / "manifest.json")
    return {"ingest": ["ingest", "--manifest", path],
            "benchmark": ["benchmark", "--manifest", path]}


@pytest.mark.parametrize("run", dict.fromkeys(run for run, _ in CASES))
def test_every_run_reads_its_clean_inputs(run, tmp_path, capsys):
    for command, argv in _stage(run, tmp_path).items():
        code = main([*argv, "--out", str(tmp_path / f"out_{command}"), "--quiet"])
        assert code == 0, (run, command, capsys.readouterr().err)


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("run, file", CASES)
def test_broken_input_is_an_input_error(run, file, mutation, tmp_path, capsys):
    commands = _stage(run, tmp_path)
    target = tmp_path / file
    target.write_bytes(MUTATIONS[mutation](target.read_bytes()))
    case = (f"{run}/{file}", mutation)
    for command, argv in commands.items():
        code = main([*argv, "--out", str(tmp_path / f"out_{command}"), "--quiet"])
        err = capsys.readouterr().err
        assert code != 1, (case, command, err)
        if code == 0:
            assert case in ACCEPTED, (case, command, "exits 0")
            continue
        assert case not in ACCEPTED, (case, command, err)
        assert str(target) in err, (case, command, err)
        if file.endswith(".csv") and mutation in LINE_2:
            assert f"{target}:2:" in err, (case, command, err)


@pytest.mark.parametrize("text, where", [
    ('{"reports": [', ":1: not valid JSON"),
    ("[]", ": the top level must be an object"),
    ('{"reports": [{"region": 5, "rows": []}]}', ": reports[0].region must be an object"),
])
def test_misshapen_benchmark_table_names_the_first_bad_path(text, where, tmp_path, capsys):
    table = tmp_path / "benchmark.json"
    table.write_text(text)
    code = main(["power", "--benchmark-table", str(table), "--row", POWER_ROW,
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"benchmark table {table}{where}" in err


DATASET = {"region": "national", "year": 2022}


@pytest.mark.parametrize("manifest, where", [
    ({**DATASET, "crash_sources": [{"crash_file": "c.csv"}]}, "crash_sources[0].spec"),
    ({**DATASET, "crash_sources": 5}, "crash_sources"),
    ({**DATASET, "mileage": [{"spec": "fhwa_vm2"}]}, "mileage[0].file"),
    ({"datasets": [5]}, "datasets[0]"),
    ({**DATASET, "crash_sources": [7]}, "crash_sources[0]"),
    ({**DATASET, "crash_sources": [{"spec": "crss", "crash_file": "c.csv",
                                    "region_filter": 5}]},
     "crash_sources[0].region_filter"),
    ({**DATASET, "road_rule": ["all_roads"]}, "road_rule"),
])
def test_misshapen_manifest_names_the_first_bad_path(manifest, where, tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code = main(["benchmark", "--manifest", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"manifest {path}: {where} must be" in err
