"""Every input file, broken at the byte level, is an input error.

Each case copies one run's inputs, breaks one file in one way and runs
each command that reads it, in-process.  No case may exit 1 (an internal
error).  A case that exits 2 names the broken file; where a byte of a CSV
file's first row is broken, it names that line too.  A case that exits 0
must be listed in ``ACCEPTED`` with the reason the broken file still
reads as a valid one.

Misshapen JSON, and an INI file with one section or key renamed, are
input errors too, naming the file and where in it the fault is.
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

# (run/file, mutation) cases whose commands exit 0, and why.  None is left:
# a raw row short of cells is padded with nulls, as csv.DictReader reads
# it, but a last row cut short with no line ending is an error.
ACCEPTED: dict = {}


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
    ({**DATASET, "crash_sources": [{"spec": "crss", "crash_file": "c.csv",
                                    "role": "fatl"}]}, "crash_sources[0].role"),
    ({"datasets": [DATASET, {**DATASET, "region": {"name": 5, "state": "CA"}}]},
     "datasets[1].region.name"),
    ({**DATASET, "region": {"name": "Maricopa", "state": ["AZ"]}}, "region.state"),
    ({**DATASET, "region": {"kind": "nation"}}, "region.kind"),
    ({**DATASET, "region": {"kind": 5, "name": "Maricopa", "state": "AZ"}}, "region.kind"),
    ({**DATASET, "region": "Maricopa"}, "region"),
    ({**DATASET, "year": 2022.7}, "year"),
    ({**DATASET, "year": True}, "year"),
    ({**DATASET, "year": "2022"}, "year"),
    ({"region": "national"}, "year"),
    ({**DATASET, "region": {"name": "Maricopa", "state": ""}}, "region.state"),
    ({**DATASET, "region": {"name": "", "state": "AZ"}}, "region.name"),
    ({**DATASET, "region": {"name": "Maricopa", "state": " "}}, "region.state"),
])
def test_misshapen_manifest_names_the_first_bad_path(manifest, where, tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code = main(["benchmark", "--manifest", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"manifest {path}: {where} must be" in err


# Every section and key of a shipped spec, the population spec and a config
# file is one that a reader reads, so renaming any one of them is an input
# error naming the file and the section; none falls back to a default.
SPEC_RUNS = {  # spec: (fixture run, the spec its copy stands in for)
    "switrs": ("sf_2022", "switrs"), "ca_prd": ("sf_2022", "ca_prd"),
    "fhwa_vm4": ("sf_2022", "fhwa_vm4"), "crss": ("national_2022", "crss"),
    "fars_national": ("national_2022", "fars_national"),
    "fars_fatal": ("national_2022", "fars_national"),
    "fhwa_vm2": ("national_2022", "fhwa_vm2"), "adot": ("maricopa_2022", "adot"),
    "adot_cpm": ("maricopa_2022", "adot_cpm"),
}
CONFIG = """[run]
out_dir = out
formats = csv
verbosity = 0

[benchmark]
aggregates = 2022
rows = police_reported:unadjusted,fatal:unadjusted

[power]
relative_rates = 0.25,0.5,1.5
alpha = 0.05
target_power = 0.8
"""


def _renamed(text: str):
    """(section, renamed line, text) for each section header and key of
    INI ``text``, renamed in the text by appending "x"."""
    lines = text.splitlines(keepends=True)
    section = None
    for i, line in enumerate(lines):
        if line.startswith("["):
            section = line.strip()[1:-1]
            renamed = f"[{section}x]\n"
        elif section and line[:1].strip() and line[0] not in "#;" and "=" in line:
            key, _, rest = line.partition("=")
            renamed = f"{key.rstrip()}x ={rest}"
        else:
            continue
        yield section, renamed.strip(), "".join([*lines[:i], renamed, *lines[i + 1:]])


def _stage_renames(name: str, tmp: Path):
    """The INI file copy that ``name`` stands for, its clean text, and the
    argv of the command that reads it."""
    if name == "mixed_population.ini":
        argv = _stage("synth", tmp)["synth"]
        target = tmp / name
    elif name == "config":
        target = tmp / "run.ini"
        target.write_text(CONFIG)
        argv = ["report", "--config", str(target)]
    else:
        run, stands_for = SPEC_RUNS[name]
        argv = _stage(run, tmp)["ingest"]
        target = tmp / f"{name}.spec"
        target.write_bytes((SHIPPED / "specs" / f"{name}.spec").read_bytes())
        manifest = json.loads((tmp / "manifest.json").read_text())
        for entry in [*manifest["crash_sources"], *manifest.get("mileage", []),
                      *manifest.get("shares", [])]:
            if Path(entry["spec"]).stem == stands_for:
                entry["spec"] = str(target)
        (tmp / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return target, target.read_text(), argv


@pytest.mark.parametrize("name", [*SPEC_RUNS, "mixed_population.ini", "config"])
def test_renamed_section_or_key_is_an_input_error(name, tmp_path, capsys):
    target, text, argv = _stage_renames(name, tmp_path)
    out = str(tmp_path / "out")
    assert main([*argv, "--out", out, "--quiet"]) == 0, capsys.readouterr().err
    cases = list(_renamed(text))
    assert len(cases) >= 5
    for section, line, renamed in cases:
        target.write_text(renamed)
        code = main([*argv, "--out", out, "--quiet"])
        err = capsys.readouterr().err
        case = (name, line)
        assert code == 2, (case, err)
        assert str(target) in err, (case, err)
        assert f"[{section}]" in err or f"[{section}x]" in err, (case, err)
