"""Scale curves of ``crashbench report``, ``ingest``, ``benchmark`` and ``synth``.

    python3 tools/scale_curve.py
    python3 tools/scale_curve.py --tree parent=../parent/src --tree change=src
    python3 tools/scale_curve.py --curve ingest --tree parent=../parent/src --tree change=src
    python3 tools/scale_curve.py --curve ingest_wide --tree parent=../parent/src --tree change=src
    python3 tools/scale_curve.py --curve benchmark_raw --tree parent=../parent/src --tree change=src
    python3 tools/scale_curve.py --curve synth --tree parent=../parent/src --tree change=src

The report curve runs ``crashbench report --manifest M`` in a child
process on perfbench's canonical_report population
(``perfbench/inputs.py``) at 10^4, 10^5 and 10^6 crashes.  The ingest
curve runs ``crashbench ingest --manifest M`` on perfbench's raw_ingest
inputs (the national CRSS and FARS fixtures replicated with seeded crash
ids), with the replica count scaled to about 10^4, 10^5 and 10^6 raw
crash rows.  The ingest_wide curve runs it on the same inputs with
``FILLERS`` deterministic columns that no spec reads appended to every
raw crash, vehicle and person file, as real extracts carry dozens of
columns, at 10^4 and 10^5.  The benchmark_raw curve runs ``crashbench
benchmark --manifest M`` on the ingest curve's inputs: the raw path of
``benchmark`` and ``report``, which writes no canonical CSV.  The synth
curve runs ``crashbench synth --spec S`` on a copy of
``tests/fixtures/synth/mixed_population.ini`` with ``n_crashes`` set to
10^4, 10^5 and 10^6 and the seed to the curve's.  Every run of an ingest or synth curve at one size must write
the same CSVs, and those of ingest_wide must equal those of one untimed
ingest run of the first tree on the narrow inputs.
Each ``--tree LABEL=SRC`` names a source tree to measure (default
``change=`` this checkout's ``src``).  At each size every tree runs once
per repeat, three repeats on seed 1, and the tree that goes first
rotates from one repeat to the next, so a host that drifts slower or
faster does not read as a difference between trees.  Each tree appends
one entry to ``BENCH_scale.json``: each run's wall time and the child's
peak RSS, with the Python version, CPU count and git SHA of the measured
source tree.

After the timed runs at a size, each tree runs once more, untimed.
Every 10 ms until the child exits, the curve reads, for the child and
every process under it, the proportional set size (``Pss`` in
``/proc/PID/smaps_rollup``: a page shared after a fork counts a share in
each process that maps it) and the resident size (``VmRSS``).  The entry
keeps, per size, the largest sum of each over the processes alive at one
sample (``tree_pss_mib``, ``tree_rss_mib``) and the most processes alive
at once (``processes``): the whole run, as a memory limit counts it,
where ``peak_rss_mib`` is the largest single process (``ru_maxrss``, as
perfbench's ``peak_rss_mb``).  A peak shorter than the interval can be
missed, so each is a floor; sampling costs CPU, so the run is not timed.
Linux only.

Before each run, a child process times one sample of perfbench's
``reference_loop`` (once on every CPU in turn, as perfbench calibrates).
The entry keeps each sample next to its run's wall time, the median of
every sample taken at that size (across all trees and repeats) as
``size_reference_loop_s``, and ``median_ref_wall_s``, the median wall x
``REFERENCE_S`` / that size median: the runs' time on perfbench's
reference host, so that a host running slower for minutes does not read
as a slower program.  One scale for every run at a size, as perfbench's
``end_to_end`` scales by the median loop time of its run, keeps a single
noisy sample from moving one run: scaling each run by its own sample read
two raw medians of 2.087 and 2.090 s as 3.615 and 2.618 reference-host
seconds.  Entries written before this scale stay as they were; raw walls
stay in every entry.

It is not a gate and sets no bound; it records a trajectory that later
changes append to.  The inputs are built once per curve, seed and size
and kept under ``.scale_work/`` (building 10^6 crashes takes about a
minute and 0.75 GiB); the same seed gives the same bytes.  Run it from
the root of a source checkout on an otherwise idle host.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import multiprocessing
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".scale_work"
OUT = ROOT / "BENCH_scale.json"
SIZES = (10_000, 100_000, 1_000_000)
SEED = 1
REPEATS = 3          # runs per size; the entry keeps each run and the median
# Curve -> (the command it times, the perfbench workload whose inputs it
# reads or "synth" for a population spec, filler columns appended to each
# raw crash, vehicle and person file, sizes).  The wide curve stops at
# 10^5: at 10^6 its inputs take 1.1 GB of disk, and a tree that holds each
# kept crash's raw row read 333 MiB at 10^5.
FILLERS = 60
CURVES = {"report": ("report", "canonical_report", 0, SIZES),
          "ingest": ("ingest", "raw_ingest", 0, SIZES),
          "ingest_wide": ("ingest", "raw_ingest", FILLERS, SIZES[:2]),
          "benchmark_raw": ("benchmark", "raw_ingest", 0, SIZES),
          "synth": ("synth", "synth", 0, SIZES)}
# Command -> (the option it reads its input through, that option's name in
# an entry's "command", the file the option names, the CSVs every run at
# one size must write alike).
INPUT = {"report": ("--manifest", "M", "manifest.json", ()),
         "benchmark": ("--manifest", "M", "manifest.json", ()),
         "ingest": ("--manifest", "M", "manifest.json",
                    ("crashes.csv", "vehicles.csv", "persons.csv", "mileage.csv")),
         "synth": ("--spec", "S", "spec.ini", ("crashes.csv", "vehicles.csv"))}
SYNTH_SPEC = ROOT / "tests" / "fixtures" / "synth" / "mixed_population.ini"


def build_inputs(curve: str, seed: int, n_crashes: int) -> Path:
    """The curve's inputs at ``n_crashes``, built on first use in a fresh
    process: a child's peak RSS counts the resident size of the process
    that starts it, so this one must stay small."""
    _, workload, fillers, _ = CURVES[curve]
    wide = f"_wide{fillers}" if fillers else ""
    out = WORK_DIR / f"{workload}{wide}-seed{seed}-n{n_crashes}"
    if not (out / "inputs.json").is_file():
        proc = multiprocessing.get_context("spawn").Process(
            target=_build, args=(workload, seed, n_crashes, out, fillers))
        proc.start()
        proc.join()
        if proc.exitcode != 0:
            raise SystemExit(f"building {out.name} failed")
    return out


def _build(workload: str, seed: int, n_crashes: int, out: Path, fillers: int) -> None:
    partial = out.with_name(out.name + ".partial")
    shutil.rmtree(partial, ignore_errors=True)
    partial.mkdir(parents=True)
    if workload == "synth":
        _synth_spec(partial / "spec.ini", seed, n_crashes)
        (partial / "inputs.json").write_text(
            json.dumps({"rows": {"crashes": n_crashes}}) + "\n")
        partial.rename(out)
        return
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import inputs
    from spans import NullRecorder

    size = f"n{n_crashes}"
    if workload == "raw_ingest":
        per_replica = sum(_data_rows(inputs.FIXTURES / "raw" / files[0])
                          for _, _, files in inputs.RAW_SOURCES)
        scaled = {"replicas": max(1, round(n_crashes / per_replica))}
    else:
        scaled = {"n_crashes": n_crashes}
    inputs.SIZES[size] = {**inputs.SIZES["full"], **scaled}
    summary = inputs.BUILDERS[workload](partial, seed, size, NullRecorder())
    if fillers:
        for _, _, files in inputs.RAW_SOURCES:
            for name in files:
                _widen(partial / name, fillers)
    (partial / "inputs.json").write_text(json.dumps(summary, sort_keys=True) + "\n")
    partial.rename(out)


def _synth_spec(path: Path, seed: int, n_crashes: int) -> None:
    """The fixture population spec with its size and seed replaced."""
    text = SYNTH_SPEC.read_text(encoding="utf-8")
    for key, value in (("n_crashes", n_crashes), ("seed", seed)):
        text, found = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        if found != 1:
            raise SystemExit(f"{SYNTH_SPEC}: expected one '{key} = ' line, found {found}")
    path.write_text(text, encoding="utf-8")


def _widen(path: Path, fillers: int) -> None:
    """Append ``fillers`` columns of numeric codes of up to five digits to
    a raw CSV, streaming it row by row."""
    wide = path.with_name(path.name + ".wide")
    with open(path, newline="", encoding="utf-8") as src, \
            open(wide, "w", newline="", encoding="utf-8") as dst:
        reader, writer = csv.reader(src), csv.writer(dst, lineterminator="\n")
        writer.writerow(next(reader) + [f"FILLER_{j}" for j in range(fillers)])
        for i, row in enumerate(reader):
            writer.writerow(row + [str((i * 7919 + j * 104729) % 100000)
                                   for j in range(fillers)])
    wide.replace(path)


def _data_rows(path: Path) -> int:
    """Rows below the header of one raw fixture."""
    with open(path, newline="", encoding="utf-8") as handle:
        return sum(1 for row in csv.reader(handle) if row) - 1


# One reference-loop sample, timed as perfbench's Run.calibrate times it;
# prints REFERENCE_S and the sample's seconds.
_REFERENCE = """
import os, sys, time
sys.path.insert(0, sys.argv[1])
from run import REFERENCE_S, reference_loop
started = time.perf_counter()
for cpu in sorted(os.sched_getaffinity(0)):
    os.sched_setaffinity(0, {cpu})
    reference_loop()
print(REFERENCE_S, time.perf_counter() - started)
"""


def reference_sample() -> tuple[float, float]:
    """(REFERENCE_S, seconds) of one reference-loop sample in a child process."""
    proc = subprocess.run([sys.executable, "-c", _REFERENCE, str(ROOT / "perfbench")],
                          capture_output=True, text=True, check=True)
    reference_s, seconds = map(float, proc.stdout.split())
    return reference_s, seconds


def _kib(path: str, field: str) -> int | None:
    """The ``field`` line of a /proc file, in KiB; None once the process
    has gone."""
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _processes(root: int) -> list[int]:
    """``root`` and every process under it."""
    found, todo = [], [root]
    while todo:
        pid = todo.pop()
        found.append(pid)
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children") as handle:
                    todo += map(int, handle.read().split())
        except OSError:
            pass
    return found


def run_cli(src: Path, command: str, inputs_dir: Path, out: Path,
            sample: bool = False) -> tuple[float, float, dict]:
    """Wall seconds and peak RSS (MiB) of one ``command`` child on the
    input file it reads from ``inputs_dir``; and, when ``sample``, the
    peaks of the memory it and every process under it hold at once, read
    every 10 ms, else {}."""
    shutil.rmtree(out, ignore_errors=True)
    option, _, name, _ = INPUT[command]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    tree = {"tree_pss_mib": 0.0, "tree_rss_mib": 0.0, "processes": 0}
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "crashbench.cli", command, option, str(inputs_dir / name),
         "--out", str(out), "--quiet"], env=env, stderr=subprocess.PIPE)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG if sample else 0)
        if pid:
            break
        sizes = [(_kib(f"/proc/{child}/smaps_rollup", "Pss:"),
                  _kib(f"/proc/{child}/status", "VmRSS:"))
                 for child in _processes(proc.pid)]
        sizes = [(pss, rss) for pss, rss in sizes if pss is not None and rss is not None]
        tree["tree_pss_mib"] = max(tree["tree_pss_mib"], sum(p for p, _ in sizes) / 1024)
        tree["tree_rss_mib"] = max(tree["tree_rss_mib"], sum(r for _, r in sizes) / 1024)
        tree["processes"] = max(tree["processes"], len(sizes))
        time.sleep(0.01)
    wall = time.perf_counter() - started
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{command} failed on {inputs_dir / name}: "
                         f"{proc.stderr.read().decode()}")
    proc.stderr.close()
    return wall, usage.ru_maxrss / 1024.0, (
        {field: round(value, 1) for field, value in tree.items()} if sample else {})


def canonical_digests(command: str, out: Path) -> dict[str, str]:
    """The SHA-256 of each CSV an ingest or synth run wrote to ``out``."""
    digests = {}
    for name in INPUT[command][3]:
        digest = hashlib.sha256()
        with open(out / name, "rb") as handle:     # in chunks: this process stays small
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
        digests[name] = digest.hexdigest()
    return digests


def git_sha(src: Path) -> str | None:
    """The commit checked out where ``src`` lies, if it is a git checkout,
    marked ``+dirty`` when files under ``src`` differ from it."""
    head = subprocess.run(["git", "-C", str(src), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode != 0:
        return None
    status = subprocess.run(["git", "-C", str(src), "status", "--porcelain", "--", "."],
                            capture_output=True, text=True)
    return head.stdout.strip() + ("+dirty" if status.stdout.strip() else "")


def tree(value: str) -> tuple[str, Path]:
    """``LABEL=SRC`` -> (label, resolved source tree)."""
    label, sep, src = value.partition("=")
    if not (label and sep and src):
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC, got {value!r}")
    return label, Path(src).resolve()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=tree, action="append", metavar="LABEL=SRC",
                        help="a source tree to measure, named LABEL in its entry; "
                             "repeat to compare trees (default change=<checkout>/src)")
    parser.add_argument("--curve", choices=sorted(CURVES), default="report",
                        help="the curve to run (default report)")
    args = parser.parse_args(argv)
    pairs = args.tree or [("change", ROOT / "src")]
    trees = dict(pairs)
    if len(trees) < len(pairs):
        parser.error("each --tree needs its own LABEL")

    command, _, fillers, sizes = CURVES[args.curve]
    option, metavar, _, written_csvs = INPUT[command]
    out = WORK_DIR / "out"
    runs: dict[str, list] = {label: [] for label in trees}
    for n_crashes in sizes:
        inputs_dir = build_inputs(args.curve, SEED, n_crashes)
        summary = json.loads((inputs_dir / "inputs.json").read_text(encoding="utf-8"))
        samples: dict[str, list] = {label: [] for label in trees}
        memory: dict[str, dict] = {}
        order = list(trees)
        expected = None         # the CSVs each ingest or synth run must write
        if fillers:
            run_cli(trees[order[0]], command, build_inputs(command, SEED, n_crashes), out)
            expected = canonical_digests(command, out)
        # The timed runs, the tree that goes first rotating, then one untimed
        # run of each tree that samples its processes' memory.
        turns = [(order[(repeat + i) % len(order)], False)
                 for repeat in range(REPEATS) for i in range(len(order))]
        for label, sample in turns + [(label, True) for label in order]:
            if sample:
                memory[label] = run_cli(trees[label], command, inputs_dir, out,
                                        sample=True)[2]
            else:
                reference_s, loop = reference_sample()
                samples[label].append(
                    (*run_cli(trees[label], command, inputs_dir, out)[:2], loop))
            if written_csvs:
                written = canonical_digests(command, out)
                if expected is not None and written != expected:
                    raise SystemExit(f"{label}: {args.curve} at {n_crashes} crashes "
                                     f"wrote other CSVs than the first run"
                                     + (" on the narrow inputs" if fillers else ""))
                expected = written
        size_loop = statistics.median(loop for taken in samples.values()
                                      for _, _, loop in taken)
        for label, taken in samples.items():
            runs[label].append({
                "n_crashes": n_crashes,
                "crash_rows": summary["rows"]["crashes"],
                "wall_s": [round(wall, 3) for wall, _, _ in taken],
                "reference_loop_s": [round(loop, 4) for _, _, loop in taken],
                "peak_rss_mib": [round(rss, 1) for _, rss, _ in taken],
                "median_wall_s": round(statistics.median(w for w, _, _ in taken), 3),
                "size_reference_loop_s": round(size_loop, 4),
                "median_ref_wall_s": round(statistics.median(
                    w for w, _, _ in taken) * reference_s / size_loop, 3),
                "median_peak_rss_mib": round(statistics.median(r for _, r, _ in taken), 1),
                **memory[label],
            })
            run = runs[label][-1]
            print(f"{label}: {n_crashes} crashes: {run['median_wall_s']} s "
                  f"({run['median_ref_wall_s']} reference-host s), "
                  f"{run['median_peak_rss_mib']} MiB; {run['processes']} processes "
                  f"held {run['tree_pss_mib']} MiB Pss", file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)

    record = (json.loads(OUT.read_text(encoding="utf-8")) if OUT.is_file()
              else {"entries": []})
    for label, src in trees.items():
        record["entries"].append({
            "label": label,
            "git_sha": git_sha(src),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "seed": SEED,
            "curve": args.curve,
            "command": f"crashbench {command} {option} {metavar} --quiet",
            "runs": runs[label],
        })
    OUT.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
