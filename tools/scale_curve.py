"""Scale curves of ``crashbench report`` and ``crashbench ingest``.

    python3 tools/scale_curve.py --label change
    python3 tools/scale_curve.py --label parent --src ../parent/src
    python3 tools/scale_curve.py --label change --curve ingest

The report curve runs ``crashbench report --manifest M`` in a child
process on perfbench's canonical_report population
(``perfbench/inputs.py``) at 10^4, 10^5 and 10^6 crashes.  The ingest
curve runs ``crashbench ingest --manifest M`` on perfbench's raw_ingest
inputs (the national CRSS and FARS fixtures replicated with seeded crash
ids), with the replica count scaled to about 10^4, 10^5 and 10^6 raw
crash rows.  Each appends one entry to ``BENCH_scale.json``: each run's
wall time and the child's peak RSS, with the Python version, CPU count
and git SHA of the measured source tree.  ``--src`` measures another
checkout's ``src`` directory against the same inputs.  Each size runs
three times, on seed 1.

It is not a gate and sets no bound; it records a trajectory that later
changes append to.  The inputs are built once per curve, seed and size
and kept under ``.scale_work/`` (building 10^6 crashes takes about a
minute and 0.75 GiB); the same seed gives the same bytes.  Run it from
the root of a source checkout on an otherwise idle host.
"""

from __future__ import annotations

import argparse
import csv
import json
import multiprocessing
import os
import platform
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
# Curve (the command it times) -> the perfbench workload whose inputs it reads.
CURVES = {"report": "canonical_report", "ingest": "raw_ingest"}


def build_inputs(curve: str, seed: int, n_crashes: int) -> Path:
    """The curve's inputs at ``n_crashes``, built on first use in a fresh
    process: a child's peak RSS counts the resident size of the process
    that starts it, so this one must stay small."""
    workload = CURVES[curve]
    out = WORK_DIR / f"{workload}-seed{seed}-n{n_crashes}"
    if not (out / "manifest.json").is_file():
        proc = multiprocessing.get_context("spawn").Process(
            target=_build, args=(workload, seed, n_crashes, out))
        proc.start()
        proc.join()
        if proc.exitcode != 0:
            raise SystemExit(f"building {out.name} failed")
    return out


def _build(workload: str, seed: int, n_crashes: int, out: Path) -> None:
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
    partial = out.with_name(out.name + ".partial")
    shutil.rmtree(partial, ignore_errors=True)
    partial.mkdir(parents=True)
    summary = inputs.BUILDERS[workload](partial, seed, size, NullRecorder())
    (partial / "inputs.json").write_text(json.dumps(summary, sort_keys=True) + "\n")
    partial.rename(out)


def _data_rows(path: Path) -> int:
    """Rows below the header of one raw fixture."""
    with open(path, newline="", encoding="utf-8") as handle:
        return sum(1 for row in csv.reader(handle) if row) - 1


def run_cli(src: Path, command: str, manifest: Path, out: Path) -> tuple[float, float]:
    """Wall seconds and peak RSS (MiB) of one ``command`` child."""
    shutil.rmtree(out, ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "crashbench.cli", command, "--manifest", str(manifest),
         "--out", str(out), "--quiet"], env=env, stderr=subprocess.PIPE)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{command} failed on {manifest}: {proc.stderr.read().decode()}")
    proc.stderr.close()
    return wall, usage.ru_maxrss / 1024.0


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of this entry")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to measure (default this checkout's src)")
    parser.add_argument("--curve", choices=sorted(CURVES), default="report",
                        help="the command to time (default report)")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    runs = []
    for n_crashes in SIZES:
        inputs_dir = build_inputs(args.curve, SEED, n_crashes)
        summary = json.loads((inputs_dir / "inputs.json").read_text(encoding="utf-8"))
        samples = [run_cli(src, args.curve, inputs_dir / "manifest.json", WORK_DIR / "out")
                   for _ in range(REPEATS)]
        runs.append({
            "n_crashes": n_crashes,
            "crash_rows": summary["rows"]["crashes"],
            "wall_s": [round(wall, 3) for wall, _ in samples],
            "peak_rss_mib": [round(rss, 1) for _, rss in samples],
            "median_wall_s": round(statistics.median(w for w, _ in samples), 3),
            "median_peak_rss_mib": round(statistics.median(r for _, r in samples), 1),
        })
        print(f"{args.label}: {n_crashes} crashes: {runs[-1]['median_wall_s']} s, "
              f"{runs[-1]['median_peak_rss_mib']} MiB", file=sys.stderr)
    shutil.rmtree(WORK_DIR / "out", ignore_errors=True)

    entry = {
        "label": args.label,
        "git_sha": git_sha(src),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seed": SEED,
        "curve": args.curve,
        "command": f"crashbench {args.curve} --manifest M --quiet",
        "runs": runs,
    }
    record = (json.loads(OUT.read_text(encoding="utf-8")) if OUT.is_file()
              else {"entries": []})
    record["entries"].append(entry)
    OUT.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
