"""The memory a ``crashbench`` command's processes hold at once.

    python3 tools/tree_memory.py --tree parent=../parent/src --tree change=src \\
        ingest --manifest .scale_work/raw_ingest-seed1-n1000000/manifest.json

Runs ``crashbench COMMAND ARGS... --out DIR --quiet`` in a child process
for each ``--tree LABEL=SRC``, ``--repeats`` times (default 2), the tree
that goes first alternating.  Every 10 ms until the child exits it reads,
for the child and every process under it, the proportional set size
(``Pss`` in ``/proc/PID/smaps_rollup``: a page shared after a fork counts
a share in each process that maps it) and the resident size (``VmRSS``).
It prints one JSON line per run: the largest sum of each over the
processes alive at one sample, the largest resident size of one process
(what ``ru_maxrss`` and perfbench's ``peak_rss_mb`` report), the most
processes seen at once, and the wall time.  A peak shorter than the
interval can be missed, so each figure is a floor.  Sampling costs CPU,
so the wall times are not the scale curve's.  Linux only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path


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


def measure(src: Path, argv: list[str]) -> dict:
    """One run of ``crashbench argv`` from ``src``: peaks in MiB."""
    peaks = {"tree_pss_mb": 0, "tree_rss_mb": 0, "one_rss_mb": 0, "processes": 0}
    with tempfile.TemporaryDirectory() as out:
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
        started = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "crashbench.cli", *argv,
                                  "--out", out, "--quiet"], env=env)
        while child.poll() is None:
            sizes = [(_kib(f"/proc/{pid}/smaps_rollup", "Pss:"),
                      _kib(f"/proc/{pid}/status", "VmRSS:"))
                     for pid in _processes(child.pid)]
            sizes = [(pss, rss) for pss, rss in sizes if pss is not None and rss is not None]
            if sizes:
                peaks["tree_pss_mb"] = max(peaks["tree_pss_mb"], sum(p for p, _ in sizes))
                peaks["tree_rss_mb"] = max(peaks["tree_rss_mb"], sum(r for _, r in sizes))
                peaks["one_rss_mb"] = max(peaks["one_rss_mb"], max(r for _, r in sizes))
                peaks["processes"] = max(peaks["processes"], len(sizes))
            time.sleep(0.01)
        wall = time.perf_counter() - started
    if child.returncode != 0:
        raise SystemExit(f"crashbench {' '.join(argv)} exited {child.returncode}")
    return {**{key: (round(value / 1024, 1) if key.endswith("_mb") else value)
               for key, value in peaks.items()}, "wall_s": round(wall, 2)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC",
                        help="a source tree to run; repeat to compare trees "
                             "(default change=src)")
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the crashbench command and its arguments, without --out")
    args = parser.parse_args(argv)
    trees = [value.partition("=")[::2] for value in args.tree or ["change=src"]]
    for repeat in range(args.repeats):
        for label, src in (trees if repeat % 2 == 0 else trees[::-1]):
            result = measure(Path(src).resolve(), args.command)
            print(json.dumps({"tree": label, "command": args.command, **result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
