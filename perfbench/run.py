"""perfbench: the crashbench batch jobs, timed end to end and layer by layer.

    python3 perfbench/run.py --workload canonical_report --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs installing.  The
harness builds the workload's inputs from the seed in a scratch directory
under the checkout, runs the job through the ``crashbench`` CLI as child
processes, one at a time, checks every output, and prints one JSON
object as its last line of output.

--trace 0 measures the end-to-end metrics (job_s, setup_s, peak_rss_mb,
throughput_per_s).  --trace 1 is the separate traced run: it replays the
job in-process with a span around every layer call and reports the
per-layer metrics, the tracing overhead and the record counts.  See
perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

WORKLOADS = ("canonical_report", "raw_ingest", "published_power")
SETUP_MIN_REPEATS = 3     # set-up is cheap next to a run: repeat it and
SETUP_MIN_SECONDS = 4.0   # report the median, at least this often and long
MIN_TIMED_JOBS = 3
MIN_TRACE_ROUNDS = 3
# Median time of one reference-loop sample (reference_loop on every CPU in
# turn) on the reference host: a 2-vCPU virtual machine at 2.1 GHz,
# Python 3.11.  End-to-end timings are scaled to that host's speed.
REFERENCE_S = 0.21

# Span keys reported as <module>.<function>_s[.<key>].
SPAN_TIMES = (
    "interchange.read_crashes", "interchange.read_vehicles",
    "interchange.write_crashes", "interchange.write_vehicles", "interchange.write_persons",
    "ingest.load_dataset", "ingest.load_crash_source.crss",
    "ingest.load_crash_source.fars_national", "ingest.combine_sources",
    "schema.load_schema",
    "filters.select_subset.surface", "filters.select_subset.all",
    "rates.build_benchmark", "rates.tally_vehicle_counts", "rates.tally_crash_counts",
    "rates.count_crashed_vehicles", "rates.resolve_imputation", "rates.merge_mileage",
    "rates.benchmark_from_aggregates", "rates.garwood_interval", "power.power_table",
    "synth.simulate_power", "synth.generate",
)
LAYERS = ("interchange", "ingest", "schema", "filters", "rates", "power", "synth")
RAW_SOURCES = tuple(spec for spec, _, _ in inputs.RAW_SOURCES)
COUNTS = (
    "ingest.rows_in", "ingest.records_out", "ingest.diagnostics_total",
    "filters.crashes_retained", "filters.vehicles_retained", "filters.units_excluded",
    "power.cells", "synth.trials",
)
MEMORY = ("ingest.load_dataset", "rates.build_benchmark")


def time_metric(span_key: str) -> str:
    module, _, rest = span_key.partition(".")
    fn, _, key = rest.partition(".")
    return f"{module}.{fn}_s" + (f".{key}" if key else "")


def _reference_table() -> str:
    rows = ([str(i), f"C{i % 97:03d}", str(i % 12), f"{(i * 7919) % 10007 / 3:.4f}",
             "URBAN" if i % 3 else "RURAL", str(i % 5), f"name{i % 13}", "2022"]
            for i in range(2000))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


REFERENCE_TABLE = _reference_table()


def reference_loop(repeats: int = 12) -> int:
    """A fixed piece of pure-Python work much like the jobs' own (CSV rows
    parsed into records, tallied in a dict, some written back out).  It
    uses no crashbench code, so only the host's speed changes its time."""
    kept = 0
    for _ in range(repeats):
        counts: dict[tuple, int] = {}
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        for row in csv.reader(io.StringIO(REFERENCE_TABLE)):
            record = {"id": row[0], "vmt": float(row[3]), "severity": int(row[5]),
                      "name": row[6].upper()}
            key = (row[1], row[4], int(row[2]))
            counts[key] = counts.get(key, 0) + record["severity"]
            if record["vmt"] > 1000.0:
                writer.writerow([record["id"], f"{record['vmt']:.2f}", record["name"]])
        kept += len(counts) + len(out.getvalue())
    return kept


class Run:
    """One benchmark run: its scratch directory, child processes and checks."""

    def __init__(self, workload: str, seed: int, size: str) -> None:
        self.workload = workload
        self.seed = seed
        self.size = size
        WORK_DIR.mkdir(exist_ok=True)
        self.work = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir()
        self.inputs = self.work / "inputs"
        self.out = self.work / "out"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
        self.cpus = sorted(os.sched_getaffinity(0))
        self.spawned = 0
        self.jobs_started = 0
        self.reference: list[float] = []

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is still using it

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Count one attempted operation, and a failed one unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")
            print(f"perfbench: check failed: {name}: {detail}", file=sys.stderr)
        return ok

    def calibrate(self) -> None:
        """Time the reference loop once on every CPU in turn."""
        started = time.perf_counter()
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                reference_loop()
        finally:
            os.sched_setaffinity(0, self.cpus)
        self.reference.append(time.perf_counter() - started)

    def child(self, args: list[str], label: str) -> tuple[float, float, str]:
        """Run one Python child to its end: (wall seconds, peak RSS MiB, stdout)."""
        stdout, stderr = self.work / "child.out", self.work / "child.err"
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            started = time.perf_counter()
            proc = self._spawn([sys.executable, *args], stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = self.check(f"child.{label}", proc.returncode == 0,
                        f"exit {proc.returncode}: {stderr.read_text(errors='replace')[-800:]}")
        return wall, usage.ru_maxrss / 1024.0, stdout.read_text() if ok else ""

    def _spawn(self, argv: list[str], **kwargs) -> subprocess.Popen:
        """Start a child on the next CPU in turn, then let it use them all.

        Consecutive children start on different CPUs, and job i starts on
        CPU i mod n, so every run samples each CPU alike: on a shared host
        one CPU can run a third slower than the other for minutes.  The
        child keeps every CPU it may use.
        """
        cpu = self.cpus[self.spawned % len(self.cpus)]
        self.spawned += 1
        os.sched_setaffinity(0, {cpu})
        try:
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, **kwargs)
        finally:
            os.sched_setaffinity(0, self.cpus)
        try:
            os.sched_setaffinity(proc.pid, self.cpus)
        except ProcessLookupError:
            pass  # already finished
        return proc

    def cli(self, *args: str, label: str) -> tuple[float, float]:
        wall, rss, _ = self.child(["-m", "crashbench.cli", *args], label)
        return wall, rss

    def setup(self, repeats: int, seconds: float = 0.0) -> tuple[list[float], dict, list]:
        """Build the inputs at least ``repeats`` times and for ``seconds``.
        Every build from the seed must give the same bytes."""
        walls, digests, spans = [], [], []
        started = time.perf_counter()
        while len(walls) < repeats or time.perf_counter() - started < seconds:
            shutil.rmtree(self.inputs, ignore_errors=True)
            self.calibrate()
            wall, _, text = self.child(
                [str(HERE / "inputs.py"), self.workload, "--seed", str(self.seed),
                 "--out", str(self.inputs), "--size", self.size], "setup")
            walls.append(wall)
            digests.append(_digest_dir(self.inputs))
            spans = json.loads(text)["spans"] if text else []
        self.check("setup.repeatable", len(set(digests)) == 1,
                   "inputs differ between builds from one seed")
        summary = json.loads((self.inputs / "inputs.json").read_text())
        return walls, summary, spans

    def job(self) -> dict:
        """Run the workload's job once: wall time, peak RSS, output digest."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.spawned = self.jobs_started
        self.jobs_started += 1
        if self.workload == "published_power":
            wall, rss = self.cli("report", "--aggregates", "2022", "--out", str(self.out),
                                 "--quiet", label="report")
            mc_wall, mc_rss, text = self.child(
                [str(HERE / "mc.py"), str(self.out / "power.csv"),
                 str(self.inputs / "mc_plan.json")], "mc")
            mc = json.loads(text) if text else {"cells": None, "trials": 0}
            return {"wall": wall + mc_wall, "rss": max(rss, mc_rss), "mc": mc,
                    "outputs": _digest_dir(self.out)}
        command = "report" if self.workload == "canonical_report" else "ingest"
        wall, rss = self.cli(command, "--manifest", str(self.inputs / "manifest.json"),
                             "--out", str(self.out), "--quiet", label=command)
        return {"wall": wall, "rss": rss, "outputs": _digest_dir(self.out)}

    def repeat_job(self, warm: dict) -> dict:
        """A timed job, whose outputs must equal the warm-up job's."""
        self.calibrate()
        result = self.job()
        self.check("job.outputs_repeat", result["outputs"] == warm["outputs"],
                   "outputs differ from the warm-up job's")
        if "mc" in result:
            self.check("mc.repeats", result["mc"]["cells"] == warm["mc"]["cells"],
                       "simulate_power differs for the same seed")
        return result

    def output_checks(self, summary: dict, warm: dict) -> None:
        """Workload-specific checks of the warm-up job's outputs."""
        import checks

        try:
            if self.workload == "canonical_report":
                triples = checks.canonical_report(self.out, self.seed, self.size)
            elif self.workload == "raw_ingest":
                out_1x = self.work / "out_1x"
                self.cli("ingest", "--manifest",
                         str(ROOT / "tests" / "fixtures" / "manifests" / "national_2022.json"),
                         "--out", str(out_1x), "--quiet", label="ingest_1x")
                triples = (checks.raw_golden(out_1x)
                           + checks.raw_replicated(self.out, out_1x, summary["replicas"]))
            else:
                from replay import DEFAULT_RELATIVE_RATES

                triples = checks.power_table(self.out, DEFAULT_RELATIVE_RATES,
                                             warm["mc"]["cells"])
        except (OSError, ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
            # A missing or malformed output file: the job failed its checks.
            triples = [("outputs.readable", False, repr(exc))]
        for name, ok, detail in triples:
            self.check(name, ok, detail)

    def replay(self, mode: str) -> dict:
        _, _, text = self.child(
            [str(HERE / "replay.py"), self.workload, str(self.inputs),
             str(self.work / f"replay_{mode}"), mode], f"replay_{mode}")
        return json.loads(text) if text else {"replay_s": float("nan"), "counts": {},
                                              "spans": [], "peaks_mb": {}}


def _digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for file in sorted(path.rglob("*")):
        if file.is_file():
            h.update(file.relative_to(path).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(file.read_bytes()).digest())
    return h.hexdigest()


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _git_sha() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    """Interpreter, CPUs, commit and size of the program under test."""
    import crashbench

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in (SRC / "crashbench").glob("*.py")),
        "public_names": len(crashbench.__all__),
    }


# ---------------------------------------------------------------------------
# The two kinds of run


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Set-up repeated, a checked warm-up job, then timed jobs for ``seconds``.

    The reference loop runs before every set-up and every timed job.  Each
    timing is reported as its median times REFERENCE_S over the reference
    loop's median in the run: seconds on the reference host.  A host that
    runs slower for minutes slows the jobs and the loop alike, and the
    ratio stays; a faster program lowers the ratio in full.
    """
    setup_walls, summary, _ = run.setup(SETUP_MIN_REPEATS, SETUP_MIN_SECONDS)
    warm = run.job()
    run.output_checks(summary, warm)
    timed: list[dict] = []
    started = time.perf_counter()
    while len(timed) < MIN_TIMED_JOBS or time.perf_counter() - started < seconds:
        timed.append(run.repeat_job(warm))

    reference = quartiles(run.reference)
    scale = REFERENCE_S / reference["median"]
    job = quartiles([j["wall"] * scale for j in timed])
    if run.workload == "published_power":
        work_name = "mc_trials_per_s"
        work = quartiles([j["mc"]["trials"] / (j["wall"] * scale) for j in timed])
    else:
        work_name = "rows_per_s"
        rows = sum(summary["rows"].values())
        work = quartiles([rows / (j["wall"] * scale) for j in timed])
    setup = quartiles([w * scale for w in setup_walls])
    rss = max(j["rss"] for j in [warm, *timed])
    detail = {"job_s": job, "setup_s": setup, work_name: work, "peak_rss_mb": rss,
              "reference_s": reference, "speed_scale": scale,
              "job_wall_s": quartiles([j["wall"] for j in timed]),
              "setup_wall_s": quartiles(setup_walls),
              "job_samples": [j["wall"] for j in timed], "setup_samples": setup_walls,
              "reference_samples": run.reference}
    if run.workload == "published_power":
        detail["mc_power"] = [cell[1:] for cell in warm["mc"]["cells"] or []]
    metrics = {
        "job_s": (job["median"], "s"),
        "setup_s": (setup["median"], "s"),
        "peak_rss_mb": (rss, "MiB"),
        "throughput_per_s": (work["median"], "1/s"),
    }
    return metrics, detail


def traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from replays of the job in fresh interpreters.

    Each round runs the job, ``crashbench --version``, the untraced replay
    and the traced replay back to back, so that differences between them
    are taken within a round.  A memory pass under tracemalloc follows.
    """
    from spans import totals, with_self_time

    _, summary, setup_spans = run.setup(1)
    warm = run.job()
    run.output_checks(summary, warm)
    rounds: list[dict] = []
    started = time.perf_counter()
    while len(rounds) < MIN_TRACE_ROUNDS or time.perf_counter() - started < seconds:
        job = run.repeat_job(warm)["wall"]
        start = run.cli("--version", label="version")[0]
        cpu_turn = run.spawned
        null = run.replay("null")
        run.spawned = cpu_turn  # both replays of a round start on one CPU
        rounds.append({"job": job, "start": start, "null": null,
                       "spans": run.replay("spans")})
    memory = run.replay("memory") if run.workload != "published_power" else None

    counts = [r[mode]["counts"] for r in rounds for mode in ("null", "spans")]
    run.check("replay.counts_repeat", all(c == counts[0] for c in counts),
              "record counts differ between replays")
    per_round = [totals(r["spans"]["spans"]) for r in rounds]
    setup_totals = totals(setup_spans)

    def span_sum(key: str, field: str) -> float:
        """Median over rounds of a span key's total, plus its set-up share."""
        return (statistics.median(t.get(key, {}).get(field, 0.0) for t in per_round)
                + setup_totals.get(key, {}).get(field, 0.0))

    def layer_self(layer: str) -> float:
        def of(t: dict) -> float:
            return sum(v["self"] for k, v in t.items() if k.startswith(layer + "."))
        return statistics.median(of(t) for t in per_round) + of(setup_totals)

    children = 2 if run.workload == "published_power" else 1
    metrics: dict[str, tuple[float, str]] = {}
    for key in SPAN_TIMES:
        metrics[time_metric(key)] = (span_sum(key, "duration"), "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self(layer), "s")
    for source in RAW_SOURCES:
        key = f"ingest.load_crash_source.{source}"
        secs = span_sum(key, "duration")
        metrics[f"ingest.raw_rows_per_s.{source}"] = (
            span_sum(key, "rows") / secs if secs else 0.0, "1/s")
    sim_s = metrics["synth.simulate_power_s"][0]
    metrics["synth.trials_per_s"] = (
        counts[0].get("synth.trials", 0) / sim_s if sim_s else 0.0, "1/s")
    gen_s = metrics["synth.generate_s"][0]
    metrics["synth.crashes_per_s"] = (
        summary["rows"]["crashes"] / gen_s if gen_s else 0.0, "1/s")
    metrics["cli.start_s"] = (statistics.median(r["start"] for r in rounds), "s")
    metrics["cli.unaccounted_s"] = (statistics.median(
        r["job"] - children * r["start"] - r["null"]["replay_s"] for r in rounds), "s")
    metrics["trace.replay_s"] = (statistics.median(r["null"]["replay_s"] for r in rounds), "s")
    metrics["trace.overhead_s"] = (statistics.median(
        r["spans"]["replay_s"] - r["null"]["replay_s"] for r in rounds), "s")
    metrics["trace.spans"] = (len(rounds[0]["spans"]["spans"]), "count")
    replay_s = span_sum("replay", "duration")
    filters_rates = metrics["filters.self_s"][0] + metrics["rates.self_s"][0]
    load_sources = sum(span_sum(f"ingest.load_crash_source.{s}", "duration")
                       for s in RAW_SOURCES)
    metrics["trace.filters_rates_self_share"] = (filters_rates / replay_s, "fraction")
    metrics["trace.load_crash_source_share"] = (load_sources / replay_s, "fraction")
    for key in MEMORY:
        metrics[f"{key}_peak_mb"] = (memory["peaks_mb"].get(key, 0.0) if memory else 0.0,
                                     "MiB")
    for key in COUNTS:
        metrics[key] = (counts[0].get(key, 0), "count")
    env = environment()
    metrics["size.src_lines"] = (env["src_lines"], "count")
    metrics["size.public_names"] = (env["public_names"], "count")

    trace = {
        "workload": run.workload, "seed": run.seed,
        "setup_spans": with_self_time(setup_spans),
        "rounds": [{"job_s": r["job"], "start_s": r["start"],
                    "null_replay_s": r["null"]["replay_s"],
                    "spans_replay_s": r["spans"]["replay_s"],
                    "spans": with_self_time(r["spans"]["spans"])} for r in rounds],
        "memory_peaks_mb": memory["peaks_mb"] if memory else {},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{run.workload}-seed{run.seed}.json").write_text(
        json.dumps(trace, indent=1) + "\n")
    detail = {"rounds": len(rounds), "job_samples": [r["job"] for r in rounds]}
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input size; smoke is for the harness's own test")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: the running child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in (SRC / "crashbench" / "__init__.py",
                           ROOT / "tests" / "fixtures" / "golden") if not p.exists()]
    if missing:
        print(f"perfbench: not a crashbench checkout, missing {missing[0]}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed, args.size)
    try:
        metrics, detail = (traced if args.trace else end_to_end)(run, args.seconds)
    finally:
        run.close()

    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "environment": env, "detail": detail, "attempted": run.attempted,
                    "failed": run.failed, "failures": run.failures}, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} python={env['python']} nproc={env['nproc']} "
          f"git={env['git_sha']} src_lines={env['src_lines']} "
          f"public_names={env['public_names']}")
    for name, stats in detail.items():
        if isinstance(stats, dict):
            print(f"# {name}: median {stats['median']:.6g} "
                  f"(q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']})")
    if "peak_rss_mb" in detail:
        print(f"# peak_rss_mb: {detail['peak_rss_mb']:.6g}")
        print(f"# speed_scale: {detail['speed_scale']:.6g} (job_s, setup_s and the "
              f"throughput are in reference-host seconds; *_wall_s as measured)")
    by_rate: dict[float, list[str]] = {}
    for _, r, _, power in detail.get("mc_power", []):
        by_rate.setdefault(r, []).append(f"{power:.3f}")
    for r, powers in by_rate.items():
        print(f"# simulated power at r={r:g} (reported, not gated): {' '.join(powers)}")
    print(f"# failed_ops: {run.failed} of {run.attempted} attempted")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
