"""Reproduction gates against the published 2022/2021 benchmark compilation.

One test per criterion; each prints a single "criterion N: PASS/FAIL"
line (run with -s or -rA to see them all).  Printed reference values are
rounded, so value comparisons allow the larger of 0.5% of the printed
value and half a unit in its last printed digit.
"""

import csv
import math
import time

import pytest

from crashbench.cli import main
from crashbench.filters import select_subset
from crashbench.ingest import load_dataset
from crashbench.interchange import load_manifest
from crashbench.model import BLANCO, BLINCOE, UNADJUSTED, SeverityLevel
from crashbench.power import PowerQuery, required_vmt
from crashbench.rates import (
    SeverityCounts,
    apply_adjustment,
    benchmark_from_aggregates,
    build_benchmark,
    count_crashed_vehicles,
    load_aggregates,
    resolve_imputation,
    tally_crash_counts,
    _weighted_totals,
)
from crashbench.synth import brute_force_tally, generate, simulate_power
from test_synth import population

S = SeverityLevel
NATIONAL_SURFACE_MMI = 2140140.0

# The five published national surface-street numerators the sample-size
# table is built from, with the table's printed cells per fictive
# relative rate column.
RELATIVE_RATE_COLUMNS = (0.01, 0.10, 0.25, 0.50, 0.75, 1.25, 1.50)
SAMPLE_SIZE_TABLE = (
    ("blanco_apdi", 42432501.0,
     ("0.2", "0.3", "0.5", "1.3", "5.8", "6.8", "1.8")),
    ("police", 8768951.0,
     ("1.0", "1.5", "2.5", "6.4", "28.2", "32.9", "8.7")),
    ("blincoe_injury", 3774625.0,
     ("2.4", "3.5", "5.7", "14.8", "65.6", "76.3", "20.3")),
    ("serious_plus", 232430.0,
     ("39.3", "56.3", "92.8", "240.4", "1065.1", "1239.8", "329.4")),
    ("fatal", 38507.0,
     ("236.9", "340.0", "560.0", "1451.3", "6429.0", "7483.3", "1988.5")),
)

# Published per-region rate cells: (severity, scheme) -> printed strings
# for national / Maricopa / San Francisco / Los Angeles.  Fatal cells
# are per billion miles, everything else per million.
RATE_TABLE = {
    (S.ANY_PROPERTY_DAMAGE_OR_INJURY, "blincoe"): ("8.94", "9.43", "10.49", "6.84"),
    (S.ANY_PROPERTY_DAMAGE_OR_INJURY, "blanco"): ("19.8", "21.0", "17.6", "13.8"),
    (S.POLICE_REPORTED, "unadjusted"): ("4.10", "4.31", "5.86", "3.39"),
    (S.ANY_INJURY_REPORTED, "unadjusted"): ("1.21", "1.24", "3.98", "1.54"),
    (S.ANY_INJURY_REPORTED, "blincoe"): ("1.76", "1.81", "5.82", "2.26"),
    (S.TOW_AWAY, "unadjusted"): ("1.78", "2.04", "2.73", "1.55"),
    (S.AIRBAG_DEPLOYED, "unadjusted"): ("0.97", "1.32", "1.79", "1.17"),
    (S.SUSPECTED_SERIOUS_INJURY_PLUS, "unadjusted"): ("0.11", "0.10", "0.31", "0.15"),
    (S.FATAL, "unadjusted"): ("18.0", "24.2", "39.5", "23.5"),
}
REGION_ORDER = ("national", "Maricopa", "San Francisco", "Los Angeles")

# Published all-roads intermediate rates: any-vehicle then passenger.
INTERMEDIATE_RATES = {
    "national": ("3.29", "3.43"),
    "Maricopa": ("3.91", "3.93"),
    "San Francisco": ("4.24", "4.39"),
    "Los Angeles": ("2.63", "2.81"),
}


def verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def within_print(computed, printed: str):
    value = float(printed)
    decimals = len(printed.split(".")[1]) if "." in printed else 0
    half_unit = 0.5 * 10.0 ** -decimals
    return abs(computed - value) <= max(0.005 * value, half_unit + 1e-9)


@pytest.fixture(scope="module")
def aggregate_reports():
    return {
        agg.region.name: benchmark_from_aggregates(agg)
        for agg in load_aggregates("2022")
    }


def test_criterion_1_sample_size_table(tmp_path, capsys):
    argv = ["power", "--out", str(tmp_path), "--quiet", "--format", "csv"]
    for label, numerator, _ in SAMPLE_SIZE_TABLE:
        argv += ["--rate", f"{label}={numerator / NATIONAL_SURFACE_MMI!r}"]
    started = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    assert code == 0

    with open(tmp_path / "power.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    by_label = {row[0]: row[2:] for row in rows[1:]}
    misses = []
    for label, _, printed_cells in SAMPLE_SIZE_TABLE:
        for column, printed in zip(RELATIVE_RATE_COLUMNS, printed_cells):
            computed = float(by_label[label][RELATIVE_RATE_COLUMNS.index(column)])
            if not within_print(computed, printed):
                misses.append(f"{label}/{column:g} computed {computed:.4g} printed {printed}")
    verdict(1, not misses and elapsed < 1.0,
            f"35 required-mileage cells, {len(misses)} outside tolerance, "
            f"computed in {elapsed:.3f}s" + ("; " + "; ".join(misses) if misses else ""))


def test_criterion_2_adjusted_totals():
    targets = {
        "2022": (19122761.0, 42432501.0, 3774625.0),
        "2021": (19822830.0, 43946719.0, 3938741.0),
    }
    misses = []
    for year, (blincoe_apdi, blanco_apdi, blincoe_injury) in targets.items():
        counts = next(
            a for a in load_aggregates(year) if a.region.kind == "national"
        ).counts
        checks = (
            (apply_adjustment(counts, BLINCOE), blincoe_apdi, 0.001),
            (apply_adjustment(counts, BLANCO), blanco_apdi, 0.001),
            (apply_adjustment(counts, BLINCOE, S.ANY_INJURY_REPORTED),
             blincoe_injury, 0.002),
        )
        for computed, target, tolerance in checks:
            if abs(computed - target) / target > tolerance:
                misses.append(f"{year}: computed {computed:,.0f} target {target:,.0f}")
    verdict(2, not misses,
            "adjusted any-property-damage and any-injury totals within "
            "0.1%/0.1%/0.2% for 2022 and 2021"
            + ("; " + "; ".join(misses) if misses else ""))


def test_criterion_3_rate_table(aggregate_reports):
    national = {(r.severity, r.adjustment): r
                for r in aggregate_reports["national"].rows}
    sf = {(r.severity, r.adjustment): r
          for r in aggregate_reports["San Francisco"].rows}
    exact = (
        national[(S.POLICE_REPORTED, "unadjusted")].display == "4.10 IPMM"
        and national[(S.FATAL, "unadjusted")].display == "18.0 IPBM"
        and sf[(S.ANY_INJURY_REPORTED, "blincoe")].display == "5.82 IPMM"
    )
    misses = []
    for agg in load_aggregates("2022"):
        name = agg.region.name
        rows = {(r.severity, r.adjustment): r for r in aggregate_reports[name].rows}
        for (severity, scheme), printed_cells in RATE_TABLE.items():
            printed = printed_cells[REGION_ORDER.index(name)]
            rate = rows[(severity, scheme)].rate_ipmm
            if severity is S.FATAL:
                rate *= 1000.0
            if not within_print(rate, printed):
                misses.append(f"{name}/{severity.value}/{scheme}")
        any_printed, passenger_printed = INTERMEDIATE_RATES[name]
        if not within_print(
                agg.vehicles_all_roads / agg.mileage_all_roads_mmi, any_printed):
            misses.append(f"{name}/all-vehicle intermediate")
        if not within_print(
                agg.vehicles_all_roads_passenger
                / agg.mileage_all_roads_passenger_mmi, passenger_printed):
            misses.append(f"{name}/passenger intermediate")
    verdict(3, exact and not misses,
            "3 displayed rates exact, 44 table cells to printed precision"
            + ("" if exact else "; display strings drifted")
            + ("; " + "; ".join(misses) if misses else ""))


def test_criterion_4_vehicle_vs_crash_level(aggregate_reports, fixtures):
    ratio = aggregate_reports["national"].vehicles_per_crash
    ratio_ok = (ratio == pytest.approx(10528849.0 / 5930496.0, rel=1e-12)
                and abs((ratio - 1.0) - 0.78) <= 0.01)

    manifest, = load_manifest(fixtures / "manifests" / "town_2022.json")
    town = build_benchmark(load_dataset(manifest))
    police = next(r for r in town.rows
                  if r.severity is S.POLICE_REPORTED and r.adjustment == "unadjusted")
    town_ok = (police.rate_ipmm == 250.0
               and police.rate_ipmm / 1e6 == 1.0 / 4000.0)
    verdict(4, ratio_ok and town_ok,
            f"national vehicle-to-crash ratio {ratio:.3f} reproduces the 78% "
            f"claim within 1pp; town fixture rate is exactly one per 4,000 miles")


def test_criterion_5_pdo_shares(aggregate_reports):
    quoted = {"national": 0.71, "Maricopa": 0.72,
              "Los Angeles": 0.52, "San Francisco": 0.33}
    misses = []
    for name, target in quoted.items():
        share = aggregate_reports[name].pdo_share_vehicle
        if share is None or abs(share - target) > 0.03:
            misses.append(f"{name} share {share} vs {target}")
    verdict(5, not misses,
            "property-damage-only shares within 3pp of the quoted "
            "71/72/52/33% for national/Maricopa/LA/SF"
            + ("; " + "; ".join(misses) if misses else ""))


def test_criterion_6_property_battery(fixtures):
    started = time.perf_counter()
    problems = []

    # Oracle equivalence, 100 seeded populations; integer-weight halves
    # must agree exactly, real-weight halves to 1e-9 relative.
    oracle_failures = 0
    for seed in range(100):
        exact = seed < 50
        spec = population(
            seed, weights="integer" if exact else "real",
            max_multiplicity=2 if exact else 3)
        crashes, vehicles, truth = generate(spec)
        subset = select_subset(crashes, vehicles, road="all")
        counts = tally_crash_counts(subset)
        surface = select_subset(crashes, vehicles, road="surface")
        w = resolve_imputation(surface, spec.region).w

        def agree(a, b):
            return a == b if exact else a == pytest.approx(b, rel=1e-9)

        ok = all(
            agree(counts.get(level), truth.severity_count(level))
            and agree(counts.get(level),
                      brute_force_tally(crashes, vehicles, "crash_count",
                                        severity=level, road="all"))
            for level, _ in truth.crashes_by_severity
        )
        ok = ok and agree(
            count_crashed_vehicles(surface, S.POLICE_REPORTED, w),
            brute_force_tally(crashes, vehicles, "vehicle_count",
                              severity=S.POLICE_REPORTED, road="surface", w=w))
        ok = ok and agree(w, brute_force_tally(crashes, vehicles,
                                               "imputation_weight", road="surface"))
        crashes_all, vehicles_all = _weighted_totals(subset)
        ok = ok and agree(vehicles_all / crashes_all,
                          brute_force_tally(crashes, vehicles, "ratio"))
        # Chain monotonicity on every synthetic population.
        ok = ok and (counts.police_reported >= counts.any_injury_reported
                     >= counts.suspected_serious_injury_plus >= counts.fatal)
        if not ok:
            oracle_failures += 1
    if oracle_failures:
        problems.append(f"oracle equivalence failed on {oracle_failures}/100 seeds")

    # Chain monotonicity on every shipped dataset fixture.
    for name in ("national_2022", "maricopa_2022", "sf_2022", "la_2022",
                 "town_2022"):
        manifest, = load_manifest(fixtures / "manifests" / f"{name}.json")
        report = build_benchmark(load_dataset(manifest))
        c = report.vehicle_counts
        if not (c.police_reported >= c.any_injury_reported
                >= c.suspected_serious_injury_plus >= c.fatal
                and c.tow_away <= c.police_reported
                and c.airbag_deployed <= c.police_reported):
            problems.append(f"severity chain broken on {name}")

    # Adjustment identity and linearity.
    a = SeverityCounts(police_reported=10.0, any_injury_reported=4.0,
                       tow_away=5.0, airbag_deployed=2.0,
                       suspected_serious_injury_plus=1.0, fatal=0.5)
    b = SeverityCounts(police_reported=7.0, any_injury_reported=3.0,
                       tow_away=1.0, airbag_deployed=1.0,
                       suspected_serious_injury_plus=2.0, fatal=1.0)
    summed = SeverityCounts(police_reported=17.0, any_injury_reported=7.0,
                            tow_away=6.0, airbag_deployed=3.0,
                            suspected_serious_injury_plus=3.0, fatal=1.5)
    identity = all(
        apply_adjustment(a, UNADJUSTED, level) == a.get(level)
        for level in (S.POLICE_REPORTED, S.ANY_INJURY_REPORTED, S.TOW_AWAY,
                      S.AIRBAG_DEPLOYED, S.SUSPECTED_SERIOUS_INJURY_PLUS,
                      S.FATAL))
    linear = all(
        apply_adjustment(summed, scheme, level) == pytest.approx(
            apply_adjustment(a, scheme, level) + apply_adjustment(b, scheme, level),
            rel=1e-12)
        for scheme in (BLINCOE, BLANCO)
        for level in (S.ANY_PROPERTY_DAMAGE_OR_INJURY, S.ANY_INJURY_REPORTED))
    if not (identity and linear):
        problems.append("adjustment identity/linearity broken")

    # Exposure scale law, exact under power-of-two rate scaling.
    base = required_vmt(PowerQuery(1.0, 0.5))
    scale_exact = all(
        required_vmt(PowerQuery(k, 0.5)) == base / k for k in (2.0, 4.0, 0.5, 0.25))
    rate_free = all(
        required_vmt(PowerQuery(lam, r)) * lam
        == pytest.approx(required_vmt(PowerQuery(1.0, r)), rel=1e-12)
        for lam in (0.017993, 4.0974, 19.827) for r in (0.25, 0.5, 1.5))
    if not (scale_exact and rate_free):
        problems.append("required-exposure scale law broken")

    # Monte Carlo power at the computed exposure for every table row at
    # the designated relative rates, 20,000 trials each.
    in_band, out_cells = 0, []
    seed = 0
    for label, numerator, _ in SAMPLE_SIZE_TABLE:
        lam = numerator / NATIONAL_SURFACE_MMI
        for r in (0.25, 0.5, 1.5):
            t = required_vmt(PowerQuery(lam, r))
            power = simulate_power(lam, r, t, n_trials=20000, seed=seed)
            seed += 1
            if 0.76 <= power <= 0.84:
                in_band += 1
            else:
                out_cells.append(f"{label}/r={r:g} power {power:.3f}")
    if out_cells:
        problems.append(
            f"Monte Carlo power outside [0.76, 0.84] for {len(out_cells)}/15 "
            "cells: " + ", ".join(out_cells))

    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        problems.append(f"battery took {elapsed:.1f}s")
    verdict(6, not problems,
            f"oracle/chain/adjustment/scale-law/Monte-Carlo battery in "
            f"{elapsed:.1f}s" + ("; " + "; ".join(problems) if problems else ""))


def test_criterion_7_ingestion_goldens(tmp_path, capsys, fixtures):
    names = ("national_2022", "maricopa_2022", "sf_2022", "la_2022")
    drifted = []
    for name in names:
        out = tmp_path / name
        code = main(["ingest", "--manifest",
                     str(fixtures / "manifests" / f"{name}.json"),
                     "--out", str(out), "--quiet"])
        capsys.readouterr()
        if code != 0:
            drifted.append(f"{name} exit {code}")
            continue
        for file_name in ("crashes.csv", "vehicles.csv", "persons.csv",
                          "mileage.csv"):
            golden = fixtures / "golden" / name / file_name
            if (out / file_name).read_bytes() != golden.read_bytes():
                drifted.append(f"{name}/{file_name}")

    # Road-coding spot checks live inside the goldens themselves: the
    # named-street 35 mph crash classifies as surface, the state-highway
    # patrol beat as excluded.
    maricopa = (fixtures / "golden" / "maricopa_2022" / "crashes.csv").read_text()
    sf = (fixtures / "golden" / "sf_2022" / "crashes.csv").read_text()
    spots = ("A001,adot,Maricopa,AZ,2022,surface_street" in maricopa
             and "S002,switrs,San Francisco,CA,2022,excluded_highway" in sf)
    if not spots:
        drifted.append("road-code spot rows missing from goldens")
    verdict(7, not drifted,
            "16 canonical files byte-identical to goldens; road-code spot "
            "checks hold" + ("; " + "; ".join(drifted) if drifted else ""))
