"""Counting, adjustment, mileage merging, and report assembly."""

import dataclasses
import math
import random

import pytest

from crashbench.errors import UndefinedStatistic, ValidationError
from crashbench.filters import select_subset
from crashbench.ingest import combine_sources, load_crash_source, load_dataset
from crashbench.interchange import load_manifest
from crashbench.model import (
    BLANCO,
    BLINCOE,
    BodyClass,
    CrashEvent,
    Kabco,
    OBSERVED_LEVELS,
    Region,
    RoadClass,
    SeverityLevel,
    UNADJUSTED,
    VehicleInvolvement,
)
from crashbench.rates import (
    SeverityCounts,
    apply_adjustment,
    benchmark_from_aggregates,
    build_benchmark,
    compute_rate,
    count_crashed_vehicles,
    crash_vs_vehicle_ratio,
    garwood_interval,
    load_aggregates,
    merge_mileage,
    pdo_share,
    resolve_imputation,
    tally_crash_counts,
    tally_vehicle_counts,
)
from crashbench.schema import load_schema
from crashbench.synth import PopulationSpec, generate

NATIONAL = Region.national()
APPROX = dict(rel=1e-12)


def counts(police=10.0, injury=4.0, tow=5.0, airbag=2.0, serious=1.0, fatal=0.5):
    return SeverityCounts(
        police_reported=police, any_injury_reported=injury, tow_away=tow,
        airbag_deployed=airbag, suspected_serious_injury_plus=serious,
        fatal=fatal)


@pytest.fixture(scope="module")
def national(fixtures):
    crss = load_crash_source(
        load_schema("crss"),
        fixtures / "raw" / "crss_crashes.csv",
        fixtures / "raw" / "crss_vehicles.csv",
        fixtures / "raw" / "crss_persons.csv",
        region=NATIONAL, year=2022)
    fars = load_crash_source(
        load_schema("fars_national"),
        fixtures / "raw" / "fars_crashes.csv",
        fixtures / "raw" / "fars_vehicles.csv",
        fixtures / "raw" / "fars_persons.csv",
        region=NATIONAL, year=2022)
    return combine_sources([("nonfatal", crss), ("fatal", fars)])


@pytest.fixture(scope="module")
def surface(national):
    return select_subset(national.crashes, national.vehicles,
                         weighted=national.weighted)


# Classified vehicles on national surface streets: passenger 474, other 81.25.
W_NATIONAL = 474.0 / 555.25


@pytest.fixture(scope="module")
def shares(fixtures):
    from crashbench.ingest import load_passenger_share
    return load_passenger_share(
        load_schema("fhwa_vm4"), fixtures / "mileage" / "vm4_2022.csv")


@pytest.fixture(scope="module")
def vm2(fixtures):
    from crashbench.ingest import load_mileage
    cells, _ = load_mileage(
        load_schema("fhwa_vm2"), fixtures / "mileage" / "vm2_2022.csv",
        region=NATIONAL, year=2022)
    return cells


@pytest.fixture(scope="module")
def national_report(fixtures):
    manifest, = load_manifest(fixtures / "manifests" / "national_2022.json")
    return build_benchmark(load_dataset(manifest))


@pytest.fixture(scope="module")
def town_report(fixtures):
    manifest, = load_manifest(fixtures / "manifests" / "town_2022.json")
    return build_benchmark(load_dataset(manifest))


class TestSeverityCounts:
    def test_containment_enforced(self):
        with pytest.raises(ValidationError, match="containment"):
            counts(injury=11.0)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            counts(fatal=-1.0)

    def test_flag_levels_bounded_by_police(self):
        with pytest.raises(ValidationError, match="tow_away"):
            counts(tow=11.0)

    def test_adjustment_level_has_no_observed_count(self):
        with pytest.raises(ValidationError, match="no observed count"):
            counts().get(SeverityLevel.ANY_PROPERTY_DAMAGE_OR_INJURY)

    def test_derived_split(self):
        c = counts()
        assert c.pdo == 6.0
        assert c.nonfatal_injury == 3.5
        assert c.pdo + c.nonfatal_injury + c.fatal == c.police_reported

    def test_unpublished_cells_are_none(self):
        c = counts(serious=None, airbag=None)
        assert c.get(SeverityLevel.SUSPECTED_SERIOUS_INJURY_PLUS) is None
        assert c.get(SeverityLevel.AIRBAG_DEPLOYED) is None

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValidationError, match="non-finite count at fatal"):
            counts(fatal=value)

    @pytest.mark.parametrize("unpublished, outer", [
        (dict(injury=None, serious=None), "police_reported 10.0"),
        (dict(serious=None), "any_injury_reported 4.0"),
    ])
    def test_containment_spans_unpublished_levels(self, unpublished, outer):
        # A level is checked against the nearest published level outside it.
        with pytest.raises(ValidationError, match=f"fatal 11.0 exceeds {outer}"):
            counts(fatal=11.0, **unpublished)

    def test_a_lone_published_level_stands(self):
        c = counts(police=None, injury=None, tow=None, airbag=None, serious=None)
        assert c.fatal == 0.5


class TestAdjustment:
    def test_unadjusted_is_identity(self):
        c = counts()
        assert apply_adjustment(c, UNADJUSTED) == c.police_reported
        for level in (SeverityLevel.POLICE_REPORTED,
                      SeverityLevel.ANY_INJURY_REPORTED,
                      SeverityLevel.TOW_AWAY,
                      SeverityLevel.FATAL):
            assert apply_adjustment(c, UNADJUSTED, level) == c.get(level)

    def test_full_adjustment_composition(self):
        c = counts()
        expected = (c.pdo / (1 - 0.597) + c.nonfatal_injury / (1 - 0.319)
                    + c.fatal)
        assert apply_adjustment(c, BLINCOE) == pytest.approx(expected, **APPROX)
        expected = c.pdo / (1 - 0.84) + c.nonfatal_injury / (1 - 0.319) + c.fatal
        assert apply_adjustment(c, BLANCO) == pytest.approx(expected, **APPROX)

    def test_injury_level_adjustment_leaves_fatal_alone(self):
        c = counts()
        expected = c.nonfatal_injury / (1 - 0.319) + c.fatal
        got = apply_adjustment(c, BLINCOE, SeverityLevel.ANY_INJURY_REPORTED)
        assert got == pytest.approx(expected, **APPROX)

    def test_adjustment_is_linear_in_counts(self):
        c = counts()
        doubled = counts(police=20.0, injury=8.0, tow=10.0, airbag=4.0,
                         serious=2.0, fatal=1.0)
        assert apply_adjustment(doubled, BLINCOE) == pytest.approx(
            2.0 * apply_adjustment(c, BLINCOE), **APPROX)

    def test_no_adjustment_below_injury_level(self):
        for level in (SeverityLevel.POLICE_REPORTED, SeverityLevel.TOW_AWAY,
                      SeverityLevel.FATAL):
            with pytest.raises(ValidationError, match="does not define"):
                apply_adjustment(counts(), BLINCOE, level)

    def test_pdo_share(self):
        assert pdo_share(counts()) == pytest.approx(0.6)
        with pytest.raises(UndefinedStatistic):
            pdo_share(counts(police=0.0, injury=0.0, tow=0.0, airbag=0.0,
                             serious=0.0, fatal=0.0))


class TestTallies:
    def test_vehicle_counts_on_national_surface(self, surface):
        w = W_NATIONAL
        got = tally_vehicle_counts(surface, w)
        # Effective passenger vehicles per crash, times the sample weight:
        #   C001 2x120.5, C002 w x 80.25, C004 1x200, C006 w x 60,
        #   C007 (1+w) x 30, F001/F003/F006 1 each.  C010 has no units.
        assert got.police_reported == pytest.approx(474.0 + 170.25 * w, **APPROX)
        assert got.any_injury_reported == pytest.approx(203.0 + 140.25 * w, **APPROX)
        assert got.tow_away == pytest.approx(443.0, **APPROX)
        assert got.airbag_deployed == pytest.approx(244.0, **APPROX)
        assert got.suspected_serious_injury_plus == pytest.approx(203.0, **APPROX)
        assert got.fatal == pytest.approx(3.0, **APPROX)

    def test_tow_flag_needs_a_retained_towed_unit(self, national, surface):
        # C002's towed unit is a classified non-passenger vehicle, so the
        # crash does not count as tow-away at the vehicle level even
        # though the crash-level fold says towed.
        c002, = (c for c in national.crashes if c.crash_id == "C002")
        assert c002.tow_away is True
        tow_bit = 1 << OBSERVED_LEVELS.index(SeverityLevel.TOW_AWAY)
        assert not surface.severity[surface.columns.crash_id.index("C002")] & tow_bit

    def test_crash_counts_on_national_surface(self, surface):
        got = tally_crash_counts(surface)
        assert got.police_reported == pytest.approx(543.75, **APPROX)
        assert got.any_injury_reported == pytest.approx(343.25, **APPROX)
        assert got.tow_away == pytest.approx(322.5, **APPROX)
        assert got.airbag_deployed == pytest.approx(123.5, **APPROX)
        assert got.suspected_serious_injury_plus == pytest.approx(203.0, **APPROX)
        assert got.fatal == pytest.approx(3.0, **APPROX)

    def test_count_crashed_vehicles_matches_tally(self, surface):
        w = W_NATIONAL
        tallied = tally_vehicle_counts(surface, w)
        for level in (SeverityLevel.POLICE_REPORTED, SeverityLevel.FATAL,
                      SeverityLevel.TOW_AWAY):
            assert count_crashed_vehicles(surface, level, w) == pytest.approx(
                tallied.get(level), **APPROX)

    def test_ratio_counts_all_vehicle_types(self, national):
        subset = select_subset(national.crashes, national.vehicles, road="all",
                               weighted=national.weighted)
        assert crash_vs_vehicle_ratio(subset) == pytest.approx(
            798.0 / 616.25, **APPROX)


class TestOrderIndependence:
    def test_shuffled_records_give_identical_totals(self, fixtures):
        spec = dataclasses.replace(
            PopulationSpec.from_config(str(fixtures / "synth" / "mixed_population.ini")),
            n_crashes=2000, weights="real")
        crashes, vehicles, _ = generate(spec)
        shuffled_crashes, shuffled_vehicles = list(crashes), list(vehicles)
        rng = random.Random(5)
        rng.shuffle(shuffled_crashes)
        rng.shuffle(shuffled_vehicles)

        def totals(crash_list, vehicle_list):
            surface = select_subset(crash_list, vehicle_list, weighted=True)
            every = select_subset(crash_list, vehicle_list, road="all", weighted=True)
            w = resolve_imputation(surface, spec.region).w
            return (tally_vehicle_counts(surface, w), tally_crash_counts(surface),
                    w, crash_vs_vehicle_ratio(every))

        assert totals(shuffled_crashes, shuffled_vehicles) == totals(
            list(crashes), list(vehicles))


class TestResolveImputation:
    def c(self, cid):
        return CrashEvent(cid, "t", NATIONAL, 2022, RoadClass.SURFACE_STREET,
                          1.0, Kabco.O, False, False)

    def test_none_when_no_units(self):
        subset = select_subset([self.c("X1")], [])
        assert resolve_imputation(subset, NATIONAL) is None

    def test_undefined_when_only_nfs(self):
        units = [VehicleInvolvement("X1", "1", BodyClass.VEHICLE_NFS, True,
                                    False, False)]
        subset = select_subset([self.c("X1")], units)
        with pytest.raises(UndefinedStatistic, match="NFS"):
            resolve_imputation(subset, NATIONAL)

    def test_all_passenger_gives_unit_weight(self):
        units = [VehicleInvolvement("X1", "1", BodyClass.PASSENGER, True,
                                    False, False)]
        subset = select_subset([self.c("X1")], units)
        imp = resolve_imputation(subset, NATIONAL)
        assert imp.w == 1.0


class TestMileageMerge:
    def test_national_totals(self, vm2, shares):
        assert merge_mileage(vm2, None, NATIONAL, "national_functional",
                             scope="all") == pytest.approx(3196191.0, **APPROX)
        assert merge_mileage(vm2, shares, NATIONAL, "national_functional",
                             scope="all") == pytest.approx(2822666.0, **APPROX)
        assert merge_mileage(vm2, shares, NATIONAL, "national_functional",
                             scope="surface") == pytest.approx(2140140.0, **APPROX)

    def test_fatal_rule_also_drops_other_freeways(self, vm2, shares):
        got = merge_mileage(vm2, shares, NATIONAL, "national_fatal",
                            scope="surface")
        assert got == pytest.approx(1838625.88, **APPROX)

    def test_county_functional(self, fixtures, shares):
        from crashbench.ingest import load_mileage
        region = Region.county("Maricopa", "AZ")
        cells, _ = load_mileage(
            load_schema("adot_cpm"), fixtures / "mileage" / "cpm_2022.csv",
            region=region, year=2022)
        # Cells carry no urban/rural split; urban shares apply.
        assert merge_mileage(cells, shares, region, "county_functional",
                             scope="surface") == pytest.approx(24865.0, **APPROX)
        assert merge_mileage(cells, shares, region, "county_functional",
                             scope="all") == pytest.approx(39189.0, **APPROX)
        assert merge_mileage(cells, None, region, "county_functional",
                             scope="all") == pytest.approx(45210.0, **APPROX)

    @pytest.mark.parametrize("scope", ["surface", "all"])
    def test_total_does_not_depend_on_cell_order(self, fixtures, shares, scope):
        # The raw CPM rows and the canonical mileage.csv that ingest writes
        # hold the same Maricopa cells in different orders.
        from crashbench.ingest import load_mileage
        from crashbench.interchange import read_mileage
        region = Region.county("Maricopa", "AZ")
        raw, _ = load_mileage(
            load_schema("adot_cpm"), fixtures / "mileage" / "cpm_2022.csv",
            region=region, year=2022)
        canonical = read_mileage(fixtures / "golden" / "maricopa_2022" / "mileage.csv")
        assert raw != canonical and sorted(raw, key=repr) == sorted(canonical, key=repr)
        totals = {merge_mileage(cells, shares, region, "county_functional", scope=scope)
                  for cells in (raw, canonical, raw[::-1])}
        assert len(totals) == 1, totals

    def test_county_jurisdiction_uses_mean_share(self, fixtures, shares):
        from crashbench.ingest import load_mileage
        sf = Region.county("San Francisco", "CA")
        cells, _ = load_mileage(
            load_schema("ca_prd"), fixtures / "mileage" / "prd_2022.csv",
            region=sf, year=2022,
            region_filter='COUNTY_NAME in "San Francisco"')
        # Local mileage 1000 Mmi times mean(88%, 84.4%) = 86.2%.
        assert merge_mileage(cells, shares, sf, "county_jurisdiction",
                             scope="surface") == pytest.approx(862.0, **APPROX)
        assert merge_mileage(cells, shares, sf, "county_jurisdiction",
                             scope="all") == pytest.approx(1930.018, **APPROX)
        assert merge_mileage(cells, None, sf, "county_jurisdiction",
                             scope="all") == pytest.approx(2239.0, **APPROX)

    def test_unknown_rule_rejected(self, vm2):
        with pytest.raises(ValidationError, match="road rule"):
            merge_mileage(vm2, None, NATIONAL, "by_vibes", scope="all")


class TestGarwood:
    def test_published_table_anchors(self):
        low, high = garwood_interval(0)
        assert low == 0.0
        assert high == pytest.approx(3.6889, abs=5e-4)
        low, high = garwood_interval(1)
        assert low == pytest.approx(0.0253, abs=5e-4)
        assert high == pytest.approx(5.5716, abs=5e-4)
        low, high = garwood_interval(10)
        assert low == pytest.approx(4.7954, abs=5e-4)
        assert high == pytest.approx(18.3904, abs=5e-4)

    @pytest.mark.parametrize("confidence", [0.90, 0.95, 0.99])
    def test_equals_chi_square_quantiles_exactly(self, confidence):
        import numpy as np
        from scipy.stats import chi2

        alpha = 1.0 - confidence
        k = np.arange(2001)
        low = chi2.ppf(alpha / 2.0, 2 * k) / 2.0
        high = chi2.ppf(1.0 - alpha / 2.0, 2 * k + 2) / 2.0
        low[0] = 0.0
        got = [garwood_interval(int(i), confidence) for i in k]
        assert got == list(zip(low.tolist(), high.tolist()))

    def test_interval_widens_with_confidence(self):
        low95, high95 = garwood_interval(5)
        low99, high99 = garwood_interval(5, confidence=0.99)
        assert low99 < low95 and high99 > high95

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            garwood_interval(-1)
        with pytest.raises(ValidationError):
            garwood_interval(2.5)       # type: ignore[arg-type]
        with pytest.raises(ValidationError):
            garwood_interval(5, confidence=1.0)


class TestComputeRate:
    def test_interval_scales_with_mileage(self):
        rate = compute_rate(10.0, 0.5, region=NATIONAL, year=2022,
                            severity=SeverityLevel.POLICE_REPORTED, ci_count=10)
        low, high = garwood_interval(10)
        assert rate.rate_ipmm == 20.0
        assert rate.ci_low_ipmm == pytest.approx(low / 0.5)
        assert rate.ci_high_ipmm == pytest.approx(high / 0.5)

    def test_interval_requires_matching_count(self):
        with pytest.raises(ValidationError, match="unadjusted integer"):
            compute_rate(10.5, 1.0, region=NATIONAL, year=2022,
                         severity=SeverityLevel.POLICE_REPORTED, ci_count=10)


class TestBuildBenchmark:
    @pytest.fixture
    def report(self, national_report):
        return national_report

    def test_mileage_block(self, report):
        assert report.mileage["all_roads_total_mmi"] == pytest.approx(
            3196191.0, **APPROX)
        assert report.mileage["all_roads_passenger_mmi"] == pytest.approx(
            2822666.0, **APPROX)
        assert report.mileage["surface_passenger_mmi"] == pytest.approx(
            2140140.0, **APPROX)

    def test_counts_and_weight(self, report):
        w = W_NATIONAL
        assert report.imputation_w == pytest.approx(w, **APPROX)
        assert report.vehicle_counts.police_reported == pytest.approx(
            474.0 + 170.25 * w, **APPROX)
        assert report.vehicle_counts.fatal == 3.0
        assert report.vehicles_per_crash == pytest.approx(798.0 / 616.25, **APPROX)

    def test_intermediates(self, report):
        assert report.intermediates["crashes"] == pytest.approx(616.25, **APPROX)
        assert report.intermediates["vehicles_any_type"] == pytest.approx(
            798.0, **APPROX)

    def test_rows_follow_requested_order(self, report):
        kinds = [(r.severity, r.adjustment) for r in report.rows]
        assert kinds[0] == (SeverityLevel.ANY_PROPERTY_DAMAGE_OR_INJURY, "blincoe")
        assert kinds[2] == (SeverityLevel.POLICE_REPORTED, "unadjusted")
        assert len(kinds) == 9

    def test_weighted_data_gets_no_exact_interval(self, report):
        assert report.weighted is True
        assert all(r.ci_low_ipmm is None for r in report.rows)

    def test_adjusted_numerator_composition(self, report):
        c = report.vehicle_counts
        blincoe_row = report.rows[0]
        expected = c.pdo / (1 - 0.597) + c.nonfatal_injury / (1 - 0.319) + c.fatal
        assert blincoe_row.numerator == pytest.approx(expected, **APPROX)
        assert blincoe_row.vmt_millions == pytest.approx(2140140.0, **APPROX)

    def test_pdo_shares(self, report):
        c = report.vehicle_counts
        assert report.pdo_share_vehicle == pytest.approx(
            c.pdo / c.police_reported, **APPROX)
        assert report.pdo_share_crash is not None

    def test_audit_includes_filter_accounting(self, report):
        assert report.audit["surface"]["exclusions"]["crash_road_excluded"] == 2
        assert report.audit["road_rule"] == "national_functional"
        assert {a["spec"] for a in report.audit["sources"]} == {
            "crss", "fars_national"}


class TestTownBenchmark:
    @pytest.fixture
    def report(self, town_report):
        return town_report

    def test_vehicle_rate_is_exact(self, report):
        police = {(r.severity, r.adjustment): r for r in report.rows}[
            (SeverityLevel.POLICE_REPORTED, "unadjusted")]
        assert police.numerator == 3.0
        assert police.vmt_millions == 0.012
        assert police.rate_ipmm == 250.0
        assert police.display == "250 IPMM"

    def test_unweighted_integers_get_exact_interval(self, report):
        police = {(r.severity, r.adjustment): r for r in report.rows}[
            (SeverityLevel.POLICE_REPORTED, "unadjusted")]
        low, high = garwood_interval(3)
        assert police.ci_low_ipmm == pytest.approx(low / 0.012)
        assert police.ci_high_ipmm == pytest.approx(high / 0.012)

    def test_zero_count_interval_starts_at_zero(self, report):
        fatal = {(r.severity, r.adjustment): r for r in report.rows}[
            (SeverityLevel.FATAL, "unadjusted")]
        assert fatal.numerator == 0.0
        assert fatal.ci_low_ipmm == 0.0
        assert fatal.ci_high_ipmm == pytest.approx(3.6889 / 0.012, rel=5e-4)

    def test_vehicles_per_crash(self, report):
        assert report.vehicles_per_crash == 1.5


class TestAggregates:
    def test_shipped_table_2022(self):
        rows = load_aggregates("2022")
        assert len(rows) == 4
        national = next(r for r in rows if r.region.kind == "national")
        assert national.mileage_surface_passenger_mmi == 2140140.0
        assert national.counts.police_reported == 8768951.0
        assert national.counts.fatal == 38507.0

    def test_national_2022_report(self):
        rows = load_aggregates("2022")
        national = next(r for r in rows if r.region.kind == "national")
        report = benchmark_from_aggregates(national)
        by_kind = {(r.severity, r.adjustment): r for r in report.rows}
        police = by_kind[(SeverityLevel.POLICE_REPORTED, "unadjusted")]
        assert police.display == "4.10 IPMM"
        fatal = by_kind[(SeverityLevel.FATAL, "unadjusted")]
        assert fatal.display == "18.0 IPBM"
        assert report.vehicles_per_crash == pytest.approx(
            10528849.0 / 5930496.0, **APPROX)

    def test_unpublished_levels_drop_their_rows(self):
        rows = load_aggregates("2021")
        national = next(r for r in rows if r.region.kind == "national")
        assert national.counts.suspected_serious_injury_plus is None
        report = benchmark_from_aggregates(national)
        kinds = {(r.severity, r.adjustment) for r in report.rows}
        assert (SeverityLevel.SUSPECTED_SERIOUS_INJURY_PLUS, "unadjusted") \
            not in kinds
        assert (SeverityLevel.AIRBAG_DEPLOYED, "unadjusted") not in kinds
        assert (SeverityLevel.POLICE_REPORTED, "unadjusted") in kinds

    def test_unpublished_surface_mileage_drops_every_row(self):
        national = next(r for r in load_aggregates("2022") if r.region.kind == "national")
        report = benchmark_from_aggregates(
            dataclasses.replace(national, mileage_surface_passenger_mmi=None))
        assert report.rows == []
        assert report.mileage["surface_passenger_mmi"] is None

    def test_unknown_year_rejected(self):
        with pytest.raises(ValidationError, match="no shipped aggregate"):
            load_aggregates("1999")
