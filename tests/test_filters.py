"""Subset selection and severity flag derivation."""

import pathlib
from collections import Counter

import pytest

from crashbench.errors import UndefinedStatistic
from crashbench.filters import (
    SeverityFlags,
    audit_subset,
    classify_severity,
    compute_imputation_weight,
    effective_passenger_count,
    select_subset,
)
from crashbench.ingest import combine_sources, load_crash_source, load_dataset
from crashbench.interchange import load_manifest
from crashbench.model import (
    BodyClass,
    CrashEvent,
    Kabco,
    Region,
    RoadClass,
    SeverityLevel,
    VehicleInvolvement,
)
from crashbench.schema import load_schema

NATIONAL = Region.national()
MANIFESTS = sorted((pathlib.Path(__file__).parent / "fixtures" / "manifests").glob("*.json"))
DATASETS = [
    pytest.param(path, i, id=f"{path.stem}-{dataset.region.name}")
    for path in MANIFESTS for i, dataset in enumerate(load_manifest(path))
]


def crash(cid="X1", kabco=Kabco.O, road=RoadClass.SURFACE_STREET,
          weight=1.0, towed=False, airbag=False):
    return CrashEvent(cid, "t", NATIONAL, 2022, road, weight, kabco, towed, airbag)


def unit(cid="X1", uid="1", body=BodyClass.PASSENGER, in_transport=True,
         towed=False, airbag=False):
    return VehicleInvolvement(cid, uid, body, in_transport, towed, airbag)


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


class TestSeverityFlags:
    def test_containment_enforced(self):
        with pytest.raises(ValueError, match="containment"):
            SeverityFlags(
                police_reported=True, any_injury_reported=False,
                tow_away=False, airbag_deployed=False,
                suspected_serious_injury_plus=True, fatal=False)

    def test_adjustment_only_level_is_not_queryable(self):
        flags = classify_severity(crash())
        with pytest.raises(ValueError, match="adjustment-derived"):
            flags.has(SeverityLevel.ANY_PROPERTY_DAMAGE_OR_INJURY)

    def test_has_by_level(self):
        flags = classify_severity(crash(kabco=Kabco.A))
        assert flags.has(SeverityLevel.POLICE_REPORTED)
        assert flags.has(SeverityLevel.ANY_INJURY_REPORTED)
        assert flags.has(SeverityLevel.SUSPECTED_SERIOUS_INJURY_PLUS)
        assert not flags.has(SeverityLevel.FATAL)
        assert not flags.has(SeverityLevel.TOW_AWAY)


class TestClassifySeverity:
    @pytest.mark.parametrize("kabco,injury,serious,fatal", [
        (Kabco.O, False, False, False),
        (Kabco.C, True, False, False),
        (Kabco.B, True, False, False),
        (Kabco.A, True, True, False),
        (Kabco.K, True, True, True),
        (Kabco.ISU, True, False, False),
        (Kabco.UNK, False, False, False),
    ])
    def test_injury_chain_from_kabco(self, kabco, injury, serious, fatal):
        flags = classify_severity(crash(kabco=kabco))
        assert flags.police_reported is True
        assert flags.any_injury_reported is injury
        assert flags.suspected_serious_injury_plus is serious
        assert flags.fatal is fatal

    def test_tow_from_eligible_units(self):
        c = crash(towed=True)   # crash-level fold says towed
        units = (unit(towed=False), unit(uid="2", towed=False))
        # With unit data the crash fold is ignored.
        assert classify_severity(c, units).tow_away is False
        assert classify_severity(c, units, tow_from_units=False).tow_away is True

    def test_airbag_from_eligible_units(self):
        c = crash(airbag=False)
        units = (unit(airbag=True),)
        assert classify_severity(c, units).airbag_deployed is True
        assert classify_severity(c, (), airbag_from_units=False).airbag_deployed is False


class TestSelectSubset:
    def test_surface_subset_of_national_fixture(self, national):
        subset = select_subset(national.crashes, national.vehicles,
                               weighted=national.weighted)
        assert sorted(subset.rows) == [
            "C001", "C002", "C004", "C006", "C007", "C010",
            "F001", "F003", "F006"]
        assert audit_subset(subset, None)["vehicles_retained"] == 10
        assert dict(subset.exclusions) == {
            "crash_road_excluded": 2,    # C003, F002
            "crash_road_unknown": 2,     # C008, F004
            "unit_not_in_transport": 1,  # C004 unit 2
            "unit_other_vehicle": 2,     # C002 unit 2, F001 unit 2
        }

    def test_all_roads_subset_keeps_everything(self, national):
        subset = select_subset(national.crashes, national.vehicles, road="all",
                               weighted=national.weighted)
        assert len(subset.rows) == 13
        assert "crash_road_excluded" not in subset.exclusions
        assert "crash_road_unknown" not in subset.exclusions

    def test_unit_tallies(self, national):
        subset = select_subset(national.crashes, national.vehicles,
                               weighted=national.weighted)
        row = subset.rows["C002"]
        assert (row.passenger, row.nfs, row.other) == (0, 1, 1)
        row = subset.rows["C001"]
        assert (row.passenger, row.nfs, row.other) == (2, 0, 0)

    def test_zero_unit_crash_stays(self, national):
        subset = select_subset(national.crashes, national.vehicles)
        row = subset.rows["C010"]
        assert (row.passenger, row.nfs, row.other) == (0, 0, 0)
        assert row.flags.tow_away is False

    def test_flags_on_fixture_crashes(self, national):
        subset = select_subset(national.crashes, national.vehicles,
                               weighted=national.weighted)
        c001 = subset.rows["C001"].flags
        assert (c001.tow_away, c001.airbag_deployed) == (True, True)
        assert not c001.any_injury_reported
        c006 = subset.rows["C006"].flags
        assert c006.any_injury_reported
        assert not c006.suspected_serious_injury_plus
        f001 = subset.rows["F001"].flags
        assert f001.fatal and f001.suspected_serious_injury_plus

    def test_non_vehicle_excluded_before_transport_check(self):
        crashes = [crash()]
        units = [unit(body=BodyClass.NON_VEHICLE, in_transport=False)]
        subset = select_subset(crashes, units)
        assert dict(subset.exclusions) == {"unit_non_vehicle": 1}

    def test_other_vehicle_counts_toward_imputation_only(self):
        crashes = [crash()]
        units = [unit(body=BodyClass.OTHER_VEHICLE), unit(uid="2")]
        subset = select_subset(crashes, units)
        assert subset.rows["X1"].passenger == 1
        assert subset.rows["X1"].other == 1

    def test_bad_road_scope_rejected(self, national):
        with pytest.raises(ValueError, match="road"):
            select_subset(national.crashes, national.vehicles, road="rural")
        with pytest.raises(ValueError, match="all-roads"):
            select_subset(national.crashes, national.vehicles).surface()


class TestSurfaceFromAllRoads:
    @pytest.mark.parametrize("manifest, index", DATASETS)
    def test_rows_shared_and_exclusions_conserved(self, manifest, index):
        records = load_dataset(load_manifest(manifest)[index]).records
        all_subset = select_subset(
            records.crashes, records.vehicles, road="all",
            unit_tow_flags=records.unit_tow_flags,
            unit_airbag_flags=records.unit_airbag_flags, weighted=records.weighted)
        surface = all_subset.surface()
        assert surface.road == "surface" and surface.rows
        for cid, row in surface.rows.items():
            assert row is all_subset.rows[cid]

        expected = Counter()
        surface_ids = set()
        for c in records.crashes:
            if c.road_class is RoadClass.EXCLUDED_HIGHWAY:
                expected["crash_road_excluded"] += 1
            elif c.road_class is RoadClass.UNKNOWN:
                expected["crash_road_unknown"] += 1
            else:
                surface_ids.add(c.crash_id)
        for v in records.vehicles:
            if v.crash_id not in surface_ids:
                continue
            if v.body_class is BodyClass.NON_VEHICLE:
                expected["unit_non_vehicle"] += 1
            elif not v.in_transport:
                expected["unit_not_in_transport"] += 1
            elif v.body_class is BodyClass.OTHER_VEHICLE:
                expected["unit_other_vehicle"] += 1
        assert dict(surface.exclusions) == dict(expected)
        assert sorted(surface.rows) == sorted(surface_ids)
        assert (len(surface.rows) + surface.exclusions["crash_road_excluded"]
                + surface.exclusions["crash_road_unknown"]) == len(records.crashes)


class TestImputation:
    def test_weighted_passenger_share(self, national):
        subset = select_subset(national.crashes, national.vehicles,
                               weighted=national.weighted)
        imp = compute_imputation_weight(subset, NATIONAL)
        # Classified passenger: C001 2x120.5, C004 1x200, C007 1x30,
        # F001/F003/F006 1 each.  Classified other: C002 1x80.25, F001 1.
        assert imp.passenger == pytest.approx(474.0)
        assert imp.other == pytest.approx(81.25)
        assert imp.w == pytest.approx(474.0 / 555.25)

    def test_undefined_without_classified_vehicles(self):
        subset = select_subset([crash()], [])
        with pytest.raises(UndefinedStatistic, match="no classified vehicles"):
            compute_imputation_weight(subset, NATIONAL)

    def test_effective_count(self):
        assert effective_passenger_count(3.0, 2.0, 0.5) == 4.0
        assert effective_passenger_count(3.0, 2.0, 1.0) == 5.0
        with pytest.raises(ValueError):
            effective_passenger_count(1.0, 1.0, 1.5)


class TestAudit:
    def test_payload_shape(self, national):
        subset = select_subset(national.crashes, national.vehicles,
                               weighted=national.weighted)
        imp = compute_imputation_weight(subset, NATIONAL)
        audit = audit_subset(subset, imp)
        assert audit["road"] == "surface"
        assert audit["crashes_retained"] == 9
        assert audit["vehicles_retained"] == 10
        assert audit["tow_basis"] == "subset_units"
        assert audit["imputation"]["classified_other"] == pytest.approx(81.25)

    def test_crash_flag_basis_reported(self):
        subset = select_subset([crash()], [], unit_tow_flags=False,
                               unit_airbag_flags=False)
        audit = audit_subset(subset, None)
        assert audit["tow_basis"] == "crash_flag"
        assert audit["airbag_basis"] == "crash_flag"
        assert audit["imputation"] is None
