"""Subset selection, severity classification and the imputation weight."""

import pathlib
from collections import Counter
from dataclasses import fields
from types import SimpleNamespace

import pytest

from crashbench.filters import audit_subset, classify_severity, select_subset
from crashbench.ingest import combine_sources, load_crash_source, load_dataset
from crashbench.interchange import load_manifest, read_records
from crashbench.model import (
    BodyClass,
    CrashEvent,
    Kabco,
    OBSERVED_LEVELS,
    Region,
    RoadClass,
    SEVERITY_CHAIN,
    SeverityLevel,
    VehicleInvolvement,
)
from crashbench.rates import resolve_imputation, tally_vehicle_counts
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


def levels(row):
    """The observed levels a crash row's severity mask holds."""
    return {level for i, level in enumerate(OBSERVED_LEVELS) if row.severity >> i & 1}


def row_of(subset, crash_id):
    """One crash's entries in a subset's columns, with its severity mask."""
    i = subset.columns.crash_id.index(crash_id)
    return SimpleNamespace(severity=subset.severity[i], **{
        f.name: getattr(subset.columns, f.name)[i] for f in fields(subset.columns)})


def dataset_records(dataset):
    """A dataset's crash and vehicle records; canonical sources, which load
    as columns, are read back as records of the dataset's region and year."""
    manifest, records = dataset.manifest, dataset.records
    crashes, vehicles = list(records.crashes), list(records.vehicles)
    for ref in manifest.crash_sources:
        if ref.spec != "canonical":
            continue
        kept = [c for c in read_records(ref.crash_file, "crashes")
                if c.region == manifest.region and c.year == manifest.year]
        ids = {c.crash_id for c in kept}
        crashes += kept
        if ref.vehicle_file:
            vehicles += [v for v in read_records(ref.vehicle_file, "vehicles")
                         if v.crash_id in ids]
    return crashes, vehicles


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
    EVERY_CRASH = [crash(kabco=k, towed=t, airbag=a)
                   for k in Kabco for t in (False, True) for a in (False, True)]

    def test_containment_enforced(self):
        # Each classified set nests along the chain, whatever the inputs.
        for c in self.EVERY_CRASH:
            flags = classify_severity(c, tow_from_units=False, airbag_from_units=False)
            for outer, inner in zip(SEVERITY_CHAIN[1:], SEVERITY_CHAIN[2:]):
                assert outer in flags or inner not in flags, (c, flags)

    def test_adjustment_only_level_is_never_observed(self):
        for c in self.EVERY_CRASH:
            flags = classify_severity(c, tow_from_units=False, airbag_from_units=False)
            assert SeverityLevel.ANY_PROPERTY_DAMAGE_OR_INJURY not in flags

    def test_has_by_level(self):
        flags = classify_severity(crash(kabco=Kabco.A))
        assert SeverityLevel.POLICE_REPORTED in flags
        assert SeverityLevel.ANY_INJURY_REPORTED in flags
        assert SeverityLevel.SUSPECTED_SERIOUS_INJURY_PLUS in flags
        assert SeverityLevel.FATAL not in flags
        assert SeverityLevel.TOW_AWAY not in flags


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
        assert SeverityLevel.POLICE_REPORTED in flags
        assert (SeverityLevel.ANY_INJURY_REPORTED in flags) is injury
        assert (SeverityLevel.SUSPECTED_SERIOUS_INJURY_PLUS in flags) is serious
        assert (SeverityLevel.FATAL in flags) is fatal

    def test_tow_from_eligible_units(self):
        c = crash(towed=True)   # crash-level fold says towed
        units = (unit(towed=False), unit(uid="2", towed=False))
        # With unit data the crash fold is ignored.
        assert SeverityLevel.TOW_AWAY not in classify_severity(c, units)
        assert SeverityLevel.TOW_AWAY in classify_severity(c, units, tow_from_units=False)

    def test_airbag_from_eligible_units(self):
        c = crash(airbag=False)
        units = (unit(airbag=True),)
        assert SeverityLevel.AIRBAG_DEPLOYED in classify_severity(c, units)
        assert SeverityLevel.AIRBAG_DEPLOYED not in classify_severity(
            c, (), airbag_from_units=False)


class TestSelectSubset:
    def test_surface_subset_of_national_fixture(self, national):
        subset = select_subset(national.crashes, national.vehicles,
                               weighted=national.weighted)
        assert sorted(subset.columns.crash_id) == [
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
        assert len(subset.columns.crash_id) == 13
        assert "crash_road_excluded" not in subset.exclusions
        assert "crash_road_unknown" not in subset.exclusions

    def test_unit_tallies(self, national):
        subset = select_subset(national.crashes, national.vehicles,
                               weighted=national.weighted)
        row = row_of(subset, "C002")
        assert (row.passenger, row.nfs, row.other) == (0, 1, 1)
        row = row_of(subset, "C001")
        assert (row.passenger, row.nfs, row.other) == (2, 0, 0)

    def test_zero_unit_crash_stays(self, national):
        subset = select_subset(national.crashes, national.vehicles)
        row = row_of(subset, "C010")
        assert (row.passenger, row.nfs, row.other) == (0, 0, 0)
        assert SeverityLevel.TOW_AWAY not in levels(row)

    def test_flags_on_fixture_crashes(self, national):
        subset = select_subset(national.crashes, national.vehicles,
                               weighted=national.weighted)
        c001 = levels(row_of(subset, "C001"))
        assert {SeverityLevel.TOW_AWAY, SeverityLevel.AIRBAG_DEPLOYED} <= c001
        assert SeverityLevel.ANY_INJURY_REPORTED not in c001
        c006 = levels(row_of(subset, "C006"))
        assert SeverityLevel.ANY_INJURY_REPORTED in c006
        assert SeverityLevel.SUSPECTED_SERIOUS_INJURY_PLUS not in c006
        f001 = levels(row_of(subset, "F001"))
        assert {SeverityLevel.FATAL, SeverityLevel.SUSPECTED_SERIOUS_INJURY_PLUS} <= f001

    def test_non_vehicle_excluded_before_transport_check(self):
        crashes = [crash()]
        units = [unit(body=BodyClass.NON_VEHICLE, in_transport=False)]
        subset = select_subset(crashes, units)
        assert dict(subset.exclusions) == {"unit_non_vehicle": 1}

    def test_other_vehicle_counts_toward_imputation_only(self):
        crashes = [crash()]
        units = [unit(body=BodyClass.OTHER_VEHICLE), unit(uid="2")]
        subset = select_subset(crashes, units)
        assert row_of(subset, "X1").passenger == 1
        assert row_of(subset, "X1").other == 1

    def test_bad_road_scope_rejected(self, national):
        with pytest.raises(ValueError, match="road"):
            select_subset(national.crashes, national.vehicles, road="rural")
        with pytest.raises(ValueError, match="all-roads"):
            select_subset(national.crashes, national.vehicles).surface()


class TestSurfaceFromAllRoads:
    @pytest.mark.parametrize("manifest, index", DATASETS)
    def test_rows_shared_and_exclusions_conserved(self, manifest, index):
        dataset = load_dataset(load_manifest(manifest)[index])
        all_subset = dataset.records.classify(dataset.manifest.region,
                                              dataset.manifest.year)
        surface = all_subset.surface()
        assert surface.road == "surface" and surface.columns.crash_id
        for cid in surface.columns.crash_id:
            assert row_of(surface, cid) == row_of(all_subset, cid)

        crashes, vehicles = dataset_records(dataset)
        expected = Counter()
        surface_ids = set()
        for c in crashes:
            if c.road_class is RoadClass.EXCLUDED_HIGHWAY:
                expected["crash_road_excluded"] += 1
            elif c.road_class is RoadClass.UNKNOWN:
                expected["crash_road_unknown"] += 1
            else:
                surface_ids.add(c.crash_id)
        for v in vehicles:
            if v.crash_id not in surface_ids:
                continue
            if v.body_class is BodyClass.NON_VEHICLE:
                expected["unit_non_vehicle"] += 1
            elif not v.in_transport:
                expected["unit_not_in_transport"] += 1
            elif v.body_class is BodyClass.OTHER_VEHICLE:
                expected["unit_other_vehicle"] += 1
        assert dict(surface.exclusions) == dict(expected)
        assert sorted(surface.columns.crash_id) == sorted(surface_ids)
        assert (len(surface.columns.crash_id) + surface.exclusions["crash_road_excluded"]
                + surface.exclusions["crash_road_unknown"]) == len(crashes)


class TestImputation:
    def test_weighted_passenger_share(self, national):
        subset = select_subset(national.crashes, national.vehicles,
                               weighted=national.weighted)
        imp = resolve_imputation(subset, NATIONAL)
        # Classified passenger: C001 2x120.5, C004 1x200, C007 1x30,
        # F001/F003/F006 1 each.  Classified other: C002 1x80.25, F001 1.
        assert imp.passenger == pytest.approx(474.0)
        assert imp.other == pytest.approx(81.25)
        assert imp.w == pytest.approx(474.0 / 555.25)

    def test_effective_count(self):
        # Three passenger and two NFS vehicles count as 3 + 2w.
        units = [unit(uid=str(i)) for i in range(3)] + [
            unit(uid=str(i), body=BodyClass.VEHICLE_NFS) for i in (3, 4)]
        subset = select_subset([crash()], units)
        assert tally_vehicle_counts(subset, 0.5).police_reported == 4.0
        assert tally_vehicle_counts(subset, 1.0).police_reported == 5.0
        with pytest.raises(ValueError):
            tally_vehicle_counts(subset, 1.5)


class TestAudit:
    def test_payload_shape(self, national):
        subset = select_subset(national.crashes, national.vehicles,
                               weighted=national.weighted)
        imp = resolve_imputation(subset, NATIONAL)
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
