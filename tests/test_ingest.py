"""Loader behavior on the bundled raw-layout fixtures.

Every fixture row's fate is asserted here by hand.  The golden canonical
files under fixtures/golden are regenerated from these same inputs, so
this module, not the goldens, is the ground truth for their content.
"""

import csv
import dataclasses
import json
import random
import shutil
from importlib import resources
from pathlib import Path

import pytest

from crashbench.cli import _region_slug, main
from crashbench.errors import ReferentialError, SchemaError, ValidationError
from crashbench.ingest import (
    combine_sources,
    load_crash_source,
    load_dataset,
    load_mileage,
    load_passenger_share,
)
from crashbench.interchange import CrashSourceRef, load_manifest, read_records
from crashbench.model import (
    AreaType,
    BodyClass,
    Kabco,
    Region,
    RoadClass,
    ShareGroup,
)
from crashbench.schema import load_schema

NATIONAL = Region.national()
MARICOPA = Region.county("Maricopa", "AZ")
SF = Region.county("San Francisco", "CA")
LA = Region.county("Los Angeles", "CA")
FIXTURES = Path(__file__).parent / "fixtures"


def _load(fixtures, spec, stem_triplet, region, year=2022, region_filter=None):
    crash, veh, per = stem_triplet
    return load_crash_source(
        load_schema(spec),
        fixtures / "raw" / crash,
        fixtures / "raw" / veh if veh else None,
        fixtures / "raw" / per if per else None,
        region=region,
        year=year,
        region_filter=region_filter,
    )


@pytest.fixture(scope="module")
def crss(fixtures):
    return _load(fixtures, "crss",
                 ("crss_crashes.csv", "crss_vehicles.csv", "crss_persons.csv"),
                 NATIONAL)


@pytest.fixture(scope="module")
def fars(fixtures):
    return _load(fixtures, "fars_national",
                 ("fars_crashes.csv", "fars_vehicles.csv", "fars_persons.csv"),
                 NATIONAL)


@pytest.fixture(scope="module")
def adot(fixtures):
    return _load(fixtures, "adot",
                 ("adot_crashes.csv", "adot_units.csv", "adot_persons.csv"),
                 MARICOPA)


@pytest.fixture(scope="module")
def sf(fixtures):
    return _load(fixtures, "switrs",
                 ("switrs_crashes.csv", "switrs_parties.csv", "switrs_victims.csv"),
                 SF, region_filter='county in "San Francisco"')


@pytest.fixture(scope="module")
def la(fixtures):
    return _load(fixtures, "switrs",
                 ("switrs_crashes.csv", "switrs_parties.csv", "switrs_victims.csv"),
                 LA, region_filter='county in "Los Angeles"')


def by_id(records):
    return {r.crash_id: r for r in records}


def by_unit(vehicles):
    return {(v.crash_id, v.unit_id): v for v in vehicles}


class TestCrss:
    def test_row_accounting(self, crss):
        assert crss.rows_in == {"crashes": 10, "vehicles": 13, "persons": 7}
        assert dict(crss.diagnostics) == {
            "year_mismatch": 1,       # C009 is a 2021 crash
            "parent_dropped": 2,      # C009's unit and person rows
            "unknown_kabco": 1,       # C007 severity code 7 is unmapped
            "unknown_road": 1,        # C008 has no interstate flag
            "unknown_towed": 1,       # C006 unit has an empty towed cell
            "unknown_body": 1,        # C007 unit 2 has an empty body type
            "unknown_airbag": 1,      # C004 non-occupant airbag cell empty
            "unknown_person_kabco": 1,  # C007 person injury code 7 unmapped
        }
        assert crss.weighted is True
        assert crss.tow_level == "vehicle"
        assert crss.airbag_units is True

    def test_crash_fields(self, crss):
        crashes = by_id(crss.crashes)
        assert sorted(crashes) == ["C001", "C002", "C003", "C004", "C005",
                                   "C006", "C007", "C008", "C010"]
        expected = {
            # id: (kabco, road, weight, towed, airbag)
            "C001": (Kabco.O, RoadClass.SURFACE_STREET, 120.5, True, True),
            "C002": (Kabco.C, RoadClass.SURFACE_STREET, 80.25, True, False),
            "C003": (Kabco.B, RoadClass.EXCLUDED_HIGHWAY, 45.0, False, False),
            "C004": (Kabco.A, RoadClass.SURFACE_STREET, 200.0, True, False),
            "C005": (Kabco.K, RoadClass.SURFACE_STREET, 15.75, True, True),
            "C006": (Kabco.ISU, RoadClass.SURFACE_STREET, 60.0, False, False),
            "C007": (Kabco.UNK, RoadClass.SURFACE_STREET, 30.0, False, False),
            "C008": (Kabco.C, RoadClass.UNKNOWN, 25.5, False, False),
            "C010": (Kabco.O, RoadClass.SURFACE_STREET, 50.0, False, False),
        }
        for cid, (kabco, road, weight, towed, airbag) in expected.items():
            c = crashes[cid]
            assert c.max_kabco is kabco, cid
            assert c.road_class is road, cid
            assert c.sample_weight == weight, cid
            assert c.tow_away is towed, cid
            assert c.airbag_deployed is airbag, cid
            assert c.source == "crss"
            assert c.region == NATIONAL
            assert c.year == 2022

    def test_unit_fields(self, crss):
        units = by_unit(crss.vehicles)
        assert len(units) == 12   # 13 raw rows minus C009's
        expected = {
            # (crash, unit): (body, in_transport, towed, airbag)
            ("C001", "1"): (BodyClass.PASSENGER, True, True, True),
            ("C001", "2"): (BodyClass.PASSENGER, True, False, False),
            ("C002", "1"): (BodyClass.VEHICLE_NFS, True, False, False),
            ("C002", "2"): (BodyClass.OTHER_VEHICLE, True, True, False),
            ("C003", "1"): (BodyClass.PASSENGER, True, False, False),
            ("C004", "1"): (BodyClass.PASSENGER, True, True, False),
            ("C004", "2"): (BodyClass.PASSENGER, False, False, False),
            ("C005", "1"): (BodyClass.PASSENGER, True, True, True),
            ("C006", "1"): (BodyClass.VEHICLE_NFS, True, False, False),
            ("C007", "1"): (BodyClass.PASSENGER, True, False, False),
            ("C007", "2"): (BodyClass.VEHICLE_NFS, True, False, False),
            ("C008", "1"): (BodyClass.PASSENGER, True, False, False),
        }
        for key, (body, in_transport, towed, airbag) in expected.items():
            v = units[key]
            assert v.body_class is body, key
            assert v.in_transport is in_transport, key
            assert v.towed is towed, key
            assert v.airbag_deployed is airbag, key

    def test_person_fields(self, crss):
        persons = {(p.crash_id, p.unit_id, p.person_id): p for p in crss.persons}
        assert len(persons) == 6
        # Unit code 0 marks a non-occupant: unit_id comes through empty.
        non_occupant = persons[("C004", "", "1")]
        assert non_occupant.kabco is Kabco.A
        assert non_occupant.airbag_deployed is False
        assert persons[("C001", "1", "1")].airbag_deployed is True
        assert persons[("C001", "2", "2")].airbag_deployed is False
        assert persons[("C007", "1", "1")].kabco is Kabco.UNK
        assert persons[("C005", "1", "1")].kabco is Kabco.K


class TestFars:
    def test_row_accounting(self, fars):
        assert fars.rows_in == {"crashes": 7, "vehicles": 8, "persons": 7}
        assert dict(fars.diagnostics) == {
            "year_mismatch": 1,    # F005
            "parent_dropped": 1,   # F005's unit row
            "unknown_road": 1,     # F004 has no functional system
            "unknown_kabco": 1,    # F007 has no person rows to fold
            "unknown_airbag": 1,   # F006 second person airbag cell empty
        }
        assert fars.weighted is False
        assert fars.tow_level == "vehicle"
        assert fars.airbag_units is True

    def test_person_fold_sets_crash_severity(self, fars):
        crashes = by_id(fars.crashes)
        assert sorted(crashes) == ["F001", "F002", "F003", "F004", "F006", "F007"]
        expected = {
            "F001": (Kabco.K, RoadClass.SURFACE_STREET, True, True),
            "F002": (Kabco.K, RoadClass.EXCLUDED_HIGHWAY, True, False),
            "F003": (Kabco.K, RoadClass.SURFACE_STREET, False, True),
            "F004": (Kabco.K, RoadClass.UNKNOWN, True, False),
            "F006": (Kabco.K, RoadClass.SURFACE_STREET, True, True),
            # No person rows at all: severity fold comes up empty.
            "F007": (Kabco.UNK, RoadClass.SURFACE_STREET, False, False),
        }
        for cid, (kabco, road, towed, airbag) in expected.items():
            c = crashes[cid]
            assert c.max_kabco is kabco, cid
            assert c.road_class is road, cid
            assert c.tow_away is towed, cid
            assert c.airbag_deployed is airbag, cid
            assert c.sample_weight == 1.0

    def test_non_occupant_fatality_folds(self, fars):
        # F004's only person is a non-occupant, and it still drives the fold.
        persons = {(p.crash_id, p.unit_id): p for p in fars.persons
                   if p.crash_id == "F004"}
        assert persons[("F004", "")].kabco is Kabco.K

    def test_person_airbag_reaches_unit(self, fars):
        units = by_unit(fars.vehicles)
        assert units[("F001", "1")].airbag_deployed is True
        assert units[("F001", "2")].airbag_deployed is False
        assert units[("F003", "1")].airbag_deployed is True
        assert units[("F001", "2")].body_class is BodyClass.OTHER_VEHICLE
        assert units[("F004", "1")].body_class is BodyClass.VEHICLE_NFS


class TestCombineNational:
    def test_roles_split_fatal_from_nonfatal(self, crss, fars):
        combined = combine_sources([("nonfatal", crss), ("fatal", fars)])
        ids = [c.crash_id for c in combined.crashes]
        # C005 is fatal in the sampled source, F007 non-fatal in the census.
        assert ids == ["C001", "C002", "C003", "C004", "C006", "C007", "C008",
                       "C010", "F001", "F002", "F003", "F004", "F006"]
        assert combined.diagnostics["role_excluded"] == 2
        assert len(combined.vehicles) == 17
        assert len(combined.persons) == 12
        assert not any(v.crash_id in ("C005", "F007") for v in combined.vehicles)
        assert combined.unit_tow_flags is True
        assert combined.unit_airbag_flags is True
        assert combined.weighted is True

    def test_cross_source_duplicate_rejected(self, crss):
        with pytest.raises(ValidationError, match="appears in both"):
            combine_sources([("all", crss), ("all", crss)])


class TestAdot:
    def test_row_accounting(self, adot):
        assert adot.rows_in == {"crashes": 9, "vehicles": 12, "persons": 6}
        assert dict(adot.diagnostics) == {
            "year_mismatch": 1,          # A007
            "parent_dropped": 2,         # A007's unit and person
            "unknown_road": 1,           # A008: no road name, no speed
            "unknown_in_transport": 1,   # A006 pedestrian has no action code
            "unknown_airbag": 1,         # A006 person: both airbag cells blank
        }
        assert adot.weighted is False
        assert adot.tow_level == "crash"
        assert adot.airbag_units is True

    def test_road_classification(self, adot):
        roads = {c.crash_id: c.road_class for c in adot.crashes}
        assert roads == {
            "A001": RoadClass.SURFACE_STREET,    # name suffix token "St"
            "A002": RoadClass.EXCLUDED_HIGHWAY,  # interstate, 65 mph
            "A003": RoadClass.SURFACE_STREET,    # named state route
            "A004": RoadClass.SURFACE_STREET,    # posted speed 40
            "A005": RoadClass.EXCLUDED_HIGHWAY,  # US route, 65 mph
            "A006": RoadClass.SURFACE_STREET,
            "A008": RoadClass.UNKNOWN,
            "A009": RoadClass.SURFACE_STREET,    # multi-word route name
        }

    def test_crash_fields(self, adot):
        crashes = by_id(adot.crashes)
        expected = {
            "A001": (Kabco.K, True, True),
            "A002": (Kabco.O, False, False),
            "A003": (Kabco.C, False, False),
            "A004": (Kabco.B, False, True),
            "A005": (Kabco.A, True, False),
            # Severity 99 is an explicitly mapped unknown, not a code gap.
            "A006": (Kabco.UNK, False, False),
            "A008": (Kabco.C, False, True),
            "A009": (Kabco.O, False, False),
        }
        for cid, (kabco, towed, airbag) in expected.items():
            c = crashes[cid]
            assert c.max_kabco is kabco, cid
            assert c.tow_away is towed, cid
            assert c.airbag_deployed is airbag, cid

    def test_unit_classification(self, adot):
        units = by_unit(adot.vehicles)
        assert units[("A003", "1")].body_class is BodyClass.VEHICLE_NFS
        assert units[("A005", "1")].body_class is BodyClass.VEHICLE_NFS
        assert units[("A006", "1")].body_class is BodyClass.NON_VEHICLE
        assert units[("A006", "1")].in_transport is False
        assert units[("A008", "1")].body_class is BodyClass.OTHER_VEHICLE
        assert units[("A004", "1")].in_transport is False   # parked
        assert units[("A004", "2")].in_transport is True
        assert units[("A004", "2")].airbag_deployed is True
        # No unit-level tow data in this layout.
        assert not any(v.towed for v in adot.vehicles)

    def test_persons_have_no_severity(self, adot):
        assert all(p.kabco is Kabco.UNK for p in adot.persons)


class TestSwitrs:
    def test_sf_row_accounting(self, sf):
        assert sf.rows_in == {"crashes": 8, "vehicles": 12, "persons": 6}
        assert dict(sf.diagnostics) == {
            "region_filtered": 1,        # S005 is a Los Angeles crash
            "region_filter_unknown": 1,  # S008 has no county
            "year_mismatch": 1,          # S006
            "parent_dropped": 3,         # parties of the dropped crashes
            "unknown_road": 1,           # S007 has no beat type
            "unknown_in_transport": 1,   # S003 pedestrian movement blank
            "unknown_airbag": 2,         # equipment cells blank on two parties
            "unknown_person_kabco": 1,   # S004 victim degree 7 unmapped
        }
        assert sf.caveats and "PDO" in sf.caveats[0]
        assert sf.tow_level == "crash"
        assert sf.airbag_units is True

    def test_sf_crash_fields(self, sf):
        crashes = by_id(sf.crashes)
        expected = {
            "S001": (Kabco.O, RoadClass.SURFACE_STREET, True, True),
            "S002": (Kabco.C, RoadClass.EXCLUDED_HIGHWAY, False, False),
            "S003": (Kabco.K, RoadClass.SURFACE_STREET, True, True),
            "S004": (Kabco.A, RoadClass.SURFACE_STREET, False, False),
            "S007": (Kabco.C, RoadClass.UNKNOWN, False, False),
        }
        assert sorted(crashes) == sorted(expected)
        for cid, (kabco, road, towed, airbag) in expected.items():
            c = crashes[cid]
            assert c.max_kabco is kabco, cid
            assert c.road_class is road, cid
            assert c.tow_away is towed, cid
            assert c.airbag_deployed is airbag, cid

    def test_sf_party_classification(self, sf):
        units = by_unit(sf.vehicles)
        assert units[("S003", "2")].body_class is BodyClass.NON_VEHICLE
        assert units[("S003", "3")].body_class is BodyClass.VEHICLE_NFS
        # Victim-level equipment code reaches the party it rode in.
        assert units[("S003", "3")].airbag_deployed is True
        assert units[("S004", "2")].body_class is BodyClass.VEHICLE_NFS
        assert units[("S004", "2")].in_transport is False   # parked
        # Towing-type code alone is enough to call the party a passenger vehicle.
        assert units[("S007", "1")].body_class is BodyClass.PASSENGER
        assert units[("S001", "1")].airbag_deployed is True

    def test_sf_victims(self, sf):
        persons = {(p.crash_id, p.unit_id, p.person_id): p for p in sf.persons}
        assert len(persons) == 6
        assert persons[("S007", "", "1")].kabco is Kabco.B  # no party reference
        assert persons[("S004", "2", "2")].kabco is Kabco.UNK
        assert persons[("S003", "3", "2")].airbag_deployed is True

    def test_la_load(self, la):
        assert [c.crash_id for c in la.crashes] == ["S005"]
        c = la.crashes[0]
        assert c.max_kabco is Kabco.B
        assert c.road_class is RoadClass.SURFACE_STREET
        # The region filter runs before the year gate, so the 2021 crash
        # counts as filtered here, not as a year mismatch.
        assert dict(la.diagnostics) == {
            "region_filtered": 6,
            "region_filter_unknown": 1,
            "parent_dropped": 17,
        }
        assert len(la.vehicles) == 1


class TestMileage:
    def test_vm2(self, fixtures):
        cells, diag = load_mileage(
            load_schema("fhwa_vm2"), fixtures / "mileage" / "vm2_2022.csv",
            region=NATIONAL, year=2022)
        assert len(cells) == 14
        assert dict(diag) == {"year_mismatch": 1}
        assert sum(c.vmt_millions for c in cells) == 3196191.0
        assert {c.area_type for c in cells} == {AreaType.URBAN, AreaType.RURAL}

    def test_cpm_converts_thousands(self, fixtures):
        cells, diag = load_mileage(
            load_schema("adot_cpm"), fixtures / "mileage" / "cpm_2022.csv",
            region=MARICOPA, year=2022)
        assert len(cells) == 7
        assert dict(diag) == {"year_mismatch": 1}
        assert sum(c.vmt_millions for c in cells) == pytest.approx(45210.0, rel=1e-12)
        assert all(c.area_type is AreaType.ALL for c in cells)

    def test_prd_region_filter(self, fixtures):
        cells, diag = load_mileage(
            load_schema("ca_prd"), fixtures / "mileage" / "prd_2022.csv",
            region=SF, year=2022,
            region_filter='COUNTY_NAME in "San Francisco"')
        assert len(cells) == 3
        assert dict(diag) == {"region_filtered": 3, "year_mismatch": 1}
        assert sum(c.vmt_millions for c in cells) == 2239.0

        cells, diag = load_mileage(
            load_schema("ca_prd"), fixtures / "mileage" / "prd_2022.csv",
            region=LA, year=2022,
            region_filter='COUNTY_NAME in "Los Angeles"')
        assert len(cells) == 3
        # The 2021 row belongs to the other county, so it never reaches
        # the year gate.
        assert dict(diag) == {"region_filtered": 4}
        assert sum(c.vmt_millions for c in cells) == pytest.approx(71539.0, rel=1e-12)

    def test_shares(self, fixtures):
        table = load_passenger_share(
            load_schema("fhwa_vm4"), fixtures / "mileage" / "vm4_2022.csv")
        assert table.get("US", AreaType.URBAN, ShareGroup.INTERSTATE) == 0.80
        assert table.get("US", AreaType.RURAL, ShareGroup.OTHER) == 0.90
        assert table.get("AZ", AreaType.URBAN, ShareGroup.OTHER) == 0.94
        assert table.get("CA", AreaType.URBAN, ShareGroup.OTHER) == pytest.approx(0.844)


class TestDatasets:
    def test_town_manifest(self, fixtures):
        manifest, = load_manifest(fixtures / "manifests" / "town_2022.json")
        data = load_dataset(manifest)
        assert data.records.folded.crash_id == ["T001", "T002"]
        assert data.source_audits[0]["records"]["vehicles"] == 3
        assert data.records.weighted is False
        assert data.records.unit_tow_flags is True
        assert [m.vmt_millions for m in data.mileage] == [0.012]
        assert data.shares is None
        assert data.source_audits[0]["spec"] == "canonical"

    def test_canonical_rows_of_dropped_or_absent_crashes_are_counted(self, fixtures,
                                                                     tmp_path):
        canonical = fixtures / "canonical"
        (tmp_path / "crashes.csv").write_text(
            (canonical / "town_crashes.csv").read_text()
            + "X001,town,Shelbyville,IL,2022,surface_street,1.0,O,0,0\n")
        (tmp_path / "vehicles.csv").write_text(
            (canonical / "town_vehicles.csv").read_text()
            + "X001,1,passenger,1,0,0\n"     # its crash is in another region
            + "Z999,1,passenger,1,0,0\n")    # its crash is absent
        (tmp_path / "persons.csv").write_text(
            "crash_id,unit_id,person_id,kabco,airbag_deployed\n"
            "T002,1,1,C,0\nX001,1,1,O,0\nZ999,1,1,O,0\n")
        shutil.copy(canonical / "town_mileage.csv", tmp_path / "mileage.csv")
        manifest = json.loads((fixtures / "manifests" / "town_2022.json").read_text())
        manifest["crash_sources"][0].update(
            crash_file="crashes.csv", vehicle_file="vehicles.csv", person_file="persons.csv")
        manifest["mileage"][0]["file"] = "mileage.csv"
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        data = load_dataset(load_manifest(tmp_path / "manifest.json")[0])
        audit, = data.source_audits
        assert audit["rows_in"] == {"crashes": 3, "vehicles": 5, "persons": 3}
        assert audit["records"] == {"crashes": 2, "vehicles": 3, "persons": 1}
        assert audit["diagnostics"] == {
            "region_filtered": 1, "parent_dropped": 2, "parent_unknown": 2}
        assert (sum(audit["rows_in"].values())
                == sum(audit["records"].values()) + sum(audit["diagnostics"].values()))
        assert dict(data.records.diagnostics) == audit["diagnostics"]

    def test_canonical_source_rejects_region_filter(self, fixtures):
        manifest, = load_manifest(fixtures / "manifests" / "town_2022.json")
        ref = manifest.crash_sources[0]
        bad = CrashSourceRef(
            spec=ref.spec, crash_file=ref.crash_file,
            vehicle_file=ref.vehicle_file, person_file=None,
            role="all", region_filter='county in "x"')
        from crashbench.ingest import _load_canonical_source
        with pytest.raises(ValidationError, match="region column"):
            _load_canonical_source(bad, manifest.region, manifest.year)

    def test_national_manifest_loads(self, fixtures):
        manifest, = load_manifest(fixtures / "manifests" / "national_2022.json")
        data = load_dataset(manifest)
        assert len(data.records.crashes) == 13
        assert data.records.weighted is True
        assert len(data.mileage) == 14
        assert data.shares is not None
        assert {a["spec"] for a in data.source_audits} == {"crss", "fars_national"}
        roles = {a["spec"]: a["role"] for a in data.source_audits}
        assert roles == {"crss": "nonfatal", "fars_national": "fatal"}

    def test_share_conflict_detected(self, fixtures, tmp_path):
        import json
        import shutil
        raw = (fixtures / "mileage" / "vm4_2022.csv").read_text()
        conflicting = raw.replace("US,urban,interstate,80", "US,urban,interstate,70")
        (tmp_path / "vm4_b.csv").write_text(conflicting)
        shutil.copy(fixtures / "mileage" / "vm4_2022.csv", tmp_path / "vm4_a.csv")
        shutil.copy(fixtures / "canonical" / "town_crashes.csv", tmp_path)
        shutil.copy(fixtures / "canonical" / "town_mileage.csv", tmp_path)
        manifest = {
            "region": {"kind": "county", "name": "Springfield", "state": "IL"},
            "year": 2022,
            "road_rule": "all_roads",
            "crash_sources": [
                {"spec": "canonical", "crash_file": "town_crashes.csv"}],
            "mileage": [{"spec": "canonical", "file": "town_mileage.csv"}],
            "shares": [
                {"spec": "fhwa_vm4", "file": "vm4_a.csv"},
                {"spec": "fhwa_vm4", "file": "vm4_b.csv"},
            ],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        loaded, = load_manifest(path)
        with pytest.raises(ValidationError, match="conflicting passenger shares"):
            load_dataset(loaded)


class TestStructuralErrors:
    def test_orphan_vehicle_raises(self, tmp_path):
        (tmp_path / "c.csv").write_text(
            "CASENUM,YEAR,WEIGHT,MAXSEV_IM,INT_HWY\nX1,2022,1.0,0,0\n")
        (tmp_path / "v.csv").write_text(
            "VEH_NO,CASENUM,BODY_TYP,UNITTYPE,TOWED\n1,X9,4,1,0\n")
        with pytest.raises(ReferentialError, match="unknown crash"):
            load_crash_source(load_schema("crss"), tmp_path / "c.csv",
                              tmp_path / "v.csv", region=NATIONAL, year=2022)

    def test_orphan_person_unit_raises(self, tmp_path):
        (tmp_path / "c.csv").write_text(
            "CASENUM,YEAR,WEIGHT,MAXSEV_IM,INT_HWY\nX1,2022,1.0,0,0\n")
        (tmp_path / "v.csv").write_text(
            "VEH_NO,CASENUM,BODY_TYP,UNITTYPE,TOWED\n1,X1,4,1,0\n")
        (tmp_path / "p.csv").write_text(
            "PER_NO,CASENUM,VEH_NO,INJ_SEV,AIR_BAG\n1,X1,2,0,0\n")
        with pytest.raises(ReferentialError, match="unknown unit"):
            load_crash_source(load_schema("crss"), tmp_path / "c.csv",
                              tmp_path / "v.csv", tmp_path / "p.csv",
                              region=NATIONAL, year=2022)

    def test_duplicate_crash_raises(self, tmp_path):
        (tmp_path / "c.csv").write_text(
            "CASENUM,YEAR,WEIGHT,MAXSEV_IM,INT_HWY\nX1,2022,1.0,0,0\nX1,2022,1.0,0,0\n")
        with pytest.raises(ValidationError, match="duplicate crash id"):
            load_crash_source(load_schema("crss"), tmp_path / "c.csv",
                              region=NATIONAL, year=2022)

    def test_missing_column_raises(self, tmp_path):
        (tmp_path / "c.csv").write_text("CASENUM,YEAR\nX1,2022\n")
        from crashbench.errors import SchemaError
        with pytest.raises(SchemaError, match="missing column"):
            load_crash_source(load_schema("crss"), tmp_path / "c.csv",
                              region=NATIONAL, year=2022)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ValidationError):
            load_crash_source(load_schema("crss"), tmp_path / "absent.csv",
                              region=NATIONAL, year=2022)


class TestRowLines:
    """An error about a raw row names its file and true line; blank lines
    count, as they do in an editor."""

    CRASHES = "CASENUM,YEAR,WEIGHT,MAXSEV_IM,INT_HWY\nX1,2022,1.0,0,0\n"

    def load(self, tmp_path, vehicles="", persons=""):
        for name, text in (("v.csv", "VEH_NO,CASENUM,BODY_TYP,UNITTYPE,TOWED\n" + vehicles),
                           ("p.csv", "PER_NO,CASENUM,VEH_NO,INJ_SEV,AIR_BAG\n" + persons)):
            (tmp_path / name).write_text(text)
        return load_crash_source(load_schema("crss"), tmp_path / "c.csv",
                                 tmp_path / "v.csv", tmp_path / "p.csv",
                                 region=NATIONAL, year=2022)

    def test_repeated_crash_row(self, tmp_path):
        # The repeat equals the first row; the line is the repeat's.
        (tmp_path / "c.csv").write_text(self.CRASHES + "\nX1,2022,1.0,0,0\n")
        with pytest.raises(ValidationError, match=rf"c\.csv:4: duplicate crash id X1"):
            self.load(tmp_path)

    @pytest.mark.parametrize("weight, message", [
        ("lots", "crash X2 has unreadable weight"),
        ("-2", "crash X2: sample_weight must be positive"),
    ])
    def test_bad_crash_weight(self, tmp_path, weight, message):
        (tmp_path / "c.csv").write_text(self.CRASHES + f"\n\nX2,2022,{weight},0,0\n")
        with pytest.raises(ValidationError, match=rf"c\.csv:5: {message}"):
            self.load(tmp_path)

    def test_orphan_vehicle_row(self, tmp_path):
        (tmp_path / "c.csv").write_text(self.CRASHES)
        with pytest.raises(ReferentialError, match=rf"v\.csv:4: vehicle row references"):
            self.load(tmp_path, vehicles="1,X1,4,1,0\n\n2,X9,4,1,0\n")

    def test_person_row_without_id(self, tmp_path):
        (tmp_path / "c.csv").write_text(self.CRASHES)
        with pytest.raises(ValidationError, match=rf"p\.csv:3: crash X1 has a person with no id"):
            self.load(tmp_path, vehicles="1,X1,4,1,0\n", persons="\n,X1,1,0,0\n")

    @pytest.mark.parametrize("vmt, message", [
        ("lots", "unreadable mileage"),
        ("-5", "mileage cell national/local: vmt_millions must be positive"),
    ])
    def test_mileage_row(self, tmp_path, vmt, message):
        path = tmp_path / "m.csv"
        path.write_text("YEAR,FUNC_SYSTEM,AREA,ANNUAL_VMT_MILLIONS\n"
                        f"2022,1,urban,10\n\n2022,3,urban,5\n2022,7,urban,{vmt}\n")
        with pytest.raises(ValidationError,
                           match=rf"fhwa_vm2 mileage file .*m\.csv:5: {message}"):
            load_mileage(load_schema("fhwa_vm2"), path, region=NATIONAL, year=2022)

    def test_share_row(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("STATE,AREA,CLASS_GROUP,PASSENGER_PCT\n"
                        "US,urban,interstate,80\n\n\nUS,urban,other,920\n")
        with pytest.raises(ValidationError,
                           match=rf"fhwa_vm4 shares file .*s\.csv:5: share 920.0 outside"):
            load_passenger_share(load_schema("fhwa_vm4"), path)


class TestReaderSemantics:
    """Raw files read as csv.DictReader read them (values recorded from the
    DictReader-based loader)."""

    def test_blank_short_extra_and_duplicate_header(self, tmp_path):
        (tmp_path / "c.csv").write_text(
            "CASENUM,YEAR,WEIGHT,MAXSEV_IM,INT_HWY,INT_HWY\n"
            "X1,2022,1.5,0,1,0\n"           # duplicate name: last column wins
            "\n"
            "X2,2022,2.0,4,1,1,EXTRA,MORE\n"  # extra cells ignored
            "X3,2022,3.0,2\n"               # short: INT_HWY is null
            "X4,2022,4.0,3,,\n")
        (tmp_path / "v.csv").write_text(
            "VEH_NO,CASENUM,BODY_TYP,UNITTYPE,TOWED\n"
            "1,X1,4,1,2\n"
            "\n"
            "\n"
            "2,X1,99,1,0,junk\n"
            "1,X2,4,1\n"                    # short: TOWED is null
            "1,X3\n")                       # short: every rule unknown
        (tmp_path / "p.csv").write_text("PER_NO,CASENUM,VEH_NO,INJ_SEV,AIR_BAG\n")
        load = load_crash_source(load_schema("crss"), tmp_path / "c.csv",
                                 tmp_path / "v.csv", tmp_path / "p.csv",
                                 region=NATIONAL, year=2022)
        assert load.rows_in == {"crashes": 4, "vehicles": 4, "persons": 0}
        assert dict(load.diagnostics) == {
            "unknown_body": 1, "unknown_in_transport": 1,
            "unknown_road": 2, "unknown_towed": 2,
        }
        assert [(c.crash_id, c.road_class, c.max_kabco, c.sample_weight,
                 c.tow_away, c.airbag_deployed) for c in load.crashes] == [
            ("X1", RoadClass.SURFACE_STREET, Kabco.O, 1.5, True, False),
            ("X2", RoadClass.EXCLUDED_HIGHWAY, Kabco.K, 2.0, False, False),
            ("X3", RoadClass.UNKNOWN, Kabco.B, 3.0, False, False),
            ("X4", RoadClass.UNKNOWN, Kabco.A, 4.0, False, False),
        ]
        assert [(v.crash_id, v.unit_id, v.body_class, v.in_transport, v.towed,
                 v.airbag_deployed) for v in load.vehicles] == [
            ("X1", "1", BodyClass.PASSENGER, True, True, False),
            ("X1", "2", BodyClass.VEHICLE_NFS, True, False, False),
            ("X2", "1", BodyClass.PASSENGER, True, False, False),
            ("X3", "1", BodyClass.VEHICLE_NFS, False, False, False),
        ]
        assert load.persons == []

    def test_header_only_and_empty_files(self, tmp_path):
        (tmp_path / "h.csv").write_text("CASENUM,YEAR,WEIGHT,MAXSEV_IM,INT_HWY\n")
        load = load_crash_source(load_schema("crss"), tmp_path / "h.csv",
                                 region=NATIONAL, year=2022)
        assert load.rows_in == {"crashes": 0, "vehicles": 0, "persons": 0}
        assert load.crashes == [] and not load.diagnostics
        (tmp_path / "e.csv").write_text("")
        with pytest.raises(SchemaError, match="missing column"):
            load_crash_source(load_schema("crss"), tmp_path / "e.csv",
                              region=NATIONAL, year=2022)

    def test_mileage_rows(self, tmp_path):
        (tmp_path / "m.csv").write_text(
            "YEAR,FUNC_SYSTEM,ANNUAL_VMT_MILLIONS,AREA,AREA\n"
            "2022,1,10,rural,urban\n"
            "\n"
            "2022,7,2.5\n"
            "2021,3,1,urban,urban,extra\n")
        cells, diag = load_mileage(load_schema("fhwa_vm2"), tmp_path / "m.csv",
                                   region=NATIONAL, year=2022)
        assert [(m.functional_class.name, m.area_type, m.vmt_millions)
                for m in cells] == [("INTERSTATE", AreaType.URBAN, 10.0),
                                    ("LOCAL", AreaType.ALL, 2.5)]
        assert dict(diag) == {"year_mismatch": 1}


# (spec, crash/vehicle/person files, region, region_filter) of every raw fixture
RAW_FIXTURES = {
    "crss": ("crss", ("crss_crashes.csv", "crss_vehicles.csv", "crss_persons.csv"),
             NATIONAL, None),
    "fars": ("fars_national",
             ("fars_crashes.csv", "fars_vehicles.csv", "fars_persons.csv"),
             NATIONAL, None),
    "adot": ("adot", ("adot_crashes.csv", "adot_units.csv", "adot_persons.csv"),
             MARICOPA, None),
    "switrs": ("switrs",
               ("switrs_crashes.csv", "switrs_parties.csv", "switrs_victims.csv"),
               SF, 'county in "San Francisco"'),
}


def _rewrite(src, dst, edit):
    """Copy a raw CSV, passing (header, data rows) through ``edit``."""
    with open(src, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    header, rows = edit(header, rows)
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _load_files(spec_name, paths, region, region_filter):
    return load_crash_source(load_schema(spec_name), *paths, region=region,
                             year=2022, region_filter=region_filter)


class TestMemoizedRules:
    """Rules are memoized per file on the cells they read; warnings and
    every other diagnostic must still count once per row."""

    @pytest.mark.parametrize("name", sorted(RAW_FIXTURES))
    def test_replicated_rows_count_every_diagnostic(self, fixtures, tmp_path, name):
        spec_name, files, region, region_filter = RAW_FIXTURES[name]
        spec = load_schema(spec_name)
        id_columns = (spec.crash.id_column, spec.vehicle.crash_column,
                      spec.person.crash_column)
        copies = 3

        def replicate(column):
            def edit(header, rows):
                at = header.index(column)
                out = []
                for k in range(copies):
                    for row in rows:
                        row = list(row)
                        row[at] = f"{row[at]}~{k}"
                        out.append(row)
                return header, out
            return edit

        paths = []
        for file_name, column in zip(files, id_columns):
            paths.append(tmp_path / file_name)
            _rewrite(fixtures / "raw" / file_name, paths[-1], replicate(column))
        once = _load_files(spec_name, [fixtures / "raw" / f for f in files],
                           region, region_filter)
        many = _load_files(spec_name, paths, region, region_filter)

        assert once.diagnostics and once.crashes
        assert many.rows_in == {k: copies * v for k, v in once.rows_in.items()}
        assert dict(many.diagnostics) == {
            k: copies * v for k, v in once.diagnostics.items()}
        for field_name in ("crashes", "vehicles", "persons"):
            expected = sorted(
                (dataclasses.replace(r, crash_id=f"{r.crash_id}~{k}")
                 for r in getattr(once, field_name) for k in range(copies)),
                key=lambda r: dataclasses.astuple(r)[:3],
            )
            got = sorted(getattr(many, field_name),
                         key=lambda r: dataclasses.astuple(r)[:3])
            assert got == expected, field_name

    def test_permuted_columns_and_back_to_back_specs(self, fixtures, tmp_path):
        """Rules bind to each file's own column positions; nothing cached
        for one load is seen by the next."""
        fresh = {name: _load_files(spec_name, [fixtures / "raw" / f for f in files],
                                   region, region_filter)
                 for name, (spec_name, files, region, region_filter)
                 in RAW_FIXTURES.items()}
        spec_name, files, region, region_filter = RAW_FIXTURES["crss"]
        permuted = []
        for file_name in files:
            permuted.append(tmp_path / file_name)
            _rewrite(fixtures / "raw" / file_name, permuted[-1],
                     lambda header, rows: (header[::-1], [r[::-1] for r in rows]))
        # Same columns as crss, opposite road codes.
        text = resources.files("crashbench").joinpath("specs", "crss.spec").read_text()
        swapped = tmp_path / "crss_swapped.spec"
        swapped.write_text(text.replace("surface = INT_HWY in 0", "surface = INT_HWY in 1")
                               .replace("excluded = INT_HWY in 1", "excluded = INT_HWY in 0"))
        flip = {RoadClass.SURFACE_STREET: RoadClass.EXCLUDED_HIGHWAY,
                RoadClass.EXCLUDED_HIGHWAY: RoadClass.SURFACE_STREET,
                RoadClass.UNKNOWN: RoadClass.UNKNOWN}
        crss_paths = [fixtures / "raw" / f for f in RAW_FIXTURES["crss"][1]]
        for name in ("switrs", "crss", "adot", "fars", "crss"):
            spec_name, files, region, region_filter = RAW_FIXTURES[name]
            again = _load_files(spec_name, [fixtures / "raw" / f for f in files],
                                region, region_filter)
            assert again == fresh[name], name
            if name == "crss":
                assert _load_files("crss", permuted, NATIONAL, None) == fresh["crss"]
                flipped = _load_files(str(swapped), crss_paths, NATIONAL, None)
                assert [c.road_class for c in flipped.crashes] == [
                    flip[c.road_class] for c in fresh["crss"].crashes]


class TestInputOrder:
    def test_shuffled_raw_rows_write_the_golden_bytes(self, fixtures, tmp_path, capsys):
        """Records keep input order until the canonical writers sort them."""
        rng = random.Random(6)

        def shuffle(header, rows):
            rng.shuffle(rows)
            return header, rows

        manifest = json.loads(
            (fixtures / "manifests" / "national_2022.json").read_text())
        for entry in manifest["crash_sources"]:
            for key in ("crash_file", "vehicle_file", "person_file"):
                name = entry[key].rsplit("/", 1)[-1]
                _rewrite(fixtures / "raw" / name, tmp_path / name, shuffle)
                entry[key] = str(tmp_path / name)
        for entry in manifest["mileage"] + manifest["shares"]:
            entry["file"] = str(fixtures / "manifests" / entry["file"])
        path = tmp_path / "shuffled.json"
        path.write_text(json.dumps(manifest))

        out = tmp_path / "out"
        code = main(["ingest", "--manifest", str(path), "--out", str(out), "--quiet"])
        assert code == 0, capsys.readouterr().err
        for name in ("crashes.csv", "vehicles.csv", "persons.csv", "mileage.csv"):
            golden = fixtures / "golden" / "national_2022" / name
            assert (out / name).read_bytes() == golden.read_bytes(), name


class TestOneWriter:
    """Raw sources load to canonical rows; their records, decoded on
    request, are the records of the canonical files ``ingest`` writes."""

    @pytest.mark.parametrize("name", sorted(
        p.stem for p in (FIXTURES / "manifests").iterdir() if p.stem != "town_2022"))
    def test_decoded_records_are_the_written_records(self, fixtures, tmp_path, name):
        path = fixtures / "manifests" / f"{name}.json"
        manifests = load_manifest(path)
        assert main(["ingest", "--manifest", str(path), "--out", str(tmp_path),
                     "--quiet"]) == 0
        for ds in manifests:
            out = tmp_path if len(manifests) == 1 else tmp_path / _region_slug(ds.region)
            kept = {"crashes": [], "vehicles": [], "persons": []}
            for ref in ds.crash_sources:
                assert ref.spec != "canonical"
                load = load_crash_source(
                    load_schema(ref.spec), ref.crash_file, ref.vehicle_file,
                    ref.person_file, region=ds.region, year=ds.year,
                    region_filter=ref.region_filter)
                ids = {c.crash_id for c in load.crashes if ref.role == "all"
                       or (c.max_kabco is Kabco.K) is (ref.role == "fatal")}
                for table in kept:
                    kept[table] += [r for r in getattr(load, table) if r.crash_id in ids]
            assert kept["crashes"]
            for table, records in kept.items():
                written = read_records(out / f"{table}.csv", table)
                assert sorted(records, key=repr) == sorted(written, key=repr), table
