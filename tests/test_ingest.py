"""Loader behavior on the bundled raw-layout fixtures.

Every fixture row's fate is asserted here by hand.  The golden canonical
files under fixtures/golden are regenerated from these same inputs, so
this module, not the goldens, is the ground truth for their content.
"""

import csv
import dataclasses
import errno
import gc
import json
import os
import random
import re
import shutil
import signal
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import pytest

from crashbench import ingest, interchange
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


def _weighted(load, region, year=2022):
    """Whether the benchmark counts ``load``'s crashes as weighted."""
    return combine_sources([("all", load)]).classify(region, year).weighted


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
        assert _weighted(crss, NATIONAL) is True
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
        assert _weighted(fars, NATIONAL) is False
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
        assert combined.classify(NATIONAL, 2022).weighted is True

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
        assert _weighted(adot, MARICOPA) is False
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

    def test_empty_tow_away_without_a_towed_unit_counts_once(self, tmp_path):
        # SWITRS reads tow-away per crash alone: a crash whose cell is empty
        # reads as not towed and counts once, not once per party.
        (tmp_path / "c.csv").write_text(
            "case_id,accident_year,collision_severity,chp_beat_type,tow_away,county\n"
            "S1,2022,0,0,,San Francisco\nS2,2022,0,0,1,San Francisco\n")
        (tmp_path / "p.csv").write_text(
            "party_number,case_id,stwd_vehicle_type,chp_veh_type_towing,party_type,"
            "move_pre_acc,party_safety_equip_1,party_safety_equip_2\n"
            "1,S1,A,,1,1,P,P\n2,S1,A,,1,1,P,P\n1,S2,A,,1,1,P,P\n")
        load = load_crash_source(load_schema("switrs"), tmp_path / "c.csv", tmp_path / "p.csv",
                                 region=SF, year=2022)
        assert load.diagnostics["unknown_towed"] == 1
        assert {c.crash_id: c.tow_away for c in load.crashes} == {"S1": False, "S2": True}

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
        assert data.records.classify(manifest.region, manifest.year).weighted is False
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

    def test_each_canonical_source_keeps_the_rows_of_its_own_crashes(
            self, fixtures, tmp_path, capsys):
        # Source A drops its crash T002 (another county) and holds a unit of
        # it; source B keeps its own T002.  The unit is A's, so it is not
        # written, though B keeps a crash of that id.
        canonical = fixtures / "canonical"
        (tmp_path / "a_crashes.csv").write_text(
            ",".join(interchange.CRASH_HEADER)
            + "\nT002,town,Shelbyville,IL,2022,surface_street,1.0,O,0,0\n")
        (tmp_path / "a_vehicles.csv").write_text(
            ",".join(interchange.VEHICLE_HEADER) + "\nT002,9,passenger,1,1,1\n")
        manifest = json.loads((fixtures / "manifests" / "town_2022.json").read_text())
        manifest["crash_sources"] = [
            {"spec": "canonical", "crash_file": str(tmp_path / "a_crashes.csv"),
             "vehicle_file": str(tmp_path / "a_vehicles.csv")},
            {"spec": "canonical", "crash_file": str(canonical / "town_crashes.csv"),
             "vehicle_file": str(canonical / "town_vehicles.csv")},
        ]
        manifest["mileage"][0]["file"] = str(canonical / "town_mileage.csv")
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        code = main(["ingest", "--manifest", str(tmp_path / "manifest.json"),
                     "--out", str(out), "--quiet"])
        assert code == 0, capsys.readouterr().err
        for table in ("crashes", "vehicles"):
            assert ((out / f"{table}.csv").read_bytes()
                    == (canonical / f"town_{table}.csv").read_bytes()), table
        a, b = json.loads((out / "audit.json").read_text())["sources"]
        assert a["diagnostics"] == {"region_filtered": 1, "parent_dropped": 1}
        assert a["records"] == {"crashes": 0, "vehicles": 0, "persons": 0}
        assert b["diagnostics"] == {}
        assert b["records"] == {"crashes": 2, "vehicles": 3, "persons": 0}

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
        assert data.records.classify(manifest.region, manifest.year).weighted is True
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

    def test_bad_crash_weight_is_met_before_a_later_orphan_vehicle(self, tmp_path):
        # A kept crash is checked as its row is read, before any vehicle row.
        (tmp_path / "c.csv").write_text(self.CRASHES + "X2,2022,lots,0,0\n")
        with pytest.raises(ValidationError,
                           match=rf"c\.csv:3: crash X2 has unreadable weight 'lots'"):
            self.load(tmp_path, vehicles="1,X1,4,1,0\n2,X9,4,1,0\n")

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


class TestCanonicalLines:
    """An error about a canonical row names the physical line it ends on,
    as raw errors do, and ``rows_in`` counts rows, not lines."""

    HEADER = ("crash_id,source,region,region_state,year,road_class,sample_weight,"
              "max_kabco,tow_away,airbag_deployed\n")
    TOWN = Region.county("Springfield", "IL")

    def test_cell_spanning_two_lines_shifts_later_lines(self, tmp_path):
        path = tmp_path / "ml_crashes.csv"
        path.write_text(self.HEADER
                        + '"X\n1",town,Springfield,IL,2022,surface_street,1.0,O,0,0\n'
                        + "X2,town,Springfield,IL,2022,surface_street,abc,O,0,0\n")
        with pytest.raises(ValidationError,
                           match=r"ml_crashes\.csv:4: unreadable sample_weight 'abc'"):
            interchange.read_crashes(path, self.TOWN, 2022)

    def test_repeated_crash_id_is_met_before_a_later_bad_row(self, tmp_path):
        # A repeat of a dropped id is found as its row passes.
        path = tmp_path / "crashes.csv"
        path.write_text(self.HEADER
                        + "X1,town,Springfield,IL,2021,surface_street,1.0,O,0,0\n"
                        + "X1,town,Springfield,IL,2022,surface_street,1.0,O,0,0\n"
                        + "X2,town,Springfield,IL,2022,surface_street,abc,O,0,0\n")
        with pytest.raises(ValidationError, match=r"crashes\.csv:3: repeated crash_id 'X1'"):
            interchange.read_crashes(path, self.TOWN, 2022)

    def test_rows_in_counts_rows(self, tmp_path):
        path = tmp_path / "ml_crashes.csv"
        path.write_text(self.HEADER
                        + '"X\n1",town,Springfield,IL,2022,surface_street,1.0,O,0,0\n'
                        + "X2,town,Springfield,IL,2021,surface_street,1.0,O,0,0\n")
        fold = interchange.read_crashes(path, self.TOWN, 2022)
        assert fold.rows_in["crashes"] == 2
        assert fold.columns.crash_id == ["X\n1"]
        assert fold.diagnostics == {"year_mismatch": 1}


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

    @pytest.mark.parametrize("last, ending", [
        ("X3,2022,3.0,2", "\n"), ("X3,2022,3.0,2", "\r\n"), ("X3,2022,3.0,2", "\r"),
        ("X3,2022,3.0,2", "\n\n"), ("X3,2022,3.0,2,0", ""), ("X3,2022,3.0,2,0", "\n")])
    def test_a_short_row_is_padded_unless_it_ends_the_file_cut(self, tmp_path, last, ending):
        # The short middle row is padded either way; a short last row only
        # where a line ending shows the row is whole.
        (tmp_path / "c.csv").write_text(
            "CASENUM,YEAR,WEIGHT,MAXSEV_IM,INT_HWY\nX1,2022,1.5\n\nX2,2022,2.0,4,1\n"
            + last + ending, newline="")
        load = load_crash_source(load_schema("crss"), tmp_path / "c.csv",
                                 region=NATIONAL, year=2022)
        assert [c.crash_id for c in load.crashes] == ["X1", "X2", "X3"]

    def test_a_short_last_row_with_no_line_ending_is_cut(self, tmp_path):
        (tmp_path / "c.csv").write_text(
            "CASENUM,YEAR,WEIGHT,MAXSEV_IM,INT_HWY\nX1,2022,1.5\n\nX2,2022,2.0,4")
        with pytest.raises(ValidationError, match=re.escape(
                f"crss crash file {tmp_path / 'c.csv'}:4: last row cut short: "
                "4 of 5 cells and no line ending")):
            load_crash_source(load_schema("crss"), tmp_path / "c.csv",
                              region=NATIONAL, year=2022)

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


class TestHeldCrashes:
    """While its vehicle and person files are read, a kept crash holds what
    its canonical row needs, not its raw row, and one str serves as its id
    in every table."""

    @pytest.mark.parametrize("name", sorted(RAW_FIXTURES))
    def test_child_rows_share_their_crash_row_id(self, fixtures, name):
        spec_name, files, region, region_filter = RAW_FIXTURES[name]
        load = _load_files(spec_name, [fixtures / "raw" / f for f in files],
                           region, region_filter)
        ids = {row[0]: row[0] for row in load.rows["crashes"]}
        children = load.rows["vehicles"] + load.rows["persons"]
        assert load.rows["vehicles"] and load.rows["persons"]
        for row in children:
            assert row[0] is ids[row[0]], row

    # tracemalloc bytes above the returned rows, per kept crash, on CRSS
    # copied 300 times with 60 filler columns on its crash file.  Python
    # 3.11 reads 262 here; holding each kept raw row read 4360.  The bound
    # leaves about 2.3x for other interpreters and allocator layouts.
    HELD_BYTES_PER_CRASH = 600

    def test_peak_above_the_returned_rows_is_small_per_kept_crash(self, fixtures, tmp_path):
        copies, fillers = 300, 60
        spec_name, files, region, region_filter = RAW_FIXTURES["crss"]
        spec = load_schema(spec_name)
        id_columns = (spec.crash.id_column, spec.vehicle.crash_column,
                      spec.person.crash_column)

        def widen(column, width):
            def edit(header, rows):
                at = header.index(column)
                out = []
                for k in range(copies):
                    for row in rows:
                        row = list(row) + [f"{k}.{j}" for j in range(width)]
                        row[at] = f"{row[at]}~{k}"
                        out.append(row)
                return header + [f"FILL{j}" for j in range(width)], out
            return edit

        paths = []
        for file_name, column, width in zip(files, id_columns, (fillers, 0, 0)):
            paths.append(tmp_path / file_name)
            _rewrite(fixtures / "raw" / file_name, paths[-1], widen(column, width))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            load = _load_files(spec_name, paths, region, region_filter)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        kept = len(load.rows["crashes"])
        assert kept > 2000
        assert (peak - held) / kept < self.HELD_BYTES_PER_CRASH


def _national_copy(tmp_path: Path, edit=lambda name, header, rows: (header, rows)) -> Path:
    """The national_2022 manifest, written into ``tmp_path`` with its raw
    files copied beside it through ``edit(file name, header, rows)``."""
    manifest = json.loads((FIXTURES / "manifests" / "national_2022.json").read_text())
    for entry in manifest["crash_sources"]:
        for key in ("crash_file", "vehicle_file", "person_file"):
            name = entry[key].rsplit("/", 1)[-1]
            _rewrite(FIXTURES / "raw" / name, tmp_path / name,
                     lambda header, rows: edit(name, header, rows))
            entry[key] = str(tmp_path / name)
    for entry in manifest["mileage"] + manifest["shares"]:
        entry["file"] = str(FIXTURES / "manifests" / entry["file"])
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


class TestInputOrder:
    def test_shuffled_raw_rows_write_the_golden_bytes(self, fixtures, tmp_path, capsys,
                                                      monkeypatch):
        """Rows keep input order until each source's load sorts them, in a
        worker or in this process: runs on two shuffles of the CRSS and
        FARS rows, each loaded both ways, write the golden bytes."""
        for seed, worker_bytes in ((6, 0), (7, 0), (6, ingest._WORKER_BYTES),
                                   (7, ingest._WORKER_BYTES)):
            monkeypatch.setattr(ingest, "_WORKER_BYTES", worker_bytes)
            rng = random.Random(seed)

            def shuffle(name, header, rows):
                rng.shuffle(rows)
                return header, rows

            run_dir = tmp_path / f"seed{seed}-{worker_bytes}"
            run_dir.mkdir()
            out = run_dir / "out"
            code = main(["ingest", "--manifest", str(_national_copy(run_dir, shuffle)),
                         "--out", str(out), "--quiet"])
            assert code == 0, capsys.readouterr().err
            for name in ("crashes.csv", "vehicles.csv", "persons.csv", "mileage.csv"):
                golden = fixtures / "golden" / "national_2022" / name
                assert (out / name).read_bytes() == golden.read_bytes(), (seed, worker_bytes,
                                                                          name)


def _no_worker_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _counted_forks(monkeypatch) -> list[int]:
    """The pids of the worker processes ``os.fork`` starts from now on."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def _blank_ids(*crash_ids: str):
    """An edit (``_national_copy``) that empties the id cell, the first, of
    the crash rows of ``crash_ids``."""
    def edit(name, header, rows):
        if name.endswith("_crashes.csv"):
            rows = [["", *row[1:]] if row[0] in crash_ids else row for row in rows]
        return header, rows
    return edit


def _ingest(path: Path, out: Path, capsys) -> tuple[int, str]:
    code = main(["ingest", "--manifest", str(path), "--out", str(out), "--quiet"])
    return code, capsys.readouterr().err


@contextmanager
def _deadline(seconds: int):
    """Fail the block, rather than hang, after ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="raw sources load in this process")
class TestWorkers:
    """This process loads a dataset's first raw source, and each other one
    loads in a forked worker process, once the raw files after the first
    hold ``_WORKER_BYTES`` in all (0 here, unless a test sets it) and
    there are two CPUs (two here, unless a test sets them).  What a run
    reports, writes and names is what a load in this process gives (the
    path taken where there is no ``os.fork``), and no worker outlives the
    load."""

    @pytest.fixture(autouse=True)
    def deadline(self, monkeypatch):
        monkeypatch.setattr(ingest, "_WORKER_BYTES", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with _deadline(120):
            yield

    def test_raw_files_smaller_than_the_threshold_load_in_this_process(
            self, fixtures, monkeypatch):
        # The threshold counts the files of the sources after the first,
        # those that workers would load.
        manifest, = load_manifest(fixtures / "manifests" / "national_2022.json")
        size = sum(path.stat().st_size for ref in manifest.crash_sources[1:]
                   for path in (ref.crash_file, ref.vehicle_file, ref.person_file))
        forks = _counted_forks(monkeypatch)
        loaded = []
        for threshold in (size + 1, size):
            monkeypatch.setattr(ingest, "_WORKER_BYTES", threshold)
            loaded.append(load_dataset(manifest).records.runs)
            loaded.append(len(forks))
        assert loaded[1] == 0 and loaded[3] == len(manifest.crash_sources) - 1 == 1
        assert loaded[0] == loaded[2]
        _no_worker_left()

    def test_one_raw_source_loads_in_this_process(self, tmp_path, monkeypatch):
        manifest = json.loads(_national_copy(tmp_path).read_text())
        del manifest["crash_sources"][1:]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        forks = _counted_forks(monkeypatch)
        dataset, = load_manifest(tmp_path / "manifest.json")
        assert [audit["spec"] for audit in load_dataset(dataset).source_audits] == ["crss"]
        assert forks == []

    def test_a_fork_that_fails_names_its_source_and_leaks_no_pipe(
            self, fixtures, monkeypatch, capsys, tmp_path):
        def no_fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        manifest = fixtures / "manifests" / "national_2022.json"
        descriptors = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        with pytest.raises(RuntimeError, match=r"crash source fars_national "
                                               r"\(\S+fars_crashes.csv\): "
                                               r"could not start its worker process: "):
            load_dataset(load_manifest(manifest)[0])
        if descriptors is not None:
            assert len(os.listdir("/proc/self/fd")) == descriptors
        code = main(["ingest", "--manifest", str(manifest), "--out", str(tmp_path), "--quiet"])
        err = capsys.readouterr().err
        assert code == 1 and "could not start its worker process" in err, err

    @pytest.mark.parametrize("bad, named", [
        (("F002",), "fars_crashes.csv"),             # the second source
        (("C002", "F002"), "crss_crashes.csv"),      # both: the first is named
    ])
    def test_the_first_bad_source_is_named_as_in_process(self, tmp_path, capsys,
                                                         monkeypatch, bad, named):
        path = _national_copy(tmp_path, _blank_ids(*bad))
        forked = _ingest(path, tmp_path / "out", capsys)
        _no_worker_left()
        code, err = forked
        assert code == 2, err
        assert f"{tmp_path / named}:3: crash row with empty id column" in err, err
        monkeypatch.delattr(os, "fork")
        assert _ingest(path, tmp_path / "out", capsys) == forked

    def test_a_fault_in_the_first_source_reaps_the_started_workers(self, tmp_path,
                                                                    monkeypatch):
        # The FARS worker starts before this process loads CRSS, and has not
        # been read when CRSS fails.
        forks = _counted_forks(monkeypatch)
        manifest, = load_manifest(_national_copy(tmp_path, _blank_ids("C002")))
        with pytest.raises(ValidationError, match=rf"{re.escape(str(tmp_path))}\S*"
                                                  rf"crss_crashes.csv:3: crash row with "
                                                  rf"empty id column"):
            load_dataset(manifest)
        assert len(forks) == 1
        _no_worker_left()

    @pytest.mark.parametrize("command, provenance", [
        ("ingest", "audit.json"), ("report", "benchmark.json")])
    def test_outputs_and_digests_are_those_of_an_in_process_load(
            self, tmp_path, fixtures, monkeypatch, command, provenance):
        argv = [command, "--manifest", str(fixtures / "manifests" / "national_2022.json"),
                "--out", str(tmp_path), "--quiet"]
        assert main(argv) == 0
        _no_worker_left()
        forked = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        inputs = json.loads(forked[provenance])["provenance"]["inputs"]
        assert {"crss.spec", "fars_national.spec", "crss_crashes.csv",
                "fars_persons.csv"} <= set(inputs)
        monkeypatch.delattr(os, "fork")
        assert main(argv) == 0
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == forked

    def test_workers_are_reaped_when_a_canonical_source_between_them_fails(
            self, tmp_path, monkeypatch):
        # The FARS worker starts, and this process loads CRSS, before the
        # canonical source, second in the manifest, is read here and fails.
        manifest = json.loads(_national_copy(tmp_path).read_text())
        bad = tmp_path / "bad_crashes.csv"
        bad.write_text("crash_id,source\n")
        manifest["crash_sources"].insert(1, {"spec": "canonical", "crash_file": str(bad)})
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        dataset, = load_manifest(tmp_path / "manifest.json")
        with pytest.raises(ValidationError, match=rf"{re.escape(str(bad))}: header"):
            load_dataset(dataset)
        _no_worker_left()

    # Only a worker-loaded source: a SIGKILL in this process's own load of
    # the first source would end the test run.
    @pytest.mark.parametrize("victim, tag", [("fars_national", "fars")])
    def test_a_killed_worker_names_its_source(self, fixtures, monkeypatch, victim, tag):
        load = ingest.load_crash_source

        def load_or_die(spec, *args, **kwargs):
            if spec.tag == tag:
                os.kill(os.getpid(), signal.SIGKILL)
            return load(spec, *args, **kwargs)

        monkeypatch.setattr(ingest, "load_crash_source", load_or_die)
        manifest, = load_manifest(fixtures / "manifests" / "national_2022.json")
        with pytest.raises(
                RuntimeError, match=rf"crash source {victim} \(\S+_crashes.csv\): its worker "
                                    rf"process killed by signal {int(signal.SIGKILL)}"):
            load_dataset(manifest)
        _no_worker_left()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_no_more_workers_than_cpus_are_alive(self, tmp_path, monkeypatch, cpus):
        sources = "WXYZ"
        for prefix in sources:
            (tmp_path / f"{prefix}.csv").write_text(
                "CASENUM,YEAR,WEIGHT,MAXSEV_IM,INT_HWY\n"
                f"{prefix}2,2022,2.0,4,1\n{prefix}1,2022,1.0,0,0\n")
        (tmp_path / "manifest.json").write_text(json.dumps({
            "region": "national", "year": 2022,
            "crash_sources": [{"spec": "crss", "crash_file": f"{p}.csv"} for p in sources]}))
        alive, counts = set(), Counter()
        fork, waitpid = os.fork, os.waitpid

        def counted_fork():
            pid = fork()
            if pid:
                alive.add(pid)
                counts["started"] += 1
                counts["most"] = max(counts["most"], len(alive))
            return pid

        def counted_waitpid(pid, options):
            reaped = waitpid(pid, options)
            alive.discard(reaped[0])
            return reaped

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(os, "waitpid", counted_waitpid)
        manifest, = load_manifest(tmp_path / "manifest.json")
        data = load_dataset(manifest)
        # This process loads the first source and takes a CPU: one CPU
        # forks nothing.
        workers = len(sources) - 1 if cpus > 1 else 0
        assert (counts["started"], counts["most"]) == (workers, min(workers, cpus - 1))
        assert not alive
        # Each load sorts its source's rows: one run per source, in order.
        assert [[row[0] for row in run] for run in data.records.runs["crashes"]] == [
            [f"{p}1", f"{p}2"] for p in sources]
        _no_worker_left()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("bad", [(), ("C002",)], ids=["loads", "raises"])
    @pytest.mark.parametrize("worker_bytes", [0, 1 << 40], ids=["worker", "in_process"])
    def test_the_collector_is_left_as_the_caller_set_it(self, tmp_path, monkeypatch,
                                                         worker_bytes, bad, enabled):
        # Raw rows are built and unpickled with the cyclic collector paused.
        monkeypatch.setattr(ingest, "_WORKER_BYTES", worker_bytes)
        manifest, = load_manifest(_national_copy(tmp_path, _blank_ids(*bad)))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if bad:
                with pytest.raises(ValidationError, match="crash row with empty id column"):
                    load_dataset(manifest)
            else:
                load_dataset(manifest)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        _no_worker_left()


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


def _raw_inputs() -> dict:
    """File name -> (dataset, source, key) of each raw crash, vehicle,
    person, mileage and shares file the fixture manifests read."""
    found: dict = {}
    for path in sorted((FIXTURES / "manifests").glob("*.json")):
        for dataset in load_manifest(path):
            for ref in (*dataset.crash_sources, *dataset.mileage, *dataset.shares):
                for key in ("crash_file", "vehicle_file", "person_file", "file"):
                    file = getattr(ref, key, None)
                    if ref.spec != "canonical" and file is not None:
                        found.setdefault(file.name, (dataset, ref, key))
    return found


RAW_INPUTS = _raw_inputs()
# The columns whose absence each raw fixture's loader rejects, as its
# manifest's spec and region filter read it.
REQUIRED_COLUMNS = {
    "adot_crashes.csv": {"CrashYear", "GeocodeOnRoad", "IncidentID", "InjurySeverity",
                         "PostedSpeed", "TowAwayFlag"},
    "adot_persons.csv": {"Airbag", "IncidentID", "PersonID", "SafetyDevice", "UnitID"},
    "adot_units.csv": {"BodyStyle", "IncidentID", "UnitAction", "UnitID", "UnitType"},
    "cpm_2022.csv": {"ANNUAL_VMT_THOUSANDS", "FUNC_CLASS", "YEAR"},
    "crss_crashes.csv": {"CASENUM", "INT_HWY", "MAXSEV_IM", "WEIGHT", "YEAR"},
    "crss_persons.csv": {"AIR_BAG", "CASENUM", "INJ_SEV", "PER_NO", "VEH_NO"},
    "crss_vehicles.csv": {"BODY_TYP", "CASENUM", "TOWED", "UNITTYPE", "VEH_NO"},
    "fars_crashes.csv": {"FUNC_SYS", "ST_CASE", "YEAR"},
    "fars_persons.csv": {"AIR_BAG", "INJ_SEV", "PER_NO", "ST_CASE", "VEH_NO"},
    "fars_vehicles.csv": {"BODY_TYP", "ST_CASE", "TOWED", "UNITTYPE", "VEH_NO"},
    "prd_2022.csv": {"ANNUAL_VMT_MILLIONS", "COUNTY_NAME", "JURISDICTION", "YEAR"},
    "switrs_crashes.csv": {"accident_year", "case_id", "chp_beat_type",
                           "collision_severity", "county", "tow_away"},
    "switrs_parties.csv": {"case_id", "chp_veh_type_towing", "move_pre_acc",
                           "party_number", "party_safety_equip_1", "party_safety_equip_2",
                           "party_type", "stwd_vehicle_type"},
    "switrs_victims.csv": {"case_id", "party_number", "victim_degree_of_injury",
                           "victim_number", "victim_safety_equip_1",
                           "victim_safety_equip_2"},
    "vm2_2022.csv": {"ANNUAL_VMT_MILLIONS", "AREA", "FUNC_SYSTEM", "YEAR"},
    "vm4_2022.csv": {"AREA", "CLASS_GROUP", "PASSENGER_PCT", "STATE"},
}


def _load_raw(dataset, ref, files: dict) -> None:
    """Load one source of ``dataset`` from ``files`` (manifest key -> path)."""
    spec = load_schema(ref.spec)
    if spec.kind == "shares":
        load_passenger_share(spec, files["file"])
    elif spec.kind == "mileage":
        load_mileage(spec, files["file"], region=dataset.region, year=dataset.year,
                     region_filter=ref.region_filter)
    else:
        load_crash_source(spec, files["crash_file"], files.get("vehicle_file"),
                          files.get("person_file"), region=dataset.region,
                          year=dataset.year, region_filter=ref.region_filter)


class TestRequiredColumns:
    """A spec requires exactly the columns it reads, and every header of a
    source is checked before its first row."""

    @pytest.mark.parametrize("name", sorted(RAW_INPUTS))
    def test_each_read_column_is_required(self, name, tmp_path):
        dataset, ref, key = RAW_INPUTS[name]
        files = {k: Path(shutil.copy(getattr(ref, k), tmp_path))
                 for k in ("crash_file", "vehicle_file", "person_file", "file")
                 if getattr(ref, k, None) is not None}
        if key in ("vehicle_file", "person_file"):
            # An empty crash id on line 2 fails the crash file's first row.
            _rewrite(files["crash_file"], files["crash_file"],
                     lambda header, rows: (header, [[""] * len(header), *rows]))
        target = files[key]
        with open(target, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        # A column no rule reads is never required.
        table = [[*header, "UNREAD"], *([*row, "x"] for row in rows)]
        required = set()
        for column in table[0]:
            keep = [i for i, other in enumerate(table[0]) if other != column]
            with open(target, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh, lineterminator="\n").writerows(
                    [row[i] for i in keep] for row in table)
            try:
                _load_raw(dataset, ref, files)
            except SchemaError as exc:
                if str(exc).endswith(f" file {target}: missing column(s) {column}"):
                    required.add(column)
            except ValidationError:
                pass
        assert required == REQUIRED_COLUMNS[name]

    def test_crash_kabco_column_is_required_where_persons_give_severity_and_is_read(
            self, tmp_path):
        spec = (resources.files("crashbench") / "specs" / "fars_national.spec").read_text()
        spec = spec.replace("year = YEAR\n", "year = YEAR\nkabco_column = MAXSEV\n")
        (tmp_path / "fars.spec").write_text(spec + "\n[crash.kabco_codes]\nO = 0\nK = 4\n")
        crashes = tmp_path / "c.csv"
        crashes.write_text("ST_CASE,YEAR,FUNC_SYS\nF1,2022,1\n")
        with pytest.raises(SchemaError, match=r"missing column\(s\) MAXSEV$"):
            load_crash_source(load_schema(str(tmp_path / "fars.spec")), crashes,
                              region=NATIONAL, year=2022)
        # F1's crash row says O and its person K; F2's the other way round.
        crashes.write_text("ST_CASE,YEAR,FUNC_SYS,MAXSEV\nF1,2022,1,0\nF2,2022,1,4\n")
        vehicles = tmp_path / "v.csv"
        vehicles.write_text("ST_CASE,VEH_NO,BODY_TYP,UNITTYPE,TOWED\n"
                            "F1,1,1,1,2\nF2,1,1,1,2\n")
        persons = tmp_path / "p.csv"
        persons.write_text("ST_CASE,PER_NO,VEH_NO,INJ_SEV,AIR_BAG\n"
                           "F1,1,1,4,20\nF2,1,1,0,20\n")

        def kabco_of(spec):
            load = load_crash_source(load_schema(spec), crashes, vehicles, persons,
                                     region=NATIONAL, year=2022)
            return {c.crash_id: c.max_kabco for c in load.crashes}

        assert kabco_of(str(tmp_path / "fars.spec")) == {"F1": Kabco.O, "F2": Kabco.K}
        assert kabco_of("fars_national") == {"F1": Kabco.K, "F2": Kabco.O}
