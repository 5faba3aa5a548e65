"""Spec parsing and the tri-state rule language."""

import pytest
from hypothesis import given, strategies as st

from crashbench.errors import SchemaError
from crashbench.model import Kabco, RoadClass
from crashbench.schema import (
    CodeMap,
    CodeSet,
    RoadRules,
    Rule,
    _normalize_code,
    load_schema,
    parse_spec,
    shipped_specs,
)


class TestCodeSet:
    def test_ints_ranges_strings(self):
        cs = CodeSet.parse('1, 3:5, -1, "A", "Mc 85"', "t")
        for cell in ("1", "3", "4", "5", "-1", "a", "A", " 4 "):
            assert cs.contains(cell), cell
        for cell in ("2", "6", "0", "b"):
            assert not cs.contains(cell), cell

    def test_quoted_comma_stays_in_one_code(self):
        cs = CodeSet.parse('"a,b", 7', "t")
        assert cs.contains("a,b")
        assert cs.contains("7")
        assert not cs.contains("a")

    def test_bad_range_rejected(self):
        with pytest.raises(SchemaError, match="empty range"):
            CodeSet.parse("5:3", "t")
        with pytest.raises(SchemaError, match="unbalanced quote"):
            CodeSet.parse('"oops', "t")

    @pytest.mark.parametrize("text", ["1,,2", "1, 2,", ", 1", '"a", ,"b"'])
    def test_empty_item_rejected(self, text):
        with pytest.raises(SchemaError, match="empty item in code list"):
            CodeSet.parse(text, "t")
        with pytest.raises(SchemaError, match="empty item in code list"):
            Rule.parse(f"X in {text}", "t")


class TestRule:
    def test_membership(self):
        rule = Rule.parse("X in 1, 2", "t")
        assert rule.eval({"X": "1"}) is True
        assert rule.eval({"X": "3"}) is False
        assert rule.eval({"X": ""}) is None
        assert rule.eval({}) is None

    def test_negated_membership_with_missing_cell(self):
        rule = Rule.parse("X not_in 1, 2", "t")
        assert rule.eval({"X": "3"}) is True
        assert rule.eval({"X": "2"}) is False
        # Absence proves nothing either way.
        assert rule.eval({"X": ""}) is None

    def test_null_checks_never_unknown(self):
        rule = Rule.parse("X is null", "t")
        assert rule.eval({"X": ""}) is True
        assert rule.eval({"X": " "}) is True
        assert rule.eval({"X": "v"}) is False
        assert Rule.parse("X is not null", "t").eval({"X": "v"}) is True

    def test_numeric_comparison(self):
        rule = Rule.parse("Speed <= 45", "t")
        assert rule.eval({"Speed": "45"}) is True
        assert rule.eval({"Speed": "45.5"}) is False
        assert rule.eval({"Speed": ""}) is None
        # Unparseable numbers are unknown, not errors.
        assert rule.eval({"Speed": "n/a"}) is None

    @pytest.mark.parametrize("op, below, at, above", [
        ("<", True, False, False),
        (">=", False, True, True),
        (">", False, False, True),
    ])
    def test_other_numeric_comparisons(self, op, below, at, above):
        rule = Rule.parse(f"Speed {op} 45", "t")
        assert rule.eval({"Speed": "44.5"}) is below
        assert rule.eval({"Speed": "45"}) is at
        assert rule.eval({"Speed": "45.5"}) is above
        assert rule.eval({"Speed": "n/a"}) is None

    def test_token_matching(self):
        rule = Rule.parse('Road contains_token "St", "Mc 85"', "t")
        assert rule.eval({"Road": "N Main St"}) is True
        assert rule.eval({"Road": "Mc 85 E"}) is True
        assert rule.eval({"Road": "Stone Rd"}) is False  # "St" must be a whole token
        assert rule.eval({"Road": "I-10"}) is False
        assert rule.eval({"Road": ""}) is None

    def test_or_short_circuits_past_unknown(self):
        rule = Rule.parse("A in 1 or B in 1", "t")
        assert rule.eval({"A": "", "B": "1"}) is True
        assert rule.eval({"A": "", "B": "2"}) is None
        assert rule.eval({"A": "2", "B": "2"}) is False

    def test_and_false_beats_unknown(self):
        rule = Rule.parse("A in 1 and B in 1", "t")
        assert rule.eval({"A": "2", "B": ""}) is False
        assert rule.eval({"A": "1", "B": ""}) is None
        assert rule.eval({"A": "1", "B": "1"}) is True

    def test_columns(self):
        rule = Rule.parse("A in 1 and B in 2 or C is null", "t")
        assert rule.columns() == {"A", "B", "C"}

    def test_parse_errors(self):
        with pytest.raises(SchemaError):
            Rule.parse("X frobnicates 1", "t")
        with pytest.raises(SchemaError):
            Rule.parse("X in", "t")

    @given(st.text(alphabet="abc 123-,", max_size=12))
    def test_eval_is_total_over_messy_cells(self, cell):
        rule = Rule.parse('X in 1, 2, "a" or Y <= 3', "t")
        assert rule.eval({"X": cell, "Y": cell}) in (True, False, None)


class TestNormalize:
    def test_integers_canonicalize(self):
        assert _normalize_code("01") == "1"
        assert _normalize_code(" 7 ") == "7"
        assert _normalize_code("-02") == "-2"

    def test_strings_casefold(self):
        assert _normalize_code("Urban") == "urban"
        assert _normalize_code("STATE_HWY") == "state_hwy"


class TestKabcoMap:
    MAP = CodeMap({"0": Kabco.O, "4": Kabco.K, "9": Kabco.UNK})

    def test_mapped_codes_are_known(self):
        assert self.MAP.get("0") is Kabco.O
        assert self.MAP.get(" 04 ") is Kabco.K
        # An explicit unknown code is a known answer of "unknown".
        assert self.MAP.get("9") is Kabco.UNK

    def test_gaps_are_not_known(self):
        assert self.MAP.get("7") is None
        assert self.MAP.get("") is None
        assert self.MAP.get(None) is None


class TestRoadRules:
    def test_surface_wins(self):
        rules = RoadRules(
            surface=Rule.parse("F in 2:7", "t"),
            excluded=Rule.parse("F in 1", "t"),
            default=RoadClass.UNKNOWN)
        assert rules.classify({"F": "3"}) == (RoadClass.SURFACE_STREET, True)
        assert rules.classify({"F": "1"}) == (RoadClass.EXCLUDED_HIGHWAY, True)
        assert rules.classify({"F": "9"}) == (RoadClass.UNKNOWN, True)
        assert rules.classify({"F": ""}) == (RoadClass.UNKNOWN, False)

    def test_default_applies_only_when_rules_resolve(self):
        rules = RoadRules(
            surface=Rule.parse("Name contains_token \"St\" or Speed <= 45", "t"),
            excluded=None,
            default=RoadClass.EXCLUDED_HIGHWAY)
        assert rules.classify({"Name": "I-10", "Speed": "65"}) == \
            (RoadClass.EXCLUDED_HIGHWAY, True)
        assert rules.classify({"Name": "", "Speed": ""}) == \
            (RoadClass.UNKNOWN, False)


MINIMAL_SPEC = """
[source]
tag = mini
kind = crash

[crash]
id = ID
year = YR
kabco_column = SEV

[crash.kabco_codes]
O = 0
K = 4

[crash.road]
surface = RD in 0
default = unknown

[vehicle]
id = UNIT
crash_id = ID

[vehicle.rules]
passenger = BT in 1:5
in_transport = UT in 1
"""


MILEAGE_SPEC = """
[source]
tag = miles
kind = mileage

[mileage]
class_column = FC
area_column = AREA
vmt_column = VMT

[mileage.class_codes]
interstate = 1
local = 7

[mileage.area_codes]
urban = u
rural = r
"""

SHARES_SPEC = """
[source]
tag = shares
kind = shares

[shares]
state_column = ST
area_column = AREA
group_column = GROUP
share_column = SHARE

[shares.group_codes]
interstate = i
other_arterial = a
other = o
"""


class TestParseSpec:
    def test_minimal_spec(self):
        spec = parse_spec(MINIMAL_SPEC, "mini")
        assert spec.tag == "mini"
        assert spec.kind == "crash"
        assert spec.tow_level == "none"
        assert spec.person is None
        assert spec.crash.kabco.get("4") is Kabco.K

    def test_crash_spec_needs_a_kabco_column(self):
        text = MINIMAL_SPEC.replace("kabco_column = SEV\n", "").split("[crash.kabco_codes]")
        no_kabco = text[0] + "[crash.road]" + text[1].split("[crash.road]")[1]
        with pytest.raises(SchemaError, match="^spec mini: needs a crash or a person "
                                              "kabco_column$"):
            parse_spec(no_kabco, "mini")

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError, match="kind"):
            parse_spec(MINIMAL_SPEC.replace("kind = crash", "kind = parking"), "mini")

    def test_overlapping_body_rules_rejected(self):
        overlapping = MINIMAL_SPEC + "vehicle_nfs = BT in 5, 9\n"
        with pytest.raises(SchemaError, match="overlap"):
            parse_spec(overlapping, "mini")

    @pytest.mark.parametrize("text, section", [
        (MINIMAL_SPEC.replace("K = 4", "K = 4, 00"), "crash.kabco_codes"),
        (MILEAGE_SPEC.replace("local = 7", "local = 7, 1"), "mileage.class_codes"),
        (MILEAGE_SPEC.replace("rural = r", "rural = r, U"), "mileage.area_codes"),
        (SHARES_SPEC.replace("other = o", "other = o, A"), "shares.group_codes"),
        (SHARES_SPEC + "[shares.area_codes]\nurban = 1\nrural = 1\n", "shares.area_codes"),
    ], ids=["kabco", "class", "mileage_area", "group", "share_area"])
    def test_code_mapped_twice_names_the_section(self, text, section):
        with pytest.raises(SchemaError, match=rf"\[{section}\]: code .* mapped twice"):
            parse_spec(text, "dup")

    def test_trailing_comma_in_code_map_rejected(self):
        with pytest.raises(SchemaError, match=r"\[crash.kabco_codes\]: empty item"):
            parse_spec(MINIMAL_SPEC.replace("K = 4", "K = 4,"), "mini")

    def test_missing_section_rejected(self):
        broken = MINIMAL_SPEC.replace("[vehicle]", "[misc]").replace(
            "[vehicle.rules]", "[misc.rules]")
        with pytest.raises(SchemaError):
            parse_spec(broken, "mini")


class TestLoadSchema:
    def test_shipped_specs_all_load(self):
        names = shipped_specs()
        assert set(names) >= {"crss", "fars_national", "fars_fatal", "adot",
                              "switrs", "fhwa_vm2", "fhwa_vm4", "adot_cpm",
                              "ca_prd"}
        for name in names:
            load_schema(name)

    def test_path_beats_shipped_name(self, tmp_path):
        path = tmp_path / "mini.spec"
        path.write_text(MINIMAL_SPEC)
        spec = load_schema(str(path))
        assert spec.tag == "mini"

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_spec_file_lines_may_end_in_any_newline(self, tmp_path, ending):
        path = tmp_path / "mini.spec"
        path.write_bytes(MINIMAL_SPEC.replace("\n", ending).encode())
        assert load_schema(str(path)) == parse_spec(MINIMAL_SPEC, str(path))

    def test_unknown_name_rejected(self):
        with pytest.raises(SchemaError, match="no shipped spec"):
            load_schema("nope_not_here")

    def test_fatal_road_variant_is_stricter(self):
        merged = load_schema("fars_national")
        fatal_only = load_schema("fars_fatal")
        # Functional system 2 is a freeway: kept when merging into the
        # interstate-only national set, excluded in the fatal-only rule.
        row = {"FUNC_SYS": "2"}
        assert merged.crash.road.classify(row) == (RoadClass.SURFACE_STREET, True)
        assert fatal_only.crash.road.classify(row) == \
            (RoadClass.EXCLUDED_HIGHWAY, True)
