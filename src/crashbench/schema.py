"""Declarative adapter specs for raw crash and mileage layouts.

Each supported source layout is described by a human-readable .spec file
(INI syntax) instead of per-source code, so the code-table transcription
can be audited line by line against the source documentation.  The specs
shipped with the package live in ``crashbench/specs``.

A crash spec names the id/weight/severity columns and gives
classification rules.  Rules use a small expression language::

    passenger  = BODY_TYP in 1:17, 19:25, 28:42, 45:49
    surface    = GeocodeOnRoad contains_token "St","Ave","Rd" or PostedSpeed <= 45
    vehicle_nfs = party_type in 1 and stwd_vehicle_type is null

Grammar, informally:

    expr     = disjunct { "or" disjunct }
    disjunct = clause { "and" clause }
    clause   = COLUMN "in" codes | COLUMN "not_in" codes
             | COLUMN "is null" | COLUMN "is not null"
             | COLUMN "contains_token" codes
             | COLUMN ("<=" | "<" | ">=" | ">") NUMBER
    codes    = code { "," code }        a code is an integer, a:b range,
                                        or a (possibly quoted) string

Evaluation is three-valued: a clause over a missing cell yields unknown
(None) rather than false, so records with missing classifier fields can
be routed to an explicit unknown/NFS bucket and counted, never silently
misclassified.  ``contains_token`` splits the cell on whitespace and
matches a code if its tokens appear as a consecutive run, case
insensitive, so a multi-word code like "Mc 85" matches "W Mc 85".
"""

from __future__ import annotations

import configparser
import io
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import SchemaError, _opened
from .model import (
    AreaType,
    FunctionalClass,
    Kabco,
    RoadClass,
    ShareGroup,
)

# ---------------------------------------------------------------------------
# Expression language


def _is_null(cell: str | None) -> bool:
    return cell is None or cell.strip() == ""


@dataclass(frozen=True)
class CodeSet:
    """Integer codes, integer ranges, and string codes, matched case-insensitively."""

    ints: frozenset[int]
    ranges: tuple[tuple[int, int], ...]
    strings: frozenset[str]

    @classmethod
    def parse(cls, text: str, context: str) -> CodeSet:
        ints, ranges, strings = set(), [], set()
        for item in _split_codes(text, context):
            if re.fullmatch(r"-?\d+", item):
                ints.add(int(item))
            elif m := re.fullmatch(r"(-?\d+)\s*:\s*(-?\d+)", item):
                lo, hi = int(m.group(1)), int(m.group(2))
                if lo > hi:
                    raise SchemaError(f"{context}: empty range {item!r}")
                ranges.append((lo, hi))
            else:
                strings.add(item.casefold())
        return cls(frozenset(ints), tuple(ranges), frozenset(strings))

    def contains(self, cell: str) -> bool:
        text = cell.strip()
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is not None:
            if value in self.ints:
                return True
            if any(lo <= value <= hi for lo, hi in self.ranges):
                return True
        return text.casefold() in self.strings

    def static_values(self) -> frozenset:
        """Every concrete value the set matches; used for disjointness checks."""
        values = set(self.strings)
        values.update(self.ints)
        for lo, hi in self.ranges:
            values.update(range(lo, hi + 1))
        return frozenset(values)


def _split_codes(text: str, context: str) -> list[str]:
    items, buf, in_quote = [], [], False
    for ch in text:
        if ch == '"':
            in_quote = not in_quote
        elif ch == "," and not in_quote:
            items.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    if in_quote:
        raise SchemaError(f"{context}: unbalanced quote in {text!r}")
    items.append("".join(buf).strip())
    if items == [""]:
        raise SchemaError(f"{context}: empty code list")
    if "" in items:
        raise SchemaError(f"{context}: empty item in code list {text!r}")
    return items


@dataclass(frozen=True)
class Clause:
    column: str
    op: str                       # in | not_in | is_null | is_not_null | contains_token | <= | < | >= | >
    codes: CodeSet | None = None
    number: float | None = None

    def eval(self, row: dict) -> bool | None:
        cell = row.get(self.column)
        if self.op == "is_null":
            return _is_null(cell)
        if self.op == "is_not_null":
            return not _is_null(cell)
        if _is_null(cell):
            return None
        if self.op == "in":
            return self.codes.contains(cell)
        if self.op == "not_in":
            return not self.codes.contains(cell)
        if self.op == "contains_token":
            return _contains_token(cell, self.codes)
        try:
            value = float(cell)
        except ValueError:
            return None
        if self.op == "<=":
            return value <= self.number
        if self.op == "<":
            return value < self.number
        if self.op == ">=":
            return value >= self.number
        return value > self.number


def _contains_token(cell: str, codes: CodeSet) -> bool:
    tokens = [t.casefold() for t in cell.split()]
    if not tokens:
        return False
    patterns = [tuple(s.split()) for s in codes.strings]
    for pattern in patterns:
        n = len(pattern)
        for i in range(len(tokens) - n + 1):
            if tuple(tokens[i:i + n]) == pattern:
                return True
    # integer codes match as single tokens
    for value in codes.ints:
        if str(value) in tokens:
            return True
    return False


_CLAUSE_RE = re.compile(
    r"^\s*(?P<col>\w+)\s+"
    r"(?:(?P<isop>is\s+not\s+null|is\s+null)"
    r"|(?P<op>in|not_in|contains_token|<=|<|>=|>)\s+(?P<rest>.+?))\s*$"
)


@dataclass(frozen=True)
class Rule:
    """An or-of-ands expression over raw row cells."""

    text: str
    disjuncts: tuple[tuple[Clause, ...], ...]

    @classmethod
    def parse(cls, text: str, context: str) -> Rule:
        disjuncts = []
        for disjunct_text in _split_keyword(text, "or", context):
            clauses = []
            for clause_text in _split_keyword(disjunct_text, "and", context):
                clauses.append(_parse_clause(clause_text, context))
            disjuncts.append(tuple(clauses))
        return cls(text=" ".join(text.split()), disjuncts=tuple(disjuncts))

    def eval(self, row: dict) -> bool | None:
        any_unknown = False
        for clauses in self.disjuncts:
            value = True
            for clause in clauses:
                v = clause.eval(row)
                if v is False:
                    value = False
                    break
                if v is None:
                    value = None
            if value is True:
                return True
            if value is None:
                any_unknown = True
        return None if any_unknown else False

    def columns(self) -> set[str]:
        return {c.column for d in self.disjuncts for c in d}

    def single_in_codes(self) -> tuple[str, frozenset] | None:
        """(column, values) when this rule is a single membership test."""
        if len(self.disjuncts) == 1 and len(self.disjuncts[0]) == 1:
            clause = self.disjuncts[0][0]
            if clause.op == "in":
                return clause.column, clause.codes.static_values()
        return None


def _split_keyword(text: str, keyword: str, context: str) -> list[str]:
    """Split on a bare keyword outside quotes."""
    parts = []
    tokens = re.split(r'(".*?"|\s+)', text)
    current = []
    for token in tokens:
        if token is None or token == "":
            continue
        if not token.startswith('"') and token.strip() == keyword:
            current_text = "".join(current).strip()
            if not current_text:
                raise SchemaError(f"{context}: dangling {keyword!r} in {text!r}")
            parts.append(current_text)
            current = []
        else:
            current.append(token)
    tail = "".join(current).strip()
    if not tail:
        raise SchemaError(f"{context}: dangling {keyword!r} in {text!r}")
    parts.append(tail)
    return parts


def _parse_clause(text: str, context: str) -> Clause:
    m = _CLAUSE_RE.match(text)
    if not m:
        raise SchemaError(f"{context}: cannot parse clause {text!r}")
    column = m.group("col")
    if m.group("isop"):
        op = "is_null" if "not" not in m.group("isop") else "is_not_null"
        return Clause(column=column, op=op)
    op = m.group("op")
    rest = m.group("rest")
    if op in ("<=", "<", ">=", ">"):
        try:
            return Clause(column=column, op=op, number=float(rest))
        except ValueError:
            raise SchemaError(f"{context}: {op} needs a number, got {rest!r}")
    return Clause(column=column, op=op, codes=CodeSet.parse(rest, context))


# ---------------------------------------------------------------------------
# Spec sections


@dataclass(frozen=True)
class CodeMap:
    """One spec code table: normalized raw code -> canonical value.

    Every table a spec declares (KABCO, functional class, area type, share
    group) is one of these, built by ``_code_map``, which rejects a raw
    code mapped twice.
    """

    codes: dict

    def get(self, cell: str | None):
        """The canonical value of a raw cell; None when it is empty or unmapped."""
        if _is_null(cell):
            return None
        return self.codes.get(_normalize_code(cell))


def _normalize_code(cell: str) -> str:
    text = cell.strip()
    try:
        return str(int(text))
    except ValueError:
        return text.casefold()


@dataclass(frozen=True)
class RoadRules:
    surface: Rule | None
    excluded: Rule | None
    default: RoadClass

    def classify(self, row: dict) -> tuple[RoadClass, bool]:
        """(class, known).  Unknown means a classifier field was missing."""
        s = self.surface.eval(row) if self.surface is not None else False
        if s is True:
            return RoadClass.SURFACE_STREET, True
        e = self.excluded.eval(row) if self.excluded is not None else False
        if e is True:
            return RoadClass.EXCLUDED_HIGHWAY, True
        if s is None or e is None:
            return RoadClass.UNKNOWN, False
        return self.default, True


@dataclass(frozen=True)
class CrashSchema:
    id_column: str
    year_column: str | None
    weight_column: str | None
    kabco_column: str | None      # None when severity is folded from persons
    kabco: CodeMap | None
    road: RoadRules
    towed: Rule | None            # crash-level tow flag, where the source has one


@dataclass(frozen=True)
class VehicleSchema:
    id_column: str
    crash_column: str
    passenger: Rule
    vehicle_nfs: Rule | None
    non_vehicle: Rule | None
    in_transport: Rule
    towed: Rule | None
    airbag: Rule | None


@dataclass(frozen=True)
class PersonSchema:
    id_column: str
    crash_column: str
    unit_column: str | None
    unit_null_codes: CodeSet | None   # unit refs meaning "not an occupant"
    kabco_column: str | None
    kabco: CodeMap | None
    airbag: Rule | None


@dataclass(frozen=True)
class MileageSchema:
    class_column: str
    vmt_column: str
    class_codes: CodeMap
    area_column: str | None
    area_codes: CodeMap
    area_default: AreaType
    year_column: str | None
    vmt_unit: str                 # millions | thousands | miles

    def to_millions(self, value: float) -> float:
        if self.vmt_unit == "millions":
            return value
        if self.vmt_unit == "thousands":
            return value / 1000.0
        return value / 1e6


@dataclass(frozen=True)
class ShareSchema:
    state_column: str
    area_column: str
    group_column: str
    share_column: str
    values: str                   # percent | fraction
    group_codes: CodeMap
    area_codes: CodeMap


@dataclass(frozen=True)
class SchemaSpec:
    """A parsed adapter spec for one source layout."""

    tag: str
    kind: str                     # crash | mileage | shares
    weighted: bool
    kabco_from: str               # crash | person
    crash: CrashSchema | None
    vehicle: VehicleSchema | None
    person: PersonSchema | None
    mileage: MileageSchema | None
    shares: ShareSchema | None
    caveats: tuple[str, ...]
    tow_level: str                # vehicle | crash | none

    def validate(self) -> None:
        """Cross-section checks of a crash spec.  ``parse_spec`` has already
        rejected an unknown kind and a missing section."""
        if self.kind != "crash":
            return
        if self.kabco_from == "crash" and self.crash.kabco is None:
            raise SchemaError(f"spec {self.tag}: kabco_from=crash needs a crash kabco column")
        if self.kabco_from == "person" and (
            self.person is None or self.person.kabco is None
        ):
            raise SchemaError(f"spec {self.tag}: kabco_from=person needs a person kabco column")
        _check_disjoint(self.tag, self.vehicle)


def _check_disjoint(tag: str, vehicle: VehicleSchema) -> None:
    """Body-class code sets that test the same column must not overlap."""
    seen: dict[str, dict] = {}
    for name, rule in (
        ("passenger", vehicle.passenger),
        ("vehicle_nfs", vehicle.vehicle_nfs),
        ("non_vehicle", vehicle.non_vehicle),
    ):
        if rule is None:
            continue
        single = rule.single_in_codes()
        if single is None:
            continue
        column, values = single
        for other_name, other_values in seen.get(column, {}).items():
            overlap = values & other_values
            if overlap:
                raise SchemaError(
                    f"spec {tag}: {name} and {other_name} overlap on {column}: "
                    f"{sorted(overlap, key=str)}"
                )
        seen.setdefault(column, {})[name] = values
    # person-folded all-null rules cannot be checked statically; that is fine


# ---------------------------------------------------------------------------
# Spec file parsing

_CANONICAL_KABCO = {k.value: k for k in Kabco}
_CANONICAL_CLASS = {c.value: c for c in FunctionalClass}
_CANONICAL_AREA = {a.value: a for a in AreaType}
_CANONICAL_GROUP = {g.value: g for g in ShareGroup}
# Area cells may hold the canonical names when a spec declares no area table.
_CANONICAL_AREA_CODES = CodeMap(dict(_CANONICAL_AREA))


def _parse_bool_key(value: str, context: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise SchemaError(f"{context}: expected a boolean, got {value!r}")


def _code_map(parser, section: str, canon_index: dict, name: str) -> CodeMap:
    """The code table in ``[section]`` of spec ``name``."""
    context = f"spec {name} [{section}]"
    if section not in parser:
        raise SchemaError(f"spec {name}: [{section}] missing")
    codes: dict = {}
    for canon_name, raw_codes in parser[section].items():
        canon = canon_index.get(canon_name)
        if canon is None:
            raise SchemaError(f"{context}: unknown canonical value {canon_name!r}")
        for raw in _split_codes(raw_codes, context):
            key = _normalize_code(raw)
            if key in codes:
                raise SchemaError(f"{context}: code {raw!r} mapped twice")
            codes[key] = canon
    if not codes:
        raise SchemaError(f"{context}: empty code map")
    return CodeMap(codes)


def _get(section, key, context, required=False) -> str | None:
    value = section.get(key)
    if value is None or not value.strip():
        if required:
            raise SchemaError(f"{context}: missing required key {key!r}")
        return None
    return value.strip()


def _rule(section, key, context, required=False) -> Rule | None:
    text = _get(section, key, context, required=required)
    if text is None:
        return None
    return Rule.parse(text, f"{context}.{key}")


def parse_spec(text: str, name: str) -> SchemaSpec:
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",), strict=True
    )
    parser.optionxform = str
    try:
        # Lines may end in \n, \r\n or \r (universal newlines).
        parser.read_file(io.StringIO(text, newline=None), source=name)
    except configparser.Error as exc:
        raise SchemaError(f"spec {name}: {exc}") from None

    if "source" not in parser:
        raise SchemaError(f"spec {name}: missing [source] section")
    source = parser["source"]
    tag = _get(source, "tag", f"spec {name} [source]", required=True)
    kind = _get(source, "kind", f"spec {name}") or "crash"
    weighted = _parse_bool_key(source.get("weighted", "false"), f"spec {name} weighted")
    kabco_from = _get(source, "kabco_from", f"spec {name}") or "crash"
    if kabco_from not in ("crash", "person"):
        raise SchemaError(f"spec {name}: kabco_from must be crash or person")
    caveat_text = source.get("caveats", "")
    caveats = tuple(c.strip() for c in caveat_text.splitlines() if c.strip())

    crash = vehicle = person = mileage = shares = None
    tow_level = "none"

    if kind == "crash":
        ctx = f"spec {name} [crash]"
        if "crash" not in parser:
            raise SchemaError(f"{ctx}: section missing")
        crash_section = parser["crash"]
        kabco_column = _get(crash_section, "kabco_column", ctx)
        if "crash.road" not in parser:
            raise SchemaError(f"spec {name}: [crash.road] missing")
        road_section = parser["crash.road"]
        default_name = _get(road_section, "default", f"spec {name} [crash.road]") or "unknown"
        defaults = {"surface": RoadClass.SURFACE_STREET,
                    "excluded": RoadClass.EXCLUDED_HIGHWAY,
                    "unknown": RoadClass.UNKNOWN}
        if default_name not in defaults:
            raise SchemaError(f"spec {name}: bad road default {default_name!r}")
        default = defaults[default_name]
        road = RoadRules(
            surface=_rule(road_section, "surface", f"spec {name} [crash.road]"),
            excluded=_rule(road_section, "excluded", f"spec {name} [crash.road]"),
            default=default,
        )
        if road.surface is None and road.excluded is None:
            raise SchemaError(f"spec {name}: [crash.road] needs surface or excluded")
        crash_tow = None
        if "crash.rules" in parser:
            crash_tow = _rule(parser["crash.rules"], "towed", f"spec {name} [crash.rules]")
        crash = CrashSchema(
            id_column=_get(crash_section, "id", ctx, required=True),
            year_column=_get(crash_section, "year", ctx),
            weight_column=_get(crash_section, "weight", ctx),
            kabco_column=kabco_column,
            kabco=(_code_map(parser, "crash.kabco_codes", _CANONICAL_KABCO, name)
                   if kabco_column is not None else None),
            road=road,
            towed=crash_tow,
        )

        vctx = f"spec {name} [vehicle]"
        if "vehicle" not in parser or "vehicle.rules" not in parser:
            raise SchemaError(f"{vctx}: [vehicle] and [vehicle.rules] are required")
        vsec, vrules = parser["vehicle"], parser["vehicle.rules"]
        vehicle = VehicleSchema(
            id_column=_get(vsec, "id", vctx, required=True),
            crash_column=_get(vsec, "crash_id", vctx) or crash.id_column,
            passenger=_rule(vrules, "passenger", vctx, required=True),
            vehicle_nfs=_rule(vrules, "vehicle_nfs", vctx),
            non_vehicle=_rule(vrules, "non_vehicle", vctx),
            in_transport=_rule(vrules, "in_transport", vctx, required=True),
            towed=_rule(vrules, "towed", vctx),
            airbag=_rule(vrules, "airbag", vctx),
        )

        if "person" in parser:
            pctx = f"spec {name} [person]"
            psec = parser["person"]
            prules = parser["person.rules"] if "person.rules" in parser else {}
            pk_column = _get(psec, "kabco_column", pctx)
            null_codes_text = _get(psec, "unit_null_codes", pctx)
            person = PersonSchema(
                id_column=_get(psec, "id", pctx, required=True),
                crash_column=_get(psec, "crash_id", pctx) or crash.id_column,
                unit_column=_get(psec, "unit_id", pctx),
                unit_null_codes=(CodeSet.parse(null_codes_text, pctx)
                                 if null_codes_text else None),
                kabco_column=pk_column,
                kabco=(_code_map(parser, "person.kabco_codes", _CANONICAL_KABCO, name)
                       if pk_column is not None else None),
                airbag=_rule(prules, "airbag", pctx) if prules else None,
            )

        if crash.towed is not None:
            tow_level = "crash"
        elif vehicle.towed is not None:
            tow_level = "vehicle"

    elif kind == "mileage":
        ctx = f"spec {name} [mileage]"
        if "mileage" not in parser or "mileage.class_codes" not in parser:
            raise SchemaError(f"{ctx}: [mileage] and [mileage.class_codes] are required")
        msec = parser["mileage"]
        unit = _get(msec, "vmt_unit", ctx) or "millions"
        if unit not in ("millions", "thousands", "miles"):
            raise SchemaError(f"{ctx}: vmt_unit must be millions, thousands, or miles")
        area_default_name = _get(msec, "area_default", ctx) or "all"
        if area_default_name not in _CANONICAL_AREA:
            raise SchemaError(f"{ctx}: bad area_default {area_default_name!r}")
        mileage = MileageSchema(
            class_column=_get(msec, "class_column", ctx, required=True),
            vmt_column=_get(msec, "vmt_column", ctx, required=True),
            class_codes=_code_map(parser, "mileage.class_codes", _CANONICAL_CLASS, name),
            area_column=_get(msec, "area_column", ctx),
            area_codes=(_code_map(parser, "mileage.area_codes", _CANONICAL_AREA, name)
                        if "mileage.area_codes" in parser else _CANONICAL_AREA_CODES),
            area_default=_CANONICAL_AREA[area_default_name],
            year_column=_get(msec, "year_column", ctx),
            vmt_unit=unit,
        )

    elif kind == "shares":
        ctx = f"spec {name} [shares]"
        if "shares" not in parser or "shares.group_codes" not in parser:
            raise SchemaError(f"{ctx}: [shares] and [shares.group_codes] are required")
        ssec = parser["shares"]
        values = _get(ssec, "values", ctx) or "fraction"
        if values not in ("percent", "fraction"):
            raise SchemaError(f"{ctx}: values must be percent or fraction")
        shares = ShareSchema(
            state_column=_get(ssec, "state_column", ctx, required=True),
            area_column=_get(ssec, "area_column", ctx, required=True),
            group_column=_get(ssec, "group_column", ctx, required=True),
            share_column=_get(ssec, "share_column", ctx, required=True),
            values=values,
            group_codes=_code_map(parser, "shares.group_codes", _CANONICAL_GROUP, name),
            area_codes=(_code_map(parser, "shares.area_codes", _CANONICAL_AREA, name)
                        if "shares.area_codes" in parser else _CANONICAL_AREA_CODES),
        )

    else:
        raise SchemaError(f"spec {name}: unknown kind {kind!r}")

    spec = SchemaSpec(
        tag=tag,
        kind=kind,
        weighted=weighted,
        kabco_from=kabco_from,
        crash=crash,
        vehicle=vehicle,
        person=person,
        mileage=mileage,
        shares=shares,
        caveats=caveats,
        tow_level=tow_level,
    )
    spec.validate()
    return spec


def load_schema(ref: str) -> SchemaSpec:
    """Load a spec by shipped name ("crss") or by path ("specs/custom.spec")."""
    source = Path(ref)
    if re.fullmatch(r"[\w-]+", ref):
        shipped = resources.files("crashbench").joinpath("specs", f"{ref}.spec")
        if shipped.is_file():
            source = shipped
    if not source.is_file():
        raise SchemaError(f"no shipped spec or spec file named {ref!r}")
    with _opened(source, "spec file") as handle:
        return parse_spec(handle.read(), ref)


def shipped_specs() -> list[str]:
    root = resources.files("crashbench").joinpath("specs")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".spec"))
