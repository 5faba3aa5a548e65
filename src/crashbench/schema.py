"""Declarative adapter specs for raw crash and mileage layouts.

Each supported source layout is described by a human-readable .spec file
(INI syntax) instead of per-source code, so the code-table transcription
can be audited line by line against the source documentation.  The specs
shipped with the package live in ``crashbench/specs``.

A spec holds only the sections and keys that ``parse_spec`` reads for its
kind.  Any other is a SchemaError naming the spec, the section and the
key: a misspelt key, or a code table the spec never uses, such as
``[crash.kabco_codes]`` without a ``kabco_column``.  ``[DEFAULT]`` is not
special, so it too is an unknown section.  An empty value is an absent one.

A crash spec names the id/weight/severity columns and gives
classification rules.  A crash's KABCO is read from ``[crash]
kabco_column`` when the spec gives one, and is otherwise the highest
among its persons' (``[person] kabco_column``).  Rules use a small
expression language::

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

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import SchemaError, _Ini, _opened
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
    crash: CrashSchema | None
    vehicle: VehicleSchema | None
    person: PersonSchema | None
    mileage: MileageSchema | None
    shares: ShareSchema | None
    caveats: tuple[str, ...]
    tow_level: str                # vehicle | crash | none

    def validate(self) -> None:
        """Cross-section checks of a crash spec.  ``parse_spec`` has already
        rejected an unknown kind, a missing required key and a section or
        key it does not read."""
        if self.kind != "crash":
            return
        if self.crash.kabco is None and (self.person is None or self.person.kabco is None):
            raise SchemaError(f"spec {self.tag}: needs a crash or a person kabco_column")
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


def _one_of(choices: dict):
    """A value parser for ``_Ini.get``: what ``choices`` maps the text to."""
    def parse(text: str, where: str):
        if text not in choices:
            raise SchemaError(f"{where}: expected one of {sorted(choices)}, got {text!r}")
        return choices[text]
    return parse


_ROAD_DEFAULT = _one_of({"surface": RoadClass.SURFACE_STREET,
                         "excluded": RoadClass.EXCLUDED_HIGHWAY,
                         "unknown": RoadClass.UNKNOWN})
_VMT_UNIT = _one_of({n: n for n in ("millions", "thousands", "miles")})
_AREA_DEFAULT = _one_of(_CANONICAL_AREA)
_SHARE_VALUES = _one_of({n: n for n in ("percent", "fraction")})


def _code_map(ini: _Ini, section: str, canon_index: dict) -> CodeMap:
    """The code table in ``[section]``."""
    context = f"{ini.label} [{section}]"
    codes: dict = {}
    for canon_name, raw_codes in ini.items(section):
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


def parse_spec(text: str, name: str) -> SchemaSpec:
    ini = _Ini(text, f"spec {name}", SchemaError)
    get = ini.get
    tag = get("source", "tag", required=True)
    kind = get("source", "kind") or "crash"
    caveats = tuple(c.strip() for c in (get("source", "caveats") or "").splitlines()
                    if c.strip())
    # kind picks the sections read next, so a misspelt kind is named first.
    ini.check("source")

    crash = vehicle = person = mileage = shares = None
    tow_level = "none"

    if kind == "crash":
        road = RoadRules(
            surface=get("crash.road", "surface", parse=Rule.parse),
            excluded=get("crash.road", "excluded", parse=Rule.parse),
            default=get("crash.road", "default", parse=_ROAD_DEFAULT) or RoadClass.UNKNOWN,
        )
        if road.surface is None and road.excluded is None:
            raise SchemaError(f"spec {name}: [crash.road] needs surface or excluded")
        kabco_column = get("crash", "kabco_column")
        crash = CrashSchema(
            id_column=get("crash", "id", required=True),
            year_column=get("crash", "year"),
            weight_column=get("crash", "weight"),
            kabco_column=kabco_column,
            kabco=(_code_map(ini, "crash.kabco_codes", _CANONICAL_KABCO)
                   if kabco_column is not None else None),
            road=road,
            towed=get("crash.rules", "towed", parse=Rule.parse),
        )
        vehicle = VehicleSchema(
            id_column=get("vehicle", "id", required=True),
            crash_column=get("vehicle", "crash_id") or crash.id_column,
            passenger=get("vehicle.rules", "passenger", required=True, parse=Rule.parse),
            vehicle_nfs=get("vehicle.rules", "vehicle_nfs", parse=Rule.parse),
            non_vehicle=get("vehicle.rules", "non_vehicle", parse=Rule.parse),
            in_transport=get("vehicle.rules", "in_transport", required=True,
                             parse=Rule.parse),
            towed=get("vehicle.rules", "towed", parse=Rule.parse),
            airbag=get("vehicle.rules", "airbag", parse=Rule.parse),
        )
        if ini.has("person"):
            pk_column = get("person", "kabco_column")
            person = PersonSchema(
                id_column=get("person", "id", required=True),
                crash_column=get("person", "crash_id") or crash.id_column,
                unit_column=get("person", "unit_id"),
                unit_null_codes=get("person", "unit_null_codes", parse=CodeSet.parse),
                kabco_column=pk_column,
                kabco=(_code_map(ini, "person.kabco_codes", _CANONICAL_KABCO)
                       if pk_column is not None else None),
                airbag=get("person.rules", "airbag", parse=Rule.parse),
            )
        if crash.towed is not None:
            tow_level = "crash"
        elif vehicle.towed is not None:
            tow_level = "vehicle"

    elif kind == "mileage":
        mileage = MileageSchema(
            class_column=get("mileage", "class_column", required=True),
            vmt_column=get("mileage", "vmt_column", required=True),
            class_codes=_code_map(ini, "mileage.class_codes", _CANONICAL_CLASS),
            area_column=get("mileage", "area_column"),
            area_codes=(_code_map(ini, "mileage.area_codes", _CANONICAL_AREA)
                        if ini.has("mileage.area_codes") else _CANONICAL_AREA_CODES),
            area_default=get("mileage", "area_default", parse=_AREA_DEFAULT) or AreaType.ALL,
            year_column=get("mileage", "year_column"),
            vmt_unit=get("mileage", "vmt_unit", parse=_VMT_UNIT) or "millions",
        )

    elif kind == "shares":
        shares = ShareSchema(
            state_column=get("shares", "state_column", required=True),
            area_column=get("shares", "area_column", required=True),
            group_column=get("shares", "group_column", required=True),
            share_column=get("shares", "share_column", required=True),
            values=get("shares", "values", parse=_SHARE_VALUES) or "fraction",
            group_codes=_code_map(ini, "shares.group_codes", _CANONICAL_GROUP),
            area_codes=(_code_map(ini, "shares.area_codes", _CANONICAL_AREA)
                        if ini.has("shares.area_codes") else _CANONICAL_AREA_CODES),
        )

    else:
        raise SchemaError(f"spec {name}: [source] kind: unknown kind {kind!r}")

    ini.check()
    spec = SchemaSpec(
        tag=tag,
        kind=kind,
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
