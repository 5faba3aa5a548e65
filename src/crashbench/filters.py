"""Subset selection and severity classification for benchmark counting.

The comparable-driving subset is defined on two axes: road type (surface
streets only) and vehicle type (in-transport passenger vehicles, with
not-further-specified vehicles kept apart for the imputation weight that
``rates.resolve_imputation`` decides).

Crashes are counted from columns.  A fold turns each crash into one entry
of parallel per-crash lists (``CrashColumns``): its weight and road class,
its units tallied by where they count (``unit_effect``), and its severity
evidence (``crash_evidence`` plus what its eligible units add).  The
canonical reader (``interchange.read_crashes``, ``read_vehicles``) folds
canonical rows, of a CSV file or of a raw source held in memory, straight
into those lists; ``select_subset`` encodes crash and vehicle records to
rows and folds them the same way.
Severity is a property of the crash, classified once per crash into a bit
mask over ``model.OBSERVED_LEVELS`` when a ``Subset`` is classified,
because whether tow and airbag come from units or from crash flags is
decided for the whole dataset.  Every tally then reads the subset's
columns; the surface subset is a selection of the all-roads columns on
the road-class column.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields, replace
from functools import cache
from itertools import chain, compress, repeat
from operator import is_, ne
from typing import Iterable

from .errors import ValidationError
from .model import (
    BodyClass,
    CrashEvent,
    Kabco,
    OBSERVED_LEVELS,
    Region,
    RoadClass,
    SeverityLevel,
    VehicleInvolvement,
)


# Bit i of a severity mask stands for OBSERVED_LEVELS[i].
_BIT = {level: 1 << i for i, level in enumerate(OBSERVED_LEVELS)}
_TOW, _AIRBAG = _BIT[SeverityLevel.TOW_AWAY], _BIT[SeverityLevel.AIRBAG_DEPLOYED]
_CHAIN = sum(_BIT.values()) & ~(_TOW | _AIRBAG)
# Evidence bits above the mask's: an eligible unit was towed, or had an
# airbag deployed.  Evidence stays below ``_UNIT_AIRBAG << 1``, the size of
# the classification table ``_severity_of``.
_UNIT_TOW, _UNIT_AIRBAG = 1 << len(OBSERVED_LEVELS), 1 << (len(OBSERVED_LEVELS) + 1)
# The injury chain's bits for each max KABCO.
_KABCO_BITS = {
    kabco: (_BIT[SeverityLevel.POLICE_REPORTED]
            | (_BIT[SeverityLevel.ANY_INJURY_REPORTED] if kabco.is_injury else 0)
            | (_BIT[SeverityLevel.SUSPECTED_SERIOUS_INJURY_PLUS]
               if kabco.is_suspected_serious_plus else 0)
            | (_BIT[SeverityLevel.FATAL] if kabco is Kabco.K else 0))
    for kabco in Kabco
}


def crash_evidence(max_kabco: Kabco, tow_away: bool, airbag_deployed: bool) -> int:
    """A crash's severity evidence before its units are folded in: the
    injury chain's bits for its max KABCO and its crash-level flags."""
    return (_KABCO_BITS[max_kabco] | (_TOW if tow_away else 0)
            | (_AIRBAG if airbag_deployed else 0))


def unit_effect(body_class: BodyClass, in_transport: bool, towed: bool,
                airbag_deployed: bool) -> tuple[str, int]:
    """Where one unit counts: the ``CrashColumns`` tally it adds one to, and
    the evidence bits it adds to its crash.  Only retained units, in-transport
    passenger and NFS vehicles, can make their crash tow-away or airbag."""
    if body_class is BodyClass.NON_VEHICLE:
        return "non_vehicle", 0
    if not in_transport:
        return "not_in_transport", 0
    if body_class is BodyClass.OTHER_VEHICLE:
        return "other", 0
    bits = (_UNIT_TOW if towed else 0) | (_UNIT_AIRBAG if airbag_deployed else 0)
    return ("passenger" if body_class is BodyClass.PASSENGER else "nfs"), bits


@cache
def _severity_of(tow_from_units: bool, airbag_from_units: bool) -> tuple[int, ...]:
    """The severity mask of every evidence value: the single classification
    rule.  Tow and airbag come from eligible units where the source has
    unit-level data, from the crash-level folds otherwise."""
    tow = _UNIT_TOW if tow_from_units else _TOW
    airbag = _UNIT_AIRBAG if airbag_from_units else _AIRBAG
    return tuple((evidence & _CHAIN) | (_TOW if evidence & tow else 0)
                 | (_AIRBAG if evidence & airbag else 0)
                 for evidence in range(_UNIT_AIRBAG << 1))


@dataclass(frozen=True)
class ImputationWeight:
    """Passenger fraction among classified vehicles in a subset, as
    ``rates.resolve_imputation`` decides it."""

    w: float
    passenger: float          # weighted classified passenger vehicles
    other: float              # weighted classified non-passenger vehicles


@dataclass
class CrashColumns:
    """Crashes as parallel lists, one entry per crash: everything the
    tallies read.  The unit tallies are filled by ``unit_effect``."""

    crash_id: list[str] = field(default_factory=list)
    weight: list[float] = field(default_factory=list)        # sample weight
    road_class: list[RoadClass] = field(default_factory=list)
    evidence: list[int] = field(default_factory=list)        # see crash_evidence
    passenger: list[int] = field(default_factory=list)       # retained passenger units
    nfs: list[int] = field(default_factory=list)             # retained NFS units
    other: list[int] = field(default_factory=list)           # in-transport non-passenger
    non_vehicle: list[int] = field(default_factory=list)     # excluded non-vehicle units
    not_in_transport: list[int] = field(default_factory=list)  # excluded, not in transport

    @classmethod
    def of_crashes(cls, crash_id: list[str], weight: list[float],
                   road_class: list[RoadClass], evidence: list[int]) -> CrashColumns:
        """Columns for crashes with no units folded in yet."""
        n = len(crash_id)
        return cls(crash_id, weight, road_class, evidence,
                   [0] * n, [0] * n, [0] * n, [0] * n, [0] * n)

    @classmethod
    def concat(cls, parts: Iterable[CrashColumns]) -> CrashColumns:
        """The crashes of every part, in order; a lone part is returned as is."""
        parts = [part for part in parts if part.crash_id]
        if len(parts) == 1:
            return parts[0]
        return cls(*(list(chain.from_iterable(getattr(part, f.name) for part in parts))
                     for f in fields(cls)))

    def fatal(self) -> list[bool]:
        """Whether each crash's max KABCO is K."""
        fatal = _BIT[SeverityLevel.FATAL]
        return [evidence & fatal != 0 for evidence in self.evidence]

    def select(self, keep: list[bool]) -> CrashColumns:
        """The crashes whose ``keep`` entry is true."""
        return CrashColumns(*(list(compress(getattr(self, f.name), keep))
                              for f in fields(self)))


@dataclass
class Subset:
    """Classified crash columns plus selection bookkeeping."""

    columns: CrashColumns
    severity: list[int]                     # bit i set when OBSERVED_LEVELS[i] holds
    road: str                               # surface | all
    tow_from_units: bool
    airbag_from_units: bool
    weighted: bool
    exclusions: Counter = field(default_factory=Counter)
    caveats: tuple[str, ...] = ()

    @classmethod
    def classify(cls, columns: CrashColumns, *, tow_from_units: bool,
                 airbag_from_units: bool, caveats: tuple[str, ...] = ()) -> Subset:
        """The all-roads subset of every crash in ``columns``, each crash's
        severity classified once under the dataset's tow and airbag basis.
        It is weighted when any crash's sample weight is not 1."""
        severity_of = _severity_of(tow_from_units, airbag_from_units)
        return cls(
            columns=columns,
            severity=list(map(severity_of.__getitem__, columns.evidence)),
            road="all",
            tow_from_units=tow_from_units,
            airbag_from_units=airbag_from_units,
            weighted=any(map(ne, columns.weight, repeat(1.0))),
            exclusions=_unit_exclusions(columns),
            caveats=caveats,
        )

    def surface(self) -> Subset:
        """This all-roads subset's surface-street crashes, with dropped
        crashes counted and unit exclusions summed over kept ones."""
        if self.road != "all":
            raise ValueError("a surface subset derives from an all-roads subset")
        roads = self.columns.road_class
        keep = list(map(is_, roads, repeat(RoadClass.SURFACE_STREET)))
        columns = self.columns.select(keep)
        exclusions = _unit_exclusions(columns) + Counter({
            "crash_road_excluded": roads.count(RoadClass.EXCLUDED_HIGHWAY),
            "crash_road_unknown": roads.count(RoadClass.UNKNOWN),
        })
        return replace(self, columns=columns, severity=list(compress(self.severity, keep)),
                       road="surface", exclusions=exclusions)


def _unit_exclusions(columns: CrashColumns) -> Counter:
    """Excluded units summed over crashes; zero counts are left out."""
    return +Counter({
        "unit_non_vehicle": sum(columns.non_vehicle),
        "unit_not_in_transport": sum(columns.not_in_transport),
        "unit_other_vehicle": sum(columns.other),
    })


def select_subset(
    crashes: list[CrashEvent],
    vehicles: list[VehicleInvolvement],
    *,
    road: str = "surface",
    unit_tow_flags: bool = True,
    unit_airbag_flags: bool = True,
    caveats: tuple[str, ...] = (),
) -> Subset:
    """Classify every crash of a record list once and filter units to the
    comparable subset.

    The records are encoded to canonical rows and folded by the fold that
    ``report`` runs (``interchange.read_crashes``, ``read_vehicles``), so
    they must be of one region and year and their crash ids distinct;
    otherwise ValidationError.  Every crash is kept, which is the
    all-roads subset (``road="all"``), and ``road="surface"`` derives the
    surface-street subset from it (``Subset.surface``).  Vehicle filtering
    keeps in-transport passenger and NFS units; classified non-passenger
    units are tallied per crash for the imputation weight but are not
    retained.  Crashes with no retained units keep empty unit tallies; a
    vehicle of a crash not given is not counted.
    """
    from . import interchange       # imported here: interchange imports this module

    if road not in ("surface", "all"):
        raise ValueError(f"road must be 'surface' or 'all', got {road!r}")
    places = {(c.region, c.year) for c in crashes}
    if len(places) > 1:
        raise ValidationError("crash records of more than one region and year: " + ", ".join(
            sorted(f"{region.name} {year}" for region, year in places)))
    region, year = next(iter(places), (Region.national(), 0))
    fold = interchange.read_crashes(
        interchange.Rows("crash records", interchange.encode("crashes", crashes)),
        region, year)
    interchange.read_vehicles(
        interchange.Rows("vehicle records", interchange.encode("vehicles", vehicles)), fold)
    subset = Subset.classify(
        fold.columns, tow_from_units=unit_tow_flags,
        airbag_from_units=unit_airbag_flags, caveats=caveats,
    )
    return subset.surface() if road == "surface" else subset


def audit_subset(subset: Subset, imputation: ImputationWeight | None) -> dict:
    """Filter-audit payload: retention, exclusions, flag bases, caveats."""
    columns = subset.columns
    return {
        "road": subset.road,
        "in_transport_only": True,         # units not in transport never count
        "crashes_retained": len(columns.crash_id),
        "vehicles_retained": sum(columns.passenger) + sum(columns.nfs),
        "weighted": subset.weighted,
        "exclusions": dict(sorted(subset.exclusions.items())),
        "tow_basis": "subset_units" if subset.tow_from_units else "crash_flag",
        "airbag_basis": "subset_units" if subset.airbag_from_units else "crash_flag",
        "imputation": None if imputation is None else {
            "w": imputation.w,
            "classified_passenger": imputation.passenger,
            "classified_other": imputation.other,
        },
        "caveats": list(subset.caveats),
    }
