"""Subset selection and severity classification for benchmark counting.

The comparable-driving subset is defined on two axes: road type (surface
streets only) and vehicle type (in-transport passenger vehicles, with
not-further-specified vehicles kept apart for the imputation weight that
``rates.resolve_imputation`` decides).  Severity is a property of the
crash, classified once, after unit filtering so the tow and airbag tests
only consider eligible units, into a bit mask over
``model.OBSERVED_LEVELS``; each crash becomes one ``CrashRow`` that every
tally reads.  The surface subset keeps the all-roads rows on surface
streets, sharing the objects.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .model import (
    BodyClass,
    CrashEvent,
    Kabco,
    OBSERVED_LEVELS,
    RoadClass,
    SeverityLevel,
    VehicleInvolvement,
)


# Bit i of a severity mask stands for OBSERVED_LEVELS[i].
_BIT = {level: 1 << i for i, level in enumerate(OBSERVED_LEVELS)}
# The injury chain's bits for each max KABCO; tow and airbag are added per crash.
_KABCO_BITS = {
    kabco: (_BIT[SeverityLevel.POLICE_REPORTED]
            | (_BIT[SeverityLevel.ANY_INJURY_REPORTED] if kabco.is_injury else 0)
            | (_BIT[SeverityLevel.SUSPECTED_SERIOUS_INJURY_PLUS]
               if kabco.is_suspected_serious_plus else 0)
            | (_BIT[SeverityLevel.FATAL] if kabco is Kabco.K else 0))
    for kabco in Kabco
}


def _severity_bits(crash: CrashEvent, unit_towed: bool, unit_airbag: bool,
                   tow_from_units: bool, airbag_from_units: bool) -> int:
    """Severity mask of one crash: the single classification rule.  The
    ``unit_*`` flags (any eligible unit towed / airbag deployed) decide
    where the source has unit-level data, the crash-level folds otherwise."""
    bits = _KABCO_BITS[crash.max_kabco]
    if unit_towed if tow_from_units else crash.tow_away:
        bits |= _BIT[SeverityLevel.TOW_AWAY]
    if unit_airbag if airbag_from_units else crash.airbag_deployed:
        bits |= _BIT[SeverityLevel.AIRBAG_DEPLOYED]
    return bits


def classify_severity(
    crash: CrashEvent,
    units: tuple[VehicleInvolvement, ...] = (),
    *,
    tow_from_units: bool = True,
    airbag_from_units: bool = True,
) -> frozenset[SeverityLevel]:
    """The observed severity levels of one crash given its eligible units.

    ``units`` are the crash's subset-eligible vehicles.  Where the source
    lacks unit-level tow or airbag data the crash-level folded flag is
    used instead (``*_from_units=False``).  Unknown injury codes classify
    as non-injury; the loader already counted them.
    """
    bits = _severity_bits(
        crash, any(u.towed for u in units), any(u.airbag_deployed for u in units),
        tow_from_units, airbag_from_units,
    )
    return frozenset(level for level, bit in _BIT.items() if bits & bit)


@dataclass(frozen=True)
class ImputationWeight:
    """Passenger fraction among classified vehicles in a subset, as
    ``rates.resolve_imputation`` decides it."""

    w: float
    passenger: float          # weighted classified passenger vehicles
    other: float              # weighted classified non-passenger vehicles


class CrashRow(NamedTuple):
    """One crash, classified once: everything the tallies read."""

    weight: float                           # sample weight
    passenger: int                          # retained passenger units
    nfs: int                                # retained not-further-specified units
    other: int                              # in-transport classified non-passenger
    severity: int                           # bit i set when OBSERVED_LEVELS[i] holds
    road_class: RoadClass
    non_vehicle: int                        # excluded non-vehicle units
    not_in_transport: int                   # excluded units not in transport


@dataclass
class Subset:
    """Classified crash rows plus selection bookkeeping."""

    rows: dict[str, CrashRow]               # by crash id
    road: str                               # surface | all
    tow_from_units: bool
    airbag_from_units: bool
    weighted: bool
    exclusions: Counter = field(default_factory=Counter)
    caveats: tuple[str, ...] = ()

    def surface(self) -> Subset:
        """This all-roads subset's surface-street rows (the same objects), with
        dropped crashes counted and unit exclusions summed over kept ones."""
        if self.road != "all":
            raise ValueError("a surface subset derives from an all-roads subset")
        rows = {cid: row for cid, row in self.rows.items()
                if row.road_class is RoadClass.SURFACE_STREET}
        roads = Counter(row.road_class for row in self.rows.values())
        exclusions = _unit_exclusions(rows.values()) + Counter({
            "crash_road_excluded": roads[RoadClass.EXCLUDED_HIGHWAY],
            "crash_road_unknown": roads[RoadClass.UNKNOWN],
        })
        return replace(self, rows=rows, road="surface", exclusions=exclusions)


def _unit_exclusions(rows) -> Counter:
    """Excluded units summed over crash rows; zero counts are left out."""
    return +Counter({
        "unit_non_vehicle": sum(row.non_vehicle for row in rows),
        "unit_not_in_transport": sum(row.not_in_transport for row in rows),
        "unit_other_vehicle": sum(row.other for row in rows),
    })


def select_subset(
    crashes: list[CrashEvent],
    vehicles: list[VehicleInvolvement],
    *,
    road: str = "surface",
    unit_tow_flags: bool = True,
    unit_airbag_flags: bool = True,
    weighted: bool = False,
    caveats: tuple[str, ...] = (),
) -> Subset:
    """Classify every crash once and filter units to the comparable subset.

    The walk keeps every crash, so it yields the all-roads subset
    (``road="all"``); ``road="surface"`` derives the surface-street
    subset from it (``Subset.surface``).  Vehicle filtering keeps
    in-transport passenger and NFS units; classified non-passenger units
    are tallied per crash for the imputation weight but are not retained.
    Crashes with no retained units keep a row with empty unit tallies.
    """
    if road not in ("surface", "all"):
        raise ValueError(f"road must be 'surface' or 'all', got {road!r}")
    by_crash: dict[str, list[VehicleInvolvement]] = {}
    for v in vehicles:
        by_crash.setdefault(v.crash_id, []).append(v)

    rows: dict[str, CrashRow] = {}
    for crash in crashes:
        passenger = nfs = other = non_vehicle = not_in_transport = 0
        towed = airbag = False
        for v in by_crash.get(crash.crash_id, ()):
            if v.body_class is BodyClass.NON_VEHICLE:
                non_vehicle += 1
                continue
            if not v.in_transport:
                not_in_transport += 1
                continue
            if v.body_class is BodyClass.PASSENGER:
                passenger += 1
            elif v.body_class is BodyClass.VEHICLE_NFS:
                nfs += 1
            else:
                other += 1
                continue
            towed = towed or v.towed
            airbag = airbag or v.airbag_deployed
        rows[crash.crash_id] = CrashRow(
            crash.sample_weight, passenger, nfs, other,
            _severity_bits(crash, towed, airbag, unit_tow_flags, unit_airbag_flags),
            crash.road_class, non_vehicle, not_in_transport,
        )
    subset = Subset(
        rows=rows,
        road="all",
        tow_from_units=unit_tow_flags,
        airbag_from_units=unit_airbag_flags,
        weighted=weighted,
        exclusions=_unit_exclusions(rows.values()),
        caveats=caveats,
    )
    return subset.surface() if road == "surface" else subset


def audit_subset(subset: Subset, imputation: ImputationWeight | None) -> dict:
    """Filter-audit payload: retention, exclusions, flag bases, caveats."""
    return {
        "road": subset.road,
        "in_transport_only": True,         # units not in transport never count
        "crashes_retained": len(subset.rows),
        "vehicles_retained": sum(row.passenger + row.nfs for row in subset.rows.values()),
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
