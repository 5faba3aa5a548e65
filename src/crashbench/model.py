"""Core value types for vehicle-level crash rate benchmarking.

Severity levels form a nested chain: any-property-damage-or-injury
contains police-reported, which contains any-injury-reported, which
contains suspected-serious-injury-plus, which contains fatal.  Tow-away
and airbag-deployment are real severity thresholds but sit outside the
chain; they are neither subsets nor supersets of the injury levels.
``SEVERITY_CHAIN`` states the nesting and ``OBSERVED_LEVELS`` the six
levels a police report can show; every counting module reads them here.

All record types are immutable value objects.  Counting code never
mutates them, so one record can be shared by every subset and tally
that reads it, and readers can hand out one ``Region`` per file.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import ValidationError


class SeverityLevel(str, enum.Enum):
    ANY_PROPERTY_DAMAGE_OR_INJURY = "any_property_damage_or_injury"
    POLICE_REPORTED = "police_reported"
    ANY_INJURY_REPORTED = "any_injury_reported"
    TOW_AWAY = "tow_away"
    AIRBAG_DEPLOYED = "airbag_deployed"
    SUSPECTED_SERIOUS_INJURY_PLUS = "suspected_serious_injury_plus"
    FATAL = "fatal"


# Outermost to innermost.  TOW_AWAY and AIRBAG_DEPLOYED are deliberately absent.
SEVERITY_CHAIN: tuple[SeverityLevel, ...] = (
    SeverityLevel.ANY_PROPERTY_DAMAGE_OR_INJURY,
    SeverityLevel.POLICE_REPORTED,
    SeverityLevel.ANY_INJURY_REPORTED,
    SeverityLevel.SUSPECTED_SERIOUS_INJURY_PLUS,
    SeverityLevel.FATAL,
)

# The levels a police report can show, in severity-mask bit order: bit i
# of a crash's mask is set when the crash qualifies at OBSERVED_LEVELS[i].
# ANY_PROPERTY_DAMAGE_OR_INJURY is absent: only underreporting adjustment
# estimates it.
OBSERVED_LEVELS: tuple[SeverityLevel, ...] = (
    SeverityLevel.POLICE_REPORTED,
    SeverityLevel.ANY_INJURY_REPORTED,
    SeverityLevel.TOW_AWAY,
    SeverityLevel.AIRBAG_DEPLOYED,
    SeverityLevel.SUSPECTED_SERIOUS_INJURY_PLUS,
    SeverityLevel.FATAL,
)


class Kabco(str, enum.Enum):
    """Police-reported injury scale plus the two non-scale outcomes."""

    K = "K"    # fatal
    A = "A"    # suspected serious injury
    B = "B"    # suspected minor injury
    C = "C"    # possible injury
    O = "O"    # no injury / property damage only
    ISU = "ISU"  # injured, severity unknown
    UNK = "UNK"  # unknown whether injured

    @property
    def is_injury(self) -> bool:
        return self in _INJURY_KABCO

    @property
    def is_suspected_serious_plus(self) -> bool:
        return self in (Kabco.K, Kabco.A)


_INJURY_KABCO = frozenset({Kabco.K, Kabco.A, Kabco.B, Kabco.C, Kabco.ISU})

# For folding person rows up to a crash-level maximum.  ISU means an
# injury occurred, so it outranks O; UNK ranks below everything.
KABCO_FOLD_RANK = {
    Kabco.K: 6,
    Kabco.A: 5,
    Kabco.B: 4,
    Kabco.C: 3,
    Kabco.ISU: 2,
    Kabco.O: 1,
    Kabco.UNK: 0,
}


class RoadClass(str, enum.Enum):
    SURFACE_STREET = "surface_street"
    EXCLUDED_HIGHWAY = "excluded_highway"
    UNKNOWN = "unknown"


class BodyClass(str, enum.Enum):
    PASSENGER = "passenger"
    VEHICLE_NFS = "vehicle_nfs"      # a vehicle, type not further specified
    OTHER_VEHICLE = "other_vehicle"  # known vehicle, not a passenger vehicle
    NON_VEHICLE = "non_vehicle"      # pedestrian, bicyclist, other non-vehicle unit


class FunctionalClass(str, enum.Enum):
    INTERSTATE = "interstate"
    OTHER_FREEWAYS_EXPRESSWAYS = "other_freeways_expressways"
    OTHER_PRINCIPAL_ARTERIAL = "other_principal_arterial"
    MINOR_ARTERIAL = "minor_arterial"
    MAJOR_COLLECTOR = "major_collector"
    MINOR_COLLECTOR = "minor_collector"
    LOCAL = "local"
    AGGREGATE = "aggregate"  # a single undifferentiated mileage total


class AreaType(str, enum.Enum):
    URBAN = "urban"
    RURAL = "rural"
    ALL = "all"


class ShareGroup(str, enum.Enum):
    """Class groups at which passenger-vehicle travel shares are published."""

    INTERSTATE = "interstate"
    OTHER_ARTERIAL = "other_arterial"
    OTHER = "other"


SHARE_GROUP_OF_CLASS = {
    FunctionalClass.INTERSTATE: ShareGroup.INTERSTATE,
    FunctionalClass.OTHER_FREEWAYS_EXPRESSWAYS: ShareGroup.OTHER_ARTERIAL,
    FunctionalClass.OTHER_PRINCIPAL_ARTERIAL: ShareGroup.OTHER_ARTERIAL,
    FunctionalClass.MINOR_ARTERIAL: ShareGroup.OTHER_ARTERIAL,
    FunctionalClass.MAJOR_COLLECTOR: ShareGroup.OTHER,
    FunctionalClass.MINOR_COLLECTOR: ShareGroup.OTHER,
    FunctionalClass.LOCAL: ShareGroup.OTHER,
    FunctionalClass.AGGREGATE: ShareGroup.OTHER,
}


@dataclass(frozen=True)
class Region:
    """Either the national total or a single county."""

    kind: str            # "national" | "county"
    name: str            # "national" or a county identifier like "maricopa-az"
    state: str = ""      # two-letter code for counties, empty for national

    def __post_init__(self) -> None:
        if self.kind not in ("national", "county"):
            raise ValidationError(f"unknown region kind {self.kind!r}")
        if self.kind == "county" and not self.state:
            raise ValidationError(f"county region {self.name!r} needs a state")
        if self.kind == "national" and self.state:
            raise ValidationError("national region carries no state")
        if self.kind == "county" and self.name == "national":
            raise ValidationError("a county cannot be named 'national', the national "
                                  "region's name")
        if not self.name:
            raise ValidationError("region name is empty")

    @classmethod
    def national(cls) -> Region:
        return cls("national", "national")

    @classmethod
    def county(cls, name: str, state: str) -> Region:
        return cls("county", name, state)

    @classmethod
    def of_cells(cls, cells: tuple[str, str]) -> Region:
        """The region a table's ``region`` and ``region_state`` cells name:
        "national" is the national total, and carries no state; any other
        name is a county in that state."""
        name, state = cells
        return cls("national" if name == "national" else "county", name, state)

    @property
    def share_state(self) -> str:
        """State key used for passenger-share lookups; US for the national total."""
        return "US" if self.kind == "national" else self.state


@dataclass(frozen=True)
class CrashEvent:
    """One police-reported crash, normalized from any source layout.

    max_kabco is the highest injury outcome on the report.  tow_away and
    airbag_deployed are folded over every unit and person on the report;
    severity classification may recompute them from eligible units only.
    """

    crash_id: str
    source: str
    region: Region
    year: int
    road_class: RoadClass
    sample_weight: float
    max_kabco: Kabco
    tow_away: bool
    airbag_deployed: bool

    def __post_init__(self) -> None:
        check_crash(self.crash_id, self.sample_weight, self.year)


def check_crash(crash_id: str, sample_weight: float, year: int) -> None:
    """The checks every crash passes, whether it becomes a ``CrashEvent``
    or is folded into columns as it is read."""
    if not crash_id:
        raise ValidationError("crash_id is empty")
    if not 0.0 < sample_weight < math.inf:
        raise ValidationError(
            f"crash {crash_id}: sample_weight must be positive, got {sample_weight!r}"
        )
    if not 1900 <= year <= 2100:
        raise ValidationError(f"crash {crash_id}: implausible year {year}")


@dataclass(frozen=True)
class VehicleInvolvement:
    """One unit on a crash report."""

    crash_id: str
    unit_id: str
    body_class: BodyClass
    in_transport: bool
    towed: bool
    airbag_deployed: bool

    def __post_init__(self) -> None:
        check_unit(self.crash_id, self.unit_id)


def check_unit(crash_id: str, unit_id: str) -> None:
    """The checks every unit passes, as a record or folded into its crash."""
    if not crash_id:
        raise ValidationError("vehicle crash_id is empty")
    if not unit_id:
        raise ValidationError(f"crash {crash_id}: vehicle unit_id is empty")


@dataclass(frozen=True)
class PersonOutcome:
    """One injured or involved person; unit_id is empty for non-occupants."""

    crash_id: str
    unit_id: str
    person_id: str
    kabco: Kabco
    airbag_deployed: bool

    def __post_init__(self) -> None:
        check_person(self.crash_id, self.unit_id, self.person_id)


def check_person(crash_id: str, unit_id: str, person_id: str) -> None:
    """The checks every person passes, as a record or counted against its
    crash; ``unit_id`` may be empty."""
    if not crash_id:
        raise ValidationError("person crash_id is empty")
    if not person_id:
        raise ValidationError(f"crash {crash_id}: person_id is empty")


@dataclass(frozen=True)
class MileageCell:
    """Annual travel on one functional class and area type within a region."""

    region: Region
    year: int
    functional_class: FunctionalClass
    area_type: AreaType
    vmt_millions: float

    def __post_init__(self) -> None:
        if not (self.vmt_millions > 0.0) or not math.isfinite(self.vmt_millions):
            raise ValidationError(
                f"mileage cell {self.region.name}/{self.functional_class.value}: "
                f"vmt_millions must be positive, got {self.vmt_millions!r}"
            )


@dataclass(frozen=True)
class PassengerShareTable:
    """Passenger-vehicle share of travel by (state, area type, class group).

    Shares are stored as fractions in [0, 1].
    """

    shares: tuple[tuple[tuple[str, AreaType, ShareGroup], float], ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        index = {}
        for key, value in self.shares:
            if not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"passenger share {self.label(key)} out of range: {value!r}")
            if key in index:
                raise ValidationError(f"duplicate passenger share for {self.label(key)}")
            index[key] = value
        object.__setattr__(self, "_index", index)

    @staticmethod
    def label(key: tuple[str, AreaType, ShareGroup]) -> str:
        """A share's key as errors name it: state/area/group."""
        state, area, group = key
        return f"{state}/{area.value}/{group.value}"

    @classmethod
    def from_mapping(cls, mapping) -> PassengerShareTable:
        return cls(tuple(sorted(mapping.items())))

    def get(self, state: str, area: AreaType, group: ShareGroup) -> float:
        try:
            return self._index[(state, area, group)]
        except KeyError:
            raise ValidationError(
                f"no passenger share for state={state} area={area.value} "
                f"group={group.value}"
            ) from None


@dataclass(frozen=True)
class AdjustmentScheme:
    """Underreporting correction defined by per-class unreported fractions.

    A class with unreported fraction f is scaled by 1 / (1 - f).  Fatal
    crashes are never underreported, so their fraction is pinned at zero.
    """

    name: str
    pdo_unreported: float
    injury_unreported: float

    def __post_init__(self) -> None:
        for label, f in (("pdo", self.pdo_unreported), ("injury", self.injury_unreported)):
            if not 0.0 <= f < 1.0:
                raise ValidationError(
                    f"scheme {self.name}: {label} unreported fraction {f!r} "
                    "must lie in [0, 1)"
                )

    @property
    def pdo_factor(self) -> float:
        return 1.0 / (1.0 - self.pdo_unreported)

    @property
    def injury_factor(self) -> float:
        return 1.0 / (1.0 - self.injury_unreported)


UNADJUSTED = AdjustmentScheme("unadjusted", 0.0, 0.0)
# Economic-cost study: 59.7% of PDO and 31.9% of injury crashes unreported.
BLINCOE = AdjustmentScheme("blincoe", 0.597, 0.319)
# Naturalistic-driving study: 84% of PDO crashes unreported; injury as above.
BLANCO = AdjustmentScheme("blanco", 0.84, 0.319)

SCHEMES = {s.name: s for s in (UNADJUSTED, BLINCOE, BLANCO)}


@dataclass(frozen=True)
class BenchmarkRate:
    """A crash rate: adjusted numerator over passenger-vehicle mileage."""

    region: Region
    year: int
    severity: SeverityLevel
    adjustment: str
    numerator: float
    vmt_millions: float
    rate_ipmm: float                 # incidents per million miles
    ci_low_ipmm: float | None = None
    ci_high_ipmm: float | None = None

    def __post_init__(self) -> None:
        if self.adjustment not in SCHEMES:
            raise ValidationError(f"unknown adjustment scheme {self.adjustment!r}")
        if self.numerator < 0.0:
            raise ValidationError(f"negative numerator {self.numerator!r}")
        if not (self.vmt_millions > 0.0):
            raise ValidationError(f"vmt_millions must be positive, got {self.vmt_millions!r}")
        expected = self.numerator / self.vmt_millions
        if not math.isclose(self.rate_ipmm, expected, rel_tol=1e-12, abs_tol=1e-300):
            raise ValidationError(
                f"rate_ipmm {self.rate_ipmm!r} does not equal numerator/vmt {expected!r}"
            )
        if (self.ci_low_ipmm is None) != (self.ci_high_ipmm is None):
            raise ValidationError("confidence bounds must be given together")
        if self.ci_low_ipmm is not None:
            if not self.ci_low_ipmm <= self.rate_ipmm <= self.ci_high_ipmm:
                raise ValidationError("confidence interval does not bracket the rate")

    @property
    def display(self) -> str:
        """Rate at three significant figures; fatal rates in IPBM, others IPMM."""
        if self.severity is SeverityLevel.FATAL:
            return f"{_round_sig(self.rate_ipmm * 1000.0)} IPBM"
        return f"{_round_sig(self.rate_ipmm)} IPMM"


def _round_sig(x: float, digits: int = 3) -> str:
    if x == 0.0:
        return "0.00"
    decimals = digits - 1 - math.floor(math.log10(abs(x)))
    if decimals >= 0:
        return f"{x:.{decimals}f}"
    return f"{round(x, decimals):.0f}"
