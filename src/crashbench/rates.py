"""Aggregation of a subset's per-crash columns and mileage into benchmark rates.

Counting is vehicle-level throughout: the numerator for a severity is
the weighted number of qualifying vehicle involvements in crashes at
that severity, not the number of crashes; a vehicle of unknown type
(NFS) counts as the passenger share that ``resolve_imputation`` alone
decides.  Counts are kept per ``model.OBSERVED_LEVELS`` level.
Crash-level tallies are kept alongside for the reporting-share
diagnostics and the vehicles-per-crash ratio.  Every tally reads the
columns of a ``filters.Subset``: one amount per crash, summed over one
selection of crashes per level on the severity-mask column.  Every
weighted total is an exactly rounded sum (``math.fsum``), so no count
depends on the order of the input records.

A benchmark table rests on a handful of intermediate totals per region
and year (``AggregateInputs``): mileage, all-roads crashes and vehicles,
and surface-street passenger-vehicle counts per severity.  Published
tables give those totals directly; ``build_benchmark`` reduces microdata
to the same record, and ``benchmark_from_aggregates`` turns either into
the report.  A total that was not published is None, never a number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, compress, repeat
from operator import add, and_, mul
from typing import TYPE_CHECKING

from .errors import UndefinedStatistic, ValidationError, _opened
from .model import (
    AdjustmentScheme,
    AreaType,
    BenchmarkRate,
    FunctionalClass,
    MileageCell,
    OBSERVED_LEVELS,
    PassengerShareTable,
    Region,
    SCHEMES,
    SEVERITY_CHAIN,
    SHARE_GROUP_OF_CLASS,
    SeverityLevel,
    ShareGroup,
)

# filters is imported where microdata is counted, so a benchmark from
# published totals loads none of it.
if TYPE_CHECKING:
    from .filters import ImputationWeight, Subset

# The chain's levels that have observed counts, outermost first.
_NESTED_LEVELS = SEVERITY_CHAIN[1:]


@dataclass(frozen=True)
class SeverityCounts:
    """Weighted counts at each observed severity level.

    A level the source did not publish is None.  Every other count is a
    finite nonnegative number.  Published levels on the severity chain
    nest: each is at most the nearest published level outside it, so an
    unpublished level in between does not switch the check off.  Tow-away
    and airbag counts are at most police_reported when both are published.

    The adjustment class split is derived: pdo = police_reported minus
    any_injury_reported, nonfatal_injury = any_injury_reported minus
    fatal.  The split therefore sums back to police_reported by
    construction.
    """

    police_reported: float | None
    any_injury_reported: float | None
    tow_away: float | None
    airbag_deployed: float | None
    suspected_serious_injury_plus: float | None
    fatal: float | None

    def __post_init__(self) -> None:
        for level in OBSERVED_LEVELS:
            value = self.get(level)
            if value is not None and not 0.0 <= value < math.inf:
                raise ValidationError(
                    f"negative or non-finite count at {level.value}: {value!r}")
        _check_nested("severity counts",
                      [(level.value, self.get(level)) for level in _NESTED_LEVELS])
        for name in ("tow_away", "airbag_deployed"):
            _check_nested("severity counts", [("police_reported", self.police_reported),
                                              (name, getattr(self, name))])

    def get(self, level: SeverityLevel) -> float | None:
        _observed_bit(level)
        return getattr(self, level.value)

    @property
    def pdo(self) -> float:
        return self.police_reported - self.any_injury_reported

    @property
    def nonfatal_injury(self) -> float:
        return self.any_injury_reported - self.fatal


def _check_nested(what: str, totals: list[tuple[str, float | None]]) -> None:
    """Each published total of ``totals`` (name, value pairs, outermost
    first; None is unpublished) is at most the nearest published total
    before it, with 1e-12 relative slack for rounding."""
    published = [(name, value) for name, value in totals if value is not None]
    for (outer, bound), (inner, value) in zip(published, published[1:]):
        if value > bound * (1.0 + 1e-12):
            raise ValidationError(
                f"{what} break containment: {inner} {value!r} exceeds {outer} {bound!r}")


def _observed_bit(level: SeverityLevel) -> int:
    """The severity-mask bit of an observed level."""
    if level is SeverityLevel.ANY_PROPERTY_DAMAGE_OR_INJURY:
        raise ValidationError(
            "any_property_damage_or_injury has no observed count; "
            "apply an adjustment scheme"
        )
    return 1 << OBSERVED_LEVELS.index(level)


def _level_sum(severity: list[int], amounts: list[float], level: SeverityLevel) -> float:
    """The amounts of the crashes whose mask has the level's bit, summed
    exactly rounded: the one selection a level's count sums over."""
    return math.fsum(compress(amounts, map(and_, severity, repeat(_observed_bit(level)))))


def _level_sums(severity: list[int], amounts: list[float]) -> SeverityCounts:
    """Counts at every observed level from one amount per crash.  The
    amounts are grouped by severity mask once, and each level sums the
    groups whose mask has its bit: ``math.fsum`` is exactly rounded, so a
    level's count does not depend on the order its amounts come in."""
    groups: dict[int, list[float]] = {}
    for mask, amount in zip(severity, amounts):
        groups.setdefault(mask, []).append(amount)
    counts = {}
    for level in OBSERVED_LEVELS:
        bit = _observed_bit(level)
        counts[level.value] = math.fsum(chain.from_iterable(
            group for mask, group in groups.items() if mask & bit))
    return SeverityCounts(**counts)


def _vehicle_amounts(subset: Subset, w: float) -> list[float]:
    """Each crash's passenger vehicles plus the share ``w`` of its NFS
    vehicles, times its sample weight."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"imputation weight {w!r} outside [0, 1]")
    c = subset.columns
    return [(passenger + w * nfs) * weight
            for passenger, nfs, weight in zip(c.passenger, c.nfs, c.weight)]


def tally_vehicle_counts(subset: Subset, w: float) -> SeverityCounts:
    """Weighted crashed-vehicle counts per severity: each crash counts its
    passenger vehicles plus the share ``w`` of its NFS vehicles."""
    return _level_sums(subset.severity, _vehicle_amounts(subset, w))


def tally_crash_counts(subset: Subset) -> SeverityCounts:
    """Weighted crash counts per severity (diagnostic, not the benchmark)."""
    return _level_sums(subset.severity, subset.columns.weight)


def resolve_imputation(subset: Subset, region: Region) -> ImputationWeight | None:
    """The weight NFS vehicles are imputed with: the weighted passenger share
    among the subset's classified vehicles.  None when no vehicle is
    classified and none needs imputing; undefined when only NFS vehicles
    are.  Scaling every sample weight by a constant leaves it unchanged.
    """
    from .filters import ImputationWeight

    c = subset.columns
    passenger = math.fsum(map(mul, c.passenger, c.weight))
    other = math.fsum(map(mul, c.other, c.weight))
    total = passenger + other
    if total <= 0.0:
        if any(c.nfs):
            raise UndefinedStatistic(
                f"imputation weight undefined for {region.name}: "
                "NFS vehicles present but no classified vehicles"
            )
        return None
    return ImputationWeight(w=passenger / total, passenger=passenger, other=other)


def count_crashed_vehicles(subset: Subset, severity: SeverityLevel, w: float) -> float:
    """Weighted qualifying vehicle involvements in crashes at a severity."""
    return _level_sum(subset.severity, _vehicle_amounts(subset, w), severity)


def _weighted_totals(subset: Subset) -> tuple[float, float]:
    """Weighted crashes and weighted vehicle involvements of any type."""
    c = subset.columns
    return (math.fsum(c.weight),
            math.fsum(map(mul, map(add, map(add, c.passenger, c.nfs), c.other), c.weight)))


def apply_adjustment(counts: SeverityCounts, scheme: AdjustmentScheme,
                     severity: SeverityLevel = SeverityLevel.ANY_PROPERTY_DAMAGE_OR_INJURY,
                     ) -> float:
    """Underreporting-corrected numerator at a severity level.

    The unadjusted scheme returns the observed count (police_reported for
    the any-property-damage-or-injury level).  Corrections are defined
    only down to the any-injury level; fatal counts never scale.
    """
    if scheme.pdo_unreported == 0.0 and scheme.injury_unreported == 0.0:
        if severity is SeverityLevel.ANY_PROPERTY_DAMAGE_OR_INJURY:
            return counts.police_reported
        return counts.get(severity)
    if severity is SeverityLevel.ANY_PROPERTY_DAMAGE_OR_INJURY:
        return (counts.pdo * scheme.pdo_factor
                + counts.nonfatal_injury * scheme.injury_factor
                + counts.fatal)
    if severity is SeverityLevel.ANY_INJURY_REPORTED:
        return counts.nonfatal_injury * scheme.injury_factor + counts.fatal
    raise ValidationError(
        f"scheme {scheme.name} does not define an adjustment at {severity.value}"
    )


def pdo_share(counts: SeverityCounts) -> float:
    """Property-damage-only fraction of police-reported counts."""
    if counts.police_reported <= 0.0:
        raise UndefinedStatistic("PDO share undefined: no police-reported counts")
    return counts.pdo / counts.police_reported


# ---------------------------------------------------------------------------
# Mileage merging


@dataclass(frozen=True)
class MileageRule:
    """How one dataset family turns mileage cells into passenger surface VMT.

    ``surface_excluded`` names the functional classes dropped by the road
    filter.  ``share_mode`` is "by_group" (each cell scaled by its class
    group's passenger share) or "mean_arterial_other" (every cell scaled
    by the mean of the other-arterial and other group shares, for sources
    that publish one undifferentiated local total).
    """

    name: str
    surface_excluded: frozenset[FunctionalClass]
    share_mode: str

    def includes(self, cell: MileageCell, scope: str) -> bool:
        if scope == "all":
            return True
        return cell.functional_class not in self.surface_excluded


_EXCL_INTERSTATE = frozenset({FunctionalClass.INTERSTATE})
_EXCL_FREEWAYS = frozenset({
    FunctionalClass.INTERSTATE, FunctionalClass.OTHER_FREEWAYS_EXPRESSWAYS,
})

ROAD_RULES = {
    rule.name: rule
    for rule in (
        MileageRule("all_roads", frozenset(), "by_group"),
        MileageRule("national_functional", _EXCL_INTERSTATE, "by_group"),
        MileageRule("national_fatal", _EXCL_FREEWAYS, "by_group"),
        MileageRule("county_functional", _EXCL_FREEWAYS, "by_group"),
        MileageRule("county_jurisdiction", _EXCL_FREEWAYS, "mean_arterial_other"),
    )
}


def _share_area(cell: MileageCell) -> AreaType:
    # undifferentiated county totals use urban shares: the benchmark
    # counties are urbanized areas
    if cell.area_type is AreaType.ALL:
        return AreaType.URBAN
    return cell.area_type


def _cell_share(cell: MileageCell, shares: PassengerShareTable, region: Region,
                mode: str) -> float:
    area = _share_area(cell)
    state = region.share_state
    if mode == "mean_arterial_other":
        return (shares.get(state, area, ShareGroup.OTHER_ARTERIAL)
                + shares.get(state, area, ShareGroup.OTHER)) / 2.0
    return shares.get(state, area, SHARE_GROUP_OF_CLASS[cell.functional_class])


def merge_mileage(
    cells: list[MileageCell],
    shares: PassengerShareTable | None,
    region: Region,
    road_rule: str,
    scope: str = "surface",
) -> float:
    """Annual VMT (millions) for a region under a road rule.

    ``scope="surface"`` applies the rule's road filter; ``scope="all"``
    keeps every class.  With a share table the result is passenger-vehicle
    VMT; without one it is total VMT.  Additive over disjoint cell sets.
    """
    if road_rule not in ROAD_RULES:
        raise ValidationError(
            f"unknown road rule {road_rule!r}; expected one of {sorted(ROAD_RULES)}"
        )
    if scope not in ("surface", "all"):
        raise ValidationError(f"scope must be 'surface' or 'all', got {scope!r}")
    rule = ROAD_RULES[road_rule]
    parts: list[float] = []
    matched = 0
    for cell in cells:
        if cell.region != region:
            continue
        matched += 1
        if not rule.includes(cell, scope):
            continue
        vmt = cell.vmt_millions
        if shares is not None:
            vmt *= _cell_share(cell, shares, region, rule.share_mode)
        parts.append(vmt)
    # fsum is exact, so the total does not depend on the order of the cells.
    total = math.fsum(parts)
    if matched == 0:
        raise ValidationError(f"no mileage cells for region {region.name}")
    if total <= 0.0:
        raise ValidationError(
            f"no mileage remains for region {region.name} under rule {road_rule}"
        )
    return total


# ---------------------------------------------------------------------------
# Rates and intervals


def garwood_interval(count: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact Poisson confidence interval on an observed integer count.

    The chi-square form chi2.ppf(q, 2k)/2 is the inverse regularized lower
    incomplete gamma gammaincinv(k, q), which is how scipy evaluates that
    quantile; calling it directly skips importing scipy.stats.
    """
    from scipy.special import gammaincinv

    if count < 0 or count != int(count):
        raise ValidationError(f"exact interval needs a nonnegative integer, got {count!r}")
    if not 0.0 < confidence < 1.0:
        raise ValidationError(f"confidence must lie in (0, 1), got {confidence!r}")
    alpha = 1.0 - confidence
    low = 0.0 if count == 0 else gammaincinv(count, alpha / 2.0)
    high = gammaincinv(count + 1, 1.0 - alpha / 2.0)
    return float(low), float(high)


def compute_rate(
    numerator: float,
    vmt_millions: float,
    *,
    region: Region,
    year: int,
    severity: SeverityLevel,
    adjustment: str = "unadjusted",
    ci_count: int | None = None,
) -> BenchmarkRate:
    """Package a numerator and mileage into a rate record.

    ``ci_count`` attaches an exact Poisson interval and is only valid
    when the numerator is that same unweighted integer count.
    """
    if not vmt_millions > 0.0:
        raise ValidationError(f"vmt_millions must be positive, got {vmt_millions!r}")
    ci_low = ci_high = None
    if ci_count is not None:
        if ci_count != numerator:
            raise ValidationError(
                "exact intervals apply only to unadjusted integer counts"
            )
        lo, hi = garwood_interval(ci_count)
        ci_low, ci_high = lo / vmt_millions, hi / vmt_millions
    return BenchmarkRate(
        region=region,
        year=year,
        severity=severity,
        adjustment=adjustment,
        numerator=numerator,
        vmt_millions=vmt_millions,
        rate_ipmm=numerator / vmt_millions,
        ci_low_ipmm=ci_low,
        ci_high_ipmm=ci_high,
    )


# ---------------------------------------------------------------------------
# Report assembly

# Severity/scheme rows emitted by default, outermost first.
DEFAULT_ROWS: tuple[tuple[SeverityLevel, str], ...] = (
    (SeverityLevel.ANY_PROPERTY_DAMAGE_OR_INJURY, "blincoe"),
    (SeverityLevel.ANY_PROPERTY_DAMAGE_OR_INJURY, "blanco"),
    (SeverityLevel.POLICE_REPORTED, "unadjusted"),
    (SeverityLevel.ANY_INJURY_REPORTED, "unadjusted"),
    (SeverityLevel.ANY_INJURY_REPORTED, "blincoe"),
    (SeverityLevel.TOW_AWAY, "unadjusted"),
    (SeverityLevel.AIRBAG_DEPLOYED, "unadjusted"),
    (SeverityLevel.SUSPECTED_SERIOUS_INJURY_PLUS, "unadjusted"),
    (SeverityLevel.FATAL, "unadjusted"),
)


@dataclass
class BenchmarkReport:
    """Everything the benchmark table prints for one region and year."""

    region: Region
    year: int
    road_rule: str
    weighted: bool
    mileage: dict                    # all_roads_total / all_roads_passenger / surface_passenger
    intermediates: dict              # crashes / vehicles_any_type / passenger_all_roads
    vehicle_counts: SeverityCounts   # surface passenger, vehicle-level
    crash_counts: SeverityCounts | None
    imputation_w: float | None
    vehicles_per_crash: float | None
    rows: list[BenchmarkRate]
    pdo_share_vehicle: float | None
    pdo_share_crash: float | None
    caveats: tuple[str, ...]
    audit: dict


@dataclass(frozen=True)
class AggregateInputs:
    """One region-year of the intermediate totals a benchmark table rests on.

    Published-aggregate tables give these totals directly, and
    ``build_benchmark`` reduces microdata to them, so both paths share
    ``benchmark_from_aggregates``.  A total that was not published is
    None: an empty cell of a published table, or the all-roads passenger
    mileage of a dataset without passenger shares.  Rate rows that need
    an unpublished total are skipped rather than invented.  Published
    totals nest: surface passenger mileage is at most all-roads passenger
    mileage, which is at most all-roads mileage, and passenger vehicles
    are at most all vehicles.
    """

    region: Region
    year: int
    weighted: bool
    mileage_all_roads_mmi: float | None
    crashes_all_roads: float | None
    vehicles_all_roads: float | None
    mileage_all_roads_passenger_mmi: float | None
    vehicles_all_roads_passenger: float | None
    mileage_surface_passenger_mmi: float | None
    counts: SeverityCounts           # surface-street passenger, vehicle-level

    def __post_init__(self) -> None:
        _check_nested("intermediate totals", [
            ("mileage_all_roads_mmi", self.mileage_all_roads_mmi),
            ("mileage_all_roads_passenger_mmi", self.mileage_all_roads_passenger_mmi),
            ("mileage_surface_passenger_mmi", self.mileage_surface_passenger_mmi),
        ])
        _check_nested("intermediate totals", [
            ("vehicles_all_roads", self.vehicles_all_roads),
            ("vehicles_all_roads_passenger", self.vehicles_all_roads_passenger),
        ])


def _row_published(agg: AggregateInputs, severity: SeverityLevel,
                   scheme_name: str) -> bool:
    """Whether every total the rate row needs was published."""
    if severity is SeverityLevel.ANY_PROPERTY_DAMAGE_OR_INJURY:
        needed = (SeverityLevel.POLICE_REPORTED, SeverityLevel.ANY_INJURY_REPORTED,
                  SeverityLevel.FATAL)
    elif scheme_name != "unadjusted":
        needed = (severity, SeverityLevel.FATAL)
    else:
        needed = (severity,)
    return (agg.mileage_surface_passenger_mmi is not None
            and all(agg.counts.get(level) is not None for level in needed))


def _benchmark_rows(
    counts: SeverityCounts,
    vmt: float,
    region: Region,
    year: int,
    rows: tuple[tuple[SeverityLevel, str], ...],
    exact_counts: bool,
) -> list[BenchmarkRate]:
    out = []
    for severity, scheme_name in rows:
        scheme = SCHEMES.get(scheme_name)
        if scheme is None:
            raise ValidationError(f"unknown adjustment scheme {scheme_name!r}")
        numerator = apply_adjustment(counts, scheme, severity)
        ci_count = None
        if exact_counts and scheme_name == "unadjusted":
            if numerator == int(numerator):
                ci_count = int(numerator)
        out.append(compute_rate(
            numerator, vmt, region=region, year=year, severity=severity,
            adjustment=scheme_name, ci_count=ci_count,
        ))
    return out


def benchmark_from_aggregates(
    agg: AggregateInputs,
    rows: tuple[tuple[SeverityLevel, str], ...] = DEFAULT_ROWS,
) -> BenchmarkReport:
    """Benchmark report from one region-year of intermediate totals.

    Rows that need an unpublished total are left out.  The report is
    labelled with the published-aggregates road rule; ``build_benchmark``
    replaces that and the other fields only microdata can fill.
    """
    counts = agg.counts
    crashes, vehicles = agg.crashes_all_roads, agg.vehicles_all_roads
    available = tuple(row for row in rows if _row_published(agg, *row))
    return BenchmarkReport(
        region=agg.region,
        year=agg.year,
        road_rule="published_aggregates",
        weighted=agg.weighted,
        mileage={
            "all_roads_total_mmi": agg.mileage_all_roads_mmi,
            "all_roads_passenger_mmi": agg.mileage_all_roads_passenger_mmi,
            "surface_passenger_mmi": agg.mileage_surface_passenger_mmi,
        },
        intermediates={
            "crashes": crashes,
            "vehicles_any_type": vehicles,
            "passenger_vehicles_all_roads": agg.vehicles_all_roads_passenger,
        },
        vehicle_counts=counts,
        crash_counts=None,
        imputation_w=None,
        vehicles_per_crash=vehicles / crashes if crashes and vehicles is not None else None,
        rows=_benchmark_rows(counts, agg.mileage_surface_passenger_mmi, agg.region,
                             agg.year, available, not agg.weighted),
        pdo_share_vehicle=(
            pdo_share(counts)
            if counts.police_reported and counts.any_injury_reported is not None else None
        ),
        pdo_share_crash=None,
        caveats=(),
        audit={"road_rule": "published_aggregates"},
    )


def build_benchmark(dataset, rows: tuple[tuple[SeverityLevel, str], ...] = DEFAULT_ROWS,
                    ) -> BenchmarkReport:
    """Compute the full benchmark report from loaded microdata.

    Canonical sources arrive folded into columns and raw sources' rows
    are folded into the same columns by the same fold
    (``CombinedRecords.classify``), so every crash is counted by the one
    path.  The columns reduce to the same
    intermediate totals a published table gives; the report adds what
    only microdata has: the road rule, crash counts, the imputation
    weight, the crash PDO share, caveats and the filter audit.
    """
    from .filters import audit_subset

    manifest = dataset.manifest
    records = dataset.records
    region, road_rule = manifest.region, manifest.road_rule

    all_subset = records.classify(region, manifest.year)
    surface = all_subset.surface()

    surface_imp = resolve_imputation(surface, region)
    w = 1.0 if surface_imp is None else surface_imp.w
    all_imp = resolve_imputation(all_subset, region)
    w_all = 1.0 if all_imp is None else all_imp.w
    crash_counts = tally_crash_counts(surface)

    def mileage(shares: PassengerShareTable | None, scope: str) -> float:
        try:
            return merge_mileage(dataset.mileage, shares, region, road_rule, scope=scope)
        except ValidationError as exc:
            files = ", ".join(str(ref.file) for ref in manifest.mileage) or "none"
            raise ValidationError(f"{exc} in {manifest.year} (mileage: {files})") from None

    shares = dataset.shares
    crashes, vehicles = _weighted_totals(all_subset)
    totals = AggregateInputs(
        region=region,
        year=manifest.year,
        weighted=all_subset.weighted,
        mileage_all_roads_mmi=mileage(None, "all"),
        crashes_all_roads=crashes,
        vehicles_all_roads=vehicles,
        mileage_all_roads_passenger_mmi=mileage(shares, "all") if shares is not None else None,
        vehicles_all_roads_passenger=count_crashed_vehicles(
            all_subset, SeverityLevel.POLICE_REPORTED, w_all),
        mileage_surface_passenger_mmi=mileage(shares, "surface"),
        counts=tally_vehicle_counts(surface, w),
    )
    return replace(
        benchmark_from_aggregates(totals, rows),
        road_rule=road_rule,
        crash_counts=crash_counts,
        imputation_w=w if surface_imp is not None else None,
        pdo_share_crash=(
            pdo_share(crash_counts) if crash_counts.police_reported > 0 else None
        ),
        caveats=records.caveats,
        audit={
            "sources": dataset.source_audits,
            "road_rule": road_rule,
            "surface": audit_subset(surface, surface_imp),
            "all_roads": audit_subset(all_subset, all_imp),
            "diagnostics": dict(sorted(records.diagnostics.items())),
        },
    )


# ---------------------------------------------------------------------------
# Published-aggregate tables


_AGGREGATE_COLUMNS = (
    "region", "region_state", "year", "weighted",
    "mileage_all_roads_mmi", "crashes_all_roads", "vehicles_all_roads",
    "mileage_all_roads_passenger_mmi", "vehicles_all_roads_passenger",
    "mileage_surface_passenger_mmi",
    "police_reported", "any_injury_reported", "tow_away", "airbag_deployed",
    "suspected_serious_injury_plus", "fatal",
)


def load_aggregates(source: str) -> list[AggregateInputs]:
    """Read published-aggregate rows from a CSV file or a shipped year.

    ``source`` is a path, or a bare year like "2022" naming a table
    shipped with the package.  An empty cell means the source did not
    publish that total, and reads as None.  A row with more or fewer
    cells than the header, a negative or non-finite number, an unreadable
    year, a ``weighted`` other than 0 or 1, or severity counts or totals
    that break containment is an error naming the row by its line in the
    file.
    """
    import csv
    import re
    from importlib import resources

    table = source
    if re.fullmatch(r"\d{4}", source):
        table = resources.files("crashbench").joinpath("data", f"aggregates_{source}.csv")
        if not table.is_file():
            raise ValidationError(f"no shipped aggregate table for {source}")

    def cell(row: dict, key: str, context: str) -> float | None:
        raw = (row.get(key) or "").strip()
        if not raw:
            return None
        try:
            value = float(raw)
        except ValueError:
            raise ValidationError(f"{context}: unreadable {key} {raw!r}")
        if not math.isfinite(value):
            raise ValidationError(f"{context}: non-finite {key} {raw!r}")
        if value < 0.0:
            raise ValidationError(f"{context}: negative {key} {raw!r}")
        return value

    out = []
    with _opened(table, "aggregate table") as handle:
        reader = csv.DictReader(handle, strict=True)
        missing = set(_AGGREGATE_COLUMNS) - set(reader.fieldnames or [])
        if missing:
            raise ValidationError(
                f"aggregate table {source}: missing column(s) {', '.join(sorted(missing))}"
            )
        for row in reader:
            context = f"aggregate table {source} row {reader.line_num}"
            if None in row or None in row.values():
                raise ValidationError(f"{context}: not one cell per header column")
            name = (row.get("region") or "").strip()
            state = (row.get("region_state") or "").strip()
            year = (row.get("year") or "").strip()
            if not re.fullmatch(r"[0-9]{4}", year):
                raise ValidationError(f"{context}: unreadable year {year!r}")
            weighted = (row.get("weighted") or "").strip()
            if weighted not in ("0", "1"):
                raise ValidationError(f"{context}: weighted must be 0 or 1, got {weighted!r}")
            totals = {key: cell(row, key, context) for key in _AGGREGATE_COLUMNS[4:]}
            try:
                region = Region.of_cells((name, state))
                counts = SeverityCounts(
                    **{level.value: totals.pop(level.value) for level in OBSERVED_LEVELS})
                out.append(AggregateInputs(region=region, year=int(year),
                                           weighted=weighted == "1", counts=counts, **totals))
            except ValidationError as exc:
                raise ValidationError(f"{context}: {exc}") from None
    if not out:
        raise ValidationError(f"aggregate table {source}: no rows")
    return out
