"""Synthetic crash populations and independent counting oracles.

The generator exists so that aggregation code can be tested against
populations whose true tallies are known by construction, and so that
the normal-approximation power formulas can be checked against Monte
Carlo rejection rates.  Nothing here attempts realism.

The pseudorandom generator is part of the external contract: fixtures
regenerate byte-identically from a seed, in any implementation of the
same algorithm (splitmix64).  One 64-bit state word advances by the
constant 0x9E3779B97F4A7C15 per draw and is finalized by two
xor-shift-multiply rounds; uniform doubles take the top 53 bits:
``random()`` is ``next_u64() >> 11`` over 2**53, worked out in one call.
Derived sub-streams (one per Monte Carlo trial) are seeded from the
finalizer applied to seed + k*GOLDEN so trials are order-independent.

``simulate_power`` draws its trials with ``derived_poisson``, a numpy
sampler that follows the same stream contract: its count for trial k is
bit-identical to ``poisson(SplitMix64(seed).derived(k), mean)``.  The
scalar ``poisson`` stays as the written-down reference it is tested
against.

``generate`` draws from each mixture through a table of its running
sums, built once per population and searched with ``bisect``; a table
draw returns what a linear scan of the same running sums returns.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

from .errors import ValidationError, _Ini, _opened
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
from .power import normal_quantile

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64 with a 53-bit uniform and derived sub-streams."""

    def __init__(self, seed: int) -> None:
        self._seed = seed & _MASK
        self._state = self._seed

    @staticmethod
    def _mix(z: int) -> int:
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return self._mix(self._state)

    def random(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision: ``next_u64() >> 11``
        over 2**53, with the step and the finalizer inline."""
        z = self._state = (self._state + _GOLDEN) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return ((z ^ (z >> 31)) >> 11) / 2.0**53

    def derived(self, k: int) -> "SplitMix64":
        """Independent stream k, a function of the original seed only."""
        if k < 0:
            raise ValidationError(f"derived stream index must be >= 0, got {k}")
        return SplitMix64(self._mix((self._seed + _GOLDEN * (k + 1)) & _MASK))


def _check_mean(mean: float) -> None:
    if mean < 0.0 or not math.isfinite(mean):
        raise ValidationError(f"poisson mean must be finite and >= 0, got {mean!r}")


def poisson(rng: SplitMix64, mean: float) -> int:
    """Poisson draw by product-of-uniforms inversion.

    exp(-mean) underflows long before the double floor is a concern only
    because means above 500 are split in half and the halves summed;
    inversion stays exact for each piece.
    """
    _check_mean(mean)
    if mean > 500.0:
        half = mean / 2.0
        return poisson(rng, half) + poisson(rng, mean - half)
    limit = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


# Trials per block of draws: one block holds _CHUNK_TRIALS x (piece + 1 sd)
# doubles, a few MiB at the largest piece, whatever n_trials is.
_CHUNK_TRIALS = 1024


def _halves(mean: float):
    """The piece means poisson() draws, in its draw order."""
    if mean > 500.0:
        half = mean / 2.0
        yield from _halves(half)
        yield from _halves(mean - half)
    else:
        yield mean


def derived_poisson(seed: int, mean: float, n: int):
    """``poisson(SplitMix64(seed).derived(k), mean)`` for k in range(n).

    Returns a numpy int64 array, vectorised over trials and bit-identical
    to the scalar loop: draw j of stream s is mix(s + j*GOLDEN) in
    wrapping uint64, the running product multiplies strictly left to
    right (``np.multiply.accumulate``), and a piece's count is the number
    of prefix products above exp(-piece).  A trial whose block of draws
    ends before that product falls to the limit carries it into the next
    block; each trial keeps its own draw offset across the halved pieces.
    """
    import numpy as np

    _check_mean(mean)
    golden = np.uint64(_GOLDEN)

    def mix(z):
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, n, _CHUNK_TRIALS):
        stop = min(start + _CHUNK_TRIALS, n)
        streams = mix(np.arange(start + 1, stop + 1, dtype=np.uint64) * golden
                      + np.uint64(seed & _MASK))
        drawn = np.zeros(stop - start, dtype=np.uint64)
        chunk = counts[start:stop]
        for piece in _halves(mean):
            limit = math.exp(-piece)
            steps = np.arange(1, int(piece + math.sqrt(piece)) + 3,
                              dtype=np.uint64) * golden
            rows = np.arange(stop - start)
            carry = np.ones(stop - start)
            while rows.size:
                draws = mix(streams[rows, None] + drawn[rows, None] * golden + steps)
                product = (draws >> np.uint64(11)).astype(np.float64) / float(1 << 53)
                del draws
                product[:, 0] *= carry
                np.multiply.accumulate(product, axis=1, out=product)
                above = (product > limit).sum(axis=1)
                unfinished = above == steps.size
                chunk[rows] += above
                drawn[rows] += (above + ~unfinished).astype(np.uint64)
                carry = product[unfinished, -1]
                rows = rows[unfinished]
    return counts


def _check_mixture(name: str, items: tuple[tuple[object, float], ...]) -> None:
    if not items:
        raise ValidationError(f"[{name}] mixture is empty")
    total = 0.0
    for value, p in items:
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"[{name}] mixture: probability {p!r} for {value!r}")
        total += p
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"[{name}] mixture sums to {total!r}, expected 1")


def _table(items: tuple[tuple[object, float], ...]) -> tuple[list[float], list]:
    """(sums, values) of a mixture: ``values[bisect_right(sums, u)]`` is
    the first value whose running sum exceeds u, the one a linear scan
    picks.  The last value is repeated for a u at or past the last sum,
    which a mixture summing to 1 within rounding can leave."""
    values = [value for value, _ in items]
    return list(accumulate(p for _, p in items)), values + values[-1:]


@dataclass(frozen=True)
class PopulationSpec:
    """Parameters for one synthetic police-reported crash population.

    Mixtures are (value, probability) tuples summing to 1.  Severity is
    the crash-level maximum KABCO; tow and airbag are per-unit marginal
    probabilities folded up to the crash.  weights picks the per-crash
    sample-weight distribution: "unit" (all 1), "integer" (uniform on
    1..5), or "real" (uniform on [0.5, 5.0)).  A fault names the section
    (and key) of a population spec that gives the field.
    """

    n_crashes: int
    multiplicity: tuple[tuple[int, float], ...]
    severity: tuple[tuple[Kabco, float], ...]
    tow_p: float
    airbag_p: float
    body: tuple[tuple[BodyClass, float], ...]
    road: tuple[tuple[RoadClass, float], ...]
    weights: str
    region: Region
    year: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_crashes < 0:
            raise ValidationError(
                f"[population] n_crashes: must be >= 0, got {self.n_crashes}")
        _check_mixture("multiplicity", self.multiplicity)
        for m, _ in self.multiplicity:
            if m < 1:
                raise ValidationError(f"[multiplicity] support must be >= 1, got {m}")
        _check_mixture("severity", self.severity)
        for k, _ in self.severity:
            if k in (Kabco.ISU, Kabco.UNK):
                raise ValidationError(
                    f"[severity] mixture over O/C/B/A/K only, got {k.value}")
        _check_mixture("body", self.body)
        _check_mixture("road", self.road)
        for name, p in (("tow_p", self.tow_p), ("airbag_p", self.airbag_p)):
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"[flags] {name}: must lie in [0, 1], got {p!r}")
        if self.weights not in ("unit", "integer", "real"):
            raise ValidationError(
                f"[population] weights: unknown weight distribution {self.weights!r}")

    @classmethod
    def from_config(cls, path: str) -> "PopulationSpec":
        """Load from an INI file; see tests/fixtures for the layout."""
        with _opened(path, "population spec") as handle:
            ini = _Ini(handle.read(), f"population spec {path}")
        required = ("n_crashes", "seed", "year")
        pop = {key: ini.get("population", key, required=key in required)
               for key in (*required, "weights", "region")}
        flags = {key: ini.get("flags", key, required=True) for key in ("tow_p", "airbag_p")}
        mixtures = {}
        for name, parse in (("multiplicity", int), ("severity", Kabco),
                            ("body", BodyClass), ("road", RoadClass)):
            pairs = ini.items(name)
            try:
                mixtures[name] = tuple((parse(key), float(p)) for key, p in pairs)
            except ValueError as exc:
                raise ValidationError(f"{ini.label}: [{name}] {exc}") from None
        ini.check()
        try:
            region_text = pop["region"] or "national"
            if region_text == "national":
                region = Region.national()
            else:
                parts = region_text.split(":")
                if len(parts) != 3 or parts[0] != "county":
                    raise ValueError(
                        f"region must be 'national' or 'county:NAME:ST', got {region_text!r}"
                    )
                region = Region.county(parts[1], parts[2])
            n_crashes, seed, year = int(pop["n_crashes"]), int(pop["seed"], 0), int(pop["year"])
            tow_p, airbag_p = float(flags["tow_p"]), float(flags["airbag_p"])
            return cls(
                n_crashes=n_crashes,
                multiplicity=mixtures["multiplicity"],
                severity=mixtures["severity"],
                tow_p=tow_p,
                airbag_p=airbag_p,
                body=mixtures["body"],
                road=mixtures["road"],
                weights=pop["weights"] or "unit",
                region=region,
                year=year,
                seed=seed,
            )
        except ValueError as exc:
            raise ValidationError(f"{ini.label}: {exc}") from exc


@dataclass(frozen=True)
class GroundTruth:
    """Exact weighted tallies recorded at generation time.

    Counts cover every generated crash on every road class.  Tow and
    airbag tallies use the same eligible-unit basis as the benchmark
    (in-transport passenger and NFS units); the all-unit fold is still
    on each crash record's own flags.
    """

    crash_count: int
    vehicle_count: int
    weighted_crashes: float
    weighted_vehicles: float
    crashes_by_severity: tuple[tuple[SeverityLevel, float], ...]
    units_by_body: tuple[tuple[BodyClass, float], ...]

    def severity_count(self, level: SeverityLevel) -> float:
        for found, value in self.crashes_by_severity:
            if found is level:
                return value
        raise ValidationError(f"no ground-truth tally for severity {level.value}")


# Observable severity flags re-derived here from raw fields, deliberately
# not sharing code with the filters module.  Tow and airbag follow the
# eligible-unit basis: only in-transport passenger and NFS units count,
# matching the subset the benchmark retains; the crash-level folded flag
# applies only when no unit rows exist at all.
_INJURY = (Kabco.K, Kabco.A, Kabco.B, Kabco.C, Kabco.ISU)
_SERIOUS = (Kabco.K, Kabco.A)
_ELIGIBLE = (BodyClass.PASSENGER, BodyClass.VEHICLE_NFS)


def _naive_levels(crash: CrashEvent,
                  units: Sequence[VehicleInvolvement]) -> tuple[bool, ...]:
    """Whether the crash qualifies at each of OBSERVED_LEVELS, in its order."""
    k = crash.max_kabco
    if units:
        tow = airbag = False
        for u in units:
            if u.in_transport and u.body_class in _ELIGIBLE:
                tow = tow or u.towed
                airbag = airbag or u.airbag_deployed
    else:
        tow, airbag = crash.tow_away, crash.airbag_deployed
    return True, k in _INJURY, tow, airbag, k in _SERIOUS, k is Kabco.K


def _naive_has(crash: CrashEvent, units: Sequence[VehicleInvolvement],
               level: SeverityLevel) -> bool:
    if level not in OBSERVED_LEVELS:
        raise ValidationError(f"severity {level.value} is not observable")
    return _naive_levels(crash, units)[OBSERVED_LEVELS.index(level)]


def generate(
    spec: PopulationSpec,
) -> tuple[tuple[CrashEvent, ...], tuple[VehicleInvolvement, ...], GroundTruth]:
    """Draw one population from a single splitmix64 stream.

    Draw order per crash is fixed (multiplicity, severity, road, weight,
    then body/towed/airbag per unit) so a seed pins the full output.
    """
    random = SplitMix64(spec.seed).random
    count_sums, counts = _table(spec.multiplicity)
    kabco_sums, kabcos = _table(spec.severity)
    road_sums, roads = _table(spec.road)
    body_sums, bodies = _table(spec.body)
    unit_ids = [str(j + 1) for j in range(max(counts))]
    crashes: list[CrashEvent] = []
    vehicles: list[VehicleInvolvement] = []
    sev_tally = [0.0] * len(OBSERVED_LEVELS)
    body_tally = {body: 0.0 for body, _ in spec.body}
    weighted_crashes = 0.0
    weighted_vehicles = 0.0
    for i in range(spec.n_crashes):
        crash_id = f"S{i + 1:06d}"
        count = counts[bisect_right(count_sums, random())]
        kabco = kabcos[bisect_right(kabco_sums, random())]
        road = roads[bisect_right(road_sums, random())]
        if spec.weights == "unit":
            weight = 1.0
        elif spec.weights == "integer":
            weight = float(1 + int(random() * 5.0))
        else:
            weight = 0.5 + 4.5 * random()
        units = [
            VehicleInvolvement(
                crash_id=crash_id,
                unit_id=unit_id,
                body_class=bodies[bisect_right(body_sums, random())],
                in_transport=True,
                towed=random() < spec.tow_p,
                airbag_deployed=random() < spec.airbag_p,
            )
            for unit_id in unit_ids[:count]
        ]
        towed = airbag = False
        for unit in units:
            body_tally[unit.body_class] += weight
            towed = towed or unit.towed
            airbag = airbag or unit.airbag_deployed
        crash = CrashEvent(
            crash_id=crash_id,
            source="synth",
            region=spec.region,
            year=spec.year,
            road_class=road,
            sample_weight=weight,
            max_kabco=kabco,
            tow_away=towed,
            airbag_deployed=airbag,
        )
        crashes.append(crash)
        vehicles.extend(units)
        weighted_crashes += weight
        weighted_vehicles += weight * count
        for level, has in enumerate(_naive_levels(crash, units)):
            if has:
                sev_tally[level] += weight
    truth = GroundTruth(
        crash_count=len(crashes),
        vehicle_count=len(vehicles),
        weighted_crashes=weighted_crashes,
        weighted_vehicles=weighted_vehicles,
        crashes_by_severity=tuple(zip(OBSERVED_LEVELS, sev_tally)),
        units_by_body=tuple(body_tally.items()),
    )
    return tuple(crashes), tuple(vehicles), truth


def brute_force_tally(
    crashes: tuple[CrashEvent, ...],
    vehicles: tuple[VehicleInvolvement, ...],
    question: str,
    *,
    severity: SeverityLevel = SeverityLevel.POLICE_REPORTED,
    road: str = "all",
    w: float | None = None,
) -> float:
    """Answer one counting question by a naive full scan.

    Shares no code with the rates or filters modules; this is the oracle
    they are tested against.  road is "all" or "surface"; w is the NFS
    imputation weight for vehicle_count (None means fail if NFS present).
    """
    if road not in ("all", "surface"):
        raise ValidationError(f"road must be 'all' or 'surface', got {road!r}")
    units_of: dict[str, list[VehicleInvolvement]] = {c.crash_id: [] for c in crashes}
    for unit in vehicles:
        units_of[unit.crash_id].append(unit)

    def eligible(crash: CrashEvent) -> bool:
        if road == "surface" and crash.road_class is not RoadClass.SURFACE_STREET:
            return False
        return _naive_has(crash, units_of[crash.crash_id], severity)

    if question == "crash_count":
        return sum(c.sample_weight for c in crashes if eligible(c))
    if question == "weighted_crashes":
        return sum(
            c.sample_weight for c in crashes
            if road == "all" or c.road_class is RoadClass.SURFACE_STREET
        )
    if question == "weighted_vehicles":
        total = 0.0
        for crash in crashes:
            if road == "surface" and crash.road_class is not RoadClass.SURFACE_STREET:
                continue
            total += crash.sample_weight * len(units_of[crash.crash_id])
        return total
    if question == "vehicle_count":
        # Exactly rounded: the imputed amounts are not integers, and the
        # correctly rounded total is the one value independent of order.
        terms = []
        for crash in crashes:
            if not eligible(crash):
                continue
            per_crash = 0.0
            for unit in units_of[crash.crash_id]:
                if not unit.in_transport:
                    continue
                if unit.body_class is BodyClass.PASSENGER:
                    per_crash += 1.0
                elif unit.body_class is BodyClass.VEHICLE_NFS:
                    if w is None:
                        raise ValidationError(
                            "vehicle_count needs an imputation weight: NFS units present"
                        )
                    per_crash += w
            terms.append(crash.sample_weight * per_crash)
        return math.fsum(terms)
    if question == "imputation_weight":
        passenger = 0.0
        classified = 0.0
        for crash in crashes:
            if road == "surface" and crash.road_class is not RoadClass.SURFACE_STREET:
                continue
            for unit in units_of[crash.crash_id]:
                if not unit.in_transport:
                    continue
                if unit.body_class is BodyClass.PASSENGER:
                    passenger += crash.sample_weight
                    classified += crash.sample_weight
                elif unit.body_class is BodyClass.OTHER_VEHICLE:
                    classified += crash.sample_weight
        if classified == 0.0:
            raise ValidationError("no classified vehicle units to impute from")
        return passenger / classified
    if question == "ratio":
        crash_total = 0.0
        unit_total = 0.0
        for crash in crashes:
            if road == "surface" and crash.road_class is not RoadClass.SURFACE_STREET:
                continue
            if not _naive_has(crash, units_of[crash.crash_id], severity):
                continue
            crash_total += crash.sample_weight
            for unit in units_of[crash.crash_id]:
                if unit.in_transport and unit.body_class is not BodyClass.NON_VEHICLE:
                    unit_total += crash.sample_weight
        if crash_total == 0.0:
            raise ValidationError("ratio undefined on zero crashes")
        return unit_total / crash_total
    raise ValidationError(f"unknown tally question {question!r}")


def simulate_power(
    benchmark_rate: float,
    relative_rate: float,
    vmt_millions: float,
    alpha: float = 0.05,
    n_trials: int = 20000,
    seed: int = 0,
) -> float:
    """Empirical rejection rate of the two-sided normal-approximation test.

    Each trial draws X ~ Poisson(r * lambda_B * t) from its own derived
    sub-stream and applies the score test z = (X - mu0)/sqrt(mu0) with
    mu0 = lambda_B * t, rejecting when |z| exceeds the upper alpha/2
    normal quantile.  Returns the rejection fraction.
    """
    if n_trials < 1000:
        raise ValidationError(f"n_trials must be >= 1000, got {n_trials}")
    if not benchmark_rate > 0.0 or not relative_rate > 0.0 or not vmt_millions > 0.0:
        raise ValidationError("benchmark_rate, relative_rate, vmt_millions must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha!r}")
    mu0 = benchmark_rate * vmt_millions
    mu1 = relative_rate * mu0
    z_a = normal_quantile(1.0 - alpha / 2.0)
    root = math.sqrt(mu0)
    counts = derived_poisson(seed, mu1, n_trials)
    rejections = int((abs((counts - mu0) / root) > z_a).sum())
    return rejections / n_trials
