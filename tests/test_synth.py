"""Generator determinism and oracle agreement with the counting pipeline."""

import math
import tracemalloc
from dataclasses import replace

import pytest
from scipy import stats

from crashbench.errors import ValidationError
from crashbench.filters import select_subset
from crashbench.model import (
    BodyClass,
    Kabco,
    Region,
    RoadClass,
    SeverityLevel,
)
from crashbench.power import PowerQuery, normal_quantile, required_vmt
from crashbench.rates import (
    compute_rate,
    count_crashed_vehicles,
    crash_vs_vehicle_ratio,
    resolve_imputation,
    tally_crash_counts,
)
from crashbench.synth import (
    GroundTruth,
    PopulationSpec,
    SplitMix64,
    brute_force_tally,
    derived_poisson,
    generate,
    poisson,
    simulate_power,
)

OBSERVABLE = (
    SeverityLevel.POLICE_REPORTED,
    SeverityLevel.ANY_INJURY_REPORTED,
    SeverityLevel.TOW_AWAY,
    SeverityLevel.AIRBAG_DEPLOYED,
    SeverityLevel.SUSPECTED_SERIOUS_INJURY_PLUS,
    SeverityLevel.FATAL,
)


def population(seed, *, weights="integer", max_multiplicity=2, n_crashes=30):
    multiplicity = {
        2: ((1, 0.5), (2, 0.5)),
        3: ((1, 0.45), (2, 0.40), (3, 0.15)),
    }[max_multiplicity]
    return PopulationSpec(
        n_crashes=n_crashes,
        multiplicity=multiplicity,
        severity=((Kabco.O, 0.55), (Kabco.C, 0.20), (Kabco.B, 0.12),
                  (Kabco.A, 0.08), (Kabco.K, 0.05)),
        tow_p=0.3,
        airbag_p=0.2,
        body=((BodyClass.PASSENGER, 0.75), (BodyClass.VEHICLE_NFS, 0.10),
              (BodyClass.OTHER_VEHICLE, 0.10), (BodyClass.NON_VEHICLE, 0.05)),
        road=((RoadClass.SURFACE_STREET, 0.7),
              (RoadClass.EXCLUDED_HIGHWAY, 0.2),
              (RoadClass.UNKNOWN, 0.1)),
        weights=weights,
        region=Region.national(),
        year=2022,
        seed=seed,
    )


class TestSplitMix64:
    def test_reference_vector(self):
        # Published output of splitmix64 from seed 0.
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_uniform_takes_top_53_bits(self):
        assert SplitMix64(0).random() == (0xE220A8397B1DCDAF >> 11) / float(1 << 53)
        rng = SplitMix64(99)
        assert all(0.0 <= rng.random() < 1.0 for _ in range(1000))

    def test_seed_pins_sequence(self):
        a = [SplitMix64(7).next_u64() for _ in range(5)]
        b = [SplitMix64(7).next_u64() for _ in range(5)]
        assert a == b
        assert a != [SplitMix64(8).next_u64() for _ in range(5)]

    def test_derived_streams_ignore_parent_position(self):
        consumed = SplitMix64(7)
        for _ in range(10):
            consumed.next_u64()
        fresh = SplitMix64(7)
        assert consumed.derived(3).next_u64() == fresh.derived(3).next_u64()
        assert fresh.derived(0).next_u64() != fresh.derived(1).next_u64()

    def test_derived_rejects_negative_index(self):
        with pytest.raises(ValidationError, match=">= 0"):
            SplitMix64(7).derived(-1)


class TestPoisson:
    def test_zero_mean_is_always_zero(self):
        rng = SplitMix64(1)
        assert all(poisson(rng, 0.0) == 0 for _ in range(100))

    def test_rejects_bad_mean(self):
        rng = SplitMix64(1)
        for mean in (-1.0, math.inf, math.nan):
            with pytest.raises(ValidationError):
                poisson(rng, mean)

    def test_deterministic(self):
        draws = [poisson(SplitMix64(5).derived(k), 3.7) for k in range(50)]
        again = [poisson(SplitMix64(5).derived(k), 3.7) for k in range(50)]
        assert draws == again

    def test_moderate_mean_distribution(self):
        rng = SplitMix64(17)
        n = 20000
        total = sum(poisson(rng, 2.0) for _ in range(n))
        # 4 sigma around the mean.
        assert abs(total / n - 2.0) < 4.0 * math.sqrt(2.0 / n)

    def test_large_mean_splits_without_bias(self):
        # Means above 500 recurse into halves; the sum must stay Poisson.
        rng = SplitMix64(23)
        n = 800
        total = sum(poisson(rng, 1200.0) for _ in range(n))
        assert abs(total / n - 1200.0) < 4.0 * math.sqrt(1200.0 / n)


class TestDerivedPoisson:
    # Means cover zero, tiny, moderate, the 500 split edge on both sides
    # and a twice-halved mean; 2000 trials span two blocks of trials.
    @pytest.mark.parametrize("mean", [0.0, 0.04, 3.7, 168.2, 500.0, 501.0, 1200.0])
    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    def test_bit_identical_to_scalar_draws(self, seed, mean):
        n = 2000 if mean < 100.0 else 200
        expected = [poisson(SplitMix64(seed).derived(k), mean) for k in range(n)]
        assert derived_poisson(seed, mean, n).tolist() == expected

    def test_rejects_bad_mean(self):
        for mean in (-1.0, math.inf, math.nan):
            with pytest.raises(ValidationError, match="poisson mean"):
                derived_poisson(0, mean, 10)


class TestPopulationSpec:
    def test_fixture_config(self, fixtures):
        spec = PopulationSpec.from_config(
            str(fixtures / "synth" / "mixed_population.ini"))
        assert spec.n_crashes == 40
        assert spec.seed == 0x2A
        assert spec.year == 2022
        assert spec.weights == "integer"
        assert spec.region == Region.county("Maricopa", "AZ")
        assert spec.multiplicity == ((1, 0.45), (2, 0.40), (3, 0.15))
        assert spec.severity[0] == (Kabco.O, 0.60)
        assert spec.body[1] == (BodyClass.VEHICLE_NFS, 0.10)
        assert spec.road[0] == (RoadClass.SURFACE_STREET, 0.70)
        assert spec.tow_p == 0.35
        assert spec.airbag_p == 0.15

    def test_severity_mixture_limited_to_scale_codes(self):
        good = population(0)
        for bad in (Kabco.ISU, Kabco.UNK):
            with pytest.raises(ValidationError, match="O/C/B/A/K"):
                PopulationSpec(**{**good.__dict__, "severity": ((bad, 1.0),)})

    def test_mixture_validation(self):
        good = population(0)
        with pytest.raises(ValidationError, match="sums to"):
            PopulationSpec(**{**good.__dict__, "severity": ((Kabco.O, 0.5),)})
        with pytest.raises(ValidationError, match="is empty"):
            PopulationSpec(**{**good.__dict__, "body": ()})
        with pytest.raises(ValidationError, match="probability"):
            PopulationSpec(**{**good.__dict__,
                              "road": ((RoadClass.SURFACE_STREET, 1.5),
                                       (RoadClass.UNKNOWN, -0.5))})
        with pytest.raises(ValidationError, match="support must be >= 1"):
            PopulationSpec(**{**good.__dict__, "multiplicity": ((0, 1.0),)})
        with pytest.raises(ValidationError, match="weight distribution"):
            PopulationSpec(**{**good.__dict__, "weights": "gaussian"})
        with pytest.raises(ValidationError, match="n_crashes"):
            PopulationSpec(**{**good.__dict__, "n_crashes": -1})
        with pytest.raises(ValidationError, match="tow_p"):
            PopulationSpec(**{**good.__dict__, "tow_p": 1.5})

    def test_config_errors(self, tmp_path):
        with pytest.raises(ValidationError, match="not readable"):
            PopulationSpec.from_config(str(tmp_path / "missing.ini"))
        broken = tmp_path / "broken.ini"
        broken.write_text(
            "[population]\nn_crashes = 2\nseed = 1\nyear = 2022\n"
            "[multiplicity]\n1 = 1.0\n[severity]\nO = 1.0\n"
            "[body]\npassenger = 1.0\n[road]\nsurface_street = 1.0\n")
        with pytest.raises(ValidationError, match="missing"):
            PopulationSpec.from_config(str(broken))
        bad_region = tmp_path / "region.ini"
        bad_region.write_text(
            "[population]\nn_crashes = 2\nseed = 1\nyear = 2022\n"
            "region = city:Phoenix\n"
            "[multiplicity]\n1 = 1.0\n[severity]\nO = 1.0\n"
            "[body]\npassenger = 1.0\n[road]\nsurface_street = 1.0\n"
            "[flags]\ntow_p = 0\nairbag_p = 0\n")
        with pytest.raises(ValidationError, match="county:NAME:ST"):
            PopulationSpec.from_config(str(bad_region))


@pytest.fixture(scope="module")
def fixture_population(fixtures):
    spec = PopulationSpec.from_config(
        str(fixtures / "synth" / "mixed_population.ini"))
    return generate(spec)


class TestGenerate:
    def test_seed_pins_population(self, fixtures):
        spec = PopulationSpec.from_config(
            str(fixtures / "synth" / "mixed_population.ini"))
        assert generate(spec) == generate(spec)

    def test_draw_order_contract(self, fixture_population):
        # Pinned output for seed 0x2A; a change here means the documented
        # per-crash draw order (and thus every regenerated fixture) moved.
        crashes, vehicles, truth = fixture_population
        assert truth.crash_count == 40
        assert truth.vehicle_count == 68
        assert truth.weighted_crashes == 135.0
        assert truth.weighted_vehicles == 220.0
        tallies = {level.value: count for level, count in truth.crashes_by_severity}
        assert tallies == {
            "police_reported": 135.0,
            "any_injury_reported": 66.0,
            "tow_away": 64.0,
            "airbag_deployed": 37.0,
            "suspected_serious_injury_plus": 19.0,
            "fatal": 6.0,
        }
        bodies = {body.value: count for body, count in truth.units_by_body}
        assert bodies == {
            "passenger": 177.0, "vehicle_nfs": 26.0,
            "other_vehicle": 7.0, "non_vehicle": 10.0,
        }

    def test_record_shape(self, fixture_population):
        crashes, vehicles, _ = fixture_population
        assert crashes[0].crash_id == "S000001"
        assert crashes[-1].crash_id == "S000040"
        assert all(c.source == "synth" for c in crashes)
        assert all(v.in_transport for v in vehicles)
        assert all(float(c.sample_weight).is_integer() for c in crashes)
        assert {v.crash_id for v in vehicles} <= {c.crash_id for c in crashes}

    def test_truth_rejects_unobservable_level(self, fixture_population):
        _, _, truth = fixture_population
        with pytest.raises(ValidationError, match="no ground-truth tally"):
            truth.severity_count(SeverityLevel.ANY_PROPERTY_DAMAGE_OR_INJURY)


class TestWeightingAndShape:
    def test_brute_force_of_nothing_is_zero(self):
        assert brute_force_tally((), (), "crash_count",
                                 severity=SeverityLevel.POLICE_REPORTED) == 0.0

    def test_uniform_weight_scales_every_tally_exactly(self):
        crashes, vehicles, _ = generate(population(11, weights="unit"))
        doubled = tuple(replace(c, sample_weight=2.0) for c in crashes)
        for level in OBSERVABLE:
            base = brute_force_tally(crashes, vehicles, "crash_count",
                                     severity=level, road="all")
            assert brute_force_tally(doubled, vehicles, "crash_count",
                                     severity=level, road="all") == 2.0 * base

    def test_single_unit_passenger_crashes_count_one_vehicle_each(self):
        spec = PopulationSpec(
            n_crashes=25,
            multiplicity=((1, 1.0),),
            severity=((Kabco.O, 0.6), (Kabco.B, 0.3), (Kabco.K, 0.1)),
            tow_p=0.3,
            airbag_p=0.2,
            body=((BodyClass.PASSENGER, 1.0),),
            road=((RoadClass.SURFACE_STREET, 1.0),),
            weights="unit",
            region=Region.national(),
            year=2022,
            seed=7,
        )
        crashes, vehicles, _ = generate(spec)
        assert len(vehicles) == len(crashes) == 25
        assert brute_force_tally(
            crashes, vehicles, "vehicle_count",
            severity=SeverityLevel.POLICE_REPORTED, road="all", w=1.0,
        ) == brute_force_tally(
            crashes, vehicles, "crash_count",
            severity=SeverityLevel.POLICE_REPORTED, road="all")


class TestOracleAgreement:
    """The pipeline must reproduce the generator's own books and a naive
    full scan, population by population."""

    def check(self, spec, exact):
        crashes, vehicles, truth = generate(spec)
        compare = ((lambda a, b: a == b) if exact
                   else (lambda a, b: a == pytest.approx(b, rel=1e-9)))

        subset_all = select_subset(crashes, vehicles, road="all", weighted=True)
        counts_all = tally_crash_counts(subset_all)
        for level in OBSERVABLE:
            assert compare(counts_all.get(level), truth.severity_count(level))
            assert compare(
                counts_all.get(level),
                brute_force_tally(crashes, vehicles, "crash_count",
                                  severity=level, road="all"))

        # Severity levels nest; the two flag levels only stay under the top.
        assert (counts_all.police_reported >= counts_all.any_injury_reported
                >= counts_all.suspected_serious_injury_plus >= counts_all.fatal)
        assert counts_all.tow_away <= counts_all.police_reported
        assert counts_all.airbag_deployed <= counts_all.police_reported

        surface = select_subset(crashes, vehicles, road="surface", weighted=True)
        counts_surface = tally_crash_counts(surface)
        imp = resolve_imputation(surface, spec.region)
        assert compare(
            imp.w, brute_force_tally(crashes, vehicles, "imputation_weight",
                                     road="surface"))
        for level in (SeverityLevel.POLICE_REPORTED, SeverityLevel.TOW_AWAY,
                      SeverityLevel.FATAL):
            assert compare(
                counts_surface.get(level),
                brute_force_tally(crashes, vehicles, "crash_count",
                                  severity=level, road="surface"))
            assert compare(
                count_crashed_vehicles(surface, level, imp.w),
                brute_force_tally(crashes, vehicles, "vehicle_count",
                                  severity=level, road="surface", w=imp.w))
        assert compare(crash_vs_vehicle_ratio(subset_all),
                       brute_force_tally(crashes, vehicles, "ratio"))

    @pytest.mark.parametrize("seed", range(50))
    def test_integer_weights_agree_exactly(self, seed):
        self.check(population(seed, weights="integer", max_multiplicity=2),
                   exact=True)

    @pytest.mark.parametrize("seed", range(50, 100))
    def test_real_weights_agree_closely(self, seed):
        self.check(population(seed, weights="real", max_multiplicity=3),
                   exact=False)

    def test_vehicle_count_requires_weight_when_nfs_present(self):
        crashes, vehicles, _ = generate(population(3))
        assert any(v.body_class is BodyClass.VEHICLE_NFS for v in vehicles)
        with pytest.raises(ValidationError, match="imputation weight"):
            brute_force_tally(crashes, vehicles, "vehicle_count", w=None)

    def test_unknown_question_rejected(self):
        crashes, vehicles, _ = generate(population(3))
        with pytest.raises(ValidationError, match="unknown tally question"):
            brute_force_tally(crashes, vehicles, "vibes")


class TestColumnPathOracle:
    """The canonical reader's columns, the same fold over rows held in
    memory (the raw-source path) and the naive oracle count the same
    population to the same bits.

    Each population mixes integer weights from 1 to 5, every body class,
    units not in transport, and crashes of another county and another
    year that the canonical reader must drop.  Integer weights and at most
    two units per crash keep the oracle's running sums exact, so the three
    must agree with ==.
    """

    REGION = Region.county("Maricopa", "AZ")

    def populations(self, seed):
        spec = replace(population(seed, n_crashes=300), region=self.REGION)
        crashes, vehicles, _ = generate(spec)
        rng = SplitMix64(seed)
        vehicles = [replace(v, in_transport=rng.random() >= 0.1) for v in vehicles]
        others = []
        for prefix, other in (("R", replace(spec, region=Region.county("Pima", "AZ"))),
                              ("Y", replace(spec, year=2021))):
            more, units, _ = generate(replace(other, n_crashes=40, seed=seed + 1))
            others.append(([replace(c, crash_id=prefix + c.crash_id) for c in more],
                           [replace(v, crash_id=prefix + v.crash_id) for v in units]))
        return list(crashes), vehicles, others

    @pytest.mark.parametrize("seed", range(20))
    def test_columns_adapter_and_oracle_agree(self, seed, tmp_path):
        from crashbench import interchange
        from crashbench.ingest import CombinedRecords, load_dataset
        from crashbench.model import AreaType, FunctionalClass, MileageCell
        from crashbench.rates import build_benchmark

        crashes, vehicles, others = self.populations(seed)
        interchange.write_crashes(tmp_path / "crashes.csv",
                                  crashes + [c for more, _ in others for c in more])
        interchange.write_vehicles(tmp_path / "vehicles.csv",
                                   vehicles + [v for _, units in others for v in units])
        interchange.write_mileage(tmp_path / "mileage.csv", [MileageCell(
            self.REGION, 2022, FunctionalClass.LOCAL, AreaType.ALL, 1000.0)])
        (tmp_path / "manifest.json").write_text(
            '{"region": {"kind": "county", "name": "Maricopa", "state": "AZ"},'
            ' "year": 2022, "road_rule": "all_roads",'
            ' "crash_sources": [{"spec": "canonical", "crash_file": "crashes.csv",'
            ' "vehicle_file": "vehicles.csv"}],'
            ' "mileage": [{"spec": "canonical", "file": "mileage.csv"}]}')
        dataset = load_dataset(interchange.load_manifest(tmp_path / "manifest.json")[0])
        assert dataset.records.diagnostics == {"region_filtered": 40, "year_mismatch": 40,
                                               "parent_dropped": sum(
                                                   len(units) for _, units in others)}
        from_columns = build_benchmark(dataset)
        records = CombinedRecords(
            rows={"crashes": interchange.encode("crashes", crashes),
                  "vehicles": interchange.encode("vehicles", vehicles), "persons": []},
            diagnostics=dataset.records.diagnostics, unit_tow_flags=True,
            unit_airbag_flags=True, weighted=True, caveats=())
        from_records = build_benchmark(replace(dataset, records=records))

        w = brute_force_tally(crashes, vehicles, "imputation_weight", road="surface")
        w_all = brute_force_tally(crashes, vehicles, "imputation_weight", road="all")
        for report in (from_columns, from_records):
            assert report.imputation_w == w
            for level in OBSERVABLE:
                assert report.crash_counts.get(level) == brute_force_tally(
                    crashes, vehicles, "crash_count", severity=level, road="surface")
                assert report.vehicle_counts.get(level) == brute_force_tally(
                    crashes, vehicles, "vehicle_count", severity=level, road="surface",
                    w=w)
            totals = report.intermediates
            assert totals["crashes"] == brute_force_tally(crashes, vehicles,
                                                          "weighted_crashes")
            assert totals["passenger_vehicles_all_roads"] == brute_force_tally(
                crashes, vehicles, "vehicle_count", w=w_all)
            assert report.vehicles_per_crash == brute_force_tally(crashes, vehicles, "ratio")
        assert from_columns.intermediates == from_records.intermediates
        assert from_columns.audit["surface"] == from_records.audit["surface"]
        assert from_columns.audit["all_roads"] == from_records.audit["all_roads"]


class TestSmallTownByConstruction:
    def test_three_vehicles_on_four_thousandths_mmi(self):
        # Two crashes, one single-vehicle and one two-vehicle, all
        # passenger cars: 3 vehicles over 12,000 miles is 250 per
        # million, with no imputation or weighting in the way.
        spec = PopulationSpec(
            n_crashes=2,
            multiplicity=((1, 0.5), (2, 0.5)),
            severity=((Kabco.O, 1.0),),
            tow_p=0.0, airbag_p=0.0,
            body=((BodyClass.PASSENGER, 1.0),),
            road=((RoadClass.SURFACE_STREET, 1.0),),
            weights="unit",
            region=Region.county("Springfield", "IL"),
            year=2022, seed=4)
        crashes, vehicles, truth = generate(spec)
        assert truth.vehicle_count == 3
        subset = select_subset(crashes, vehicles)
        imp = resolve_imputation(subset, spec.region)
        assert imp.w == 1.0
        numerator = count_crashed_vehicles(
            subset, SeverityLevel.POLICE_REPORTED, imp.w)
        assert numerator == 3.0
        rate = compute_rate(numerator, 0.012, region=spec.region, year=2022,
                            severity=SeverityLevel.POLICE_REPORTED, ci_count=3)
        assert rate.rate_ipmm == 250.0
        assert rate.display == "250 IPMM"


class TestSimulatePower:
    LAM_FATAL = 38507.0 / 2140140.0

    def test_matches_exact_poisson_rejection(self):
        # Exact rejection probability of the same score test, from the
        # Poisson CDF; the simulation must land inside a 4-sigma band.
        t = required_vmt(PowerQuery(self.LAM_FATAL, 0.5))
        mu0 = self.LAM_FATAL * t
        z = normal_quantile(0.975)
        lo, hi = mu0 - z * math.sqrt(mu0), mu0 + z * math.sqrt(mu0)
        exact = (stats.poisson.cdf(math.ceil(lo) - 1, 0.5 * mu0)
                 + stats.poisson.sf(math.floor(hi), 0.5 * mu0))
        n = 5000
        got = simulate_power(self.LAM_FATAL, 0.5, t, n_trials=n, seed=11)
        assert abs(got - exact) < 4.0 * math.sqrt(exact * (1.0 - exact) / n)

    def test_null_rejection_matches_alpha(self):
        n = 20000
        got = simulate_power(1.0, 1.0, 100.0, n_trials=n, seed=0)
        assert abs(got - 0.05) < 3.0 * math.sqrt(0.05 * 0.95 / n)

    def test_deterministic(self):
        a = simulate_power(self.LAM_FATAL, 0.5, 1000.0, n_trials=2000, seed=9)
        b = simulate_power(self.LAM_FATAL, 0.5, 1000.0, n_trials=2000, seed=9)
        assert a == b

    @pytest.mark.parametrize("args, kwargs, expected", [
        ((LAM_FATAL, 0.5, 1000.0), dict(n_trials=2000, seed=9), 0.5755),
        ((1.0, 1.0, 100.0), dict(n_trials=20000, seed=0), 0.05195),
        ((2.0, 0.25, 0.25), dict(n_trials=1000, seed=2**64 - 1), 0.003),
        ((1.0, 0.8, 625.0), dict(alpha=0.01, n_trials=1500, seed=5),
         0.9986666666666667),
    ])
    def test_pinned_results(self, args, kwargs, expected):
        # Recorded from the scalar per-trial loop; the sampler must not
        # move a single trial.
        assert simulate_power(*args, **kwargs) == expected

    def test_memory_is_bounded_by_the_trial_block(self):
        tracemalloc.start()
        try:
            simulate_power(1.0, 1.0, 1200.0, n_trials=20000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError, match="n_trials"):
            simulate_power(1.0, 0.5, 10.0, n_trials=10)
        with pytest.raises(ValidationError, match="positive"):
            simulate_power(0.0, 0.5, 10.0)
        with pytest.raises(ValidationError, match="alpha"):
            simulate_power(1.0, 0.5, 10.0, alpha=1.5)
        with pytest.raises(ValidationError, match="poisson mean"):
            simulate_power(1e300, 0.5, 1e300)
