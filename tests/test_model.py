import pytest

from crashbench.errors import ValidationError
from crashbench.model import (
    AreaType,
    BenchmarkRate,
    BLANCO,
    BLINCOE,
    Kabco,
    KABCO_FOLD_RANK,
    OBSERVED_LEVELS,
    PassengerShareTable,
    PersonOutcome,
    Region,
    SCHEMES,
    SEVERITY_CHAIN,
    SeverityLevel,
    ShareGroup,
    UNADJUSTED,
)


class TestSeverity:
    def test_chain_runs_broad_to_narrow(self):
        assert SEVERITY_CHAIN == (
            SeverityLevel.ANY_PROPERTY_DAMAGE_OR_INJURY,
            SeverityLevel.POLICE_REPORTED,
            SeverityLevel.ANY_INJURY_REPORTED,
            SeverityLevel.SUSPECTED_SERIOUS_INJURY_PLUS,
            SeverityLevel.FATAL,
        )

    def test_tow_and_airbag_sit_outside_the_chain(self):
        outside = set(SeverityLevel) - set(SEVERITY_CHAIN)
        assert outside == {SeverityLevel.TOW_AWAY, SeverityLevel.AIRBAG_DEPLOYED}

    def test_observed_levels_leave_out_the_adjustment_level(self):
        assert set(OBSERVED_LEVELS) == (
            set(SeverityLevel) - {SeverityLevel.ANY_PROPERTY_DAMAGE_OR_INJURY})
        assert len(OBSERVED_LEVELS) == 6


class TestKabco:
    def test_injury_flags(self):
        injured = {k for k in Kabco if k.is_injury}
        assert injured == {Kabco.K, Kabco.A, Kabco.B, Kabco.C, Kabco.ISU}
        serious = {k for k in Kabco if k.is_suspected_serious_plus}
        assert serious == {Kabco.K, Kabco.A}

    def test_fold_rank_orders_by_severity(self):
        ranked = sorted(Kabco, key=KABCO_FOLD_RANK.__getitem__, reverse=True)
        assert ranked == [Kabco.K, Kabco.A, Kabco.B, Kabco.C, Kabco.ISU,
                          Kabco.O, Kabco.UNK]


class TestRegion:
    def test_national(self):
        nat = Region.national()
        assert nat.kind == "national"
        assert nat.share_state == "US"
        assert nat == Region.national()

    def test_county(self):
        sf = Region.county("San Francisco", "CA")
        assert sf.kind == "county"
        assert sf.share_state == "CA"
        assert sf != Region.county("San Francisco", "IL")


class TestPersonOutcome:
    @pytest.mark.parametrize("crash_id, person_id, reason", [
        ("C1", "", "crash C1: person_id is empty"),
        ("", "1", "person crash_id is empty"),
    ])
    def test_empty_key_rejected(self, crash_id, person_id, reason):
        with pytest.raises(ValidationError, match=reason):
            PersonOutcome(crash_id, "1", person_id, Kabco.O, False)


class TestShareTable:
    def test_lookup_and_missing(self):
        table = PassengerShareTable.from_mapping({
            ("US", AreaType.URBAN, ShareGroup.OTHER): 0.92,
        })
        assert table.get("US", AreaType.URBAN, ShareGroup.OTHER) == 0.92
        with pytest.raises(ValidationError, match="no passenger share"):
            table.get("US", AreaType.RURAL, ShareGroup.OTHER)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            PassengerShareTable.from_mapping({
                ("US", AreaType.URBAN, ShareGroup.OTHER): 1.2,
            })


class TestSchemes:
    def test_factors(self):
        assert UNADJUSTED.pdo_factor == 1.0
        assert UNADJUSTED.injury_factor == 1.0
        assert BLINCOE.pdo_factor == pytest.approx(1.0 / (1.0 - 0.597))
        assert BLINCOE.injury_factor == pytest.approx(1.0 / (1.0 - 0.319))
        assert BLANCO.pdo_factor == pytest.approx(1.0 / (1.0 - 0.84))
        assert BLANCO.injury_factor == BLINCOE.injury_factor

    def test_registry(self):
        assert set(SCHEMES) == {"unadjusted", "blincoe", "blanco"}


class TestBenchmarkRate:
    def _rate(self, numerator, vmt, severity=SeverityLevel.POLICE_REPORTED, **kw):
        return BenchmarkRate(
            region=Region.national(), year=2022, severity=severity,
            adjustment="unadjusted", numerator=numerator, vmt_millions=vmt,
            rate_ipmm=numerator / vmt, **kw)

    def test_rate_must_match_ratio(self):
        with pytest.raises(ValidationError, match="does not equal"):
            BenchmarkRate(
                region=Region.national(), year=2022,
                severity=SeverityLevel.POLICE_REPORTED,
                adjustment="unadjusted", numerator=10.0, vmt_millions=2.0,
                rate_ipmm=4.0)

    def test_interval_must_bracket(self):
        with pytest.raises(ValidationError, match="bracket"):
            self._rate(10.0, 2.0, ci_low_ipmm=6.0, ci_high_ipmm=7.0)

    def test_display_three_significant_figures(self):
        assert self._rate(8768951.0, 2140140.0).display == "4.10 IPMM"
        assert self._rate(250.0, 1.0).display == "250 IPMM"
        assert self._rate(0.0, 1.0).display == "0.00 IPMM"

    def test_fatal_rates_display_per_billion(self):
        rate = self._rate(38507.0, 2140140.0, severity=SeverityLevel.FATAL)
        assert rate.display == "18.0 IPBM"
