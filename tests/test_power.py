"""Sample-size closed form and the hand-rolled normal quantile."""

import math

import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtri

from crashbench.errors import ValidationError
from crashbench.power import (
    PowerQuery,
    achieved_power,
    normal_cdf,
    normal_quantile,
    power_table,
    required_vmt,
)

# National benchmark rates implied by the shipped 2022 aggregates.
LAM_BLANCO = 42432501.0 / 2140140.0
LAM_POLICE = 8768951.0 / 2140140.0
LAM_FATAL = 38507.0 / 2140140.0


class TestNormalQuantile:
    def test_textbook_anchors(self):
        assert normal_quantile(0.975) == pytest.approx(
            1.959963984540054, abs=1e-12)
        assert normal_quantile(0.8) == pytest.approx(
            0.8416212335729144, abs=1e-12)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
    def test_matches_reference_inverse_cdf(self, p):
        assert normal_quantile(p) == pytest.approx(float(ndtri(p)), abs=1e-12)

    @given(st.floats(min_value=1e-7, max_value=0.5))
    def test_antisymmetric(self, p):
        # Tolerance is set by how coarsely floats near 1 represent 1 - p,
        # not by the quantile itself.
        assert normal_quantile(p) == pytest.approx(
            -normal_quantile(1.0 - p), abs=1e-9)

    @given(st.floats(min_value=-5.0, max_value=5.0))
    def test_round_trips_through_cdf(self, x):
        assert normal_quantile(normal_cdf(x)) == pytest.approx(x, abs=1e-9)

    def test_domain(self):
        for p in (0.0, 1.0, -0.1, 1.1, math.nan):
            with pytest.raises(ValidationError):
                normal_quantile(p)


class TestPowerQuery:
    def test_defaults(self):
        q = PowerQuery(LAM_FATAL, 0.5)
        assert q.alpha == 0.05
        assert q.target_power == 0.80

    @pytest.mark.parametrize("kwargs", [
        dict(benchmark_rate=0.0, relative_rate=0.5),
        dict(benchmark_rate=-1.0, relative_rate=0.5),
        dict(benchmark_rate=math.inf, relative_rate=0.5),
        dict(benchmark_rate=1.0, relative_rate=0.0),
        dict(benchmark_rate=1.0, relative_rate=-0.5),
        dict(benchmark_rate=1.0, relative_rate=0.5, alpha=0.0),
        dict(benchmark_rate=1.0, relative_rate=0.5, alpha=1.0),
        dict(benchmark_rate=1.0, relative_rate=0.5, target_power=1.0),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValidationError):
            PowerQuery(**kwargs)

    @pytest.mark.parametrize("target, r", [(0.01, 1.25), (1e-7, 0.25)])
    def test_rejects_a_target_met_at_any_exposure(self, target, r):
        # z_a + z_p * sqrt(r) <= 0: the closed form would square a negative
        # spread and return miles at which the power is far below target.
        with pytest.raises(ValidationError,
                           match=f"target_power {target!r} is met at any exposure"):
            PowerQuery(LAM_FATAL, r, target_power=target)


class TestRequiredVmt:
    def test_reference_sample_sizes(self):
        assert required_vmt(PowerQuery(LAM_FATAL, 0.5)) == pytest.approx(
            1451.3478638300876, rel=1e-12)
        assert required_vmt(PowerQuery(LAM_POLICE, 1.25)) == pytest.approx(
            32.86151365306218, rel=1e-12)
        assert required_vmt(PowerQuery(LAM_POLICE, 0.25)) == pytest.approx(
            2.459283384497293, rel=1e-12)
        assert required_vmt(PowerQuery(LAM_BLANCO, 0.01)) == pytest.approx(
            0.21502479147066592, rel=1e-12)

    def test_equal_rates_diverge(self):
        with pytest.raises(ValidationError, match="unbounded"):
            required_vmt(PowerQuery(LAM_FATAL, 1.0))

    def test_exposure_scales_inversely_with_rate(self):
        # Doubling the benchmark rate halves the miles, to the last bit,
        # because the expected event count does not depend on the rate.
        base = required_vmt(PowerQuery(LAM_POLICE, 0.5))
        assert required_vmt(PowerQuery(2.0 * LAM_POLICE, 0.5)) == base / 2.0
        assert required_vmt(PowerQuery(0.25 * LAM_POLICE, 0.5)) == base * 4.0

    @given(st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=0.05, max_value=0.95))
    def test_event_count_is_rate_free(self, lam, r):
        t = required_vmt(PowerQuery(lam, r))
        t1 = required_vmt(PowerQuery(1.0, r))
        assert t * lam == pytest.approx(t1, rel=1e-12)

    def test_more_ambition_costs_more_miles(self):
        # Closer fictive rate, higher power, or stricter alpha all raise t.
        assert (required_vmt(PowerQuery(LAM_POLICE, 0.8))
                > required_vmt(PowerQuery(LAM_POLICE, 0.5))
                > required_vmt(PowerQuery(LAM_POLICE, 0.25)))
        assert (required_vmt(PowerQuery(LAM_POLICE, 1.1))
                > required_vmt(PowerQuery(LAM_POLICE, 1.5))
                > required_vmt(PowerQuery(LAM_POLICE, 2.0)))
        assert (required_vmt(PowerQuery(LAM_POLICE, 0.5, target_power=0.9))
                > required_vmt(PowerQuery(LAM_POLICE, 0.5)))
        assert (required_vmt(PowerQuery(LAM_POLICE, 0.5, alpha=0.01))
                > required_vmt(PowerQuery(LAM_POLICE, 0.5)))


class TestAchievedPower:
    @pytest.mark.parametrize("lam,r", [
        (LAM_FATAL, 0.5), (LAM_POLICE, 1.25), (LAM_BLANCO, 0.01),
        (LAM_POLICE, 0.25),
    ])
    def test_inverts_required_vmt(self, lam, r):
        t = required_vmt(PowerQuery(lam, r))
        assert achieved_power(lam, r, t) == pytest.approx(0.8, abs=1e-9)

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1e-3, max_value=1e3).filter(lambda r: r != 1.0),
           st.floats(min_value=1e-6, max_value=0.5),
           st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_every_accepted_query_meets_its_target(self, lam, r, alpha, target):
        # A rejected query's target is already met as the exposure vanishes.
        try:
            q = PowerQuery(lam, r, alpha=alpha, target_power=target)
        except ValidationError:
            assert achieved_power(lam, r, 1e-12 / lam, alpha=alpha) >= target - 1e-9
            return
        assert achieved_power(lam, r, required_vmt(q), alpha=alpha) == pytest.approx(
            target, abs=1e-9)

    def test_monotone_in_exposure(self):
        t = required_vmt(PowerQuery(LAM_FATAL, 0.5))
        assert achieved_power(LAM_FATAL, 0.5, 2.0 * t) > 0.8
        assert achieved_power(LAM_FATAL, 0.5, 0.5 * t) < 0.8

    def test_rejects_nonpositive_exposure(self):
        with pytest.raises(ValidationError, match="positive"):
            achieved_power(LAM_FATAL, 0.5, 0.0)


class TestPowerTable:
    def test_grid_matches_scalar_form(self):
        table = power_table([("fatal", LAM_FATAL), ("police", LAM_POLICE)],
                            [0.25, 0.5, 1.0, 1.25])
        assert table.alpha == 0.05
        assert table.relative_rates == (0.25, 0.5, 1.0, 1.25)
        assert [label for label, _, _ in table.rows] == ["fatal", "police"]
        _, lam, cells = table.rows[0]
        assert lam == LAM_FATAL
        assert cells[1].vmt_millions == required_vmt(PowerQuery(LAM_FATAL, 0.5))

    def test_unit_relative_rate_gets_annotated_hole(self):
        table = power_table([("fatal", LAM_FATAL)], [1.0])
        cell = table.rows[0][2][0]
        assert cell.vmt_millions is None
        assert cell.note == "diverges"

    def test_zero_rate_gets_annotated_holes(self):
        table = power_table([("serious", 0.0), ("fatal", LAM_FATAL)], [0.5, 1.0])
        (_, lam, zero), (_, _, fatal) = table.rows
        assert lam == 0.0
        assert [(c.vmt_millions, c.note) for c in zero] == [
            (None, "zero rate"), (None, "diverges")]
        assert fatal[0].vmt_millions == required_vmt(PowerQuery(LAM_FATAL, 0.5))

    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
    def test_invalid_rate_names_its_row(self, lam):
        with pytest.raises(ValidationError, match="power row serious: benchmark_rate"):
            power_table([("serious", lam)], [0.5])

    @pytest.mark.parametrize("lam, r", [(0.0, 0.5), (LAM_FATAL, 1.0)])
    def test_empty_cells_still_check_the_settings(self, lam, r):
        with pytest.raises(ValidationError, match="power row x: alpha"):
            power_table([("x", lam)], [r], alpha=1.5)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            power_table([], [0.5])
        with pytest.raises(ValidationError, match="at least one"):
            power_table([("fatal", LAM_FATAL)], [])
