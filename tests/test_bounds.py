"""Closed-form calculators: worked values, identities, and monotonicity."""

import math
from fractions import Fraction

import numpy as np
import pytest

from radon_machine import (
    ComplexityParams,
    ConfigError,
    boosted_confidence,
    choose_height,
    efficiency_report,
    radon_sample_size,
    runtime_model,
    sample_complexity_rademacher,
    sample_complexity_vc,
    sequential_sample_size,
)
from radon_machine.bounds import _as_float, _exact_pow, _pow


class TestBoostedConfidence:
    def test_one_round(self):
        assert boosted_confidence(4, 0.125, 1).delta == pytest.approx(0.25, rel=1e-12)

    def test_two_rounds(self):
        assert boosted_confidence(4, 0.125, 2).delta == pytest.approx(0.0625, rel=1e-12)

    def test_zero_rounds_is_union_bound(self):
        assert boosted_confidence(4, 0.125, 0).delta == pytest.approx(0.5, rel=1e-12)

    def test_vacuous_flag(self):
        result = boosted_confidence(4, 0.3, 1)
        assert result.vacuous
        assert result.delta == pytest.approx(1.2**2, rel=1e-12)
        assert not boosted_confidence(4, 0.125, 1).vacuous

    def test_log_space_survives_underflow(self):
        result = boosted_confidence(4, 1e-6, 20)
        assert result.delta == 0.0
        assert result.log2_delta == pytest.approx(float(2**20) * math.log2(4e-6), rel=1e-12)

    def test_log_matches_direct_when_representable(self):
        for r, db, h in [(3, 0.1, 3), (5, 0.01, 4), (11, 1e-3, 2), (4, 0.2, 6)]:
            direct = (r * db) ** (2**h)
            assert boosted_confidence(r, db, h).delta == pytest.approx(direct, rel=1e-12)

    def test_squaring_recursion(self):
        for h in range(6):
            low = boosted_confidence(7, 0.01, h)
            high = boosted_confidence(7, 0.01, h + 1)
            assert high.log2_delta == pytest.approx(2.0 * low.log2_delta, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            boosted_confidence(2, 0.1, 1)
        with pytest.raises(ConfigError):
            boosted_confidence(4, 0.0, 1)
        with pytest.raises(ConfigError):
            boosted_confidence(4, 0.1, -1)


class TestSampleComplexities:
    def test_vc_worked_value(self):
        # alpha = beta = 400 ln 2 at eps = 0.1, so n = (800 ln 2)^2
        expected = (800.0 * math.log(2.0)) ** 2
        assert sample_complexity_vc(0.1, 0.5) == pytest.approx(expected, rel=1e-12)
        assert sample_complexity_vc(0.1, 0.5) == pytest.approx(307489.93, rel=1e-7)

    def test_vc_log_term_vanishes_at_delta_one(self):
        alpha = 4.0 * math.log(2.0) / 0.04
        assert sample_complexity_vc(0.2, 1.0) == pytest.approx(alpha**2, rel=1e-12)

    def test_vc_quadruples_when_eps_halves(self):
        coarse = sample_complexity_vc(0.2, 0.3)
        fine = sample_complexity_vc(0.1, 0.3)
        assert fine == pytest.approx(16.0 * coarse, rel=1e-12)  # (1/eps^2)^2 scaling

    def test_vc_proof_form_is_linear_in_log(self):
        value = sample_complexity_vc(0.1, 0.5, proof_form=True)
        expected = 100.0 * (math.log(2.0) + 4.0 / math.log2(math.e))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_rademacher_worked_values(self):
        assert sample_complexity_rademacher(0.5, 0.5, 0.0) == pytest.approx(2.0, rel=1e-9)
        assert sample_complexity_rademacher(0.5, 0.25, 0.2) == pytest.approx(100.0, rel=1e-9)

    def test_rademacher_zero_at_delta_one(self):
        assert sample_complexity_rademacher(0.5, 1.0, 0.1) == 0.0

    def test_rademacher_infeasible_eps(self):
        with pytest.raises(ConfigError):
            sample_complexity_rademacher(0.3, 0.5, 0.2)
        with pytest.raises(ConfigError) as caught:
            sample_complexity_rademacher(math.nan, 0.5, 0.0)
        assert str(caught.value) == "infeasible eps: need eps > 2 * rho = 0.0, got nan"


class TestSampleSizes:
    def test_radon_size(self):
        assert radon_sample_size(4, 2, 100) == 1600.0
        assert radon_sample_size(7, 0, 123.5) == 123.5
        assert radon_sample_size(10, 4, 100) == 1e6

    def test_radon_size_huge_heights_saturate(self):
        assert radon_sample_size(10, 400, 100) == math.inf

    def test_sequential_worked_values(self):
        p1 = ComplexityParams(alpha_eps=0.0, beta_eps=1.0, k=1, kappa=1)
        assert sequential_sample_size(p1, 4, 0.125, 3) == pytest.approx(8.0, rel=1e-12)
        assert sequential_sample_size(p1, 4, 0.125, 0) == pytest.approx(1.0, rel=1e-12)
        p2 = ComplexityParams(alpha_eps=1.0, beta_eps=1.0, k=2, kappa=1)
        assert sequential_sample_size(p2, 4, 1.0 / 16.0, 1) == pytest.approx(25.0, rel=1e-12)

    def test_sequential_domain(self):
        p = ComplexityParams(alpha_eps=0.0, beta_eps=1.0, k=1, kappa=1)
        with pytest.raises(ConfigError):
            sequential_sample_size(p, 4, 0.25, 1)  # delta_base == 1/r


class TestChooseHeight:
    def test_worked_values(self):
        assert choose_height(1024.0, 1) == 7
        assert choose_height(1024.0, 2) == 4
        assert choose_height(4.0, 1) == 1

    def test_exact_integer_guard(self):
        # expression equals 1 exactly at M = 4; rounding must not bump it
        assert choose_height(4.0, 1) == 1
        assert choose_height(65536.0, 1) == 12  # 16 - 4 = 12, exact

    def test_domain(self):
        with pytest.raises(ConfigError):
            choose_height(2.0, 1)
        with pytest.raises(ConfigError):
            choose_height(100.0, 0)


class TestRuntimeModel:
    def test_fully_parallel_two_terms(self):
        assert runtime_model(10, 3, 2, 1, 9) == pytest.approx(10 + 2 * 27, rel=1e-12)
        assert runtime_model(10, 3, 2, 1, 100) == pytest.approx(10 + 2 * 27, rel=1e-12)

    def test_single_worker_worked_value(self):
        assert runtime_model(10, 3, 1, 1, 1) == pytest.approx(111.0, rel=1e-12)

    def test_height_zero(self):
        assert runtime_model(10, 3, 0, 2, 1) == pytest.approx(100.0, rel=1e-12)


class TestEfficiencyReport:
    PARAMS = ComplexityParams(alpha_eps=2.0, beta_eps=1.5, k=1, kappa=2)

    def test_height_zero_speedup_is_one(self):
        report = efficiency_report(self.PARAMS, 4, 0.1, 0, 1)
        assert report.speedup_estimate == pytest.approx(1.0, rel=1e-12)

    def test_speedup_approaches_power_of_two(self):
        big = ComplexityParams(alpha_eps=1e9, beta_eps=1e9, k=1, kappa=1)
        for h in (1, 2, 5):
            report = efficiency_report(big, 4, 0.1, h, 1)
            assert report.speedup_estimate == pytest.approx(2.0**h, rel=1e-6)

    def test_data_inefficiency_exponent(self):
        report = efficiency_report(self.PARAMS, 4, 0.05, 3, 1)
        m = report.m_sequential
        assert report.data_inefficiency == pytest.approx(
            (m / math.log2(m)) ** 2.0, rel=1e-12
        )  # log2(4) / k = 2

    def test_report_is_serialisable(self):
        report = efficiency_report(self.PARAMS, 5, 0.05, 2, 4)
        payload = report.to_dict()
        assert payload["r"] == 5
        assert payload["guarantee_valid"] is True
        assert payload["n_radon"] == pytest.approx(25.0 * payload["n_base"], rel=1e-12)

    def test_guarantee_flag(self):
        assert efficiency_report(self.PARAMS, 4, 0.125, 1, 1).guarantee_valid
        assert not efficiency_report(self.PARAMS, 4, 0.2, 1, 1).guarantee_valid


class TestMonotonicityGrid:
    def test_small_grid(self):
        # restricted to r >= 2^k, where replicating data cannot be cheaper
        # than the sequential enlargement
        checked = 0
        for r in (3, 4, 5, 8, 12):
            for k in (1, 2):
                if r < 2**k:
                    continue
                for alpha, beta in [(0.0, 1.0), (1.0, 1.0), (2.5, 0.7)]:
                    params = ComplexityParams(alpha_eps=alpha, beta_eps=beta, k=k, kappa=1)
                    for db_scale in (2.0, 8.0):
                        db = 1.0 / (db_scale * r)
                        prev_log = None
                        prev_m = None
                        for h in range(1, 5):
                            boost = boosted_confidence(r, db, h)
                            m = sequential_sample_size(params, r, db, h)
                            n = radon_sample_size(r, h, params.base_sample_size(db))
                            assert n >= m * (1.0 - 1e-12)
                            if prev_log is not None:
                                assert boost.log2_delta < prev_log
                                assert m > prev_m
                            prev_log, prev_m = boost.log2_delta, m
                            checked += 1
        assert checked >= 200


class TestPastFloatRange:
    """Magnitudes past float range are inf, built without the huge integer;
    within range the exact integers give the same bits as before."""

    def test_exact_power_matches_the_built_integer_around_the_boundary(self):
        for base in range(2, 13):
            edge = int(1024 / math.log2(base))
            for exponent in range(max(0, edge - 3), edge + 4):
                assert _as_float(_exact_pow(base, exponent)) == _as_float(base**exponent)
        assert _exact_pow(3, 10**400) == math.inf

    def test_float_power_saturates(self):
        assert _pow(3.0, 10**6) == math.inf
        assert _pow(3.0, 10**400) == math.inf
        assert _pow(1.0, 10**400) == 1.0
        assert _pow(0.5, 10**400) == 0.0
        assert _pow(2.0, 10) == 1024.0

    @pytest.mark.parametrize(
        "r, h, n_base", [(4, 600, 1e-200), (3, 700, 1e-300), (11, 300, 2.5e-310)]
    )
    def test_sample_size_is_finite_where_only_r_to_the_h_passes_float_range(self, r, h, n_base):
        expected = float(Fraction(r**h) * Fraction(n_base))
        assert math.isclose(radon_sample_size(r, h, n_base), expected, rel_tol=1e-12)

    @pytest.mark.parametrize("h", [1000, 10**12, 10**400])
    def test_sample_size_past_float_range_is_inf(self, h):
        assert radon_sample_size(4, h, 1e-200) == math.inf
        params = ComplexityParams(alpha_eps=1e-200, beta_eps=0.0, k=1, kappa=2)
        assert efficiency_report(params, 4, 0.125, h, 1).n_radon == math.inf

    def test_tall_tree_runtime_is_inf(self):
        assert runtime_model(10, 4, 600, 1, 1) == math.inf
        assert runtime_model(10, 3, 10**400, 1, 1) == math.inf

    def test_no_level_costs_no_aggregation_at_any_r(self):
        # r^3 is past float range, but at h = 0 it multiplies an empty sum
        assert runtime_model(10.0, 2**400, 0, 1, 1) == 10.0
        assert runtime_model(10.0, 2**400, 1, 1, 1) == math.inf

    def test_huge_worker_count_leaves_the_queue_factor_at_one(self):
        # c >= r^h: every partition runs at once and every level takes one round
        assert runtime_model(10, 3, 2, 1, 10**400) == runtime_model(10, 3, 2, 1, 100)
        assert runtime_model(10, 3, 700, 1, 10**400) == 10 + 700 * 27

    @pytest.mark.parametrize("h", [2000, 10**12])
    def test_tall_tree_report_has_no_h_star(self, h):
        report = efficiency_report(ComplexityParams(0.0, 1.0, 1, 1), 4, 0.125, h, 1)
        assert report.m_sequential == report.n_radon == report.runtime_radon_model == math.inf
        assert report.h_star is None
        assert report.delta == 0.0
        assert report.speedup_estimate == math.inf
        assert report.data_inefficiency == math.inf

    def test_huge_exponents_give_inf(self):
        report = efficiency_report(ComplexityParams(0.0, 1.0, 100_000, 100_000), 4, 0.125, 3, 1)
        assert report.n_base == report.m_sequential == report.speedup_estimate == math.inf
        assert report.h_star is None

    def test_underflowing_base_cost_divides_nothing_by_zero(self):
        params = ComplexityParams(alpha_eps=1e-200, beta_eps=0.0, k=1, kappa=2)
        assert efficiency_report(params, 4, 0.125, 0, 1).speedup_estimate == 1.0
        assert efficiency_report(params, 4, 0.125, 1, 1).speedup_estimate == 0.0

    def test_speedup_of_two_infinite_terms_is_their_quotient(self):
        # 2^(h k kappa) = 2^1200 and h r^3 / n_base^kappa = 600 * 64 / 1e-400 both pass float range
        params = ComplexityParams(alpha_eps=1e-200, beta_eps=0.0, k=1, kappa=2)
        speedup = efficiency_report(params, 4, 0.125, 600, 1).speedup_estimate
        expected = 2.0 ** (1200 + 2 * math.log2(1e-200)) / (600 * 64)
        assert speedup == pytest.approx(expected, rel=1e-12)
        assert math.log2(speedup) == pytest.approx(-144.0, abs=1e-3)

    def test_speedup_at_a_kappa_past_float_range(self):
        params = ComplexityParams(alpha_eps=0.5, beta_eps=0.0, k=1, kappa=10**400)
        # (2^(h k) n_base)^kappa / (h r^3): 1 / 64 at h = 1, inf at h = 2
        assert efficiency_report(params, 4, 0.125, 1, 1).speedup_estimate == 1 / 64
        assert efficiency_report(params, 4, 0.125, 2, 1).speedup_estimate == math.inf

    def test_underflowing_base_sample_size_is_a_config_error_naming_its_fields(self):
        params = ComplexityParams(alpha_eps=1e-200, beta_eps=0.0, k=2, kappa=1)
        with pytest.raises(ConfigError, match="^alpha_eps, beta_eps and k give a base sample "
                                              "size of 0 at delta_base=0.125"):
            efficiency_report(params, 4, 0.125, 1, 1)

    def test_zero_sample_complexity_is_a_config_error(self):
        with pytest.raises(ConfigError, match="beta_eps and alpha_eps are both 0"):
            ComplexityParams(alpha_eps=0.0, beta_eps=0.0, k=1, kappa=1)
