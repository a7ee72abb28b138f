import math

import numpy as np
import pytest

from nnshapley import accountant
from nnshapley.accountant import (
    AccountantQuery,
    CalibrationResult,
    PrivacyLossDistribution,
    account_sigma,
    analytic_gaussian_epsilon,
    calibrate_sigma_for_budget,
    compose,
    composed_epsilon,
    delta_at_epsilon,
    epsilon_at_delta,
    gaussian_pld,
    rebin,
    subsampled_gaussian_pld,
)
from nnshapley.errors import AccountingError, ParameterError

S3 = math.sqrt(3.0)
H = 1e-4  # default grid step


class TestGaussianPld:
    def test_mean_close_to_half_mu_squared(self):
        for sigma in (1.0, 4.0, 20.0):
            pld = gaussian_pld(S3, sigma)
            mu = S3 / sigma
            mean = float(np.sum(pld.grid() * pld.mass)) / float(np.sum(pld.mass))
            assert abs(mean - mu * mu / 2) <= H

    def test_mass_conservation(self):
        pld = gaussian_pld(S3, 5.0)
        assert pld.total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_epsilon_band_at_textbook_calibration(self):
        # sigma from the sqrt(ln(1.25/delta))/eps rule at eps = 1, delta = 1e-4;
        # the exact Gaussian epsilon(delta) at that sigma sits near 1.04, and
        # the discretized pessimistic answer must stay inside [0.95, 1.05].
        sigma = S3 * math.sqrt(math.log(1.25 / 1e-4))
        eps = epsilon_at_delta(gaussian_pld(S3, sigma), AccountantQuery(1e-4))
        assert 0.95 <= eps <= 1.05

    def test_sandwich_against_analytic(self):
        for sigma in (2.0, 5.0, 8.0):
            analytic = analytic_gaussian_epsilon(S3, sigma, 1e-4)
            pessimistic = epsilon_at_delta(gaussian_pld(S3, sigma), AccountantQuery(1e-4))
            assert analytic <= pessimistic <= analytic + 2.001 * H + 1e-6

    def test_epsilon_vanishes_with_noise(self):
        values = [
            epsilon_at_delta(gaussian_pld(S3, sigma), AccountantQuery(1e-4))
            for sigma in (5.0, 20.0, 80.0, 320.0)
        ]
        assert values == sorted(values, reverse=True)
        assert values[-1] < 0.05

    def test_domain_validation(self):
        with pytest.raises(ParameterError):
            gaussian_pld(0.0, 1.0)
        with pytest.raises(ParameterError):
            gaussian_pld(1.0, -1.0)
        with pytest.raises(ParameterError):
            gaussian_pld(1.0, 1.0, grid_step=0.0)


class TestSubsampledPld:
    def test_q_one_equals_plain_gaussian(self):
        a = subsampled_gaussian_pld(S3, 5.0, 1.0)
        b = gaussian_pld(S3, 5.0)
        assert a.grid_start == b.grid_start
        assert np.array_equal(a.mass, b.mass)

    def test_amplification_at_low_rate(self):
        sigma = 5.3198
        eps_full = epsilon_at_delta(subsampled_gaussian_pld(S3, sigma, 1.0), 1e-4)
        eps_low = epsilon_at_delta(subsampled_gaussian_pld(S3, sigma, 0.01), 1e-4)
        assert eps_low < eps_full

    def test_monotone_in_rate(self):
        sigma = 4.0
        values = [
            epsilon_at_delta(subsampled_gaussian_pld(S3, sigma, q), 1e-4)
            for q in (0.01, 0.1, 0.5, 1.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_mass_conservation(self):
        pld = subsampled_gaussian_pld(S3, 2.0, 0.05)
        assert pld.total_mass() == pytest.approx(1.0, abs=1e-9)


class TestCompose:
    def test_identity_on_singleton(self):
        pld = gaussian_pld(S3, 5.0)
        out = compose([pld])
        assert out.grid_start == pld.grid_start
        assert np.array_equal(out.mass, pld.mass)

    def test_empty_input_rejected(self):
        with pytest.raises(ParameterError):
            compose([])

    def test_two_fold_matches_direct_double_strength(self):
        # Two identical Gaussian releases compose to one with sigma / sqrt(2).
        composed_eps = epsilon_at_delta(compose([gaussian_pld(S3, 8.0)] * 2), 1e-4)
        direct_eps = epsilon_at_delta(gaussian_pld(S3, 8.0 / math.sqrt(2)), 1e-4)
        assert abs(composed_eps - direct_eps) <= 2 * H

    def test_composition_drift_grows_half_step_per_factor(self):
        # Rounding losses up costs about half a grid step per composed factor;
        # the drift against the analytically equivalent single release stays
        # within (m/2 + 2) steps.
        for m in (4, 8, 16):
            composed_eps = epsilon_at_delta(compose([gaussian_pld(S3, 8.0)] * m), 1e-4)
            direct_eps = epsilon_at_delta(gaussian_pld(S3, 8.0 / math.sqrt(m)), 1e-4)
            assert abs(composed_eps - direct_eps) <= (m / 2 + 2) * H

    def test_hundredfold_matches_analytic_within_5_percent(self):
        composed = compose([gaussian_pld(S3, 20.0)] * 100)
        eps = epsilon_at_delta(composed, AccountantQuery(1e-4))
        analytic = analytic_gaussian_epsilon(S3, 2.0, 1e-4)
        assert abs(eps - analytic) / analytic < 0.05
        assert eps >= analytic  # pessimistic side
        assert composed.total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_never_worse_than_basic_composition(self):
        m = 20
        single = gaussian_pld(S3, 10.0)
        eps_single = epsilon_at_delta(single, 1e-4 / m)
        eps_composed = epsilon_at_delta(compose([single] * m), 1e-4)
        assert eps_composed <= m * eps_single

    def test_heterogeneous_grids_rebinned(self):
        a = gaussian_pld(S3, 5.0, grid_step=1e-4)
        b = gaussian_pld(S3, 5.0, grid_step=2e-4)
        out = compose([a, b])
        assert out.grid_step == pytest.approx(2e-4)
        assert out.total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_grid_refinement_convergence(self):
        # Halving the grid step moves the hundredfold-composed epsilon by
        # far less than 1 percent.
        eps_coarse, _ = composed_epsilon(S3, 5.0, 1.0, 100, 1e-4, grid_step=1e-4)
        eps_fine, _ = composed_epsilon(S3, 5.0, 1.0, 100, 1e-4, grid_step=5e-5)
        assert abs(eps_coarse - eps_fine) / eps_fine < 0.01


class TestEpsilonAtDelta:
    def test_point_mass_loss(self):
        pld = PrivacyLossDistribution(0.7, 1e-4, np.array([1.0]), 0.0)
        assert epsilon_at_delta(pld, 1e-6) == pytest.approx(0.7)

    def test_nonincreasing_in_delta(self):
        pld = gaussian_pld(S3, 3.0)
        values = [epsilon_at_delta(pld, d) for d in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)]
        assert values == sorted(values, reverse=True)

    def test_delta_below_truncated_mass_raises(self):
        pld = gaussian_pld(S3, 3.0, truncation_tail=1e-6)
        with pytest.raises(AccountingError, match="finer grid"):
            epsilon_at_delta(pld, 1e-9)

    def test_zero_when_noise_overwhelms(self):
        pld = gaussian_pld(1.0, 1e4)
        assert epsilon_at_delta(pld, 0.5) == 0.0

    def test_delta_at_epsilon_matches_analytic(self):
        # Discretized delta(eps) of a single Gaussian stays within a grid step
        # of the exact tradeoff curve.
        sigma = 3.0
        mu = S3 / sigma
        pld = gaussian_pld(S3, sigma)
        from scipy.special import ndtr

        for eps in (0.1, 0.5, 1.0):
            exact = float(ndtr(mu / 2 - eps / mu) - math.exp(eps) * ndtr(-mu / 2 - eps / mu))
            approx = delta_at_epsilon(pld, eps)
            assert exact <= approx + 1e-12
            exact_shifted = float(
                ndtr(mu / 2 - (eps - H) / mu)
                - math.exp(eps - H) * ndtr(-mu / 2 - (eps - H) / mu)
            )
            assert approx <= exact_shifted + 1e-9


class TestCalibration:
    def test_budget_is_respected(self):
        cal = calibrate_sigma_for_budget(S3, 1.0, 1e-4, q=0.01, mechanisms=50)
        assert cal.epsilon <= 1.0
        assert cal.epsilon > 0.5  # not absurdly conservative
        eps_check, _ = composed_epsilon(S3, cal.sigma, 0.01, 50, 1e-4)
        assert eps_check == pytest.approx(cal.epsilon)

    def test_plain_gaussian_budget(self):
        cal = calibrate_sigma_for_budget(1 / 30, 1.0, 1e-4, q=1.0, mechanisms=100)
        assert cal.epsilon <= 1.0
        analytic = analytic_gaussian_epsilon(1 / 30, cal.sigma / math.sqrt(100), 1e-4)
        assert analytic <= 1.0

    def test_report_fields(self):
        cal = calibrate_sigma_for_budget(S3, 2.0, 1e-4, q=1.0, mechanisms=4)
        report = cal.report()
        assert set(report) == {
            "mechanisms", "sigma", "q", "delta", "epsilon", "grid_step", "truncated_mass",
        }

    def test_accepted_composition_is_reused(self, monkeypatch):
        # Every accepted sigma was composed when it was accepted, so no sigma
        # is composed twice and the report is that of a fresh composition.
        sigmas = []
        original = accountant.composed_epsilon

        def counting(sensitivity, sigma, *args):
            sigmas.append(sigma)
            return original(sensitivity, sigma, *args)

        monkeypatch.setattr(accountant, "composed_epsilon", counting)
        cal = calibrate_sigma_for_budget(S3, 1.0, 1e-4, q=0.01, mechanisms=16)
        monkeypatch.undo()
        assert cal.sigma in sigmas
        assert len(sigmas) == len(set(sigmas))
        assert cal == account_sigma(S3, cal.sigma, 0.01, 16, 1e-4)


class TestAnalyticGaussian:
    def test_matches_textbook_shape(self):
        # Larger sigma gives smaller epsilon; epsilon is 0 once delta is huge.
        eps1 = analytic_gaussian_epsilon(1.0, 1.0, 1e-5)
        eps2 = analytic_gaussian_epsilon(1.0, 2.0, 1e-5)
        assert eps2 < eps1
        assert analytic_gaussian_epsilon(1.0, 1.0, 0.9999) == 0.0

    def test_round_trip_with_delta(self):
        from scipy.special import ndtr

        mu = 0.6
        eps = analytic_gaussian_epsilon(mu, 1.0, 1e-4)
        delta = float(ndtr(mu / 2 - eps / mu) - math.exp(eps) * ndtr(-mu / 2 - eps / mu))
        assert delta == pytest.approx(1e-4, rel=1e-6)
