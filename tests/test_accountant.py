import collections
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
TAIL = accountant.DEFAULT_TRUNCATION_TAIL


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_arguments_rejected(self, bad):
        for args in ((bad, 1.0), (1.0, bad), (1.0, 1.0, bad)):
            with pytest.raises(ParameterError, match="finite"):
                gaussian_pld(*args)
            with pytest.raises(ParameterError, match="finite"):
                account_sigma(*args[:2], 0.5, 4, 1e-4, *args[2:])


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

    def test_composed_grid_is_guarded_before_it_is_convolved(self, monkeypatch):
        # Under a guard of 2e5 points one PLD at sigma = 3 (73,455 points)
        # and its square pass, but the self-compositions grow about
        # sqrt(m)-fold. The guard refuses the first convolution that would
        # exceed it, as it refuses a single PLD, before it allocates.
        monkeypatch.setattr(accountant, "MAX_GRID_POINTS", 200_000)
        assert gaussian_pld(S3, 3.0).mass.shape[0] <= 100_000
        lengths, convolve = [], accountant._convolve

        def recording_convolve(a, b):
            lengths.append(a.shape[0] + b.shape[0] - 1)
            return convolve(a, b)

        monkeypatch.setattr(accountant, "_convolve", recording_convolve)
        with pytest.raises(AccountingError, match="increase grid_step or sigma"):
            composed_epsilon(S3, 3.0, 1.0, 64, 1e-5)
        assert lengths and max(lengths) <= 200_000

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

    def test_delta_at_epsilon_equals_the_masked_sum(self):
        # The suffix slice selects exactly the grid points a mask above epsilon
        # selects, so delta is bit-identical, on and between grid points.
        def masked(pld, eps):
            grid = pld.grid()
            above = grid > eps
            if not above.any():
                return pld.truncated_mass
            m = pld.mass[above]
            return float(np.sum(m) - np.sum(m * np.exp(eps - grid[above])) + pld.truncated_mass)

        plds = [
            gaussian_pld(S3, 3.0),
            subsampled_gaussian_pld(S3, 1.5, 0.1),
            compose([gaussian_pld(1.0, 4.0)] * 3),
        ]
        for pld in plds:
            grid = pld.grid()
            points = [grid[0] - 1.0, grid[-1], grid[-1] + 1.0, 0.0, 0.3]
            sample = grid[:: max(1, grid.shape[0] // 7)]
            points += list(sample) + list(sample + H / 3)
            for eps in points:
                assert delta_at_epsilon(pld, float(eps)) == masked(pld, float(eps))
                assert delta_at_epsilon(pld, float(eps), grid) == masked(pld, float(eps))

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
        # On the fine grid alone (a screen that never decides), every accepted
        # sigma was composed when it was accepted, so no sigma is composed
        # twice and the report is that of a fresh composition. The screened
        # calibration ends on the fine grid with the same report.
        calls = []
        original = accountant.composed_epsilon

        def counting(sensitivity, sigma, q, mechanisms, delta, grid_step, *args):
            calls.append((sigma, grid_step))
            return original(sensitivity, sigma, q, mechanisms, delta, grid_step, *args)

        monkeypatch.setattr(accountant, "composed_epsilon", counting)
        cal = calibrate_sigma_for_budget(S3, 1.0, 1e-4, q=0.01, mechanisms=16)
        assert calls[-1][1] == H
        calls.clear()
        monkeypatch.setattr(accountant, "_screen", lambda *args: None)
        fine_only = calibrate_sigma_for_budget(S3, 1.0, 1e-4, q=0.01, mechanisms=16)
        monkeypatch.undo()
        sigmas = [sigma for sigma, _ in calls]
        assert fine_only == cal
        assert cal.sigma in sigmas
        assert len(sigmas) == len(set(sigmas))
        assert cal == account_sigma(S3, cal.sigma, 0.01, 16, 1e-4)

    @pytest.mark.parametrize(
        "bad",
        [dict(sensitivity=0.0), dict(sensitivity=-1.0), dict(sensitivity=math.nan),
         dict(epsilon=math.nan), dict(epsilon=math.inf), dict(delta=math.nan),
         dict(mechanisms=0), dict(rel_tol=0.0), dict(rel_tol=-0.01),
         dict(rel_tol=math.nan), dict(rel_tol=math.inf)],
        ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_invalid_arguments_rejected_before_composing(self, monkeypatch, bad):
        def no_composition(*args):
            raise AssertionError("composed before the arguments were checked")

        monkeypatch.setattr(accountant, "composed_epsilon", no_composition)
        args = dict(sensitivity=S3, epsilon=1.0, delta=1e-4, q=0.01, mechanisms=16)
        with pytest.raises(ParameterError):
            calibrate_sigma_for_budget(**{**args, **bad})


def _fine_only_calibration(
    sensitivity, epsilon, delta, q, mechanisms, grid_step, truncation_tail=TAIL, rel_tol=1e-2
):
    """The bisection as it ran before the coarse screen, transcribed literally."""
    per_eps = epsilon / mechanisms
    per_delta = delta / (2.0 * mechanisms)
    hi = sensitivity * math.sqrt(2.0 * math.log(1.25 / per_delta)) / per_eps
    accepted = None

    def meets_budget(sig):
        nonlocal accepted
        if sensitivity / sig > accountant._LOSS_RATIO_GUARD:
            return False
        try:
            result = account_sigma(
                sensitivity, sig, q, mechanisms, delta, grid_step, truncation_tail
            )
        except AccountingError:
            return False
        if result.epsilon > epsilon:
            return False
        accepted = result
        return True

    while not meets_budget(hi):
        hi *= 2.0
        if hi > 1e9 * sensitivity:
            raise AccountingError("failed to bracket a sufficient sigma")
    lo = hi / 2.0
    while lo > sensitivity * 1e-6 and meets_budget(lo):
        hi = lo
        lo /= 2.0
    while hi / lo > 1.0 + rel_tol:
        mid = math.sqrt(lo * hi)
        if meets_budget(mid):
            hi = mid
        else:
            lo = mid
    return accepted


# (sensitivity, epsilon, delta, q, mechanisms, grid_step)
CALIBRATION_CASES = {
    "dp-release": (S3, 1.0, 1e-5, 0.01, 200, 2e-5),  # perfbench's dp-release workload
    "mia-attack": (S3, 1.0, 1e-4, 0.01, 16, H),  # criterion 8's DP half
    "detection-dp-tknn": (S3, 1.0, 1e-4, 0.01, 200, H),  # the detection fixture
    "detection-dp-knn": (1 / 30, 1.0, 1e-4, 1.0, 200, H),
    "cli-defaults": (S3, 1.0, 1e-4, 0.01, 100, H),  # dp-value --epsilon 1, 100 val points
    # The screen decides the probes after a fine acceptance: that acceptance's report is kept.
    "screen-decides-last": (S3, 1.0, 1e-4, 0.1, 8, H),
    "q-one": (S3, 2.0, 1e-4, 1.0, 4, H),
    "one-mechanism": (S3, 1.0, 1e-5, 0.05, 1, H),
    "thousand-mechanisms": (S3, 1.0, 1e-5, 0.01, 1000, H),
    "small-sensitivity": (0.05, 0.5, 1e-5, 0.1, 50, H),
    # Below the coarse grid's rounding drift (about m H / 2): only the fine grid accepts.
    "coarse-accepts-nothing": (S3, 0.1, 1e-4, 0.01, 400, H),
}


def _optimistic_coarse_grid(monkeypatch):
    """Shift every coarse epsilon down by 0.05, so the screen accepts too small
    a sigma; returns the (grid_step, sigma) of each composition."""
    calls = []
    original = accountant.composed_epsilon

    def optimistic(sensitivity, sigma, q, mechanisms, delta, grid_step, *args):
        calls.append((grid_step, sigma))
        eps, pld = original(sensitivity, sigma, q, mechanisms, delta, grid_step, *args)
        return (eps if grid_step == H else eps - 0.05), pld

    monkeypatch.setattr(accountant, "composed_epsilon", optimistic)
    return calls


class TestCoarseScreen:
    @pytest.mark.parametrize("case", list(CALIBRATION_CASES))
    def test_same_result_as_fine_only_bisection(self, monkeypatch, case):
        _, epsilon, _, _, _, step = CALIBRATION_CASES[case]
        calls = []
        original = accountant.composed_epsilon

        def recording(sensitivity, sigma, q, mechanisms, delta, grid_step, *args):
            eps, pld = original(sensitivity, sigma, q, mechanisms, delta, grid_step, *args)
            calls.append((grid_step, sigma, eps))
            return eps, pld

        monkeypatch.setattr(accountant, "composed_epsilon", recording)
        cal = calibrate_sigma_for_budget(*CALIBRATION_CASES[case])
        monkeypatch.undo()
        expected = _fine_only_calibration(*CALIBRATION_CASES[case])
        assert cal.report() == expected.report()
        fine_sigmas = [sigma for grid_step, sigma, _ in calls if grid_step == step]
        assert len(fine_sigmas) == len(set(fine_sigmas))  # no sigma composes twice on the fine grid
        coarse_accepts = [eps <= epsilon for grid_step, _, eps in calls if grid_step != step]
        assert any(coarse_accepts) == (case != "coarse-accepts-nothing")

    @pytest.mark.parametrize("case", ["mia-attack", "q-one", "one-mechanism", "small-sensitivity"])
    def test_rejections_are_certified(self, case):
        sensitivity, epsilon, delta, q, m, step = CALIBRATION_CASES[case]
        boundary = calibrate_sigma_for_budget(*CALIBRATION_CASES[case]).sigma
        rejected = 0
        for sigma in boundary * np.geomspace(0.9, 1.02, 10):
            if accountant._screen(sensitivity, sigma, q, m, delta, epsilon, step, TAIL) is not False:
                continue
            rejected += 1
            try:
                fine, _ = composed_epsilon(sensitivity, sigma, q, m, delta, step)
            except AccountingError:
                continue  # the fine grid rejects it too
            assert fine > epsilon
            if q == 1.0:  # m Gaussian releases at sigma are one at sigma / sqrt(m)
                assert analytic_gaussian_epsilon(sensitivity, sigma / math.sqrt(m), delta) > epsilon
        assert rejected > 0

    @pytest.mark.parametrize("wrong", ["optimistic-coarse-epsilon", "fine-grid-too-large"])
    def test_wrong_coarse_acceptance_falls_back(self, monkeypatch, wrong):
        case = CALIBRATION_CASES["mia-attack"]
        if wrong == "optimistic-coarse-epsilon":
            _optimistic_coarse_grid(monkeypatch)
        else:
            # Near the boundary one discretization needs about 55k points on
            # the fine grid and 11k on the coarse one.
            monkeypatch.setattr(accountant, "MAX_GRID_POINTS", 30_000)
        screens = []  # per search pass: how many probes went through the screen
        screen, search = accountant._screen, accountant._smallest_sigma

        def counting_screen(*args):
            screens[-1] += 1
            return screen(*args)

        def recording_search(*args):
            screens.append(0)
            return search(*args)

        monkeypatch.setattr(accountant, "_screen", counting_screen)
        monkeypatch.setattr(accountant, "_smallest_sigma", recording_search)
        cal = calibrate_sigma_for_budget(*case)
        assert len(screens) == 2 and screens[0] > 0 and screens[1] == 0  # a fine-only rerun
        assert cal.report() == _fine_only_calibration(*case).report()

    # Cases where the fine-only rerun probes a sigma the screened pass composed.
    @pytest.mark.parametrize("case", ["detection-dp-knn", "screen-decides-last"])
    def test_fallback_reuses_the_screened_pass_fine_reports(self, monkeypatch, case):
        case = CALIBRATION_CASES[case]
        calls = _optimistic_coarse_grid(monkeypatch)
        cal = calibrate_sigma_for_budget(*case)
        fine_sigmas = [sigma for grid_step, sigma in calls if grid_step == H]
        assert cal.sigma in fine_sigmas
        assert len(fine_sigmas) == len(set(fine_sigmas))  # each fine sigma composed once
        assert cal.report() == _fine_only_calibration(*case).report()

    def test_dp_release_settings_compose_on_the_fine_grid_at_most_three_times(
        self, monkeypatch
    ):
        calls = []
        original = accountant.composed_epsilon

        def counting(sensitivity, sigma, q, mechanisms, delta, grid_step, *args):
            calls.append(grid_step)
            return original(sensitivity, sigma, q, mechanisms, delta, grid_step, *args)

        monkeypatch.setattr(accountant, "composed_epsilon", counting)
        calibrate_sigma_for_budget(*CALIBRATION_CASES["dp-release"])
        per_step = collections.Counter(calls)
        assert per_step[2e-5] <= 3  # 19 before the screen
        assert calls[-1] == 2e-5


class TestAnalyticGaussian:
    def test_matches_textbook_shape(self):
        # Larger sigma gives smaller epsilon; epsilon is 0 once delta is huge.
        eps1 = analytic_gaussian_epsilon(1.0, 1.0, 1e-5)
        eps2 = analytic_gaussian_epsilon(1.0, 2.0, 1e-5)
        assert eps2 < eps1
        assert analytic_gaussian_epsilon(1.0, 1.0, 0.9999) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_arguments_rejected(self, bad):
        for args in ((1.0, bad, 1e-4), (bad, 1.0, 1e-4)):
            with pytest.raises(ParameterError, match="positive and finite"):
                analytic_gaussian_epsilon(*args)

    def test_round_trip_with_delta(self):
        from scipy.special import ndtr

        mu = 0.6
        eps = analytic_gaussian_epsilon(mu, 1.0, 1e-4)
        delta = float(ndtr(mu / 2 - eps / mu) - math.exp(eps) * ndtr(-mu / 2 - eps / mu))
        assert delta == pytest.approx(1e-4, rel=1e-6)
