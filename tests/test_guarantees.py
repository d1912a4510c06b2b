from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from realityvote import (
    Setting,
    feasibility,
    liveness_threshold,
    report,
    required_tau,
    safety_threshold,
)
from realityvote.errors import DegenerateParams

F = Fraction
ARB = Setting.ARBITRARY_BINARY
RAND = Setting.RANDOM_NONATOMIC
SMJ = Setting.MULTI_ALT_SMJ
PROXY = Setting.PROXY_INTERVAL

small_fracs = st.fractions(min_value=0, max_value=F(9, 10), max_denominator=12)


def valid_params(sigma, mu):
    return sigma + mu < 1


class TestSafetyThreshold:
    @pytest.mark.parametrize(
        "setting,sigma,mu,tau,expected",
        [
            (ARB, F(2, 5), F(0), F(0), F(1, 3)),
            (ARB, F(2, 5), F(2, 5), F(0), F(2, 3)),
            (ARB, F(0), F(0), F(0), F(0)),
            (RAND, F(3, 10), F(0), F(0), F(3, 20)),
            (SMJ, F(2, 5), F(0), F(0), F(1, 3)),
            (PROXY, F(2, 5), F(0), F(2, 5), F(0)),
            (PROXY, F(2, 5), F(0), F(1, 5), F(1, 6)),
        ],
    )
    def test_values(self, setting, sigma, mu, tau, expected):
        assert safety_threshold(setting, sigma, mu, tau) == expected

    def test_clamped_at_zero(self):
        assert safety_threshold(ARB, F(1, 10), F(0), F(1)) == 0

    def test_degenerate(self):
        with pytest.raises(DegenerateParams):
            safety_threshold(ARB, F(1, 2), F(1, 2), F(0))


class TestLivenessThreshold:
    def test_simple_majority(self):
        assert liveness_threshold(ARB, F(0), F(0), F(0)) == F(1, 2)

    def test_partial_participation(self):
        assert liveness_threshold(ARB, F(2, 5), F(2, 5), F(0)) == F(3, 2)

    def test_proxy_is_one_live_for_small_sigma(self):
        assert liveness_threshold(PROXY, F(1, 5), F(0), F(1, 5)) == F(3, 4)

    def test_smj_doubles_tau(self):
        assert liveness_threshold(SMJ, F(1, 5), F(0), F(1, 4)) == liveness_threshold(
            ARB, F(1, 5), F(0), F(1, 2)
        )


class TestFeasibility:
    def test_window_example(self):
        rep = feasibility(ARB, F(3, 20), F(1, 5))
        assert rep.feasible_tau == (F(7, 16), F(5, 8))
        assert not rep.impossibility

    def test_boundary_is_empty(self):
        rep = feasibility(ARB, F(1, 5), F(1, 5))
        assert rep.feasible_tau is None
        assert rep.impossibility

    def test_random_window(self):
        rep = feasibility(RAND, F(1, 5), F(3, 10))
        assert rep.feasible_tau == (F(2, 7), F(3, 7))

    def test_proxy_window(self):
        rep = feasibility(PROXY, F(1, 5), F(0))
        assert rep.feasible_tau == (F(1, 5), F(3, 5))
        assert feasibility(PROXY, F(1, 3), F(0)).impossibility

    @given(small_fracs, small_fracs)
    def test_window_nonempty_iff_not_impossible(self, sigma, mu):
        if not valid_params(sigma, mu):
            return
        for setting in (ARB, RAND, SMJ, PROXY):
            rep = feasibility(setting, sigma, mu)
            assert (rep.feasible_tau is not None) == (not rep.impossibility)
            if rep.feasible_tau is not None:
                lo, hi = rep.feasible_tau
                assert lo < hi

    @given(small_fracs, small_fracs)
    def test_frontier_inequalities(self, sigma, mu):
        if not valid_params(sigma, mu):
            return
        assert feasibility(ARB, sigma, mu).impossibility == (3 * sigma + 2 * mu >= 1)
        assert feasibility(RAND, sigma, mu).impossibility == (3 * sigma + mu >= 1)

    @pytest.mark.parametrize("setting", list(Setting), ids=lambda s: s.value)
    def test_impossibility_inequalities_on_grid(self, setting):
        # impossibility is read off the tau window; these are the paper's
        # inequalities it must agree with, on and around every boundary.
        impossible = {
            Setting.ARBITRARY_BINARY: lambda s, m: 3 * s + 2 * m >= 1,
            Setting.MULTI_ALT_SMJ: lambda s, m: 3 * s + 2 * m >= 1,
            Setting.RANDOM_NONATOMIC: lambda s, m: 3 * s + m >= 1,
            Setting.RANDOM_FINITE: lambda s, m: 3 * s + m >= 1,
            Setting.PROXY_INTERVAL: lambda s, m: s >= F(1, 3),
        }[setting]
        grid = [F(k, 24) for k in range(24)]
        for sigma in grid:
            for mu in grid:
                if sigma + mu >= 1:
                    continue
                for tau in (F(0), F(1, 5)):
                    rep = report(setting, sigma, mu, tau)
                    assert rep.impossibility == impossible(sigma, mu), (sigma, mu)
                    assert (rep.feasible_tau is None) == rep.impossibility
                assert feasibility(setting, sigma, mu).impossibility == impossible(
                    sigma, mu
                )


class TestRequiredTau:
    @pytest.mark.parametrize(
        "setting,sigma,mu,alpha,expected",
        [
            (ARB, F(1, 5), F(1, 5), F(0), F(1, 2)),
            (RAND, F(1, 5), F(3, 10), F(0), F(2, 7)),
            (ARB, F(0), F(0), F(0), F(0)),
            (PROXY, F(1, 4), F(0), F(0), F(1, 4)),
        ],
    )
    def test_values(self, setting, sigma, mu, alpha, expected):
        assert required_tau(setting, sigma, mu, alpha) == expected

    def test_inversion_consistency(self):
        # required_tau at a target alpha achieves exactly that safety level.
        for setting in (ARB, RAND, SMJ):
            tau = required_tau(setting, F(1, 4), F(1, 8), F(1, 10))
            if tau > 0:
                assert safety_threshold(setting, F(1, 4), F(1, 8), tau) == F(1, 10)

    @given(small_fracs, small_fracs, small_fracs, small_fracs)
    def test_monotone_in_target(self, sigma, mu, a1, a2):
        if not valid_params(sigma, mu):
            return
        lo, hi = min(a1, a2), max(a1, a2)
        assert required_tau(ARB, sigma, mu, lo) >= required_tau(ARB, sigma, mu, hi)

    @given(small_fracs, small_fracs, small_fracs)
    def test_overestimating_population_parameters_is_safe(self, sigma, mu, alpha):
        bump = F(1, 20)
        if not valid_params(sigma + bump, mu + bump):
            return
        base = required_tau(ARB, sigma, mu, alpha)
        assert required_tau(ARB, sigma + bump, mu, alpha) >= base
        assert required_tau(ARB, sigma, mu + bump, alpha) >= base


class TestMonotonicityAndIdentities:
    @given(small_fracs, small_fracs, small_fracs, small_fracs)
    def test_safety_monotone(self, sigma, mu, t1, t2):
        if not valid_params(sigma, mu):
            return
        lo, hi = min(t1, t2), max(t1, t2)
        assert safety_threshold(ARB, sigma, mu, lo) >= safety_threshold(ARB, sigma, mu, hi)
        assert liveness_threshold(ARB, sigma, mu, lo) <= liveness_threshold(ARB, sigma, mu, hi)

    @given(small_fracs, small_fracs)
    def test_safety_grows_with_adversary(self, sigma, mu):
        bump = F(1, 20)
        if not valid_params(sigma + bump, mu + bump):
            return
        base = safety_threshold(ARB, sigma, mu, F(1, 8))
        assert safety_threshold(ARB, sigma + bump, mu, F(1, 8)) >= base
        assert safety_threshold(ARB, sigma, mu + bump, F(1, 8)) >= base

    @given(small_fracs, small_fracs, small_fracs)
    def test_smj_is_double_tau_substitution(self, sigma, mu, tau):
        if not valid_params(sigma, mu):
            return
        assert safety_threshold(SMJ, sigma, mu, tau) == safety_threshold(
            ARB, sigma, mu, 2 * tau
        )

    @given(small_fracs, small_fracs)
    def test_boundary_coherence(self, sigma, mu):
        if not valid_params(sigma, mu):
            return
        rep = feasibility(ARB, sigma, mu)
        tau_needed = required_tau(ARB, sigma, mu, F(0))
        live_cap = 2 * (1 - sigma - mu) / (1 - mu) - 1
        assert (tau_needed < live_cap) == (3 * sigma + 2 * mu < 1)
        assert (rep.feasible_tau is not None) == (tau_needed < live_cap)

    def test_report_bundles_everything(self):
        rep = report(RAND, F(1, 10), F(1, 10), F(1, 5))
        assert rep.alpha_star == 0  # tau above sigma/(1-mu)
        assert rep.beta_star > 0
        assert rep.feasible_tau is not None
