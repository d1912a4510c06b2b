from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realityvote import (
    GuaranteeReport,
    Setting,
    feasibility,
    liveness_threshold,
    report,
    required_tau,
    safety_threshold,
)
from realityvote import formats, guarantees
from realityvote.errors import DegenerateParams
from realityvote.population import as_fraction

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


# ---------------------------------------------------------------------------
# The closed forms against the per-setting formulas they replaced (one copy
# per setting, three parameter checks per report), kept verbatim as the
# reference.

_REF_RANDOM = (Setting.RANDOM_NONATOMIC, Setting.RANDOM_FINITE)


def _ref_check_params(sigma, mu, tau=Fraction(0)):
    if not (0 <= sigma < 1 and 0 <= mu < 1):
        raise DegenerateParams("sigma and mu must lie in [0, 1)")
    if sigma + mu >= 1:
        raise DegenerateParams("sigma + mu must stay below 1")
    if tau < 0:
        raise DegenerateParams("tau must be nonnegative")


def ref_safety_threshold(setting, sigma, mu, tau):
    sigma, mu, tau = as_fraction(sigma), as_fraction(mu), as_fraction(tau)
    _ref_check_params(sigma, mu, tau)
    if setting is Setting.ARBITRARY_BINARY:
        value = (1 + sigma - (1 + tau) * (1 - mu)) / (2 * (1 - sigma))
    elif setting in _REF_RANDOM:
        value = (sigma - tau * (1 - mu)) * (1 - sigma) / (2 * (1 - mu - sigma))
    elif setting is Setting.MULTI_ALT_SMJ:
        value = (1 + sigma - (1 + 2 * tau) * (1 - mu)) / (2 * (1 - sigma))
    else:  # proxy interval; mu plays no role
        value = (sigma - tau) / (2 * (1 - sigma))
    return max(Fraction(0), value)


def ref_liveness_threshold(setting, sigma, mu, tau):
    sigma, mu, tau = as_fraction(sigma), as_fraction(mu), as_fraction(tau)
    _ref_check_params(sigma, mu, tau)
    if setting is Setting.MULTI_ALT_SMJ:
        return (1 - mu) * (1 + 2 * tau) / (2 * (1 - sigma - mu))
    if setting is Setting.PROXY_INTERVAL:
        return (1 + tau) / (2 * (1 - sigma))
    return (1 - mu) * (1 + tau) / (2 * (1 - sigma - mu))


def _ref_zero_safe_one_live_interval(setting, sigma, mu):
    if setting in (Setting.ARBITRARY_BINARY, Setting.MULTI_ALT_SMJ):
        tau_lo = (1 + sigma) / (1 - mu) - 1
        tau_hi = 2 * (1 - sigma - mu) / (1 - mu) - 1
        if setting is Setting.MULTI_ALT_SMJ:
            tau_lo, tau_hi = tau_lo / 2, tau_hi / 2
    elif setting in _REF_RANDOM:
        tau_lo = sigma / (1 - mu)
        tau_hi = 2 * (1 - sigma - mu) / (1 - mu) - 1
    else:  # proxy
        tau_lo = sigma
        tau_hi = 1 - 2 * sigma
    if tau_lo < tau_hi:
        return (tau_lo, tau_hi)
    return None


def ref_feasibility(setting, sigma, mu):
    sigma, mu = as_fraction(sigma), as_fraction(mu)
    _ref_check_params(sigma, mu)
    window = _ref_zero_safe_one_live_interval(setting, sigma, mu)
    return ref_report(setting, sigma, mu, max(Fraction(0), window[0]) if window else 0)


def ref_required_tau(setting, sigma, mu, alpha_target):
    sigma, mu = as_fraction(sigma), as_fraction(mu)
    alpha_target = as_fraction(alpha_target)
    _ref_check_params(sigma, mu)
    if alpha_target < 0:
        raise DegenerateParams("alpha target must be nonnegative")
    if setting is Setting.ARBITRARY_BINARY:
        tau = (1 + sigma - 2 * alpha_target * (1 - sigma)) / (1 - mu) - 1
    elif setting in _REF_RANDOM:
        tau = (sigma - 2 * alpha_target * (1 - mu - sigma) / (1 - sigma)) / (1 - mu)
    elif setting is Setting.MULTI_ALT_SMJ:
        tau = ((1 + sigma - 2 * alpha_target * (1 - sigma)) / (1 - mu) - 1) / 2
    else:
        tau = sigma - 2 * alpha_target * (1 - sigma)
    return max(Fraction(0), tau)


def ref_report(setting, sigma, mu, tau):
    sigma, mu, tau = as_fraction(sigma), as_fraction(mu), as_fraction(tau)
    _ref_check_params(sigma, mu, tau)
    window = _ref_zero_safe_one_live_interval(setting, sigma, mu)
    return GuaranteeReport(
        setting=setting,
        sigma=sigma,
        mu=mu,
        tau=tau,
        alpha_star=ref_safety_threshold(setting, sigma, mu, tau),
        beta_star=ref_liveness_threshold(setting, sigma, mu, tau),
        alpha_is_whp=setting in (Setting.RANDOM_FINITE, Setting.PROXY_INTERVAL),
        feasible_tau=window,
        impossibility=window is None,
    )


def _result(fn, *args):
    """What a call gives: the repr of its value (types included), or its
    exception's class and message."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)


# Edges and boundaries (0, 1, 1/3, 1/2, negatives) as well as free rationals;
# a few values of the wrong type check that coercion still comes first.
parameters = st.one_of(
    st.sampled_from([F(0), F(1), F(1, 3), F(1, 2), F(2, 3), F(-1, 5), 0, 1, -1]),
    st.fractions(min_value=-1, max_value=F(3, 2), max_denominator=12),
    st.integers(min_value=-2, max_value=2),
    st.sampled_from([0.5, "1/3", True]),
)


# Large denominators, coprime ones among them, so that the common
# denominator of sigma, mu and tau runs to about 10**18 and beyond.
large_denominators = st.one_of(
    st.sampled_from([F(1, 999983), F(2, 999979), F(999982, 999983), F(499990, 999979)]),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
)


def _assert_every_public_function_agrees(setting, sigma, mu, tau, alpha_target):
    pairs = [
        (safety_threshold, ref_safety_threshold, (sigma, mu, tau)),
        (liveness_threshold, ref_liveness_threshold, (sigma, mu, tau)),
        (report, ref_report, (sigma, mu, tau)),
        (feasibility, ref_feasibility, (sigma, mu)),
        (required_tau, ref_required_tau, (sigma, mu, alpha_target)),
    ]
    for new, ref, args in pairs:
        assert _result(new, setting, *args) == _result(ref, setting, *args), new.__name__


class TestAgainstPerSettingFormulas:
    @settings(max_examples=400)
    @given(st.sampled_from(list(Setting)), parameters, parameters, parameters, parameters)
    def test_every_public_function(self, setting, sigma, mu, tau, alpha_target):
        _assert_every_public_function_agrees(setting, sigma, mu, tau, alpha_target)

    @settings(max_examples=400)
    @given(
        st.sampled_from(list(Setting)),
        large_denominators,
        large_denominators,
        large_denominators,
        large_denominators,
    )
    def test_every_public_function_on_large_denominators(
        self, setting, sigma, mu, tau, alpha_target
    ):
        _assert_every_public_function_agrees(setting, sigma, mu, tau, alpha_target)

    @pytest.mark.parametrize("setting", list(Setting), ids=lambda s: s.value)
    def test_on_a_grid(self, setting):
        grid = [F(k, 6) for k in range(-1, 7)]
        for sigma in grid:
            for mu in grid:
                assert _result(feasibility, setting, sigma, mu) == _result(
                    ref_feasibility, setting, sigma, mu
                )
                for tau in grid:
                    for new, ref in (
                        (report, ref_report),
                        (required_tau, ref_required_tau),
                    ):
                        assert _result(new, setting, sigma, mu, tau) == _result(
                            ref, setting, sigma, mu, tau
                        ), (new.__name__, sigma, mu, tau)


class TestOneCheckPerCall:
    @staticmethod
    def spy(monkeypatch, name):
        """The argument tuples of every call to guarantees.<name>."""
        calls = []
        real = getattr(guarantees, name)

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(guarantees, name, spy)
        return calls

    def test_report_and_feasibility_check_once(self, monkeypatch):
        checks = self.spy(monkeypatch, "_checked")
        windows = self.spy(monkeypatch, "_window")
        report(ARB, F(1, 5), F(1, 5), F(1, 10))
        assert (len(checks), len(windows)) == (1, 1)
        checks.clear()
        windows.clear()
        feasibility(SMJ, F(1, 10), F(1, 5))
        assert (len(checks), len(windows)) == (1, 1)

    def test_frontier_checks_once_per_sigma_and_mu(self, monkeypatch):
        checks = self.spy(monkeypatch, "_checked")
        windows = self.spy(monkeypatch, "_window")
        grid = [F(0), F(1, 5), F(1, 2), F(4, 5)]  # 6 of the 16 pairs are degenerate
        rows = list(formats.frontier_rows(ARB, grid, grid, [F(0), F(1, 10), F(1, 5)]))
        assert len(rows) == 48
        assert (len(checks), len(windows)) == (10, 10)

