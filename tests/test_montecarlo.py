from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from realityvote import Mechanism, is_safe, montecarlo, proxy, verifier
from realityvote.errors import DegenerateParams, MechanismMismatch, SampleTooLarge
from realityvote.montecarlo import (
    Experiment,
    _supporter_draws,
    _trial_generators,
    _trial_keys,
    hoeffding_diagnostic,
    run_proxy_whp,
    run_safety_whp,
)

from conftest import binary_profile, interval_profile

F = Fraction


def whp_experiment(honest_p=6, honest_r=14, sybil_p=5, n_plus=10, tau=F(1, 2), **kw):
    template = binary_profile(active="p" * honest_p + "r" * honest_r, sybil="p" * sybil_p)
    defaults = dict(
        profile=template,
        mechanism=Mechanism("mj", re_tau=tau, participation="active"),
        base=Mechanism("mj"),
        alpha_prime=F(1, 10),
        trials=200,
        seed=99,
        n_plus=n_plus,
    )
    defaults.update(kw)
    return Experiment(**defaults)


def proxy_experiment(n_plus=5, trials=100, **kw):
    template = interval_profile(
        0, active=[2 * i for i in range(40)], sybil=[150] * 10
    )
    defaults = dict(
        profile=template,
        mechanism=Mechanism("md", re_tau=F(1, 4), participation="proxy"),
        base=Mechanism("md"),
        alpha_prime=F(1, 20),
        trials=trials,
        seed=5,
        n_plus=n_plus,
    )
    defaults.update(kw)
    return Experiment(**defaults)


class TestExperimentValidation:
    def test_needs_trials(self):
        with pytest.raises(DegenerateParams):
            whp_experiment(trials=0)

    def test_needs_positive_alpha_prime(self):
        with pytest.raises(DegenerateParams):
            whp_experiment(alpha_prime=0)

    def test_sample_must_fit(self):
        with pytest.raises(SampleTooLarge):
            whp_experiment(n_plus=21)

    def test_trial_count_stops_where_one_spawn_word_does(self):
        # Trial t's spawn key (t,) is one 32-bit word up to t = 2**32 - 1.
        assert whp_experiment(trials=2**32).trials == 2**32
        with pytest.raises(DegenerateParams, match="at most 4294967296 trials"):
            whp_experiment(trials=2**32 + 1)

    def test_base_reads_every_honest_ballot(self):
        # The safe region is computed once from the template's honest voters.
        with pytest.raises(DegenerateParams):
            whp_experiment(base=Mechanism("mj", participation="active"))


class TestSafetyWhp:
    def test_seed_determinism(self):
        a = run_safety_whp(whp_experiment())
        b = run_safety_whp(whp_experiment())
        assert a == b

    def test_different_seeds_vary(self):
        # Without the wrapper the sybils flip roughly half the draws, so
        # violation counts move with the seed.
        rates = {
            run_safety_whp(whp_experiment(tau=F(0), seed=s, trials=60)).violation_count
            for s in range(6)
        }
        assert len(rates) > 1

    def test_full_participation_is_deterministic(self):
        exp = whp_experiment(n_plus=20, trials=50)
        stats = run_safety_whp(exp)
        assert stats.empirical_rate in (F(0), F(1))

    def test_gate_passes_above_threshold(self):
        # tau = 1/2 is far above sigma/(1 - mu) for this template.
        stats = run_safety_whp(whp_experiment(trials=400))
        assert stats.passes_gate()

    def test_rate_is_exact_fraction(self):
        stats = run_safety_whp(whp_experiment(trials=7))
        assert stats.empirical_rate == F(stats.violation_count, 7)

    def test_each_distinct_draw_is_evaluated_once(self, monkeypatch):
        # A binary trial's outcome depends only on how many supporters the
        # draw hits, so 200 trials evaluate at most 7 tallies (0-6 of the
        # six honest supporters), each once.
        exp = whp_experiment(tau=F(0), trials=200)
        want = run_safety_whp(exp)
        draws = []
        real = verifier._binary_outcome

        def spy(mechanism, domain, proposal_count, electorate):
            draws.append(proposal_count)  # the draw plus the five sybils on p
            return real(mechanism, domain, proposal_count, electorate)

        monkeypatch.setattr(verifier, "_binary_outcome", spy)
        assert run_safety_whp(exp) == want
        assert 1 < len(draws) <= 7
        assert len(set(draws)) == len(draws)

    @pytest.mark.parametrize(
        "mechanism, message",
        [pytest.param(mechanism, message, id=mechanism.describe()) for mechanism, message in [
            (Mechanism("mj", participation="proxy"), "median-on-interval only"),
            (Mechanism("md", participation="proxy"), "rule 'md' does not apply"),
            (Mechanism("pl", participation="active"), "rule 'pl' does not apply"),
        ]],
    )
    def test_mechanism_is_checked_before_any_draw(self, mechanism, message, monkeypatch):
        # The mechanism is checked once up front (the rule's domain, then
        # proxy participation, as eval checks it), not at the first
        # distinct draw.
        def no_draw(*args):
            raise AssertionError("a draw started")

        monkeypatch.setattr(montecarlo, "_supporter_draws", no_draw)
        with pytest.raises(MechanismMismatch, match=message):
            run_safety_whp(whp_experiment(mechanism=mechanism))

    def test_tightness_template_violates_often(self):
        # Below the random-participation threshold the adversarial template
        # (all sybils on the proposal, honest gap inside the slack) breaks
        # safety on a constant fraction of draws: at least 0.45 here.
        template = binary_profile(active="p" * 110 + "r" * 210, sybil="p" * 80)
        exp = Experiment(
            profile=template,
            mechanism=Mechanism("mj", participation="active"),
            base=Mechanism("mj"),
            alpha_prime=F(1, 10),
            trials=400,
            seed=55,
            n_plus=240,
        )
        stats = run_safety_whp(exp)
        assert stats.empirical_rate >= F(45, 100)


class TestProxyWhp:
    def test_seed_determinism(self):
        a = run_proxy_whp(proxy_experiment(), F(1, 20))
        b = run_proxy_whp(proxy_experiment(), F(1, 20))
        assert a == b

    def test_full_sample_never_violates_when_tau_covers_sigma(self):
        # All honest active: z equals the all-active outcome; with the
        # virtual mass matching the sybil count the envelope pins safety.
        exp = proxy_experiment(n_plus=40, trials=20)
        stats = run_proxy_whp(exp, F(1, 20))
        assert stats.violation_count == 0

    def test_bound_decays_with_sample_size(self):
        small = run_proxy_whp(proxy_experiment(n_plus=4, trials=30), F(1, 10))
        large = run_proxy_whp(proxy_experiment(n_plus=30, trials=30), F(1, 10))
        assert large.bound_value < small.bound_value

    def test_budget_is_c_plus_the_proxy_threshold(self, monkeypatch):
        # sigma = 1/5 above tau = 0: alpha' = c + (sigma - tau) / (2 (1 - sigma)).
        gammas = []
        outcome_range = verifier.outcome_range

        def spy(mechanism, profile, gamma):
            gammas.append(gamma)
            return outcome_range(mechanism, profile, gamma)

        monkeypatch.setattr(verifier, "outcome_range", spy)
        mechanism = Mechanism("md", participation="proxy")
        run_proxy_whp(proxy_experiment(trials=5, mechanism=mechanism), F(1, 20))
        assert gammas == [F(1, 20) + F(1, 5) / (2 * F(4, 5))]

    def test_alpha_prime_is_not_read(self):
        # The budget is c plus the proxy threshold whatever the experiment's
        # alpha_prime; at 9/10 it would leave no violation.
        near, far = (
            run_proxy_whp(proxy_experiment(trials=30, alpha_prime=a), F(1, 20))
            for a in (F(1, 20), F(9, 10))
        )
        assert near == far and near.violation_count > 0

    @pytest.mark.parametrize(
        "mechanism, message",
        [pytest.param(mechanism, message, id=mechanism.describe()) for mechanism, message in [
            (Mechanism("md", re_tau=F(1, 5), participation="active"), "need proxy participation"),
            (Mechanism("som", base_tau=F(1, 3), re_tau=F(1, 5)), "need proxy participation"),
            (Mechanism("som", base_tau=F(1, 3), participation="proxy"), "median-on-interval only"),
            (Mechanism("mj", participation="proxy"), "rule 'mj' does not apply"),
        ]],
    )
    def test_mechanism_is_checked_before_any_draw(self, mechanism, message, monkeypatch):
        # The trials run proxy delegation whatever the experiment names, so
        # a mechanism they would not run is refused before the safe region
        # and before any draw, not counted as md mode:proxy.
        def never(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(verifier, "outcome_range", never)
        monkeypatch.setattr(montecarlo, "_trial_generators", never)
        with pytest.raises(MechanismMismatch, match=message):
            run_proxy_whp(proxy_experiment(mechanism=mechanism), F(1, 20))

    def test_c_must_be_interior(self):
        with pytest.raises(DegenerateParams):
            run_proxy_whp(proxy_experiment(trials=5), F(0))

    def test_tracks_good_event_failures(self):
        stats = run_proxy_whp(proxy_experiment(trials=50), F(1, 20))
        assert stats.y_failure_count is not None
        assert 0 <= stats.y_failure_count <= 50

    def test_full_replacement_budget_never_violates(self):
        # As c approaches 1 the probed budget covers every honest voter, so
        # the reachable range swallows any outcome on the honest side.
        stats = run_proxy_whp(proxy_experiment(trials=40), F(99, 100))
        assert stats.violation_count == 0
        assert stats.bound_value < 1e-9


class TestHoeffdingDiagnostic:
    TEMPLATE = binary_profile(active="p" * 50 + "r" * 50)

    def test_impossible_excess_never_fires(self):
        stats = hoeffding_diagnostic(self.TEMPLATE, 20, F(3, 5), trials=100, seed=1)
        assert stats.violation_count == 0

    def test_full_sample_has_no_noise(self):
        stats = hoeffding_diagnostic(self.TEMPLATE, 100, F(1, 100), trials=50, seed=2)
        assert stats.violation_count == 0

    def test_bound_and_gate(self):
        stats = hoeffding_diagnostic(self.TEMPLATE, 25, F(1, 10), trials=800, seed=3)
        assert 0 < stats.bound_value < 1
        assert stats.passes_gate()

    def test_determinism(self):
        a = hoeffding_diagnostic(self.TEMPLATE, 25, F(1, 10), trials=100, seed=4)
        b = hoeffding_diagnostic(self.TEMPLATE, 25, F(1, 10), trials=100, seed=4)
        assert a == b

    def test_negative_epsilon_is_degenerate(self):
        # A negative excess would make every draw an overshoot against a
        # bound below 1, a gate failure with nothing measured.
        with pytest.raises(DegenerateParams, match="epsilon"):
            hoeffding_diagnostic(self.TEMPLATE, 25, F(-1, 10), trials=100, seed=4)

    def test_trial_count_limit_is_checked_before_any_draw(self, monkeypatch):
        def no_draw(seed, trials):
            raise AssertionError("a draw started")

        monkeypatch.setattr(montecarlo, "_trial_generators", no_draw)
        with pytest.raises(DegenerateParams, match="at most 4294967296 trials"):
            hoeffding_diagnostic(self.TEMPLATE, 25, F(1, 10), trials=2**32 + 1, seed=4)

    def test_zero_epsilon_has_bound_one(self):
        stats = hoeffding_diagnostic(self.TEMPLATE, 25, F(0), trials=100, seed=4)
        assert stats.bound_value == 1.0
        assert stats.passes_gate()


class TestBinaryTrialDraw:
    """Both binary experiments read trial t's active proposal supporters from
    one hypergeometric draw on the Philox substream (seed, t)."""

    @staticmethod
    def reference_draws(supporters, honest, n_plus, trials, seed):
        return [
            int(
                np.random.Generator(
                    np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
                ).hypergeometric(supporters, honest - supporters, n_plus)
            )
            for t in range(trials)
        ]

    # (participation, RE tau, sybil ballots, alpha', how many trials violate)
    SAFETY_CASES = [
        ("active", F(1, 5), "p" * 5, F(1, 10), "some"),
        # Under full participation the draw does not change the outcome.
        ("full", F(0), "p" * 10, F(1, 10), "all"),
        ("active", F(1, 5), "p" * 7 + "r", F(1, 10), "some"),
        # Five replacements elect p on the honest voters: always safe.
        ("active", F(1, 5), "p" * 7 + "r", F(1, 4), "none"),
    ]

    def test_safety_trials(self):
        for mode, tau, sybil, alpha_prime, share in self.SAFETY_CASES:
            template = binary_profile(active="p" * 6 + "r" * 14, sybil=sybil)
            mechanism = Mechanism("mj", re_tau=tau, participation=mode)
            exp = whp_experiment(
                profile=template, mechanism=mechanism, alpha_prime=alpha_prime, trials=60
            )
            violations = 0
            for k in self.reference_draws(6, 20, exp.n_plus, exp.trials, exp.seed):
                trial = binary_profile(
                    active="p" * k + "r" * (exp.n_plus - k),
                    passive="p" * (6 - k) + "r" * (14 - exp.n_plus + k),
                    sybil=sybil,
                )
                violations += not is_safe(exp.mechanism, exp.base, trial, exp.alpha_prime)
            assert {
                "none": violations == 0,
                "some": 0 < violations < exp.trials,
                "all": violations == exp.trials,
            }[share], (mode, sybil, violations)
            assert run_safety_whp(exp).violation_count == violations

    def test_hoeffding_trials(self):
        template = binary_profile(active="p" * 30 + "r" * 50)
        draws = self.reference_draws(30, 80, 20, 300, 17)
        overshoots = sum(k >= (F(30, 80) + F(1, 10)) * 20 for k in draws)
        assert 0 < overshoots < 300
        assert hoeffding_diagnostic(template, 20, F(1, 10), 300, 17).violation_count == overshoots

    # 80 honest voters, 30 for p, 16 active: the expected proposal count is 6.
    def test_hoeffding_integral_cutoff_counts_equality(self):
        template = binary_profile(active="p" * 30 + "r" * 50)
        draws = self.reference_draws(30, 80, 16, 300, 23)
        cutoff = (F(30, 80) + F(1, 8)) * 16
        assert cutoff == 8 and 8 in draws
        overshoots = sum(k >= 8 for k in draws)
        assert hoeffding_diagnostic(template, 16, F(1, 8), 300, 23).violation_count == overshoots

    def test_hoeffding_fractional_cutoff(self):
        template = binary_profile(active="p" * 30 + "r" * 50)
        draws = self.reference_draws(30, 80, 16, 300, 29)
        cutoff = (F(30, 80) + F(1, 10)) * 16
        assert cutoff == F(38, 5) and {7, 8} <= set(draws)
        overshoots = sum(k >= 8 for k in draws)
        assert hoeffding_diagnostic(template, 16, F(1, 10), 300, 29).violation_count == overshoots


@lru_cache(maxsize=None)
def reference_keys(seed, trials):
    return [
        tuple(np.random.SeedSequence(seed, spawn_key=(t,)).generate_state(2, np.uint64).tolist())
        for t in range(trials)
    ]


# One-word, two-word and many-word seeds, the edges of a word included:
# 2**128 - 1 is the last seed of four words (the pool's size), 2**160 - 1
# the last of five.
SEEDS = {
    "0": 0, "1": 1, "2**32-1": 2**32 - 1, "2**32": 2**32, "2**64": 2**64,
    "2**128-1": 2**128 - 1, "2**128+7": 2**128 + 7, "2**160-1": 2**160 - 1,
    "2**200+3": 2**200 + 3,
}


class TestTrialStreams:
    """One key pass and one re-keyed generator reproduce, trial by trial,
    what a fresh Philox(SeedSequence(seed, spawn_key=(t,))) draws."""

    @pytest.mark.parametrize("trials", [1, 4095, 4096, 4097])  # around the key block
    @pytest.mark.parametrize("seed", list(SEEDS.values()), ids=list(SEEDS))
    def test_keys_match_seed_sequence(self, seed, trials):
        assert list(_trial_keys(seed, trials)) == reference_keys(seed, 4097)[:trials]

    def test_negative_seed_is_numpy_s_value_error(self):
        with pytest.raises(ValueError):
            list(_trial_keys(-1, 3))
        with pytest.raises(ValueError):
            next(_trial_generators(-1, 3))

    # (supporters, honest, n_plus): numpy draws a sample under 10 by
    # counting, and larger ones by ratio of uniforms.
    @pytest.mark.parametrize("shape", [(6, 20, 3), (30, 80, 9), (30, 80, 20), (500, 1600, 900)])
    @pytest.mark.parametrize("seed", [0, 2**32, 2**128 + 7], ids=["0", "2**32", "2**128+7"])
    def test_supporter_draws_match_fresh_streams(self, shape, seed):
        supporters, honest, n_plus = shape
        trials = 4097 if shape == (30, 80, 20) else 300  # past one key block
        want = TestBinaryTrialDraw.reference_draws(supporters, honest, n_plus, trials, seed)
        assert list(_supporter_draws(supporters, honest, n_plus, trials, seed)) == want

    @pytest.mark.parametrize("n_plus", [1, 3, 40, 200, 399])
    def test_proxy_samples_match_fresh_streams(self, n_plus):
        # An odd count of 32-bit draws leaves a buffered half-word behind,
        # which the next trial must not read.
        seed = 2**64 + 9
        for t, rng in enumerate(_trial_generators(seed, 60)):
            fresh = np.random.Philox(np.random.SeedSequence(seed, spawn_key=(t,)))
            want = np.random.Generator(fresh).choice(400, size=n_plus, replace=False)
            assert rng.choice(400, size=n_plus, replace=False).tolist() == want.tolist()

    @pytest.mark.parametrize("n_plus", [2, 20])
    def test_proxy_counts_match_fresh_stream_replays(self, n_plus):
        mechanism = Mechanism("md", participation="proxy")
        exp = proxy_experiment(n_plus=n_plus, trials=80, mechanism=mechanism)
        c = F(1, 100)
        stats = run_proxy_whp(exp, c)
        alpha_prime = c + F(1, 5) / (2 * F(4, 5))  # sigma 1/5, tau 0
        region = verifier.outcome_range(
            exp.base, verifier.honest_only(exp.profile), alpha_prime
        ).safe_region(exp.profile.domain)
        violations = y_failures = 0
        for t in range(exp.trials):
            stream = np.random.SeedSequence(exp.seed, spawn_key=(t,))
            z, analysis = proxy.sample_and_run(exp.profile, exp.n_plus, 0, stream)
            violations += not region.contains(z)
            y_failures += analysis.j_hat > c * exp.profile.n_honest
        assert 0 < violations < exp.trials and 0 < y_failures < exp.trials
        assert (stats.violation_count, stats.y_failure_count) == (violations, y_failures)


# Every draw of an active sample from a template checks its size the same
# way: (honest voters in the template, the call at a given n_plus).
_SAMPLE_CALLERS = {
    "Experiment": (20, lambda n_plus: whp_experiment(n_plus=n_plus)),
    "hoeffding_diagnostic": (4, lambda n_plus: hoeffding_diagnostic(
        binary_profile(active="pprr", sybil="p"), n_plus, F(1, 10), trials=10, seed=1)),
    "sample_and_run": (4, lambda n_plus: proxy.sample_and_run(
        interval_profile(0, active=(1, 2), passive=(3, 4), sybil=(9,)), n_plus, 0, seed=1)),
}


@pytest.mark.parametrize("caller", sorted(_SAMPLE_CALLERS))
def test_active_sample_holds_one_to_every_honest_voter(caller):
    honest, call = _SAMPLE_CALLERS[caller]
    for n_plus in (0, honest + 1):
        with pytest.raises(SampleTooLarge,
                           match=f"inside the honest set: {n_plus} is not between 1 and {honest}$"):
            call(n_plus)
    call(1)
    call(honest)
