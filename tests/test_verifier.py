import math
import random
from fractions import Fraction

import pytest

from realityvote import (
    DomainSpec,
    Mechanism,
    NonatomicProfile,
    apply,
    build_profile,
    is_live,
    is_safe,
    min_alpha,
    min_alpha_for_profile,
    nonatomic_eval,
    outcome_range,
    reduction_check,
    replay_witness,
    smallest_live_beta,
    tightness_witness,
)
from realityvote.errors import (
    BudgetExceeded,
    DegenerateParams,
    MechanismMismatch,
    MissingPrivateBallots,
    RegimeMismatch,
    UnrealizableShape,
)
from realityvote.guarantees import Setting, liveness_threshold, safety_threshold
from realityvote.population import VoterClass
from realityvote.verifier import honest_only

from conftest import ACTIVE, PASSIVE, SYBIL, binary_profile, interval_profile

F = Fraction
MJ = Mechanism("mj")
MJ_ACTIVE = Mechanism("mj", participation="active")


class TestOutcomeRange:
    def test_budget_of_one_flips_majority(self):
        prof = binary_profile(active="rrp")
        rng = outcome_range(MJ, prof, F(1, 3))
        assert rng.reachable == frozenset({"r", "p"})

    def test_zero_budget_is_singleton(self):
        prof = binary_profile(active="rrp", sybil="pp")
        rng = outcome_range(MJ, prof, 0)
        assert rng.reachable == frozenset({apply(MJ, prof)})

    def test_supermajority_needs_nineteen(self):
        # From all-on-r with two sybils on r, nineteen supporters overcome
        # the 0.4 threshold and eighteen do not.
        prof = binary_profile(active="r", passive="rr", sybil="rr")
        smj = Mechanism("smj", base_tau=F(2, 5), participation="active")
        assert outcome_range(smj, prof, F(19, 1)).contains("p")
        assert not outcome_range(smj, prof, F(18, 1)).contains("p")

    def test_grows_with_budget(self):
        prof = binary_profile(active="rrrp")
        budgets = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        sets = [outcome_range(MJ, prof, g).reachable for g in budgets]
        for small, large in zip(sets, sets[1:]):
            assert small <= large

    def test_interval_hull(self):
        prof = interval_profile(0, active=(1, 5, 9))
        base = Mechanism("md")
        rng0 = outcome_range(base, prof, 0)
        assert (rng0.lo, rng0.hi) == (5, 5)
        rng1 = outcome_range(base, prof, F(1, 3))
        assert (rng1.lo, rng1.hi) == (1, 9)
        assert rng1.contains(F(7, 2)) and not rng1.contains(F(10))

    def test_interval_ray_when_budget_swamps(self):
        prof = interval_profile(0, active=(1, 5))
        rng = outcome_range(Mechanism("md"), prof, F(2))
        assert rng.hi is None and rng.lo is None


class TestIsSafe:
    def test_partial_participation_thresholds(self, example_partial):
        assert is_safe(MJ_ACTIVE, MJ, example_partial, F(2, 3))
        assert not is_safe(MJ_ACTIVE, MJ, example_partial, F(1, 3))

    def test_reality_enforcing_restores_zero_safety(self, example_partial):
        mech = Mechanism("mj", re_tau=F(2, 3), participation="active")
        assert is_safe(mech, MJ, example_partial, 0)

    def test_returning_status_quo_is_always_safe(self, example_partial):
        blocked = Mechanism("mj", re_tau=F(10), participation="active")
        for alpha in (F(0), F(1, 3), F(1)):
            assert is_safe(blocked, MJ, example_partial, alpha)

    def test_needs_private_ballots(self):
        prof = build_profile(
            DomainSpec.binary(), [(ACTIVE, "r"), (PASSIVE, None), (SYBIL, "p")]
        )
        with pytest.raises(MissingPrivateBallots):
            is_safe(MJ_ACTIVE, MJ, prof, F(1, 2))

    def test_honest_only_strips_sybils(self, example_partial):
        assert honest_only(example_partial).n_sybil == 0
        assert honest_only(example_partial).n == 3


class TestIsLive:
    def test_majority_partial_three_live(self):
        shape = (5, F(2, 5), F(2, 5))
        assert is_live(MJ_ACTIVE, shape, "p", 3)
        assert not is_live(MJ_ACTIVE, shape, "p", 2)

    def test_supermajority_nineteen_live(self):
        smj = Mechanism("smj", base_tau=F(2, 5), participation="active")
        shape = (5, F(2, 5), F(2, 5))
        assert is_live(smj, shape, "p", 19)
        assert not is_live(smj, shape, "p", F(56, 3))

    def test_full_majority_one_live(self):
        shape = (5, F(2, 5), 0)
        assert is_live(MJ, shape, "p", 1)
        assert not is_live(MJ, shape, "p", F(2, 3))

    def test_unrealizable_shape(self):
        with pytest.raises(UnrealizableShape):
            is_live(MJ, (5, F(1, 3), 0), "p", 1)

    def test_interval_liveness_mirrors_binary(self):
        # Reaching a position on the line against blocking sybils costs
        # exactly what the two-point contest costs.
        md = Mechanism("md", participation="active")
        line = DomainSpec.interval(0)
        shape = (5, F(2, 5), 0)
        assert is_live(md, shape, F(7), 1, domain=line)
        assert not is_live(md, shape, F(7), F(2, 3), domain=line)
        assert smallest_live_beta(md, shape, F(7), domain=line) == smallest_live_beta(
            MJ_ACTIVE, shape, "p"
        )


class TestMinAlpha:
    def test_full_participation_table_value(self):
        assert min_alpha(MJ, MJ, (5, F(2, 5), 0)) == F(1, 3)

    def test_reality_enforced_partial(self):
        mech = Mechanism("mj", re_tau=F(4, 5), participation="active")
        assert min_alpha(mech, MJ, (5, F(2, 5), F(2, 5))) == F(1, 3)

    def test_no_adversary(self):
        assert min_alpha(MJ, MJ, (4, 0, 0)) == 0

    def test_worst_case_closed_form(self):
        # The enumeration agrees with the hand-derived worst case: the least
        # honest-active support that elects the proposal is floor(D/2) + 1
        # votes with D = h+ + q - s, and the movers needed from there are
        # floor(h/2) + 1 - k.
        for n in range(1, 8):
            for s in range(0, n):
                for hm in range(0, n - s):
                    hp = n - s - hm
                    if hp < 1:
                        continue
                    for tau in (F(0), F(1, 2), F(1)):
                        mech = Mechanism("mj", re_tau=tau, participation="active")
                        got = min_alpha(mech, MJ, (n, F(s, n), F(hm, n)))
                        h = n - s
                        d = hp + tau * (hp + s) - s
                        k_min = math.floor(d / 2) + 1
                        if k_min > hp:
                            expected = F(0)
                        else:
                            expected = F(max(0, h // 2 + 1 - max(k_min, 0)), h)
                        assert got == expected, (n, s, hm, tau)

    def test_oracle_never_exceeds_rounded_formula(self):
        # The closed-form threshold rounded up to the honest grid is always
        # sufficient; the finite worst case can only be smaller (the
        # adversary's supporting-vote count is an integer too).
        for n in range(1, 9):
            for s in range(0, n):
                for hm in range(0, n - s):
                    if n - s - hm < 1:
                        continue
                    for tau in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
                        mech = Mechanism("mj", re_tau=tau, participation="active")
                        oracle = min_alpha(mech, MJ, (n, F(s, n), F(hm, n)))
                        t = safety_threshold(
                            Setting.ARBITRARY_BINARY, F(s, n), F(hm, n), tau
                        )
                        h = n - s
                        assert oracle <= max(F(0), F(math.ceil(t * h), h))

    def test_hypercube_worked_example(self):
        cube = DomainSpec.hypercube(3, (0, 0, 0))
        voters = [(ACTIVE, (0, 0, 1))] * 20
        voters += [(ACTIVE, (0, 1, 0))] * 20
        voters += [(ACTIVE, (1, 0, 0))] * 20
        voters += [(SYBIL, (1, 1, 1))] * 21
        prof = build_profile(cube, voters)
        imj = Mechanism("imj")
        # 15 changes leave 30-30 coordinate ties (which stay at the status
        # quo); 16 changes (replace 5+5+5, add one) reach strict majorities.
        assert not is_safe(imj, imj, prof, F(15, 60))
        assert is_safe(imj, imj, prof, F(16, 60))
        assert min_alpha_for_profile(imj, imj, prof) == F(4, 15)


class TestLivenessAgainstFormula:
    def test_smallest_beta_matches_formula_below_one(self):
        for n in range(2, 8):
            for s in range(0, n - 1):
                hp = n - s
                thr = liveness_threshold(Setting.ARBITRARY_BINARY, F(s, n), 0, 0)
                if thr >= 1:
                    continue
                finite = smallest_live_beta(MJ_ACTIVE, (n, F(s, n), 0), "p")
                assert finite == F(math.floor(thr * hp) + 1, hp)

    def test_condorcet_supermajority_inherits_supermajority_liveness(self):
        # Putting the target on top of every moved ballot makes the
        # pairwise contests exactly as demanding as the one-shot
        # supermajority, so the minimal feasible budgets coincide.
        domain = DomainSpec.categorical(["r", "a", "b"], "r")
        for n, s, hm in [(4, 1, 0), (5, 2, 0), (5, 1, 2), (6, 2, 1)]:
            shape = (n, F(s, n), F(hm, n))
            for tau in (F(0), F(1, 5)):
                scc = Mechanism("scc", base_tau=tau, participation="active")
                smj = Mechanism("smj", base_tau=tau, participation="active")
                assert smallest_live_beta(
                    scc, shape, "a", domain=domain, max_units=40
                ) == smallest_live_beta(smj, shape, "p", max_units=40)

    def test_issuewise_inherits_majority_liveness(self):
        cube = DomainSpec.hypercube(2, (0, 0))
        for n, s in [(4, 1), (5, 2), (6, 2)]:
            shape = (n, F(s, n), F(0))
            for tau in (F(0), F(1, 4)):
                imj = Mechanism("imj", re_tau=tau, participation="active")
                mj = Mechanism("mj", re_tau=tau, participation="active")
                assert smallest_live_beta(
                    imj, shape, (1, 1), domain=cube, max_units=40
                ) == smallest_live_beta(mj, shape, "p", max_units=40)


class TestWitnesses:
    def test_indistinguishable_pair(self):
        w = tightness_witness("indistinguishable-pair", sigma=F(1, 4), mu=F(3, 20))
        assert replay_witness(w)
        v, v_bar = w.profile_pair
        assert v.sigma == v_bar.sigma and v.mu == v_bar.mu

    def test_pair_needs_regime(self):
        with pytest.raises(RegimeMismatch):
            tightness_witness("indistinguishable-pair", sigma=F(1, 10), mu=F(1, 10))

    def test_nonatomic_pair(self):
        w = tightness_witness("random-indistinguishable-pair", sigma=F(3, 10), mu=F(1, 5))
        assert replay_witness(w)
        assert replay_witness(w, tau=F(1, 3))

    def test_knife_edge_violation_replays(self):
        w = tightness_witness("safety-knife-edge", sigma=F(1, 5), mu=F(1, 5), tau=0, alpha=F(1, 10))
        assert replay_witness(w)
        assert 0 < w.params["epsilon_prime"] < w.params["epsilon"] * (1 - F(1, 5))

    def test_knife_edge_boundary_rejected(self):
        with pytest.raises(RegimeMismatch):
            tightness_witness("safety-knife-edge", sigma=F(1, 5), mu=F(1, 5), tau=0, alpha=F(1, 4))


class TestNonatomic:
    def test_tie_keeps_status_quo(self):
        pop = NonatomicProfile(
            h_r=F(1, 2), h_p=F(1, 2), s_r=0, s_p=0, participation=F(2, 3)
        )
        assert nonatomic_eval(pop, 0) == "r"

    def test_boundary_both_ways(self):
        # sigma = 0.3, full participation: the proposal needs the honest gap
        # below sigma to win.
        near = NonatomicProfile(h_r=F(41, 100), h_p=F(29, 100), s_r=0, s_p=F(3, 10), participation=1)
        far = NonatomicProfile(h_r=F(51, 100), h_p=F(19, 100), s_r=0, s_p=F(3, 10), participation=1)
        assert nonatomic_eval(near, 0) == "p"
        assert nonatomic_eval(far, 0) == "r"

    def test_unanimous_proposal(self):
        pop = NonatomicProfile(h_r=0, h_p=F(7, 10), s_r=0, s_p=F(3, 10), participation=1)
        assert nonatomic_eval(pop, F(9, 10)) == "p"


class TestReductionCheck:
    def test_vacuous_when_safe(self):
        prof = interval_profile(4, active=(4, 4, 4), sybil=(20,))
        assert reduction_check(prof, F(1, 2), F(0))

    def test_hand_instance(self):
        prof = interval_profile(
            4, active=(4, 4, 12), sybil=(20, 20)
        )
        assert reduction_check(prof, 0, 0)

    def test_random_instances(self, monkeypatch):
        from realityvote import verifier

        # Record which side of r each violation's contest lies on: the
        # projection is onto (bound of the safe region, z).
        sides = set()
        project = verifier.project_to_pair

        def spy(profile, bound, z):
            sides.add("above" if z > bound else "below")
            return project(profile, bound, z)

        monkeypatch.setattr(verifier, "project_to_pair", spy)
        rng = random.Random(23)
        for _ in range(500):
            n = rng.randint(1, 12)
            r = F(rng.randint(-4, 4))
            voters = [(ACTIVE, F(rng.randint(-10, 10)))]
            for _ in range(n - 1):
                cls = rng.choice([ACTIVE, PASSIVE, SYBIL])
                voters.append((cls, F(rng.randint(-10, 10))))
            prof = build_profile(DomainSpec.interval(r), voters)
            tau = rng.choice([F(0), F(1, 4), F(1, 3), F(1, 2), F(3, 4)])
            alpha = rng.choice([F(0), F(1, 6), F(1, 4), F(1, 3), F(1, 2)])
            assert reduction_check(prof, tau, alpha)
        assert sides == {"above", "below"}


class TestParamChecks:
    def test_interval_search_runs_interval_rules_only(self):
        prof = interval_profile(0, active=(1, 2))
        with pytest.raises(MechanismMismatch):
            outcome_range(Mechanism("mj"), prof, F(1, 2))
        with pytest.raises(MechanismMismatch):
            is_live(Mechanism("smj"), (3, 0, 0), 1, F(1, 3), DomainSpec.interval(0))

    def test_negative_budget_rejected(self):
        prof = binary_profile(active="rp")
        with pytest.raises(DegenerateParams):
            outcome_range(MJ, prof, F(-1, 2))

    @pytest.mark.parametrize(
        "base, domain, target",
        [
            ("mj", DomainSpec.binary(), "p"),
            ("pl", DomainSpec.categorical(["r", "a", "b"], "r"), "a"),
            ("imj", DomainSpec.hypercube(2, (0, 0)), (1, 1)),
            ("md", DomainSpec.interval(0), F(3)),
        ],
    )
    def test_negative_liveness_budget_rejected(self, base, domain, target):
        with pytest.raises(DegenerateParams):
            is_live(Mechanism(base), (3, F(1, 3), 0), target, F(-1, 2), domain)


class TestWorkLimit:
    RANKINGS = ["a>b>r", "r>a>b", "b>r>a", "a>r>b"]

    def ranking_profile(self):
        domain = DomainSpec.categorical(["r", "a", "b"], "r")
        return build_profile(
            domain, [(ACTIVE, tuple(b.split(">"))) for b in self.RANKINGS]
        )

    def test_large_ranking_budget_is_answered(self):
        # Budget 8 over six ranking ballots: an up-front estimate of every
        # addition over every ranking refused this search.
        rng = outcome_range(Mechanism("cc"), self.ranking_profile(), 2)
        assert rng.budget == 8
        assert rng.reachable == {"r", "a", "b"}

    def test_oversized_search_still_refused(self, monkeypatch):
        # At budget 1, b is unreachable: its search evaluates 2 tallies
        # without removals and 4 with one, and the limit counts tallies.
        from realityvote import verifier

        monkeypatch.setattr(verifier, "_WORK_LIMIT", 5)
        with pytest.raises(BudgetExceeded):
            outcome_range(Mechanism("cc"), self.ranking_profile(), F(1, 4))
        monkeypatch.setattr(verifier, "_WORK_LIMIT", 6)
        rng = outcome_range(Mechanism("cc"), self.ranking_profile(), F(1, 4))
        assert rng.reachable == {"r", "a"}


def direct_outcome_range(mechanism, profile, gamma):
    """Literal voter-level evaluation of the outcome-range definition, as an
    independent cross-check of the count-multiset enumeration: pick the kept
    voters one by one, then every ballot tuple for the newcomers (every
    ranking when the profile's ballots are rankings)."""
    import itertools

    from realityvote.rules import Tally, evaluate_tally

    honest = [
        b
        for c, b in profile.voters
        if c is not VoterClass.SYBIL
        and not (
            c is VoterClass.HONEST_PASSIVE and mechanism.participation == "active"
        )
    ]
    sybils = [b for c, b in profile.voters if c is VoterClass.SYBIL]
    alternatives = profile.domain.alternative_list()
    if any(isinstance(b, tuple) for _, b in profile.voters) and (
        profile.domain.kind == "categorical"
    ):
        alternatives = list(itertools.permutations(profile.domain.alternatives))
    budget = int(F(gamma) * len(honest))
    outcomes = set()
    h = len(honest)
    for x in range(min(budget, h) + 1):
        for removed in itertools.combinations(range(h), x):
            kept = [b for i, b in enumerate(honest) if i not in removed]
            for y in range(x, budget + 1):
                for newcomers in itertools.product(alternatives, repeat=y):
                    ballots = kept + list(newcomers) + sybils
                    counts = {}
                    for b in ballots:
                        counts[b] = counts.get(b, 0) + 1
                    tally = Tally(counts=counts, q=mechanism.re_tau * len(ballots))
                    outcomes.add(evaluate_tally(mechanism, tally, profile.domain))
    return frozenset(outcomes)


def direct_is_live(mechanism, shape, target, beta, domain):
    """Voter-level liveness: every honest voter on r (an r-first ranking
    for Condorcet rules, as in is_live), every sybil ballot multiset, and
    every modification within budget (via direct_outcome_range)."""
    import itertools

    n, sigma, mu = shape
    s, hm = int(sigma * n), int(mu * n)
    r = domain.r
    ballots = list(domain.alternative_list())
    r_ballot = r
    if mechanism.base in ("cc", "scc"):
        ballots = list(itertools.permutations(domain.alternatives))
        r_ballot = tuple([r] + [a for a in domain.alternative_list() if a != r])
    honest = [(ACTIVE, r_ballot)] * (n - s - hm) + [(PASSIVE, r_ballot)] * hm
    return all(
        target
        in direct_outcome_range(
            mechanism,
            build_profile(domain, honest + [(SYBIL, b) for b in sybils]),
            beta,
        )
        for sybils in itertools.combinations_with_replacement(ballots, s)
    )


class TestAgainstDirectEnumeration:
    def test_binary_ranges_match_voter_level_definition(self):
        rng = random.Random(41)
        for _ in range(120):
            n = rng.randint(1, 4)
            voters = [(ACTIVE, rng.choice("rp"))]
            for _ in range(n - 1):
                voters.append((rng.choice([ACTIVE, PASSIVE, SYBIL]), rng.choice("rp")))
            prof = build_profile(DomainSpec.binary(), voters)
            tau = rng.choice([F(0), F(1, 4), F(1, 2)])
            mech = rng.choice([
                Mechanism("mj", re_tau=tau, participation="active"),
                Mechanism("smj", base_tau=F(1, 5), re_tau=tau, participation="active"),
                Mechanism("smj", base_tau=F(2, 5), re_tau=tau),
            ])
            gamma = rng.choice([F(0), F(1, 2), F(1), F(3, 2)])
            assert outcome_range(mech, prof, gamma).reachable == direct_outcome_range(
                mech, prof, gamma
            )

    def test_categorical_ranges_match_voter_level_definition(self):
        domain = DomainSpec.categorical(["r", "a", "b"], "r")
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(1, 4)
            voters = [(ACTIVE, rng.choice(["r", "a", "b"]))]
            for _ in range(n - 1):
                voters.append(
                    (rng.choice([ACTIVE, SYBIL]), rng.choice(["r", "a", "b"]))
                )
            prof = build_profile(domain, voters)
            tau = rng.choice([F(0), F(1, 3)])
            mech = rng.choice([
                Mechanism("pl", re_tau=tau),
                Mechanism("smj", base_tau=rng.choice([F(0), F(1, 5)]), re_tau=tau),
            ])
            gamma = rng.choice([F(0), F(1, 2), F(1)])
            assert outcome_range(mech, prof, gamma).reachable == direct_outcome_range(
                mech, prof, gamma
            )

    def test_ranking_ranges_match_voter_level_definition(self):
        # Condorcet rules: additions go on one target-first ranking, or on
        # every r-first ranking when the target is the status quo.
        import itertools

        domain = DomainSpec.categorical(["r", "a", "b"], "r")
        rankings = list(itertools.permutations(["r", "a", "b"]))
        rng = random.Random(44)
        for _ in range(60):
            n = rng.randint(1, 4)
            voters = [(ACTIVE, rng.choice(rankings))]
            for _ in range(n - 1):
                voters.append((rng.choice([ACTIVE, PASSIVE, SYBIL]), rng.choice(rankings)))
            prof = build_profile(domain, voters)
            tau = rng.choice([F(0), F(1, 4), F(1, 2), F(1)])
            mode = rng.choice(["full", "active"])
            mech = rng.choice([
                Mechanism("cc", re_tau=tau, participation=mode),
                Mechanism("scc", base_tau=F(1, 5), re_tau=tau, participation=mode),
            ])
            gamma = rng.choice([F(0), F(1, 4), F(1, 2)] + [F(1)] * (n < 4))
            assert outcome_range(mech, prof, gamma).reachable == direct_outcome_range(
                mech, prof, gamma
            ), (mech, prof.voters, gamma)

    def test_status_quo_needs_every_r_first_ranking(self, monkeypatch):
        # r is reachable only by adding r>b>a, which holds back the
        # challenger a; with r>a>b as the only support ballot it is not.
        from realityvote import verifier

        domain = DomainSpec.categorical(["r", "a", "b"], "r")
        honest = ["a>r>b", "a>r>b", "a>b>r", "b>a>r", "a>b>r", "r>b>a"]
        prof = build_profile(domain, [(ACTIVE, tuple(b.split(">"))) for b in honest])
        mech = Mechanism("cc", re_tau=F(1, 4))
        reachable = outcome_range(mech, prof, F(1, 4)).reachable
        assert reachable == direct_outcome_range(mech, prof, F(1, 4)) == {"a", "r"}
        monkeypatch.setattr(
            verifier, "_support_ballots", lambda domain, ranked, target: (
                (target, *[a for a in ("r", "a", "b") if a != target]),
            )
        )
        assert outcome_range(mech, prof, F(1, 4)).reachable == {"a"}

    def test_hypercube_ranges_match_voter_level_definition(self):
        cube = DomainSpec.hypercube(2, (0, 0))
        points = list(cube.alternative_list())
        rng = random.Random(45)
        for _ in range(60):
            n = rng.randint(1, 4)
            voters = [(ACTIVE, rng.choice(points))]
            for _ in range(n - 1):
                voters.append((rng.choice([ACTIVE, PASSIVE, SYBIL]), rng.choice(points)))
            prof = build_profile(cube, voters)
            tau = rng.choice([F(0), F(1, 4), F(1, 2)])
            mech = Mechanism("imj", re_tau=tau, participation=rng.choice(["full", "active"]))
            gamma = rng.choice([F(0), F(1, 2), F(1), F(3, 2)])
            assert outcome_range(mech, prof, gamma).reachable == direct_outcome_range(
                mech, prof, gamma
            )

    def test_liveness_matches_voter_level_definition(self):
        binary = DomainSpec.binary()
        three = DomainSpec.categorical(["r", "a", "b"], "r")
        cases = [
            (Mechanism("mj", participation="active"), binary, "p", 4),
            (Mechanism("mj", re_tau=F(1, 4)), binary, "p", 4),
            (Mechanism("smj", base_tau=F(2, 5), participation="active"), binary, "p", 4),
            (Mechanism("smj", base_tau=F(2, 5)), binary, "p", 4),
            (Mechanism("cc", participation="active"), three, "a", 2),
            (Mechanism("cc", re_tau=F(1, 4)), three, "a", 2),
            (Mechanism("cc"), three, "r", 1),
        ]
        for mech, domain, target, max_budget in cases:
            for n in range(1, 6):
                for s in range(0, n):
                    for hm in range(0, n - s):
                        hp = n - s - hm
                        if hp < 1 or (domain is three and s > 2):
                            continue
                        shape = (n, F(s, n), F(hm, n))
                        visible = hp if mech.participation == "active" else hp + hm
                        for b in range(max_budget + 1):
                            beta = F(b, visible)
                            assert is_live(mech, shape, target, beta, domain) == (
                                direct_is_live(mech, shape, target, beta, domain)
                            ), (mech, shape, target, beta)

    def test_interval_liveness_two_sybil_placements_suffice(self):
        # is_live parks every sybil far below or far above r; sybils spread
        # over a probe grid never block a target those two let through.
        import itertools

        line = DomainSpec.interval(0)
        grid = [F(k) for k in range(-6, 7)] + [F(-1, 2), F(1, 2)]
        mechanisms = [
            Mechanism("md", participation="active"),
            Mechanism("md", re_tau=F(1, 4)),
            Mechanism("som", base_tau=F(1, 4), re_tau=F(1, 2), participation="active"),
        ]
        for mech in mechanisms:
            for n in range(1, 5):
                for s in range(0, n):
                    for hm in range(0, n - s):
                        hp = n - s - hm
                        if hp < 1:
                            continue
                        shape = (n, F(s, n), F(hm, n))
                        honest = [(ACTIVE, 0)] * hp + [(PASSIVE, 0)] * hm
                        visible = hp if mech.participation == "active" else hp + hm
                        for target in (F(-3), F(0), F(1, 2), F(2), F(5)):
                            for b in range(4):
                                beta = F(b, visible)
                                probed = all(
                                    outcome_range(
                                        mech,
                                        build_profile(
                                            line, honest + [(SYBIL, x) for x in sybils]
                                        ),
                                        beta,
                                    ).contains(target)
                                    for sybils in itertools.combinations_with_replacement(
                                        grid, s
                                    )
                                )
                                assert is_live(mech, shape, target, beta, line) == probed, (
                                    mech, shape, target, beta
                                )

    def test_interval_hull_matches_probed_mover_placements(self):
        # Place the movers on a fine probe grid (which the hull construction
        # never sees) and confirm every achieved median falls inside the
        # hull and both endpoints are achieved.
        import itertools

        from realityvote.rules import Tally, evaluate_tally

        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(1, 4)
            r = F(rng.randint(-2, 2))
            voters = [(ACTIVE, F(rng.randint(-6, 6)))]
            for _ in range(n - 1):
                voters.append(
                    (rng.choice([ACTIVE, SYBIL]), F(rng.randint(-6, 6)))
                )
            prof = build_profile(DomainSpec.interval(r), voters)
            tau = rng.choice([F(0), F(1, 2)])
            mech = Mechanism("md", re_tau=tau, participation="active")
            budget = rng.randint(0, 2)
            hull = outcome_range(mech, prof, F(budget, max(1, prof.n_honest)))

            honest = [
                b for c, b in prof.voters if c is not VoterClass.SYBIL
            ]
            sybils = [b for c, b in prof.voters if c is VoterClass.SYBIL]
            probe = [F(k, 2) for k in range(-40, 41)]
            achieved = set()
            h = len(honest)
            for x in range(min(budget, h) + 1):
                for removed in itertools.combinations(range(h), x):
                    kept = [b for i, b in enumerate(honest) if i not in removed]
                    for y in range(x, budget + 1):
                        for newcomers in itertools.product(probe, repeat=y):
                            ballots = kept + list(newcomers) + sybils
                            counts = {}
                            for b in ballots:
                                counts[b] = counts.get(b, 0) + 1
                            tally = Tally(counts=counts, q=mech.re_tau * len(ballots))
                            achieved.add(evaluate_tally(mech, tally, prof.domain))
            assert all(hull.contains(v) for v in achieved)
            if hull.lo is not None and abs(hull.lo) <= 20:
                assert hull.lo in achieved
            if hull.hi is not None and abs(hull.hi) <= 20:
                assert hull.hi in achieved
            # the reachable set is convex: every probe point inside the
            # hull is actually achieved
            for t in probe:
                if budget > 0 and hull.contains(t):
                    assert t in achieved, (prof.voters, tau, budget, t)
