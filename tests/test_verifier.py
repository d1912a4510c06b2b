import collections
import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    rules,
    smallest_live_beta,
    tightness_witness,
    verifier,
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
from realityvote.population import Profile, VoterClass
from realityvote.verifier import (
    AdversarialWitness,
    _binary_outcome,
    _binary_profile,
    _least_safe_alpha,
    honest_only,
)

from conftest import ACTIVE, PASSIVE, SYBIL, binary_profile, interval_profile, profiles

F = Fraction
MJ = Mechanism("mj")
MJ_ACTIVE = Mechanism("mj", participation="active")
_THREE = DomainSpec.categorical(["r", "a", "b"], "r")


class TestOutcomeRange:
    def test_budget_of_one_flips_majority(self):
        prof = binary_profile(active="rrp")
        rng = outcome_range(MJ, prof, F(1, 3))
        assert rng.reachable == frozenset({"r", "p"})

    def test_zero_budget_is_singleton(self):
        prof = binary_profile(active="rrp", sybil="pp")
        rng = outcome_range(MJ, prof, 0)
        assert rng.reachable == frozenset({apply(MJ, prof)})

    def test_full_participation_needs_every_passive_ballot(self):
        prof = build_profile(DomainSpec.interval(0), [(ACTIVE, F(1)), (PASSIVE, None)])
        with pytest.raises(MissingPrivateBallots, match="modifiable honest voters need ballots"):
            outcome_range(Mechanism("md"), prof, 1)

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

    @given(profiles())
    def test_honest_only_keeps_the_table_of_its_voters(self, prof):
        assume(prof.has_full_honest_ballots())
        honest = honest_only(prof)
        recount = Profile(domain=prof.domain, voters=honest.voters).counts
        assert [list(row.items()) for row in honest.counts.values()] == [
            list(row.items()) for row in recount.values()
        ]
        assert list(honest.counts) == list(recount) and honest.counts[SYBIL] == {}


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

    @pytest.mark.parametrize(
        "base, domain, target",
        [("mj", DomainSpec.binary(), "p"), ("md", DomainSpec.interval(0), F(7))],
        ids=["binary", "line"],
    )
    def test_proxy_mechanisms_are_refused(self, base, domain, target):
        # A proxy outcome reads voter order, which the worst-case counts do
        # not carry: liveness refuses it as outcome_range does, before any
        # search, rather than answering for full participation.
        mechanism = Mechanism(base, re_tau=F(1, 5), participation="proxy")
        shape = (10, F(1, 5), F(1, 5))
        with pytest.raises(MechanismMismatch, match="not enumerable"):
            smallest_live_beta(mechanism, shape, target, domain)
        with pytest.raises(MechanismMismatch, match="not enumerable"):
            is_live(mechanism, shape, target, 1, domain)


# min_alpha's differential test: the mechanisms walked and the bases asked.
_WALK_MECHANISMS = [
    *(Mechanism("mj", re_tau=tau, participation=mode)
      for mode in ("full", "active") for tau in (F(0), F(1, 4), F(1, 2), F(1))),
    *(Mechanism("smj", base_tau=tau, participation=mode)
      for mode in ("full", "active") for tau in (F(0), F(1, 5), F(2, 5))),
]
_WALK_BASES = [MJ, MJ_ACTIVE, Mechanism("smj", base_tau=F(1, 4))]


def walk_every_population(mechanism, base, n, s, hm):
    """min_alpha as a plain walk: every (k, j, s_p) population's outcome,
    from its count table through rules.build_tally, and base-side answer,
    with no memo and no skip."""
    domain = DomainSpec.binary()
    hp, h = n - s - hm, n - s
    worst = F(0)
    for k, j, s_p in itertools.product(range(hp + 1), range(hm + 1), range(s + 1)):
        counts = _binary_profile(domain, k, hp, j, hm, s_p, s).counts
        z = rules.evaluate_tally(mechanism, rules.build_tally(mechanism, counts), domain)
        honest, _ = verifier._split(base, {**counts, SYBIL: {}})
        worst = max(worst, F(_least_safe_alpha(base, domain, z, honest, h), h))
    return worst


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
        for n in range(1, 15):
            for s in range(0, n):
                for hm in range(0, n - s):
                    hp = n - s - hm
                    if hp < 1:
                        continue
                    for tau in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
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

    @pytest.mark.parametrize(
        "mech, base",
        [
            pytest.param(
                mech, base, id=mech.describe() + ("" if base == MJ else f" base:{base.describe()}")
            )
            for base in (
                MJ, Mechanism("mj", participation="active"), Mechanism("smj", base_tau=F(1, 4))
            )
            for mech in (
                *(Mechanism("mj", re_tau=tau, participation="active")
                  for tau in (F(0), F(1, 4), F(1, 2), F(1))),
                MJ,
                Mechanism("smj", base_tau=F(1, 4)),
                Mechanism("smj", base_tau=F(1, 4), participation="active"),
            )
        ],
    )
    def test_count_tables_match_voter_lists(self, mech, base):
        # min_alpha walks count tables and asks the base side once per
        # outcome and visible honest counts; the worst case over the same
        # populations built as voter lists must agree, count for count,
        # under every base participation (an active-only base sees k alone).
        for n in range(1, 7):
            for s in range(n):
                for hm in range(n - s):
                    hp = n - s - hm
                    worst = F(0)
                    for k, j, s_p in itertools.product(
                        range(hp + 1), range(hm + 1), range(s + 1)
                    ):
                        prof = binary_profile(
                            active="p" * k + "r" * (hp - k),
                            passive="p" * j + "r" * (hm - j),
                            sybil="p" * s_p + "r" * (s - s_p),
                        )
                        counts = _binary_profile(prof.domain, k, hp, j, hm, s_p, s).counts
                        assert counts == prof.counts
                        worst = max(worst, min_alpha_for_profile(mech, base, prof))
                    assert min_alpha(mech, base, (n, F(s, n), F(hm, n))) == worst, (n, s, hm)

    @pytest.mark.parametrize("base", _WALK_BASES, ids=Mechanism.describe)
    def test_base_side_is_asked_once_per_distinct_question(self, base, monkeypatch):
        # The least-safe-alpha core runs once for each distinct honest
        # proposal count the base sees (an active-only base sees the k
        # actives, a full one k + j) among the populations electing p, and
        # never for a status-quo outcome: the test asks those itself, and
        # each answers 0.
        def seen(k, j):
            return k if base.participation == "active" else k + j

        asked = []

        def spy(base_, domain, z, honest, h):  # honest: the base-visible ballot counts
            asked.append((z, honest.get("p", 0)))
            return _least_safe_alpha(base_, domain, z, honest, h)

        monkeypatch.setattr(verifier, "_least_safe_alpha", spy)
        mech = Mechanism("mj", re_tau=F(1, 4), participation="active")
        hp, hm, s = 3, 3, 2
        questions = {}
        for k, j, s_p in itertools.product(range(hp + 1), range(hm + 1), range(s + 1)):
            prof = binary_profile(
                active="p" * k + "r" * (hp - k),
                passive="p" * j + "r" * (hm - j),
                sybil="p" * s_p + "r" * (s - s_p),
            )
            questions[apply(mech, prof), seen(k, j)] = honest_only(prof)
        min_alpha(mech, base, (8, F(s, 8), F(hm, 8)))
        assert sorted(asked) == sorted(q for q in questions if q[0] == "p")
        skipped = [prof for (z, _), prof in questions.items() if z == "r"]
        assert skipped
        for prof in skipped:
            honest, _ = verifier._split(base, prof.counts)
            assert _least_safe_alpha(base, prof.domain, "r", honest, prof.n_honest) == 0

    @pytest.mark.parametrize(
        "mech, base",
        [
            pytest.param(mech, base, id=f"{mech.describe()} base:{base.describe()}")
            for base in _WALK_BASES
            for mech in _WALK_MECHANISMS
        ],
    )
    def test_walk_matches_every_population(self, mech, base, monkeypatch):
        # min_alpha evaluates one outcome per visible proposal count, keys
        # the base side on the base-visible honest proposal count and skips
        # it for status-quo outcomes; the plain walk over every population
        # must agree on every shape with n <= 8, and the outcome is evaluated
        # at most n + 1 times per shape (one per visible count).
        calls = []

        def spy(mechanism, domain, proposal_count, electorate):
            calls.append((proposal_count, electorate))
            return _binary_outcome(mechanism, domain, proposal_count, electorate)

        monkeypatch.setattr(verifier, "_binary_outcome", spy)
        for n in range(1, 9):
            for s in range(n):
                for hm in range(n - s):
                    calls.clear()
                    got = min_alpha(mech, base, (n, F(s, n), F(hm, n)))
                    assert len(calls) <= n + 1, (n, s, hm)
                    assert got == walk_every_population(mech, base, n, s, hm), (n, s, hm)

    @pytest.mark.parametrize(
        "base", [Mechanism("mj", participation="proxy"), Mechanism("md"), Mechanism("pl")],
        ids=Mechanism.describe,
    )
    def test_base_is_checked_when_no_outcome_asks_it(self, base):
        # Every population of the shape keeps r under this mechanism, so the
        # walk never reaches the base side; a base that cannot run on a
        # binary count table is still a mismatch.
        blocked = Mechanism("mj", re_tau=F(10), participation="active")
        with pytest.raises(MechanismMismatch):
            min_alpha(blocked, base, (5, F(2, 5), F(1, 5)))

    @pytest.mark.parametrize("tau", [F(0), F(10)], ids=["tau 0", "every outcome r"])
    @pytest.mark.parametrize(
        "mech, base, message",
        [
            pytest.param(Mechanism("pl", participation="proxy"),
                         Mechanism("md", participation="proxy"), "not enumerable", id="proxy base"),
            pytest.param(Mechanism("mj", participation="active"),
                         Mechanism("mj", participation="proxy"), "not enumerable",
                         id="proxy base, valid mechanism"),
            pytest.param(Mechanism("mj", participation="proxy"), Mechanism("pl"),
                         "rule 'pl' does not apply", id="base rule off the domain"),
            pytest.param(Mechanism("md", participation="proxy"), MJ,
                         "rule 'md' does not apply", id="proxy mechanism, off the domain"),
            pytest.param(Mechanism("mj", participation="proxy"), MJ,
                         "median-on-interval only", id="proxy mechanism"),
            pytest.param(Mechanism("pl", participation="active"), MJ,
                         "rule 'pl' does not apply", id="mechanism rule off the domain"),
        ],
    )
    def test_mismatches_are_reported_in_order(self, mech, base, message, tau):
        # The base is checked first (a proxy base before its rule's
        # domain), then the mechanism (its rule's domain before proxy
        # participation, as eval checks it), whether or not any outcome
        # asks the base side:
        # at re_tau 10 under active participation every outcome is r.
        with pytest.raises(MechanismMismatch, match=message):
            min_alpha(dataclasses.replace(mech, re_tau=tau), base, (5, F(2, 5), F(1, 5)))

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


# One domain of each kind with its ballots and the base rules that run on it.
_SAFETY_DOMAINS = [
    (DomainSpec.binary(), ["r", "p"], ["mj", "smj"]),
    (_THREE, ["r", "a", "b"], ["pl", "smj"]),
    (_THREE, list(itertools.permutations(["r", "a", "b"])), ["cc", "scc"]),
    (DomainSpec.hypercube(2, (0, 1)), [(0, 0), (0, 1), (1, 0), (1, 1)], ["imj"]),
    (DomainSpec.interval(1), [F(k, 2) for k in range(-4, 5)], ["md", "som"]),
]


@st.composite
def safety_instances(draw, domain, ballots, rule_names):
    """A profile whose passive voters carry private ballots, a mechanism and
    a base mechanism, each in full or active mode."""
    ballot = st.sampled_from(ballots)
    voters = [(ACTIVE, draw(ballot))] + draw(
        st.lists(st.tuples(st.sampled_from([ACTIVE, PASSIVE, SYBIL]), ballot), max_size=5)
    )

    def mechanism(re_taus):
        rule = draw(st.sampled_from(rule_names))
        threshold = F(0)
        if rule in rules.THRESHOLD_RULES:
            threshold = draw(st.sampled_from([F(0), F(1, 5), F(2, 5)]))
        return Mechanism(
            rule,
            base_tau=threshold,
            re_tau=draw(st.sampled_from(re_taus)),
            participation=draw(st.sampled_from(["full", "active"])),
        )

    return (
        mechanism([F(0), F(1, 4), F(1, 2), F(1)]),
        mechanism([F(0), F(1, 4)]),
        build_profile(domain, voters),
    )


def per_alpha_min_alpha(mechanism, base, profile):
    """The definition read literally: is_safe at alpha = m/h for m = 0..h."""
    h = profile.n_honest
    for movers in range(h + 1):
        if is_safe(mechanism, base, profile, F(movers, h)):
            return F(movers, h)
    raise BudgetExceeded("not safe at alpha = 1")


class TestMinAlphaForProfile:
    @pytest.mark.parametrize(
        "domain, ballots, rule_names",
        _SAFETY_DOMAINS,
        ids=["binary", "categorical", "rankings", "2-cube", "interval"],
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_per_alpha_loop(self, domain, ballots, rule_names, data):
        mech, base, prof = data.draw(safety_instances(domain, ballots, rule_names))
        try:
            expected = per_alpha_min_alpha(mech, base, prof)
        except BudgetExceeded:
            with pytest.raises(BudgetExceeded):
                min_alpha_for_profile(mech, base, prof)
        else:
            assert min_alpha_for_profile(mech, base, prof) == expected

    def test_budget_is_granted_on_the_honest_grid(self):
        # The base rule sees the two actives of three honest voters; its one
        # addition is first granted at alpha = 2/3, since int(1/3 * 2) = 0.
        prof = binary_profile(active="rp", passive="r", sybil="p")
        assert per_alpha_min_alpha(MJ_ACTIVE, MJ_ACTIVE, prof) == F(2, 3)
        assert min_alpha_for_profile(MJ_ACTIVE, MJ_ACTIVE, prof) == F(2, 3)

    def test_hypercube_target_beyond_the_outcome(self):
        # z = (1, 0) lies in box(r, (1, 1)); one replacement reaches (1, 1),
        # while z itself takes two.
        cube = DomainSpec.hypercube(2, (0, 0))
        prof = build_profile(
            cube,
            [(ACTIVE, (1, 1)), (PASSIVE, (0, 1)), (PASSIVE, (0, 1)), (SYBIL, (1, 0))],
        )
        imj_active, imj = Mechanism("imj", participation="active"), Mechanism("imj")
        assert apply(imj_active, prof) == (1, 0)
        assert per_alpha_min_alpha(imj_active, imj, prof) == F(1, 3)
        assert min_alpha_for_profile(imj_active, imj, prof) == F(1, 3)


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

    @pytest.mark.parametrize(
        "construction, sigma, mu, error, message",
        [
            ("bogus", None, None, RegimeMismatch, "no construction implemented for 'bogus'"),
            ("indistinguishable-pair", F(1, 2), F(1, 2), DegenerateParams,
             r"sigma \+ mu must stay"),
            ("random-indistinguishable-pair", F(1, 2), F(1, 2), DegenerateParams,
             r"sigma \+ mu must stay"),
            ("random-indistinguishable-pair", F(1, 10), F(1, 10), RegimeMismatch,
             r"needs 3\*sigma \+ mu >= 1"),
        ],
    )
    def test_construction_outside_its_regime(self, construction, sigma, mu, error, message):
        params = {} if sigma is None else {"sigma": sigma, "mu": mu}
        with pytest.raises(error, match=message):
            tightness_witness(construction, **params)

    def test_unknown_construction_does_not_replay(self):
        with pytest.raises(RegimeMismatch, match="cannot replay 'bogus'"):
            replay_witness(AdversarialWitness(construction="bogus", violated="nothing"))

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


# Binary mechanisms for the int-path differential tests.
_BINARY_MECHANISMS = [
    Mechanism(base, base_tau=base_tau, re_tau=tau, participation=mode)
    for base, base_tau in (("mj", F(0)), ("smj", F(1, 5)))
    for mode in ("full", "active")
    for tau in (F(0), F(1, 4), F(2, 3), F(3))
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    mech=st.sampled_from(_BINARY_MECHANISMS),
    sizes=st.tuples(st.integers(1, 40), st.integers(0, 40), st.integers(0, 40)),
    data=st.data(),
)
def test_int_tally_matches_count_table_tally(mech, sizes, data):
    # min_alpha and run_safety_whp build a binary tally from two ints, the
    # visible proposal count and the visible electorate; it must be the
    # tally rules.build_tally sums from the population's count table, with
    # the same outcome.
    hp, hm, s = sizes
    k, j, s_p = (data.draw(st.integers(0, size)) for size in sizes)
    domain = DomainSpec.binary()
    table = rules.build_tally(mech, _binary_profile(domain, k, hp, j, hm, s_p, s).counts)
    if mech.participation == "full":
        seen, electorate = k + j + s_p, hp + hm + s
    else:
        seen, electorate = k + s_p, hp + s
    ballots = verifier._binary_ballots(domain, seen, electorate)
    tally = rules._cast_tally(mech, ballots, electorate)
    assert tally == table
    assert (tally.counts, tally.q, tally.unit) == (table.counts, table.q, table.unit)
    want = rules.evaluate_tally(mech, table, domain)
    assert _binary_outcome(mech, domain, seen, electorate) == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    mech=st.sampled_from(_BINARY_MECHANISMS),
    base=st.sampled_from(_WALK_BASES),
    active=st.text("rp", min_size=1, max_size=40),
    passive=st.text("rp", max_size=40),
    sybil=st.text("rp", max_size=40),
)
def test_profile_answer_matches_int_base_side(mech, base, active, passive, sybil):
    # min_alpha asks the base side with the base-visible honest counts
    # {p: key, r: v - key} and wraps the int over h; min_alpha_for_profile
    # splits the profile's count table instead, and must agree.
    prof = binary_profile(active=active, passive=passive, sybil=sybil)
    k, j = active.count("p"), passive.count("p")
    if base.participation == "full":
        key, visible = k + j, len(active) + len(passive)
    else:
        key, visible = k, len(active)
    honest = {b: c for b, c in (("p", key), ("r", visible - key)) if c}
    h = len(active) + len(passive)
    z = apply(mech, prof)
    want = F(_least_safe_alpha(base, prof.domain, z, honest, h), h)
    assert min_alpha_for_profile(mech, base, prof) == want


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
        # without removals and 3 with one, and the limit counts tallies.
        # The honest voter on b's support ballot b>r>a is never removed
        # (re-adding them repeats a tally), but the refusal still counts
        # every honest ballot type.
        from realityvote import verifier

        monkeypatch.setattr(verifier, "_WORK_LIMIT", 4)
        with pytest.raises(BudgetExceeded, match="4 honest ballot types, 1 support ballots"):
            outcome_range(Mechanism("cc"), self.ranking_profile(), F(1, 4))
        monkeypatch.setattr(verifier, "_WORK_LIMIT", 5)
        rng = outcome_range(Mechanism("cc"), self.ranking_profile(), F(1, 4))
        assert rng.reachable == {"r", "a"}

    def test_search_never_repeats_a_tally(self, monkeypatch):
        # The random-participation template at alpha' = 1/100 (budget 12):
        # r is the outcome at once; p is unreachable, and since no p voter
        # is ever removed its search evaluates y + 1 tallies at budget y,
        # 91 over budgets 0..12, not the 455 of every removal split.
        rule, kinds = rules._RULES["mj"]
        tallies = []
        monkeypatch.setitem(rules._RULES, "mj", (
            lambda *args: tallies.append(args[1]) or rule(*args), kinds))
        prof = binary_profile(active="p" * 624 + "r" * 656)
        assert outcome_range(MJ, prof, F(1, 100)).reachable == {"r"}
        assert len(tallies) == 1 + 91
        assert len({tuple(sorted(t.counts.items())) for t in tallies[1:]}) == 91


# TestTallySequence's searches: (mechanism, domain, honest counts, sybil
# counts, target, its support ballots, cap), and the tallies evaluated and
# the least cost found, so each pin covers several budgets.
_CUBE = DomainSpec.hypercube(3, (0, 0, 0))
SEQUENCE_SEARCHES = {
    # criterion 9's honest voters at alpha = 16/60: three removable types
    "imj hypercube": ((Mechanism("imj"), _CUBE, {(0, 0, 1): 20, (0, 1, 0): 20, (1, 0, 0): 20},
                       {}, (1, 1, 1), [(1, 1, 1)], 16), (4632, 16)),
    # three honest types; a's own voters are never removed
    "pl categorical": ((Mechanism("pl", re_tau=F(1, 3)), _THREE, {"r": 2, "a": 1, "b": 3},
                        {"b": 1}, "a", ["a"], 5), (14, 3)),
    # the status quo under rankings: several support ballots, every type removable
    "cc r-target": ((Mechanism("cc", re_tau=F(1, 5)), _THREE,
                     {("a", "r", "b"): 3, ("a", "b", "r"): 3, ("b", "a", "r"): 1},
                     {("a", "b", "r"): 2}, "r", [("r", "a", "b"), ("r", "b", "a")], 5), (146, 4)),
}


class TestTallySequence:
    """_least_cost evaluates the same tallies in the same order whether it
    keeps its removal levels or rebuilds them at every budget."""

    @staticmethod
    def reference(mechanism, domain, honest, sybils, target, support, cap):
        """Every tally (counts, q, unit) up to the first electing one:
        budget-major, then x = 0..y removals, each x's removals in
        lexicographic order over the removable types sorted by repr, then
        each split of the y additions over the support ballots.  The honest
        voters on a lone support ballot are never removed."""
        stay = support[0] if len(support) == 1 else None
        types = sorted((t for t in honest if t != stay), key=repr)
        removals = sorted(itertools.product(*(range(honest[t] + 1) for t in types)), key=sum)
        fixed = collections.Counter(sybils) + collections.Counter({stay: honest.get(stay, 0)})
        tau, seen = mechanism.re_tau, []
        for y in range(cap + 1):
            spreads = [c for c in itertools.product(range(y + 1), repeat=len(support)) if sum(c) == y]
            for removal in (r for r in removals if sum(r) <= y):
                for spread in spreads:
                    counts = fixed + collections.Counter(
                        {t: honest[t] - k for t, k in zip(types, removal)})
                    counts = dict(counts + collections.Counter(dict(zip(support, spread))))
                    q = tau.numerator * sum(counts.values())
                    seen.append((counts, q, tau.denominator))
                    if rules.evaluate_tally(mechanism, rules.Tally(counts, q, tau.denominator),
                                            domain) == target:
                        return seen, y
        return seen, None

    @pytest.mark.parametrize("limit", [None, 1, 0], ids=["kept", "limit 1", "limit 0"])
    @pytest.mark.parametrize("case", SEQUENCE_SEARCHES)
    def test_same_tallies_in_the_same_order(self, case, limit, monkeypatch):
        search, walk = SEQUENCE_SEARCHES[case]
        mechanism, domain, honest, sybils, target, support, cap = search
        want, want_cost = self.reference(*search)
        assert (len(want), want_cost) == walk
        if limit is not None:
            monkeypatch.setattr(verifier, "_LEVEL_LIMIT", limit)
        limit = verifier._LEVEL_LIMIT
        rule, kinds = rules._RULES[mechanism.base]
        tallies, built = [], []
        monkeypatch.setitem(rules._RULES, mechanism.base, (
            lambda *args: tallies.append((dict(args[1].counts), args[1].q, args[1].unit))
            or rule(*args), kinds))
        real_level = verifier._removal_level

        def spy(fixed, types, bounds, x, levels, room):
            built.append(x)
            yield from real_level(fixed, types, bounds, x, levels, room)
            assert sum(map(len, levels.values())) <= limit

        monkeypatch.setattr(verifier, "_removal_level", spy)
        cost = verifier._least_cost(mechanism, domain, honest, sybils, target, cap)
        assert cost == want_cost
        assert tallies == want
        # kept: each level is built once; at limit 0 every budget rebuilds
        # every level it reaches.
        if limit > 1:
            assert built == list(range(len(built)))
        if limit == 0:
            h = sum(k for t, k in honest.items() if len(support) > 1 or t != support[0])
            every = [x for y in range(cap + 1) for x in range(min(y, h) + 1)]
            assert built == every[:len(built)] and built.count(0) == (cap if cost is None else cost) + 1


# (mechanism, domain, target, largest budget checked) for finite liveness.
FINITE_LIVENESS_CASES = [
    (Mechanism("mj", participation="active"), DomainSpec.binary(), "p", 4),
    (Mechanism("mj", re_tau=F(1, 4)), DomainSpec.binary(), "p", 4),
    (Mechanism("smj", base_tau=F(2, 5), participation="active"), DomainSpec.binary(), "p", 4),
    (Mechanism("smj", base_tau=F(2, 5)), DomainSpec.binary(), "p", 4),
    (Mechanism("cc", participation="active"), _THREE, "a", 2),
    (Mechanism("cc", re_tau=F(1, 4)), _THREE, "a", 2),
    (Mechanism("cc"), _THREE, "r", 1),
]
INTERVAL_LIVENESS_MECHANISMS = [
    Mechanism("md", participation="active"),
    Mechanism("md", re_tau=F(1, 4)),
    Mechanism("som", base_tau=F(1, 4), re_tau=F(1, 2), participation="active"),
    Mechanism("md", re_tau=F(3, 2), participation="active"),  # a mover adds more than itself at r
]
INTERVAL_LIVENESS_TARGETS = (F(-3), F(0), F(1, 2), F(2), F(5))


def liveness_shapes(mechanism, domain, max_n):
    """(shape, (actives, passives, sybils), visible honest count) for every
    shape up to max_n voters; at most two sybils on a categorical domain."""
    for n in range(1, max_n + 1):
        for s in range(n):
            if domain.kind == "categorical" and s > 2:
                continue
            for hm in range(n - s):
                hp = n - s - hm
                visible = hp if mechanism.participation == "active" else hp + hm
                yield (n, F(s, n), F(hm, n)), (hp, hm, s), visible


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

    @pytest.mark.parametrize("domain, ballots, bases, modes, cap, seed", [
        (DomainSpec.binary(), "rp", [("mj", 0), ("smj", F(1, 5))], ["full", "active"], 3, 51),
        (_THREE, "rab", [("pl", 0), ("smj", F(1, 5))], ["full"], 3, 52),
        (DomainSpec.hypercube(2, (0, 0)), None, [("imj", 0)], ["full", "active"], 3, 53),
        (_THREE, "rankings", [("cc", 0), ("scc", F(1, 5))], ["full", "active"], 2, 54),
    ])
    def test_least_cost_matches_voter_level_budgets(self, domain, ballots, bases, modes, cap,
                                                     seed):
        # The first voter casts a target's support ballot: _least_cost never
        # removes them when it is the only one (every target but r under
        # rankings), while the voter-level definition removes anyone.
        if ballots == "rankings":
            ballots = list(itertools.permutations(domain.alternatives))
        ballots = list(ballots or domain.alternative_list())
        targets = list(domain.alternative_list())
        ranked = isinstance(ballots[0], tuple) and domain.kind == "categorical"
        rng = random.Random(seed)
        for _ in range(40):
            target = rng.choice(targets)
            voters = [(ACTIVE, verifier._support_ballots(domain, ranked, target)[0])]
            for _ in range(rng.randint(0, 3)):
                voters.append((rng.choice([ACTIVE, PASSIVE, SYBIL]), rng.choice(ballots)))
            prof = build_profile(domain, voters)
            base, base_tau = rng.choice(bases)
            mech = Mechanism(base, base_tau=base_tau, re_tau=rng.choice([F(0), F(1, 4), F(1, 2)]),
                             participation=rng.choice(modes))
            honest, sybils = verifier._split(mech, prof.counts)
            visible = sum(honest.values())
            for t in targets:
                direct = next((b for b in range(cap + 1)
                               if t in direct_outcome_range(mech, prof, F(b, visible))), None)
                assert verifier._least_cost(mech, domain, honest, sybils, t, cap) == direct, (
                    mech, prof.voters, t)

    def test_status_quo_search_removes_from_its_first_support_ballot(self):
        # r has two support rankings, r>a>b and r>b>a.  The one honest r>a>b
        # voter switching to r>b>a leaves a and b 3 to 3, so no challenger
        # beats every other and r wins: cost 1.  A search that kept the
        # r>a>b voters fixed, as it may with one support ballot, needs two
        # additions.
        from realityvote import verifier

        mech = Mechanism("cc", re_tau=F(1, 4), participation="full")
        honest = [("r", "a", "b"), ("b", "a", "r"), ("b", "a", "r")]
        prof = build_profile(_THREE, [(ACTIVE, b) for b in honest] + [(SYBIL, ("a", "r", "b"))] * 3)
        assert apply(mech, prof) == "a"
        honest_counts, sybils = verifier._split(mech, prof.counts)
        assert verifier._least_cost(mech, _THREE, honest_counts, sybils, "r", 3) == 1
        reachable = outcome_range(mech, prof, F(1, 3)).reachable
        assert reachable == direct_outcome_range(mech, prof, F(1, 3)) == {"r", "a"}

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
        for mech, domain, target, max_budget in FINITE_LIVENESS_CASES:
            for shape, _, visible in liveness_shapes(mech, domain, 5):
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
        for mech in INTERVAL_LIVENESS_MECHANISMS:
            for shape, (hp, hm, s), visible in liveness_shapes(mech, line, 4):
                honest = [(ACTIVE, 0)] * hp + [(PASSIVE, 0)] * hm
                for target in INTERVAL_LIVENESS_TARGETS:
                    for b in range(4):
                        beta = F(b, visible)
                        probed = all(
                            outcome_range(
                                mech,
                                build_profile(line, honest + [(SYBIL, x) for x in sybils]),
                                beta,
                            ).contains(target)
                            for sybils in itertools.combinations_with_replacement(grid, s)
                        )
                        assert is_live(mech, shape, target, beta, line) == probed, (
                            mech, shape, target, beta
                        )

    def test_is_live_holds_from_smallest_live_beta_on(self):
        # Both read one liveness cost: is_live(beta) holds exactly when beta
        # is at least smallest_live_beta, on every shape and mechanism above,
        # half units included.
        line = DomainSpec.interval(0)
        cases = list(FINITE_LIVENESS_CASES) + [
            (mech, line, target, 3)
            for mech in INTERVAL_LIVENESS_MECHANISMS
            for target in INTERVAL_LIVENESS_TARGETS
        ]
        for mech, domain, target, max_budget in cases:
            for shape, _, visible in liveness_shapes(mech, domain, 5 if domain is not line else 4):
                try:
                    least = smallest_live_beta(mech, shape, target, domain, max_units=max_budget)
                except BudgetExceeded:
                    least = None
                for k in range(2 * max_budget + 2):
                    beta = F(k, 2 * visible)
                    live = least is not None and beta >= least
                    assert is_live(mech, shape, target, beta, domain) == live, (
                        mech, shape, target, beta, least
                    )

    def test_interval_hull_matches_probed_mover_placements(self):
        # Place the movers on a fine probe grid (which the hull construction
        # never sees) and confirm every achieved median falls inside the
        # hull and both endpoints are achieved.  Each drawn instance is also
        # checked at tau = 3/2, where a mover adds more virtual mass at r
        # than its own weight.
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
            mechs = [
                Mechanism("md", re_tau=tau, participation="active")
                for tau in (rng.choice([F(0), F(1, 2)]), F(3, 2))
            ]
            budget = rng.randint(0, 2)

            honest = [
                b for c, b in prof.voters if c is not VoterClass.SYBIL
            ]
            sybils = [b for c, b in prof.voters if c is VoterClass.SYBIL]
            probe = [F(k, 2) for k in range(-40, 41)]
            achieved = {mech: set() for mech in mechs}
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
                            for mech in mechs:
                                tally = Tally(counts=counts, q=mech.re_tau * len(ballots))
                                achieved[mech].add(evaluate_tally(mech, tally, prof.domain))
            for mech in mechs:
                hull = outcome_range(mech, prof, F(budget, max(1, prof.n_honest)))
                assert all(hull.contains(v) for v in achieved[mech])
                if hull.lo is not None and abs(hull.lo) <= 20:
                    assert hull.lo in achieved[mech]
                if hull.hi is not None and abs(hull.hi) <= 20:
                    assert hull.hi in achieved[mech]
                # the reachable set is convex: every probe point inside the
                # hull is actually achieved
                for t in probe:
                    if budget > 0 and hull.contains(t):
                        assert t in achieved[mech], (prof.voters, mech.re_tau, budget, t)
