import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realityvote import (
    DomainSpec, Mechanism, apply, build_profile, md_proxy, project_to_pair, weighted_median
)
from realityvote.errors import (
    EmptyElectorate,
    MechanismMismatch,
    MissingPrivateBallots,
    NonRankingBallot,
)
from realityvote.rules import (
    BASE_RULES,
    THRESHOLD_RULES,
    build_tally,
    condorcet_conservative,
    evaluate_tally,
    issuewise_majority,
    majority,
    mass_index,
    median,
    plurality,
    suppress_outer_median,
    supermajority,
    Tally,
    tally_ballots,
)

from conftest import ACTIVE, PASSIVE, SYBIL, binary_profile, interval_profile, profiles

BIN = DomainSpec.binary()
CAT = DomainSpec.categorical(["r", "p", "p2"], "r")
LINE4 = DomainSpec.interval(4)


class TestMajority:
    def test_simple_majority_elects(self):
        assert majority(tally_ballots("rrppp"), BIN) == "p"

    def test_tie_keeps_status_quo(self):
        assert majority(tally_ballots("rrpp"), BIN) == "r"

    def test_virtual_mass_blocks(self):
        assert majority(tally_ballots("rpp", q=2), BIN) == "r"


class TestSupermajority:
    def test_strict_threshold(self):
        # 3 of 5 is not above 0.9 * 5.
        assert supermajority(Fraction(2, 5), tally_ballots("rrppp"), BIN) == "r"

    def test_nineteen_against_two(self):
        tally = tally_ballots("p" * 19 + "r" * 2)
        assert supermajority(Fraction(2, 5), tally, BIN) == "p"
        assert supermajority(Fraction(2, 5), tally_ballots("p" * 18 + "r" * 2), BIN) == "r"

    def test_zero_threshold_tie(self):
        assert supermajority(Fraction(0), tally_ballots("rp"), BIN) == "r"


class TestPlurality:
    def test_most_votes_wins(self):
        tally = tally_ballots(["p"] * 4 + ["p2"] * 6)
        assert plurality(tally, CAT) == "p2"

    def test_virtual_mass_recaptures(self):
        tally = tally_ballots(["p"] * 4 + ["p2"] * 6, q=Fraction(61, 10))
        assert plurality(tally, CAT) == "r"

    def test_exact_tie_with_status_quo(self):
        tally = tally_ballots(["p2"] * 6, q=6)
        assert plurality(tally, CAT) == "r"

    def test_non_status_quo_tie_breaks_by_order(self):
        tally = tally_ballots(["p2"] * 3 + ["p"] * 3)
        assert plurality(tally, CAT) == "p"

    def test_single_alternative(self):
        assert plurality(tally_ballots(["r"]), CAT) == "r"


class TestCondorcet:
    def test_unanimous_winner(self):
        tally = tally_ballots([("p", "r", "p2")] * 3)
        assert condorcet_conservative(Fraction(0), tally, CAT) == "p"

    def test_cycle_returns_status_quo(self):
        domain = DomainSpec.categorical(["r", "a", "b", "c"], "r")
        ballots = [
            ("a", "b", "c", "r"),
            ("b", "c", "a", "r"),
            ("c", "a", "b", "r"),
        ]
        assert condorcet_conservative(Fraction(0), tally_ballots(ballots), domain) == "r"

    def test_supermajority_beats_needed(self):
        # 2 of 3 rank p on top: a strict majority but not a 5/6 supermajority.
        ballots = [("p", "r", "p2")] * 2 + [("r", "p", "p2")]
        tally = tally_ballots(ballots)
        assert condorcet_conservative(Fraction(0), tally, CAT) == "p"
        assert condorcet_conservative(Fraction(1, 3), tally, CAT) == "r"

    def test_moved_voters_with_target_on_top_win(self):
        # Liveness construction: enough target-first rankings beat everything.
        ballots = [("r", "p", "p2")] * 2 + [("p", "p2", "r")] * 8
        assert condorcet_conservative(Fraction(1, 4), tally_ballots(ballots), CAT) == "p"

    def test_rejects_single_choice_ballots(self):
        with pytest.raises(NonRankingBallot):
            condorcet_conservative(Fraction(0), tally_ballots(["p"]), CAT)

    def test_virtual_mass_sides_with_status_quo(self):
        ballots = [("p", "r", "p2")] * 3
        assert condorcet_conservative(Fraction(0), tally_ballots(ballots, q=4), CAT) == "r"


class TestIssuewiseMajority:
    CUBE = DomainSpec.hypercube(3, (0, 0, 0))

    def test_three_way_split_with_coordinated_sybils(self):
        ballots = [(0, 0, 1)] * 20 + [(0, 1, 0)] * 20 + [(1, 0, 0)] * 20
        ballots += [(1, 1, 1)] * 21
        assert issuewise_majority(tally_ballots(ballots), self.CUBE) == (1, 1, 1)

    def test_honest_only(self):
        ballots = [(0, 0, 1)] * 20 + [(0, 1, 0)] * 20 + [(1, 0, 0)] * 20
        assert issuewise_majority(tally_ballots(ballots), self.CUBE) == (0, 0, 0)

    def test_single_voter(self):
        assert issuewise_majority(tally_ballots([(1, 0, 1)]), self.CUBE) == (1, 0, 1)

    def test_ties_fall_back_per_coordinate(self):
        cube = DomainSpec.hypercube(2, (0, 1))
        ballots = [(0, 0), (1, 1)]
        assert issuewise_majority(tally_ballots(ballots), cube) == (0, 1)


class TestMedian:
    def test_eleven_positions(self):
        ballots = [Fraction(x) for x in (2, 5, 7, 11, 12, 12, 16, 17, 8, 15, 15)]
        assert median(tally_ballots(ballots), LINE4) == 12

    def test_single_voter(self):
        assert median(tally_ballots([Fraction(9)]), DomainSpec.interval(0)) == 9

    def test_virtual_mass_pulls_back(self):
        # The full 12-voter delegation population with 3 virtual votes at 4.
        ballots = [Fraction(x) for x in (2, 5, 7, 11, 12, 12, 16, 17, 13, 8, 15, 15)]
        assert median(tally_ballots(ballots, q=3), LINE4) == 11

    def test_even_tie_resolves_toward_status_quo(self):
        assert median(tally_ballots([Fraction(-10), Fraction(10)]), DomainSpec.interval(0)) == 0
        assert median(tally_ballots([Fraction(2), Fraction(10)]), DomainSpec.interval(0)) == 2

    def test_empty_raises(self):
        with pytest.raises(EmptyElectorate):
            median(tally_ballots([]), LINE4)


class TestSuppressedMedian:
    def test_all_on_status_quo(self):
        tally = tally_ballots([Fraction(4)] * 5)
        assert suppress_outer_median(Fraction(1, 3), tally, LINE4) == 4

    def test_suppressing_every_vote_keeps_the_status_quo(self):
        tally = tally_ballots([Fraction(5)] * 3)
        assert median(tally, LINE4) == suppress_outer_median(0, tally, LINE4) == 5
        assert suppress_outer_median(Fraction(1), tally, LINE4) == 4

    def test_matches_reality_enforcing_median(self):
        ballots = [Fraction(x) for x in (2, 5, 7, 11, 12, 12, 16, 17, 8, 15, 15)]
        tau = Fraction(3, 11)
        som = suppress_outer_median(tau, tally_ballots(ballots), LINE4)
        re_md = median(tally_ballots(ballots, q=tau * 11), LINE4)
        assert som == re_md

    def test_sign_flip_returns_status_quo(self):
        # Median sits above r, but a heavy low cluster takes over once the
        # top votes are suppressed.
        ballots = [Fraction(x) for x in (-10, -10, 6, 7, 8)]
        tally = tally_ballots(ballots)
        assert suppress_outer_median(Fraction(2, 5), tally, DomainSpec.interval(0)) == 0

    def test_wrapper_composition_feeds_virtual_mass_to_suppression(self):
        # Wrapping the suppressed median adds the virtual voters to its
        # input: with masses {0: 2(virtual), 3: 1, 9: 3} the first median is
        # 3; suppressing a third of the six units from the top leaves the
        # virtual block tied on top, and the sign check falls back to the
        # status quo.  Without the wrapper the median stays at 9 throughout.
        prof = interval_profile(0, active=(3, 9, 9, 9))
        composed = Mechanism("som", base_tau=Fraction(1, 3), re_tau=Fraction(1, 2), participation="active")
        assert apply(composed, prof) == 0
        plain = Mechanism("som", base_tau=Fraction(1, 3), participation="active")
        assert apply(plain, prof) == 9


# The domain kinds each base rule is defined on.
RULE_DOMAINS = {
    "mj": {"binary"},
    "pl": {"categorical"},
    "smj": {"binary", "categorical"},
    "cc": {"categorical"},
    "scc": {"categorical"},
    "imj": {"hypercube"},
    "md": {"interval"},
    "som": {"interval"},
}
ONE_PROFILE_PER_KIND = {
    "binary": binary_profile(active="rp"),
    "categorical": build_profile(CAT, [(ACTIVE, ("p", "r", "p2")), (ACTIVE, ("r", "p2", "p"))]),
    "hypercube": build_profile(DomainSpec.hypercube(2, (0, 1)), [(ACTIVE, (1, 0))]),
    "interval": interval_profile(4, active=(5, 3)),
}


class TestApply:
    def test_re_two_thirds_blocks(self, example_partial):
        mech = Mechanism("mj", re_tau=Fraction(2, 3), participation="active")
        assert apply(mech, example_partial) == "r"

    def test_without_wrapper_sybils_win(self, example_partial):
        assert apply(Mechanism("mj", participation="active"), example_partial) == "p"

    def test_unanimous_proposal(self):
        prof = binary_profile(active="ppp")
        assert apply(Mechanism("mj"), prof) == "p"

    def test_domain_mismatch(self, example_partial):
        with pytest.raises(MechanismMismatch):
            apply(Mechanism("md"), example_partial)

    def test_full_mode_needs_private_ballots(self):
        prof = build_profile(BIN, [(ACTIVE, "r"), (PASSIVE, None)])
        with pytest.raises(MissingPrivateBallots):
            apply(Mechanism("mj"), prof)

    def test_proxy_participation_is_the_proxy_median(self, delegation_population):
        mech = Mechanism("md", re_tau=Fraction(1, 5), participation="proxy")
        assert apply(mech, delegation_population) == md_proxy(delegation_population, Fraction(1, 5))

    def test_proxy_participation_is_median_on_interval_only(self, example_partial):
        with pytest.raises(MechanismMismatch) as raised:
            apply(Mechanism("mj", participation="proxy"), example_partial)
        assert str(raised.value) == "proxy participation is median-on-interval only"

    def test_domain_mismatch_is_reported_first(self):
        # Off its domain and missing a private ballot: the rule is the error.
        prof = build_profile(BIN, [(ACTIVE, "r"), (PASSIVE, None)])
        with pytest.raises(MechanismMismatch):
            apply(Mechanism("md"), prof)

    @pytest.mark.parametrize("kind", sorted(ONE_PROFILE_PER_KIND))
    @pytest.mark.parametrize("base", BASE_RULES)
    def test_rule_applies_exactly_on_its_domains(self, base, kind):
        prof = ONE_PROFILE_PER_KIND[kind]
        mech = Mechanism(base, participation="active")
        tally = build_tally(mech, prof.counts)
        for evaluate in (
            lambda: apply(mech, prof),
            lambda: evaluate_tally(mech, tally, prof.domain),
        ):
            if kind in RULE_DOMAINS[base]:
                evaluate()
            else:
                with pytest.raises(MechanismMismatch):
                    evaluate()

    def test_status_quo_default(self):
        for mech, prof in [
            (Mechanism("mj"), binary_profile(active="rrr")),
            (Mechanism("pl"), build_profile(CAT, [(ACTIVE, "r")] * 3)),
            (Mechanism("md"), interval_profile(4, active=(4, 4))),
        ]:
            assert apply(mech, prof) == prof.domain.r

    @pytest.mark.parametrize(
        "base", [b for b in BASE_RULES if b not in THRESHOLD_RULES]
    )
    def test_threshold_on_rule_without_one(self, base):
        with pytest.raises(MechanismMismatch, match="takes no threshold"):
            Mechanism(base, base_tau=Fraction(1, 2))
        assert Mechanism(base, base_tau=0).describe().startswith(f"{base} ")

    @settings(max_examples=150, deadline=None)
    @given(
        prof=profiles(),
        mode=st.sampled_from(["full", "active", "proxy"]),
        re_tau=st.sampled_from([Fraction(0), Fraction(1, 3)]),
    )
    def test_tally_counts_the_visible_voters(self, prof, mode, re_tau):
        mech = Mechanism("mj", re_tau=re_tau, participation=mode)
        visible = [b for c, b in prof.voters if mode == "full" or c is not PASSIVE]
        if None in visible:
            with pytest.raises(MissingPrivateBallots):
                build_tally(mech, prof.counts)
            return
        electorate = len(visible) if mode == "active" else len(prof.voters)
        want = tally_ballots(visible, q=re_tau * electorate)
        assert build_tally(mech, prof.counts) == want


# ---------------------------------------------------------------------------
# Integer masses against a reference that does all arithmetic in Fractions.

F = Fraction
CAT2 = DomainSpec.categorical(["p", "r"], "r")
CUBES = [DomainSpec.hypercube(1, (0,)), DomainSpec.hypercube(2, (0, 1)),
         DomainSpec.hypercube(3, (1, 0, 0))]
# Free virtual masses, non-integer ones such as re_tau = 1/3 of a small
# electorate included; each test adds its rule's knife edge.
FREE_Q = st.fractions(min_value=0, max_value=6, max_denominator=6)


def fraction_mass(counts, a):
    return F(counts.get(a, 0))


def ref_majority(counts, q, domain):
    r, p = domain.status_quo, domain.proposal
    return p if fraction_mass(counts, p) > fraction_mass(counts, r) + q else r


def ref_supermajority(tau, counts, q, domain):
    total = sum((F(c) for c in counts.values()), F(0)) + q
    for a in domain.alternative_list():
        if a != domain.r and fraction_mass(counts, a) > (F(1, 2) + tau) * total:
            return a
    return domain.r


def ref_plurality(counts, q, domain):
    scores = {a: fraction_mass(counts, a) for a in domain.alternative_list()}
    scores[domain.r] += q
    top = max(scores.values())
    if scores[domain.r] == top:
        return domain.r
    return next(a for a, score in scores.items() if score == top)


def ref_issuewise(counts, q, domain):
    point = []
    for j, rj in enumerate(domain.status_quo_point):
        ones = sum((F(c) for b, c in counts.items() if b[j] == 1), F(0))
        zeros = sum((F(c) for b, c in counts.items() if b[j] == 0), F(0))
        if rj == 0:
            point.append(1 if ones > zeros + q else 0)
        else:
            point.append(0 if zeros > ones + q else 1)
    return tuple(point)


def draw_counts(data, domain):
    counts = {a: data.draw(st.integers(0, 5)) for a in domain.alternative_list()}
    return {a: c for a, c in counts.items() if c}


def draw_q(data, edge):
    """A free q, or the knife edge where the rule's strict test is an equality."""
    if edge >= 0 and data.draw(st.booleans()):
        return edge
    return data.draw(FREE_Q)


def ref_condorcet(tau, counts, q, domain):
    def beats(a, b):
        support = sum((F(c) for ranking, c in counts.items()
                       if ranking.index(a) < ranking.index(b)), F(0))
        total = sum((F(c) for c in counts.values()), F(0))
        if domain.r in (a, b):
            total += q
        return support > (F(1, 2) + tau) * total

    alternatives = domain.alternative_list()
    for a in alternatives:
        if a != domain.r and all(beats(a, b) for b in alternatives if b != a):
            return a
    return domain.r


def q_forms(counts, q):
    """The tally with q as a Fraction over unit 1, then as the int
    k * q.numerator over the unit k * q.denominator, for k = 1, 2, 3."""
    return [Tally(counts, q)] + [Tally(counts, k * q.numerator, k * q.denominator)
                                 for k in (1, 2, 3)]


# Each case draws counts and q (its rule's knife edge included) and returns
# (counts, q, the rule on a tally, the Fraction reference's answer).
def majority_case(data):
    counts = draw_counts(data, BIN)
    q = draw_q(data, F(counts.get("p", 0) - counts.get("r", 0)))
    return counts, q, lambda t: majority(t, BIN), ref_majority(counts, q, BIN)


def supermajority_case(data):
    domain = data.draw(st.sampled_from([BIN, CAT, CAT2]))
    tau = data.draw(st.sampled_from([F(0), F(1, 3), F(2, 5), F(1, 2)]))
    counts = draw_counts(data, domain)
    a = data.draw(st.sampled_from([x for x in domain.alternative_list() if x != domain.r]))
    q = draw_q(data, fraction_mass(counts, a) / (F(1, 2) + tau) - sum(counts.values()))
    rule = lambda t: supermajority(tau, t, domain)
    return counts, q, rule, ref_supermajority(tau, counts, q, domain)


def plurality_case(data):
    domain = data.draw(st.sampled_from([CAT, CAT2]))
    counts = draw_counts(data, domain)
    top = max(counts.get(a, 0) for a in domain.alternative_list() if a != domain.r)
    q = draw_q(data, F(top - counts.get(domain.r, 0)))
    return counts, q, lambda t: plurality(t, domain), ref_plurality(counts, q, domain)


def issuewise_case(data):
    domain = data.draw(st.sampled_from(CUBES))
    counts = draw_counts(data, domain)
    j = data.draw(st.integers(0, domain.dimension - 1))
    lead = 2 * sum(c for b, c in counts.items() if b[j] == 1) - sum(counts.values())
    q = draw_q(data, F(lead if domain.status_quo_point[j] == 0 else -lead))
    return counts, q, lambda t: issuewise_majority(t, domain), ref_issuewise(counts, q, domain)


def condorcet_case(data):
    """base_tau in {0, 1/3, 2/5} and a nonzero q, free or on the edge of a
    challenger's contest with r."""
    tau = data.draw(st.sampled_from([F(0), F(1, 3), F(2, 5)]))
    counts = {}
    for ranking in itertools.permutations(CAT.alternative_list()):
        counts[ranking] = data.draw(st.integers(0, 3))
    counts = {b: c for b, c in counts.items() if c}
    a = data.draw(st.sampled_from(["p", "p2"]))
    support = sum(c for b, c in counts.items() if b.index(a) < b.index("r"))
    edge = support / (F(1, 2) + tau) - sum(counts.values())
    q = edge if edge > 0 and data.draw(st.booleans()) else data.draw(FREE_Q.filter(bool))
    rule = lambda t: condorcet_conservative(tau, t, CAT)
    return counts, q, rule, ref_condorcet(tau, counts, q, CAT)


class TestMassIndex:
    def test_int_masses_index_like_their_fractions(self):
        entries = [(F(1, 2), 3), (F(-1, 3), 2), (F(1, 2), 0), (F(2), F(5, 4)), (F(0), 1)]
        scale, xs, cum = mass_index(entries)
        assert (scale, xs, cum) == mass_index([(p, F(m)) for p, m in entries])
        assert (scale, xs, cum) == (6, [-2, 0, 3, 12], [8, 12, 24, 29])
        assert all(type(c) is int for c in cum)

    def test_negative_masses_are_refused(self):
        with pytest.raises(EmptyElectorate, match="negative mass"):
            weighted_median([(0, -1), (1, 2)])

    @pytest.mark.parametrize("mass", [1.0, True])
    def test_float_and_bool_masses_are_type_errors(self, mass):
        with pytest.raises(TypeError):
            mass_index([(F(0), 1), (F(1), mass)])


class TestIntegerMassesMatchFractionReference:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_majority(self, data):
        counts = draw_counts(data, BIN)
        q = draw_q(data, F(counts.get("p", 0) - counts.get("r", 0)))
        assert majority(Tally(counts, q), BIN) == ref_majority(counts, q, BIN)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_supermajority(self, data):
        domain = data.draw(st.sampled_from([BIN, CAT, CAT2]))
        tau = data.draw(st.sampled_from([F(0), F(1, 3), F(2, 5), F(1, 2)]))
        counts = draw_counts(data, domain)
        a = data.draw(st.sampled_from([x for x in domain.alternative_list() if x != domain.r]))
        # q at which a's count equals (1/2 + tau) of the votes seen.
        q = draw_q(data, fraction_mass(counts, a) / (F(1, 2) + tau) - sum(counts.values()))
        got = supermajority(tau, Tally(counts, q), domain)
        assert got == ref_supermajority(tau, counts, q, domain)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_plurality(self, data):
        domain = data.draw(st.sampled_from([CAT, CAT2]))
        counts = draw_counts(data, domain)
        top = max(counts.get(a, 0) for a in domain.alternative_list() if a != domain.r)
        q = draw_q(data, F(top - counts.get(domain.r, 0)))
        assert plurality(Tally(counts, q), domain) == ref_plurality(counts, q, domain)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_issuewise_majority(self, data):
        domain = data.draw(st.sampled_from(CUBES))
        counts = draw_counts(data, domain)
        j = data.draw(st.integers(0, domain.dimension - 1))
        ones = sum(c for b, c in counts.items() if b[j] == 1)
        lead = 2 * ones - sum(counts.values())  # ones minus zeros on coordinate j
        q = draw_q(data, F(lead if domain.status_quo_point[j] == 0 else -lead))
        assert issuewise_majority(Tally(counts, q), domain) == ref_issuewise(counts, q, domain)

    def test_knife_edges_tie_to_the_status_quo(self):
        # mass(p) - mass(r) == q, and q = 1/3 of a three-voter electorate.
        assert majority(Tally({"p": 3, "r": 1}, F(2)), BIN) == "r"
        assert majority(Tally({"p": 2, "r": 1}, F(1)), BIN) == "r"
        assert majority(Tally({"p": 2, "r": 1}, F(2, 3)), BIN) == "p"
        assert plurality(Tally({"p": 3, "r": 2}, F(1)), CAT) == "r"
        assert issuewise_majority(Tally({(1,): 3, (0,): 1}, F(2)), CUBES[0]) == (0,)
        # 3 > (1/2 + 1/3) * (3 + 2/3) = 55/18 fails by 1/18; q = 3/5 sits on the edge.
        assert supermajority(F(1, 3), Tally({"p": 3}, F(2, 3)), BIN) == "r"
        assert supermajority(F(1, 3), Tally({"p": 3}, F(3, 5)), BIN) == "r"
        assert supermajority(F(1, 3), Tally({"p": 3}, F(1, 2)), BIN) == "p"

    @pytest.mark.parametrize(
        "case",
        [majority_case, supermajority_case, plurality_case, issuewise_case, condorcet_case],
        ids=lambda case: case.__name__,
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_form_of_q_matches_the_reference(self, case, data):
        counts, q, rule, want = case(data)
        assert [rule(tally) for tally in q_forms(counts, q)] == [want] * 4

    def test_knife_edges_on_an_int_unit(self):
        # The edges above with q as an int over re_tau's denominator (or a multiple).
        assert majority(Tally({"p": 3, "r": 1}, 6, 3), BIN) == "r"
        assert majority(Tally({"p": 2, "r": 1}, 3, 3), BIN) == "r"
        assert majority(Tally({"p": 2, "r": 1}, 4, 6), BIN) == "p"
        assert plurality(Tally({"p": 3, "r": 2}, 2, 2), CAT) == "r"
        assert issuewise_majority(Tally({(1,): 3, (0,): 1}, 6, 3), CUBES[0]) == (0,)
        assert supermajority(F(1, 3), Tally({"p": 3}, 2, 3), BIN) == "r"
        assert supermajority(F(1, 3), Tally({"p": 3}, 6, 10), BIN) == "r"
        assert supermajority(F(1, 3), Tally({"p": 3}, 2, 4), BIN) == "p"
        # p's contests: 2 of 3 against p2 (no q); against r, 2 > (1/2 + 1/10) * (3 + q)
        # holds exactly while q < 1/3.
        ballots = {("p", "r", "p2"): 2, ("r", "p2", "p"): 1}
        assert condorcet_conservative(F(1, 10), Tally(ballots, 1, 3), CAT) == "r"
        assert condorcet_conservative(F(1, 10), Tally(ballots, 2, 9), CAT) == "p"


class TestTallyUnit:
    def test_equal_masses_are_equal_tallies(self):
        counts = {"p": 2, "r": 1}
        assert Tally(counts, 3, 3) == Tally(counts, 1) == Tally(counts, F(1)) == Tally(counts, 2, 2)
        assert Tally(counts, 2, 3) == Tally(counts, F(2, 3)) == Tally(counts, 4, 6)
        assert Tally(counts, 0, 5) == Tally(counts) == Tally(counts, F(0))
        assert Tally(counts, 2, 3) != Tally(counts, 2)
        assert Tally(counts, 2, 3) != Tally(counts, 3, 2)
        assert Tally(counts, 1) != Tally({"p": 2}, 1)
        assert Tally(counts) != (counts, 0)

    def test_equal_and_unequal_agree_across_units(self):
        # A tally is a tuple underneath; == and != both compare masses, so
        # (c, 3, 3) and (c, 1) are equal and not unequal.
        counts = {"p": 2, "r": 1}
        for a, b in [(Tally(counts, 3, 3), Tally(counts, 1)), (Tally(counts, 2, 4), Tally(counts, 1, 2))]:
            assert a == b and b == a
            assert not (a != b) and not (b != a)
        assert Tally(counts, 2, 3) != Tally(counts, 3, 2) and not Tally(counts, 2, 3) == Tally(counts, 3, 2)

    def test_is_an_immutable_record(self):
        tally = Tally(counts={"p": 2}, q=3, unit=6)
        assert (tally.counts, tally.q, tally.unit) == ({"p": 2}, 3, 6)
        assert tally == Tally({"p": 2}, 3, 6) == Tally({"p": 2}, unit=6, q=3)
        assert tally.virtual_mass == F(1, 2) and tally.cast_total == 2
        assert tally.mass("p") == 2 and tally.mass("r") == 0
        for field, value in (("counts", {}), ("q", 0), ("unit", 1)):
            with pytest.raises(AttributeError):
                setattr(tally, field, value)

    def test_default_counts_are_shared_by_no_one(self):
        empty, other = Tally(), Tally()
        assert (empty.q, empty.unit, empty.cast_total) == (0, 1, 0)
        with pytest.raises(TypeError):
            empty.counts["p"] = 1
        assert dict(other.counts) == {} and Tally(q=2).counts == {}

    def test_virtual_mass_is_exact(self):
        for tally in (Tally({}, 4, 6), Tally({}, F(2, 3))):
            assert tally.virtual_mass == F(2, 3)
            assert type(tally.virtual_mass) is Fraction

    def test_build_tally_holds_q_over_re_taus_denominator(self):
        prof = binary_profile(active="ppr", passive="r", sybil="p")
        for mode, visible in (("active", 4), ("full", 5)):
            tally = build_tally(Mechanism("mj", re_tau=F(2, 5), participation=mode), prof.counts)
            assert (tally.q, tally.unit) == (2 * visible, 5)
            assert type(tally.q) is int


# ---------------------------------------------------------------------------
# Cross-rule identities.

TAUS = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]


def random_binary(rng):
    n = rng.randint(1, 40)
    voters = [(ACTIVE, rng.choice("rp"))]
    for _ in range(n - 1):
        cls = rng.choice([ACTIVE, PASSIVE, SYBIL])
        voters.append((cls, rng.choice("rp")))
    return build_profile(BIN, voters)


def random_interval(rng, r_span=5, max_n=30):
    r = Fraction(rng.randint(-r_span, r_span))
    domain = DomainSpec.interval(r)
    n = rng.randint(1, max_n)
    voters = [(ACTIVE, Fraction(rng.randint(-20, 20), rng.choice((1, 1, 2))))]
    for _ in range(n - 1):
        cls = rng.choice([ACTIVE, PASSIVE, SYBIL])
        voters.append((cls, Fraction(rng.randint(-20, 20), rng.choice((1, 1, 2)))))
    return build_profile(domain, voters)


class TestCoincidences:
    def test_double_re_equals_supermajority(self):
        rng = random.Random(101)
        for _ in range(400):
            prof = random_binary(rng)
            tau = rng.choice(TAUS)
            re_mj = Mechanism("mj", re_tau=2 * tau, participation="active")
            smj = Mechanism("smj", base_tau=tau, participation="active")
            assert apply(re_mj, prof) == apply(smj, prof)

    def test_re_median_equals_suppressed_median(self):
        rng = random.Random(202)
        for _ in range(400):
            prof = random_interval(rng)
            tau = rng.choice(TAUS + [Fraction(2, 3), Fraction(7, 9)])
            re_md = Mechanism("md", re_tau=tau, participation="active")
            som = Mechanism("som", base_tau=tau, participation="active")
            assert apply(re_md, prof) == apply(som, prof)

    def test_coincidences_survive_awkward_rationals(self):
        # Positions with mixed denominators, clustered duplicates, and
        # suppression fractions that split a single vote into pieces.
        rng = random.Random(505)
        awkward_taus = [
            Fraction(1, 7), Fraction(3, 7), Fraction(5, 11), Fraction(12, 13),
            Fraction(1, 97), Fraction(96, 97),
        ]
        for _ in range(300):
            r = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
            domain = DomainSpec.interval(r)
            n = rng.randint(1, 18)
            cluster = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3)))
            voters = [(ACTIVE, cluster)]
            for _ in range(n - 1):
                cls = rng.choice([ACTIVE, PASSIVE, SYBIL])
                pos = rng.choice(
                    [cluster, r, Fraction(rng.randint(-24, 24), rng.choice((1, 2, 3, 5, 7)))]
                )
                voters.append((cls, pos))
            prof = build_profile(domain, voters)
            tau = rng.choice(awkward_taus)
            assert apply(
                Mechanism("md", re_tau=tau, participation="active"), prof
            ) == apply(Mechanism("som", base_tau=tau, participation="active"), prof)
            binary = random_binary(rng)
            assert apply(Mechanism("mj", re_tau=2 * tau), binary) == apply(
                Mechanism("smj", base_tau=tau), binary
            )

    def test_median_majority_bridge(self):
        # Whenever the RE median lands on z and y >= max(z, r) with x > y,
        # the projected contest on {y, x} keeps y.
        rng = random.Random(303)
        checked = 0
        for _ in range(400):
            prof = random_interval(rng)
            tau = rng.choice(TAUS)
            z = apply(Mechanism("md", re_tau=tau, participation="active"), prof)
            y = max(z, prof.domain.status_quo_position) + rng.randint(0, 3)
            x = y + rng.randint(1, 4)
            projected = project_to_pair(prof, y, x)
            out = apply(Mechanism("mj", re_tau=tau, participation="active"), projected)
            assert out == projected.domain.status_quo
            checked += 1
        assert checked == 400

    def test_tau_monotone_toward_status_quo(self):
        # Raising the wrapper parameter can only pull outcomes back to the
        # status quo, for every rule where "away from r" is well defined.
        rng = random.Random(404)
        ordered = sorted(TAUS)

        def random_categorical(rng):
            n = rng.randint(1, 20)
            voters = [(ACTIVE, rng.choice(["r", "p", "p2"]))]
            for _ in range(n - 1):
                cls = rng.choice([ACTIVE, PASSIVE, SYBIL])
                voters.append((cls, rng.choice(["r", "p", "p2"])))
            return build_profile(CAT, voters)

        cases = []
        for _ in range(150):
            cases.append(("mj", random_binary(rng)))
            cases.append(("smj", random_binary(rng)))
            cases.append(("pl", random_categorical(rng)))
            cases.append(("md", random_interval(rng)))
        for base, prof in cases:
            base_tau = Fraction(1, 5) if base == "smj" else Fraction(0)
            seen_r = False
            for t in ordered:
                mech = Mechanism(base, base_tau=base_tau, re_tau=t, participation="active")
                out = apply(mech, prof)
                if seen_r:
                    assert out == prof.domain.r, (base, prof.voters, t)
                seen_r = seen_r or out == prof.domain.r


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_supermajority_coincidence_hypothesis(data):
    n_active = data.draw(st.integers(1, 12))
    n_sybil = data.draw(st.integers(0, 8))
    ballots = data.draw(
        st.lists(st.sampled_from("rp"), min_size=n_active + n_sybil, max_size=n_active + n_sybil)
    )
    voters = [(ACTIVE, b) for b in ballots[:n_active]]
    voters += [(SYBIL, b) for b in ballots[n_active:]]
    prof = build_profile(BIN, voters)
    tau = data.draw(st.sampled_from(TAUS))
    assert apply(Mechanism("mj", re_tau=2 * tau), prof) == apply(
        Mechanism("smj", base_tau=tau), prof
    )
