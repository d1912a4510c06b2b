import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from realityvote import DomainSpec, Mechanism, build_profile, is_live, project_to_pair
from realityvote.errors import (
    InvalidBallot,
    MixedBallotKind,
    NoActiveHonest,
    PassiveSybil,
    RealityVoteError,
    SybilWithoutBallot,
)
from realityvote.population import NonatomicProfile, VoterClass

from conftest import ACTIVE, PASSIVE, SYBIL, binary_profile, interval_profile, profiles


class TestBuildProfile:
    def test_full_participation_fractions(self, example_full):
        assert example_full.sigma == Fraction(2, 5)
        assert example_full.mu == 0
        assert example_full.phi == 1

    def test_partial_participation_fractions(self, example_partial):
        assert example_partial.sigma == Fraction(2, 5)
        assert example_partial.mu == Fraction(2, 5)
        assert example_partial.phi == Fraction(1, 3)

    def test_singleton(self):
        p = binary_profile(active="r")
        assert (p.sigma, p.mu, p.phi) == (0, 0, 1)

    def test_fraction_identity(self, example_partial):
        p = example_partial
        assert p.sigma + p.mu + p.h_plus == 1

    def test_sybil_needs_ballot(self):
        with pytest.raises(SybilWithoutBallot):
            build_profile(DomainSpec.binary(), [(ACTIVE, "r"), (SYBIL, None)])

    def test_all_passive_rejected(self):
        with pytest.raises(NoActiveHonest):
            build_profile(DomainSpec.binary(), [(PASSIVE, "r"), (PASSIVE, None)])

    def test_empty_rejected(self):
        with pytest.raises(NoActiveHonest):
            build_profile(DomainSpec.binary(), [])

    def test_ballot_type_checked(self):
        with pytest.raises(InvalidBallot):
            build_profile(DomainSpec.binary(), [(ACTIVE, "q")])

    def test_unknown_voter_class_rejected(self):
        with pytest.raises(PassiveSybil):
            build_profile(DomainSpec.binary(), [(ACTIVE, "r"), ("passive_sybil", "p")])

    def test_mixed_rankings_rejected(self):
        domain = DomainSpec.categorical(["r", "a", "b"], "r")
        with pytest.raises(MixedBallotKind):
            build_profile(domain, [(ACTIVE, "a"), (ACTIVE, ("a", "b", "r"))])

    # One bad entry per per-entry check, each raising its own exception.
    BAD_ENTRIES = {
        PassiveSybil: ("passive_sybil", "p"),
        SybilWithoutBallot: (SYBIL, None),
        InvalidBallot: (PASSIVE, "q"),
    }

    @pytest.mark.parametrize("order", list(itertools.permutations(BAD_ENTRIES)))
    @pytest.mark.parametrize("with_active", [True, False])
    def test_first_bad_entry_decides(self, order, with_active):
        """Several bad entries: the first one decides the exception, whether
        or not an active honest voter comes after it."""
        entries = [(PASSIVE, "r")] + [self.BAD_ENTRIES[error] for error in order]
        entries += [(ACTIVE, None), (ACTIVE, "r")] if with_active else [(SYBIL, "p")]
        with pytest.raises(RealityVoteError) as info:
            build_profile(DomainSpec.binary(), entries)
        assert type(info.value) is order[0]

    def test_no_active_honest_comes_after_every_entry_check(self):
        domain = DomainSpec.binary()
        with pytest.raises(InvalidBallot):
            build_profile(domain, [(PASSIVE, "r"), (SYBIL, "p"), (ACTIVE, None)])
        with pytest.raises(NoActiveHonest):
            build_profile(domain, [(PASSIVE, "r"), (SYBIL, "p"), (PASSIVE, None)])

    def test_passive_may_omit_ballot(self):
        p = build_profile(DomainSpec.binary(), [(ACTIVE, "r"), (PASSIVE, None)])
        assert not p.has_full_honest_ballots()


class TestCounts:
    @given(profiles())
    def test_counts_are_the_voters_counted(self, prof):
        assert prof.counts == {
            cls: dict(Counter(b for c, b in prof.voters if c is cls))
            for cls in VoterClass
        }

    @given(profiles())
    def test_fractions_match_direct_scans(self, prof):
        n = len(prof.voters)
        sybils = sum(1 for c, _ in prof.voters if c is SYBIL)
        passives = sum(1 for c, _ in prof.voters if c is PASSIVE)
        actives = sum(1 for c, _ in prof.voters if c is ACTIVE)
        assert (prof.n_sybil, prof.n_passive_honest, prof.n_active_honest) == (
            sybils, passives, actives
        )
        assert (prof.n_honest, prof.n_visible) == (n - sybils, actives + sybils)
        assert prof.sigma == Fraction(sybils, n)
        assert prof.mu == Fraction(passives, n)
        assert prof.h_plus == Fraction(actives, n)
        assert prof.phi == Fraction(actives, n - sybils)
        assert prof.has_full_honest_ballots() == all(
            b is not None for c, b in prof.voters if c is not SYBIL
        )


class TestDomainSpec:
    def test_categorical_duplicates_rejected(self):
        with pytest.raises(InvalidBallot):
            DomainSpec.categorical(["a", "a"], "a")

    def test_status_quo_must_be_member(self):
        with pytest.raises(InvalidBallot):
            DomainSpec.categorical(["a", "b"], "c")

    def test_hypercube_alternatives(self):
        domain = DomainSpec.hypercube(2, (0, 0))
        assert domain.alternative_list() == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_ranking_must_be_permutation(self):
        domain = DomainSpec.categorical(["r", "a", "b"], "r")
        with pytest.raises(InvalidBallot):
            domain.validate_ballot(("a", "b"))

    @pytest.mark.parametrize("point", [("1", True), (1.0, 0), (True, 0)])
    def test_hypercube_points_are_not_coerced(self, point):
        with pytest.raises(InvalidBallot):
            build_profile(DomainSpec.hypercube(2, (0, 0)), [(ACTIVE, point)])
        with pytest.raises(InvalidBallot):
            DomainSpec.hypercube(2, point)

    def test_hypercube_dimension_is_not_coerced(self):
        with pytest.raises(InvalidBallot):
            DomainSpec.hypercube(True, (0,))

    @pytest.mark.parametrize("position", [True, "3/2", "abc", 0.5, None])
    def test_interval_positions_are_not_coerced(self, position):
        with pytest.raises(InvalidBallot):
            build_profile(DomainSpec.interval(0), [(ACTIVE, 1), (ACTIVE, position)])
        with pytest.raises(InvalidBallot):
            DomainSpec.interval(position)

    def test_interval_positions_take_ints_and_fractions(self):
        prof = build_profile(DomainSpec.interval(2), [(ACTIVE, 1), (ACTIVE, Fraction(3, 2))])
        assert prof.domain.r == Fraction(2) and type(prof.domain.r) is Fraction
        assert [type(b) for _, b in prof.voters] == [Fraction, Fraction]


class TestAsFraction:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: Mechanism("mj", re_tau=True),
            lambda: Mechanism("smj", base_tau="2/5"),
            lambda: is_live(Mechanism("mj"), (5, "2/5", 0), "p", True),
        ],
        ids=["bool-tau", "string-tau", "string-sigma"],
    )
    def test_only_ints_and_fractions_are_rationals(self, call):
        with pytest.raises(TypeError):
            call()


POSITIONS = st.fractions(min_value=-6, max_value=6, max_denominator=3)


class TestProjectToPair:
    def test_closer_point(self):
        prof = interval_profile(0, active=(4,))
        out = project_to_pair(prof, 3, 6)
        assert out.voters[0][1] == "3"

    def test_tie_selects_status_quo_side(self):
        prof = interval_profile(0, active=(Fraction(9, 2),))
        out = project_to_pair(prof, 3, 6)
        assert out.voters[0][1] == "3"

    def test_delegation_population_projection(self, delegation_population):
        # Pair (4, 13): midpoint 8.5; positions {2,5,7,8} land on 4, the
        # other eight (11,12,12,13,15,15,16,17) on 13.
        out = project_to_pair(delegation_population, 4, 13)
        votes = [b for _, b in out.voters if b is not None]
        assert votes.count("4") == 4
        assert votes.count("13") == 8
        assert [c for c, _ in out.voters] == [c for c, _ in delegation_population.voters]

    def test_requires_order(self, delegation_population):
        with pytest.raises(InvalidBallot):
            project_to_pair(delegation_population, 6, 6)

    def test_points_in_either_order(self):
        # The first point keeps the status-quo role and wins exact ties.
        prof = interval_profile(0, active=(2, 3, 4, Fraction(9, 2), 5, 7))
        out = project_to_pair(prof, 6, 3)
        assert (out.domain.status_quo, out.domain.proposal) == ("6", "3")
        assert [b for _, b in out.voters] == ["3", "3", "3", "6", "6", "6"]

    @given(
        r=POSITIONS,
        voters=st.lists(
            st.one_of(
                st.tuples(st.sampled_from([ACTIVE, SYBIL]), POSITIONS),
                st.tuples(st.just(PASSIVE), st.one_of(st.none(), POSITIONS)),
            ),
            max_size=11,
        ),
        first=POSITIONS,
        pair=st.tuples(POSITIONS, POSITIONS).filter(lambda ab: ab[0] != ab[1]),
    )
    def test_projection_commutes_with_the_mirror(self, r, voters, first, pair):
        # Projecting onto (a, t) counts each class like projecting the
        # profile mirrored around r onto (2r - a, 2r - t).
        prof = build_profile(DomainSpec.interval(r), [(ACTIVE, first), *voters])
        mirrored = build_profile(
            prof.domain, [(c, None if b is None else 2 * r - b) for c, b in prof.voters]
        )
        a, t = pair

        def role_counts(projected):
            sq, prop = projected.domain.status_quo, projected.domain.proposal
            return {
                cls: (counts.get(sq, 0), counts.get(prop, 0), counts.get(None, 0))
                for cls, counts in projected.counts.items()
            }

        assert role_counts(project_to_pair(prof, a, t)) == role_counts(
            project_to_pair(mirrored, 2 * r - a, 2 * r - t)
        )

    @given(st.lists(st.sampled_from([0, 10]), min_size=1, max_size=12))
    def test_idempotent_on_two_point_profiles(self, xs):
        prof = interval_profile(0, active=xs)
        out = project_to_pair(prof, 0, 10)
        assert [b for _, b in out.voters] == [str(x) for x in xs]


class TestNonatomic:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(InvalidBallot):
            NonatomicProfile(
                h_r=Fraction(1, 2),
                h_p=Fraction(1, 2),
                s_r=Fraction(1, 2),
                s_p=Fraction(0),
                participation=Fraction(1),
            )

    def test_from_profile(self, example_partial):
        pop = NonatomicProfile.from_profile(example_partial)
        assert pop.sigma == Fraction(2, 5)
        assert pop.mu == Fraction(2, 5)
        assert pop.active_honest_r == Fraction(1, 5)

    def test_active_mass_split(self):
        pop = NonatomicProfile(
            h_r=Fraction(2, 5),
            h_p=Fraction(1, 5),
            s_r=Fraction(0),
            s_p=Fraction(2, 5),
            participation=Fraction(1, 2),
        )
        assert pop.mu == Fraction(3, 10)
        assert pop.visible_mass == Fraction(7, 10)
