import random
from fractions import Fraction

import numpy as np
import pytest

from realityvote import (
    DomainSpec,
    Mechanism,
    analyze,
    apply,
    build_profile,
    delegate,
    md_proxy,
    sample_and_run,
    weighted_median,
)
from realityvote.errors import (
    EmptyEntries,
    MissingPrivateBallots,
    NoProxyAvailable,
    SampleTooLarge,
)
from realityvote.population import Profile
from realityvote.proxy import nearest_entity_to

from conftest import ACTIVE, PASSIVE, SYBIL, binary_profile, interval_profile


def weight_at(weights, position, status_quo=None):
    total = Fraction(0)
    for e in weights.entities:
        if e.position == position and (status_quo is None or e.is_status_quo == status_quo):
            total += e.weight
    return total


class TestDelegate:
    def test_passive_below_goes_to_status_quo(self, delegation_population):
        weights = delegate(delegation_population, Fraction(1, 4))
        # passive at 2: distance 2 to r=4 beats distance 3 to the active at 5
        assert weight_at(weights, Fraction(4), status_quo=True) == 3 + 1

    def test_zero_distance_follows_the_voter(self):
        prof = interval_profile(0, active=(7,), passive=(7,))
        weights = delegate(prof, 0)
        assert weight_at(weights, Fraction(7)) == 2

    def test_midpoint_cluster(self, delegation_population):
        # passives 11, 12, 12 against actives 5 and 13: all three cross 9.
        weights = delegate(delegation_population, Fraction(1, 4))
        assert weight_at(weights, Fraction(13)) == 1 + 3

    def test_weight_conservation(self, delegation_population):
        weights = delegate(delegation_population, Fraction(1, 4))
        n = delegation_population.n
        assert sum(e.weight for e in weights.entities) == n + Fraction(1, 4) * n

    def test_midpoint_tie_goes_to_the_side_nearer_status_quo(self):
        prof = interval_profile(0, active=(2, 8), passive=(5,))
        weights = delegate(prof, 0)
        assert weight_at(weights, Fraction(2)) == 2
        assert weight_at(weights, Fraction(8)) == 1

    def test_needs_private_positions(self):
        prof = build_profile(
            DomainSpec.interval(0), [(ACTIVE, Fraction(1)), (PASSIVE, None)]
        )
        with pytest.raises(MissingPrivateBallots):
            delegate(prof, 0)

    def test_binary_profiles_have_no_delegation(self):
        with pytest.raises(NoProxyAvailable, match="delegation is defined on the interval domain"):
            delegate(binary_profile(active="p"), 0)

    def test_passives_alone_have_no_proxy_without_the_status_quo(self):
        # build_profile refuses a profile without an active voter; a raw Profile does not.
        prof = Profile(DomainSpec.interval(0), ((PASSIVE, Fraction(1)),))
        with pytest.raises(NoProxyAvailable, match="the status quo is excluded"):
            delegate(prof, 0, include_status_quo=False)

    def test_status_quo_unit_weight_variant(self):
        prof = interval_profile(0, active=(5,))
        with_unit = delegate(prof, 0, r_unit_weight=True)
        without = delegate(prof, 0)
        assert weight_at(with_unit, Fraction(0), status_quo=True) == 1
        assert weight_at(without, Fraction(0), status_quo=True) == 0


class TestWeightedMedian:
    def test_single_entry(self):
        assert weighted_median([(9, 5)]) == 9

    def test_odd_unweighted(self):
        assert weighted_median([(1, 1), (2, 1), (3, 1)]) == 2

    def test_even_takes_lower(self):
        assert weighted_median([(0, 1), (10, 1)]) == 0

    def test_zero_total_rejected(self):
        with pytest.raises(EmptyEntries):
            weighted_median([(3, 0)])


class TestMdProxy:
    def test_worked_example(self, delegation_population):
        assert md_proxy(delegation_population, Fraction(1, 4)) == 13

    def test_all_active_reduces_to_median(self):
        prof = interval_profile(4, active=(2, 5, 7, 11, 12, 12, 16, 17, 13), sybil=(8, 15, 15))
        tau = Fraction(1, 4)
        assert md_proxy(prof, tau) == apply(
            Mechanism("md", re_tau=tau, participation="full"), prof
        )

    def test_lone_active_attracts_near_passives(self):
        prof = interval_profile(0, active=(10,), passive=(8, 9, 12))
        assert md_proxy(prof, 0) == 10

    def test_r_weight_variant_shifts_the_knife_edge(self, delegation_population):
        # Giving the status quo an extra base unit moves the half-split onto
        # the entity at 8; the default (display-formula) weights reproduce
        # the worked example's outcome 13.
        assert md_proxy(delegation_population, Fraction(1, 4)) == 13
        assert md_proxy(delegation_population, Fraction(1, 4), r_unit_weight=True) == 8


class TestAnalyze:
    def test_worked_example_quantities(self, delegation_population):
        ana = analyze(delegation_population, Fraction(1, 4))
        assert ana.h_star == 12
        assert ana.nearest_active_position == 13
        assert ana.d_star == 1
        assert ana.h_hat == 11
        assert ana.h_hat_bar == 13
        assert ana.h_hat_under == 5
        assert ana.z == 13

    def test_all_honest_at_one_point(self):
        prof = interval_profile(0, active=(6,), passive=(6, 6))
        ana = analyze(prof, 0)
        assert ana.h_star == 6 and ana.d_star == 0

    def test_safety_envelope_upper_side(self):
        # With the virtual mass at least matching the sybils, the outcome
        # never overshoots the honest median by more than the gap to the
        # nearest active voter (normalized orientation).
        rng = random.Random(5)
        for _ in range(500):
            n = rng.randint(1, 20)
            r = Fraction(rng.randint(-4, 4))
            voters = [(ACTIVE, Fraction(rng.randint(-15, 15)))]
            for _ in range(n - 1):
                cls = rng.choice([ACTIVE, PASSIVE, SYBIL])
                voters.append((cls, Fraction(rng.randint(-15, 15))))
            prof = build_profile(DomainSpec.interval(r), voters)
            tau = prof.sigma + Fraction(rng.randint(0, 2), 4)
            ana = analyze(prof, tau)
            assert ana.z <= ana.h_star + ana.d_star

    def test_worked_example_verdicts(self, delegation_population):
        # The instance verdicts all check out on the worked example; they
        # are per-instance reports, since exact half-splits in the weighted
        # median can push the outcome below the status quo.
        ana = analyze(delegation_population, Fraction(1, 4))
        assert ana.envelope_holds is True
        assert ana.range_holds is True
        assert ana.j_bound_holds is True
        assert ana.envelope_holds is not None  # tau (1/4) matches sigma (1/4)

    def test_verdicts_flag_knife_edges(self):
        # Two voters astride the status quo, no virtual mass: the
        # weighted-median formula picks the lower one, so the outcome dips below r
        # and the range verdict reports it.
        prof = interval_profile(0, active=(-10, 10))
        ana = analyze(prof, 0)
        assert ana.z == -10
        assert ana.range_holds is False


class TestNearestEntityProperty:
    def test_outcome_is_nearest_entity_to_population_median(self):
        rng = random.Random(9)
        for _ in range(500):
            n = rng.randint(1, 24)
            r = Fraction(rng.randint(-4, 4))
            voters = [(ACTIVE, Fraction(rng.randint(-15, 15)))]
            for _ in range(n - 1):
                cls = rng.choice([ACTIVE, PASSIVE, SYBIL])
                voters.append((cls, Fraction(rng.randint(-15, 15))))
            prof = build_profile(DomainSpec.interval(r), voters)
            tau = rng.choice([Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)])
            z = md_proxy(prof, tau)
            entries = [(b, Fraction(1)) for _, b in prof.voters]
            entries.append((r, tau * prof.n))
            m = weighted_median(entries)
            assert z == nearest_entity_to(prof, tau, m)


class TestSampleAndRun:
    def test_full_sample_equals_full_participation(self):
        prof = interval_profile(4, active=(2, 5, 9, 11), sybil=(15,))
        tau = Fraction(1, 2)
        z, _ = sample_and_run(prof, n_plus=4, re_tau=tau, seed=1)
        assert z == apply(Mechanism("md", re_tau=tau, participation="full"), prof)

    def test_single_active_two_outcomes(self):
        prof = interval_profile(0, active=[7] * 6)
        for seed in range(5):
            z, _ = sample_and_run(prof, n_plus=1, re_tau=0, seed=seed)
            assert z in (Fraction(0), Fraction(7))

    def test_seed_determinism(self, delegation_population):
        a = sample_and_run(delegation_population, 4, Fraction(1, 4), seed=33)
        b = sample_and_run(delegation_population, 4, Fraction(1, 4), seed=33)
        assert a == b

    def test_seed_sequence_substreams_differ(self, delegation_population):
        seeds = [np.random.SeedSequence(entropy=5, spawn_key=(t,)) for t in range(8)]
        outcomes = {sample_and_run(delegation_population, 3, 0, s)[0] for s in seeds}
        assert len(outcomes) > 1

    def test_sample_too_large(self, delegation_population):
        with pytest.raises(SampleTooLarge):
            sample_and_run(delegation_population, 10, 0, seed=0)
