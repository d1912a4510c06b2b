"""Differential tests of the sorted-integer interval kernels.

Each library result is compared with a slow reference written here from
the definitions: medians by sorting Fractions, delegation voter by voter
against every proxy, and outcome ranges by rebuilding every modified
electorate.
"""

import bisect
import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realityvote import (
    DomainSpec,
    Mechanism,
    analyze,
    build_profile,
    delegate,
    md_proxy,
    outcome_range,
    sample_and_run,
)
from realityvote import rules
from realityvote.montecarlo import Experiment, run_proxy_whp
from realityvote.proxy import ProxyAnalysis, ProxyEntity
from realityvote.verifier import _order_locator, honest_only

from conftest import ACTIVE, PASSIVE, SYBIL

F = Fraction
SENTINEL_STEP = 1_000_000
CHECKS = settings(max_examples=150, deadline=None, derandomize=True)

# Small grids of rationals: duplicates, voters on r and exact midpoints
# between two proxies come up often.
POSITIONS = st.builds(F, st.integers(-8, 8), st.sampled_from([1, 1, 2, 3]))
TAUS = st.sampled_from([F(0), F(1, 5), F(1, 4), F(1, 3), F(1, 2)])


@st.composite
def interval_profiles(draw, classes=(ACTIVE, PASSIVE, SYBIL), max_voters=10):
    r = draw(POSITIONS)
    position = st.one_of(POSITIONS, st.just(r))
    voters = [(ACTIVE, draw(position))]
    voters += draw(
        st.lists(st.tuples(st.sampled_from(classes), position), max_size=max_voters - 1)
    )
    return build_profile(DomainSpec.interval(r), draw(st.permutations(voters)))


def profile(r, active=(), passive=(), sybil=()):
    voters = [(ACTIVE, F(x)) for x in active]
    voters += [(PASSIVE, F(x)) for x in passive]
    voters += [(SYBIL, F(x)) for x in sybil]
    return build_profile(DomainSpec.interval(F(r)), voters)


# ---------------------------------------------------------------------------
# Reference rules: sorted-Fraction medians.


def ref_median_bounds(masses):
    items = sorted((p, m) for p, m in masses.items() if m)
    total = sum(m for _, m in items)
    lo = hi = None
    prefix = 0
    for pos, mass in items:
        prefix += mass
        if lo is None and 2 * prefix >= total:
            lo = pos
        if hi is None and 2 * prefix > total:
            hi = pos
    return lo, hi


def ref_median_sq(masses, r):
    lo, hi = ref_median_bounds(masses)
    return max(lo, min(r, hi))


def ref_outcome(mechanism, positions, r):
    """md or som with the RE virtual mass on a list of voter positions."""
    masses = Counter(positions)
    masses[r] += mechanism.re_tau * len(positions)
    m = ref_median_sq(masses, r)
    if mechanism.base == "md" or m == r:
        return m
    cut = mechanism.base_tau * sum(masses.values())
    items = sorted((p, w) for p, w in masses.items() if w)
    if m > r:
        items.reverse()
    kept = Counter()
    for pos, mass in items:
        trimmed = min(cut, mass)
        cut -= trimmed
        kept[pos] += mass - trimmed
    if not any(kept.values()):
        return r
    m_reduced = ref_median_sq(kept, r)
    return m_reduced if (m_reduced > r) == (m > r) and m_reduced != r else r


def modifiable(mechanism, prof):
    return [
        b
        for c, b in prof.voters
        if c is ACTIVE or (c is PASSIVE and mechanism.participation == "full")
    ]


def sentinel(prof):
    spread = [abs(b) for _, b in prof.voters] + [abs(prof.domain.status_quo_position)]
    return max(spread) + SENTINEL_STEP


def unbounded(lo, hi, big):
    return (None if lo <= -big else lo), (None if hi >= big else hi)


def ref_sweep_range(mechanism, prof, budget):
    """Every (removals, additions) electorate rebuilt as a voter list:
    removals from one tail, the movers parked past the other."""
    r = prof.domain.status_quo_position
    honest = sorted(modifiable(mechanism, prof))
    sybils = [b for c, b in prof.voters if c is SYBIL]
    big, h = sentinel(prof), len(honest)
    hi = lo = ref_outcome(mechanism, honest + sybils, r)
    for removals in range(min(budget, h) + 1):
        for additions in range(removals, budget + 1):
            top = honest[removals:] + [big] * additions + sybils
            bottom = [-big] * additions + honest[: h - removals] + sybils
            hi = max(hi, ref_outcome(mechanism, top, r))
            lo = min(lo, ref_outcome(mechanism, bottom, r))
    return unbounded(lo, hi, big)


def ref_voter_range(mechanism, prof, budget):
    """Every removal subset and every multiset of movers on the existing
    positions, r and the two sentinels."""
    r = prof.domain.status_quo_position
    honest = modifiable(mechanism, prof)
    sybils = [b for c, b in prof.voters if c is SYBIL]
    big = sentinel(prof)
    spots = sorted({b for _, b in prof.voters} | {r, big, -big})
    outcomes = set()
    for x in range(min(budget, len(honest)) + 1):
        for removed in itertools.combinations(range(len(honest)), x):
            kept = [b for i, b in enumerate(honest) if i not in removed]
            for y in range(x, budget + 1):
                for added in itertools.combinations_with_replacement(spots, y):
                    outcomes.add(ref_outcome(mechanism, kept + list(added) + sybils, r))
    return unbounded(min(outcomes), max(outcomes), big)


MODES = st.sampled_from(["full", "active"])
MECHANISMS = st.one_of(
    st.builds(Mechanism, base=st.just("md"), re_tau=TAUS, participation=MODES),
    st.builds(
        Mechanism,
        base=st.just("som"),
        base_tau=st.sampled_from([F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3)]),
        re_tau=TAUS,
        participation=MODES,
    ),
)


def library_range(mechanism, prof, budget):
    units = len(modifiable(mechanism, prof))
    found = outcome_range(mechanism, prof, F(budget, units))
    assert found.budget == budget
    return found.lo, found.hi


@CHECKS
@given(mechanism=MECHANISMS, prof=interval_profiles(), budget=st.integers(0, 7))
@example(
    mechanism=Mechanism("som", base_tau=F(1, 3), re_tau=F(1, 4)),
    prof=profile(F(1, 2), active=(F(-3, 2), 2, 2, 5), sybil=(-4, 3)),
    budget=3,
)
@example(
    mechanism=Mechanism("md", re_tau=F(1, 3), participation="active"),
    prof=profile(0, active=(1, F(7, 3)), passive=(-2,), sybil=(-6, 6, 6)),
    budget=7,
)
def test_outcome_range_matches_rebuilt_sweep(mechanism, prof, budget):
    want = ref_sweep_range(mechanism, prof, budget)
    assert library_range(mechanism, prof, budget) == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    mechanism=MECHANISMS,
    prof=interval_profiles(classes=(ACTIVE, SYBIL), max_voters=6),
    budget=st.integers(0, 2),
)
def test_outcome_range_matches_voter_level_enumeration(mechanism, prof, budget):
    if len(modifiable(mechanism, prof)) > 4:
        budget = min(budget, 1)
    want = ref_voter_range(mechanism, prof, budget)
    assert library_range(mechanism, prof, budget) == want


# ---------------------------------------------------------------------------
# The outcome range's order-statistic locator against a prefix bisection.


def prefix_locator(ordered, start, stop, fixed, movers, at, top, r_x, unit, q):
    """rules.locate over every candidate position, with the prefix mass of
    ordered[start:stop] + fixed + movers at `at` counted by bisection."""
    xs = sorted({*ordered, *fixed, r_x, top, -top})

    def prefix(i):
        x = xs[i]
        count = min(max(bisect.bisect_right(ordered, x), start), stop) - start
        count += bisect.bisect_right(fixed, x) + (movers if x >= at else 0)
        return count * unit + (q if x >= r_x else 0)

    return rules.locate(xs, prefix)


SCALED = st.integers(-8, 8)


@CHECKS
@given(
    honest=st.lists(SCALED, min_size=1, max_size=6),
    sybils=st.lists(SCALED, max_size=4),
    r_x=SCALED,
    re_tau=TAUS,
    base_tau=st.sampled_from([F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3)]),
    budget=st.integers(0, 4),
)
# sybils all below the honest voters, all above them, one on an honest position
@example(honest=[3, 5, 7], sybils=[-4, -2], r_x=0, re_tau=F(1, 5), base_tau=F(0), budget=3)
@example(honest=[1, 2, 4], sybils=[6, 8], r_x=3, re_tau=F(1, 3), base_tau=F(0), budget=3)
@example(honest=[2, 5, 5], sybils=[5], r_x=0, re_tau=F(1, 4), base_tau=F(1, 4), budget=2)
# r on a voter; one honest voter
@example(honest=[1, 3, 6], sybils=[], r_x=3, re_tau=F(1, 2), base_tau=F(0), budget=3)
@example(honest=[4], sybils=[-1, 7], r_x=0, re_tau=F(1, 5), base_tau=F(1, 3), budget=2)
# som trimming from the top (median above r) and from the bottom (below r)
@example(honest=[4, 6, 8, 8], sybils=[7], r_x=0, re_tau=F(1, 5), base_tau=F(1, 3), budget=2)
@example(honest=[-8, -6, -4, -4], sybils=[-7], r_x=0, re_tau=F(1, 5), base_tau=F(1, 3),
         budget=2)
def test_order_locator_matches_prefix_bisection(honest, sybils, r_x, re_tau, base_tau, budget):
    # Every split the outcome range evaluates, at every target a median can
    # ask for (0 included: the first candidate), and the som median read
    # through either locator.
    ordered, fixed = sorted(honest), sorted(sybils)
    top = 8 + SENTINEL_STEP
    h = len(ordered)
    unit, per_voter = re_tau.denominator, re_tau.numerator
    splits = [(0, h, 0, top)]
    for additions in range(budget + 1):
        for removals in range(min(additions, h) + 1):
            splits += [(removals, h, additions, top), (0, h - removals, additions, -top)]
    for start, stop, movers, at in splits:
        electorate = stop - start + movers + len(fixed)
        q = per_voter * electorate
        total = electorate * unit + q
        args = (ordered, start, stop, fixed, movers, at, top, r_x, unit, q)
        got, want = _order_locator(*args), prefix_locator(*args)
        assert got(0) == -top
        assert [got(t) for t in range(2 * total + 1)] == [want(t) for t in range(2 * total + 1)]
        assert rules.suppressed_median_at(base_tau, got, total, r_x) == (
            rules.suppressed_median_at(base_tau, want, total, r_x))


# ---------------------------------------------------------------------------
# Reference delegation: every passive voter against every proxy.


def ref_delegate(voters, r, tau, include_status_quo=True, r_unit_weight=False):
    actives = [b for c, b in voters if c is not PASSIVE]
    pool = set(actives) | ({r} if include_status_quo else set())
    followers = Counter()
    for c, b in voters:
        if c is PASSIVE:
            # nearest; then nearer r; then the lower one
            followers[min(pool, key=lambda a: (abs(b - a), abs(a - r), a))] += 1
    entities = [ProxyEntity(position=b, weight=1 + followers.pop(b, 0)) for b in actives]
    if include_status_quo:
        weight = (1 if r_unit_weight else 0) + tau * len(voters) + followers.pop(r, 0)
        entities.append(ProxyEntity(position=r, weight=weight, is_status_quo=True))
    return entities


def ref_md_proxy(voters, r, tau, r_unit_weight=False):
    masses = Counter()
    for entity in ref_delegate(voters, r, tau, r_unit_weight=r_unit_weight):
        masses[entity.position] += entity.weight
    return ref_median_bounds(masses)[0]


def ref_analyze(voters, r, tau):
    if ref_median_sq(Counter(b for c, b in voters if c is not SYBIL), r) < r:
        voters = [(c, 2 * r - b) for c, b in voters]
    n = len(voters)
    honest = [b for c, b in voters if c is not SYBIL]
    passives = [b for c, b in voters if c is PASSIVE]
    active_honest = [b for c, b in voters if c is ACTIVE]
    actives = [b for c, b in voters if c is not PASSIVE]

    h_star = ref_median_sq(Counter(honest), r)
    nearest = min(actives, key=lambda a: (abs(a - h_star), abs(a - r), a))
    d_star = abs(nearest - h_star)
    masses = Counter(b for _, b in voters)
    masses[r] += tau * n
    h_hat = ref_median_sq(masses, r)
    above = [p for p in active_honest if p >= h_hat]
    below = [p for p in active_honest if p <= h_hat]
    bar = min(above) if above else None
    z = ref_md_proxy(voters, r, tau)

    def count(a, b):
        if b < a:
            return -count(b, a)
        return sum(1 for p in passives if a < p <= b)

    j_hat = count(h_hat, bar) if bar is not None else sum(1 for p in passives if p > h_hat)
    sigma = F(n - len(honest), n)
    return ProxyAnalysis(
        r=r,
        n=n,
        n_honest=len(honest),
        h_star=h_star,
        nearest_active_position=nearest,
        d_star=d_star,
        h_hat=h_hat,
        h_hat_bar=bar,
        h_hat_under=max(below) if below else None,
        z=z,
        j_hat=abs(j_hat),
        envelope_holds=(r <= z <= h_star + d_star) if tau >= sigma else None,
        range_holds=r <= z and (bar is None or z <= bar),
        j_bound_holds=h_hat == r or count(h_star, h_hat) <= (sigma - tau) / 2 * n,
    )


def ref_trial(prof, n_plus, seed):
    """The trial population sample_and_run draws from a seed."""
    honest = [b for c, b in prof.voters if c is not SYBIL]
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.Philox(seed))
    chosen = set(rng.choice(len(honest), size=n_plus, replace=False).tolist())
    voters = [(ACTIVE if i in chosen else PASSIVE, b) for i, b in enumerate(honest)]
    return voters + [(SYBIL, b) for c, b in prof.voters if c is SYBIL]


# Midpoint ties below r (5 between 2 and 8, r = 10), above r (5 between
# 2 and 8, r = 0) and on r (0 between -2 and 2, when r is no proxy); an
# active voter on r; a template mirrored (h* < r).
TIE_BELOW_R = profile(10, active=(2, 8), passive=(5, 5, 9))
TIE_ON_R = profile(0, active=(-2, 2), passive=(0, 1))
TIE_ABOVE_R = profile(0, active=(2, 8), passive=(5, -1), sybil=(8,))
ACTIVE_ON_R = profile(
    F(1, 2), active=(F(1, 2), 3), passive=(F(1, 2), F(7, 4), -1), sybil=(-2,)
)
MIRRORED = profile(4, active=(-3, 1, 6), passive=(F(-1, 2), 0, 2, F(5, 2)), sybil=(9, 9))


@CHECKS
@given(prof=interval_profiles(), tau=TAUS)
@example(prof=TIE_BELOW_R, tau=F(0))
@example(prof=TIE_ABOVE_R, tau=F(1, 4))
@example(prof=TIE_ON_R, tau=F(0))
@example(prof=ACTIVE_ON_R, tau=F(1, 3))
@example(prof=MIRRORED, tau=F(1, 5))
def test_delegation_matches_per_voter_reference(prof, tau):
    r, voters = prof.domain.status_quo_position, list(prof.voters)
    for include_status_quo in (True, False):
        for r_unit_weight in (False, True):
            got = delegate(prof, tau, include_status_quo, r_unit_weight).entities
            want = ref_delegate(voters, r, tau, include_status_quo, r_unit_weight)
            assert list(got) == want
    for r_unit_weight in (False, True):
        want = ref_md_proxy(voters, r, tau, r_unit_weight)
        assert md_proxy(prof, tau, r_unit_weight) == want
    assert analyze(prof, tau) == ref_analyze(voters, r, tau)


@CHECKS
@given(
    prof=interval_profiles(),
    tau=TAUS,
    share=st.fractions(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
@example(prof=MIRRORED, tau=F(1, 5), share=F(1, 2), seed=7)
@example(prof=TIE_BELOW_R, tau=F(0), share=F(1, 2), seed=3)
def test_sample_and_run_matches_reference_trial(prof, tau, share, seed):
    h = prof.n_honest
    n_plus = max(1, min(h, round(share * h)))
    r = prof.domain.status_quo_position
    voters = ref_trial(prof, n_plus, seed)
    z, analysis = sample_and_run(prof, n_plus, tau, seed)
    assert z == ref_md_proxy(voters, r, tau)
    assert analysis == ref_analyze(voters, r, tau)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    prof=interval_profiles(classes=(ACTIVE, SYBIL)),
    tau=TAUS,
    c=st.sampled_from([F(1, 20), F(1, 3)]),
)
# A mirrored template (h* = 1 < r = 4), and one where j-hat is c * h = 1
# exactly in 9 of the 12 trials.
@example(prof=profile(4, active=(0, 1, 5), sybil=(0,)), tau=F(1, 5), c=F(1, 20))
@example(prof=profile(1, active=(2, 5, 5, 7), sybil=(3, -2)), tau=F(0), c=F(1, 4))
def test_run_proxy_whp_counts_match_reference_trials(prof, tau, c):
    exp = Experiment(
        profile=prof,
        mechanism=Mechanism("md", re_tau=tau, participation="proxy"),
        base=Mechanism("md"),
        alpha_prime=F(1, 20),
        trials=12,
        seed=11,
        n_plus=max(1, prof.n_honest // 2),
    )
    stats = run_proxy_whp(exp, c)
    alpha_prime = c + max(F(0), (prof.sigma - tau) / (2 * (1 - prof.sigma)))
    region = outcome_range(Mechanism("md"), honest_only(prof), alpha_prime).safe_region(
        prof.domain
    )
    r = prof.domain.status_quo_position
    violations = y_failures = 0
    for trial in range(exp.trials):
        seed = np.random.SeedSequence(entropy=exp.seed, spawn_key=(trial,))
        voters = ref_trial(prof, exp.n_plus, seed)
        violations += not region.contains(ref_md_proxy(voters, r, tau))
        y_failures += ref_analyze(voters, r, tau).j_hat > c * prof.n_honest
    assert (stats.violation_count, stats.y_failure_count) == (violations, y_failures)
