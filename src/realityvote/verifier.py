"""Definitional brute-force checks: outcome ranges, safety, liveness,
worst-case search, and the adversarial constructions behind the lower
bounds.

Everything here evaluates the definitions directly on small finite
instances; the closed-form module is validated against these results, not
the other way around.  Enumeration is over ballot-count multisets, which is
exhaustive because every implemented rule is anonymous.

On finite domains one targeted search (``_can_reach``) answers every
reachability question: is this alternative the outcome of some
modification of at most the budget's honest voters?  The outcome range is
the set of alternatives, status quo included, for which it answers yes,
and liveness asks it for the target against every sybil ballot multiset.
Removals are enumerated exhaustively over the honest ballot types; added
voters cast only the target's support ballots (``_support_ballots``): the
target itself, one target-first ranking, or, for the status quo under
ranking ballots, every r-first ranking.  Swapping any added ballot for a
support ballot never hurts the target, so the restriction loses nothing.
On the line the range is an interval, found from sentinel movers
(``_interval_range``).
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from . import rules
from .betweenness import BetweenRegion, between_union
from .errors import (
    BudgetExceeded,
    DegenerateParams,
    EmptyElectorate,
    MechanismMismatch,
    MissingPrivateBallots,
    RegimeMismatch,
    UnrealizableShape,
)
from .population import (
    Ballot,
    DomainSpec,
    NonatomicProfile,
    Profile,
    Rational,
    VoterClass,
    as_fraction,
    build_profile,
    project_to_pair,
)
from .rules import Mechanism, Tally

ENUM_CAP_ENV = "REALITYVOTE_ENUM_CAP"
DEFAULT_ENUM_CAP = 10
_WORK_LIMIT = 5_000_000  # tallies per reachability search before giving up


def enumeration_cap() -> int:
    """Instance-size cap for the exhaustive commands, env-overridable."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        return int(raw)
    except ValueError:
        raise BudgetExceeded(f"bad {ENUM_CAP_ENV} value {raw!r}") from None


@dataclass(frozen=True)
class OutcomeRange:
    """All outcomes reachable by modifying at most a gamma fraction of the
    (visible) honest voters, sybils held fixed.

    Finite domains carry the explicit reachable set.  On the line the
    reachable outcomes form a closed interval (any point between the two
    extremes is hit by parking movers on it), stored as lo/hi with None
    encoding an unbounded ray.
    """

    gamma: Fraction
    budget: int
    kind: str  # "finite" | "interval"
    reachable: Optional[FrozenSet[Ballot]] = None
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None

    def contains(self, a: Ballot) -> bool:
        if self.kind == "finite":
            return a in self.reachable
        return BetweenRegion(kind="interval", lo=self.lo, hi=self.hi).contains(a)

    def safe_region(self, domain: DomainSpec) -> BetweenRegion:
        """B(r; this range): everything between the status quo and some
        reachable outcome."""
        r = domain.r
        if self.kind == "finite":
            return between_union(domain, r, self.reachable)
        lo = None if self.lo is None else min(as_fraction(r), self.lo)
        hi = None if self.hi is None else max(as_fraction(r), self.hi)
        return BetweenRegion(kind="interval", lo=lo, hi=hi)


# ---------------------------------------------------------------------------
# Count-multiset enumeration.


def _bounded_compositions(
    total: int, bounds: Sequence[int]
) -> Iterator[Tuple[int, ...]]:
    """All ways to split ``total`` across bins with per-bin caps."""
    if not bounds:
        if total == 0:
            yield ()
        return
    if len(bounds) == 1:
        if total <= bounds[0]:
            yield (total,)
        return
    head = min(total, bounds[0])
    for first in range(head + 1):
        for rest in _bounded_compositions(total - first, bounds[1:]):
            yield (first,) + rest


def _candidate_ballots(domain: DomainSpec, ranked: bool) -> Tuple[Ballot, ...]:
    if domain.kind == "categorical" and ranked:
        return tuple(itertools.permutations(domain.alternatives))
    return domain.alternative_list()


def _split_profile(mechanism: Mechanism, profile: Profile):
    """The honest ballots the budget may rewrite, plus the fixed sybil part."""
    if mechanism.participation == "proxy":
        raise MechanismMismatch("outcome ranges for proxy mechanisms are not enumerable")
    honest: List[Ballot] = []
    for cls, ballot in profile.voters:
        if cls is VoterClass.SYBIL:
            continue
        if cls is VoterClass.HONEST_PASSIVE and mechanism.participation == "active":
            continue  # invisible to the mechanism, not modifiable
        if ballot is None:
            raise MissingPrivateBallots("modifiable honest voters need ballots")
        honest.append(ballot)
    return honest, list(profile.sybil_ballots())


def _count_map(ballots: Sequence[Ballot]) -> Dict[Ballot, int]:
    counts: Dict[Ballot, int] = {}
    for b in ballots:
        counts[b] = counts.get(b, 0) + 1
    return counts


def _support_ballots(
    domain: DomainSpec, ranked: bool, target: Ballot
) -> Tuple[Ballot, ...]:
    """The ballots added voters cast when pushing toward the target.

    Swapping an added ballot for one of these never hurts the target, so
    restricting additions to them is lossless for reaching it:

    * single choices and hypercube points: the target itself, which weakly
      raises the target's count (or target-side count on every coordinate);
    * rankings, target other than r: one target-first ranking.  The target
      wins only by beating everyone, and moving it to the top of a ballot
      only raises its support in each of its contests;
    * rankings, target r: every r-first ranking.  r wins when no challenger
      beats everyone; moving r to the top never helps a challenger, but the
      order of the others decides which challengers an added ballot holds
      back, so additions are spread over all of these orders.
    """
    if not ranked:
        return (target,)
    others = [a for a in domain.alternative_list() if a != target]
    if target != domain.r:
        return (tuple([target] + others),)
    return tuple((target,) + rest for rest in itertools.permutations(others))


def _can_reach(
    mechanism: Mechanism,
    domain: DomainSpec,
    honest_counts: Dict[Ballot, int],
    sybil_counts: Dict[Ballot, int],
    budget: int,
    target: Ballot,
) -> bool:
    """Is the target an outcome of some honest modification within budget?

    Removals of x voters are enumerated exhaustively over the honest ballot
    types; for each, every y in [x, budget] additions is spread over the
    target's support ballots (see _support_ballots).  The search gives up
    after evaluating _WORK_LIMIT tallies.
    """
    if domain.kind == "interval":
        raise MechanismMismatch("use the interval range for reach queries")
    ranked = domain.kind == "categorical" and any(
        isinstance(b, tuple) for b in honest_counts
    )
    support = _support_ballots(domain, ranked, target)
    bins = len(support)
    types = sorted(honest_counts, key=repr)
    bounds = [honest_counts[t] for t in types]
    h = sum(bounds)
    work = 0
    for x in range(min(budget, h) + 1):
        for removal in _bounded_compositions(x, bounds):
            base = dict(sybil_counts)
            for t, kept, taken in zip(types, bounds, removal):
                if kept - taken:
                    base[t] = base.get(t, 0) + kept - taken
            electorate = sum(base.values())
            for y in range(x, budget + 1):
                q = mechanism.re_tau * (electorate + y)
                for spread in _bounded_compositions(y, (y,) * bins):
                    work += 1
                    if work > _WORK_LIMIT:
                        raise BudgetExceeded(
                            f"reachability search too large ({len(types)} honest "
                            f"ballot types, {bins} support ballots, budget {budget})"
                        )
                    counts = dict(base)
                    for ballot, added in zip(support, spread):
                        if added:
                            counts[ballot] = counts.get(ballot, 0) + added
                    tally = Tally(counts=counts, q=q)
                    if rules.evaluate_tally(mechanism, tally, domain) == target:
                        return True
    return False


_BIG_STEP = 1_000_000


def _interval_range(
    mechanism: Mechanism,
    domain: DomainSpec,
    honest: Sequence[Fraction],
    sybils: Sequence[Fraction],
    budget: int,
) -> Tuple[Optional[Fraction], Optional[Fraction]]:
    """Extremes of the reachable median set via sentinel movers.

    For a fixed number of removals and additions, parking the movers past
    all existing positions dominates any farther placement for a (weighted)
    median, and removing from the opposite tail dominates other removal
    choices.  The removal/addition split matters on its own, though: the
    virtual status-quo mass scales with the electorate, so keeping an
    original voter and adding a mover can beat replacing (extra mass breaks
    a status-quo tie).  Hence the sweep over all splits.  A sentinel
    outcome means the range is unbounded on that side.

    Every split is evaluated on one sorted integer index of the honest
    positions: the evaluated electorate is a contiguous slice of it plus a
    sentinel block plus the sybils, so a prefix mass is two bisections.
    """
    r = domain.status_quo_position
    spread = [abs(p) for p in honest] + [abs(p) for p in sybils] + [abs(r)]
    sentinel = max(spread) + _BIG_STEP
    scale = rules.position_scale([*honest, *sybils, r, sentinel])
    ordered = sorted(rules.scaled(p, scale) for p in honest)
    fixed = sorted(rules.scaled(p, scale) for p in sybils)
    r_x, top = rules.scaled(r, scale), rules.scaled(sentinel, scale)
    xs = sorted({*ordered, *fixed, r_x, top, -top})
    h = len(ordered)
    # Masses in units of tau's denominator: a voter weighs `unit`, the
    # virtual mass of an electorate of e voters is tau.numerator * e.
    unit, q_per_voter = mechanism.re_tau.denominator, mechanism.re_tau.numerator

    def evaluate(start: int, stop: int, movers: int, at: int) -> int:
        """Outcome on ordered[start:stop] plus `movers` voters at `at`."""
        electorate = stop - start + movers + len(fixed)
        q = q_per_voter * electorate

        def prefix(i: int) -> int:
            x = xs[i]
            count = min(max(bisect.bisect_right(ordered, x), start), stop) - start
            count += bisect.bisect_right(fixed, x)
            if x >= at:
                count += movers
            return count * unit + (q if x >= r_x else 0)

        return _index_outcome(mechanism, xs, prefix, electorate * unit + q, r_x)

    lo = hi = evaluate(0, h, 0, top)
    for removals in range(min(budget, h) + 1):
        for additions in range(removals, budget + 1):
            hi = max(hi, evaluate(removals, h, additions, top))
            lo = min(lo, evaluate(0, h - removals, additions, -top))
    hi_out = None if hi >= top else Fraction(hi, scale)
    lo_out = None if lo <= -top else Fraction(lo, scale)
    return lo_out, hi_out


def _index_outcome(
    mechanism: Mechanism, xs: Sequence[int], prefix, total: int, r: int
) -> int:
    """The md or som base rule on a sorted integer index (see
    rules.median_at), the virtual mass already in the prefix."""
    if total <= 0:
        raise EmptyElectorate("median of an empty electorate")
    if mechanism.base == "md":
        return rules.median_at(xs, prefix, total, r)
    if mechanism.base == "som":
        return rules.suppressed_median_at(mechanism.base_tau, xs, prefix, total, r)
    raise MechanismMismatch(
        f"base rule {mechanism.base!r} does not apply to interval domains"
    )


def outcome_range(
    mechanism: Mechanism, profile: Profile, gamma: Rational
) -> OutcomeRange:
    """R-bar_gamma: outcomes over all honest modifications within budget.

    The modifiable set is the honest voters the mechanism can see (all of
    them under full participation, the actives otherwise); new voters are
    active.  The integer budget is floor(gamma * |modifiable|): replacing a
    voter costs one, and once every original is replaced the remaining
    budget adds net voters.
    """
    gamma = as_fraction(gamma)
    if gamma < 0:
        raise DegenerateParams("gamma must be nonnegative")
    domain = profile.domain
    honest, sybils = _split_profile(mechanism, profile)
    budget = int(gamma * len(honest))

    if domain.kind == "interval":
        lo, hi = _interval_range(mechanism, domain, honest, sybils, budget)
        return OutcomeRange(
            gamma=gamma, budget=budget, kind="interval", lo=lo, hi=hi
        )

    honest_counts = _count_map(honest)
    sybil_counts = _count_map(sybils)
    reachable = frozenset(
        t
        for t in domain.alternative_list()
        if _can_reach(mechanism, domain, honest_counts, sybil_counts, budget, t)
    )
    return OutcomeRange(gamma=gamma, budget=budget, kind="finite", reachable=reachable)


# Cache: safety ranges are re-queried heavily with identical honest multisets.
_range_cache: Dict[tuple, OutcomeRange] = {}


def _cached_range(mechanism: Mechanism, profile: Profile, gamma: Fraction) -> OutcomeRange:
    honest, sybils = _split_profile(mechanism, profile)
    key = (
        mechanism,
        profile.domain,
        tuple(sorted(_count_map(honest).items(), key=repr)),
        tuple(sorted(_count_map(sybils).items(), key=repr)),
        int(as_fraction(gamma) * len(honest)),
    )
    hit = _range_cache.get(key)
    if hit is None:
        hit = outcome_range(mechanism, profile, gamma)
        if len(_range_cache) > 200_000:
            _range_cache.clear()
        _range_cache[key] = hit
    return hit


def honest_only(profile: Profile) -> Profile:
    """The honest sub-population, for evaluating the base rule on H."""
    if not profile.has_full_honest_ballots():
        raise MissingPrivateBallots("safety needs passive voters' private ballots")
    return build_profile(
        profile.domain,
        [(c, b) for c, b in profile.voters if c is not VoterClass.SYBIL],
    )


def is_safe(
    mechanism: Mechanism,
    base: Mechanism,
    profile: Profile,
    alpha: Rational,
) -> bool:
    """Does the mechanism's outcome sit between the status quo and something
    the base rule could reach on the honest voters within budget alpha?"""
    outcome = rules.apply(mechanism, profile)
    base_range = _cached_range(base, honest_only(profile), as_fraction(alpha))
    return base_range.safe_region(profile.domain).contains(outcome)


def min_alpha_for_profile(
    mechanism: Mechanism, base: Mechanism, profile: Profile
) -> Fraction:
    """Smallest alpha (a multiple of one over the honest count) at which this
    profile passes the safety check."""
    h = profile.n_honest
    for movers in range(h + 1):
        alpha = Fraction(movers, h)
        if is_safe(mechanism, base, profile, alpha):
            return alpha
    raise BudgetExceeded("profile not safe even after replacing every honest voter")


def _shape_counts(shape: Tuple[int, Rational, Rational]) -> Tuple[int, int, int]:
    n, sigma, mu = shape
    sigma, mu = as_fraction(sigma), as_fraction(mu)
    s, hm = sigma * n, mu * n
    if s.denominator != 1 or hm.denominator != 1:
        raise UnrealizableShape(f"shape {shape} has no integer realization")
    s, hm = int(s), int(hm)
    if s < 0 or hm < 0 or s + hm >= n:
        raise UnrealizableShape("shape needs at least one active honest voter")
    return n, s, hm


def _binary_profile(
    domain: DomainSpec, k_active_p: int, h_plus: int, j_passive_p: int, h_minus: int,
    s_p: int, s: int,
) -> Profile:
    r, p = domain.status_quo, domain.proposal
    voters = []
    voters += [(VoterClass.HONEST_ACTIVE, p)] * k_active_p
    voters += [(VoterClass.HONEST_ACTIVE, r)] * (h_plus - k_active_p)
    voters += [(VoterClass.HONEST_PASSIVE, p)] * j_passive_p
    voters += [(VoterClass.HONEST_PASSIVE, r)] * (h_minus - j_passive_p)
    voters += [(VoterClass.SYBIL, p)] * s_p
    voters += [(VoterClass.SYBIL, r)] * (s - s_p)
    return build_profile(domain, voters)


def min_alpha(
    mechanism: Mechanism,
    base: Mechanism,
    shape: Tuple[int, Rational, Rational],
    domain: Optional[DomainSpec] = None,
) -> Fraction:
    """Worst case over every profile of the given shape of the minimal safe
    alpha.  Honest actives, passive private votes, and sybil ballots are all
    enumerated; nothing is assumed about where the worst case lies."""
    domain = domain or DomainSpec.binary()
    if domain.kind != "binary":
        raise BudgetExceeded("shape-level worst-case search is binary-only")
    n, s, hm = _shape_counts(shape)
    h_plus = n - s - hm
    worst = Fraction(0)
    for k in range(h_plus + 1):
        for j in range(hm + 1):
            for s_p in range(s + 1):
                profile = _binary_profile(domain, k, h_plus, j, hm, s_p, s)
                worst = max(
                    worst, min_alpha_for_profile(mechanism, base, profile)
                )
    return worst


def is_live(
    mechanism: Mechanism,
    shape: Tuple[int, Rational, Rational],
    target: Ballot,
    beta: Rational,
    domain: Optional[DomainSpec] = None,
) -> bool:
    """Liveness on the worst-case population: everyone starts on the status
    quo, and the sybil ballots are then re-enumerated adversarially.  The
    budget is measured against the honest voters the mechanism sees."""
    domain = domain or DomainSpec.binary()
    n, s, hm = _shape_counts(shape)
    h_plus = n - s - hm
    r = domain.r
    target = domain.validate_ballot(target, allow_ranking=False)
    beta = as_fraction(beta)

    if domain.kind == "interval":
        # A sybil's pull on a weighted median is monotone in its position,
        # so blocking is hardest with all sybils parked at one extreme (or
        # on the status quo); the three pure placements cover the worst
        # case.
        sentinel = (abs(as_fraction(target)) + abs(r) + 1) * 2 + _BIG_STEP
        for block in (-sentinel, r, sentinel):
            voters = [(VoterClass.HONEST_ACTIVE, r)] * h_plus
            voters += [(VoterClass.HONEST_PASSIVE, r)] * hm
            voters += [(VoterClass.SYBIL, as_fraction(block))] * s
            profile = build_profile(domain, voters)
            if not _cached_range(mechanism, profile, beta).contains(target):
                return False
        return True

    ranked = mechanism.base in ("cc", "scc")
    if ranked:
        # "Everyone on r" for ranking ballots: r first, the rest in order.
        others = [a for a in domain.alternative_list() if a != r]
        r_ballot: Ballot = tuple([r] + others)
    else:
        r_ballot = r
    visible_honest = h_plus if mechanism.participation == "active" else h_plus + hm
    budget = int(beta * visible_honest)
    honest_counts = {r_ballot: visible_honest} if visible_honest else {}
    candidates = _candidate_ballots(domain, ranked=ranked)
    for sybil_combo in _bounded_compositions(s, (s,) * len(candidates)):
        sybil_counts: Dict[Ballot, int] = {}
        for cand, count in zip(candidates, sybil_combo):
            if count:
                sybil_counts[cand] = sybil_counts.get(cand, 0) + count
        if not _can_reach(
            mechanism, domain, honest_counts, sybil_counts, budget, target
        ):
            return False
    return True


def smallest_live_beta(
    mechanism: Mechanism,
    shape: Tuple[int, Rational, Rational],
    target: Ballot,
    domain: Optional[DomainSpec] = None,
    max_units: int = 64,
) -> Fraction:
    """Least multiple of 1/(visible honest count) at which is_live holds."""
    domain = domain or DomainSpec.binary()
    n, s, hm = _shape_counts(shape)
    units = n - s - hm if mechanism.participation == "active" else n - s
    for b in range(max_units + 1):
        beta = Fraction(b, units)
        if is_live(mechanism, shape, target, beta, domain):
            return beta
    raise BudgetExceeded(f"no feasible liveness budget up to {max_units} voters")


# ---------------------------------------------------------------------------
# Lower-bound witnesses.


@dataclass(frozen=True)
class AdversarialWitness:
    """A concrete profile (or indistinguishable pair) realizing a proof's
    adversarial construction, with the construction's internal parameters."""

    construction: str
    violated: str
    profile: Optional[Profile] = None
    profile_pair: Optional[Tuple[Profile, Profile]] = None
    nonatomic_pair: Optional[Tuple[NonatomicProfile, NonatomicProfile]] = None
    params: Optional[dict] = None


def tightness_witness(construction: str, **params) -> AdversarialWitness:
    """Instantiate a lower-bound proof's construction.

    * ``safety-knife-edge``: a finite profile on which the RE majority
      mechanism elects the proposal while the honest outcome range pins the
      status quo, violating alpha-safety for any alpha below the threshold.
    * ``indistinguishable-pair``: a finite pair (V, V-bar) with identical
      visible tallies whose second profile has a weak honest majority for
      the status quo; exists whenever 3*sigma + 2*mu >= 1.
    * ``random-indistinguishable-pair``: the nonatomic analogue under
      random participation, for 3*sigma + mu >= 1.
    """
    if construction == "safety-knife-edge":
        return _knife_edge_witness(**params)
    if construction == "indistinguishable-pair":
        return _pair_witness(**params)
    if construction == "random-indistinguishable-pair":
        return _random_pair_witness(**params)
    raise RegimeMismatch(f"no construction implemented for {construction!r}")


def _knife_edge_witness(
    sigma: Rational, mu: Rational, tau: Rational, alpha: Rational
) -> AdversarialWitness:
    from .guarantees import Setting, safety_threshold

    sigma, mu = as_fraction(sigma), as_fraction(mu)
    tau, alpha = as_fraction(tau), as_fraction(alpha)
    bound = safety_threshold(Setting.ARBITRARY_BINARY, sigma, mu, tau)
    if alpha >= bound:
        raise RegimeMismatch(f"alpha {alpha} is not below the safety threshold {bound}")
    eps = bound - alpha
    base_frac = ((1 + tau) * (1 - mu) - 2 * sigma) / 2
    denom = math.lcm(sigma.denominator, mu.denominator)
    n = denom
    while True:
        if n > 100_000:
            raise BudgetExceeded("witness would need an implausibly large electorate")
        s, hm = int(sigma * n), int(mu * n)
        h_plus = n - s - hm
        k = max(0, math.floor(base_frac * n) + 1)  # least count above the knife edge
        eps_prime = Fraction(k, n) - base_frac
        if 0 < eps_prime < eps * (1 - sigma) and k <= h_plus:
            break
        n += denom
    domain = DomainSpec.binary()
    profile = _binary_profile(domain, k, h_plus, 0, hm, s, s)
    return AdversarialWitness(
        construction="safety-knife-edge",
        violated=f"{alpha}-safety of the RE majority mechanism",
        profile=profile,
        params={
            "n": n,
            "epsilon": eps,
            "epsilon_prime": eps_prime,
            "tau": tau,
            "alpha": alpha,
        },
    )


def _pair_witness(sigma: Rational, mu: Rational) -> AdversarialWitness:
    sigma, mu = as_fraction(sigma), as_fraction(mu)
    if 3 * sigma + 2 * mu < 1:
        raise RegimeMismatch("the pair construction needs 3*sigma + 2*mu >= 1")
    if sigma + mu >= 1:
        raise DegenerateParams("sigma + mu must stay below 1")
    n = math.lcm(sigma.denominator, mu.denominator)
    s, hm = int(sigma * n), int(mu * n)
    h_plus = n - s - hm
    domain = DomainSpec.binary()
    # V: sybils on r, every active honest voter on p (the liveness profile).
    v = _binary_profile(domain, h_plus, h_plus, 0, hm, 0, s)
    # V-bar: shift min(h+, s) p-votes onto sybils; visible tallies match.
    s_bar_p = min(h_plus, s)
    v_bar = _binary_profile(domain, h_plus - s_bar_p, h_plus, 0, hm, s_bar_p, s)
    return AdversarialWitness(
        construction="indistinguishable-pair",
        violated="0-safety and 1-liveness jointly (indistinguishable pair)",
        profile_pair=(v, v_bar),
        params={"n": n, "s_bar_p": s_bar_p, "h_bar_p": h_plus - s_bar_p},
    )


def _random_pair_witness(sigma: Rational, mu: Rational) -> AdversarialWitness:
    sigma, mu = as_fraction(sigma), as_fraction(mu)
    if 3 * sigma + mu < 1:
        raise RegimeMismatch("the nonatomic pair construction needs 3*sigma + mu >= 1")
    if sigma + mu >= 1:
        raise DegenerateParams("sigma + mu must stay below 1")
    h = 1 - sigma
    phi = (1 - mu - sigma) / (1 - sigma)
    v = NonatomicProfile(h_r=Fraction(0), h_p=h, s_r=sigma, s_p=Fraction(0), participation=phi)
    s_bar_p = min(phi * h, sigma)
    h_bar_p = h - s_bar_p / phi
    v_bar = NonatomicProfile(
        h_r=h - h_bar_p,
        h_p=h_bar_p,
        s_r=sigma - s_bar_p,
        s_p=s_bar_p,
        participation=phi,
    )
    return AdversarialWitness(
        construction="random-indistinguishable-pair",
        violated="0-safety and 1-liveness jointly under random participation",
        nonatomic_pair=(v, v_bar),
        params={"phi": phi, "s_bar_p": s_bar_p, "h_bar_p": h_bar_p},
    )


def nonatomic_eval(profile: NonatomicProfile, tau: Rational) -> str:
    """RE majority on a nonatomic binary population; 'p' only when the
    active proposal mass strictly beats the status-quo side plus the
    virtual mass, ties to 'r'."""
    tau = as_fraction(tau)
    q = tau * profile.visible_mass
    p_mass = profile.active_honest_p + profile.s_p
    r_mass = profile.active_honest_r + profile.s_r + q
    return "p" if p_mass > r_mass else "r"


def replay_witness(witness: AdversarialWitness, tau: Rational = 0, alpha: Rational = 0) -> bool:
    """Re-run a witness through the rules: confirm it exhibits the violation
    it claims.  Returns True when the construction checks out."""
    if witness.construction == "safety-knife-edge":
        tau = witness.params["tau"]
        alpha = witness.params["alpha"]
        mech = Mechanism(base="mj", re_tau=tau, participation="active")
        base = Mechanism(base="mj")
        profile = witness.profile
        elected_p = rules.apply(mech, profile) == profile.domain.proposal
        return elected_p and not is_safe(mech, base, profile, alpha)
    if witness.construction == "indistinguishable-pair":
        v, v_bar = witness.profile_pair
        mech = Mechanism(base="mj", re_tau=tau, participation="active")
        same_tally = rules.build_tally(mech, v).counts == rules.build_tally(mech, v_bar).counts
        same_outcome = rules.apply(mech, v) == rules.apply(mech, v_bar)
        honest_r = sum(
            1 for c, b in v_bar.voters
            if c is not VoterClass.SYBIL and b == v_bar.domain.status_quo
        )
        weak_majority_r = 2 * honest_r >= v_bar.n_honest
        return same_tally and same_outcome and weak_majority_r
    if witness.construction == "random-indistinguishable-pair":
        v, v_bar = witness.nonatomic_pair
        tau = as_fraction(tau)
        same_visible = (
            v.active_honest_p + v.s_p == v_bar.active_honest_p + v_bar.s_p
            and v.active_honest_r + v.s_r == v_bar.active_honest_r + v_bar.s_r
        )
        same_outcome = nonatomic_eval(v, tau) == nonatomic_eval(v_bar, tau)
        weak_majority_r = v_bar.h_r >= v_bar.h_p
        return same_visible and same_outcome and weak_majority_r
    raise RegimeMismatch(f"cannot replay {witness.construction!r}")


# ---------------------------------------------------------------------------
# Median-to-majority reduction check.


def _mirror_interval_profile(profile: Profile) -> Profile:
    r = profile.domain.status_quo_position
    return build_profile(
        DomainSpec.interval(r),
        [
            (c, None if b is None else 2 * r - as_fraction(b))
            for c, b in profile.voters
        ],
    )


def reduction_check(profile: Profile, tau: Rational, alpha: Rational) -> bool:
    """If the RE median mechanism breaks alpha-safety on this instance, the
    projected two-point contest must break alpha-safety of the RE majority
    mechanism as well; returns that implication's truth (vacuously true when
    the median mechanism stays safe)."""
    tau, alpha = as_fraction(tau), as_fraction(alpha)
    mech = Mechanism(base="md", re_tau=tau, participation="active")
    base = Mechanism(base="md")
    r = profile.domain.status_quo_position

    z = rules.apply(mech, profile)
    base_range = _cached_range(base, honest_only(profile), alpha)
    region = base_range.safe_region(profile.domain)
    if region.contains(z):
        return True  # no violation on the interval side

    if region.hi is not None and z > region.hi:
        work, a, target = profile, region.hi, z
    else:
        work = _mirror_interval_profile(profile)
        a, target = 2 * r - region.lo, 2 * r - z
    projected = project_to_pair(work, a, target)
    bin_mech = Mechanism(base="mj", re_tau=tau, participation="active")
    bin_base = Mechanism(base="mj")
    return not is_safe(bin_mech, bin_base, projected, alpha)
