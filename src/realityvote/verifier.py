"""Definitional brute-force checks: outcome ranges, safety, liveness,
worst-case search, and the adversarial constructions behind the lower
bounds.

Everything here evaluates the definitions directly on small finite
instances; the closed-form module is validated against these results, not
the other way around.  Enumeration is over count tables and ballot-count
multisets (the binary worst case builds no voter list), which is
exhaustive because every implemented rule is anonymous.  The binary worst
case evaluates one outcome per visible proposal count and asks the base
side only for proposal outcomes (see min_alpha).

One least-cost search (``_least_cost``) on honest and sybil ballot counts
answers every reachability question: how many additions does it take to
make this alternative the outcome?  Reachable sets grow with the budget,
so that one number answers every budget: finite outcome ranges, the least
safe alpha of a profile and the liveness budget all read it.  Removals are
enumerated exhaustively over the honest ballot types; added voters cast
only the target's support ballots (``_support_ballots``): the target
itself, one target-first ranking, or, for the status quo under ranking
ballots, every r-first ranking.  Swapping any added ballot for a support
ballot never hurts the target, so the restriction loses nothing.  With one
support ballot s, a removal of an honest voter on s and an addition on s
cancel into the tally one budget lower, which the upward walk has already
rejected; so those voters are never removed, and no tally is evaluated
twice.  On the line the range is an interval, found from sentinel movers
(``_interval_ranges``), and the search walks the budget upward as on every
other domain: the first budget whose interval holds the target answers.  A
yes/no question at one budget (as ``is_live`` asks) is that search capped
at the budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from . import rules
from .betweenness import BetweenRegion, between, between_union
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
    HONEST_CLASSES,
    Ballot,
    CountTable,
    DomainSpec,
    NonatomicProfile,
    Profile,
    Rational,
    VoterClass,
    _counted_profile,
    as_fraction,
    ballot_counts,
    build_profile,
    project_to_pair,
)
from .rules import Mechanism, Tally

_WORK_LIMIT = 5_000_000  # tallies per reachability search before giving up


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


def _split(mechanism: Mechanism, counts: CountTable) -> Tuple[Dict, Dict]:
    """Ballot counts of the visible (modifiable) honest voters and the sybils."""
    if mechanism.participation == "proxy":
        raise MechanismMismatch("outcome ranges for proxy mechanisms are not enumerable")
    honest = ballot_counts(
        counts, (c for c in rules.visible_classes(mechanism) if c is not VoterClass.SYBIL)
    )
    if None in honest:
        raise MissingPrivateBallots("modifiable honest voters need ballots")
    return honest, counts[VoterClass.SYBIL]


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


def _least_cost(
    mechanism: Mechanism,
    domain: DomainSpec,
    honest_counts: Dict[Ballot, int],
    sybil_counts: Dict[Ballot, int],
    target: Ballot,
    cap: int,
) -> Optional[int]:
    """The least budget y at which an honest modification (x <= y removals,
    y additions) elects the target, or None above cap.

    Additions run outermost, so the first electing tally answers; removals
    are enumerated exhaustively over the honest ballot types and additions
    spread over the target's support ballots (see _support_ballots).

    With one support ballot s, removing a voter who casts s and adding one
    back leaves the electorate and every count as they were: that tally is
    the one with neither change, at one budget lower, which the walk has
    already evaluated and rejected.  So the honest voters on s are never
    removed; they join the fixed counts.  This drops only repeated tallies
    and assumes nothing about the rule.  With several support ballots (r
    under rankings) a removal from one support ballot plus an addition on
    another is a new tally, so the enumeration stays whole there; testing a
    per-removal set of cancelling pairs on every search won only 1 of 10
    fresh-interpreter oracle_sweep pairs.

    The search gives up after _WORK_LIMIT tallies.  On the line the walk
    reads the reachable interval at each budget (_interval_ranges).
    """
    if domain.kind == "interval":
        ranges = _interval_ranges(mechanism, domain, honest_counts, sybil_counts)
        for y, (lo, hi) in zip(range(cap + 1), ranges):
            if BetweenRegion(kind="interval", lo=lo, hi=hi).contains(target):
                return y
        return None
    ranked = domain.kind == "categorical" and any(isinstance(b, tuple) for b in honest_counts)
    support = _support_ballots(domain, ranked, target)
    bins = len(support)
    evaluate = rules._rule(mechanism, domain)
    stay = support[0] if bins == 1 else None  # its honest voters are never removed
    fixed = dict(sybil_counts)
    if stay in honest_counts:
        fixed[stay] = fixed.get(stay, 0) + honest_counts[stay]
    types = sorted((t for t in honest_counts if t != stay), key=repr)
    bounds = [honest_counts[t] for t in types]
    h = sum(bounds)
    per_voter, unit = mechanism.re_tau.numerator, mechanism.re_tau.denominator
    work = 0
    for y in range(cap + 1):
        spreads = [[(ballot, added) for ballot, added in zip(support, spread) if added]
                   for spread in _bounded_compositions(y, (y,) * bins)]
        for x in range(min(y, h) + 1):
            for removal in _bounded_compositions(x, bounds):
                base = dict(fixed)
                for t, kept, taken in zip(types, bounds, removal):
                    if kept - taken:
                        base[t] = base.get(t, 0) + kept - taken
                q = per_voter * (sum(base.values()) + y)
                for spread in spreads:
                    work += 1
                    if work > _WORK_LIMIT:
                        raise BudgetExceeded(
                            f"reachability search too large ({len(honest_counts)} honest "
                            f"ballot types, {bins} support ballots, budget {cap})"
                        )
                    counts = dict(base)
                    for ballot, added in spread:
                        counts[ballot] = counts.get(ballot, 0) + added
                    if evaluate(mechanism, Tally(counts, q, unit), domain) == target:
                        return y
    return None


_BIG_STEP = 1_000_000


def _interval_ranges(
    mechanism: Mechanism,
    domain: DomainSpec,
    honest_counts: Dict[Fraction, int],
    sybil_counts: Dict[Fraction, int],
) -> Iterator[Tuple[Optional[Fraction], Optional[Fraction]]]:
    """Extremes of the reachable median set via sentinel movers, at budget
    0, 1, 2, ... in turn: budget y adds the splits with y additions.

    For a fixed number of removals and additions, parking the movers past
    all existing positions dominates any farther placement for a (weighted)
    median, and removing from the opposite tail dominates other removal
    choices.  The removal/addition split matters on its own, though: the
    virtual status-quo mass scales with the electorate, so keeping an
    original voter and adding a mover can beat replacing (extra mass breaks
    a status-quo tie).  Hence the sweep over all splits.  A sentinel
    outcome means the range is unbounded on that side.

    Every split is evaluated on one sorted integer index of the honest
    positions: the evaluated electorate is a contiguous slice of it plus
    the sybils plus a mover block at a sentinel, so the median reads it
    through its order statistics (_order_locator) with a few int
    operations and no prefix array.
    """
    r = domain.status_quo_position
    rules._rule(mechanism, domain)  # MechanismMismatch unless a line rule
    scale = rules.position_scale([*honest_counts, *sybil_counts, r])

    def voters(counts: Dict[Fraction, int]) -> List[int]:  # scaled, ascending
        return sorted(x for p, k in counts.items() for x in [rules.scaled(p, scale)] * k)

    ordered, fixed = voters(honest_counts), voters(sybil_counts)
    r_x = rules.scaled(r, scale)
    top = max(map(abs, [*ordered, *fixed, r_x])) + _BIG_STEP * scale  # the sentinel
    h = len(ordered)
    # Masses in units of tau's denominator: a voter weighs `unit`, the
    # virtual mass of an electorate of e voters is tau.numerator * e.
    unit, q_per_voter = mechanism.re_tau.denominator, mechanism.re_tau.numerator

    def evaluate(start: int, stop: int, movers: int, at: int) -> int:
        """Outcome on ordered[start:stop] plus `movers` voters at `at`."""
        electorate = stop - start + movers + len(fixed)
        q = q_per_voter * electorate
        total = electorate * unit + q
        if total <= 0:
            raise EmptyElectorate("median of an empty electorate")
        least = _order_locator(ordered, start, stop, fixed, movers, at, top, r_x, unit, q)
        return rules.suppressed_median_at(mechanism.base_tau, least, total, r_x)

    lo = hi = evaluate(0, h, 0, top)
    for additions in itertools.count():
        for removals in range(min(additions, h) + 1):
            hi = max(hi, evaluate(removals, h, additions, top))
            lo = min(lo, evaluate(0, h - removals, additions, -top))
        yield (None if lo <= -top else Fraction(lo, scale),
               None if hi >= top else Fraction(hi, scale))


def _order_locator(
    ordered: Sequence[int], start: int, stop: int, fixed: Sequence[int],
    movers: int, at: int, top: int, r_x: int, unit: int, q: int,
) -> rules.Locator:
    """rules.locate for the electorate ordered[start:stop] + fixed + movers
    at `at` (-top or top), each voter weighing `unit`, with the virtual
    mass q at r_x; the candidates are its positions, r_x and -top and top.

    A target t is reached by the voters alone at the ceil(t / 2unit)-th
    smallest voter, and with q at the first voter at or above r_x that
    brings the count to ceil((t - 2q) / 2unit).  The k-th smallest voter is
    the movers' block or a select over the two ascending lists.
    """
    size = stop - start + len(fixed)
    low = movers if at < 0 else 0  # movers before the lists

    def nth(k: int) -> int:
        """The k-th smallest voter; -top below the first, top past the last."""
        k -= low
        if k <= 0:
            return -top
        if k > size:
            return top
        # i of the k from the slice and k - i from fixed: the least i whose
        # next slice voter is not below fixed's (k - i)-th
        i, i_hi = max(0, k - len(fixed)), min(k, stop - start)
        while i < i_hi:
            mid = (i + i_hi) // 2
            if ordered[start + mid] < fixed[k - mid - 1]:
                i = mid + 1
            else:
                i_hi = mid
        return max(ordered[start + i - 1] if i else -top, fixed[k - i - 1] if i < k else -top)

    two_unit, two_q = 2 * unit, 2 * q

    def least(target: int) -> int:
        x = nth(-(-target // two_unit))
        if not q:
            return x
        return min(x, max(r_x, nth(-(-(target - two_q) // two_unit))))

    return least


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
    honest_counts, sybil_counts = _split(mechanism, profile.counts)
    budget = int(gamma * sum(honest_counts.values()))

    if domain.kind == "interval":
        ranges = _interval_ranges(mechanism, domain, honest_counts, sybil_counts)
        lo, hi = next(itertools.islice(ranges, budget, None))
        return OutcomeRange(gamma=gamma, budget=budget, kind="interval", lo=lo, hi=hi)

    reachable = frozenset(
        t for t in domain.alternative_list()
        if _least_cost(mechanism, domain, honest_counts, sybil_counts, t, budget) is not None
    )
    return OutcomeRange(gamma=gamma, budget=budget, kind="finite", reachable=reachable)


# Cache: safety ranges are re-queried heavily with identical honest multisets.
_range_cache: Dict[tuple, OutcomeRange] = {}


def _cached_range(mechanism: Mechanism, profile: Profile, gamma: Fraction) -> OutcomeRange:
    honest, sybils = _split(mechanism, profile.counts)
    key = (
        mechanism,
        profile.domain,
        frozenset(honest.items()),
        frozenset(sybils.items()),
        int(as_fraction(gamma) * sum(honest.values())),
    )
    hit = _range_cache.get(key)
    if hit is None:
        hit = outcome_range(mechanism, profile, gamma)
        if len(_range_cache) > 200_000:
            _range_cache.clear()
        _range_cache[key] = hit
    return hit


def honest_only(profile: Profile) -> Profile:
    """The honest sub-population (validated voters filtered), for evaluating
    the base rule on H; it shares the profile's honest count rows."""
    if not profile.has_full_honest_ballots():
        raise MissingPrivateBallots("safety needs passive voters' private ballots")
    honest = tuple(v for v in profile.voters if v[0] is not VoterClass.SYBIL)
    return _counted_profile(profile.domain, honest, {**profile.counts, VoterClass.SYBIL: {}})


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


def min_alpha_for_profile(mechanism: Mechanism, base: Mechanism, profile: Profile) -> Fraction:
    """Smallest alpha (a multiple of one over the honest count) at which this
    profile passes the safety check (see _least_safe_alpha)."""
    z = rules.apply(mechanism, profile)
    honest_counts, _ = _split(base, honest_only(profile).counts)
    h = profile.n_honest
    return Fraction(_least_safe_alpha(base, profile.domain, z, honest_counts, h), h)


def _least_safe_alpha(
    base: Mechanism, domain: DomainSpec, z: Ballot, honest_counts: Dict[Ballot, int], h: int
) -> int:
    """Least alpha, as a numerator over the h honest voters, at which outcome
    z is safe against the base rule on the honest ballot counts it sees: 0
    when z is between r and the base outcome m0, else the least _least_cost
    over targets t with z between r and t (on the line z alone: every
    reachable set is an interval holding m0).  A cost of c of the v voters
    the base rule sees is granted at ceil(c*h/v)/h."""
    visible, r = sum(honest_counts.values()), domain.r
    m0 = rules.evaluate_tally(base, rules._cast_tally(base, honest_counts, visible), domain)
    if between(domain, r, m0).contains(z):
        return 0
    cost = visible + 1
    for t in [z] if domain.kind == "interval" else domain.alternative_list():
        if between(domain, r, t).contains(z):
            found = _least_cost(base, domain, honest_counts, {}, t, cost - 1)
            cost = cost if found is None else found
    if cost > visible:
        raise BudgetExceeded("profile not safe even after replacing every honest voter")
    return -(-cost * h // visible)


def _shape_counts(shape: Tuple[int, Rational, Rational]) -> Tuple[int, int, int]:
    n, sigma, mu = shape
    (s, s_rest), (hm, hm_rest) = (
        divmod(x.numerator * n, x.denominator) for x in map(as_fraction, (sigma, mu)))
    if s_rest or hm_rest:
        raise UnrealizableShape(f"shape {shape} has no integer realization")
    if s < 0 or hm < 0 or s + hm >= n:
        raise UnrealizableShape("shape needs at least one active honest voter")
    return n, s, hm


def _binary_ballots(domain: DomainSpec, on_p: int, size: int) -> Dict[Ballot, int]:
    """{p: on_p, r: size - on_p} without zero counts."""
    return {b: k for b, k in ((domain.proposal, on_p), (domain.status_quo, size - on_p)) if k}


def _binary_profile(
    domain: DomainSpec, k_active_p: int, h_plus: int, j_passive_p: int, h_minus: int,
    s_p: int, s: int,
) -> Profile:
    """k of h_plus honest actives, j of h_minus passives' private votes and
    s_p of s sybils on the proposal, the rest on r: class by class, the
    proposal first."""
    classes = zip(VoterClass, (k_active_p, j_passive_p, s_p), (h_plus, h_minus, s))
    return build_profile(domain, [
        (cls, ballot) for cls, on_p, size in classes
        for ballot, k in _binary_ballots(domain, on_p, size).items() for _ in range(k)])


def _check_binary(mechanism: Mechanism, domain: DomainSpec) -> None:
    """MechanismMismatch unless _binary_outcome can run the mechanism."""
    if mechanism.participation == "proxy":  # it reads voter order
        raise MechanismMismatch("proxy participation is median-on-interval only")
    rules._rule(mechanism, domain)


def _binary_outcome(mechanism: Mechanism, domain: DomainSpec, on_p: int, voters: int) -> Ballot:
    """rules.apply on that many visible binary voters, on_p on p, after _check_binary."""
    tally = rules._cast_tally(mechanism, _binary_ballots(domain, on_p, voters), voters)
    return rules.evaluate_tally(mechanism, tally, domain)


def min_alpha(
    mechanism: Mechanism, base: Mechanism, shape: Tuple[int, Rational, Rational]
) -> Fraction:
    """Worst case over every binary profile of the given shape of the minimal
    safe alpha.  Honest actives, passive private votes, and sybil ballots are
    all enumerated; nothing is assumed about where the worst case lies.

    The shape fixes the visible electorate (n under full participation,
    h+ + s otherwise), so an anonymous binary rule's outcome z is a function
    of the visible proposal count, k + j + s_p or k + s_p: it is evaluated
    once per count.  The status quo is safe at alpha 0, so the base side is
    asked only for z = p, once per proposal count the base sees among the
    honest voters (k + j, or k for an active-only base): within a shape that
    count fixes the answer, an int numerator over the h honest voters."""
    domain = DomainSpec.binary()
    n, s, hm = _shape_counts(shape)
    h_plus, h = n - s - hm, n - s
    # Check the base up front (an all-r walk never asks it), then the mechanism.
    _split(base, dict.fromkeys(VoterClass, {}))
    rules._rule(base, domain)
    _check_binary(mechanism, domain)
    mech_sees_passive, base_sees_passive = (
        VoterClass.HONEST_PASSIVE in rules.visible_classes(m) for m in (mechanism, base))
    electorate = n if mech_sees_passive else h_plus + s
    base_visible = h if base_sees_passive else h_plus
    outcomes: Dict[int, Ballot] = {}  # visible proposal count -> z
    answers: Dict[int, int] = {}  # base-visible proposal count -> alpha * h for z = p
    for k, j, s_p in itertools.product(range(h_plus + 1), range(hm + 1), range(s + 1)):
        seen = k + j + s_p if mech_sees_passive else k + s_p
        z = outcomes.get(seen)
        if z is None:
            z = outcomes[seen] = _binary_outcome(mechanism, domain, seen, electorate)
        key = k + j if base_sees_passive else k
        if z != domain.status_quo and key not in answers:
            honest = _binary_ballots(domain, key, base_visible)
            answers[key] = _least_safe_alpha(base, domain, z, honest, h)
    return Fraction(max(answers.values(), default=0), h)


def visible_honest(mechanism: Mechanism, shape: Tuple[int, Rational, Rational]) -> int:
    """Honest voters of the shape the mechanism sees (the liveness budget's
    unit): the actives under active-only restriction, else every one."""
    n, s, hm = _shape_counts(shape)
    return n - s - hm if mechanism.participation == "active" else n - s


def _live_cost(
    mechanism: Mechanism, shape: Tuple[int, Rational, Rational], target: Ballot,
    domain: Optional[DomainSpec], cap: int,
) -> Optional[int]:
    """The most, over every sybil placement that can block the target, of
    the target's least cost, or None once a placement holds it off within
    cap.

    Every honest voter starts on the status quo (an r-first ranking for
    Condorcet rules).  On the line both ends of the range are nondecreasing
    in each sybil's position, so every sybil far below (lowest top end) or
    far above (highest bottom end) blocks whatever any placement blocks."""
    _split(mechanism, dict.fromkeys(VoterClass, {}))  # refuses proxy participation
    domain = domain or DomainSpec.binary()
    _, s, _ = _shape_counts(shape)
    target = domain.validate_ballot(target, allow_ranking=False)
    r = domain.r
    if domain.kind == "interval":
        far = (abs(target) + abs(r) + 1) * 2 + _BIG_STEP
        placements = [{-far: s}, {far: s}] if s else [{}]
    else:
        candidates = domain.alternative_list()
        if mechanism.base in rules.RANKING_RULES and domain.kind == "categorical":
            r = (r, *[a for a in candidates if a != r])  # r first, the rest in order
            candidates = tuple(itertools.permutations(candidates))
        placements = [
            {c: k for c, k in zip(candidates, combo) if k}
            for combo in _bounded_compositions(s, (s,) * len(candidates))
        ]
    honest_counts = {r: visible_honest(mechanism, shape)}
    worst = 0
    for sybils in placements:
        cost = _least_cost(mechanism, domain, honest_counts, sybils, target, cap)
        if cost is None:
            return None
        worst = max(worst, cost)
    return worst


def is_live(
    mechanism: Mechanism,
    shape: Tuple[int, Rational, Rational],
    target: Ballot,
    beta: Rational,
    domain: Optional[DomainSpec] = None,
) -> bool:
    """Can the honest voters reach the target against every sybil placement
    (see _live_cost) within beta times the visible honest count?"""
    visible = visible_honest(mechanism, shape)
    beta = as_fraction(beta)
    if beta < 0:
        raise DegenerateParams("beta must be nonnegative")
    return _live_cost(mechanism, shape, target, domain, int(beta * visible)) is not None


def smallest_live_beta(
    mechanism: Mechanism,
    shape: Tuple[int, Rational, Rational],
    target: Ballot,
    domain: Optional[DomainSpec] = None,
    max_units: int = 64,
) -> Fraction:
    """Least multiple of 1/(visible honest count) at which is_live holds:
    the most, over sybil placements, of the least cost of the target."""
    cost = _live_cost(mechanism, shape, target, domain, max_units)
    if cost is None:
        raise BudgetExceeded(f"no feasible liveness budget up to {max_units} voters")
    return Fraction(cost, visible_honest(mechanism, shape))


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
        params={"n": n, "epsilon": eps, "epsilon_prime": eps_prime, "tau": tau, "alpha": alpha},
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


def replay_witness(witness: AdversarialWitness, tau: Rational = 0) -> bool:
    """Re-run a witness through the rules: confirm it exhibits the violation
    it claims.  Returns True when the construction checks out.  ``tau``
    applies to the pair constructions only: the knife edge replays at the tau
    and alpha it was built for."""
    if witness.construction == "safety-knife-edge":
        tau, alpha = witness.params["tau"], witness.params["alpha"]
        mech = Mechanism(base="mj", re_tau=tau, participation="active")
        base = Mechanism(base="mj")
        profile = witness.profile
        elected_p = rules.apply(mech, profile) == profile.domain.proposal
        return elected_p and not is_safe(mech, base, profile, alpha)
    if witness.construction == "indistinguishable-pair":
        v, v_bar = witness.profile_pair
        mech = Mechanism(base="mj", re_tau=tau, participation="active")
        same_tally = rules.build_tally(mech, v.counts) == rules.build_tally(mech, v_bar.counts)
        same_outcome = rules.apply(mech, v) == rules.apply(mech, v_bar)
        honest_r = ballot_counts(v_bar.counts, HONEST_CLASSES).get(v_bar.domain.status_quo, 0)
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


def reduction_check(profile: Profile, tau: Rational, alpha: Rational) -> bool:
    """If the RE median mechanism breaks alpha-safety on this instance, the
    projected two-point contest must break alpha-safety of the RE majority
    mechanism as well; returns that implication's truth (vacuously true when
    the median mechanism stays safe).  The contest is between z and the
    bound of the safe region on z's side, which keeps the status-quo role."""
    tau, alpha = as_fraction(tau), as_fraction(alpha)
    mech = Mechanism(base="md", re_tau=tau, participation="active")
    base = Mechanism(base="md")

    z = rules.apply(mech, profile)
    base_range = _cached_range(base, honest_only(profile), alpha)
    region = base_range.safe_region(profile.domain)
    if region.contains(z):
        return True  # no violation on the interval side

    bound = region.hi if region.hi is not None and z > region.hi else region.lo
    projected = project_to_pair(profile, bound, z)
    bin_mech = Mechanism(base="mj", re_tau=tau, participation="active")
    bin_base = Mechanism(base="mj")
    return not is_safe(bin_mech, bin_base, projected, alpha)
