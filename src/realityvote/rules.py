"""Base voting rules, the reality-enforcing wrapper, and active-only restriction.

Every rule returns a single alternative and settles ties toward the status
quo.  The reality-enforcing wrapper adds a virtual vote mass ``q`` for the
status quo before the base rule runs; ``q`` is kept as an exact rational
(tau times the visible electorate), never rounded to a whole number of
voters, which keeps the supermajority and suppressed-median equivalences
exact on knife-edge profiles.
A tally sums a population's count table (``population.CountTable``) over
the voter classes the participation mode shows (``visible_classes``).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .errors import (
    EmptyElectorate,
    MechanismMismatch,
    MissingPrivateBallots,
    NonRankingBallot,
)
from .population import (
    Ballot, CountTable, DomainSpec, Profile, Rational, VoterClass, as_fraction, ballot_counts
)

PARTICIPATION_MODES = ("full", "active", "proxy")
THRESHOLD_RULES = ("smj", "scc", "som")  # the base rules that take a tau
_EVERY_CLASS = tuple(VoterClass)
_ACTIVE_CLASSES = (VoterClass.HONEST_ACTIVE, VoterClass.SYBIL)


@dataclass(frozen=True)
class Mechanism:
    """A base rule, its own threshold (if any), the RE parameter, and the
    participation treatment.

    ``re_tau`` is the reality-enforcing tau; 0 means no wrapper.  ``base_tau``
    parameterizes smj/scc/som and must stay 0 for the other base rules.
    """

    base: str
    base_tau: Fraction = Fraction(0)
    re_tau: Fraction = Fraction(0)
    participation: str = "full"

    def __post_init__(self):
        if self.base not in BASE_RULES:
            raise MechanismMismatch(f"unknown base rule {self.base!r}")
        if self.participation not in PARTICIPATION_MODES:
            raise MechanismMismatch(f"unknown participation mode {self.participation!r}")
        object.__setattr__(self, "base_tau", as_fraction(self.base_tau))
        object.__setattr__(self, "re_tau", as_fraction(self.re_tau))
        if self.base_tau < 0 or self.re_tau < 0:
            raise MechanismMismatch("tau parameters must be nonnegative")
        if self.base_tau and self.base not in THRESHOLD_RULES:
            raise MechanismMismatch(f"base rule {self.base!r} takes no threshold")
        if self.base == "som" and not self.base_tau < 1:
            raise MechanismMismatch("suppression fraction must lie in [0, 1)")

    def describe(self) -> str:
        name = self.base
        if self.base in THRESHOLD_RULES:
            name = f"{self.base}:{self.base_tau}"
        if self.re_tau:
            name += f" re:{self.re_tau}"
        return f"{name} mode:{self.participation}"


@dataclass(frozen=True)
class Tally:
    """Cast vote masses per alternative plus the virtual status-quo mass q.

    Cast masses are nonnegative integers (counts) and stay ints: the rules
    compare them, or their differences, with q or with one rational
    threshold, which is exact.  q = re_tau times the number of voters
    visible to the mechanism, an exact rational.
    """

    counts: Dict[Ballot, int] = field(default_factory=dict)
    q: Fraction = Fraction(0)

    @property
    def cast_total(self) -> int:
        return sum(self.counts.values())

    def mass(self, alternative: Ballot) -> int:
        return self.counts.get(alternative, 0)


def tally_ballots(ballots: Iterable[Ballot], q: Rational = 0) -> Tally:
    counts: Dict[Ballot, int] = {}
    for ballot in ballots:
        counts[ballot] = counts.get(ballot, 0) + 1
    return Tally(counts=counts, q=as_fraction(q))


# ---------------------------------------------------------------------------
# Weighted medians on a sorted integer index (exact rational masses).
#
# Positions are scaled once to a common integer denominator and masses to
# integers, so every comparison and prefix sum below runs on Python ints;
# rationals come back only at the output boundary.  A weighted median is
# then one bisection over the ascending candidate positions for the least
# one whose inclusive prefix mass reaches a target.

MassEntry = Tuple[Fraction, Rational]  # (position, mass)
Prefix = Callable[[int], int]  # candidate index -> inclusive prefix mass


def position_scale(positions: Iterable[Fraction]) -> int:
    """Least common denominator: every position times it is an integer."""
    return math.lcm(*{p.denominator for p in positions})


def scaled(position: Fraction, scale: int) -> int:
    """A position on the integer index of the given scale."""
    return position.numerator * (scale // position.denominator)


def least_reaching(size: int, prefix: Prefix, target: int, lo: int = 0) -> int:
    """Least candidate index i in [lo, size) with 2 * prefix(i) >= target.

    ``prefix`` must be nondecreasing and reach the target at ``size - 1``.
    """
    return bisect.bisect_left(
        range(size), True, lo=lo, key=lambda i: 2 * prefix(i) >= target
    )


def median_at(xs: Sequence[int], prefix: Prefix, total: int, r: int) -> int:
    """Weighted median with the status-quo tie rule on an integer index.

    ``xs`` are ascending candidate positions (a superset of the support),
    ``prefix(i)`` the mass at positions <= xs[i] and ``total`` the whole
    mass.  The median interval runs from the least position whose prefix
    reaches half the total to the least one whose prefix exceeds it; the
    point of that interval nearest r is returned (for integer masses that
    is literally one extra unit vote at r settling the tie).
    """
    lo = least_reaching(len(xs), prefix, total)
    hi = least_reaching(len(xs), prefix, total + 1, lo)
    return max(xs[lo], min(r, xs[hi]))


def suppressed_median_at(
    tau: Fraction, xs: Sequence[int], prefix: Prefix, total: int, r: int
) -> int:
    """Suppress-outer-votes median on an integer index (see median_at).

    Masses are rescaled by tau's denominator so that the cut, tau of the
    total, is an integer.  Trimming the cut from the top caps the prefix at
    what is kept; trimming it from the bottom shifts the prefix down.
    """
    m = median_at(xs, prefix, total, r)
    if m == r:
        return r
    den = tau.denominator
    cut = tau.numerator * total
    kept = den * total - cut
    if kept <= 0:
        return r
    if m > r:
        trimmed = lambda i: min(den * prefix(i), kept)
    else:
        trimmed = lambda i: max(0, den * prefix(i) - cut)
    m_reduced = median_at(xs, trimmed, kept, r)
    if (m_reduced > r) == (m > r) and m_reduced != r:
        return m_reduced
    return r


def mass_index(entries: Iterable[MassEntry]) -> Tuple[int, List[int], List[int]]:
    """Sorted integer index of (position, mass) entries.

    Returns the position scale (covering every entry, zero masses included),
    the distinct scaled positions of positive mass ascending, and their
    inclusive prefix masses scaled to integers by the masses' common
    denominator.
    """
    # int masses (a tally's counts) stay ints; int.denominator is 1
    entries = [(as_fraction(p), m if type(m) is int else as_fraction(m)) for p, m in entries]
    if any(m < 0 for _, m in entries):
        raise EmptyElectorate("negative mass")
    scale = position_scale(p for p, _ in entries)
    unit = math.lcm(*{m.denominator for _, m in entries})
    masses: Dict[int, int] = {}
    for p, m in entries:
        if m:
            x = scaled(p, scale)
            masses[x] = masses.get(x, 0) + m.numerator * (unit // m.denominator)
    xs = sorted(masses)
    return scale, xs, list(itertools.accumulate(masses[x] for x in xs))


# ---------------------------------------------------------------------------
# Base rules.  Each consumes a Tally built from the visible ballots.


def majority(tally: Tally, domain: DomainSpec) -> Ballot:
    """Binary majority: the proposal wins only by strictly outmassing the
    status quo plus the virtual mass q; ties go to the status quo."""
    r, p = domain.status_quo, domain.proposal
    if tally.mass(p) - tally.mass(r) > tally.q:
        return p
    return r


def supermajority(tau: Fraction, tally: Tally, domain: DomainSpec) -> Ballot:
    """tau-supermajority: elect the (unique) non-status-quo alternative whose
    cast votes strictly exceed a (1/2 + tau) fraction of all votes seen,
    virtual mass included; otherwise keep the status quo."""
    tau = as_fraction(tau)
    r = domain.r
    total = tally.cast_total + tally.q
    threshold = (Fraction(1, 2) + tau) * total
    for alternative in domain.alternative_list():
        if alternative != r and tally.mass(alternative) > threshold:
            return alternative
    return r


def plurality(tally: Tally, domain: DomainSpec) -> Ballot:
    """Most cast votes wins, with q credited to the status quo.  Ties
    involving the status quo keep it; ties among challengers break by the
    domain's alternative order."""
    r = domain.r
    best = max((a for a in domain.alternative_list() if a != r), key=tally.mass)  # first of equals
    return best if tally.mass(best) - tally.mass(r) > tally.q else r


def condorcet_conservative(tau: Fraction, tally: Tally, domain: DomainSpec) -> Ballot:
    """Pick the alternative that tau-super-beats every other; else status quo.

    Ballots must be full rankings.  An alternative beats another when
    strictly more than (1/2 + tau) of the contest's votes prefer it; the
    virtual mass q sides with the status quo in every contest involving it
    and abstains elsewhere.
    """
    tau = as_fraction(tau)
    r = domain.r
    alternatives = domain.alternative_list()
    pref: Dict[Tuple[Ballot, Ballot], int] = {}
    cast = 0
    for ranking, count in tally.counts.items():
        if not isinstance(ranking, tuple):
            raise NonRankingBallot(f"expected a ranking, got {ranking!r}")
        cast += count
        for i, upper in enumerate(ranking):
            for lower in ranking[i + 1 :]:
                pref[(upper, lower)] = pref.get((upper, lower), 0) + count

    def beats(a: Ballot, b: Ballot) -> bool:
        support = pref.get((a, b), 0)
        contest_total = cast
        if r in (a, b):
            contest_total += tally.q
        return support > (Fraction(1, 2) + tau) * contest_total

    for candidate in alternatives:
        if candidate != r and all(beats(candidate, b) for b in alternatives if b != candidate):
            return candidate
    return r


def issuewise_majority(tally: Tally, domain: DomainSpec) -> Ballot:
    """Per-coordinate binary majority with q on the status quo's value and
    per-coordinate ties kept at the status quo.  The winning point may be
    one nobody voted for."""
    cast = tally.cast_total
    result = []
    for j, rj in enumerate(domain.status_quo_point):
        ones = sum(c for b, c in tally.counts.items() if b[j] == 1)
        lead = (2 * ones - cast) * (1 if rj == 0 else -1)  # the other value's lead over rj
        result.append(1 - rj if lead > tally.q else rj)
    return tuple(result)


def _tally_index(
    tally: Tally, domain: DomainSpec
) -> Tuple[int, List[int], List[int], int]:
    """The tally's cast counts plus the virtual mass q at r, indexed; r is
    returned scaled."""
    r = domain.status_quo_position
    scale, xs, cum = mass_index([*tally.counts.items(), (r, tally.q)])
    if not xs:
        raise EmptyElectorate("median of an empty electorate")
    return scale, xs, cum, scaled(r, scale)


def median(tally: Tally, domain: DomainSpec) -> Fraction:
    """Median position of the cast votes plus the virtual mass at r."""
    scale, xs, cum, r = _tally_index(tally, domain)
    return Fraction(median_at(xs, cum.__getitem__, cum[-1], r), scale)


def suppress_outer_median(tau: Fraction, tally: Tally, domain: DomainSpec) -> Fraction:
    """Suppress-outer-votes median.

    Compute the median m; if it sits off the status quo, discard exactly a
    tau fraction of the vote mass from the far side (splitting one voter's
    unit mass if tau times the electorate is fractional), recompute, and
    keep the new median only if it stayed on the same side of r.
    """
    scale, xs, cum, r = _tally_index(tally, domain)
    m = suppressed_median_at(as_fraction(tau), xs, cum.__getitem__, cum[-1], r)
    return Fraction(m, scale)


# ---------------------------------------------------------------------------
# Dispatch.


def visible_classes(mechanism: Mechanism) -> Tuple[VoterClass, ...]:
    """The voter classes whose ballots the mechanism tallies: all of them
    under full participation, the honest actives and sybils otherwise."""
    if mechanism.participation == "full":
        return _EVERY_CLASS
    return _ACTIVE_CLASSES


def build_tally(mechanism: Mechanism, counts: CountTable) -> Tally:
    """A count table's visible classes' ballot counts (see visible_classes)
    plus q, tau times the voters tallied (under proxy participation every
    voter: the proxy mechanism knows how many voters delegated)."""
    cast = ballot_counts(counts, visible_classes(mechanism))
    if None in cast:
        raise MissingPrivateBallots("full participation needs passive voters' ballots")
    electorate = sum(cast.values())
    if mechanism.participation == "proxy":
        electorate = sum(sum(by_ballot.values()) for by_ballot in counts.values())
    return Tally(counts=cast, q=mechanism.re_tau * electorate)


#: Base rule -> (its evaluator on (mechanism, tally, domain), the domain
#: kinds it applies to).  A rule outside THRESHOLD_RULES has base_tau 0, so
#: cc is scc at tau 0.
_RULES: Dict[str, Tuple[Callable[..., Ballot], Tuple[str, ...]]] = {
    "mj": (lambda m, t, d: majority(t, d), ("binary",)),
    "pl": (lambda m, t, d: plurality(t, d), ("categorical",)),
    "smj": (lambda m, t, d: supermajority(m.base_tau, t, d), ("binary", "categorical")),
    "cc": (lambda m, t, d: condorcet_conservative(m.base_tau, t, d), ("categorical",)),
    "scc": (lambda m, t, d: condorcet_conservative(m.base_tau, t, d), ("categorical",)),
    "imj": (lambda m, t, d: issuewise_majority(t, d), ("hypercube",)),
    "md": (lambda m, t, d: median(t, d), ("interval",)),
    "som": (lambda m, t, d: suppress_outer_median(m.base_tau, t, d), ("interval",)),
}
BASE_RULES = tuple(_RULES)


def _rule(mechanism: Mechanism, domain: DomainSpec) -> Callable[..., Ballot]:
    """The base rule's evaluator; MechanismMismatch off its domains."""
    rule, kinds = _RULES[mechanism.base]
    if domain.kind not in kinds:
        raise MechanismMismatch(
            f"base rule {mechanism.base!r} does not apply to {domain.kind} domains"
        )
    return rule


def evaluate_tally(mechanism: Mechanism, tally: Tally, domain: DomainSpec) -> Ballot:
    """Dispatch a prepared tally to the base rule (no participation logic)."""
    return _rule(mechanism, domain)(mechanism, tally, domain)


def apply(mechanism: Mechanism, profile: Profile) -> Ballot:
    """Evaluate a mechanism on a profile.

    Restricts to the ballots the participation mode exposes, adds the
    virtual status-quo mass, and dispatches to the base rule.  Same inputs
    always give the same output; there is no hidden randomness anywhere in
    the rule set.
    """
    domain = profile.domain
    _rule(mechanism, domain)  # a mismatch is reported before any tally is built
    if mechanism.participation == "proxy":
        if mechanism.base != "md":
            raise MechanismMismatch("proxy participation is median-on-interval only")
        from . import proxy  # local import; proxy builds on this module

        return proxy.md_proxy(profile, mechanism.re_tau)

    return evaluate_tally(mechanism, build_tally(mechanism, profile.counts), domain)
