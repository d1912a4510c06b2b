"""Base voting rules, the reality-enforcing wrapper, and active-only restriction.

Every rule returns a single alternative and settles ties toward the status
quo.  The reality-enforcing wrapper adds a virtual vote mass ``q`` for the
status quo before the base rule runs; tau times the visible electorate is
held as an int ``q`` over the unit tau's denominator, never rounded to a
whole number of voters, and the threshold rules compare cross-multiplied
ints, which keeps every tie rule exact on knife-edge profiles.
A tally sums a population's count table (``population.CountTable``) over
the voter classes the participation mode shows (``visible_classes``).
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

from .errors import (
    EmptyElectorate,
    MechanismMismatch,
    MissingPrivateBallots,
    NonRankingBallot,
)
from .guarantees import Setting
from .population import (
    Ballot, CountTable, DomainSpec, Profile, Rational, VoterClass, as_fraction, ballot_counts
)

PARTICIPATION_MODES = ("full", "active", "proxy")
THRESHOLD_RULES = ("smj", "scc", "som")  # the base rules that take a tau
RANKING_RULES = ("cc", "scc")  # the base rules whose ballots are rankings
_EVERY_CLASS = tuple(VoterClass)
_ACTIVE_CLASSES = (VoterClass.HONEST_ACTIVE, VoterClass.SYBIL)
_NO_PRIVATE_BALLOTS = "full participation needs passive voters' ballots"


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


def closed_form(mechanism: Mechanism) -> Tuple[Setting, Fraction]:
    """The closed-form setting and tau the binary oracle compares a
    mechanism with: a supermajority base at its own threshold in the
    multi-alternative setting, any other at its RE tau in the arbitrary
    binary setting."""
    if mechanism.base == "smj":
        return Setting.MULTI_ALT_SMJ, mechanism.base_tau
    return Setting.ARBITRARY_BINARY, mechanism.re_tau


class Tally(NamedTuple):
    """Cast vote masses per alternative plus the virtual status-quo mass.

    Cast masses are nonnegative integers (counts).  The virtual mass, re_tau
    times the number of voters visible to the mechanism, is the int q over
    the int unit re_tau's denominator (a Fraction q over unit 1 means the
    same), so the rules compare ints cross-multiplied by the unit.  An
    immutable record: the oracle's search builds one per tally it tries.
    """

    counts: Mapping[Ballot, int] = MappingProxyType({})
    q: Rational = 0
    unit: int = 1

    def __eq__(self, other: object) -> bool:  # equal masses, whatever the units
        return isinstance(other, Tally) and self.counts == other.counts and (
            self.q * other.unit == other.q * self.unit)

    def __ne__(self, other: object) -> bool:  # tuple's own != would compare units
        return not self == other

    @property
    def virtual_mass(self) -> Fraction:
        return Fraction(self.q, self.unit)

    @property
    def cast_total(self) -> int:
        return sum(self.counts.values())

    def mass(self, alternative: Ballot) -> int:
        return self.counts.get(alternative, 0)


# ---------------------------------------------------------------------------
# Weighted medians on a sorted integer index (exact rational masses).
#
# Positions are scaled once to a common integer denominator and masses to
# integers, so every comparison and prefix sum below runs on Python ints;
# rationals come back only at the output boundary.  A weighted median reads
# its electorate through a locator: least(target) is the least candidate
# position whose doubled inclusive prefix mass reaches the target.  Over a
# prefix array that is one bisection (locate); a caller that knows the
# electorate's order statistics answers it without one.

MassEntry = Tuple[Fraction, Rational]  # (position, mass)
Prefix = Callable[[int], int]  # candidate index -> inclusive prefix mass
Locator = Callable[[int], int]  # target -> least position with 2 * prefix >= target


def position_scale(positions: Iterable[Fraction]) -> int:
    """Least common denominator: every position times it is an integer."""
    return math.lcm(*{p.denominator for p in positions})


def scaled(position: Fraction, scale: int) -> int:
    """A position on the integer index of the given scale."""
    return position.numerator * (scale // position.denominator)


def scale_positions(positions: Sequence[Fraction], r: Fraction) -> Tuple[int, List[int]]:
    """The least common scale of the positions and r, and the positions on
    it in order; each distinct position object (a file's voters share them)
    is scaled once."""
    distinct = {id(p): p for p in positions}
    scale = position_scale([*distinct.values(), r])
    at = {key: scaled(p, scale) for key, p in distinct.items()}
    return scale, [at[id(p)] for p in positions]


def locate(xs: Sequence[int], prefix: Prefix) -> Locator:
    """The locator of ascending candidate positions ``xs`` whose inclusive
    prefix mass at xs[i] is ``prefix(i)``: one bisection per target.

    ``prefix`` must be nondecreasing and reach every target asked for at
    the last candidate; a target of 0 or less locates the first one.
    """
    indices = range(len(xs))
    return lambda target: xs[
        bisect.bisect_left(indices, True, key=lambda i: 2 * prefix(i) >= target)]


def median_at(least: Locator, total: int, r: int) -> int:
    """Weighted median with the status-quo tie rule on an integer index.

    ``least`` locates the electorate's prefix masses (see Locator) and
    ``total`` is its whole mass.  The median interval runs from the least
    position whose prefix reaches half the total to the least one whose
    prefix exceeds it; the point of that interval nearest r is returned (for
    integer masses that is literally one extra unit vote at r settling the
    tie).
    """
    return max(least(total), min(r, least(total + 1)))


def suppressed_median_at(tau: Fraction, least: Locator, total: int, r: int) -> int:
    """Suppress-outer-votes median on an integer index (see median_at).

    Masses are rescaled by tau's denominator so that the cut, tau of the
    total, is an integer.  Trimming the cut from the top caps the prefix at
    what is kept, and trimming it from the bottom shifts the prefix down by
    the cut; on integer prefixes either is the same locator at a shifted
    target: 2 * den * prefix >= t exactly when 2 * prefix >= ceil(t / den).
    """
    m = median_at(least, total, r)
    if m == r or not tau:  # suppressing no mass keeps the median
        return m
    den = tau.denominator
    cut = tau.numerator * total
    kept = den * total - cut
    if kept <= 0:
        return r
    shift = 0 if m > r else 2 * cut
    m_reduced = median_at(lambda t: least(-(-(t + shift) // den)), kept, r)
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
    return (scale, *_prefix_index(masses))


def _prefix_index(masses: Dict[int, int]) -> Tuple[List[int], List[int]]:
    """The positions of positive integer mass ascending, and their inclusive prefix masses."""
    xs = sorted(masses)
    return xs, list(itertools.accumulate(masses[x] for x in xs))


# ---------------------------------------------------------------------------
# Base rules.  Each consumes a Tally built from the visible ballots.


def _scaled_threshold(tau: Rational, unit: int) -> Tuple[int, int]:
    """(a, b): mass > (1/2 + tau) * total / unit exactly when a * mass > b * total."""
    tau = as_fraction(tau)
    return 2 * tau.denominator * unit, tau.denominator + 2 * tau.numerator


def majority(tally: Tally, domain: DomainSpec) -> Ballot:
    """Binary majority: the proposal wins only by strictly outmassing the
    status quo plus the virtual mass q; ties go to the status quo."""
    r, p, counts = domain.status_quo, domain.proposal, tally.counts
    if (counts.get(p, 0) - counts.get(r, 0)) * tally.unit > tally.q:
        return p
    return r


def supermajority(tau: Rational, tally: Tally, domain: DomainSpec) -> Ballot:
    """tau-supermajority: elect the (unique) non-status-quo alternative whose
    cast votes strictly exceed a (1/2 + tau) fraction of all votes seen,
    virtual mass included; otherwise keep the status quo."""
    r, counts = domain.r, tally.counts
    scale, threshold = _scaled_threshold(tau, tally.unit)
    total = threshold * (sum(counts.values()) * tally.unit + tally.q)
    for alternative in domain.alternative_list():
        if alternative != r and scale * counts.get(alternative, 0) > total:
            return alternative
    return r


def plurality(tally: Tally, domain: DomainSpec) -> Ballot:
    """Most cast votes wins, with q credited to the status quo.  Ties
    involving the status quo keep it; ties among challengers break by the
    domain's alternative order."""
    r, counts = domain.r, tally.counts
    best, most = r, -1  # the first-listed of the top challengers
    for alternative in domain.alternative_list():
        mass = counts.get(alternative, 0)
        if alternative != r and mass > most:
            best, most = alternative, mass
    return best if (most - counts.get(r, 0)) * tally.unit > tally.q else r


def condorcet_conservative(tau: Rational, tally: Tally, domain: DomainSpec) -> Ballot:
    """Pick the alternative that tau-super-beats every other; else status quo.

    Ballots must be full rankings.  An alternative beats another when
    strictly more than (1/2 + tau) of the contest's votes prefer it; the
    virtual mass q sides with the status quo in every contest involving it
    and abstains elsewhere.
    """
    r = domain.r
    scale, threshold = _scaled_threshold(tau, tally.unit)
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
        contest_total = cast * tally.unit + (tally.q if r in (a, b) else 0)
        return scale * pref.get((a, b), 0) > threshold * contest_total

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
        result.append(1 - rj if lead * tally.unit > tally.q else rj)
    return tuple(result)


def median(tally: Tally, domain: DomainSpec) -> Fraction:
    """Median position of the cast votes plus the virtual mass at r."""
    return suppress_outer_median(0, tally, domain)


def suppress_outer_median(tau: Rational, tally: Tally, domain: DomainSpec) -> Fraction:
    """Suppress-outer-votes median.

    Compute the median m (see median); if it sits off the status quo, discard
    exactly a tau fraction of the vote mass from the far side (splitting one
    voter's unit mass if tau times the electorate is fractional), recompute,
    and keep the new median only if it stayed on the same side of r.
    """
    r = domain.status_quo_position
    scale, xs, cum = mass_index([*tally.counts.items(), (r, tally.virtual_mass)])
    return _indexed_median(tau, scale, xs, cum, scaled(r, scale))


def _indexed_median(tau: Rational, scale: int, xs: List[int], cum: List[int], r: int) -> Fraction:
    """suppress_outer_median on a sorted integer index (see mass_index), r scaled."""
    if not xs:
        raise EmptyElectorate("median of an empty electorate")
    least = locate(xs, cum.__getitem__)
    return Fraction(suppressed_median_at(as_fraction(tau), least, cum[-1], r), scale)


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
        raise MissingPrivateBallots(_NO_PRIVATE_BALLOTS)
    electorate = sum(cast.values())
    if mechanism.participation == "proxy":
        electorate = sum(sum(by_ballot.values()) for by_ballot in counts.values())
    return _cast_tally(mechanism, cast, electorate)


def _cast_tally(mechanism: Mechanism, cast: Dict[Ballot, int], electorate: int) -> Tally:
    """Visible ballot counts plus q, re_tau times the electorate tallied."""
    re_tau = mechanism.re_tau
    return Tally(cast, re_tau.numerator * electorate, re_tau.denominator)


def apply_on_line(
    mechanism: Mechanism, profile: Profile
) -> Tuple[Fraction, Fraction, List[Tuple[Fraction, int]]]:
    """``apply`` for md and som under full or active participation, with
    the tally it evaluated: the outcome, q, and the visible (position,
    count) rows ascending, equal positions merged.  The rows and the
    median's index are counted on the scaled positions (scale_positions),
    so no Fraction is hashed or compared."""
    visible = visible_classes(mechanism)
    shown = [ballot for cls, ballot in profile.voters if cls in visible]
    if any(ballot is None for ballot in shown):
        raise MissingPrivateBallots(_NO_PRIVATE_BALLOTS)
    r = profile.domain.status_quo_position
    scale, at = scale_positions(shown, r)
    counts, labels = Counter(at), dict(zip(at, shown))  # scaled position -> voters, a position
    re_tau, r_x = mechanism.re_tau, scaled(r, scale)
    q, unit = re_tau.numerator * len(shown), re_tau.denominator  # q over unit, as in a Tally
    masses = {x: count * unit for x, count in counts.items()}
    if q:
        masses[r_x] = masses.get(r_x, 0) + q
    xs, cum = _prefix_index(masses)
    outcome = _indexed_median(mechanism.base_tau, scale, xs, cum, r_x)
    return outcome, Fraction(q, unit), [(labels[x], counts[x]) for x in xs if x in counts]


#: Base rule -> (its evaluator on (mechanism, tally, domain), the domain
#: kinds it applies to).  A rule outside THRESHOLD_RULES has base_tau 0, so
#: cc is scc and md is som at tau 0: each pair shares one evaluator.
_condorcet = lambda m, t, d: condorcet_conservative(m.base_tau, t, d)
_suppressed = lambda m, t, d: suppress_outer_median(m.base_tau, t, d)
_RULES: Dict[str, Tuple[Callable[..., Ballot], Tuple[str, ...]]] = {
    "mj": (lambda m, t, d: majority(t, d), ("binary",)),
    "pl": (lambda m, t, d: plurality(t, d), ("categorical",)),
    "smj": (lambda m, t, d: supermajority(m.base_tau, t, d), ("binary", "categorical")),
    "cc": (_condorcet, ("categorical",)),
    "scc": (_condorcet, ("categorical",)),
    "imj": (lambda m, t, d: issuewise_majority(t, d), ("hypercube",)),
    "md": (_suppressed, ("interval",)),
    "som": (_suppressed, ("interval",)),
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


def _check(mechanism: Mechanism, domain: DomainSpec) -> None:
    """MechanismMismatch unless apply can run the mechanism on the domain."""
    _rule(mechanism, domain)
    if mechanism.participation == "proxy" and mechanism.base != "md":
        raise MechanismMismatch("proxy participation is median-on-interval only")


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
    _check(mechanism, domain)  # a mismatch is reported before any tally is built
    if mechanism.participation == "proxy":
        from . import proxy  # local import; proxy builds on this module

        return proxy.md_proxy(profile, mechanism.re_tau)

    return evaluate_tally(mechanism, build_tally(mechanism, profile.counts), domain)
