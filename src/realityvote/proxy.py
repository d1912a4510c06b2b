"""Nearest-active-voter delegation on the line and the proxy-weighted median.

Passive honest voters delegate their unit vote to the nearest active entity;
the status quo participates as a proxy carrying the virtual vote mass.  The
proxy median is the weighted median of the active entities.  The analysis
helpers compute the quantities used to certify the mechanism's safety
envelope on concrete instances.

Every function here runs on one sorted integer index of the population
(``_ProxyIndex``): positions scaled to a common integer denominator and
sorted once, so a delegation segment's follower count is two bisections.
A Monte Carlo trial (``_ProxyIndex.trial``) builds only the outcome z on
the original line and j-hat on the normalized one, both ints: O(n+ log n)
integer work for n+ drawn actives, with no analysis, no Fraction and no
size check (each run checks n+ once).  Rationals appear only in the
returned values.

Only ``sample_and_run`` builds a generator, so only it imports numpy;
delegation, the median and the analysis run without it.  ``montecarlo``
hands its own generators to ``_ProxyIndex.trial``.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from . import rules
from .errors import (
    EmptyEntries,
    MissingPrivateBallots,
    NoProxyAvailable,
)
from .population import Profile, Rational, VoterClass, as_fraction, check_sample_size

if TYPE_CHECKING:
    from numpy.random import Generator, SeedSequence


@dataclass(frozen=True)
class ProxyEntity:
    """One active entity: a voter in V+ or the status quo itself."""

    position: Fraction
    weight: Fraction
    is_status_quo: bool = False


@dataclass(frozen=True)
class DelegationWeights:
    """Per-entity weights: 1 + follower count for voters, and the virtual
    mass plus followers for the status quo."""

    entities: Tuple[ProxyEntity, ...]


@dataclass(frozen=True)
class ProxyAnalysis:
    """Quantities certifying the proxy mechanism's behavior on one instance.

    All positions are reported in normalized orientation: the instance is
    mirrored around the status quo when the honest median falls below it,
    so ``h_star >= r`` always holds here.  ``z`` is the mechanism outcome
    recomputed on the normalized instance.
    """

    r: Fraction
    n: int
    n_honest: int
    h_star: Fraction
    nearest_active_position: Fraction
    d_star: Fraction
    h_hat: Fraction
    h_hat_bar: Optional[Fraction]
    h_hat_under: Optional[Fraction]
    z: Fraction
    j_hat: int
    envelope_holds: Optional[bool]
    range_holds: bool
    j_bound_holds: bool


# ---------------------------------------------------------------------------
# The sorted integer index.


def _nearest(left: Optional[int], right: Optional[int], target: int, r: int) -> int:
    """Nearest of the candidates just below and at-or-above target (either
    may be missing).

    Exact distance ties go to the candidate closer to r (r itself when it
    is one of them), and to the lower one when both are as close to r.
    """
    if right is None:
        return left
    if left is None:
        return right
    d_left, d_right = target - left, right - target
    if d_left != d_right:
        return left if d_left < d_right else right
    return right if abs(right - r) < abs(left - r) else left


def _neighbours(
    target: int, *sorted_lists: Sequence[int]
) -> Tuple[Optional[int], Optional[int]]:
    """The greatest element below target and the least at or above it,
    over several ascending lists."""
    left = right = None
    for values in sorted_lists:
        i = bisect.bisect_left(values, target)
        if i and (left is None or values[i - 1] > left):
            left = values[i - 1]
        if i < len(values) and (right is None or values[i] < right):
            right = values[i]
    return left, right


class _Line:
    """One orientation of a population on the integer index: honest
    positions in template order and sorted, sybil positions sorted."""

    def __init__(self, honest: List[int], sybils: List[int], r: int):
        self.honest = honest
        self.sorted = sorted(honest)
        self.sybils = sorted(sybils)
        self.r = r

    def reflected(self) -> "_Line":
        """The reflection x -> 2r - x."""
        two_r = 2 * self.r
        return _Line(
            [two_r - x for x in self.honest], [two_r - y for y in self.sybils], self.r
        )

    def honest_upto(self, x: int) -> int:
        return bisect.bisect_right(self.sorted, x)

    def segments(self, pool: Sequence[int]) -> List[int]:
        """For each proxy pool[k] (ascending), how many honest voters go to
        pool[0..k].

        Each honest voter goes to its nearest proxy; an exact midpoint of
        two proxies a < b (2p == a + b) goes to the side nearer the status
        quo, which is r's side of the midpoint.  A voter sitting on a proxy
        stays with it.
        """
        two_r = 2 * self.r
        cuts = []
        for a, b in zip(pool, pool[1:]):
            s = a + b
            if s < two_r:  # ties go up: count 2p < s
                cuts.append(bisect.bisect_left(self.sorted, -(-s // 2)))
            else:  # ties go down: count 2p <= s
                cuts.append(bisect.bisect_right(self.sorted, s // 2))
        cuts.append(len(self.sorted))
        return cuts


class _ProxyIndex:
    """A proxy population on the sorted integer index, built once.

    Holds the honest positions (with the indices of the active ones) and the
    sybil positions, scaled by ``scale``; the status quo's mass (virtual
    mass, plus one under ``r_unit_weight``) in units where a voter weighs
    ``unit``; and, for the analysis, the orientation in which the honest
    median is at or above r together with h* and h-hat there, which do not
    depend on who is active.
    """

    def __init__(self, profile: Profile, re_tau: Rational, r_unit_weight: bool = False):
        if profile.domain.kind != "interval":
            raise NoProxyAvailable("delegation is defined on the interval domain")
        r = profile.domain.status_quo_position
        self.voters = voters = profile.voters
        if any(ballot is None for _, ballot in voters):
            raise MissingPrivateBallots("delegation needs every passive voter's position")
        self.scale, self.xs = rules.scale_positions([ballot for _, ballot in voters], r)
        honest: List[int] = []
        sybils: List[int] = []
        self.active: List[int] = []
        sybil, active = VoterClass.SYBIL, VoterClass.HONEST_ACTIVE
        for (cls, _), x in zip(voters, self.xs):
            if cls is sybil:
                sybils.append(x)
                continue
            if cls is active:
                self.active.append(len(honest))
            honest.append(x)
        self.r = r
        self.re_tau = as_fraction(re_tau)
        self.up = _Line(honest, sybils, rules.scaled(r, self.scale))
        self.n = profile.n
        status_quo_mass = self.re_tau * self.n + (1 if r_unit_weight else 0)
        self.unit = status_quo_mass.denominator
        self.status_quo_mass = status_quo_mass.numerator

    def fraction(self, x: int) -> Fraction:
        return Fraction(x, self.scale)

    def median(self) -> Fraction:
        """The proxy median with the profile's own active voters (md_proxy)."""
        drawn = [self.up.honest[i] for i in self.active]
        return self.fraction(self.outcome(self.up, drawn))

    def weights(
        self, include_status_quo: bool = True
    ) -> Tuple[List[Tuple[int, Fraction, int]], Optional[Tuple[int, Fraction, Fraction]]]:
        """The delegation (see delegate) as (scaled position, position,
        weight) rows: the active voters' in profile order with int weights,
        and the status quo's (None when it is excluded)."""
        line = self.up
        drawn = [line.honest[i] for i in self.active]
        if not include_status_quo and not drawn and not line.sybils:
            raise NoProxyAvailable("no active voters and the status quo is excluded")
        pool, cuts = self.delegation(line, drawn, include_status_quo)
        on_proxy = Counter(drawn)
        followers = {x: cut - below - on_proxy[x] for x, cut, below in zip(pool, cuts, [0, *cuts])}
        passive = VoterClass.HONEST_PASSIVE
        rows = [  # the first active voter on a position takes its followers
            (x, ballot, 1 + followers.pop(x, 0))
            for (cls, ballot), x in zip(self.voters, self.xs) if cls is not passive
        ]
        if not include_status_quo:
            return rows, None
        weight = Fraction(self.status_quo_mass, self.unit) + followers.pop(line.r, 0)
        return rows, (line.r, self.r, weight)

    def entities(self, include_status_quo: bool = True) -> Tuple[ProxyEntity, ...]:
        """The delegation's entities (see delegate): the voters in profile
        order, then the status quo."""
        rows, status_quo = self.weights(include_status_quo)
        entities = [ProxyEntity(position, Fraction(weight)) for _, position, weight in rows]
        if status_quo is not None:
            entities.append(ProxyEntity(self.r, status_quo[2], is_status_quo=True))
        return tuple(entities)

    def delegation(
        self, line: _Line, drawn: Sequence[int], include_status_quo: bool = True
    ) -> Tuple[List[int], List[int]]:
        """The proxy pool (drawn actives, sybils, and r) ascending, and its
        honest segment cuts (see _Line.segments)."""
        pool = {*drawn, *line.sybils}
        if include_status_quo:
            pool.add(line.r)
        pool = sorted(pool)
        return pool, line.segments(pool)

    def outcome(self, line: _Line, drawn: Sequence[int]) -> int:
        """Proxy median: the least proxy whose inclusive prefix of delegated
        mass covers half the total."""
        pool, cuts = self.delegation(line, drawn)
        unit, sq, r, sybils = self.unit, self.status_quo_mass, line.r, line.sybils

        def prefix(k: int) -> int:
            x = pool[k]
            mass = (cuts[k] + bisect.bisect_right(sybils, x)) * unit
            return mass + sq if x >= r else mass

        return rules.locate(pool, prefix)(self.n * unit + sq)

    # -- analysis: the normalized orientation, constant across draws --------

    @cached_property
    def mirrored(self) -> bool:
        return self._honest_median(self.up) < self.up.r

    @cached_property
    def work(self) -> _Line:
        return self.up.reflected() if self.mirrored else self.up

    @cached_property
    def h_star(self) -> int:
        return self._honest_median(self.work)

    @cached_property
    def h_hat(self) -> int:
        """Median of every voter plus the status quo's mass."""
        line = self.work
        xs = sorted({*line.sorted, *line.sybils, line.r})
        unit, sq = self.unit, self.status_quo_mass

        def prefix(i: int) -> int:
            x = xs[i]
            mass = (line.honest_upto(x) + bisect.bisect_right(line.sybils, x)) * unit
            return mass + sq if x >= line.r else mass

        return rules.median_at(rules.locate(xs, prefix), self.n * unit + sq, line.r)

    @staticmethod
    def _honest_median(line: _Line) -> int:
        xs = line.sorted
        least = rules.locate(xs, lambda i: line.honest_upto(xs[i]))
        return rules.median_at(least, len(xs), line.r)

    def passives(self, drawn: Sequence[int], a: int, b: int) -> int:
        """Directional count of passive voters in (a, b] on the normalized
        line, given the drawn actives there ascending."""
        if b < a:
            return -self.passives(drawn, b, a)
        honest = self.work.honest_upto(b) - self.work.honest_upto(a)
        return honest - bisect.bisect_right(drawn, b) + bisect.bisect_right(drawn, a)

    def j_hat(self, drawn: Sequence[int]) -> int:
        """Passive voters from h-hat up to the first drawn active at or above
        it (up to the last honest voter when there is none), on the
        normalized line, given the drawn actives there ascending."""
        h_hat = self.h_hat
        i = bisect.bisect_left(drawn, h_hat)
        end = drawn[i] if i < len(drawn) else max(h_hat, self.work.sorted[-1])
        return self.passives(drawn, h_hat, end)

    def analyze(self, chosen: Sequence[int]) -> ProxyAnalysis:
        """The analysis of the instance whose active honest voters are the
        honest voters with the given template indices."""
        line, r = self.work, self.work.r
        drawn = sorted(line.honest[i] for i in chosen)
        h_star, h_hat = self.h_star, self.h_hat
        z = self.outcome(line, drawn)
        nearest = _nearest(*_neighbours(h_star, drawn, line.sybils), h_star, r)
        d_star = abs(nearest - h_star)

        i = bisect.bisect_left(drawn, h_hat)
        h_hat_bar = drawn[i] if i < len(drawn) else None
        i = bisect.bisect_right(drawn, h_hat)
        h_hat_under = drawn[i - 1] if i else None

        sigma = Fraction(len(line.sybils), self.n)
        tau = self.re_tau
        envelope: Optional[bool] = None
        if tau >= sigma:
            envelope = r <= z <= h_star + d_star
        range_holds = r <= z and (h_hat_bar is None or z <= h_hat_bar)
        if h_hat == r:
            j_bound = True
        else:
            j_bound = self.passives(drawn, h_star, h_hat) <= (sigma - tau) / 2 * self.n

        fraction = self.fraction
        return ProxyAnalysis(
            r=self.r,
            n=self.n,
            n_honest=len(line.honest),
            h_star=fraction(h_star),
            nearest_active_position=fraction(nearest),
            d_star=fraction(d_star),
            h_hat=fraction(h_hat),
            h_hat_bar=None if h_hat_bar is None else fraction(h_hat_bar),
            h_hat_under=None if h_hat_under is None else fraction(h_hat_under),
            z=fraction(z),
            j_hat=self.j_hat(drawn),
            envelope_holds=envelope,
            range_holds=range_holds,
            j_bound_holds=j_bound,
        )

    def trial(self, n_plus: int, rng: Generator) -> Tuple[List[int], int, int]:
        """One random-participation trial drawn from rng, as ints (the caller
        checks n_plus): the template indices of the drawn honest voters, the
        outcome z on the original line and j-hat on the normalized one."""
        chosen = rng.choice(len(self.up.honest), size=n_plus, replace=False).tolist()
        z = self.outcome(self.up, [self.up.honest[i] for i in chosen])
        return chosen, z, self.j_hat(sorted(self.work.honest[i] for i in chosen))


# ---------------------------------------------------------------------------
# Delegation, the proxy median and the instance analysis.


def delegate(
    profile: Profile,
    re_tau: Rational,
    include_status_quo: bool = True,
    r_unit_weight: bool = False,
) -> DelegationWeights:
    """Assign every passive honest voter's unit weight to its proxy.

    The proxy pool is the active voters plus (by default) the status quo.
    ``r_unit_weight`` switches to the variant that also gives the status quo
    a base weight of 1 like any other entity.  Followers of a position go to
    its first active voter in profile order.
    """
    index = _ProxyIndex(profile, re_tau, r_unit_weight)
    return DelegationWeights(entities=index.entities(include_status_quo))


def weighted_median(entries: Sequence[Tuple[Rational, Rational]]) -> Fraction:
    """The minimal position whose inclusive prefix weight covers the
    exclusive suffix weight, positions sorted ascending."""
    scale, xs, cum = rules.mass_index(entries)
    if not xs:
        raise EmptyEntries("weighted median needs positive total weight")
    return Fraction(rules.locate(xs, cum.__getitem__)(cum[-1]), scale)


def md_proxy(profile: Profile, re_tau: Rational, r_unit_weight: bool = False) -> Fraction:
    """Proxy-weighted median: active entities weighted by followers, the
    status quo carrying its followers plus the virtual mass."""
    return _ProxyIndex(profile, re_tau, r_unit_weight).median()


def nearest_entity_to(
    profile: Profile, re_tau: Rational, target: Rational
) -> Fraction:
    """Position of the active entity (status quo included) nearest to a
    target, with the delegation tie rule."""
    r, target = profile.domain.status_quo_position, as_fraction(target)
    actives = [b for cls, b in profile.voters if cls is not VoterClass.HONEST_PASSIVE]
    scale = rules.position_scale([*actives, r, target])
    pool = sorted({rules.scaled(p, scale) for p in actives} | {rules.scaled(r, scale)})
    t = rules.scaled(target, scale)
    nearest = _nearest(*_neighbours(t, pool), t, rules.scaled(r, scale))
    return Fraction(nearest, scale)


def analyze(profile: Profile, re_tau: Rational) -> ProxyAnalysis:
    """Compute the analysis quantities and the per-instance guarantee verdicts.

    Requires the passive voters' private positions.  Verdicts:

    * ``envelope_holds``: z within [r, h* + d*]; only meaningful (non-None)
      when the virtual mass matches or exceeds the sybil count,
    * ``range_holds``: z within [r, first active honest position above the
      all-active counterfactual outcome],
    * ``j_bound_holds``: the counterfactual outcome equals r, or the
      directional passive count from the honest median to it is at most
      (sigma - tau)/2 of the population.
    """
    index = _ProxyIndex(profile, re_tau)
    return index.analyze(index.active)


def sample_and_run(
    template: Profile,
    n_plus: int,
    re_tau: Rational,
    seed: Union[int, SeedSequence],
) -> Tuple[Fraction, ProxyAnalysis]:
    """Draw the active honest set uniformly without replacement and run the
    proxy mechanism.

    The template's honest voters (with their private positions) form the
    pool; the drawn voters become active, the rest delegate.  Deterministic
    given the seed.  Returns the outcome on the original orientation plus
    the normalized-instance analysis.
    """
    from numpy.random import Generator, Philox

    index, rng = _ProxyIndex(template, re_tau), Generator(Philox(seed))
    check_sample_size(n_plus, len(index.up.honest))
    chosen, z, _ = index.trial(n_plus, rng)
    return index.fraction(z), index.analyze(chosen)
