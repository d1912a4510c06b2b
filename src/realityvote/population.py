"""Voter populations, ballots, and the fraction parameters shared by all modules.

A population is split into honest voters (active or passive) and sybils,
stored in voter order (which serialization, projection and proxy draws
use) and counted once into ``Profile.counts``, which every fraction, tally
and outcome range reads: every rule is anonymous.  All derived fractions
are exact rationals; nothing in this package tallies with floats.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from .errors import (
    InvalidBallot,
    MixedBallotKind,
    NoActiveHonest,
    PassiveSybil,
    SybilWithoutBallot,
)

Rational = Union[int, Fraction]

#: Ballot payloads per domain kind:
#:   binary / categorical single choice -> str
#:   categorical ranking                -> tuple of str (a full permutation)
#:   hypercube                          -> tuple of 0/1 ints
#:   interval                           -> Fraction
Ballot = Union[str, Tuple[str, ...], Tuple[int, ...], Fraction]


class VoterClass(enum.Enum):
    HONEST_ACTIVE = "honest_active"
    HONEST_PASSIVE = "honest_passive"
    SYBIL = "sybil"

    __hash__ = object.__hash__  # members are singletons; Enum's hash runs Python code


HONEST_CLASSES = (VoterClass.HONEST_ACTIVE, VoterClass.HONEST_PASSIVE)


def as_fraction(value: Rational) -> Fraction:
    """Coerce ints/Fractions (and exact strings like '2/5') to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def format_rational(value: Fraction) -> str:
    """Render a rational as 'p/q' (or 'p' when integral); never a float."""
    value = as_fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class DomainSpec:
    """The alternative space, with the status quo always a member.

    kind is one of "binary", "categorical", "hypercube", "interval".
    Exactly one of the kind-specific payloads is populated:

    * binary: ``status_quo`` and ``proposal`` labels,
    * categorical: ``alternatives`` (duplicate-free, >= 2) and ``status_quo``,
    * hypercube: ``dimension`` and ``status_quo_point`` in {0,1}^d,
    * interval: ``status_quo_position`` as an exact rational.
    """

    kind: str
    status_quo: Optional[str] = None
    proposal: Optional[str] = None
    alternatives: Optional[Tuple[str, ...]] = None
    dimension: Optional[int] = None
    status_quo_point: Optional[Tuple[int, ...]] = None
    status_quo_position: Optional[Fraction] = None

    @staticmethod
    def binary(status_quo: str = "r", proposal: str = "p") -> "DomainSpec":
        if status_quo == proposal:
            raise InvalidBallot("binary domain needs two distinct alternatives")
        return DomainSpec(kind="binary", status_quo=status_quo, proposal=proposal)

    @staticmethod
    def categorical(alternatives: Sequence[str], status_quo: str) -> "DomainSpec":
        alts = tuple(alternatives)
        if len(alts) < 2:
            raise InvalidBallot("categorical domain needs at least 2 alternatives")
        if len(set(alts)) != len(alts):
            raise InvalidBallot("categorical alternatives must be duplicate-free")
        if status_quo not in alts:
            raise InvalidBallot("status quo must be one of the alternatives")
        return DomainSpec(kind="categorical", alternatives=alts, status_quo=status_quo)

    @staticmethod
    def hypercube(dimension: int, status_quo_point: Sequence[int]) -> "DomainSpec":
        if type(dimension) is not int or dimension < 1:
            raise InvalidBallot(f"the dimension is an integer >= 1, not {dimension!r}")
        point = tuple(status_quo_point)
        domain = DomainSpec(kind="hypercube", dimension=dimension, status_quo_point=point)
        domain.validate_ballot(point)
        return domain

    @staticmethod
    def interval(status_quo_position: Rational) -> "DomainSpec":
        return DomainSpec(
            kind="interval", status_quo_position=as_fraction(status_quo_position)
        )

    @property
    def r(self) -> Ballot:
        """The status quo, in ballot representation."""
        if self.kind == "binary":
            return self.status_quo
        if self.kind == "categorical":
            return self.status_quo
        if self.kind == "hypercube":
            return self.status_quo_point
        return self.status_quo_position

    def alternative_list(self) -> Tuple[Ballot, ...]:
        """All alternatives, for finite domains (in canonical order)."""
        if self.kind == "binary":
            return (self.status_quo, self.proposal)
        if self.kind == "categorical":
            return self.alternatives
        if self.kind == "hypercube":
            points = []
            for index in range(2 ** self.dimension):
                bits = tuple(
                    (index >> (self.dimension - 1 - j)) & 1
                    for j in range(self.dimension)
                )
                points.append(bits)
            return tuple(points)
        raise InvalidBallot("the interval domain has no finite alternative list")

    def validate_ballot(self, ballot: Ballot, allow_ranking: bool = True) -> Ballot:
        """Check (and canonicalize) a single ballot against this domain."""
        if self.kind == "binary":
            if ballot not in (self.status_quo, self.proposal):
                raise InvalidBallot(f"binary ballot must be one of the pair, got {ballot!r}")
            return ballot
        if self.kind == "categorical":
            if isinstance(ballot, tuple):
                if not allow_ranking:
                    raise InvalidBallot("ranking ballot not allowed here")
                if sorted(ballot) != sorted(self.alternatives):
                    raise InvalidBallot("ranking must totally order the alternatives")
                return tuple(ballot)
            if ballot not in self.alternatives:
                raise InvalidBallot(f"unknown alternative {ballot!r}")
            return ballot
        if self.kind == "hypercube":
            # `type(b) is int` turns away bool and every other number type
            ok = isinstance(ballot, tuple) and len(ballot) == self.dimension
            if not (ok and all(type(b) is int and b in (0, 1) for b in ballot)):
                raise InvalidBallot(f"hypercube points are d-tuples of 0/1 ints, not {ballot!r}")
            return ballot
        # interval
        try:
            return as_fraction(ballot)
        except TypeError as exc:
            raise InvalidBallot(str(exc)) from None


Voter = Tuple[VoterClass, Optional[Ballot]]


@dataclass(frozen=True)
class Profile:
    """An immutable, validated voter population over one domain.

    Passive honest voters may carry a ballot (their private vote, needed to
    evaluate the base rule on all honest voters) or omit it.  Active honest
    voters and sybils always carry one.  Aggregates read ``counts``.
    """

    domain: DomainSpec
    voters: Tuple[Voter, ...]

    @property
    def n(self) -> int:
        return len(self.voters)

    @cached_property
    def counts(self) -> Dict[VoterClass, Dict[Optional[Ballot], int]]:
        """Ballot counts per voter class (every class present, a missing
        private ballot under None), derived once from ``voters``; read-only."""
        counts = {cls: {} for cls in (*HONEST_CLASSES, VoterClass.SYBIL)}
        for cls, ballot in self.voters:
            by_ballot = counts[cls]
            by_ballot[ballot] = by_ballot.get(ballot, 0) + 1
        return counts

    def ballot_counts(self, classes: Iterable[VoterClass]) -> Dict[Optional[Ballot], int]:
        """Ballot counts summed over the given voter classes (a new dict)."""
        merged: Dict[Optional[Ballot], int] = {}
        for cls in classes:
            if not merged:  # a copy reuses the stored hashes
                merged = dict(self.counts[cls])
                continue
            for ballot, k in self.counts[cls].items():
                merged[ballot] = merged.get(ballot, 0) + k
        return merged

    @property
    def n_sybil(self) -> int:
        return sum(self.counts[VoterClass.SYBIL].values())

    @property
    def n_honest(self) -> int:
        return self.n - self.n_sybil

    @property
    def n_active_honest(self) -> int:
        return sum(self.counts[VoterClass.HONEST_ACTIVE].values())

    @property
    def n_passive_honest(self) -> int:
        return sum(self.counts[VoterClass.HONEST_PASSIVE].values())

    @property
    def n_visible(self) -> int:
        """Active voters: honest actives plus sybils."""
        return self.n_active_honest + self.n_sybil

    @property
    def sigma(self) -> Fraction:
        return Fraction(self.n_sybil, self.n)

    @property
    def mu(self) -> Fraction:
        return Fraction(self.n_passive_honest, self.n)

    @property
    def h_plus(self) -> Fraction:
        """Fraction of the whole population that is honest and active."""
        return Fraction(self.n_active_honest, self.n)

    @property
    def phi(self) -> Fraction:
        """Participation rate among honest voters."""
        return Fraction(self.n_active_honest, self.n_honest)

    def has_full_honest_ballots(self) -> bool:
        """Does every passive voter carry a private ballot (actives always do)?"""
        return None not in self.counts[VoterClass.HONEST_PASSIVE]


def build_profile(
    domain: DomainSpec, entries: Sequence[Tuple[VoterClass, Optional[Ballot]]]
) -> Profile:
    """Validate entries and assemble a Profile.

    Raises NoActiveHonest when every honest voter is passive (the model
    requires at least one active honest voter), SybilWithoutBallot /
    PassiveSybil for malformed sybil entries, and MixedBallotKind when a
    categorical profile mixes rankings with single choices.
    """
    if not entries:
        raise NoActiveHonest("a profile needs at least one voter")
    validated = []
    saw_ranking = False
    saw_single = False
    for cls, ballot in entries:
        if not isinstance(cls, VoterClass):
            raise PassiveSybil(f"unknown voter class {cls!r}")
        if cls is VoterClass.SYBIL and ballot is None:
            raise SybilWithoutBallot("all sybils vote; sybil entry lacks a ballot")
        if cls is VoterClass.HONEST_ACTIVE and ballot is None:
            raise InvalidBallot("active honest voters must carry a ballot")
        if ballot is not None:
            ballot = domain.validate_ballot(ballot)
            if domain.kind == "categorical":
                if isinstance(ballot, tuple):
                    saw_ranking = True
                else:
                    saw_single = True
        validated.append((cls, ballot))
    if saw_ranking and saw_single:
        raise MixedBallotKind("cannot mix ranking and single-choice ballots")
    if not any(cls is VoterClass.HONEST_ACTIVE for cls, _ in validated):
        raise NoActiveHonest("at least one honest voter must be active")
    return Profile(domain=domain, voters=tuple(validated))


def project_to_pair(profile: Profile, x: Rational, y: Rational) -> Profile:
    """Project an interval profile onto the two-point domain {x, y}, the
    points distinct and in either order.

    Each voter votes for the closer of the two points; an exact tie goes to
    x, which plays the status-quo role in the output.  Voter classes are
    preserved; passive voters without a private position stay ballot-less.
    """
    if profile.domain.kind != "interval":
        raise InvalidBallot("projection is defined on interval profiles")
    x, y = as_fraction(x), as_fraction(y)
    if x == y:
        raise InvalidBallot("projection needs two distinct points")
    x_label, y_label = format_rational(x), format_rational(y)
    out_domain = DomainSpec.binary(status_quo=x_label, proposal=y_label)
    projected = []
    for cls, ballot in profile.voters:
        if ballot is None:
            projected.append((cls, None))
            continue
        pos = as_fraction(ballot)
        choice = x_label if abs(pos - x) <= abs(pos - y) else y_label
        projected.append((cls, choice))
    return build_profile(out_domain, projected)


@dataclass(frozen=True)
class NonatomicProfile:
    """Continuum-limit binary population: only vote masses matter.

    Masses are exact rationals summing to 1; ``participation`` is the
    active share of each honest mass, so the active honest mass splits as
    ``participation * h_r`` on the status quo and ``participation * h_p``
    on the proposal.
    """

    h_r: Fraction
    h_p: Fraction
    s_r: Fraction
    s_p: Fraction
    participation: Fraction

    def __post_init__(self):
        masses = (self.h_r, self.h_p, self.s_r, self.s_p)
        if any(m < 0 for m in masses):
            raise InvalidBallot("masses must be nonnegative")
        if sum(masses) != 1:
            raise InvalidBallot("masses must sum to 1")
        if not 0 <= self.participation <= 1:
            raise InvalidBallot("participation rate must lie in [0, 1]")
        if self.participation * self.honest_mass == 0:
            raise NoActiveHonest("no active honest mass")

    @property
    def honest_mass(self) -> Fraction:
        return self.h_r + self.h_p

    @property
    def sigma(self) -> Fraction:
        return self.s_r + self.s_p

    @property
    def mu(self) -> Fraction:
        return (1 - self.participation) * self.honest_mass

    @property
    def active_honest_r(self) -> Fraction:
        return self.participation * self.h_r

    @property
    def active_honest_p(self) -> Fraction:
        return self.participation * self.h_p

    @property
    def visible_mass(self) -> Fraction:
        return self.participation * self.honest_mass + self.sigma

    @staticmethod
    def from_profile(profile: Profile) -> "NonatomicProfile":
        """Finite-profile counterpart: masses are the exact count fractions."""
        if profile.domain.kind != "binary":
            raise InvalidBallot("nonatomic populations are binary only")
        if not profile.has_full_honest_ballots():
            raise InvalidBallot("passive voters need private ballots here")
        honest = profile.ballot_counts(HONEST_CLASSES)
        sybil = profile.counts[VoterClass.SYBIL]
        r, p, n = profile.domain.status_quo, profile.domain.proposal, profile.n
        return NonatomicProfile(
            h_r=Fraction(honest.get(r, 0), n),
            h_p=Fraction(honest.get(p, 0), n),
            s_r=Fraction(sybil.get(r, 0), n),
            s_p=Fraction(sybil.get(p, 0), n),
            participation=profile.phi,
        )
