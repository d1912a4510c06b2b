"""Voter populations, ballots, and the fraction parameters shared by all modules.

A population is split into honest voters (active or passive) and sybils.
Every rule is anonymous, so every fraction, tally and outcome range reads
its ``CountTable``; a ``Profile`` keeps its voters in order for
serialization, projection and proxy draws.  All derived fractions are
exact rationals; nothing in this package tallies with floats.
"""

from __future__ import annotations

import enum
import itertools
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
    """Coerce an int or a Fraction to Fraction; anything else is a TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
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
        position = DomainSpec(kind="interval").validate_ballot(status_quo_position)
        return DomainSpec(kind="interval", status_quo_position=position)

    @property
    def r(self) -> Ballot:
        """The status quo, in ballot representation."""
        if self.kind in ("binary", "categorical"):
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
        if self.kind == "hypercube":  # first coordinate most significant
            return tuple(itertools.product((0, 1), repeat=self.dimension))
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
        # interval: `type(ballot) is int` turns away bool, as for hypercube points
        if isinstance(ballot, Fraction):
            return ballot
        if type(ballot) is int:
            return Fraction(ballot)
        raise InvalidBallot(f"positions are Fractions or ints, not {ballot!r}")


Voter = Tuple[VoterClass, Optional[Ballot]]
BallotCounts = Dict[Optional[Ballot], int]  # a missing private ballot under None
#: Ballot counts per voter class, every class present and zero counts left
#: out: ``Profile.counts``'s shape.
CountTable = Dict[VoterClass, BallotCounts]


def ballot_counts(counts: CountTable, classes: Iterable[VoterClass]) -> BallotCounts:
    """Ballot counts summed over the given voter classes (a new dict)."""
    merged: BallotCounts = {}
    for cls in classes:
        if not merged:  # a copy reuses the stored hashes
            merged = dict(counts[cls])
            continue
        for ballot, k in counts[cls].items():
            merged[ballot] = merged.get(ballot, 0) + k
    return merged


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
    def counts(self) -> CountTable:
        """The voters' count table, derived once from ``voters``; read-only."""
        counts = {cls: {} for cls in (*HONEST_CLASSES, VoterClass.SYBIL)}
        for cls, ballot in self.voters:
            by_ballot = counts[cls]
            by_ballot[ballot] = by_ballot.get(ballot, 0) + 1
        return counts

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
    categorical = domain.kind == "categorical"
    validate = domain.validate_ballot
    sybil, active = VoterClass.SYBIL, VoterClass.HONEST_ACTIVE
    validated = []
    saw_ranking = saw_single = saw_active = False
    for cls, ballot in entries:
        if not isinstance(cls, VoterClass):
            raise PassiveSybil(f"unknown voter class {cls!r}")
        saw_active = saw_active or cls is active
        if ballot is None:
            if cls is sybil:
                raise SybilWithoutBallot("all sybils vote; sybil entry lacks a ballot")
            if cls is active:
                raise InvalidBallot("active honest voters must carry a ballot")
        else:
            ballot = validate(ballot)
            if categorical:
                if isinstance(ballot, tuple):
                    saw_ranking = True
                else:
                    saw_single = True
        validated.append((cls, ballot))
    if saw_ranking and saw_single:
        raise MixedBallotKind("cannot mix ranking and single-choice ballots")
    if not saw_active:
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
