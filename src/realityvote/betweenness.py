"""Between-sets B(x, y) and their unions B(x; Y), per domain.

Three instantiations:

* discrete unordered alternatives: B(x, y) = {x, y},
* hypercube with Hamming distance: the smallest box containing x and y
  (coordinate i is free exactly when x_i != y_i),
* the real line: the smallest closed interval containing x and y.

Unions over a target set Y are what safety checks consume; on the line the
union collapses to a hull because every member contains x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Iterable, Optional, Tuple

from .errors import EmptyTargetSet, InvalidBallot
from .population import Ballot, DomainSpec, as_fraction


@dataclass(frozen=True)
class BetweenRegion:
    """A between-set (or union of between-sets) in one of three shapes.

    Exactly one representation is populated, matching ``kind``:
    ``members`` for discrete sets, ``box`` (per-coordinate value sets) for
    hypercubes, and ``lo``/``hi`` for line intervals, where None encodes an
    unbounded side.
    """

    kind: str
    members: Optional[FrozenSet[Ballot]] = None
    box: Optional[Tuple[FrozenSet[int], ...]] = None
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None

    def contains(self, a: Ballot) -> bool:
        if self.kind == "discrete":
            return a in self.members
        if self.kind == "box":
            if not isinstance(a, tuple) or len(a) != len(self.box):
                raise InvalidBallot("point does not match the box dimension")
            return all(coord in allowed for coord, allowed in zip(a, self.box))
        pos = as_fraction(a)
        if self.lo is not None and pos < self.lo:
            return False
        if self.hi is not None and pos > self.hi:
            return False
        return True


def _pair_region(domain: DomainSpec, x: Ballot, y: Ballot) -> BetweenRegion:
    if domain.kind in ("binary", "categorical"):
        return BetweenRegion(kind="discrete", members=frozenset((x, y)))
    if domain.kind == "hypercube":
        box = tuple(
            frozenset((xi,)) if xi == yi else frozenset((0, 1))
            for xi, yi in zip(x, y)
        )
        return BetweenRegion(kind="box", box=box)
    lo, hi = sorted((as_fraction(x), as_fraction(y)))
    return BetweenRegion(kind="interval", lo=lo, hi=hi)


def between(domain: DomainSpec, x: Ballot, y: Ballot) -> BetweenRegion:
    """B(x, y): everything between the two alternatives, inclusive."""
    x = domain.validate_ballot(x, allow_ranking=False)
    y = domain.validate_ballot(y, allow_ranking=False)
    return _pair_region(domain, x, y)


def between_union(domain: DomainSpec, x: Ballot, targets: Iterable[Ballot]) -> BetweenRegion:
    """B(x; Y) = union of B(x, y) over y in Y.

    On the line this equals the hull [min(x, min Y), max(x, max Y)] since
    every B(x, y) contains x.  On hypercubes the union of boxes is kept as
    a tuple of boxes folded into membership via ``union_contains``; here we
    return the discrete/hull region directly where a single region suffices
    and a ``BetweenUnion`` otherwise.
    """
    targets = list(targets)
    if not targets:
        raise EmptyTargetSet("between-set union needs at least one target")
    x = domain.validate_ballot(x, allow_ranking=False)
    targets = [domain.validate_ballot(t, allow_ranking=False) for t in targets]
    if domain.kind in ("binary", "categorical"):
        members = frozenset([x, *targets])
        return BetweenRegion(kind="discrete", members=members)
    if domain.kind == "interval":
        points = [as_fraction(x)] + [as_fraction(t) for t in targets]
        return BetweenRegion(kind="interval", lo=min(points), hi=max(points))
    # Hypercube: a union of boxes is not a box in general; keep all parts.
    parts = tuple(_pair_region(domain, x, t) for t in targets)
    return BetweenUnion(kind="box-union", parts=parts)


@dataclass(frozen=True)
class BetweenUnion:
    """A genuine union of between-regions (hypercube case)."""

    kind: str
    parts: Tuple[BetweenRegion, ...]

    def contains(self, a: Ballot) -> bool:
        return any(part.contains(a) for part in self.parts)
