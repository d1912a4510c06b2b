"""Shared builders for test populations."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from realityvote import DomainSpec, build_profile
from realityvote.population import VoterClass

ACTIVE = VoterClass.HONEST_ACTIVE
PASSIVE = VoterClass.HONEST_PASSIVE
SYBIL = VoterClass.SYBIL


def binary_profile(active="", passive="", sybil="", domain=None):
    """Compact binary builder: strings of 'r'/'p' per class."""
    domain = domain or DomainSpec.binary()
    voters = [(ACTIVE, c) for c in active]
    voters += [(PASSIVE, c) for c in passive]
    voters += [(SYBIL, c) for c in sybil]
    return build_profile(domain, voters)


def interval_profile(r, active=(), passive=(), sybil=()):
    domain = DomainSpec.interval(Fraction(r))
    voters = [(ACTIVE, Fraction(x)) for x in active]
    voters += [(PASSIVE, Fraction(x)) for x in passive]
    voters += [(SYBIL, Fraction(x)) for x in sybil]
    return build_profile(domain, voters)


@pytest.fixture
def example_full():
    """Five voters, full participation: honest r, r, p; sybils p, p."""
    return binary_profile(active="rrp", sybil="pp")


@pytest.fixture
def example_partial():
    """Same population, but only one honest voter is active (on r)."""
    return binary_profile(active="r", passive="rr", sybil="pp")


@pytest.fixture
def delegation_population():
    """The worked delegation example: r=4, actives {5,13}, sybils {8,15,15},
    passives {2,7,11,12,12,16,17}."""
    return interval_profile(
        4,
        active=(5, 13),
        passive=(2, 7, 11, 12, 12, 16, 17),
        sybil=(8, 15, 15),
    )


# One domain of each kind, with the ballots a voter may cast on it; the
# categorical domain takes either single choices or rankings per profile.
_CATEGORICAL = DomainSpec.categorical(["r", "a", "b"], "r")
BALLOTS_PER_DOMAIN = [
    (DomainSpec.binary(), ["r", "p"]),
    (_CATEGORICAL, ["r", "a", "b"]),
    (_CATEGORICAL, list(itertools.permutations(["r", "a", "b"]))),
    (DomainSpec.hypercube(2, (0, 1)), [(0, 0), (0, 1), (1, 0), (1, 1)]),
    (DomainSpec.interval(1), [Fraction(k, 2) for k in range(-4, 5)]),
]


@st.composite
def profiles(draw, max_voters=12):
    """Profiles over every domain kind, in any voter order; passive voters
    carry a private ballot or none."""
    domain, choices = draw(st.sampled_from(BALLOTS_PER_DOMAIN))
    ballot = st.sampled_from(choices)
    voter = st.one_of(
        st.tuples(st.sampled_from([ACTIVE, SYBIL]), ballot),
        st.tuples(st.just(PASSIVE), st.one_of(st.none(), ballot)),
    )
    voters = [(ACTIVE, draw(ballot))] + draw(st.lists(voter, max_size=max_voters - 1))
    return build_profile(domain, draw(st.permutations(voters)))
