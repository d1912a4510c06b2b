"""Seed-deterministic random-participation experiments.

Each trial draws the active honest set uniformly without replacement from
the template's honest population (a binary trial is only a count table)
and tests its outcome against the verifier's safe region, computed once:
the base rule reads every honest ballot, so no draw changes it.

Trial t draws from ``Philox(SeedSequence(seed, spawn_key=(t,)))``, so
serial and parallel execution agree bit-for-bit.  Philox is counter-based:
its key alone names the stream.  A run therefore derives every trial's key
in one vectorised pass (``_trial_keys``, SeedSequence's hash applied to all
trial indices at once) and re-keys one generator per trial
(``_trial_generators``), which then draws exactly what a fresh one would.
A spawn key of 2**32 or more takes a second 32-bit word, so a run has at
most 2**32 trials.

This is the one module that imports numpy and ``numpy.random`` when it
loads; ``import realityvote`` does not import it.  Importing the generator
classes by name loads ``numpy.random`` with the module, not at a run's
first draw.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from . import proxy, rules, verifier
from .errors import DegenerateParams, MechanismMismatch
from .guarantees import Setting, safety_threshold
from .population import (
    HONEST_CLASSES,
    Profile,
    Rational,
    VoterClass,
    as_fraction,
    ballot_counts,
    check_sample_size,
)
from .rules import Mechanism


@dataclass(frozen=True)
class Experiment:
    """A safety-with-high-probability experiment.

    ``profile`` is the template: full honest private ballots plus sybil
    ballots; which honest voters are active is what gets resampled.
    ``alpha_prime`` is the probed safety budget (strictly above the
    guarantee's alpha), ``n_plus`` the active sample size.
    """

    profile: Profile
    mechanism: Mechanism
    base: Mechanism
    alpha_prime: Fraction
    trials: int
    seed: int
    n_plus: int

    def __post_init__(self):
        object.__setattr__(self, "alpha_prime", as_fraction(self.alpha_prime))
        _check_trials(self.trials)
        if self.alpha_prime <= 0:
            raise DegenerateParams("alpha_prime must be positive")
        if self.base.participation != "full":
            raise DegenerateParams("the base rule reads every honest ballot")
        if not self.profile.has_full_honest_ballots():
            raise DegenerateParams("template needs every honest ballot")
        check_sample_size(self.n_plus, self.profile.n_honest)


@dataclass(frozen=True)
class TrialStats:
    """Empirical violation tally against its analytic comparator.

    ``standard_error`` is the binomial standard error of the comparator
    rate at this trial count (deterministic given the experiment), and the
    acceptance gates allow three of them as slack.
    """

    violation_count: int
    trials: int
    empirical_rate: Fraction
    bound_value: float
    standard_error: float
    y_failure_count: Optional[int] = None

    @property
    def y_failure_rate(self) -> Optional[Fraction]:
        if self.y_failure_count is None:
            return None
        return Fraction(self.y_failure_count, self.trials)

    def passes_gate(self) -> bool:
        return float(self.empirical_rate) <= self.bound_value + 3 * self.standard_error


def _trial_stats(
    violations: int, trials: int, bound: float, y_failures: Optional[int] = None
) -> TrialStats:
    """The tally with its empirical rate and the bound's binomial standard error."""
    return TrialStats(
        violation_count=violations,
        trials=trials,
        empirical_rate=Fraction(violations, trials),
        bound_value=bound,
        standard_error=math.sqrt(max(bound * (1.0 - bound), 0.0) / trials),
        y_failure_count=y_failures,
    )


# numpy's SeedSequence constants (its hash mixes 32-bit words), the number
# of trials whose keys are derived per array pass, and the most trials a run
# has: trial t's spawn key (t,) is one 32-bit word.
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_SHIFT = 16
_KEY_BLOCK = 4096
_MAX_TRIALS = 2**32


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise DegenerateParams("need at least one trial")
    if trials > _MAX_TRIALS:
        raise DegenerateParams(f"at most {_MAX_TRIALS} trials: one 32-bit spawn word per trial")


def _trial_keys(seed: int, trials: int) -> Iterator[Tuple[int, int]]:
    """Trial t's Philox key, ``SeedSequence(seed, spawn_key=(t,))
    .generate_state(2, np.uint64)``, for t in range(trials) (at most 2**32).

    SeedSequence(seed) has already hashed the seed's words into its pool;
    the spawn word t is hashed into each pool word last, with the hash
    constant that the seed's max(4, w) words (w of them, seed 0 counting as
    one) leave behind.  Then generate_state hashes the 4 words out.  Both
    steps run on uint64 arrays of trial indices masked to 32 bits."""
    pool = SeedSequence(seed).pool.astype(np.uint64)  # checks the seed
    words = max(1, -(-int(seed).bit_length() // 32))
    spawn_const = _INIT_A * pow(_MULT_A, 4 * max(4, words), 1 << 32) & _MASK
    mask, shift, high = np.uint64(_MASK), np.uint64(_SHIFT), np.uint64(32)
    for start in range(0, trials, _KEY_BLOCK):
        t = np.arange(start, min(trials, start + _KEY_BLOCK), dtype=np.uint64)
        out, mix_const, hash_const = [], spawn_const, _INIT_B
        for word in pool:
            # mix(word, hashmix(t))
            spawn = t ^ np.uint64(mix_const)
            mix_const = mix_const * _MULT_A & _MASK
            spawn = spawn * np.uint64(mix_const) & mask
            spawn ^= spawn >> shift
            x = (np.uint64(_MIX_MULT_L) * word - np.uint64(_MIX_MULT_R) * spawn) & mask
            x ^= x >> shift
            # generate_state's output hash
            x ^= np.uint64(hash_const)
            hash_const = hash_const * _MULT_B & _MASK
            x = x * np.uint64(hash_const) & mask
            x ^= x >> shift
            out.append(x)
        yield from zip((out[0] | out[1] << high).tolist(), (out[2] | out[3] << high).tolist())


def _trial_generators(seed: int, trials: int) -> Iterator[Generator]:
    """Trial t's generator, drawing exactly as a fresh
    ``Generator(Philox(SeedSequence(seed, spawn_key=(t,))))`` does: one
    Philox put, before each trial, in the state a fresh one starts in (the
    trial's key, counter zero, an empty buffer, no buffered half-word).
    Every trial gets the same object, so draw trial t's sample before asking
    for trial t + 1."""
    bits = Philox(seed)  # its own key is replaced before the first draw
    rng = Generator(bits)
    stream = {"counter": (0, 0, 0, 0), "key": None}
    state = {
        "bit_generator": "Philox", "state": stream, "buffer": (0, 0, 0, 0),
        "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    for key in _trial_keys(seed, trials):
        stream["key"] = key
        bits.state = state
        yield rng


def _supporter_draws(
    supporters: int, honest: int, n_plus: int, trials: int, seed: int
) -> Iterator[int]:
    """Per trial, how many proposal supporters a uniform draw of n_plus
    active voters from the honest ones hits.  Every rule is anonymous, so
    this count is all of a binary trial's active set that matters."""
    for rng in _trial_generators(seed, trials):
        yield int(rng.hypergeometric(ngood=supporters, nbad=honest - supporters, nsample=n_plus))


def run_safety_whp(exp: Experiment) -> TrialStats:
    """Empirical rate of safety violations under random participation,
    compared against the Hoeffding-style tail bound."""
    if exp.profile.domain.kind != "binary":
        raise MechanismMismatch("the w.h.p. safety experiment is binary")
    verifier._check_binary(exp.mechanism, exp.profile.domain)  # before any draw
    domain, counts = exp.profile.domain, exp.profile.counts
    honest_p = sum(counts[c].get(domain.proposal, 0) for c in HONEST_CLASSES)
    sybil_p = counts[VoterClass.SYBIL].get(domain.proposal, 0)
    h, s = exp.profile.n_honest, exp.profile.n_sybil
    n = exp.profile.n
    sigma = exp.profile.sigma
    mu = Fraction(h - exp.n_plus, n)
    tau = exp.mechanism.re_tau

    threshold = safety_threshold(Setting.RANDOM_FINITE, sigma, mu, tau)
    slack = float(exp.alpha_prime - threshold)
    if slack > 0:
        bound = math.exp(-(slack**2) * exp.n_plus / float((1 - sigma) ** 2))
    else:
        bound = 1.0

    region = verifier.outcome_range(
        exp.base, verifier.honest_only(exp.profile), exp.alpha_prime
    ).safe_region(domain)
    sees_passive = VoterClass.HONEST_PASSIVE in rules.visible_classes(exp.mechanism)
    electorate = n if sees_passive else exp.n_plus + s
    violations = 0
    draws = Counter(_supporter_draws(honest_p, h, exp.n_plus, exp.trials, exp.seed))
    for active_p, hits in draws.items():  # a trial's outcome depends only on its draw
        seen = (honest_p if sees_passive else active_p) + sybil_p
        if not region.contains(verifier._binary_outcome(exp.mechanism, domain, seen, electorate)):
            violations += hits
    return _trial_stats(violations, exp.trials, bound)


def run_proxy_whp(exp: Experiment, c: Rational) -> TrialStats:
    """Proxy-delegation trials: violation when the proxy median leaves the
    safety region for budget alpha' = c plus the proxy safety threshold.

    Also tallies how often the good event fails: the passive stretch from
    the all-active counterfactual outcome to the next active honest voter
    exceeding a c fraction of the honest voters.  Both rates are bounded by
    (1 - c)^(active sample size).
    """
    c = as_fraction(c)
    if not 0 < c < 1:
        raise DegenerateParams("c must lie strictly between 0 and 1")
    if exp.profile.domain.kind != "interval":
        raise MechanismMismatch("proxy experiments run on the interval domain")
    rules._check(exp.mechanism, exp.profile.domain)
    if exp.mechanism.participation != "proxy":
        raise MechanismMismatch("proxy experiments need proxy participation")
    sigma = exp.profile.sigma
    tau = exp.mechanism.re_tau
    alpha_prime = c + safety_threshold(Setting.PROXY_INTERVAL, sigma, 0, tau)

    region = verifier.outcome_range(
        exp.base, verifier.honest_only(exp.profile), alpha_prime
    ).safe_region(exp.profile.domain)

    bound = float((1 - c)) ** exp.n_plus
    # One sorted index of the template serves every trial (sample_and_run
    # would rebuild it per call); a trial reads only z and j-hat, as ints
    # compared with the region's ends and with c * h cross-multiplied.
    index = proxy._ProxyIndex(exp.profile, tau)
    scale = index.scale
    lo, hi = region.lo, region.hi
    y_limit = c.numerator * exp.profile.n_honest
    violations = 0
    y_failures = 0
    for rng in _trial_generators(exp.seed, exp.trials):
        _, z, j_hat = index.trial(exp.n_plus, rng)
        if (lo is not None and z * lo.denominator < lo.numerator * scale) or (
                hi is not None and z * hi.denominator > hi.numerator * scale):
            violations += 1
        if j_hat * c.denominator > y_limit:
            y_failures += 1
    return _trial_stats(violations, exp.trials, bound, y_failures)


def hoeffding_diagnostic(
    template: Profile,
    n_plus: int,
    epsilon: Rational,
    trials: int,
    seed: int,
) -> TrialStats:
    """How often does the active proposal share overshoot its expectation by
    epsilon?  Compared against exp(-2 * epsilon^2 * n_plus)."""
    epsilon = as_fraction(epsilon)
    if epsilon < 0:
        raise DegenerateParams("epsilon must be nonnegative")
    if template.domain.kind != "binary":
        raise MechanismMismatch("the diagnostic runs on binary templates")
    _check_trials(trials)
    honest_p = ballot_counts(template.counts, HONEST_CLASSES).get(template.domain.proposal, 0)
    honest = template.n_honest
    check_sample_size(n_plus, honest)
    psi = Fraction(honest_p, honest)
    cutoff = math.ceil((psi + epsilon) * n_plus)  # an int draw reaches c iff it reaches ceil(c)

    overshoots = sum(
        active_p >= cutoff
        for active_p in _supporter_draws(honest_p, honest, n_plus, trials, seed)
    )
    return _trial_stats(overshoots, trials, math.exp(-2 * float(epsilon) ** 2 * n_plus))
