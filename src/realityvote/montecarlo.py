"""Seed-deterministic random-participation experiments.

Each trial draws the active honest set uniformly without replacement from
the template's honest population (a binary trial is only a count table)
and tests its outcome against the verifier's safe region, computed once:
the base rule reads every honest ballot, so no draw changes it.  Trials
use substreams derived from (seed, trial index); serial and parallel
execution therefore agree bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from . import proxy, verifier
from .errors import DegenerateParams, MechanismMismatch, SampleTooLarge
from .guarantees import Setting, safety_threshold
from .population import HONEST_CLASSES, Profile, Rational, VoterClass, as_fraction, ballot_counts
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
        if self.trials < 1:
            raise DegenerateParams("need at least one trial")
        if self.alpha_prime <= 0:
            raise DegenerateParams("alpha_prime must be positive")
        if self.base.participation != "full":
            raise DegenerateParams("the base rule reads every honest ballot")
        if not self.profile.has_full_honest_ballots():
            raise DegenerateParams("template needs every honest ballot")
        if self.n_plus > self.profile.n_honest or self.n_plus < 1:
            raise SampleTooLarge("active sample must fit inside the honest set")


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


def _trial_seed(seed: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(trial,))


def _supporter_draws(
    supporters: int, honest: int, n_plus: int, trials: int, seed: int
) -> Iterator[int]:
    """Per trial, how many proposal supporters a uniform draw of n_plus
    active voters from the honest ones hits.  Every rule is anonymous, so
    this count is all of a binary trial's active set that matters."""
    for trial in range(trials):
        rng = np.random.Generator(np.random.Philox(_trial_seed(seed, trial)))
        yield int(rng.hypergeometric(ngood=supporters, nbad=honest - supporters, nsample=n_plus))


def run_safety_whp(exp: Experiment) -> TrialStats:
    """Empirical rate of safety violations under random participation,
    compared against the Hoeffding-style tail bound."""
    if exp.profile.domain.kind != "binary":
        raise MechanismMismatch("the w.h.p. safety experiment is binary")
    domain = exp.profile.domain
    honest_p = ballot_counts(exp.profile.counts, HONEST_CLASSES).get(domain.proposal, 0)
    sybil_p = exp.profile.counts[VoterClass.SYBIL].get(domain.proposal, 0)
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
    violations = 0
    for active_p in _supporter_draws(honest_p, h, exp.n_plus, exp.trials, exp.seed):
        trial = verifier._binary_counts(
            domain, active_p, exp.n_plus, honest_p - active_p, h - exp.n_plus, sybil_p, s
        )
        if not region.contains(verifier._binary_outcome(exp.mechanism, domain, trial)):
            violations += 1
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
    sigma = exp.profile.sigma
    tau = exp.mechanism.re_tau
    alpha_prime = c + safety_threshold(Setting.PROXY_INTERVAL, sigma, 0, tau)

    region = verifier.outcome_range(
        exp.base, verifier.honest_only(exp.profile), alpha_prime
    ).safe_region(exp.profile.domain)

    h = exp.profile.n_honest
    bound = float((1 - c)) ** exp.n_plus
    violations = 0
    y_failures = 0
    # One sorted index of the template serves every trial (sample_and_run
    # would rebuild it per call).
    index = proxy._ProxyIndex(exp.profile, tau)
    for trial in range(exp.trials):
        z, analysis = index.sample(exp.n_plus, _trial_seed(exp.seed, trial))
        if not region.contains(z):
            violations += 1
        if analysis.j_hat > c * h:
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
    if trials < 1:
        raise DegenerateParams("need at least one trial")
    honest_p = ballot_counts(template.counts, HONEST_CLASSES).get(template.domain.proposal, 0)
    honest = template.n_honest
    if n_plus > honest or n_plus < 1:
        raise SampleTooLarge("active sample must fit inside the honest set")
    psi = Fraction(honest_p, honest)
    cutoff = math.ceil((psi + epsilon) * n_plus)  # an int draw reaches c iff it reaches ceil(c)

    overshoots = sum(
        active_p >= cutoff
        for active_p in _supporter_draws(honest_p, honest, n_plus, trials, seed)
    )
    return _trial_stats(overshoots, trials, math.exp(-2 * float(epsilon) ** 2 * n_plus))
