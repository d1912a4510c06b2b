"""Closed-form safety/liveness thresholds and the feasibility frontier.

Thresholds are the exact continuous (nonatomic) values; finite-instance
granularity corrections belong to the brute-force verifier, which is the
source of truth for small populations.  Liveness thresholds are open
bounds: liveness holds strictly above them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import DegenerateParams
from .population import Rational, as_fraction


class Setting(enum.Enum):
    """Which participation/domain regime a formula belongs to."""

    ARBITRARY_BINARY = "arbitrary"
    RANDOM_NONATOMIC = "random"
    RANDOM_FINITE = "random_finite"
    MULTI_ALT_SMJ = "multialt"
    PROXY_INTERVAL = "proxy"


_RANDOM = (Setting.RANDOM_NONATOMIC, Setting.RANDOM_FINITE)


def _check_params(sigma: Fraction, mu: Fraction, tau: Fraction = Fraction(0)):
    if not (0 <= sigma < 1 and 0 <= mu < 1):
        raise DegenerateParams("sigma and mu must lie in [0, 1)")
    if sigma + mu >= 1:
        raise DegenerateParams("sigma + mu must stay below 1")
    if tau < 0:
        raise DegenerateParams("tau must be nonnegative")


def safety_threshold(
    setting: Setting, sigma: Rational, mu: Rational, tau: Rational
) -> Fraction:
    """Minimal alpha for which the mechanism is alpha-safe, clamped at 0.

    In the proxy and random-finite settings the guarantee is with high
    probability over the participation draw (see ``safety_is_whp``).
    """
    sigma, mu, tau = as_fraction(sigma), as_fraction(mu), as_fraction(tau)
    _check_params(sigma, mu, tau)
    if setting is Setting.ARBITRARY_BINARY:
        value = (1 + sigma - (1 + tau) * (1 - mu)) / (2 * (1 - sigma))
    elif setting in _RANDOM:
        value = (sigma - tau * (1 - mu)) * (1 - sigma) / (2 * (1 - mu - sigma))
    elif setting is Setting.MULTI_ALT_SMJ:
        value = (1 + sigma - (1 + 2 * tau) * (1 - mu)) / (2 * (1 - sigma))
    else:  # proxy interval; mu plays no role
        value = (sigma - tau) / (2 * (1 - sigma))
    return max(Fraction(0), value)


def safety_is_whp(setting: Setting) -> bool:
    return setting in (Setting.RANDOM_FINITE, Setting.PROXY_INTERVAL)


def liveness_threshold(
    setting: Setting, sigma: Rational, mu: Rational, tau: Rational
) -> Fraction:
    """Infimum beta: the mechanism is beta-live for every beta strictly above."""
    sigma, mu, tau = as_fraction(sigma), as_fraction(mu), as_fraction(tau)
    _check_params(sigma, mu, tau)
    if setting is Setting.MULTI_ALT_SMJ:
        return (1 - mu) * (1 + 2 * tau) / (2 * (1 - sigma - mu))
    if setting is Setting.PROXY_INTERVAL:
        return (1 + tau) / (2 * (1 - sigma))
    return (1 - mu) * (1 + tau) / (2 * (1 - sigma - mu))


@dataclass(frozen=True)
class GuaranteeReport:
    """Thresholds and feasibility verdict for one (setting, sigma, mu, tau).

    ``feasible_tau`` is the half-open interval [tau_lo, tau_hi) of RE
    parameters achieving 0-safety (w.h.p. in random settings) and
    1-liveness simultaneously; empty exactly when ``impossibility`` holds.
    """

    setting: Setting
    sigma: Fraction
    mu: Fraction
    tau: Fraction
    alpha_star: Fraction
    beta_star: Fraction
    alpha_is_whp: bool
    feasible_tau: Optional[Tuple[Fraction, Fraction]]
    impossibility: bool


def _zero_safe_one_live_interval(
    setting: Setting, sigma: Fraction, mu: Fraction
) -> Optional[Tuple[Fraction, Fraction]]:
    if setting in (Setting.ARBITRARY_BINARY, Setting.MULTI_ALT_SMJ):
        tau_lo = (1 + sigma) / (1 - mu) - 1
        tau_hi = 2 * (1 - sigma - mu) / (1 - mu) - 1
        if setting is Setting.MULTI_ALT_SMJ:
            tau_lo, tau_hi = tau_lo / 2, tau_hi / 2
    elif setting in _RANDOM:
        tau_lo = sigma / (1 - mu)
        tau_hi = 2 * (1 - sigma - mu) / (1 - mu) - 1
    else:  # proxy
        tau_lo = sigma
        tau_hi = 1 - 2 * sigma
    if tau_lo < tau_hi:
        return (tau_lo, tau_hi)
    return None


def feasibility(setting: Setting, sigma: Rational, mu: Rational) -> GuaranteeReport:
    """Can the reality-enforcing parameter buy 0-safety and 1-liveness at once?

    Impossible exactly when 3*sigma + 2*mu >= 1 (arbitrary participation),
    3*sigma + mu >= 1 (random participation), or sigma >= 1/3 (proxy):
    multiplied by 1 - mu > 0, tau_lo < tau_hi is the negation of each.  The
    report is evaluated at tau_lo when the window is nonempty, else at 0.
    """
    sigma, mu = as_fraction(sigma), as_fraction(mu)
    _check_params(sigma, mu)
    window = _zero_safe_one_live_interval(setting, sigma, mu)
    return report(setting, sigma, mu, max(Fraction(0), window[0]) if window else 0)


def required_tau(
    setting: Setting, sigma: Rational, mu: Rational, alpha_target: Rational
) -> Fraction:
    """Minimal tau achieving the requested safety level, by inverting the
    safety threshold; clamped at 0 and nonincreasing in the target."""
    sigma, mu = as_fraction(sigma), as_fraction(mu)
    alpha_target = as_fraction(alpha_target)
    _check_params(sigma, mu)
    if alpha_target < 0:
        raise DegenerateParams("alpha target must be nonnegative")
    if setting is Setting.ARBITRARY_BINARY:
        tau = (1 + sigma - 2 * alpha_target * (1 - sigma)) / (1 - mu) - 1
    elif setting in _RANDOM:
        tau = (sigma - 2 * alpha_target * (1 - mu - sigma) / (1 - sigma)) / (1 - mu)
    elif setting is Setting.MULTI_ALT_SMJ:
        tau = ((1 + sigma - 2 * alpha_target * (1 - sigma)) / (1 - mu) - 1) / 2
    else:
        tau = sigma - 2 * alpha_target * (1 - sigma)
    return max(Fraction(0), tau)


def report(
    setting: Setting, sigma: Rational, mu: Rational, tau: Rational
) -> GuaranteeReport:
    """Full report for one parameter triple (window: see feasibility)."""
    sigma, mu, tau = as_fraction(sigma), as_fraction(mu), as_fraction(tau)
    _check_params(sigma, mu, tau)
    window = _zero_safe_one_live_interval(setting, sigma, mu)
    return GuaranteeReport(
        setting=setting,
        sigma=sigma,
        mu=mu,
        tau=tau,
        alpha_star=safety_threshold(setting, sigma, mu, tau),
        beta_star=liveness_threshold(setting, sigma, mu, tau),
        alpha_is_whp=safety_is_whp(setting),
        feasible_tau=window,
        impossibility=window is None,
    )
