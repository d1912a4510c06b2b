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
from typing import List, Optional, Sequence, Tuple

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
TauWindow = Tuple[Fraction, Fraction]  # [tau_lo, tau_hi)


def _checked(
    sigma: Rational, mu: Rational, *taus: Rational, name: str = "tau"
) -> Tuple[Fraction, ...]:
    """The parameters as Fractions, once every one is checked; ``name`` is
    what the nonnegative ones after sigma and mu are called in the error."""
    sigma, mu, *taus = map(as_fraction, (sigma, mu, *taus))
    if not (0 <= sigma < 1 and 0 <= mu < 1):
        raise DegenerateParams("sigma and mu must lie in [0, 1)")
    if sigma + mu >= 1:
        raise DegenerateParams("sigma + mu must stay below 1")
    if any(tau < 0 for tau in taus):
        raise DegenerateParams(f"{name} must be nonnegative")
    return (sigma, mu, *taus)


def _tau_weight(setting: Setting) -> int:
    """How many times a formula counts tau: twice under the supermajority
    rule on many alternatives, once in every other setting."""
    return 2 if setting is Setting.MULTI_ALT_SMJ else 1


def _alpha_star(setting: Setting, sigma: Fraction, mu: Fraction, tau: Fraction) -> Fraction:
    if setting in _RANDOM:
        value = (sigma - tau * (1 - mu)) * (1 - sigma) / (2 * (1 - mu - sigma))
    elif setting is Setting.PROXY_INTERVAL:  # mu plays no role
        value = (sigma - tau) / (2 * (1 - sigma))
    else:
        value = (1 + sigma - (1 + _tau_weight(setting) * tau) * (1 - mu)) / (2 * (1 - sigma))
    return max(Fraction(0), value)


def _beta_star(setting: Setting, sigma: Fraction, mu: Fraction, tau: Fraction) -> Fraction:
    if setting is Setting.PROXY_INTERVAL:
        return (1 + tau) / (2 * (1 - sigma))
    return (1 - mu) * (1 + _tau_weight(setting) * tau) / (2 * (1 - sigma - mu))


def _tau_for(setting: Setting, sigma: Fraction, mu: Fraction, alpha: Fraction) -> Fraction:
    """_alpha_star inverted in tau, unclamped."""
    if setting in _RANDOM:
        return (sigma - 2 * alpha * (1 - mu - sigma) / (1 - sigma)) / (1 - mu)
    if setting is Setting.PROXY_INTERVAL:
        return sigma - 2 * alpha * (1 - sigma)
    return ((1 + sigma - 2 * alpha * (1 - sigma)) / (1 - mu) - 1) / _tau_weight(setting)


def _window(setting: Setting, sigma: Fraction, mu: Fraction) -> Optional[TauWindow]:
    """[tau_lo, tau_hi): tau_lo buys 0-safety, and _beta_star reaches 1 at tau_hi."""
    if setting is Setting.PROXY_INTERVAL:
        tau_lo, tau_hi = sigma, 1 - 2 * sigma
    else:
        tau_hi = 2 * (1 - sigma - mu) / (1 - mu) - 1
        if setting in _RANDOM:
            tau_lo = sigma / (1 - mu)
        else:
            weight = _tau_weight(setting)
            tau_lo, tau_hi = ((1 + sigma) / (1 - mu) - 1) / weight, tau_hi / weight
    return (tau_lo, tau_hi) if tau_lo < tau_hi else None


def safety_threshold(
    setting: Setting, sigma: Rational, mu: Rational, tau: Rational
) -> Fraction:
    """Minimal alpha for which the mechanism is alpha-safe, clamped at 0.

    In the proxy and random-finite settings the guarantee is with high
    probability over the participation draw (see ``safety_is_whp``).
    """
    return _alpha_star(setting, *_checked(sigma, mu, tau))


def safety_is_whp(setting: Setting) -> bool:
    return setting in (Setting.RANDOM_FINITE, Setting.PROXY_INTERVAL)


def liveness_threshold(
    setting: Setting, sigma: Rational, mu: Rational, tau: Rational
) -> Fraction:
    """Infimum beta: the mechanism is beta-live for every beta strictly above."""
    return _beta_star(setting, *_checked(sigma, mu, tau))


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
    feasible_tau: Optional[TauWindow]
    impossibility: bool


def feasibility(setting: Setting, sigma: Rational, mu: Rational) -> GuaranteeReport:
    """Can the reality-enforcing parameter buy 0-safety and 1-liveness at once?

    Impossible exactly when 3*sigma + 2*mu >= 1 (arbitrary participation),
    3*sigma + mu >= 1 (random participation), or sigma >= 1/3 (proxy):
    multiplied by 1 - mu > 0, tau_lo < tau_hi is the negation of each.  The
    report is evaluated at tau_lo when the window is nonempty, else at 0.
    """
    sigma, mu = _checked(sigma, mu)
    window = _window(setting, sigma, mu)
    tau = max(Fraction(0), window[0]) if window else Fraction(0)
    return _report(setting, sigma, mu, tau, window)


def required_tau(
    setting: Setting, sigma: Rational, mu: Rational, alpha_target: Rational
) -> Fraction:
    """Minimal tau achieving the requested safety level, by inverting the
    safety threshold; clamped at 0 and nonincreasing in the target."""
    sigma, mu, alpha_target = _checked(sigma, mu, alpha_target, name="alpha target")
    return max(Fraction(0), _tau_for(setting, sigma, mu, alpha_target))


def report(setting: Setting, sigma: Rational, mu: Rational, tau: Rational) -> GuaranteeReport:
    """Full report for one parameter triple (window: see feasibility)."""
    return _reports(setting, sigma, mu, [tau])[0]


def _reports(
    setting: Setting, sigma: Rational, mu: Rational, taus: Sequence[Rational]
) -> List[GuaranteeReport]:
    """report at each tau of a grid; the window of (sigma, mu) is computed once."""
    sigma, mu, *taus = _checked(sigma, mu, *taus)
    window = _window(setting, sigma, mu)
    return [_report(setting, sigma, mu, tau, window) for tau in taus]


def _report(
    setting: Setting, sigma: Fraction, mu: Fraction, tau: Fraction, window: Optional[TauWindow]
) -> GuaranteeReport:
    """The report on checked parameters and their window."""
    return GuaranteeReport(
        setting=setting,
        sigma=sigma,
        mu=mu,
        tau=tau,
        alpha_star=_alpha_star(setting, sigma, mu, tau),
        beta_star=_beta_star(setting, sigma, mu, tau),
        alpha_is_whp=safety_is_whp(setting),
        feasible_tau=window,
        impossibility=window is None,
    )
