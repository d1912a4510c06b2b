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
from math import lcm
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
    values = tuple(map(as_fraction, (sigma, mu, *taus)))
    (a, b), (c, d) = values[0].as_integer_ratio(), values[1].as_integer_ratio()
    if not (0 <= a < b and 0 <= c < d):
        raise DegenerateParams("sigma and mu must lie in [0, 1)")
    if a * d + c * b >= b * d:
        raise DegenerateParams("sigma + mu must stay below 1")
    if any(tau.numerator < 0 for tau in values[2:]):
        raise DegenerateParams(f"{name} must be nonnegative")
    return values


def _unit(sigma: Fraction, mu: Fraction, other: Rational = 0) -> Tuple[int, int, int, int]:
    """(d, s, m, t): sigma, mu and other are s/d, m/d and t/d, d the lcm of their denominators."""
    (s, ds), (m, dm), (t, dt) = (value.as_integer_ratio() for value in (sigma, mu, other))
    d = lcm(ds, dm, dt)
    return d, s * (d // ds), m * (d // dm), t * (d // dt)


def _tau_weight(setting: Setting) -> int:
    """How many times a formula counts tau: twice under the supermajority
    rule on many alternatives, once in every other setting."""
    return 2 if setting is Setting.MULTI_ALT_SMJ else 1


def _alpha_star(setting: Setting, d: int, s: int, m: int, t: int) -> Fraction:
    """alpha* at sigma, mu, tau = s/d, m/d, t/d (see _unit)."""
    if setting in _RANDOM:  # (sigma - tau (1 - mu)) (1 - sigma) / (2 (1 - mu - sigma))
        num, den = (s * d - t * (d - m)) * (d - s), 2 * d * d * (d - m - s)
    elif setting is Setting.PROXY_INTERVAL:  # (sigma - tau) / (2 (1 - sigma)): no mu
        num, den = s - t, 2 * (d - s)
    else:  # (1 + sigma - (1 + w tau) (1 - mu)) / (2 (1 - sigma))
        num, den = d * (d + s) - (d + _tau_weight(setting) * t) * (d - m), 2 * d * (d - s)
    return Fraction(num, den) if num > 0 else Fraction(0)


def _beta_star(setting: Setting, d: int, s: int, m: int, t: int) -> Fraction:
    """beta* at sigma, mu, tau = s/d, m/d, t/d (see _unit)."""
    if setting is Setting.PROXY_INTERVAL:  # (1 + tau) / (2 (1 - sigma))
        return Fraction(d + t, 2 * (d - s))
    # (1 - mu) (1 + w tau) / (2 (1 - sigma - mu))
    return Fraction((d - m) * (d + _tau_weight(setting) * t), 2 * d * (d - s - m))


def _tau_for(setting: Setting, sigma: Fraction, mu: Fraction, alpha: Fraction) -> Fraction:
    """_alpha_star inverted in tau, clamped at 0."""
    d, s, m, a = _unit(sigma, mu, alpha)
    if setting in _RANDOM:  # (sigma - 2 alpha (1 - mu - sigma) / (1 - sigma)) / (1 - mu)
        num, den = s * (d - s) - 2 * a * (d - m - s), (d - s) * (d - m)
    elif setting is Setting.PROXY_INTERVAL:  # sigma - 2 alpha (1 - sigma)
        num, den = s * d - 2 * a * (d - s), d * d
    else:  # ((1 + sigma - 2 alpha (1 - sigma)) / (1 - mu) - 1) / w
        num, den = d * (s + m) - 2 * a * (d - s), _tau_weight(setting) * d * (d - m)
    return Fraction(num, den) if num > 0 else Fraction(0)


def _window(setting: Setting, sigma: Fraction, mu: Fraction) -> Optional[TauWindow]:
    """[tau_lo, tau_hi): tau_lo buys 0-safety, and _beta_star reaches 1 at tau_hi."""
    d, s, m, _ = _unit(sigma, mu)
    if setting is Setting.PROXY_INTERVAL:  # [sigma, 1 - 2 sigma)
        lo, hi, den = s, d - 2 * s, d
    else:  # tau_lo = sigma / (1 - mu) if random, else ((1 + sigma) / (1 - mu) - 1) / w
        lo = s if setting in _RANDOM else s + m
        # tau_hi = (2 (1 - sigma - mu) / (1 - mu) - 1) / w
        hi, den = d - 2 * s - m, _tau_weight(setting) * (d - m)
    return (Fraction(lo, den), Fraction(hi, den)) if lo < hi else None


def safety_threshold(
    setting: Setting, sigma: Rational, mu: Rational, tau: Rational
) -> Fraction:
    """Minimal alpha for which the mechanism is alpha-safe, clamped at 0.

    In the proxy and random-finite settings the guarantee is with high
    probability over the participation draw (see ``safety_is_whp``).
    """
    return _alpha_star(setting, *_unit(*_checked(sigma, mu, tau)))


def safety_is_whp(setting: Setting) -> bool:
    return setting in (Setting.RANDOM_FINITE, Setting.PROXY_INTERVAL)


def liveness_threshold(
    setting: Setting, sigma: Rational, mu: Rational, tau: Rational
) -> Fraction:
    """Infimum beta: the mechanism is beta-live for every beta strictly above."""
    return _beta_star(setting, *_unit(*_checked(sigma, mu, tau)))


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
    tau = window[0] if window else Fraction(0)  # tau_lo is never negative
    return _report(setting, sigma, mu, tau, window)


def required_tau(
    setting: Setting, sigma: Rational, mu: Rational, alpha_target: Rational
) -> Fraction:
    """Minimal tau achieving the requested safety level, by inverting the
    safety threshold; clamped at 0 and nonincreasing in the target."""
    return _tau_for(setting, *_checked(sigma, mu, alpha_target, name="alpha target"))


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
    unit = _unit(sigma, mu, tau)
    return GuaranteeReport(
        setting=setting,
        sigma=sigma,
        mu=mu,
        tau=tau,
        alpha_star=_alpha_star(setting, *unit),
        beta_star=_beta_star(setting, *unit),
        alpha_is_whp=safety_is_whp(setting),
        feasible_tau=window,
        impossibility=window is None,
    )
