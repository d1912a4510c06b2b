"""Independent reference computations for the benchmark's output checks.

Nothing here imports realityvote.  Each function recomputes, by a separate
and simpler route, an answer the library gives, so that every output of a
benchmark run can be compared exactly (rationals as ``p/q`` strings, counts
as integers, gate verdicts as booleans) for any seed.  The Monte Carlo
checks replay the library's documented random stream: trial ``t`` of an
experiment with seed ``s`` draws from ``Philox(SeedSequence(s, spawn_key=(t,)))``.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

_BIG_STEP = 1_000_000


def fmt(value) -> str:
    """A rational as 'p/q', or 'p' when integral."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    )


# ---------------------------------------------------------------------------
# Weighted medians with the status-quo tie rule.


def median_with_status_quo(masses: Dict[Fraction, Fraction], r: Fraction) -> Fraction:
    """Lower/upper weighted-median bounds of the positive masses, then the
    point of that interval nearest r."""
    items = sorted((pos, mass) for pos, mass in masses.items() if mass)
    total = sum(mass for _, mass in items)
    lo = hi = None
    prefix = 0
    for pos, mass in items:
        prefix += mass
        if lo is None and 2 * prefix >= total:
            lo = pos
        if 2 * prefix > total:
            hi = pos
            break
    return max(lo, min(r, hi))


def unit_masses(positions, extra: Optional[Tuple[Fraction, Fraction]] = None):
    masses: Dict[Fraction, Fraction] = Counter(positions)
    if extra is not None and extra[1]:
        masses[extra[0]] = masses.get(extra[0], 0) + extra[1]
    return masses


# ---------------------------------------------------------------------------
# Binary closed forms.


def binary_outcome_range_has_p(honest_p: int, honest_r: int, budget: int) -> bool:
    """Plain majority on the honest voters: the proposal is reachable when
    replacing min(budget, honest_r) status-quo voters and adding the rest of
    the budget on p gives p a strict majority."""
    return honest_p + budget > honest_r - min(budget, honest_r)


def random_finite_safety_threshold(sigma: Fraction, mu: Fraction, tau: Fraction) -> Fraction:
    value = (sigma - tau * (1 - mu)) * (1 - sigma) / (2 * (1 - mu - sigma))
    return max(Fraction(0), value)


def gate(violations: int, trials: int, bound: float) -> bool:
    se = math.sqrt(max(bound * (1.0 - bound), 0.0) / trials)
    return float(Fraction(violations, trials)) <= bound + 3 * se


def whp_stats(
    honest_p: int, honest_r: int, sybil_p: int, sybil_r: int,
    tau: Fraction, alpha_prime: Fraction, n_plus: int, trials: int, seed: int,
) -> dict:
    """Violation count and gate verdict of run_safety_whp on a binary template."""
    h = honest_p + honest_r
    n = h + sybil_p + sybil_r
    budget = math.floor(alpha_prime * h)
    p_reachable = binary_outcome_range_has_p(honest_p, honest_r, budget)
    violations = 0
    for trial in range(trials):
        active_p = int(
            trial_rng(seed, trial).hypergeometric(
                ngood=honest_p, nbad=honest_r, nsample=n_plus
            )
        )
        active_r = n_plus - active_p
        q = tau * (n_plus + sybil_p + sybil_r)
        elects_p = active_p + sybil_p > active_r + sybil_r + q
        violations += elects_p and not p_reachable
    sigma = Fraction(sybil_p + sybil_r, n)
    mu = Fraction(h - n_plus, n)
    slack = float(alpha_prime - random_finite_safety_threshold(sigma, mu, tau))
    bound = math.exp(-(slack**2) * n_plus / float((1 - sigma) ** 2)) if slack > 0 else 1.0
    return {
        "violations": violations,
        "rate": fmt(Fraction(violations, trials)),
        "gate": gate(violations, trials, bound),
    }


def hoeffding_stats(
    honest_p: int, honest: int, n_plus: int, epsilon: Fraction, trials: int, seed: int
) -> dict:
    cutoff = (Fraction(honest_p, honest) + epsilon) * n_plus
    overshoots = 0
    for trial in range(trials):
        active_p = int(
            trial_rng(seed, trial).hypergeometric(
                ngood=honest_p, nbad=honest - honest_p, nsample=n_plus
            )
        )
        overshoots += active_p >= cutoff
    bound = math.exp(-2 * float(epsilon) ** 2 * n_plus)
    return {
        "violations": overshoots,
        "rate": fmt(Fraction(overshoots, trials)),
        "gate": gate(overshoots, trials, bound),
    }


# ---------------------------------------------------------------------------
# Interval: median outcome range, proxy delegation, proxy trials.


def md_range(honest: Sequence[Fraction], sybils: Sequence[Fraction], r: Fraction, budget: int):
    """Outcome range of the plain median over every modification of at most
    ``budget`` honest voters.  With no virtual mass, removing from the low
    tail and parking movers far above both weakly raise the median interval,
    so the top extreme uses all removals and all additions (and symmetrically
    for the bottom).  Returns (lo, hi), None for an unbounded side."""
    spread = [abs(p) for p in honest] + [abs(p) for p in sybils] + [abs(r)]
    sentinel = max(spread) + _BIG_STEP
    ordered = sorted(honest)
    removals = min(budget, len(ordered))
    top = ordered[removals:] + [sentinel] * budget + list(sybils)
    bottom = [-sentinel] * budget + ordered[: len(ordered) - removals] + list(sybils)
    hi = median_with_status_quo(unit_masses(top), r)
    lo = median_with_status_quo(unit_masses(bottom), r)
    return (None if lo <= -sentinel else lo), (None if hi >= sentinel else hi)


def delegate(r: Fraction, actives: Sequence[Fraction], passives: Sequence[Fraction]):
    """Followers per proxy position: each passive voter goes to the nearest
    of the active positions and r; an exact midpoint goes toward r."""
    pool = sorted(set(actives) | {r})
    followers: Dict[Fraction, int] = Counter()
    for pos in passives:
        i = bisect.bisect_left(pool, pos)
        if i == len(pool):
            target = pool[-1]
        elif pool[i] == pos or i == 0:
            target = pool[i]
        else:
            left, right = pool[i - 1], pool[i]
            if pos - left != right - pos:
                target = left if pos - left < right - pos else right
            else:
                target = right if pos < r else left
        followers[target] += 1
    return followers


def proxy_median(r, actives, passives, q) -> Fraction:
    """Lowest position whose inclusive prefix weight covers half the total."""
    weights = Counter(actives)
    for pos, count in delegate(r, actives, passives).items():
        weights[pos] += count
    weights[r] += q
    items = sorted((pos, w) for pos, w in weights.items() if w)
    total = sum(w for _, w in items)
    prefix = 0
    for pos, w in items:
        prefix += w
        if 2 * prefix >= total:
            return pos
    raise AssertionError("unreachable")


def proxy_eval_lines(r, voters, tau) -> List[str]:
    """The ``entities:`` block of ``realityvote eval`` in proxy mode.

    ``voters`` is a list of (class tag, position).  Active entities come in
    profile order; a position's followers go to its first active voter.
    """
    actives = [pos for cls, pos in voters if cls != "honest_passive"]
    passives = [pos for cls, pos in voters if cls == "honest_passive"]
    remaining = dict(delegate(r, actives, passives))
    entities = []
    for pos in actives:
        entities.append((pos, 1 + remaining.pop(pos, 0), False))
    entities.append((r, tau * len(voters) + remaining.pop(r, 0), True))
    entities.sort(key=lambda e: (e[0], not e[2]))
    return [
        f"  {fmt(pos)}: {fmt(weight)}{' (status quo)' if sq else ''}"
        for pos, weight, sq in entities
    ]


def proxy_stats(
    r: Fraction, honest: Sequence[Fraction], sybils: Sequence[Fraction],
    tau: Fraction, c: Fraction, n_plus: int, trials: int, seed: int,
) -> dict:
    """Violation and good-event-failure counts of run_proxy_whp."""
    h, n = len(honest), len(honest) + len(sybils)
    sigma = Fraction(len(sybils), n)
    alpha_prime = c + max(Fraction(0), (sigma - tau) / (2 * (1 - sigma)))
    lo, hi = md_range(honest, sybils=(), r=r, budget=int(alpha_prime * h))
    lo = None if lo is None else min(r, lo)
    hi = None if hi is None else max(r, hi)
    q = tau * n

    h_star = median_with_status_quo(unit_masses(honest), r)
    mirror = h_star < r
    flip = (lambda x: 2 * r - x) if mirror else (lambda x: x)
    h_hat = median_with_status_quo(
        unit_masses([flip(p) for p in list(honest) + list(sybils)], (r, q)), r
    )

    violations = y_failures = 0
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        chosen = set(rng.choice(h, size=n_plus, replace=False).tolist())
        active = [p for i, p in enumerate(honest) if i in chosen]
        passive = [p for i, p in enumerate(honest) if i not in chosen]
        z = proxy_median(r, active + list(sybils), passive, q)
        if (lo is not None and z < lo) or (hi is not None and z > hi):
            violations += 1
        work_passive = [flip(p) for p in passive]
        above = [flip(p) for p in active if flip(p) >= h_hat]
        if above:
            bar = min(above)
            j_hat = sum(1 for p in work_passive if h_hat < p <= bar)
        else:
            j_hat = sum(1 for p in work_passive if p > h_hat)
        y_failures += j_hat > c * h
    bound = float(1 - c) ** n_plus
    return {
        "violations": violations,
        "y_failures": y_failures,
        "rate": fmt(Fraction(violations, trials)),
        "gate": gate(violations, trials, bound),
    }


# ---------------------------------------------------------------------------
# Categorical outcome ranges by voter-level enumeration.


def plurality(ballots, alternatives, r):
    scores = Counter(ballots)
    top = max(scores.get(a, 0) for a in alternatives)
    if scores.get(r, 0) == top:
        return r
    return next(a for a in alternatives if scores.get(a, 0) == top)


def condorcet(ballots, alternatives, r):
    """Condorcet-conservative with tau = 0: a challenger must beat every
    other alternative by a strict majority of all cast ballots."""
    cast = len(ballots)
    pref = Counter()
    for ranking in ballots:
        for i, upper in enumerate(ranking):
            for lower in ranking[i + 1:]:
                pref[upper, lower] += 1
    for candidate in alternatives:
        if candidate == r:
            continue
        if all(2 * pref[candidate, other] > cast for other in alternatives if other != candidate):
            return candidate
    return r


def categorical_range(rule: str, alternatives, r, honest, sybils, budget: int):
    """Every outcome reachable by removing x <= budget honest voters and
    adding y in [x, budget] new ballots, enumerated voter by voter."""
    evaluate = plurality if rule == "pl" else condorcet
    candidates = (
        list(itertools.permutations(alternatives)) if rule == "cc" else list(alternatives)
    )
    outcomes = set()
    for x in range(min(budget, len(honest)) + 1):
        for removed in itertools.combinations(range(len(honest)), x):
            kept = [b for i, b in enumerate(honest) if i not in removed]
            for y in range(x, budget + 1):
                for added in itertools.combinations_with_replacement(candidates, y):
                    outcomes.add(evaluate(kept + list(added) + list(sybils), alternatives, r))
    return sorted(outcomes)
