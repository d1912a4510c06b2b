"""Command-line surface: evaluate profiles, sweep the feasibility frontier,
cross-check formulas against the brute-force oracle, and run simulations.

Exit codes: 0 ok, 1 oracle/formula mismatch, 2 bad input, 3 domain or
mechanism mismatch, 4 enumeration budget exceeded, 5 statistical gate
failure.  Every command is deterministic given its arguments.
"""

from __future__ import annotations

import argparse
import bisect
import math
import operator
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Tuple

from . import formats, guarantees, proxy, rules, verifier
from .errors import (
    BudgetExceeded,
    InvalidBallot,
    MechanismMismatch,
    NonRankingBallot,
    RealityVoteError,
)
from .guarantees import Setting
from .population import format_rational
from .rules import Mechanism

if TYPE_CHECKING:
    from .montecarlo import TrialStats

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4
EXIT_GATE = 5

ENUM_CAP_ENV = "REALITYVOTE_ENUM_CAP"
DEFAULT_ENUM_CAP = 10

_SETTINGS = {
    "arbitrary": Setting.ARBITRARY_BINARY,
    "random": Setting.RANDOM_NONATOMIC,
    "random-finite": Setting.RANDOM_FINITE,
    "multialt": Setting.MULTI_ALT_SMJ,
    "proxy": Setting.PROXY_INTERVAL,
}


def parse_mechanism(spec: str) -> Mechanism:
    """Grammar: base{mj|pl|smj:T|cc|scc:T|imj|md|som:T} [re:T] [mode:{full|active|proxy}]."""
    tokens = spec.split()
    if not tokens:
        raise MechanismMismatch("empty mechanism spec")
    head = tokens[0]
    if ":" in head:
        name, _, raw_tau = head.partition(":")
        if name not in rules.THRESHOLD_RULES:
            raise MechanismMismatch(f"base rule {name!r} takes no threshold")
        base_tau = formats.parse_rational(raw_tau)
    else:
        name, base_tau = head, Fraction(0)
    re_tau = Fraction(0)
    mode = "full"
    for token in tokens[1:]:
        if token.startswith("re:"):
            re_tau = formats.parse_rational(token[3:])
        elif token.startswith("mode:"):
            mode = token[5:]  # Mechanism checks it
        else:
            raise MechanismMismatch(f"unrecognized mechanism token {token!r}")
    return Mechanism(base=name, base_tau=base_tau, re_tau=re_tau, participation=mode)


def _load_profile(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return formats.profile_from_json(handle.read())


def _format_outcome(outcome) -> str:
    if isinstance(outcome, tuple):
        return "".join(str(b) for b in outcome)
    if isinstance(outcome, Fraction):
        return format_rational(outcome)
    return str(outcome)


def _tally_order(domain, counts):
    """A finite domain's tally (ballot, count) items in print order."""
    if domain.kind == "hypercube":  # points sort naturally, and no two are equal
        return sorted(counts.items())
    order = {a: i for i, a in enumerate(domain.alternative_list())}
    rank = lambda b: (0, order[b]) if b in order else (1, tuple(order[x] for x in b))
    return sorted(counts.items(), key=lambda item: rank(item[0]))


_position_of = operator.itemgetter(0)


def _entity_lines(index) -> List[str]:
    """A proxy index's entities ascending, the status quo first on its
    position and one position's voters in profile order."""
    rows, (r, position, weight) = index.weights()
    rows.sort(key=_position_of)  # stable
    labels = {x: p for x, p, _ in rows}  # each distinct position formatted once
    labels = {x: format_rational(p) for x, p in labels.items()}
    lines = [f"  {labels[x]}: {w}" for x, _, w in rows]
    status_quo = f"  {format_rational(position)}: {format_rational(weight)} (status quo)"
    lines.insert(bisect.bisect_left(rows, r, key=_position_of), status_quo)
    return lines


def cmd_eval(args) -> int:
    profile = _load_profile(args.profile)
    mechanism = parse_mechanism(args.mechanism)
    domain = profile.domain
    rules._check(mechanism, domain)  # a mismatch is reported first
    if mechanism.participation == "proxy":  # one index gives outcome and weights
        index = proxy._ProxyIndex(profile, mechanism.re_tau)
        outcome, lines = index.median(), ["entities:", *_entity_lines(index)]
    else:  # rules.apply, keeping the tally to print
        if domain.kind == "interval":  # md and som, counted on the integer index
            outcome, q, rows = rules.apply_on_line(mechanism, profile)
        else:
            tally = rules.build_tally(mechanism, profile.counts)
            outcome = rules.evaluate_tally(mechanism, tally, domain)
            q, rows = tally.virtual_mass, _tally_order(domain, tally.counts)
        lines = [f"visible: {sum(count for _, count in rows)}", f"q: {format_rational(q)}"]
        lines.append("tally:")
        lines += [f"  {_format_outcome(ballot)}: {count}" for ballot, count in rows]
    print(f"mechanism: {mechanism.describe()}")
    print(f"outcome: {_format_outcome(outcome)}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_frontier(args) -> int:
    setting = _SETTINGS[args.setting]
    text = formats.write_frontier_csv(
        setting, args.sigma_grid, args.mu_grid, args.tau_grid, schema_version=args.schema_version
    )
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return EXIT_OK


def shape(raw: str) -> Tuple[int, Fraction, Fraction]:  # argparse's errors name it
    pieces = raw.split(",")
    if len(pieces) != 3:
        raise RealityVoteError("shape must be n,sigma,mu")
    n, sigma, mu = pieces
    return formats.parse_int(n), formats.parse_rational(sigma), formats.parse_rational(mu)


def enumeration_cap() -> int:
    """Instance-size cap for the exhaustive commands, env-overridable."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        return formats.parse_int(raw)
    except InvalidBallot:
        raise BudgetExceeded(f"bad {ENUM_CAP_ENV} value {raw!r}") from None


def cmd_oracle(args) -> int:
    n, sigma, mu = args.shape
    cap = enumeration_cap()
    if n > cap:
        raise BudgetExceeded(
            f"n={n} above the enumeration cap {cap} (override with {ENUM_CAP_ENV})"
        )
    mechanism = parse_mechanism(args.mechanism)
    base = parse_mechanism(args.base) if args.base else Mechanism(base="mj")
    setting, tau = rules.closed_form(mechanism)

    if args.liveness:
        threshold = guarantees.liveness_threshold(setting, sigma, mu, tau)
        finite = verifier.smallest_live_beta(
            mechanism, args.shape, args.target or "p", max_units=args.max_units
        )
        units = verifier.visible_honest(mechanism, args.shape)
        adjusted = Fraction(int(threshold * units) + 1, units)  # least multiple strictly above
        labels = ("finite beta", "formula threshold (open)")
    else:
        finite = verifier.min_alpha(mechanism, base, args.shape)
        threshold = guarantees.safety_threshold(setting, sigma, mu, tau)
        h = n - int(sigma * n)
        adjusted = max(Fraction(0), Fraction(math.ceil(threshold * h), h))
        labels = ("finite min alpha", "formula threshold")
    for label, value in zip((*labels, "granularity-adjusted"), (finite, threshold, adjusted)):
        print(f"{label}: {format_rational(value)}")
    match = finite == adjusted
    print(f"match: {'yes' if match else 'no'}")
    return EXIT_OK if match else EXIT_MISMATCH


def _print_stats(label: str, stats: TrialStats) -> None:
    print(f"{label}:")
    print(f"  trials: {stats.trials}")
    print(f"  violations: {stats.violation_count}")
    print(f"  empirical rate: {float(stats.empirical_rate):.6g}")
    print(f"  bound: {stats.bound_value:.6g}")
    print(f"  standard error: {stats.standard_error:.6g}")
    if stats.y_failure_count is not None:
        print(f"  good-event failures: {stats.y_failure_count}")
    print(f"  gate (bound + 3 s.e.): {'pass' if stats.passes_gate() else 'FAIL'}")


def cmd_simulate(args) -> int:
    from . import montecarlo  # the one command that needs numpy

    template = _load_profile(args.template)
    rows = []
    n_grid = (
        [formats.parse_int(x) for x in args.n_plus_grid.split(",")]
        if args.n_plus_grid
        else [args.n_plus]
    )
    ok = True
    whp = args.kind == "whp"  # else proxy or hoeffding
    base, mode, alpha_prime = ("mj", "active", args.alpha_prime) if whp else ("md", "proxy", args.c)
    for n_plus in n_grid:
        if args.kind == "hoeffding":
            stats = montecarlo.hoeffding_diagnostic(
                template, n_plus, args.epsilon, args.trials, args.seed
            )
        else:
            exp = montecarlo.Experiment(
                profile=template,
                mechanism=Mechanism(base=base, re_tau=args.tau, participation=mode),
                base=Mechanism(base=base),
                alpha_prime=alpha_prime,
                trials=args.trials,
                seed=args.seed,
                n_plus=n_plus,
            )
            if whp:
                stats = montecarlo.run_safety_whp(exp)
            else:
                stats = montecarlo.run_proxy_whp(exp, args.c)
        _print_stats(f"{args.kind} n+={n_plus}", stats)
        ok = ok and stats.passes_gate()
        rows.append(
            [
                str(n_plus),
                str(stats.violation_count),
                str(stats.trials),
                f"{float(stats.empirical_rate):.8g}",
                f"{stats.bound_value:.8g}",
                f"{stats.standard_error:.8g}",
            ]
        )
    if args.curve_out:
        import csv

        with open(args.curve_out, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(
                ["n_plus", "violations", "trials", "rate", "bound", "stderr"]
            )
            writer.writerows(rows)
    return EXIT_OK if ok else EXIT_GATE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realityvote",
        description="Sybil-resilient status-quo-anchored voting: evaluation, "
        "guarantees, verification, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a mechanism on a profile file")
    p_eval.add_argument("--profile", required=True)
    p_eval.add_argument("--mechanism", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_frontier = sub.add_parser("frontier", help="sweep the feasibility frontier")
    p_frontier.add_argument("--setting", choices=sorted(_SETTINGS), required=True)
    p_frontier.add_argument("--sigma-grid", type=formats.parse_rational_list, required=True)
    p_frontier.add_argument("--mu-grid", type=formats.parse_rational_list, required=True)
    p_frontier.add_argument("--tau-grid", type=formats.parse_rational_list, required=True)
    p_frontier.add_argument("--out", required=True, help="output CSV path or -")
    p_frontier.add_argument("--schema-version", type=formats.parse_int, default=1)
    p_frontier.set_defaults(func=cmd_frontier)

    p_oracle = sub.add_parser("oracle", help="brute-force vs closed-form cross-check")
    p_oracle.add_argument("--shape", type=shape, required=True, help="n,sigma,mu")
    p_oracle.add_argument("--mechanism", required=True)
    p_oracle.add_argument("--base", default=None)
    p_oracle.add_argument("--liveness", action="store_true")
    p_oracle.add_argument("--target", default=None)
    p_oracle.add_argument("--max-units", type=formats.parse_int, default=64)
    p_oracle.set_defaults(func=cmd_oracle)

    p_sim = sub.add_parser("simulate", help="random-participation experiments")
    p_sim.add_argument("--kind", choices=("whp", "proxy", "hoeffding"), required=True)
    p_sim.add_argument("--template", required=True)
    p_sim.add_argument("--n-plus", type=formats.parse_int, default=10)
    p_sim.add_argument("--n-plus-grid", default=None, help="comma list for decay curves")
    p_sim.add_argument("--trials", type=formats.parse_int, required=True)
    p_sim.add_argument("--seed", type=formats.parse_int, required=True)
    p_sim.add_argument("--alpha-prime", type=formats.parse_rational, default="1/100")
    p_sim.add_argument("--tau", type=formats.parse_rational, default="0")
    p_sim.add_argument("--c", type=formats.parse_rational, default="1/20")
    p_sim.add_argument("--epsilon", type=formats.parse_rational, default="1/10")
    p_sim.add_argument("--curve-out", default=None)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:  # the converters raise InvalidBallot, which argparse lets through
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    except BudgetExceeded as exc:
        print(f"error (budget): {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (MechanismMismatch, NonRankingBallot) as exc:
        print(f"error (mechanism/domain): {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (RealityVoteError, OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error (input): {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
