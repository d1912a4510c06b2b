"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criteria 3 and 9 assert the stated targets verbatim and are
expected to fail: the brute-force oracle disagrees with the stated
constants on knife-edge ties (details in the failure messages).
"""

import math
import random
import time
from fractions import Fraction

from realityvote import (
    DomainSpec,
    Mechanism,
    apply,
    build_profile,
    is_live,
    is_safe,
    md_proxy,
    min_alpha,
    min_alpha_for_profile,
    nonatomic_eval,
    reduction_check,
    replay_witness,
    smallest_live_beta,
    tightness_witness,
    weighted_median,
)
from realityvote.cli import main
from realityvote.guarantees import Setting, liveness_threshold, safety_threshold
from realityvote.montecarlo import (
    Experiment,
    hoeffding_diagnostic,
    run_proxy_whp,
    run_safety_whp,
)
from realityvote.population import VoterClass
from realityvote.proxy import nearest_entity_to
from realityvote.rules import build_tally

from conftest import ACTIVE, PASSIVE, SYBIL, binary_profile

F = Fraction
MJ = Mechanism("mj")
MJ_ACTIVE = Mechanism("mj", participation="active")


def announce(number, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {status} ({elapsed:.1f}s) {detail}")


def random_population(rng, domain, n, positions):
    voters = [(ACTIVE, positions(rng))]
    for _ in range(n - 1):
        cls = rng.choice([ACTIVE, PASSIVE, SYBIL])
        voters.append((cls, positions(rng)))
    return build_profile(domain, voters)


def test_criterion_1_table_reproduction():
    start = time.time()
    smj = Mechanism("smj", base_tau=F(2, 5))
    smj_active = Mechanism("smj", base_tau=F(2, 5), participation="active")
    full, partial = (5, F(2, 5), F(0)), (5, F(2, 5), F(2, 5))

    alphas = (
        min_alpha(MJ, MJ, full),
        min_alpha(smj, MJ, full),
        min_alpha(MJ_ACTIVE, MJ, partial),
        min_alpha(smj_active, MJ, partial),
    )
    betas = (
        smallest_live_beta(MJ, full, "p"),
        smallest_live_beta(smj, full, "p"),
        smallest_live_beta(MJ_ACTIVE, partial, "p"),
        smallest_live_beta(smj_active, partial, "p"),
    )
    ok = alphas == (F(1, 3), F(0), F(2, 3), F(1, 3)) and betas == (
        F(1),
        F(19, 3),
        F(3),
        F(19),
    )
    elapsed = time.time() - start
    announce(1, "table reproduction", ok, elapsed, f"alpha={alphas} beta={betas}")
    assert ok
    assert elapsed < 1.0


def test_criterion_2_coincidence_identities():
    start = time.time()
    rng = random.Random(20_001)
    binary_taus = [F(0), F(1, 8), F(1, 4), F(3, 8), F(1, 2)]
    interval_taus = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3)]
    mismatches = 0

    for i in range(10_000):
        prof = random_population(
            rng, DomainSpec.binary(), rng.randint(1, 50), lambda r: r.choice("rp")
        )
        tau = binary_taus[i % 5]
        left = apply(Mechanism("mj", re_tau=2 * tau, participation="active"), prof)
        right = apply(Mechanism("smj", base_tau=tau, participation="active"), prof)
        mismatches += left != right

    for i in range(10_000):
        r = F(rng.randint(-5, 5))
        prof = random_population(
            rng,
            DomainSpec.interval(r),
            rng.randint(1, 50),
            lambda g: F(g.randint(-20, 20), g.choice((1, 1, 2))),
        )
        tau = interval_taus[i % 5]
        left = apply(Mechanism("md", re_tau=tau, participation="active"), prof)
        right = apply(Mechanism("som", base_tau=tau, participation="active"), prof)
        mismatches += left != right

    elapsed = time.time() - start
    announce(2, "coincidence identities", mismatches == 0, elapsed, f"mismatches={mismatches}")
    assert mismatches == 0
    assert elapsed < 30


def test_criterion_3_formula_vs_oracle_safety():
    start = time.time()
    taus = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    mismatches = []
    for n in range(1, 9):
        for s in range(0, n):
            for hm in range(0, n - s):
                if n - s - hm < 1:
                    continue
                sigma, mu = F(s, n), F(hm, n)
                for tau in taus:
                    mech = Mechanism("mj", re_tau=tau, participation="active")
                    oracle = min_alpha(mech, MJ, (n, sigma, mu))
                    t = safety_threshold(Setting.ARBITRARY_BINARY, sigma, mu, tau)
                    formula = max(F(0), F(math.ceil(t * (n - s)), n - s))
                    if oracle != formula:
                        mismatches.append(((n, s, hm), tau, oracle, formula))
    elapsed = time.time() - start
    announce(
        3,
        "formula-vs-oracle safety",
        not mismatches,
        elapsed,
        f"{len(mismatches)} of 600 combos disagree",
    )
    assert elapsed < 300
    assert not mismatches, (
        "Spec defect (see decisions ledger): the ceil-granularity formula "
        "ignores that the adversary's supporting-vote count is also an "
        "integer; the brute-force oracle (cross-checked against an "
        "independent closed form in test_verifier) gives strictly smaller "
        f"values on {len(mismatches)} combos, e.g. "
        f"{mismatches[0][:2]}: oracle {mismatches[0][2]}, formula {mismatches[0][3]}."
    )


def test_criterion_4_formula_vs_oracle_liveness():
    start = time.time()
    taus = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    checked, mismatches = 0, []
    for n in range(1, 9):
        for s in range(0, n):
            for hm in range(0, n - s):
                hp = n - s - hm
                if hp < 1:
                    continue
                sigma, mu = F(s, n), F(hm, n)
                for tau in taus:
                    threshold = liveness_threshold(
                        Setting.ARBITRARY_BINARY, sigma, mu, tau
                    )
                    if threshold >= 1:
                        continue  # outside the replacement (beta <= 1) regime
                    checked += 1
                    mech = Mechanism("mj", re_tau=tau, participation="active")
                    finite = smallest_live_beta(mech, (n, sigma, mu), "p")
                    target = F(math.floor(threshold * hp) + 1, hp)
                    if finite != target:
                        mismatches.append(((n, s, hm), tau, finite, target))
    elapsed = time.time() - start
    announce(
        4,
        "formula-vs-oracle liveness",
        not mismatches,
        elapsed,
        f"{checked} in-regime combos, {len(mismatches)} disagree",
    )
    assert not mismatches
    assert checked > 200
    assert elapsed < 300


def test_criterion_5_feasibility_frontier(tmp_path, capsys):
    start = time.time()
    grid = ",".join(str(F(i, 20)) for i in range(21))
    results = {}
    for setting, inequality in (
        ("arbitrary", lambda s, m: 3 * s + 2 * m < 1),
        ("random", lambda s, m: 3 * s + m < 1),
    ):
        out = tmp_path / f"{setting}.csv"
        code = main(
            [
                "frontier",
                "--setting",
                setting,
                "--sigma-grid",
                grid,
                "--mu-grid",
                grid,
                "--tau-grid",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[1].split(",")
        feasible_col = header.index("feasible")
        error_col = header.index("error")
        bad = 0
        for line in lines[2:]:
            cells = line.split(",")
            sigma, mu = F(cells[1]), F(cells[3])
            if sigma + mu >= 1:
                bad += cells[error_col] != "degenerate"
                continue
            bad += cells[feasible_col] != ("1" if inequality(sigma, mu) else "0")
        results[setting] = bad
    capsys.readouterr()
    elapsed = time.time() - start
    ok = not any(results.values())
    announce(5, "feasibility frontier", ok, elapsed, f"bad rows: {results}")
    assert ok
    assert elapsed < 1.0


def test_criterion_6_lower_bound_witnesses():
    start = time.time()
    arb_points = [
        (F(1, 4), F(1, 5)),
        (F(1, 4), F(3, 20)),
        (F(3, 10), F(1, 10)),
        (F(1, 3), F(1, 5)),
        (F(2, 5), F(1, 10)),
        (F(1, 2), F(1, 5)),
        (F(1, 3), F(0)),
        (F(2, 5), F(2, 5)),
        (F(3, 5), F(1, 5)),
        (F(7, 20), F(1, 4)),
    ]
    rand_points = [
        (F(1, 3), F(0)),
        (F(1, 3), F(1, 5)),
        (F(2, 5), F(1, 10)),
        (F(1, 2), F(1, 5)),
        (F(3, 10), F(1, 5)),
        (F(7, 20), F(1, 10)),
        (F(2, 5), F(2, 5)),
        (F(3, 5), F(1, 5)),
        (F(1, 3), F(1, 3)),
        (F(9, 20), F(1, 4)),
    ]
    failures = []
    for sigma, mu in arb_points:
        assert 3 * sigma + 2 * mu >= 1
        witness = tightness_witness("indistinguishable-pair", sigma=sigma, mu=mu)
        v, v_bar = witness.profile_pair
        tallies_match = (
            build_tally(MJ_ACTIVE, v.counts).counts == build_tally(MJ_ACTIVE, v_bar.counts).counts
        )
        honest_r = sum(
            1
            for c, b in v_bar.voters
            if c is not VoterClass.SYBIL and b == v_bar.domain.status_quo
        )
        weak_majority = 2 * honest_r >= v_bar.n_honest
        if not (tallies_match and weak_majority and replay_witness(witness)):
            failures.append(("indistinguishable-pair", sigma, mu))
    for sigma, mu in rand_points:
        assert 3 * sigma + mu >= 1
        witness = tightness_witness("random-indistinguishable-pair", sigma=sigma, mu=mu)
        v, v_bar = witness.nonatomic_pair
        tallies_match = (
            v.active_honest_p + v.s_p == v_bar.active_honest_p + v_bar.s_p
            and v.active_honest_r + v.s_r == v_bar.active_honest_r + v_bar.s_r
        )
        weak_majority = v_bar.h_r >= v_bar.h_p
        replays = all(
            nonatomic_eval(v, tau) == nonatomic_eval(v_bar, tau)
            for tau in (F(0), F(1, 4), F(1, 2))
        )
        if not (tallies_match and weak_majority and replays and replay_witness(witness)):
            failures.append(("random-indistinguishable-pair", sigma, mu))
    elapsed = time.time() - start
    announce(6, "lower-bound witnesses", not failures, elapsed, f"failures={failures}")
    assert not failures
    assert elapsed < 10


def test_criterion_7_median_reduction():
    start = time.time()
    rng = random.Random(70_007)
    taus = [F(0), F(1, 4), F(1, 3), F(1, 2), F(3, 4)]
    alphas = [F(0), F(1, 6), F(1, 4), F(1, 3), F(1, 2)]
    counterexamples = 0
    for _ in range(10_000):
        r = F(rng.randint(-4, 4))
        prof = random_population(
            rng,
            DomainSpec.interval(r),
            rng.randint(1, 12),
            lambda g: F(g.randint(-10, 10)),
        )
        counterexamples += not reduction_check(prof, rng.choice(taus), rng.choice(alphas))
    elapsed = time.time() - start
    announce(7, "median reduction", counterexamples == 0, elapsed, f"counterexamples={counterexamples}")
    assert counterexamples == 0
    assert elapsed < 120


def test_criterion_8_proxy_lemma():
    start = time.time()
    rng = random.Random(80_008)
    taus = [F(0), F(1, 4), F(1, 3), F(1, 2)]
    mismatches = 0
    for _ in range(10_000):
        r = F(rng.randint(-4, 4))
        prof = random_population(
            rng,
            DomainSpec.interval(r),
            rng.randint(1, 24),
            lambda g: F(g.randint(-15, 15)),
        )
        tau = rng.choice(taus)
        z = md_proxy(prof, tau)
        entries = [(b, F(1)) for _, b in prof.voters]
        entries.append((r, tau * prof.n))
        population_median = weighted_median(entries)
        mismatches += z != nearest_entity_to(prof, tau, population_median)
    elapsed = time.time() - start
    announce(8, "proxy nearest-entity property", mismatches == 0, elapsed, f"mismatches={mismatches}")
    assert mismatches == 0
    assert elapsed < 30


def test_criterion_9_issuewise_example():
    start = time.time()
    cube = DomainSpec.hypercube(3, (0, 0, 0))
    voters = [(ACTIVE, (0, 0, 1))] * 20
    voters += [(ACTIVE, (0, 1, 0))] * 20
    voters += [(ACTIVE, (1, 0, 0))] * 20
    voters += [(SYBIL, (1, 1, 1))] * 21
    prof = build_profile(cube, voters)
    imj = Mechanism("imj")
    oracle = min_alpha_for_profile(imj, imj, prof)
    binary_formula = safety_threshold(Setting.ARBITRARY_BINARY, F(1, 4), 0, 0)
    elapsed = time.time() - start
    ok = oracle == F(1, 4) and oracle > binary_formula
    announce(
        9,
        "issue-wise example",
        ok,
        elapsed,
        f"oracle={oracle} target=1/4 binary-formula={binary_formula}",
    )
    assert oracle > binary_formula
    assert elapsed < 60
    assert oracle == F(1, 4), (
        "Spec defect inherited from the source example (see decisions "
        "ledger): 15 changes leave 30-30 per-coordinate ties, which stay at "
        "the status quo under the global tie rule; the true minimum is 16 "
        f"changes, so the oracle gives {oracle} (= 16/60), not 1/4.  The "
        "qualitative claim (strictly above the binary 1/6) does hold."
    )


def test_criterion_10_plurality_impossibility():
    start = time.time()
    domain = DomainSpec.categorical(["r", "p", "p2"], "r")
    voters = [(ACTIVE, "p")] * 8 + [(ACTIVE, "p2")] * 7 + [(SYBIL, "p2")] * 5
    prof = build_profile(domain, voters)
    base = Mechanism("pl")
    shape = (20, F(1, 4), F(0))
    winners = []
    for i in range(100):
        tau = F(i, 100)
        mech = Mechanism("pl", re_tau=tau)
        if not is_safe(mech, base, prof, 0):
            continue
        if all(is_live(mech, shape, t, 1, domain=domain) for t in ("p", "p2")):
            winners.append(tau)
    elapsed = time.time() - start
    announce(10, "plurality impossibility", not winners, elapsed, f"taus={winners}")
    assert not winners
    assert elapsed < 5


def test_criterion_11_probabilistic_gates():
    start = time.time()
    failures = []

    # (a) Hoeffding diagnostic at psi = 1/2.
    template = binary_profile(active="p" * 200 + "r" * 200)
    for n_plus in (50, 100, 200):
        stats = hoeffding_diagnostic(template, n_plus, F(1, 10), trials=2000, seed=1101)
        if not stats.passes_gate():
            failures.append(("hoeffding", n_plus, float(stats.empirical_rate)))

    # (b) Proxy delegation trials: |H| = 1000, sigma = tau = 1/5, c = 1/20.
    proxy_template = build_profile(
        DomainSpec.interval(0),
        [(ACTIVE, F(i)) for i in range(1000)] + [(SYBIL, F(1200))] * 250,
    )
    rates = []
    for n_plus in (10, 20, 40):
        exp = Experiment(
            profile=proxy_template,
            mechanism=Mechanism("md", re_tau=F(1, 5), participation="proxy"),
            base=Mechanism("md"),
            alpha_prime=F(1, 20),
            trials=1000,
            seed=1102,
            n_plus=n_plus,
        )
        stats = run_proxy_whp(exp, F(1, 20))
        if not stats.passes_gate():
            failures.append(("proxy-bound", n_plus, float(stats.empirical_rate)))
        if not float(stats.y_failure_rate) <= stats.bound_value + 3 * stats.standard_error:
            failures.append(("proxy-good-event", n_plus, float(stats.y_failure_rate)))
        rates.append((n_plus, stats))
    for (n_small, prev), (n_big, cur) in zip(rates, rates[1:]):
        p1, p2 = float(prev.empirical_rate), float(cur.empirical_rate)
        slack = 3 * math.sqrt(
            max(p1 * (1 - p1), 1e-9) / prev.trials + max(p2 * (1 - p2), 1e-9) / cur.trials
        )
        if p2 > p1 + slack:
            failures.append(("proxy-monotone", (n_small, n_big), (p1, p2)))

    # (c) Random-participation safety on the adversarial template with
    # tau = sigma/(1 - mu) + 1/20 = 3/10: decay to at most 1% by n = 1600.
    whp_template = build_profile(
        DomainSpec.binary(),
        [(ACTIVE, "p")] * 624 + [(ACTIVE, "r")] * 656 + [(SYBIL, "p")] * 320,
    )
    exp = Experiment(
        profile=whp_template,
        mechanism=Mechanism("mj", re_tau=F(3, 10), participation="active"),
        base=Mechanism("mj"),
        alpha_prime=F(1, 100),
        trials=2000,
        seed=1103,
        n_plus=960,
    )
    stats = run_safety_whp(exp)
    if not stats.empirical_rate <= F(1, 100):
        failures.append(("whp-decay", 1600, float(stats.empirical_rate)))

    elapsed = time.time() - start
    announce(11, "probabilistic gates", not failures, elapsed, f"failures={failures}")
    assert not failures
    assert elapsed < 300
