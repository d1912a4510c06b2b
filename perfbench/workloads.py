"""The four benchmark workloads: inputs from a seed, one verdict, its checks.

A workload's ``setup`` builds every input from the seed (profiles, query
lists, profile files); ``verdict`` makes the workload's calls into the
library through ``Runner.call`` and returns their outputs; ``check`` compares
each output exactly with an independent reference (``reference.py``) or with
the references recorded in ``recorded.json``.  A verdict is the same work
every time it runs, each time in a fresh interpreter, so the benchmark can
repeat it and report the mean verdict time.  README.md says why each
workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from fractions import Fraction
from typing import List

import reference as ref

F = Fraction
HERE = os.path.dirname(os.path.abspath(__file__))
RECORDED = os.path.join(HERE, "recorded.json")

MJ_TAUS = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
SMJ_TAUS = (F(0), F(1, 10), F(1, 5), F(3, 10), F(2, 5))
SMJ_LIVE_TAU = F(2, 5)
FRONTIER_SETTINGS = ("arbitrary", "random", "proxy")

#: Sizes per scale.  "full" is the benchmark; "tiny" is the smoke self-test.
SCALES = {
    "full": {
        "safety_n": 9, "family_n": 8, "mj_live_n": 8, "smj_live_n": 5, "categorical": 8,
        "hypercube": True, "whp_scale": 1, "whp_trials": 30, "whp_grid": (160, 320, 480, 640, 960, 1280),
        "hoeffding_trials": 2000, "proxy_honest": 400, "proxy_trials": 100,
        "binary_voters": 100_000, "interval_voters": 10_000, "frontier_steps": 20,
    },
    "tiny": {
        "safety_n": 4, "family_n": 3, "mj_live_n": 4, "smj_live_n": 3, "categorical": 1,
        "hypercube": False, "whp_scale": 8, "whp_trials": 5, "whp_grid": (20, 80, 160),
        "hoeffding_trials": 50, "proxy_honest": 100, "proxy_trials": 5,
        "binary_voters": 1_000, "interval_voters": 500, "frontier_steps": 4,
    },
}


def load_recorded() -> dict:
    with open(RECORDED, "r", encoding="utf-8") as handle:
        return json.load(handle)


class Runner:
    """Makes top-level calls, timing each one from outside.

    An operation that raises is recorded as None and counts as failed in
    the check, so one failure does not end the run.  The time that the
    host-speed probes of ``sampler`` (``calibrate.Sampler``) take during a
    call is not counted in its latency.
    """

    def __init__(self, tracer=None, sampler=None):
        self.tracer = tracer
        self.sampler = sampler
        self.latencies: List[float] = []
        self.errors: List[str] = []

    def probe_overhead(self) -> float:
        return 0.0 if self.sampler is None else self.sampler.overhead_s

    def call(self, fn, *args, units=1):
        """Call ``fn(*args)`` as one operation worth ``units`` of work."""
        if self.tracer is not None:
            self.tracer.op += 1
            self.tracer.op_units[self.tracer.op] = units
        overhead = self.probe_overhead()
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # counted as a failed operation
            result = None
            self.errors.append(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed - (self.probe_overhead() - overhead))
        return result


def shapes(max_n: int):
    """Every (n, sybils, passives) with at least one active honest voter."""
    return [(n, s, hm) for n in range(1, max_n + 1) for s in range(n) for hm in range(n - s)]


def shape_args(shape):
    n, s, hm = shape
    return (n, F(s, n), F(hm, n))


def arbitrary_liveness_threshold(shape, tau):
    n, s, hm = shape
    sigma, mu = F(s, n), F(hm, n)
    return (1 - mu) * (1 + tau) / (2 * (1 - sigma - mu))


def safety_key(base, mode, tau, shape):
    return f"safety {base} {mode} {ref.fmt(tau)} {','.join(map(str, shape))}"


def mj_live_key(tau, shape):
    return f"live mj active {ref.fmt(tau)} {','.join(map(str, shape))}"


def smj_live_key(mode, shape):
    return f"live smj:{ref.fmt(SMJ_LIVE_TAU)} {mode} {','.join(map(str, shape))}"


def frontier_key(setting, steps):
    return f"frontier {setting} {steps}"


def frontier_argv(setting, steps, out):
    grid = ",".join(ref.fmt(F(i, steps)) for i in range(steps + 1))
    return ["frontier", "--setting", setting, "--sigma-grid", grid, "--mu-grid", grid,
            "--tau-grid", "0,1/10,1/5", "--out", out]


# ---------------------------------------------------------------------------
# oracle_sweep


class OracleSweep:
    """Brute force against the closed forms over every small shape."""

    name = "oracle_sweep"
    unit = "query"
    reference_only = ("recorded",)  # input keys that only ``expected`` reads

    def setup(self, seed: int, scale: dict, workdir: str):
        import realityvote as rv

        rng = random.Random(f"oracle_sweep/{seed}")
        recorded = load_recorded()["oracle"]
        queries = []
        for shape in shapes(scale["safety_n"]):
            for tau in MJ_TAUS:
                queries.append(("safety", "mj", "active", tau, shape))
        for shape in shapes(scale["family_n"]):
            queries.append(("safety", "mj", "full", rng.choice(MJ_TAUS), shape))
            for mode in ("full", "active"):
                queries.append(("safety", "smj", mode, rng.choice(SMJ_TAUS), shape))
        for shape in shapes(scale["mj_live_n"]):
            for tau in MJ_TAUS:
                if arbitrary_liveness_threshold(shape, tau) < 1:
                    queries.append(("mj_live", "mj", "active", tau, shape))
        for shape in shapes(scale["smj_live_n"]):
            for mode in ("full", "active"):
                if F(recorded[smj_live_key(mode, shape)]) > 1:  # addition regime
                    queries.append(("smj_live", "smj", mode, SMJ_LIVE_TAU, shape))
        rng.shuffle(queries)
        mechanisms = [
            rv.Mechanism("mj", re_tau=tau, participation=mode) if base == "mj"
            else rv.Mechanism("smj", base_tau=tau, participation=mode)
            for _, base, mode, tau, _ in queries
        ]

        alternatives = ("r", "p", "p2")
        domain = rv.DomainSpec.categorical(alternatives, "r")
        active, sybil = rv.VoterClass.HONEST_ACTIVE, rv.VoterClass.SYBIL
        categorical = []
        for i in range(2 * scale["categorical"]):
            rule = "pl" if i % 2 == 0 else "cc"
            if rule == "pl":
                honest = [rng.choice(alternatives) for _ in range(5)]
                sybils = [rng.choice(alternatives)]
                gamma = F(2, 5)
            else:
                honest = [tuple(rng.sample(alternatives, 3)) for _ in range(4)]
                sybils = [tuple(rng.sample(alternatives, 3))]
                gamma = F(1, 2)
            profile = rv.build_profile(
                domain, [(active, b) for b in honest] + [(sybil, b) for b in sybils]
            )
            categorical.append((rule, profile, gamma, honest, sybils))

        hypercube = None
        if scale["hypercube"]:
            cube = rv.DomainSpec.hypercube(3, (0, 0, 0))
            voters = [(active, (0, 0, 1))] * 20 + [(active, (0, 1, 0))] * 20
            voters += [(active, (1, 0, 0))] * 20 + [(sybil, (1, 1, 1))] * 21
            hypercube = rv.build_profile(cube, voters)
        return {"queries": queries, "mechanisms": mechanisms, "categorical": categorical,
                "hypercube": hypercube, "recorded": recorded, "alternatives": alternatives}

    def verdict(self, inputs, runner: Runner):
        from realityvote import guarantees, verifier
        from realityvote.rules import Mechanism

        arbitrary = guarantees.Setting.ARBITRARY_BINARY
        mj = Mechanism("mj")
        outputs = []
        for (kind, base, mode, tau, shape), mech in zip(inputs["queries"], inputs["mechanisms"]):
            args = shape_args(shape)
            if kind == "safety" and mode == "active" and base == "mj":
                outputs.append(runner.call(lambda: (
                    verifier.min_alpha(mech, mj, args),
                    guarantees.safety_threshold(arbitrary, args[1], args[2], tau),
                )))
            elif kind == "safety":
                outputs.append(runner.call(lambda: (verifier.min_alpha(mech, mj, args), None)))
            elif kind == "mj_live":
                outputs.append(runner.call(lambda: (
                    verifier.smallest_live_beta(mech, args, "p"),
                    guarantees.liveness_threshold(arbitrary, args[1], args[2], tau),
                )))
            else:
                outputs.append(runner.call(
                    lambda: (verifier.smallest_live_beta(mech, args, "p"), None)
                ))
        for rule, profile, gamma, _, _ in inputs["categorical"]:
            outputs.append(runner.call(verifier.outcome_range, Mechanism(rule), profile, gamma))
        if inputs["hypercube"] is not None:
            imj = Mechanism("imj")
            outputs.append(runner.call(
                verifier.min_alpha_for_profile, imj, imj, inputs["hypercube"]
            ))
        return outputs

    def expected(self, inputs):
        recorded = inputs["recorded"]
        answers = []
        for kind, base, mode, tau, shape in inputs["queries"]:
            if kind == "safety":
                answers.append(recorded[safety_key(base, mode, tau, shape)])
            elif kind == "mj_live":
                answers.append(recorded[mj_live_key(tau, shape)])
            else:
                answers.append(recorded[smj_live_key(mode, shape)])
        for rule, _, gamma, honest, sybils in inputs["categorical"]:
            budget = int(gamma * len(honest))
            answers.append(ref.categorical_range(
                rule, inputs["alternatives"], "r", honest, sybils, budget
            ))
        if inputs["hypercube"] is not None:
            answers.append(recorded["hypercube imj criterion-9"])
        return answers

    def check(self, inputs, outputs, expected):
        """Returns (failed operations, formula disagreements)."""
        failed = disagreements = 0
        n_queries = len(inputs["queries"])
        for i, (output, answer) in enumerate(zip(outputs, expected)):
            if output is None:
                failed += 1
                continue
            if i < n_queries:
                value, formula = output
                failed += ref.fmt(value) != answer
                kind, _, _, tau, shape = inputs["queries"][i]
                if formula is None:
                    continue
                n, s, hm = shape
                if kind == "safety":
                    h = n - s
                    adjusted = max(F(0), F(math.ceil(formula * h), h))
                else:
                    hp = n - s - hm
                    adjusted = F(math.floor(formula * hp) + 1, hp)
                disagreements += value != adjusted
            elif i < n_queries + len(inputs["categorical"]):
                got = sorted(output.reachable) if output.kind == "finite" else None
                failed += got != answer
            else:
                failed += ref.fmt(output) != answer
                disagreements += output != F(1, 4)  # criterion 9's stated target
        return failed, disagreements

    def units(self, inputs):
        return len(inputs["queries"]) + len(inputs["categorical"]) + (
            inputs["hypercube"] is not None
        )


# ---------------------------------------------------------------------------
# whp_binary


class WhpBinary:
    """run_safety_whp on criterion 11(c)'s template over an n_plus grid."""

    name = "whp_binary"
    unit = "trial"
    reference_only = ()
    TAU = F(3, 10)
    ALPHA_PRIME = F(1, 100)
    EPSILON = F(1, 10)

    def setup(self, seed: int, scale: dict, workdir: str):
        import realityvote as rv
        from realityvote.montecarlo import Experiment

        k = scale["whp_scale"]
        counts = {"honest_p": 624 // k, "honest_r": 656 // k, "sybil_p": 320 // k, "sybil_r": 0}
        cls = rv.VoterClass
        template = rv.build_profile(
            rv.DomainSpec.binary(),
            [(cls.HONEST_ACTIVE, "p")] * counts["honest_p"]
            + [(cls.HONEST_ACTIVE, "r")] * counts["honest_r"]
            + [(cls.SYBIL, "p")] * counts["sybil_p"],
        )
        rng = random.Random(f"whp_binary/{seed}")
        grid = list(scale["whp_grid"])
        rng.shuffle(grid)
        experiments = [
            Experiment(
                profile=template,
                mechanism=rv.Mechanism("mj", re_tau=self.TAU, participation="active"),
                base=rv.Mechanism("mj"),
                alpha_prime=self.ALPHA_PRIME,
                trials=scale["whp_trials"],
                seed=rng.randrange(2**32),
                n_plus=n_plus,
            )
            for n_plus in grid
        ]
        # One diagnostic per verdict, so seven calls: call cost grows with
        # n_plus, and with an odd count the median and p90 call latencies
        # fall on a call rather than in the gap between two.
        diagnostic = (grid[0], scale["hoeffding_trials"], rng.randrange(2**32))
        return {"template": template, "counts": counts, "experiments": experiments,
                "diagnostic": diagnostic}

    def verdict(self, inputs, runner: Runner):
        from realityvote import montecarlo

        outputs = [
            runner.call(montecarlo.run_safety_whp, exp, units=exp.trials)
            for exp in inputs["experiments"]
        ]
        n_plus, trials, seed = inputs["diagnostic"]
        outputs.append(runner.call(
            montecarlo.hoeffding_diagnostic, inputs["template"], n_plus, self.EPSILON,
            trials, seed,
        ))
        return outputs

    def expected(self, inputs):
        c = inputs["counts"]
        answers = [
            ref.whp_stats(
                c["honest_p"], c["honest_r"], c["sybil_p"], c["sybil_r"],
                self.TAU, self.ALPHA_PRIME, exp.n_plus, exp.trials, exp.seed,
            )
            for exp in inputs["experiments"]
        ]
        n_plus, trials, seed = inputs["diagnostic"]
        answers.append(ref.hoeffding_stats(
            c["honest_p"], c["honest_p"] + c["honest_r"], n_plus, self.EPSILON, trials, seed,
        ))
        return answers

    def check(self, inputs, outputs, expected):
        failed = 0
        for stats, answer in zip(outputs, expected):
            failed += stats is None or {
                "violations": stats.violation_count,
                "rate": ref.fmt(stats.empirical_rate),
                "gate": stats.passes_gate(),
            } != answer
        return failed, 0

    def units(self, inputs):
        return sum(exp.trials for exp in inputs["experiments"])


# ---------------------------------------------------------------------------
# proxy_mc


class ProxyMc:
    """run_proxy_whp on criterion 11(b)'s shape with seeded positions."""

    name = "proxy_mc"
    unit = "trial"
    reference_only = ("honest", "sybils")
    TAU = F(1, 5)
    C = F(1, 20)

    def setup(self, seed: int, scale: dict, workdir: str):
        import realityvote as rv
        from realityvote.montecarlo import Experiment

        rng = random.Random(f"proxy_mc/{seed}")
        h = scale["proxy_honest"]
        honest = [F(x) for x in rng.sample(range(2 * h), h)]
        sybils = [F(12 * h // 5)] * (h // 4)
        cls = rv.VoterClass
        template = rv.build_profile(
            rv.DomainSpec.interval(0),
            [(cls.HONEST_ACTIVE, p) for p in honest] + [(cls.SYBIL, p) for p in sybils],
        )
        exp = Experiment(
            profile=template,
            mechanism=rv.Mechanism("md", re_tau=self.TAU, participation="proxy"),
            base=rv.Mechanism("md"),
            alpha_prime=self.C,
            trials=scale["proxy_trials"],
            seed=rng.randrange(2**32),
            n_plus=20,  # fixed, so every seed costs the same per trial
        )
        return {"honest": honest, "sybils": sybils, "experiment": exp}

    def verdict(self, inputs, runner: Runner):
        from realityvote import montecarlo

        exp = inputs["experiment"]
        return [runner.call(montecarlo.run_proxy_whp, exp, self.C, units=exp.trials)]

    def expected(self, inputs):
        exp = inputs["experiment"]
        return [ref.proxy_stats(
            F(0), inputs["honest"], inputs["sybils"], self.TAU, self.C,
            exp.n_plus, exp.trials, exp.seed,
        )]

    def check(self, inputs, outputs, expected):
        failed = 0
        for stats, answer in zip(outputs, expected):
            failed += stats is None or {
                "violations": stats.violation_count,
                "y_failures": stats.y_failure_count,
                "rate": ref.fmt(stats.empirical_rate),
                "gate": stats.passes_gate(),
            } != answer
        return failed, 0

    def units(self, inputs):
        return inputs["experiment"].trials


# ---------------------------------------------------------------------------
# cli_eval


def _write_profile(path, domain, voters):
    doc = {
        "format": "realityvote/profile/v1",
        "domain": domain,
        "voters": [{"ballot": ballot, "class": cls} for cls, ballot in voters],
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))


class CliEval:
    """In-process ``realityvote`` commands on large seeded profile files."""

    name = "cli_eval"
    unit = "command"
    reference_only = ("binary", "interval", "recorded")
    TAU = F(1, 5)
    CLASSES = ("honest_active",) * 6 + ("honest_passive",) * 3 + ("sybil",)

    def setup(self, seed: int, scale: dict, workdir: str):
        rng = random.Random(f"cli_eval/{seed}")
        binary = [(rng.choice(self.CLASSES), rng.choice("rp"))
                  for _ in range(scale["binary_voters"])]
        r = rng.randrange(-100, 100)
        interval = [(rng.choice(self.CLASSES), rng.randrange(-5000, 5000))
                    for _ in range(scale["interval_voters"])]
        binary_path = os.path.join(workdir, "cli_binary.json")
        interval_path = os.path.join(workdir, "cli_interval.json")
        _write_profile(binary_path, {"kind": "binary", "r": "r", "p": "p"}, binary)
        _write_profile(interval_path, {"kind": "interval", "r": str(r)},
                       [(cls, str(pos)) for cls, pos in interval])
        tau = ref.fmt(self.TAU)
        commands = [
            ["eval", "--profile", binary_path, "--mechanism", f"mj re:{tau} mode:active"],
            ["eval", "--profile", interval_path, "--mechanism", f"md re:{tau} mode:active"],
            ["eval", "--profile", interval_path, "--mechanism", f"som:{tau} mode:active"],
            ["eval", "--profile", interval_path, "--mechanism", f"md re:{tau} mode:proxy"],
        ]
        for setting in FRONTIER_SETTINGS:
            out = os.path.join(workdir, f"cli_frontier_{setting}.csv")
            commands.append(frontier_argv(setting, scale["frontier_steps"], out))
        return {"commands": commands, "binary": binary, "interval": interval, "r": r,
                "steps": scale["frontier_steps"], "recorded": load_recorded()["frontier"]}

    def verdict(self, inputs, runner: Runner):
        from realityvote import cli

        outputs = []
        for argv in inputs["commands"]:
            if argv[0] == "frontier" and os.path.exists(argv[-1]):
                os.remove(argv[-1])  # the check must read this command's file
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = runner.call(cli.main, argv)
            if argv[0] == "frontier" and code == 0:
                with open(argv[-1], "r", encoding="utf-8") as handle:
                    outputs.append((code, handle.read()))
            else:
                outputs.append((code, buffer.getvalue()))
        return outputs

    def expected(self, inputs):
        tau = self.TAU
        answers = []
        visible = [b for cls, b in inputs["binary"] if cls != "honest_passive"]
        counts = {a: visible.count(a) for a in ("r", "p")}
        q = tau * len(visible)
        lines = [f"mechanism: mj re:{ref.fmt(tau)} mode:active",
                 f"outcome: {'p' if counts['p'] > counts['r'] + q else 'r'}",
                 f"visible: {len(visible)}", f"q: {ref.fmt(q)}", "tally:"]
        lines += [f"  {a}: {counts[a]}" for a in ("r", "p") if counts[a]]
        answers.append("\n".join(lines) + "\n")

        r = F(inputs["r"])
        positions = [F(p) for cls, p in inputs["interval"] if cls != "honest_passive"]
        q = tau * len(positions)
        z = ref.median_with_status_quo(ref.unit_masses(positions, (r, q)), r)
        tally = sorted(ref.unit_masses(positions).items())
        for spec, shown_q in ((f"md re:{ref.fmt(tau)}", q), (f"som:{ref.fmt(tau)}", 0)):
            # som:tau equals md re:tau under active participation (the
            # coincidence identity of criterion 2), so both print z.
            lines = [f"mechanism: {spec} mode:active", f"outcome: {ref.fmt(z)}",
                     f"visible: {len(positions)}", f"q: {ref.fmt(shown_q)}", "tally:"]
            lines += [f"  {ref.fmt(pos)}: {count}" for pos, count in tally]
            answers.append("\n".join(lines) + "\n")

        voters = [(cls, F(p)) for cls, p in inputs["interval"]]
        actives = [p for cls, p in voters if cls != "honest_passive"]
        passives = [p for cls, p in voters if cls == "honest_passive"]
        z = ref.proxy_median(r, actives, passives, tau * len(voters))
        lines = [f"mechanism: md re:{ref.fmt(tau)} mode:proxy", f"outcome: {ref.fmt(z)}",
                 "entities:"] + ref.proxy_eval_lines(r, voters, tau)
        answers.append("\n".join(lines) + "\n")

        for setting in FRONTIER_SETTINGS:
            answers.append(inputs["recorded"][frontier_key(setting, inputs["steps"])])
        return answers

    def check(self, inputs, outputs, expected):
        failed = 0
        for argv, output, answer in zip(inputs["commands"], outputs, expected):
            code, text = output
            if code != 0:
                failed += 1
            elif argv[0] == "frontier":
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                failed += digest != answer or not frontier_feasibility_ok(argv[2], text)
            else:
                failed += text != answer
        return failed, 0

    def units(self, inputs):
        return len(inputs["commands"])


def frontier_feasibility_ok(setting: str, text: str) -> bool:
    """The feasible column against the impossibility inequalities."""
    inequality = {
        "arbitrary": lambda s, m: 3 * s + 2 * m < 1,
        "random": lambda s, m: 3 * s + m < 1,
        "proxy": lambda s, m: s < F(1, 3),
    }[setting]
    lines = text.splitlines()
    header = lines[1].split(",")
    feasible, error = header.index("feasible"), header.index("error")
    for line in lines[2:]:
        cells = line.split(",")
        sigma, mu = F(cells[1]), F(cells[3])
        if sigma + mu >= 1:
            if cells[error] != "degenerate":
                return False
        elif cells[feasible] != ("1" if inequality(sigma, mu) else "0"):
            return False
    return True


WORKLOADS = {w.name: w for w in (OracleSweep(), WhpBinary(), ProxyMc(), CliEval())}
