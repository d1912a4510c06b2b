"""Record the reference answers that ``recorded.json`` holds.

    python3 perfbench/record.py

The oracle answers cover the whole finite query universe that
``oracle_sweep`` draws from at any seed (every shape up to the enumeration
cap, every tau on the lists), so one table checks every seed.  The frontier
entries are SHA-256 digests of the CSV files the ``cli_eval`` commands
write.  The mj/active safety answers are cross-checked here against the
exact finite closed form (worst-case support floor(D/2) + 1 with
D = h+ + q - s); recording stops if any disagrees.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from realityvote import DomainSpec, Mechanism, VoterClass, build_profile, cli, verifier  # noqa: E402

F = wl.F


def mj_active_closed_form(shape, tau):
    n, s, hm = shape
    hp, h = n - s - hm, n - s
    k_min = math.floor((hp + tau * (hp + s) - s) / 2) + 1
    if k_min > hp:
        return F(0)
    return F(max(0, h // 2 + 1 - max(k_min, 0)), h)


def record_oracle(full):
    mj = Mechanism("mj")
    table = {}
    for shape in wl.shapes(full["safety_n"]):
        args = wl.shape_args(shape)
        for mode in ("full", "active"):
            for tau in wl.MJ_TAUS:
                value = verifier.min_alpha(Mechanism("mj", re_tau=tau, participation=mode), mj, args)
                if mode == "active" and value != mj_active_closed_form(shape, tau):
                    raise SystemExit(f"closed form disagrees at {shape} tau={tau}")
                table[wl.safety_key("mj", mode, tau, shape)] = ref.fmt(value)
            for tau in wl.SMJ_TAUS:
                mech = Mechanism("smj", base_tau=tau, participation=mode)
                table[wl.safety_key("smj", mode, tau, shape)] = ref.fmt(
                    verifier.min_alpha(mech, mj, args)
                )
    for shape in wl.shapes(full["mj_live_n"]):
        for tau in wl.MJ_TAUS:
            if wl.arbitrary_liveness_threshold(shape, tau) < 1:
                mech = Mechanism("mj", re_tau=tau, participation="active")
                table[wl.mj_live_key(tau, shape)] = ref.fmt(
                    verifier.smallest_live_beta(mech, wl.shape_args(shape), "p")
                )
    for shape in wl.shapes(full["smj_live_n"]):
        for mode in ("full", "active"):
            mech = Mechanism("smj", base_tau=wl.SMJ_LIVE_TAU, participation=mode)
            table[wl.smj_live_key(mode, shape)] = ref.fmt(
                verifier.smallest_live_beta(mech, wl.shape_args(shape), "p")
            )
    cube = DomainSpec.hypercube(3, (0, 0, 0))
    active, sybil = VoterClass.HONEST_ACTIVE, VoterClass.SYBIL
    voters = [(active, (0, 0, 1))] * 20 + [(active, (0, 1, 0))] * 20
    voters += [(active, (1, 0, 0))] * 20 + [(sybil, (1, 1, 1))] * 21
    imj = Mechanism("imj")
    table["hypercube imj criterion-9"] = ref.fmt(
        verifier.min_alpha_for_profile(imj, imj, build_profile(cube, voters))
    )
    return table


def record_frontier():
    digests = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for scale in wl.SCALES.values():
            steps = scale["frontier_steps"]
            for setting in wl.FRONTIER_SETTINGS:
                out = os.path.join(tmp, "frontier.csv")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(wl.frontier_argv(setting, steps, out))
                with open(out, "r", encoding="utf-8") as handle:
                    text = handle.read()
                if code != 0 or not wl.frontier_feasibility_ok(setting, text):
                    raise SystemExit(f"frontier {setting} failed its feasibility check")
                digests[wl.frontier_key(setting, steps)] = hashlib.sha256(
                    text.encode("utf-8")
                ).hexdigest()
    return digests


def main():
    recorded = {"oracle": record_oracle(wl.SCALES["full"]), "frontier": record_frontier()}
    with open(wl.RECORDED, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(recorded['oracle'])} oracle and "
          f"{len(recorded['frontier'])} frontier references to {wl.RECORDED}")


if __name__ == "__main__":
    main()
