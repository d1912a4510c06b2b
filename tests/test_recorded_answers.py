"""The benchmark's recorded answers, every one recomputed.

``perfbench/recorded.json`` holds the oracle answers that the
``oracle_sweep`` benchmark checks every verdict against, and the sha256 of
each frontier CSV that ``cli_eval`` writes.  Recomputing all of them (every
``safety`` and ``live`` answer on shapes of up to ten voters, criterion 9's
hypercube entry, and every frontier file) makes a change in an answer or a
byte fail here rather than only in the benchmark.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from realityvote import DomainSpec, Mechanism, build_profile, verifier
from realityvote.cli import main

from conftest import ACTIVE, SYBIL

F = Fraction


def _recorded(section="oracle"):
    # Read by path: the benchmark directory is not a package.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "recorded.json"
    return json.loads(path.read_text(encoding="utf-8"))[section]


def _shape(counts):
    n, s, hm = map(int, counts.split(","))
    return n, (n, F(s, n), F(hm, n))


def _answer(key):
    """The oracle call a key names: 'safety <base> <mode> <tau> n,s,hm',
    'live mj active <tau> n,s,hm' or 'live smj:<tau> <mode> n,s,hm'."""
    kind, rule, mode, *rest = key.split()
    if kind == "safety":
        tau = F(rest[0])
        mech = (
            Mechanism("mj", re_tau=tau, participation=mode)
            if rule == "mj"
            else Mechanism("smj", base_tau=tau, participation=mode)
        )
        return lambda shape: verifier.min_alpha(mech, Mechanism("mj"), shape)
    if rule == "mj":
        mech = Mechanism("mj", re_tau=F(rest[0]), participation=mode)
    else:
        mech = Mechanism("smj", base_tau=F(rule.split(":")[1]), participation=mode)
    return lambda shape: verifier.smallest_live_beta(mech, shape, "p")


def _keys():
    return sorted(key for key in _recorded() if key.startswith(("safety ", "live ")))


def _fmt(value):
    return str(value.numerator) if value.denominator == 1 else str(value)


def test_every_family_is_recorded():
    # Every family the benchmark draws from is covered here.
    families = {" ".join(key.split()[:2]) for key in _keys()}
    assert families == {"safety mj", "safety smj", "live mj", "live smj:2/5"}


def test_every_answer_matches_the_record():
    recorded = _recorded()
    wrong = []
    for key in _keys():
        got = _fmt(_answer(key)(_shape(key.split()[-1])[1]))
        if got != recorded[key]:
            wrong.append((key, got, recorded[key]))
    assert not wrong


def test_hypercube_answer_matches_the_record():
    cube = DomainSpec.hypercube(3, (0, 0, 0))
    voters = [(ACTIVE, (0, 0, 1))] * 20 + [(ACTIVE, (0, 1, 0))] * 20
    voters += [(ACTIVE, (1, 0, 0))] * 20 + [(SYBIL, (1, 1, 1))] * 21
    imj = Mechanism("imj")
    got = verifier.min_alpha_for_profile(imj, imj, build_profile(cube, voters))
    assert _fmt(got) == _recorded()["hypercube imj criterion-9"]


def test_every_frontier_setting_is_recorded():
    keys = {tuple(key.split()[1:]) for key in _recorded("frontier")}
    assert keys == {(s, n) for s in ("arbitrary", "random", "proxy") for n in ("4", "20")}


@pytest.mark.parametrize("key", sorted(_recorded("frontier")))
def test_frontier_digest_matches_the_record(key, tmp_path):
    # 'frontier <setting> <steps>': sigma and mu on the grid i/steps for
    # i = 0..steps, tau on 0, 1/10, 1/5; the digest is of the file's text.
    _, setting, steps = key.split()
    grid = ",".join(_fmt(F(i, int(steps))) for i in range(int(steps) + 1))
    out = tmp_path / "frontier.csv"
    argv = ["frontier", "--setting", setting, "--sigma-grid", grid, "--mu-grid", grid,
            "--tau-grid", "0,1/10,1/5", "--out", str(out)]
    assert main(argv) == 0
    digest = hashlib.sha256(out.read_text(encoding="utf-8").encode("utf-8")).hexdigest()
    assert digest == _recorded("frontier")[key]
