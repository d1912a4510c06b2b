import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realityvote import DomainSpec, build_profile
from realityvote.cli import main, parse_mechanism
from realityvote.errors import MechanismMismatch
from realityvote.formats import (
    parse_rational,
    parse_rational_list,
    profile_from_json,
    profile_to_json,
    write_frontier_csv,
)
from realityvote.guarantees import Setting
from realityvote.population import format_rational
from realityvote.proxy import delegate

from conftest import (
    ACTIVE,
    MIXED_INTERVALS,
    PASSIVE,
    SYBIL,
    binary_profile,
    interval_profile,
    profiles,
)

F = Fraction

PARTIAL_POP = {
    "domain": {"kind": "binary", "r": "r", "p": "p"},
    "voters": [
        {"class": "honest_active", "ballot": "r"},
        {"class": "honest_passive", "ballot": "r"},
        {"class": "honest_passive", "ballot": "r"},
        {"class": "sybil", "ballot": "p"},
        {"class": "sybil", "ballot": "p"},
    ],
}


@pytest.fixture
def partial_pop_file(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(PARTIAL_POP))
    return str(path)


class TestMechanismSpec:
    def test_full_grammar(self):
        mech = parse_mechanism("smj:2/5 re:1/3 mode:active")
        assert mech.base == "smj"
        assert mech.base_tau == F(2, 5)
        assert mech.re_tau == F(1, 3)
        assert mech.participation == "active"

    def test_defaults(self):
        mech = parse_mechanism("mj")
        assert (mech.re_tau, mech.participation) == (0, "full")

    def test_bad_token(self):
        with pytest.raises(MechanismMismatch):
            parse_mechanism("mj re:1/3 bogus:2")

    @pytest.mark.parametrize("base", ["mj", "pl", "cc", "imj", "md"])
    def test_threshold_on_rule_without_one(self, base, tmp_path, capsys):
        with pytest.raises(MechanismMismatch):
            parse_mechanism(f"{base}:1/2")
        path = tmp_path / "p.json"
        path.write_text(profile_to_json(binary_profile(active="rp")))
        assert main(["eval", "--profile", str(path), "--mechanism", f"{base}:1/2"]) == 3
        assert "takes no threshold" in capsys.readouterr().err


# Position strings outside -?[0-9]+(/[0-9]+)? with a nonzero denominator.
BAD_POSITIONS = {
    "exponent": " 1e-1 ",
    "decimal": "1.5",
    "underscore": "2_0",
    "plus": "+1",
    "non-ascii-digit": "\u0663",
    "zero-denominator": "1/0",
    "signed-denominator": "1/-2",
    "empty": "",
}


class TestProfileFormat:
    def test_round_trip_is_byte_identical(self, delegation_population):
        text = profile_to_json(delegation_population)
        again = profile_to_json(profile_from_json(text))
        assert text == again

    def test_round_trip_all_domains(self):
        cube = build_profile(
            DomainSpec.hypercube(2, (0, 0)),
            [(ACTIVE, (0, 1)), (SYBIL, (1, 1))],
        )
        cat = build_profile(
            DomainSpec.categorical(["r", "a", "b"], "r"),
            [(ACTIVE, ("a", "b", "r")), (SYBIL, ("b", "a", "r"))],
        )
        passive_gap = build_profile(
            DomainSpec.binary(), [(ACTIVE, "r"), (PASSIVE, None)]
        )
        for prof in (cube, cat, passive_gap):
            assert profile_from_json(profile_to_json(prof)) == prof

    def test_floats_rejected(self):
        doc = {
            "domain": {"kind": "interval", "r": "0"},
            "voters": [{"class": "honest_active", "ballot": 2.5}],
        }
        with pytest.raises(Exception):
            profile_from_json(json.dumps(doc))

    CUBE = {"kind": "hypercube", "d": 2, "r": [0, 0]}
    BIN = {"kind": "binary", "r": "r", "p": "p"}
    INTERVAL = {"kind": "interval", "r": "0"}

    @pytest.mark.parametrize(
        "domain, ballot, extra",
        [
            pytest.param({**CUBE, "d": "2"}, [0, 1], {}, id="dimension-string"),
            pytest.param({**CUBE, "d": True, "r": [0]}, [1], {}, id="dimension-bool"),
            pytest.param({**CUBE, "r": [0, True]}, [0, 1], {}, id="status-quo-bool"),
            pytest.param(CUBE, [True, 0], {}, id="coordinate-bool"),
            pytest.param(CUBE, ["1", 0], {}, id="coordinate-string"),
            pytest.param(CUBE, [1.0, 0], {}, id="coordinate-float"),
            pytest.param(CUBE, "01", {}, id="point-string"),
            pytest.param({"kind": "binary", "r": "r"}, "r", {}, id="missing-field"),
            pytest.param(
                {"kind": "categorical", "alternatives": ["r", "a", "b"], "r": "r"},
                ["r", "a", ["b"]],
                {},
                id="ranking-nested",
            ),
            pytest.param(
                {"kind": "categorical", "alternatives": "rab", "r": "r"},
                "a",
                {},
                id="alternatives-string",
            ),
            pytest.param({"kind": "interval", "r": [0]}, "1", {}, id="position-list"),
            pytest.param({"kind": "interval", "r": "0"}, {"x": 1}, {}, id="ballot-object"),
            pytest.param(["binary"], "r", {}, id="domain-list"),
            pytest.param(BIN, "r", {"format": "realityvote/profile/v2"}, id="format-tag"),
            pytest.param(BIN, "r", {"voters": ["honest_active"]}, id="voter-string"),
            pytest.param(BIN, "r", {"voters": {"class": "sybil"}}, id="voters-object"),
            pytest.param(
                BIN, "r", {"voters": [{"class": ["sybil"], "ballot": "r"}]}, id="class-list"
            ),
            pytest.param(
                BIN, "r", {"voters": [{"class": {"a": 1}, "ballot": "r"}]}, id="class-object"
            ),
            *[
                pytest.param({"kind": "interval", "r": raw}, "1", {}, id=f"r-{name}")
                for name, raw in BAD_POSITIONS.items()
            ],
            *[
                pytest.param({"kind": "interval", "r": "0"}, raw, {}, id=f"ballot-{name}")
                for name, raw in BAD_POSITIONS.items()
            ],
        ],
    )
    def test_malformed_profile_is_input_error(self, domain, ballot, extra, tmp_path, capsys):
        doc = {"domain": domain, "voters": [{"class": "honest_active", "ballot": ballot}]}
        doc.update(extra)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", "--profile", str(path), "--mechanism", "mj"]) == 2
        assert "error (input)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "domain, ballots",
        [
            pytest.param(INTERVAL, ["1/2", "1/2", True], id="interval-bool"),
            pytest.param(INTERVAL, ["3", 3, 3.0], id="interval-float"),
            pytest.param(INTERVAL, ["1/2", "1/2", [1]], id="interval-list"),
            pytest.param(BIN, ["r", "r", 1], id="binary-int"),
            pytest.param(CUBE, [[1, 0], [1, 0], [True, 0]], id="hypercube-bool"),
        ],
    )
    def test_repeated_raws_keep_every_check(self, domain, ballots, tmp_path, capsys):
        """Valid repeats of a raw before a bad one: each string is parsed once
        per file, yet every ballot is still checked."""
        voters = [{"class": "honest_active", "ballot": b} for b in ballots]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"domain": domain, "voters": voters}))
        assert main(["eval", "--profile", str(path), "--mechanism", "mj"]) == 2
        assert "error (input)" in capsys.readouterr().err

    def test_repeated_strings_load_as_their_fractions(self):
        classes = ["honest_active", "honest_active", "honest_passive", "sybil"]
        voters = [{"class": c, "ballot": "1/2"} for c in classes]
        loaded = profile_from_json(json.dumps({"domain": self.INTERVAL, "voters": voters}))
        half = F(1, 2)
        assert loaded == interval_profile(0, active=(half, half), passive=(half,), sybil=(half,))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(profiles(), profiles(domains=MIXED_INTERVALS)))
    def test_round_trips(self, prof):
        text = profile_to_json(prof)
        assert profile_from_json(text) == prof
        assert profile_to_json(profile_from_json(text)) == text

    def test_format_tag_is_optional(self):
        doc = json.loads(profile_to_json(binary_profile(active="rp")))
        assert doc["format"] == "realityvote/profile/v1"
        del doc["format"]
        assert profile_from_json(json.dumps(doc)) == binary_profile(active="rp")

    def test_rationals_survive(self):
        prof = interval_profile(F(1, 3), active=(F(2, 7),))
        text = profile_to_json(prof)
        assert "2/7" in text and "1/3" in text
        assert profile_from_json(text) == prof


# A small interval profile for the eval order: negative and mixed-denominator
# positions, repeats, and an active voter sitting on r = 1/3.
ORDER_POP = interval_profile(
    F(1, 3),
    active=(F(5, 7), F(1, 3), F(-2, 3), 0, F(1, 2), F(5, 7)),
    passive=(F(-1, 5), F(3, 5), F(1, 4), 1),
    sybil=(F(1, 2), F(-2, 3)),
)


def _block(out: str, header: str):
    """The (label, value) pairs of the indented block under a header line."""
    lines = out.splitlines()
    block = lines[lines.index(header) + 1:]
    return [tuple(line.strip().split(": ", 1)) for line in block if line.startswith("  ")]


class TestEval:
    def test_reality_enforced_returns_status_quo(self, partial_pop_file, capsys):
        code = main(["eval", "--profile", partial_pop_file, "--mechanism", "mj re:2/3 mode:active"])
        out = capsys.readouterr().out
        assert code == 0
        assert "outcome: r" in out
        assert "q: 2" in out

    def test_plain_active_majority_flips(self, partial_pop_file, capsys):
        code = main(["eval", "--profile", partial_pop_file, "--mechanism", "mj mode:active"])
        assert code == 0
        assert "outcome: p" in capsys.readouterr().out

    def test_empty_voters_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"domain": PARTIAL_POP["domain"], "voters": []}))
        assert main(["eval", "--profile", str(path), "--mechanism", "mj"]) == 2

    def test_domain_mismatch_exit(self, partial_pop_file):
        assert main(["eval", "--profile", partial_pop_file, "--mechanism", "md"]) == 3

    def test_domain_mismatch_before_missing_ballot(self, tmp_path):
        voters = [
            {"class": "honest_active", "ballot": "r"},
            {"class": "honest_passive", "ballot": None},
        ]
        path = tmp_path / "both.json"
        path.write_text(json.dumps({"domain": PARTIAL_POP["domain"], "voters": voters}))
        assert main(["eval", "--profile", str(path), "--mechanism", "md"]) == 3

    @pytest.fixture
    def order_file(self, tmp_path):
        path = tmp_path / "order.json"
        path.write_text(profile_to_json(ORDER_POP))
        return str(path)

    @pytest.mark.parametrize("spec", ["md re:1/5 mode:active", "som:1/5 mode:active"])
    def test_tally_lines_ascend(self, order_file, spec, capsys):
        assert main(["eval", "--profile", order_file, "--mechanism", spec]) == 0
        visible = [b for cls, b in ORDER_POP.voters if cls is not PASSIVE]
        expected = [(format_rational(x), str(visible.count(x))) for x in sorted(set(visible))]
        assert _block(capsys.readouterr().out, "tally:") == expected

    def test_proxy_entities_ascend_status_quo_first(self, order_file, capsys):
        assert main(["eval", "--profile", order_file, "--mechanism", "md re:1/5 mode:proxy"]) == 0
        entities = delegate(ORDER_POP, F(1, 5)).entities
        ordered = sorted(entities, key=lambda e: (e.position, not e.is_status_quo))
        expected = [
            (
                format_rational(e.position),
                format_rational(e.weight) + (" (status quo)" if e.is_status_quo else ""),
            )
            for e in ordered
        ]
        lines = _block(capsys.readouterr().out, "entities:")
        assert lines == expected
        on_r = [value for label, value in lines if label == "1/3"]
        assert len(on_r) == 2 and on_r[0].endswith("(status quo)")


class TestFrontier:
    def test_single_point(self, capsys):
        code = main(
            [
                "frontier",
                "--setting",
                "arbitrary",
                "--sigma-grid",
                "2/5",
                "--mu-grid",
                "0",
                "--tau-grid",
                "0",
                "--out",
                "-",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        row = out.splitlines()[2]
        assert row.startswith("arbitrary,2/5,")
        assert ",1/3," in row  # alpha_star

    def test_feasible_column_matches_inequality(self, tmp_path):
        out = tmp_path / "frontier.csv"
        grid = ",".join(str(F(i, 10)) for i in range(10))
        code = main(
            [
                "frontier",
                "--setting",
                "arbitrary",
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
        assert lines[0] == "# realityvote-frontier-v1"
        header = lines[1].split(",")
        feasible_col = header.index("feasible")
        error_col = header.index("error")
        for line in lines[2:]:
            cells = line.split(",")
            sigma, mu = F(cells[1]), F(cells[3])
            if sigma + mu >= 1:
                assert cells[error_col] == "degenerate"
                continue
            assert cells[feasible_col] == ("1" if 3 * sigma + 2 * mu < 1 else "0")

    def test_deterministic_output(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            main(
                [
                    "frontier",
                    "--setting",
                    "random",
                    "--sigma-grid",
                    "0,1/5",
                    "--mu-grid",
                    "0,1/5",
                    "--tau-grid",
                    "0,1/4",
                    "--out",
                    str(path),
                ]
            )
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_bad_grid_is_input_error(self, tmp_path):
        assert (
            main(
                [
                    "frontier",
                    "--setting",
                    "arbitrary",
                    "--sigma-grid",
                    "zebra",
                    "--mu-grid",
                    "0",
                    "--tau-grid",
                    "0",
                    "--out",
                    str(tmp_path / "x.csv"),
                ]
            )
            == 2
        )

    def test_unknown_schema_version(self):
        with pytest.raises(Exception):
            write_frontier_csv(Setting.ARBITRARY_BINARY, [F(0)], [F(0)], [F(0)], schema_version=9)


class TestOracle:
    def test_matching_point_exits_zero(self, capsys):
        code = main(["oracle", "--shape", "5,2/5,0", "--mechanism", "mj", "--base", "mj"])
        out = capsys.readouterr().out
        assert code == 0
        assert "finite min alpha: 1/3" in out
        assert "granularity-adjusted: 1/3" in out

    def test_liveness_large_beta_reports_finite_value(self, capsys):
        code = main(
            [
                "oracle",
                "--shape",
                "5,2/5,2/5",
                "--mechanism",
                "smj:2/5 mode:active",
                "--liveness",
                "--target",
                "p",
            ]
        )
        out = capsys.readouterr().out
        assert "finite beta: 19" in out
        # beyond the replacement regime the formula value and oracle diverge,
        # which the command reports as a mismatch
        assert code == 1

    def test_cap_guard(self, monkeypatch):
        monkeypatch.delenv("REALITYVOTE_ENUM_CAP", raising=False)
        assert main(["oracle", "--shape", "12,1/2,0", "--mechanism", "mj"]) == 4
        monkeypatch.setenv("REALITYVOTE_ENUM_CAP", "12")
        assert main(["oracle", "--shape", "12,1/2,0", "--mechanism", "mj"]) in (0, 1)

    def test_bad_shape_is_input_error(self):
        assert main(["oracle", "--shape", "5,2/5", "--mechanism", "mj"]) == 2

    def test_proxy_mechanism_on_shapes_is_a_mismatch(self):
        # The binary worst case evaluates count tables, which carry no voter
        # order for proxy delegation.
        assert main(["oracle", "--shape", "5,2/5,0", "--mechanism", "mj mode:proxy"]) == 3


class TestSimulate:
    def test_hoeffding_passes(self, tmp_path, capsys):
        template = binary_profile(active="p" * 30 + "r" * 30)
        path = tmp_path / "template.json"
        path.write_text(profile_to_json(template))
        curve = tmp_path / "curve.csv"
        code = main(
            [
                "simulate",
                "--kind",
                "hoeffding",
                "--template",
                str(path),
                "--n-plus",
                "20",
                "--trials",
                "300",
                "--seed",
                "9",
                "--epsilon",
                "1/5",
                "--curve-out",
                str(curve),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "gate (bound + 3 s.e.): pass" in out
        assert curve.read_text().startswith("n_plus,")

    def test_whp_kind_passes_above_threshold(self, tmp_path, capsys):
        template = binary_profile(active="p" * 10 + "r" * 14, sybil="p" * 6)
        path = tmp_path / "whp.json"
        path.write_text(profile_to_json(template))
        code = main(
            [
                "simulate",
                "--kind",
                "whp",
                "--template",
                str(path),
                "--n-plus",
                "18",
                "--trials",
                "200",
                "--seed",
                "21",
                "--tau",
                "1/2",
                "--alpha-prime",
                "1/10",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "gate (bound + 3 s.e.): pass" in out

    def test_zero_trials_is_input_error(self, tmp_path, capsys):
        # The library's own check answers for every kind.
        template = binary_profile(active="pr")
        path = tmp_path / "t.json"
        path.write_text(profile_to_json(template))
        for kind in ("whp", "proxy", "hoeffding"):
            argv = ["simulate", "--kind", kind, "--template", str(path), "--trials", "0"]
            assert main(argv + ["--seed", "1"]) == 2, kind
            assert "need at least one trial" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon, code", [("-1/10", 2), ("0", 0)])
    def test_negative_epsilon_is_input_error(self, epsilon, code, tmp_path, capsys):
        # With epsilon < 0 every draw would overshoot: a gate failure (exit 5)
        # that measures nothing.  Epsilon 0 has bound 1 and passes.
        path = tmp_path / "t.json"
        path.write_text(profile_to_json(binary_profile(active="pppppprrrrrr", sybil="pp")))
        argv = ["simulate", "--kind", "hoeffding", "--template", str(path), "--n-plus", "10"]
        assert main(argv + ["--trials", "200", "--seed", "1", f"--epsilon={epsilon}"]) == code
        assert ("epsilon must be nonnegative" in capsys.readouterr().err) == (code == 2)

    def test_identical_arguments_identical_output(self, tmp_path, capsys):
        template = interval_profile(0, active=[3 * i for i in range(20)], sybil=[90] * 4)
        path = tmp_path / "t.json"
        path.write_text(profile_to_json(template))
        args = [
            "simulate",
            "--kind",
            "proxy",
            "--template",
            str(path),
            "--n-plus",
            "4",
            "--trials",
            "40",
            "--seed",
            "77",
            "--tau",
            "1/5",
            "--c",
            "1/10",
        ]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first


def _frontier(sigma="0", mu="0", tau="0"):
    grids = [f"--sigma-grid={sigma}", f"--mu-grid={mu}", f"--tau-grid={tau}"]
    return ["frontier", "--setting", "arbitrary", *grids, "--out", "-"]


def _simulate(kind, option):
    def argv(raw, templates):
        head = ["simulate", "--kind", kind, "--template", templates[kind], "--n-plus", "4"]
        return head + ["--trials", "10", "--seed", "1", f"--{option}={raw}"]

    return argv


# Every site where a rational enters the command line: an argv from the raw
# text and the template path per simulate kind.
RATIONAL_SITES = {
    "smj-threshold": lambda raw, t: ["eval", "--profile", t["whp"], "--mechanism", f"smj:{raw}"],
    "re-threshold": lambda raw, t: ["eval", "--profile", t["whp"], "--mechanism", f"mj re:{raw}"],
    "shape-sigma": lambda raw, _: ["oracle", "--shape", f"10,{raw},0", "--mechanism", "mj"],
    "shape-mu": lambda raw, _: ["oracle", "--shape", f"10,0,{raw}", "--mechanism", "mj"],
    "sigma-grid": lambda raw, _: _frontier(sigma=raw),
    "mu-grid": lambda raw, _: _frontier(mu=raw),
    "tau-grid": lambda raw, _: _frontier(tau=raw),
    "tau": _simulate("whp", "tau"),
    "alpha-prime": _simulate("whp", "alpha-prime"),
    "c": _simulate("proxy", "c"),
    "epsilon": _simulate("hoeffding", "epsilon"),
}


class TestRationalGrammar:
    """Profile files and the command line read rationals through one parser."""

    @pytest.fixture
    def templates(self, tmp_path):
        binary = binary_profile(active="p" * 10 + "r" * 14, sybil="p" * 6)
        interval = interval_profile(0, active=[3 * i for i in range(20)], sybil=[90] * 4)
        paths = {}
        for kind, template in (("whp", binary), ("hoeffding", binary), ("proxy", interval)):
            path = tmp_path / f"{kind}.json"
            path.write_text(profile_to_json(template))
            paths[kind] = str(path)
        return paths

    @pytest.mark.parametrize("raw", list(BAD_POSITIONS.values()), ids=list(BAD_POSITIONS))
    @pytest.mark.parametrize("site", list(RATIONAL_SITES))
    def test_bad_form_is_input_error_at_every_site(self, site, raw, templates, capsys):
        assert main(RATIONAL_SITES[site](raw, templates)) == 2
        assert "error (input)" in capsys.readouterr().err

    @pytest.mark.parametrize("site", list(RATIONAL_SITES))
    def test_good_form_passes_every_site(self, site, templates, capsys):
        # The same argv with a well-formed value gets past the parser.
        assert main(RATIONAL_SITES[site]("1/5", templates)) in (0, 1)
        assert "error" not in capsys.readouterr().err

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.fractions())
    def test_format_round_trips(self, value):
        assert parse_rational(format_rational(value)) == value

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.from_regex(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?", fullmatch=True))
    def test_agrees_with_fraction_on_the_grammar(self, text):
        assert parse_rational(text) == Fraction(text)


class TestRationalList:
    def test_parses(self):
        assert parse_rational_list("0, 1/2,3") == (F(0), F(1, 2), F(3))

    def test_rejects_empty(self):
        with pytest.raises(Exception):
            parse_rational_list(" , ")
