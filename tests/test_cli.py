import contextlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realityvote import DomainSpec, build_profile, montecarlo
from realityvote.cli import main, parse_mechanism
from realityvote.errors import InvalidBallot, MechanismMismatch, MixedBallotKind, NoActiveHonest
from realityvote.formats import (
    _ballot_from_json,
    _domain_from_json,
    parse_int,
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

    @pytest.mark.parametrize(
        "domain, voters, message",
        [
            pytest.param(
                INTERVAL,
                [{"class": "sybil", "ballot": None}, {"class": "honest_active", "ballot": "1/0"}],
                "sybil entry lacks a ballot",
                id="interval-sybil-without-ballot-before-bad-rational",
            ),
            pytest.param(
                BIN,
                [{"class": "honest_active", "ballot": "x"}, {"class": "spy", "ballot": "p"}],
                "got 'x'",
                id="binary-bad-ballot-before-unknown-class",
            ),
        ],
    )
    def test_first_bad_voter_decides(self, domain, voters, message, tmp_path, capsys):
        """A later voter's parse or class fault does not beat an earlier
        voter's ballot fault."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"domain": domain, "voters": voters}))
        assert main(["eval", "--profile", str(path), "--mechanism", "mj"]) == 2
        assert message in capsys.readouterr().err

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


TAGS = {"honest_active": ACTIVE, "honest_passive": PASSIVE, "sybil": SYBIL}
CATEGORICAL = {"kind": "categorical", "alternatives": ["r", "a", "b"], "r": "r"}
# Raw ballots per document kind; "2/4" and "1/2" are one position, 7 takes
# the per-voter path, and "mixed" mixes single choices with a ranking.
DOC_BALLOTS = {
    "binary": ({"kind": "binary", "r": "r", "p": "p"}, ["r", "p"]),
    "interval": ({"kind": "interval", "r": "1/2"}, ["1/2", "2/4", "-3", "0", 7]),
    "categorical": (CATEGORICAL, ["r", "a", "b"]),
    "rankings": (CATEGORICAL, [["r", "a", "b"], ["b", "a", "r"], ["a", "b", "r"]]),
    "mixed": (CATEGORICAL, ["r", "a", ["a", "b", "r"]]),
    "hypercube": ({"kind": "hypercube", "d": 2, "r": [0, 0]}, [[0, 0], [0, 1], [1, 1]]),
}
VOTER_FAULTS = [
    "honest_active",
    {"ballot": "r"},
    {"class": "spy", "ballot": "r"},
    {"class": 1, "ballot": "r"},
    {"class": ["sybil"], "ballot": "r"},
    {"class": "sybil", "ballot": None},
    {"class": "honest_active", "ballot": None},
    {"class": "honest_active", "ballot": "x"},
    {"class": "sybil", "ballot": "1/0"},
    {"class": "honest_passive", "ballot": True},
    {"class": "honest_active", "ballot": 1},
    {"class": "honest_active", "ballot": 1.5},
    {"class": "sybil", "ballot": [0, 2]},
]


@st.composite
def documents(draw, max_faults=2):
    """Profile documents with repeated entries and up to max_faults bad voters."""
    domain, ballots = DOC_BALLOTS[draw(st.sampled_from(sorted(DOC_BALLOTS)))]
    voter = st.one_of(
        st.fixed_dictionaries(
            {"class": st.sampled_from(sorted(TAGS)), "ballot": st.sampled_from(ballots)}
        ),
        st.just({"class": "honest_passive", "ballot": None}),
    )
    voters = draw(st.lists(voter, min_size=1, max_size=16))
    for fault in draw(st.lists(st.sampled_from(VOTER_FAULTS), max_size=max_faults)):
        voters.insert(draw(st.integers(0, len(voters))), fault)
    return json.dumps({"domain": domain, "voters": voters})


def per_voter_read(text):
    """A plain reader: each voter parsed, then build_profile run on the voters
    so far (so the first bad voter decides), then a recount of every voter."""
    doc = json.loads(text)
    domain = _domain_from_json(doc["domain"])
    entries = []
    for voter in doc["voters"]:
        if not isinstance(voter, dict):
            raise InvalidBallot(f"a voter entry must be an object, not {voter!r}")
        tag = voter.get("class")
        if not (isinstance(tag, str) and tag in TAGS):
            raise InvalidBallot(f"unknown voter class {tag!r}")
        entries.append((TAGS[tag], _ballot_from_json(domain, voter.get("ballot"))))
        try:
            build_profile(domain, entries)
        except (MixedBallotKind, NoActiveHonest):  # only the whole list decides these
            pass
    profile = build_profile(domain, entries)
    counts = {cls: {} for cls in TAGS.values()}
    for cls, ballot in profile.voters:
        counts[cls][ballot] = counts[cls].get(ballot, 0) + 1
    return profile, counts


def _read(reader, text):
    try:
        return reader(text)
    except Exception as exc:  # both readers must fail alike
        return type(exc), str(exc)


class TestOnePassReader:
    """profile_from_json checks and counts each distinct entry once; it must
    read every document exactly as a per-voter reader does."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(documents())
    def test_matches_the_per_voter_reader(self, text):
        loaded = _read(profile_from_json, text)
        expected = _read(per_voter_read, text)
        if isinstance(expected, tuple) and isinstance(expected[0], type):
            assert loaded == expected
            return
        profile, counts = expected
        assert loaded == profile
        assert [(c, type(b)) for c, b in loaded.voters] == [(c, type(b)) for c, b in profile.voters]
        assert list(loaded.counts) == list(counts)
        assert [list(row.items()) for row in loaded.counts.values()] == [
            list(row.items()) for row in counts.values()
        ]

    def test_each_distinct_entry_is_validated_once(self, monkeypatch):
        rng = random.Random(5)
        voters = [
            {"class": rng.choice(sorted(TAGS)), "ballot": rng.choice("rp")} for _ in range(1000)
        ]
        calls = []
        validate = DomainSpec.validate_ballot

        def spy(domain, ballot, *args):
            calls.append(ballot)
            return validate(domain, ballot, *args)

        monkeypatch.setattr(DomainSpec, "validate_ballot", spy)
        text = json.dumps({"domain": {"kind": "binary", "r": "r", "p": "p"}, "voters": voters})
        profile = profile_from_json(text)
        assert len(calls) <= len({(v["class"], v["ballot"]) for v in voters}) == 6
        assert profile.n == 1000 and len({id(voter) for voter in profile.voters}) == 6


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

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("xx", "unknown base rule 'xx'"),
            ("mj mode:bogus", "unknown participation mode 'bogus'"),
            ("md re:-1/5 mode:active", "tau parameters must be nonnegative"),
            ("som:1", "suppression fraction must lie in [0, 1)"),
        ],
    )
    def test_bad_mechanism_is_a_mismatch(self, spec, message, partial_pop_file, capsys):
        assert main(["eval", "--profile", partial_pop_file, "--mechanism", spec]) == 3
        assert capsys.readouterr().err == f"error (mechanism/domain): {message}\n"

    @pytest.mark.parametrize(
        "domain, message",
        [
            (None, "profile file is not valid JSON"),
            ({"kind": "torus"}, "unknown domain kind 'torus'"),
            ({"kind": "binary", "r": "r", "p": "r"}, "binary domain needs two distinct"),
            ({"kind": "categorical", "alternatives": ["r"], "r": "r"},
             "categorical domain needs at least 2 alternatives"),
        ],
    )
    def test_bad_profile_file_is_input_error(self, domain, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        voters = [{"class": "honest_active", "ballot": "r"}]
        path.write_text("{" if domain is None else json.dumps({"domain": domain, "voters": voters}))
        assert main(["eval", "--profile", str(path), "--mechanism", "mj"]) == 2
        assert capsys.readouterr().err.startswith(f"error (input): {message}")

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--mechanism", "mj", "--profile"],
            ["simulate", "--kind", "whp", "--trials", "1", "--seed", "1", "--template"],
        ],
        ids=["eval", "simulate"],
    )
    def test_deeply_nested_profile_is_input_error(self, argv, tmp_path, capsys):
        # json.loads raises RecursionError, not JSONDecodeError, past its depth.
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000)
        assert main([*argv, str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error (input): profile file is not valid JSON"
        )

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

    def test_hypercube_points_print_as_digits_in_tuple_order(self, tmp_path, capsys):
        cube = build_profile(
            DomainSpec.hypercube(2, (0, 0)),
            [(ACTIVE, (1, 1)), (ACTIVE, (0, 1)), (PASSIVE, (1, 0)), (SYBIL, (1, 1)),
             (ACTIVE, (1, 0)), (ACTIVE, (0, 0))],
        )
        path = tmp_path / "cube.json"
        path.write_text(profile_to_json(cube))
        assert main(["eval", "--profile", str(path), "--mechanism", "imj"]) == 0
        assert capsys.readouterr().out == (
            "mechanism: imj mode:full\n"
            "outcome: 10\n"
            "visible: 6\n"
            "q: 0\n"
            "tally:\n"
            "  00: 1\n"
            "  01: 1\n"
            "  10: 2\n"
            "  11: 2\n"
        )

    def test_rankings_print_as_labels_in_domain_order(self, tmp_path, capsys):
        rankings = build_profile(
            DomainSpec.categorical(["r", "a", "b"], "r"),
            [(ACTIVE, ("a", "r", "b")), (ACTIVE, ("b", "a", "r")), (SYBIL, ("a", "b", "r")),
             (ACTIVE, ("r", "a", "b")), (PASSIVE, ("a", "r", "b")), (ACTIVE, ("a", "b", "r"))],
        )
        path = tmp_path / "rankings.json"
        path.write_text(profile_to_json(rankings))
        assert main(["eval", "--profile", str(path), "--mechanism", "cc re:1/10"]) == 0
        assert capsys.readouterr().out == (
            "mechanism: cc re:1/10 mode:full\n"
            "outcome: a\n"
            "visible: 6\n"
            "q: 3/5\n"
            "tally:\n"
            "  rab: 1\n"
            "  arb: 2\n"
            "  abr: 2\n"
            "  bar: 1\n"
        )

    def test_empty_mechanism_is_a_mismatch(self, partial_pop_file, capsys):
        assert main(["eval", "--profile", partial_pop_file, "--mechanism", ""]) == 3
        assert "empty mechanism spec" in capsys.readouterr().err

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

    def test_proxy_eval_builds_one_index_and_scales_each_position_once(
        self, order_file, monkeypatch, capsys
    ):
        # The outcome and the entity weights come from one index, and the
        # voters read from the file share their position objects, so each
        # distinct position (and the domain's r) is scaled once.
        from realityvote import proxy, rules

        scaled, indices = [], []
        real_scaled, real_init = rules.scaled, proxy._ProxyIndex.__init__

        def init(index, *args):
            indices.append(args)
            real_init(index, *args)

        monkeypatch.setattr(rules, "scaled", lambda p, s: scaled.append(p) or real_scaled(p, s))
        monkeypatch.setattr(proxy._ProxyIndex, "__init__", init)
        assert main(["eval", "--profile", order_file, "--mechanism", "md re:1/5 mode:proxy"]) == 0
        assert len(indices) == 1
        positions = {b for _, b in ORDER_POP.voters}
        assert sorted(scaled) == sorted([*positions, ORDER_POP.domain.status_quo_position])

    @pytest.mark.parametrize("spec", ["md re:1/5 mode:active", "som:1/5 mode:active"])
    def test_median_eval_scales_each_visible_position_once_and_builds_no_table(
        self, order_file, spec, monkeypatch
    ):
        # The tally is counted on the integer index: each distinct visible
        # position (and r) is scaled once, for the median and the print
        # order alike, and no Fraction-keyed count table is built.
        from realityvote import population, rules

        scaled, tables = [], []
        real_scaled, real_table = rules.scaled, population._count_table
        monkeypatch.setattr(rules, "scaled", lambda p, s: scaled.append(p) or real_scaled(p, s))
        monkeypatch.setattr(population, "_count_table",
                            lambda *args: tables.append(args) or real_table(*args))
        assert main(["eval", "--profile", order_file, "--mechanism", spec]) == 0
        visible = {b for cls, b in ORDER_POP.voters if cls is not PASSIVE}
        assert sorted(scaled) == sorted([*visible, ORDER_POP.domain.status_quo_position])
        assert tables == []


# Interval position raws: non-canonical strings ("2/4", "-0", "007", "-3/6")
# next to their canonical forms and JSON ints, few enough that positions
# repeat within and across classes.
LINE_RAWS = ["1/2", "2/4", "-0", "0", "007", 7, "-3/6", "-1/2", 3, "5/3", "-2"]
LINE_SPECS = [f"{base} mode:{mode}" for base in ("md", "som:1/3", "md re:1/5")
              for mode in ("full", "active", "proxy")]


@st.composite
def line_documents(draw):
    """Interval profile documents: an active voter first, then actives,
    sybils and passives with and without a position."""
    raw = st.sampled_from(LINE_RAWS)
    voter = st.one_of(
        st.fixed_dictionaries({"class": st.sampled_from(["honest_active", "sybil",
                                                         "honest_passive"]), "ballot": raw}),
        st.just({"class": "honest_passive", "ballot": None}),
    )
    first = {"class": "honest_active", "ballot": draw(raw)}
    voters = [first, *draw(st.lists(voter, max_size=12))]
    domain = {"kind": "interval", "r": draw(st.sampled_from(["0", "1/2", "-0", "2/4", 3]))}
    return json.dumps({"domain": domain, "voters": voters})


def public_eval(text, spec):
    """The exit code, stdout and stderr of eval from the public path:
    rules.apply, build_tally with its positions sorted as Fractions, and
    delegate's entities sorted by position, the status quo first."""
    from realityvote import errors, rules

    try:
        profile, mechanism = profile_from_json(text), parse_mechanism(spec)
        outcome = rules.apply(mechanism, profile)
        if mechanism.participation == "proxy":
            entities = delegate(profile, mechanism.re_tau).entities
            lines = ["entities:"] + [
                f"  {format_rational(e.position)}: {format_rational(e.weight)}"
                + (" (status quo)" if e.is_status_quo else "")
                for e in sorted(entities, key=lambda e: (e.position, not e.is_status_quo))
            ]
        else:
            tally = rules.build_tally(mechanism, profile.counts)
            lines = [f"visible: {tally.cast_total}", f"q: {format_rational(tally.virtual_mass)}",
                     "tally:"]
            lines += [f"  {format_rational(x)}: {c}" for x, c in sorted(tally.counts.items())]
    except (MechanismMismatch, errors.NonRankingBallot) as exc:
        return 3, "", f"error (mechanism/domain): {exc}\n"
    except errors.RealityVoteError as exc:
        return 2, "", f"error (input): {exc}\n"
    head = [f"mechanism: {mechanism.describe()}", f"outcome: {format_rational(outcome)}"]
    return 0, "\n".join(head + lines) + "\n", ""


def cli_eval(text, spec):
    """The exit code, stdout and stderr of eval on a file holding text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "line.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval", "--profile", path, "--mechanism", spec])
    return code, out.getvalue(), err.getvalue()


class TestLineEval:
    """eval on the line counts, orders and prints on the integer index; it
    must print exactly what the public path gives."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(line_documents())
    def test_matches_the_public_path(self, text):
        for spec in LINE_SPECS:
            assert cli_eval(text, spec) == public_eval(text, spec), spec

    def test_missing_private_ballots_under_full_participation(self):
        voters = [{"class": "honest_active", "ballot": "1/2"},
                  {"class": "honest_passive", "ballot": None}]
        text = json.dumps({"domain": {"kind": "interval", "r": "0"}, "voters": voters})
        expected = (2, "", "error (input): full participation needs passive voters' ballots\n")
        assert cli_eval(text, "md mode:full") == public_eval(text, "md mode:full") == expected


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

    @pytest.mark.parametrize("raw", [" 1/2", "1/2,,1", "1/2,", ""])
    @pytest.mark.parametrize("grid", ["sigma", "mu", "tau"])
    def test_lax_grid_is_input_error(self, grid, raw, capsys):
        assert main(_frontier(**{grid: raw})) == 2
        assert "error (input)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sigma, mu, tau, message",
        [
            ("1", "-1/5", "0", "sigma and mu must lie in [0, 1)"),
            ("0", "-1/5", "0", "sigma and mu must lie in [0, 1)"),
            ("-1/5", "1", "0", "sigma and mu must lie in [0, 1)"),
            ("1,2", "0,-1/5", "0", "sigma and mu must lie in [0, 1)"),
            ("1", "0", "-1", "tau must be nonnegative"),
            ("0", "0", "-1", "tau must be nonnegative"),
            ("1/2", "1/2", "0,-1/10", "tau must be nonnegative"),
        ],
    )
    def test_negative_grid_value_is_an_error_whatever_its_pair(
        self, sigma, mu, tau, message, capsys
    ):
        # The sign of every grid value is checked before the first row, so a
        # degenerate pair (sigma + mu >= 1) does not let a negative one through.
        assert main(_frontier(sigma, mu, tau)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("sigma, mu", [("1", "0"), ("0", "1"), ("1/2", "1/2"), ("3/5", "2/3")])
    def test_nonnegative_pair_summing_to_one_is_a_degenerate_row(self, sigma, mu, capsys):
        assert main(_frontier(sigma, mu, "0,1/10")) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert len(rows) == 2
        assert all(row.endswith(",,,,,,,,,,degenerate") for row in rows)

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

    def test_shape_without_an_active_honest_voter_is_input_error(self, capsys):
        assert main(["oracle", "--shape", "4,1/2,1/2", "--mechanism", "mj"]) == 2
        err = capsys.readouterr().err
        assert err == "error (input): shape needs at least one active honest voter\n"

    @pytest.mark.parametrize("flags", [[], ["--liveness"]], ids=["safety", "liveness"])
    def test_proxy_mechanism_on_shapes_is_a_mismatch(self, flags):
        # The binary worst case and the liveness search evaluate counts,
        # which carry no voter order for proxy delegation.
        argv = ["oracle", "--shape", "5,2/5,0", "--mechanism", "mj mode:proxy", *flags]
        assert main(argv) == 3

    @pytest.mark.parametrize(
        "argv, code, report",
        [
            pytest.param(
                ["--shape", "5,2/5,0", "--mechanism", "mj", "--base", "mj"], 0,
                ["finite min alpha: 1/3", "formula threshold: 1/3",
                 "granularity-adjusted: 1/3", "match: yes"],
                id="safety match"),
            pytest.param(
                ["--shape", "5,1/5,1/5", "--mechanism", "mj re:1/5"], 1,
                ["finite min alpha: 0", "formula threshold: 3/20",
                 "granularity-adjusted: 1/4", "match: no"],
                id="safety mismatch"),
            pytest.param(
                ["--shape", "5,1/5,0", "--mechanism", "mj", "--liveness"], 0,
                ["finite beta: 3/4", "formula threshold (open): 5/8",
                 "granularity-adjusted: 3/4", "match: yes"],
                id="liveness match"),
            pytest.param(
                ["--shape", "5,2/5,2/5", "--mechanism", "smj:2/5 mode:active", "--liveness",
                 "--target", "p"], 1,
                ["finite beta: 19", "formula threshold (open): 27/10",
                 "granularity-adjusted: 3", "match: no"],
                id="liveness mismatch"),
        ],
    )
    def test_whole_report(self, argv, code, report, capsys):
        assert main(["oracle", *argv]) == code
        assert capsys.readouterr().out.splitlines() == report


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

    @pytest.mark.parametrize("kind", ["whp", "proxy", "hoeffding"])
    def test_negative_seed_is_input_error(self, kind, templates, capsys):
        argv = ["simulate", "--kind", kind, "--template", templates[kind], "--n-plus", "4"]
        assert main(argv + ["--trials", "10", "--seed", "-1"]) == 2
        assert "error (input)" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["whp", "proxy", "hoeffding"])
    def test_trials_past_one_spawn_word_are_input_error(self, kind, templates, monkeypatch,
                                                         capsys):
        # Trial t >= 2**32 would need a two-word spawn key: refused before a draw.
        draws = []
        monkeypatch.setattr(montecarlo, "_trial_generators", lambda *args: draws.append(args))
        argv = ["simulate", "--kind", kind, "--template", templates[kind], "--n-plus", "4"]
        assert main(argv + ["--trials", "4294967297", "--seed", "1"]) == 2
        assert "at most 4294967296 trials" in capsys.readouterr().err
        assert draws == []

    @pytest.mark.parametrize("epsilon, code", [("-1/10", 2), ("0", 0)])
    def test_negative_epsilon_is_input_error(self, epsilon, code, tmp_path, capsys):
        # With epsilon < 0 every draw would overshoot: a gate failure (exit 5)
        # that measures nothing.  Epsilon 0 has bound 1 and passes.
        path = tmp_path / "t.json"
        path.write_text(profile_to_json(binary_profile(active="pppppprrrrrr", sybil="pp")))
        argv = ["simulate", "--kind", "hoeffding", "--template", str(path), "--n-plus", "10"]
        assert main(argv + ["--trials", "200", "--seed", "1", f"--epsilon={epsilon}"]) == code
        assert ("epsilon must be nonnegative" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("kind, template", [("whp", "proxy"), ("hoeffding", "proxy"),
                                                ("proxy", "whp")])
    def test_template_of_the_wrong_domain_is_a_mismatch(self, kind, template, templates, capsys):
        argv = ["simulate", "--kind", kind, "--template", templates[template], "--n-plus", "4"]
        assert main(argv + ["--trials", "10", "--seed", "1"]) == 3
        assert "error (mechanism/domain)" in capsys.readouterr().err

    def test_hoeffding_sample_above_the_honest_count_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(profile_to_json(binary_profile(active="pprr", sybil="p")))
        argv = ["simulate", "--kind", "hoeffding", "--template", str(path), "--n-plus", "5"]
        assert main(argv + ["--trials", "10", "--seed", "1"]) == 2
        assert "active sample must fit" in capsys.readouterr().err

    def test_whp_template_without_a_passive_ballot_is_input_error(self, tmp_path, capsys):
        voters = [
            {"class": "honest_active", "ballot": "p"},
            {"class": "honest_active", "ballot": "r"},
            {"class": "honest_passive", "ballot": None},
        ]
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"domain": PARTIAL_POP["domain"], "voters": voters}))
        argv = ["simulate", "--kind", "whp", "--template", str(path), "--n-plus", "1"]
        assert main(argv + ["--trials", "10", "--seed", "1"]) == 2
        assert "template needs every honest ballot" in capsys.readouterr().err

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


@pytest.fixture
def templates(tmp_path):
    binary = binary_profile(active="p" * 10 + "r" * 14, sybil="p" * 6)
    interval = interval_profile(0, active=[3 * i for i in range(20)], sybil=[90] * 4)
    paths = {}
    for kind, template in (("whp", binary), ("hoeffding", binary), ("proxy", interval)):
        path = tmp_path / f"{kind}.json"
        path.write_text(profile_to_json(template))
        paths[kind] = str(path)
    return paths


class TestRationalGrammar:
    """Profile files and the command line read rationals through one parser."""

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


# Integers that int() takes but '-?[0-9]+' does not, and every site where an
# integer enters the command line (the argv from the raw text).
BAD_INTEGERS = {"space": " 5", "underscore": "5_0", "non-ascii-digit": "\u0665"}
_LIVENESS = ["oracle", "--shape", "1,0,0", "--mechanism", "mj", "--liveness"]
INTEGER_SITES = {
    "shape-n": lambda raw, _: ["oracle", "--shape", f"{raw},0,0", "--mechanism", "mj"],
    "schema-version": lambda raw, _: [*_frontier(), f"--schema-version={raw}"],
    "max-units": lambda raw, _: [*_LIVENESS, f"--max-units={raw}"],
    "n-plus": _simulate("whp", "n-plus"),
    "n-plus-grid": _simulate("whp", "n-plus-grid"),
    "trials": _simulate("hoeffding", "trials"),
    "seed": _simulate("proxy", "seed"),
}


class TestIntegerGrammar:
    """Every command-line integer is read by formats.parse_int."""

    @pytest.mark.parametrize("raw", list(BAD_INTEGERS.values()), ids=list(BAD_INTEGERS))
    @pytest.mark.parametrize("site", list(INTEGER_SITES))
    def test_bad_form_is_input_error_at_every_site(self, site, raw, templates, capsys):
        assert main(INTEGER_SITES[site](raw, templates)) == 2
        assert "error (input)" in capsys.readouterr().err

    @pytest.mark.parametrize("site", list(INTEGER_SITES))
    def test_good_form_passes_every_site(self, site, templates, capsys):
        assert main(INTEGER_SITES[site]("1", templates)) in (0, 1)
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("raw", list(BAD_INTEGERS.values()), ids=list(BAD_INTEGERS))
    def test_bad_enumeration_cap_is_a_budget_error(self, raw, monkeypatch, capsys):
        monkeypatch.setenv("REALITYVOTE_ENUM_CAP", raw)
        assert main(["oracle", "--shape", "5,2/5,0", "--mechanism", "mj"]) == 4
        assert "error (budget): bad REALITYVOTE_ENUM_CAP value" in capsys.readouterr().err

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.from_regex(r"-?[0-9]+", fullmatch=True))
    def test_agrees_with_int_on_the_grammar(self, text):
        assert parse_int(text) == int(text)


class TestParser:
    def test_missing_arguments_are_input_error(self, capsys):
        assert main(["frontier"]) == 2
        assert "the following arguments are required" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: realityvote")


class TestRationalList:
    def test_parses(self):
        assert parse_rational_list("0,1/2,3") == (F(0), F(1, 2), F(3))

    def test_rejects_empty(self):
        with pytest.raises(Exception):
            parse_rational_list(" , ")
