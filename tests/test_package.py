import ast
import dataclasses
import importlib
import json
import os
import pkgutil
import re
import runpy
import subprocess
import sys
import typing
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import realityvote
from realityvote import Mechanism, montecarlo
from realityvote.formats import profile_to_json

from conftest import binary_profile, interval_profile

MODULES = [
    importlib.import_module(f"realityvote.{info.name}")
    for info in pkgutil.iter_modules(realityvote.__path__)
]


def _record_fields(obj):
    """A dataclass's or a NamedTuple's field names; None for anything else."""
    if dataclasses.is_dataclass(obj):
        return {field.name for field in dataclasses.fields(obj)}
    if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields"):
        return set(obj._fields)
    return None


PUBLIC_RECORDS = sorted(
    {
        obj
        for module in MODULES
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and _record_fields(obj) is not None
        and obj.__module__ == module.__name__
    },
    key=lambda cls: f"{cls.__module__}.{cls.__qualname__}",
)


@pytest.mark.parametrize(
    "cls", PUBLIC_RECORDS, ids=lambda cls: f"{cls.__module__}.{cls.__qualname__}"
)
def test_type_hints_resolve(cls):
    # Annotations are strings under `from __future__ import annotations`;
    # a name missing from the defining module only fails when resolved.
    hints = typing.get_type_hints(cls)
    assert set(hints) >= _record_fields(cls)


def test_every_export_resolves():
    # A stale name in __all__ only fails at a caller's `from realityvote import *`.
    assert [name for name in realityvote.__all__ if not hasattr(realityvote, name)] == []


def _tracing_table():
    # Run by path: the benchmark directory is not a package.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    return runpy.run_path(str(path))["WRAPPED"]


def test_traced_names_exist():
    # The traced benchmark wraps these by name and stops on a missing one;
    # a rename should fail here first.
    missing = [
        f"{layer}.{name}"
        for layer, names in _tracing_table().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"realityvote.{layer}"), name, None))
    ]
    assert not missing
    verifier = importlib.import_module("realityvote.verifier")
    assert callable(verifier._cached_range)
    assert isinstance(verifier._range_cache, dict)


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
_BACKTICKED = re.compile(r"`(\w+)\.(\w+)")


def test_cited_readme_headings_exist():
    # Docstrings give their reasons as README "<heading>"; renaming a
    # section must not leave a citation behind.
    headings = set(re.findall(r"^## (.+)$", README, flags=re.M))
    cited = {
        " ".join(heading.split())  # a citation may wrap across lines
        for path in Path(realityvote.__file__).parent.glob("*.py")
        for heading in re.findall(r'README\s+"([^"]+)"', path.read_text(encoding="utf-8"))
    }
    assert cited and sorted(cited - headings) == []


def test_readme_names_resolve():
    # Every backticked `module.name` in README exists in realityvote.<module>,
    # except the names README lists as removed from the public surface.
    removed = README.split("Removed from the public surface", 1)[1].split("\n## ", 1)[0]
    modules = {info.name for info in pkgutil.iter_modules(realityvote.__path__)}
    stale = {
        f"{module}.{name}"
        for module, name in _BACKTICKED.findall(README)
        if module in modules and not hasattr(importlib.import_module(f"realityvote.{module}"), name)
    }
    assert sorted(stale - {".".join(pair) for pair in _BACKTICKED.findall(removed)}) == []


SOURCES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(Path(realityvote.__file__).parent.glob("*.py"))
    if path.stem != "__init__"  # the package's imports are its exports
}


def _loaded_names(node):
    """Names a subtree reads, as bare names or as attributes (``mod.name``),
    string annotations included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
        annotation = getattr(sub, "annotation", None) or getattr(sub, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            yield from _loaded_names(ast.parse(annotation.value, mode="eval"))


def _defined_names(statement):
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_every_import_is_used(module):
    tree = SOURCES[module]
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for statement in ast.walk(tree)  # imports inside functions too
        if isinstance(statement, (ast.Import, ast.ImportFrom))
        and getattr(statement, "module", None) != "__future__"
        for alias in statement.names
    }
    assert sorted(imported - set(_loaded_names(tree))) == []


def test_every_private_module_name_has_a_reader():
    # A module-level private function, class or constant that no other
    # top-level statement of the package reads is dead code; tests and the
    # benchmark do not count as readers.
    statements = [
        (f"{module}.", statement, set(_loaded_names(statement)))
        for module, tree in SOURCES.items()
        for statement in tree.body
    ]
    unread = [
        prefix + name
        for prefix, statement, _ in statements
        for name in _defined_names(statement)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in read for _, other, read in statements if other is not statement)
    ]
    assert unread == []


def test_every_private_class_member_has_a_reader():
    # A method or property of a private class that nothing in the package
    # reads outside its own definition is dead code, as above.
    members = [
        (f"{module}.{cls.name}.{member.name}", member)
        for module, tree in SOURCES.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name.startswith("_")
        for member in cls.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("__")
    ]
    assert members
    reads = Counter(name for tree in SOURCES.values() for name in _loaded_names(tree))
    unread = [
        label for label, member in members
        if reads[member.name] == list(_loaded_names(member)).count(member.name)
    ]
    assert unread == []


def test_cli_reads_text_rationals_only_through_the_parser():
    # Text becomes a rational in one place, formats.parse_rational, so the
    # command line cannot accept forms a profile file rejects: cli.py builds
    # a Fraction from two arguments or from one int literal, never from a
    # string.
    def allowed(call):
        args = call.args
        if call.keywords or len(args) not in (1, 2):
            return False
        return len(args) == 2 or isinstance(args[0], ast.Constant) and type(args[0].value) is int

    calls = [
        node
        for node in ast.walk(SOURCES["cli"])
        if isinstance(node, ast.Call) and "Fraction" in _loaded_names(node.func)
    ]
    assert calls and [ast.unparse(call) for call in calls if not allowed(call)] == []


def _function(module, name):
    return next(
        node for node in ast.walk(SOURCES[module])
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


@pytest.mark.parametrize(
    "module, name",
    [("rules", name) for name in (
        "build_tally", "majority", "supermajority", "plurality", "condorcet_conservative",
        "issuewise_majority", "_scaled_threshold", "_cast_tally",
    )] + [("verifier", "_least_cost")],
)
def test_threshold_tallies_build_no_fraction(module, name):
    # The virtual mass is an int over re_tau's denominator and the threshold
    # rules compare cross-multiplied ints, so the functions that build or
    # read a tally for them make no Fraction: they never name the class,
    # never coerce a q, and never multiply re_tau itself (only its
    # numerator and denominator).  The median rules are exempt.
    def is_re_tau(node):
        return "re_tau" in (getattr(node, "id", None), getattr(node, "attr", None))

    function = _function(module, name)
    offending = [
        ast.unparse(node)
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and node.id == "Fraction"
        or isinstance(node, ast.Call) and "as_fraction" in _loaded_names(node.func)
        and "q" in _loaded_names(ast.Tuple(elts=node.args, ctx=ast.Load()))
        or isinstance(node, ast.BinOp) and (is_re_tau(node.left) or is_re_tau(node.right))
    ]
    assert offending == []


@pytest.mark.parametrize(
    "module, name",
    [("verifier", name) for name in ("min_alpha", "_least_safe_alpha", "_binary_outcome")]
    + [("montecarlo", "run_safety_whp")],
)
def test_binary_oracle_builds_no_count_table(module, name):
    # An anonymous binary rule's outcome is a function of the visible
    # proposal count and electorate, so the binary oracle runs on ints from
    # the shape to the answer: it builds no count table and merges none,
    # and the base side returns an int numerator over the honest count.
    function = _function(module, name)
    called = {
        called_name
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        for called_name in _loaded_names(node.func)
    }
    assert sorted(called & {"_binary_counts", "build_tally", "ballot_counts"}) == []
    if name == "_least_safe_alpha":
        assert "Fraction" not in set(_loaded_names(function))


@pytest.mark.parametrize("name", ["_alpha_star", "_beta_star", "_window", "_tau_for"])
def test_closed_forms_run_on_one_integer_unit(name):
    # Each closed form takes its parameters to ints over one common
    # denominator (guarantees._unit) and builds one Fraction per value it
    # returns, so no operator or comparison in it has a parameter for an
    # operand: that would be Fraction arithmetic, one normalised Fraction
    # per operator.
    parameters = {"sigma", "mu", "tau", "alpha"}

    def operands(node):
        if isinstance(node, ast.BinOp):
            return [node.left, node.right]
        if isinstance(node, ast.UnaryOp):
            return [node.operand]
        if isinstance(node, ast.Compare):
            return [node.left, *node.comparators]
        return []

    offending = [
        ast.unparse(node)
        for node in ast.walk(_function("guarantees", name))
        if any(isinstance(operand, ast.Name) and operand.id in parameters
               for operand in operands(node))
    ]
    assert offending == []


def _whp(trials):
    exp = montecarlo.Experiment(
        profile=binary_profile(active="p" * 6 + "r" * 14, sybil="p" * 5),
        mechanism=Mechanism("mj", participation="active"),
        base=Mechanism("mj"),
        alpha_prime=1,
        trials=trials,
        seed=3,
        n_plus=10,
    )
    return montecarlo.run_safety_whp(exp)


def _proxy(trials):
    exp = montecarlo.Experiment(
        profile=interval_profile(0, active=range(0, 40, 2), sybil=[60] * 4),
        mechanism=Mechanism("md", participation="proxy"),
        base=Mechanism("md"),
        alpha_prime=1,
        trials=trials,
        seed=3,
        n_plus=5,
    )
    return montecarlo.run_proxy_whp(exp, Fraction(1, 2))


def _hoeffding(trials):
    template = binary_profile(active="p" * 6 + "r" * 14)
    return montecarlo.hoeffding_diagnostic(template, 10, 0, trials, seed=3)


@pytest.mark.parametrize("run", [_whp, _proxy, _hoeffding], ids=lambda run: run.__name__[1:])
@pytest.mark.parametrize("trials", [1, 50])
def test_a_monte_carlo_call_builds_one_philox(run, trials, monkeypatch):
    # Philox is counter-based: one generator re-keyed per trial draws what a
    # fresh one would, so a call builds at most one, whatever its trial count.
    real = np.random.Philox
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    monkeypatch.setattr(montecarlo, "Philox", counting)  # imported by name
    assert run(trials).trials == trials
    assert len(built) <= 1


@pytest.mark.parametrize("module", ["verifier", "montecarlo", "cli"])
def test_only_rules_names_a_base_rule(module):
    # How a base rule evaluates, which ballots it takes and which closed
    # form it answers to is decided in rules (its rule table, RANKING_RULES,
    # closed_form); neither the oracle nor the command line compares a
    # mechanism's base with a rule name or a tuple of rule names.
    def is_names(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return bool(node.elts) and all(map(is_names, node.elts))
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    offending = [
        ast.unparse(node)
        for node in ast.walk(SOURCES[module])
        if isinstance(node, ast.Compare)
        for operands in [[node.left, *node.comparators]]
        if any(isinstance(o, ast.Attribute) and o.attr == "base" for o in operands)
        and any(map(is_names, operands))
    ]
    assert offending == []


def test_a_median_rule_runs_one_median_per_evaluation(monkeypatch):
    # md is som at tau 0, and suppressing nothing keeps the median: one
    # median_at per evaluation, in rules.apply and in each evaluation of the
    # verifier's interval walk alike.
    rules, verifier = realityvote.rules, realityvote.verifier
    calls = []

    def counting(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    monkeypatch.setattr(rules, "median_at", counting("median", rules.median_at))
    monkeypatch.setattr(rules, "suppressed_median_at",
                        counting("evaluate", rules.suppressed_median_at))
    md = Mechanism("md", re_tau=Fraction(1, 5))
    profile = interval_profile(0, active=(3, 5, 8, 9), passive=(-2, 7), sybil=(12,))
    assert rules.apply(md, profile) == 5
    assert calls == ["evaluate", "median"]
    calls.clear()
    reach = verifier.outcome_range(md, profile, Fraction(1, 2))
    assert (reach.budget, reach.lo, reach.hi) == (3, 0, 9)
    assert len(calls) > 20 and calls == ["evaluate", "median"] * (len(calls) // 2)


def _fresh_interpreter(code, *args):
    """Run code in a new interpreter that imports realityvote from where
    this session does; return the JSON its last output line holds."""
    env = dict(os.environ, PYTHONPATH=str(Path(realityvote.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


_LEAN_COMMANDS = """
import json, sys
from realityvote import cli
binary, interval = sys.argv[1:]
codes = [cli.main(argv) for argv in (
    ["eval", "--profile", binary, "--mechanism", "mj"],
    ["eval", "--profile", interval, "--mechanism", "md re:1/5 mode:proxy"],
    ["frontier", "--setting", "arbitrary", "--sigma-grid", "0,2/5", "--mu-grid", "0",
     "--tau-grid", "0,1/5", "--out", "-"],
    ["oracle", "--shape", "5,2/5,0", "--mechanism", "mj", "--base", "mj"],
)]
print(json.dumps([codes, "numpy" in sys.modules]))
"""


def test_commands_but_simulate_load_no_numpy(tmp_path):
    # Only the random-participation experiments draw; importing the package
    # and evaluating, sweeping the frontier or running the oracle do not
    # import numpy.
    binary, interval = tmp_path / "binary.json", tmp_path / "interval.json"
    binary.write_text(profile_to_json(binary_profile(active="rrp", passive="r", sybil="pp")))
    interval.write_text(profile_to_json(
        interval_profile(0, active=(3, 5, 8, 9), passive=(-2, 7), sybil=(12,))
    ))
    codes, numpy_loaded = _fresh_interpreter(_LEAN_COMMANDS, str(binary), str(interval))
    assert codes == [0, 0, 0, 0]
    assert not numpy_loaded


_DRAWS = """
import json, sys
from fractions import Fraction
from realityvote import DomainSpec, build_profile, proxy
from realityvote.population import VoterClass
lean = "numpy" not in sys.modules
voters = [(VoterClass.HONEST_ACTIVE, Fraction(x)) for x in (-2, 3, 5, 7, 8, 9)]
voters.append((VoterClass.SYBIL, Fraction(12)))
template = build_profile(DomainSpec.interval(Fraction(0)), voters)
drawn = proxy.sample_and_run(template, 3, Fraction(1, 5), 7)
from numpy.random import SeedSequence
same = drawn == proxy.sample_and_run(template, 3, Fraction(1, 5), SeedSequence(7))
print(json.dumps([lean, same]))
"""


def test_only_drawing_imports_numpy():
    # sample_and_run imports numpy when it draws, and an int seed names the
    # same stream as its SeedSequence.  montecarlo loads numpy.random with
    # itself, so a run's first draw does not.
    assert _fresh_interpreter(_DRAWS) == [True, True]
    code = "import json, sys, realityvote.montecarlo; print(json.dumps('numpy.random' in sys.modules))"
    assert _fresh_interpreter(code)
