"""Interchange formats: the profile JSON document and the frontier CSV.

Rationals travel as 'p/q' strings, never floats; the JSON canonicalization
(sorted keys, compact separators) makes parse/serialize round-trips
byte-identical.  ``profile_from_json`` checks each distinct entry in full
once (README "How a profile is counted").
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import DegenerateParams, InvalidBallot
from .guarantees import Setting, _reports
from .population import (
    Ballot,
    DomainSpec,
    Profile,
    VoterClass,
    _assemble,
    _checked_entry,
    format_rational,
)

PROFILE_FORMAT = "realityvote/profile/v1"
FRONTIER_SCHEMA_VERSIONS = (1,)

_TAG_TO_CLASS = {cls.value: cls for cls in VoterClass}
_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # [0-9]: ASCII digits only
_INT = re.compile(r"-?[0-9]+")


def _domain_to_json(domain: DomainSpec) -> dict:
    if domain.kind == "binary":
        return {"kind": "binary", "r": domain.status_quo, "p": domain.proposal}
    if domain.kind == "categorical":
        return {
            "kind": "categorical",
            "alternatives": list(domain.alternatives),
            "r": domain.status_quo,
        }
    if domain.kind == "hypercube":
        return {
            "kind": "hypercube",
            "d": domain.dimension,
            "r": list(domain.status_quo_point),
        }
    return {"kind": "interval", "r": format_rational(domain.status_quo_position)}


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise InvalidBallot(message)


def _label(raw) -> str:
    _require(isinstance(raw, str), f"alternatives are strings, not {raw!r}")
    return raw


def _point(raw) -> Tuple[int, ...]:
    # DomainSpec checks the coordinates
    _require(isinstance(raw, list), f"hypercube points are lists, not {raw!r}")
    return tuple(raw)


def parse_rational(text: str) -> Fraction:
    """The one text form of a rational, in files and on the command line: 'p' or 'p/q'."""
    match = _RATIO.fullmatch(text) if isinstance(text, str) else None
    denominator = int(match[2] or 1) if match else 0
    if not denominator:  # not _require: its message would be formatted on every call
        raise InvalidBallot(f"rationals are exact 'p/q' strings, not {text!r}")
    return Fraction(int(match[1])) if denominator == 1 else Fraction(int(match[1]), denominator)


def parse_int(text: str) -> int:
    """The one text form of an integer on the command line: ASCII '-?[0-9]+'."""
    _require(_INT.fullmatch(text) is not None, f"integers are '-?[0-9]+' strings, not {text!r}")
    return int(text)


def _position(raw) -> Fraction:
    if type(raw) is int:  # not bool
        return Fraction(raw)
    return parse_rational(raw)


def _domain_from_json(doc: dict) -> DomainSpec:
    kind = doc.get("kind")
    if kind == "binary":
        return DomainSpec.binary(status_quo=_label(doc["r"]), proposal=_label(doc["p"]))
    if kind == "categorical":
        alternatives = doc["alternatives"]
        _require(isinstance(alternatives, list), "categorical alternatives are a list")
        return DomainSpec.categorical([_label(a) for a in alternatives], _label(doc["r"]))
    if kind == "hypercube":
        return DomainSpec.hypercube(doc["d"], _point(doc["r"]))
    if kind == "interval":
        return DomainSpec.interval(_position(doc["r"]))
    raise InvalidBallot(f"unknown domain kind {kind!r}")


def _ballot_to_json(domain: DomainSpec, ballot: Optional[Ballot]):
    if ballot is None:
        return None
    if domain.kind == "interval":
        return format_rational(ballot)
    if isinstance(ballot, tuple):  # a hypercube point or a ranking
        return list(ballot)
    return ballot


def _ballot_from_json(domain: DomainSpec, raw) -> Optional[Ballot]:
    if raw is None:
        return None
    if domain.kind == "interval":
        return _position(raw)
    if domain.kind == "hypercube":
        return _point(raw)
    if isinstance(raw, list):  # ranking
        return tuple(_label(a) for a in raw)
    return raw


def profile_to_json(profile: Profile) -> str:
    """Canonical JSON for a profile: stable key order, no whitespace."""
    doc = {
        "format": PROFILE_FORMAT,
        "domain": _domain_to_json(profile.domain),
        "voters": [
            {"class": cls.value, "ballot": _ballot_to_json(profile.domain, ballot)}
            for cls, ballot in profile.voters
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def profile_from_json(text: str) -> Profile:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise InvalidBallot(f"profile file is not valid JSON: {exc}") from None
    ok = isinstance(doc, dict) and isinstance(doc.get("domain"), dict)
    ok = ok and isinstance(doc.get("voters"), list)
    _require(ok, "profile file needs a 'domain' object and a 'voters' list")
    if doc.get("format", PROFILE_FORMAT) != PROFILE_FORMAT:
        raise InvalidBallot(f"unknown profile format {doc['format']!r}")
    try:
        domain = _domain_from_json(doc["domain"])
    except KeyError as exc:
        raise InvalidBallot(f"the domain lacks the {exc} field") from None
    index = {}  # (class tag, ballot string or None) -> entry number
    parsed = {}  # ballot string -> its ballot, in any class
    entries, numbers = [], []
    on_line = domain.kind == "interval"  # where a parsed string is a valid ballot as it is
    read = parse_rational if on_line else lambda raw: _ballot_from_json(domain, raw)
    for voter in doc["voters"]:
        try:  # a known entry costs one lookup
            key = voter["class"], voter["ballot"]
            number = index.get(key)
        except (KeyError, TypeError):  # not an object, a field missing, or a list
            key = number = None
        if key is None:  # the full checks
            if not isinstance(voter, dict):
                raise InvalidBallot(f"a voter entry must be an object, not {voter!r}")
            key = voter.get("class"), voter.get("ballot")
            try:
                number = index.get(key)
            except TypeError:  # a list: rankings and points are entries of their own
                number = None
        if number is None:  # a new entry, checked in full before the next voter
            tag, raw = key
            cls = _TAG_TO_CLASS.get(tag) if isinstance(tag, str) else None
            if cls is None:
                raise InvalidBallot(f"unknown voter class {tag!r}")
            if type(raw) is not str:
                entry = _checked_entry(domain, cls, _ballot_from_json(domain, raw))
            else:  # each string is parsed once, in any class
                ballot = parsed.get(raw)
                if ballot is None:
                    ballot = parsed[raw] = read(raw)
                entry = (cls, ballot) if on_line else _checked_entry(domain, cls, ballot)
            number = len(entries)
            entries.append(entry)
            if raw is None or type(raw) is str:  # only text is shared: 1 == True
                index[key] = number
        numbers.append(number)
    return _assemble(domain, entries, numbers)


# ---------------------------------------------------------------------------
# Frontier CSV.

FRONTIER_COLUMNS = [
    "setting",
    "sigma",
    "sigma_dec",
    "mu",
    "mu_dec",
    "tau",
    "tau_dec",
    "alpha_star",
    "alpha_star_dec",
    "beta_star",
    "beta_star_dec",
    "feasible",
    "tau_lo",
    "tau_lo_dec",
    "tau_hi",
    "tau_hi_dec",
    "error",
]


def _dec(value: Optional[Fraction]) -> str:
    return "" if value is None else f"{float(value):.6g}"


def _rat(value: Optional[Fraction]) -> str:
    return "" if value is None else format_rational(value)


def frontier_rows(
    setting: Setting,
    sigma_grid: Sequence[Fraction],
    mu_grid: Sequence[Fraction],
    tau_grid: Sequence[Fraction],
) -> Iterable[List[str]]:
    """One row per grid point, lexicographic in (sigma, mu, tau).  A negative
    value on any grid is an error before the first row; points with
    sigma + mu >= 1 come back with the error sentinel instead of thresholds."""
    def cells(grid):  # each grid value formatted once per call
        return [(value, value.as_integer_ratio(), _rat(value), _dec(value)) for value in grid]

    sigmas, mus, taus = cells(sigma_grid), cells(mu_grid), cells(tau_grid)
    if any(value < 0 for value, *_ in sigmas + mus):
        raise DegenerateParams("sigma and mu must lie in [0, 1)")
    if any(value < 0 for value, *_ in taus):
        raise DegenerateParams("tau must be nonnegative")
    for sigma, (a, b), *sigma_cells in sigmas:
        for mu, (c, d), *mu_cells in mus:
            base = [setting.value, *sigma_cells, *mu_cells]
            if a * d + c * b >= b * d or not taus:  # sigma + mu >= 1
                for _, _, *tau_cells in taus:
                    yield base + tau_cells + [""] * 9 + ["degenerate"]
                continue
            reports = _reports(setting, sigma, mu, [tau for tau, *_ in taus])
            lo, hi = reports[0].feasible_tau or (None, None)  # one window per (sigma, mu)
            window_cells = ["0" if lo is None else "1", _rat(lo), _dec(lo), _rat(hi), _dec(hi)]
            for (_, _, *tau_cells), rep in zip(taus, reports):
                alpha, beta = rep.alpha_star, rep.beta_star
                yield base + tau_cells + [
                    _rat(alpha), _dec(alpha), _rat(beta), _dec(beta), *window_cells, ""
                ]


def write_frontier_csv(
    setting: Setting,
    sigma_grid: Sequence[Fraction],
    mu_grid: Sequence[Fraction],
    tau_grid: Sequence[Fraction],
    schema_version: int = 1,
) -> str:
    if schema_version not in FRONTIER_SCHEMA_VERSIONS:
        raise InvalidBallot(f"unknown frontier schema version {schema_version}")
    buffer = io.StringIO()
    buffer.write(f"# realityvote-frontier-v{schema_version}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(FRONTIER_COLUMNS)
    writer.writerows(frontier_rows(setting, sigma_grid, mu_grid, tau_grid))
    return buffer.getvalue()


def parse_rational_list(raw: str) -> Tuple[Fraction, ...]:
    """Comma-separated exact rationals, e.g. '0,1/20,1/10': every piece,
    empty or spaced ones included, is one parse_rational."""
    return tuple(parse_rational(piece) for piece in raw.split(","))
