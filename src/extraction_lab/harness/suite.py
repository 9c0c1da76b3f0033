"""Suite execution and report emission.

A suite config is JSON of the form

    {"checks": [{"id": "...", "params": {...}, "seed": 7}],
     "name": "..."}

where ``name`` is optional (a config file's stem by default) and no other
top-level key is accepted.  Per-check seeds default to a value derived
from the global seed and the check's position, so one --seed reproduces
the whole run.  The JSON
report contains only deterministic fields (identical config + seed gives
byte-identical files); wall-clock timings go to the CSV report only.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path

from .checks import resolve_entry, run_checks
from .params import resolved

SCHEMA_VERSION = 1

SUITES: dict[str, dict] = {
    "quick": {
        "checks": [
            {"id": "b1-exhaustive-flat",
             "params": {"ns": [3], "ms": [1], "families": ["field"], "sides": ["trivial"]}},
            {"id": "parseval-random", "params": {"count": 20}},
            {"id": "bound-ordering", "params": {"count": 200}},
        ],
    },
    "paper-table-1": {
        "checks": [
            {"id": "b1-exhaustive-flat",
             "params": {"ns": [3], "ms": [1, 2], "families": ["field", "shift"],
                        "sides": ["trivial", "classical_leak"]}},
            {"id": "b1-quantum-product", "params": {"count": 40, "n_max": 4}},
            {"id": "b8-weak-quantum", "params": {"count": 20, "n_max": 4}},
            {"id": "b2-markov", "params": {"count": 24, "n_max": 3}},
            {"id": "markov-cmi", "params": {"count": 30}},
            {"id": "ip-classical", "params": {"ns": [2, 3]}},
            {"id": "measured-xor-random", "params": {"count": 150}},
            {"id": "useful-prop-random", "params": {"count": 150}},
            {"id": "bound-ordering", "params": {"count": 2000}},
        ],
    },
    "full": {
        "checks": [
            {"id": "parseval-random", "params": {"count": 100}},
            {"id": "b1-exhaustive-flat",
             "params": {"ns": [3, 4], "ms": [1, 2], "families": ["field", "shift"],
                        "sides": ["trivial", "classical_leak"]}},
            {"id": "b1-quantum-product", "params": {"count": 200, "n_max": 5}},
            {"id": "b8-weak-quantum", "params": {"count": 50}},
            {"id": "b2-markov", "params": {"count": 40, "n_max": 8}},
            {"id": "markov-cmi", "params": {"count": 100}},
            {"id": "ip-classical", "params": {"ns": [2, 3, 4]}},
            {"id": "measured-xor-random", "params": {"count": 1000}},
            {"id": "useful-prop-random", "params": {"count": 1000}},
            {"id": "pgm-commutation", "params": {"count": 200}},
            {"id": "hmin-linear-drop", "params": {}},
            {"id": "hmin-le-h2", "params": {"count": 500}},
            {"id": "one-two-norm", "params": {"count": 500}},
            {"id": "bound-ordering", "params": {"count": 10000}},
        ],
    },
}

SUITE_NAMES = tuple(sorted(SUITES))
# The order of a suite's rows.
_ROW_ORDER = attrgetter("check_id", "scenario", "bound_id")


def load_config(suite: str) -> dict:
    """Resolve a suite name or JSON config path to a validated config dict.

    Entries are checked with :func:`resolve_entry` but kept as given: an
    entry without a seed takes one derived from the suite seed.
    """
    if suite in SUITES:
        where, given, name = f"suite {suite!r}", SUITES[suite], suite
    else:
        path = Path(suite)
        if not path.exists():
            raise ValueError(f"unknown suite {suite!r} and no such config file; "
                             f"built-in suites: {', '.join(SUITE_NAMES)}")
        try:
            given = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
        where, name = f"config {path}", path.stem
    config = resolved(where, given, {"checks": ({},), "name": name}, required=("checks",))
    for entry in config["checks"]:
        resolve_entry(entry)
    return config


@dataclass(frozen=True)
class SuiteResult:
    """A suite's rows, sorted by (check_id, scenario, bound_id), and what follows from them."""

    name: str
    seed: int
    reports: list
    summary: dict = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "summary", _summarize(self.reports))

    @property
    def all_pass(self) -> bool:
        return self.summary["n_failed"] == 0


def run_suite(config: dict, seed: int = 0, jobs: int = 1) -> SuiteResult:
    """Run every check of ``config`` by one :func:`run_checks`, which pools the
    min-entropy solves of all of them.

    ``jobs`` selects nothing: it is accepted, and refused below 1 or when
    not an ``int``, only because perfbench's worker still passes it, until
    ROADMAP item 1 deletes it with the worker's argument.
    """
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    reports = run_checks([{"id": entry["id"], "params": entry.get("params", {}),
                           "seed": entry.get("seed", (seed * 1000003 + pos) & 0x7FFFFFFF)}
                          for pos, entry in enumerate(config["checks"])])
    reports.sort(key=_ROW_ORDER)
    return SuiteResult(name=config.get("name", "custom"), seed=seed, reports=reports)


def _summarize(reports) -> dict:
    """Row counts and worst ratios.

    ``n_solver_rows`` counts rows carrying a solver convergence flag
    (``converged``, ``converged1``, ``converged2``) and ``n_unconverged``
    those with any such flag false.  The rows of a case share their flags
    dict, which is read once a case.
    """
    ratios: dict[str, float] = {}
    failed = solved = unconverged = 0
    flags = object()
    for r in reports:
        failed += not r.passed
        if r.bound_epsilon > 0:
            # max(worst, ratio), spelled out: the ratio replaces the worst iff it is greater
            ratio, worst = r.measured_delta / r.bound_epsilon, ratios.get(r.bound_id, 0.0)
            ratios[r.bound_id] = ratio if ratio > worst else worst
        if r.flags is not flags:
            flags = r.flags
            converged = [v for k, v in flags.items()
                         if isinstance(k, str) and k.startswith("converged")]
            flagged, diverged = bool(converged), not all(converged)
        if flagged:
            solved += 1
            unconverged += diverged
    return {
        "n_reports": len(reports),
        "n_failed": failed,
        "n_solver_rows": solved,
        "n_unconverged": unconverged,
        "max_ratio_by_bound": {k: ratios[k] for k in sorted(ratios)},
    }


# The stdlib lays out the envelope; the rows, nearly all of the text, are
# formatted here, because json.dumps drops its C encoder once ``indent`` is
# set.  A row has one fixed shape: eight sorted keys, two of them flat dicts.
_ROW = ('    {\n      "bound_epsilon": %s,\n      "bound_id": %s,\n      "check_id": %s,\n'
        '      "flags": %s,\n      "measured_delta": %s,\n      "params": %s,\n'
        '      "pass": %s,\n      "scenario": %s\n    }')
_NEXT_ROW = ",\n" + _ROW
_NO_ROWS = '\n  "reports": [],'
_INF = float("inf")
_REPR = float.__repr__


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return _REPR(x)


_SPELLINGS = {str: encode_basestring_ascii, int: int.__repr__, float: _float,
              bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _scalar(value) -> str:
    """``value`` spelled as json.dumps spells it; TypeError for a non-scalar."""
    spell = _SPELLINGS.get(type(value))
    if spell is None:
        # subclasses, tested in the stdlib's order (bool and None have none)
        base = next((b for b in (str, int, float) if isinstance(value, b)), None)
        if base is None:
            raise TypeError(f"report values must be JSON scalars, got {type(value).__name__}")
        spell = _SPELLINGS[base]
    return spell(value)


def _flat_object(indent: int | None = None):
    """A function that spells a dict of str keys and scalar values as
    ``json.dumps(obj, sort_keys=True)`` lays it out: on one line, or, given
    ``indent``, in the ``indent=2`` layout with its closing brace ``indent``
    spaces in.

    Each key is spelled once, into a cache that lives as long as the
    function, which a renderer makes once per call.  An exact ``int`` or
    finite ``float`` is spelled directly; any other value by :func:`_scalar`.
    """
    keys: dict = {}
    if indent is None:
        first, between, last = "{", ", ", "}"
    else:
        pad = "\n" + " " * (indent + 2)
        first, between, last = "{" + pad, "," + pad, "\n" + " " * indent + "}"

    def key(k) -> str:
        text = keys[k] = encode_basestring_ascii(k) + ": "
        return text

    def spell(obj: dict) -> str:
        if not obj:
            return "{}"
        return first + between.join([
            (keys.get(k) or key(k))
            + (_REPR(v) if type(v) is float and v - v == 0
               else int.__repr__(v) if type(v) is int else _scalar(v))
            for k, v in sorted(obj.items())]) + last
    return spell


def _row_texts(reports):
    """Each row as json.dumps lays it out in the report, every row after the
    first led by its ``,\\n`` separator.

    The rows of one case share their check id, params and flags dicts and
    scenario, and sit next to each other after the sort, so each of them is
    spelled once a case.  A finite ``float`` is spelled directly, any other
    number by :func:`_scalar`.
    """
    row = _ROW
    flat = _flat_object(6)
    check_id = params = flags = scenario = object()
    for r in reports:
        if r.check_id is not check_id:
            check_id = r.check_id
            check_text = _scalar(check_id)
        if r.params is not params:
            params = r.params
            params_text = flat(params)
        if r.flags is not flags:
            flags = r.flags
            flags_text = flat(flags)
        if r.scenario is not scenario:
            scenario = r.scenario
            scenario_text = _scalar(scenario)
        epsilon, measured = r.bound_epsilon, r.measured_delta
        yield row % (_REPR(epsilon) if type(epsilon) is float and epsilon - epsilon == 0
                     else _scalar(epsilon),
                     _scalar(r.bound_id), check_text, flags_text,
                     _REPR(measured) if type(measured) is float and measured - measured == 0
                     else _scalar(measured),
                     params_text, "true" if r.passed else "false", scenario_text)
        row = _NEXT_ROW


def _json_pieces(result: SuiteResult):
    """report.json in order as pieces: the envelope up to ``"reports": [``,
    each row, and the rest of the envelope; an empty report is one piece.

    The envelope is one ``json.dumps`` call: the document with no rows,
    split where its empty list stands.
    """
    head = json.dumps({
        "schema_version": SCHEMA_VERSION,
        "suite": result.name,
        "seed": result.seed,
        "all_pass": result.all_pass,
        "summary": result.summary,
        "reports": [],
    }, indent=2, sort_keys=True)
    if not result.reports:
        yield head + "\n"
        return
    before, _, after = head.partition(_NO_ROWS)
    yield before + '\n  "reports": [\n'
    yield from _row_texts(result.reports)
    yield "\n  ]," + after + "\n"


def render_json(result: SuiteResult) -> str:
    """The report, byte for byte ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``.

    Row params and flags must be dicts of str keys and JSON scalars: any
    other row value raises TypeError.  The text is joined once from
    :func:`_json_pieces`, which :func:`write_reports` streams instead.
    """
    return "".join(_json_pieces(result))


CSV_COLUMNS = ["check_id", "bound_id", "n", "m", "r", "k1", "k2",
               "measured_delta", "bound_epsilon", "pass", "runtime_ms",
               "scenario", "flags"]
# Python 3.10 to 3.12's CSV writer leaves a lone "\r" unquoted under lineterminator="\n".
_CSV_QUOTES_CR = sys.version_info >= (3, 13)


def _csv_cell(value) -> str:
    """``value`` as the stdlib's CSV writer writes a cell under QUOTE_MINIMAL with
    ``lineterminator="\\n"``: None empty and anything else by ``str``, so a
    ``numpy.float64`` as a number; then quoted, its ``"`` doubled, if it holds
    ``,``, ``"`` or ``\\n``.  A ``\\r`` is quoted only from Python 3.13 on,
    as the stdlib's writer quotes it (``_CSV_QUOTES_CR``)."""
    text = value if type(value) is str else "" if value is None else str(value)
    if '"' in text:
        return '"' + text.replace('"', '""') + '"'
    if "," in text or "\n" in text or (_CSV_QUOTES_CR and "\r" in text):
        return '"' + text + '"'
    return text


def _csv_k(value) -> str:
    """A ``k1``/``k2`` cell: a float, ``numpy.float64`` included, by ``float.__repr__`` as
    report.json spells a finite one; anything else (``None`` for a missing key) by ``repr``."""
    return _csv_cell(_REPR(value) if isinstance(value, float) else repr(value))


def _csv_lines(reports):
    """The CSV report line by line: the header of ``CSV_COLUMNS``, then one line
    per row, each ending in ``\\n``.

    A case's cells (check id, n, m, r, k1, k2, scenario, flags) are spelled
    once a case, as :func:`_row_texts` spells its JSON; a row spells its
    bound id, its two numbers by ``repr``, its verdict and ``runtime_ms``.
    """
    yield ",".join(CSV_COLUMNS) + "\n"
    flat = _flat_object()
    check_id = params = flags = scenario = object()
    for r in reports:
        if r.check_id is not check_id:
            check_id = r.check_id
            check_cell = _csv_cell(check_id)
        if r.params is not params:
            params = r.params
            params_cells = ",".join([_csv_cell(params.get("n")), _csv_cell(params.get("m")),
                                     _csv_cell(params.get("r")), _csv_k(params.get("k1")),
                                     _csv_k(params.get("k2"))])
        if r.scenario is not scenario or r.flags is not flags:
            scenario, flags = r.scenario, r.flags
            case_tail = f"{_csv_cell(scenario)},{_csv_cell(flat(flags))}\n"
        measured, epsilon = r.measured_delta, r.bound_epsilon
        yield (f"{check_cell},{_csv_cell(r.bound_id)},{params_cells},"
               f"{_REPR(measured) if type(measured) is float else _csv_cell(repr(measured))},"
               f"{_REPR(epsilon) if type(epsilon) is float else _csv_cell(repr(epsilon))},"
               f"{r.passed},{r.runtime_ms:.3f},{case_tail}")


def render_csv(result: SuiteResult) -> str:
    """The CSV report, joined once from :func:`_csv_lines`, which
    :func:`write_reports` streams instead."""
    return "".join(_csv_lines(result.reports))


def write_reports(result: SuiteResult, out_dir) -> tuple[Path, Path]:
    """Write ``report.json`` and ``report.csv`` into ``out_dir``, made if missing.

    Each file holds the bytes that ``Path.write_text`` would write of
    :func:`render_json` and :func:`render_csv`, but neither report is ever
    held as one string: each is streamed, piece by piece or row by row, into
    a temporary file beside its target.  Both targets are replaced only once
    both files are complete, so a row the renderers refuse (TypeError)
    leaves the previous reports as they were and no temporary file behind.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = out / "report.json", out / "report.csv"
    temps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    try:
        # Path.open's defaults are Path.write_text's: the locale's encoding,
        # and "\n" written as os.linesep.
        with temps[0].open("w") as f:
            f.writelines(_json_pieces(result))
        with temps[1].open("w") as f:
            f.writelines(_csv_lines(result.reports))
        for temp, path in zip(temps, paths):
            temp.replace(path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)
    return paths
