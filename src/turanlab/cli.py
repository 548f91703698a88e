"""Command line front end: construct, check, solve, scan, bound, report.

Every run is described by a JobSpec (command, flat parameter map, output
path, seed) and is reproducible from it.  Results go to --output or stdout;
the last line on stderr is always a single-line JSON status record.

Exit codes: 0 success, 1 invariant violation, 2 malformed invocation,
3 size cap exceeded.  An unexpected exception is an internal error, not a
malformed invocation: its traceback goes to stderr, then the status
``{"status": "internal-error", "error": "<Type>: <message>", ...}``, and it
exits 1.

Pattern grammar (--pattern and friends):

    K{s,t}        complete bipartite core with part sizes s and t
    C<2k>         even cycle, e.g. C4, C6, C8
    theta{a,b,c}  two terminals joined by three disjoint paths of the
                  given lengths
    grid2x2       the 3x3-vertex grid of four unit squares
    @path.json    bipartite core loaded from a graph JSON file

Any form may carry a trailing ``+`` for the 3-graph expansion (one fresh
apex per core edge) and an optional placement word: ``ordered`` maps core
parts onto host parts in order; ``core-in-V1`` pins an expansion's core
pairs inside the left part.  Examples: ``C6``, ``K{2,3}+``,
``K{2,2}+ ordered``, ``@core.json+ core-in-V1``.  A core of more than
``patterns.MAX_PATTERN_VERTICES`` (64) vertices exits 3 before it is
built.

Graph JSON schema (construct output and pattern files):
``{"kind": "graph"|"bipartite"|"3graph"|"semibipartite3", "n": int`` (plus
``"m"`` for the two-part kinds), ``"edges": [[...], ...]}`` with edges
sorted ascending; files are canonical single-line JSON, so re-serializing
a parsed file reproduces its bytes.  ``hypergraph.from_json_dict`` is the
one validating reader: a malformed file exits 2 with the field named.
``--format graph6`` (plain graphs only) emits the standard graph6 encoding
instead.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .constructions import (
    bipartite_norm_graph,
    composed_construction,
    norm_graph,
    random_deletion_lower_bound,
)
from .errors import CapExceededError, InvariantViolationError
from .harness import read_csv, scan_grid, write_csv
from .hypergraph import Graph, dumps_canonical, to_graph6
from .patterns import parse_pattern
from .solvers import BOUND_IDS, eval_bound, ex_exact, z_exact, z_expansion_exact
from .suites import DEFAULTS as SUITE_DEFAULTS, PARAMS as SUITE_PARAMS, SUITES, run_suite

COMMANDS = ("construct", "check", "solve", "scan", "bound", "report")

_PARAM_KEYS = {
    "construct": {"kind", "q", "s", "p", "s1", "s2", "n", "pattern", "layer", "format"},
    "check": {"suite", *SUITE_PARAMS},
    "solve": {"quantity", "n", "m", "patterns", "host_kind", "degree_floor",
              "ordered_pattern", "core_pattern"},
    "scan": {"patterns", "ns", "alphas", "host_kind"},
    "bound": {"bound_id", "sets"},
    "report": {"inputs"},
}


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to reproduce one CLI run."""

    command: str
    params: dict = field(default_factory=dict)
    output: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command: {self.command!r}")
        unknown = set(self.params) - _PARAM_KEYS[self.command]
        if unknown:
            raise ValueError(f"unknown parameters for {self.command}: {sorted(unknown)}")


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _emit_json(obj: dict, output: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n", output)


def _serialize_host(obj, fmt: str) -> str:
    if fmt == "graph6":
        if not isinstance(obj, Graph):
            raise ValueError("graph6 export applies to plain graphs only")
        return to_graph6(obj) + "\n"
    return dumps_canonical(obj) + "\n"


# -- construct --


def _cmd_construct(spec: JobSpec) -> tuple[int, dict]:
    p = spec.params
    kind = p["kind"]
    fmt = p.get("format", "json")
    extra: dict = {"kind": kind}
    if kind == "normgraph":
        obj = norm_graph(p["q"], p["s"])
    elif kind == "bipartite":
        obj = bipartite_norm_graph(p["q"], p["s"])
    elif kind == "composed":
        c = composed_construction(p["p"], p["s1"], p["s2"])
        layer = p.get("layer", "hypergraph")
        try:
            obj = {"hypergraph": c.hypergraph, "v1": c.v1_layer, "cross": c.cross_layer}[layer]
        except KeyError:
            raise ValueError(f"unknown layer: {layer!r}") from None
        extra["layer"] = layer
        extra["side"] = c.n
    elif kind == "deletion":
        pat = parse_pattern(p["pattern"])
        res = random_deletion_lower_bound(p["n"], pat, seed=spec.seed)
        obj = res.graph
        extra.update(
            probability=res.probability,
            initial_edges=res.initial_edges,
            copies_found=res.copies_found,
            edges_deleted=res.edges_deleted,
        )
    else:
        raise ValueError(f"unknown construction: {kind!r}")
    _emit(_serialize_host(obj, fmt), spec.output)
    extra["edges"] = obj.edge_count
    return 0, extra


# -- check --


def _cmd_check(spec: JobSpec) -> tuple[int, dict]:
    suite = spec.params["suite"]
    violations, details = run_suite(suite, spec.params, spec.seed)
    details["suite"] = suite
    details["violations"] = violations
    if spec.output is not None:
        _emit_json(details, spec.output)
    return (1 if violations else 0), details


# -- solve / scan / bound / report --


def _cmd_solve(spec: JobSpec) -> tuple[int, dict]:
    p = spec.params
    quantity = p["quantity"]
    if quantity == "ex":
        specs = [parse_pattern(t) for t in p["patterns"]]
        result = ex_exact(
            p["n"],
            specs,
            host_kind=p.get("host_kind", "graph"),
            degree_floor=p.get("degree_floor"),
        )
    elif quantity == "z":
        specs = [parse_pattern(t) for t in p["patterns"]]
        result = z_exact(p["m"], p["n"], specs)
    elif quantity == "zexp":
        ordered = parse_pattern(p["ordered_pattern"]).with_placement("ordered")
        core = parse_pattern(p["core_pattern"]).with_placement("core-in-V1")
        result = z_expansion_exact(p["m"], p["n"], ordered, core)
    else:
        raise ValueError(f"unknown quantity: {quantity!r}")
    _emit_json(result.to_json_dict(), spec.output)
    return 0, {"quantity": quantity, "value": result.value, "nodes": result.nodes_explored}


def _cmd_scan(spec: JobSpec) -> tuple[int, dict]:
    p = spec.params
    specs = [parse_pattern(t) for t in p["patterns"]]
    host_kind = p.get("host_kind", "graph")
    alphas = []
    for a in p["alphas"]:
        try:
            alphas.append(Fraction(a))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"--alpha needs a number such as 1, 0.5 or 2/3, got {a!r}") from None
    rows = [r.to_csv_row() for r in scan_grid(specs, p["ns"], alphas, host_kind)]
    write_csv(rows, sys.stdout if spec.output is None else spec.output)
    return 0, {"cells": len(rows)}


def _cmd_bound(spec: JobSpec) -> tuple[int, dict]:
    p = spec.params
    params = {}
    for item in p["sets"]:
        key, _, value = item.partition("=")
        if not _ or not key:
            raise ValueError(f"expected key=value, got {item!r}")
        if key in params:
            raise ValueError(f"parameter {key!r} is set more than once")
        try:
            params[key] = int(value)
        except ValueError:
            raise ValueError(f"parameter {key!r} needs an integer, got {value!r}") from None
    cert = eval_bound(p["bound_id"], params)
    _emit_json(cert.to_json_dict(), spec.output)
    return 0, {"bound_id": cert.bound_id, "value": float(cert.value)}


def _cmd_report(spec: JobSpec) -> tuple[int, dict]:
    rows = [row for path in spec.params["inputs"] for row in read_csv(path)]
    columns = list(dict.fromkeys(key for row in rows for key in row))
    if not rows:
        raise ValueError("no rows in the input files")
    merged = [{c: row.get(c, "") for c in columns} for row in rows]
    write_csv(merged, sys.stdout if spec.output is None else spec.output)
    return 0, {"rows": len(merged), "columns": len(columns)}


_DISPATCH = {
    "construct": _cmd_construct,
    "check": _cmd_check,
    "solve": _cmd_solve,
    "scan": _cmd_scan,
    "bound": _cmd_bound,
    "report": _cmd_report,
}


def dispatch(spec: JobSpec) -> tuple[int, dict]:
    """Run one job; returns (exit code, status extras)."""
    return _DISPATCH[spec.command](spec)


# -- argument parsing --


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turanlab",
        description="Construct, check, and solve small extremal-graph instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, **defaults):
        # a flag left out stays out of the namespace, so job_from_args can
        # tell a typed flag from an absent one; it applies these defaults
        sp = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        sp.set_defaults(flag_defaults={"output": None, "seed": 0, **defaults})
        sp.add_argument("-o", "--output", help="output path (default stdout)")
        sp.add_argument("--seed", type=int, help="random seed (default 0)")
        return sp

    sp = command("construct", "build a named construction", layer="hypergraph", format="json")
    sp.add_argument("kind", choices=("normgraph", "bipartite", "composed", "deletion"))
    sp.add_argument("--q", type=int)
    sp.add_argument("--s", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--s1", type=int)
    sp.add_argument("--s2", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--pattern")
    sp.add_argument("--layer", choices=("hypergraph", "v1", "cross"))
    sp.add_argument("--format", choices=("json", "graph6"))

    sp = command("check", "run a named invariant suite", **SUITE_DEFAULTS)
    sp.add_argument("suite", choices=tuple(SUITES))
    for key in SUITE_PARAMS:
        sp.add_argument(f"--{key}", type=int)

    sp = command("solve", "exact optimum for a host family", pattern=[], host_kind="graph")
    sp.add_argument("quantity", choices=("ex", "z", "zexp"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int)
    sp.add_argument("--pattern", action="append")
    sp.add_argument("--host-kind", choices=("graph", "3graph"))
    sp.add_argument("--degree-floor", type=int)
    sp.add_argument("--ordered-pattern")
    sp.add_argument("--core-pattern")

    sp = command("scan", "degree-floor scans to CSV", host_kind="graph")
    sp.add_argument("--pattern", action="append", required=True)
    sp.add_argument("--n", type=int, action="append", required=True)
    sp.add_argument("--alpha", action="append", required=True,
                    help="density parameter, e.g. 1, 0.5, or 2/3 (repeatable)")
    sp.add_argument("--host-kind", choices=("graph", "3graph"))

    sp = command("bound", "evaluate a certified upper-bound formula", set=[])
    sp.add_argument("bound_id", choices=BOUND_IDS)
    sp.add_argument("--set", action="append", metavar="KEY=VALUE")

    sp = command("report", "merge CSV reports into one table")
    sp.add_argument("inputs", nargs="+")

    return parser


def _require(args, names: tuple[str, ...]) -> None:
    missing = [k for k in names if getattr(args, k, None) is None]
    if missing:
        raise ValueError(f"missing required flags: {', '.join('--' + m for m in missing)}")


class _ReadFlags:
    """Parsed flags that remember which ones were read.  A flag left off the
    command line reads as its default, or None without one."""

    def __init__(self, args: argparse.Namespace):
        self._args = args
        self.read = {"command", "flag_defaults"}

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._args, name, self._args.flag_defaults.get(name))


def job_from_args(args: argparse.Namespace) -> JobSpec:
    """The job a parsed command line asks for.

    A flag typed on the command line that the command, kind, quantity or
    suite does not read is a malformed invocation, not a silent no-op, even
    when it is typed at its default value.
    """
    flags = _ReadFlags(args)
    cmd = flags.command
    seeded = False
    if cmd == "construct":
        if flags.kind in ("normgraph", "bipartite"):
            _require(flags, ("q", "s"))
            params = {"kind": flags.kind, "q": flags.q, "s": flags.s}
        elif flags.kind == "composed":
            _require(flags, ("p", "s1", "s2"))
            params = {"kind": flags.kind, "p": flags.p, "s1": flags.s1, "s2": flags.s2,
                      "layer": flags.layer}
        else:
            _require(flags, ("n", "pattern"))
            params = {"kind": flags.kind, "n": flags.n, "pattern": flags.pattern}
            seeded = True
        params["format"] = flags.format
    elif cmd == "check":
        keys = SUITES[flags.suite].params
        _require(flags, keys)
        params = {"suite": flags.suite, **{k: getattr(flags, k) for k in keys}}
        seeded = SUITES[flags.suite].seeded
    elif cmd == "solve":
        if flags.quantity == "zexp":
            _require(flags, ("m", "ordered_pattern", "core_pattern"))
            params = {"quantity": "zexp", "m": flags.m, "n": flags.n,
                      "ordered_pattern": flags.ordered_pattern,
                      "core_pattern": flags.core_pattern}
        else:
            if not flags.pattern:
                raise ValueError("missing required flags: --pattern")
            params = {"quantity": flags.quantity, "n": flags.n, "patterns": list(flags.pattern)}
            if flags.quantity == "ex":
                params["host_kind"] = flags.host_kind
                if flags.degree_floor is not None:
                    params["degree_floor"] = flags.degree_floor
            else:
                _require(flags, ("m",))
                params["m"] = flags.m
    elif cmd == "scan":
        params = {"patterns": list(flags.pattern), "ns": list(flags.n),
                  "alphas": list(flags.alpha), "host_kind": flags.host_kind}
    elif cmd == "bound":
        params = {"bound_id": flags.bound_id, "sets": list(getattr(flags, "set"))}
    else:
        params = {"inputs": list(flags.inputs)}
    seed = flags.seed if seeded else 0
    output = flags.output
    unread = [k for k in vars(args) if k not in flags.read]
    if unread:
        job = [str(getattr(args, k)) for k in ("command", "kind", "suite", "quantity") if k in args]
        names = ", ".join("--" + k.replace("_", "-") for k in unread)
        raise ValueError(f"{' '.join(job)} does not use {names}")
    return JobSpec(cmd, params, output, seed)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
        _status({"command": None, "status": "ok" if code == 0 else "error", "exit": code})
        return code
    command = args.command
    try:
        spec = job_from_args(args)
        code, extras = dispatch(spec)
    except CapExceededError as e:
        _status({"command": command, "status": "error", "error": str(e), "exit": 3})
        return 3
    except InvariantViolationError as e:
        _status({"command": command, "status": "violation", "error": str(e), "exit": 1})
        return 1
    except (ValueError, OSError) as e:
        _status({"command": command, "status": "error", "error": str(e), "exit": 2})
        return 2
    except Exception as e:
        traceback.print_exc()
        _status({"command": command, "status": "internal-error",
                 "error": f"{type(e).__name__}: {e}", "exit": 1})
        return 1
    status = {"command": command, "exit": code,
              "status": "ok" if code == 0 else "violation"}
    status.update(extras)
    _status(status)
    return code


def _status(d: dict) -> None:
    sys.stderr.write(json.dumps(d, sort_keys=True, separators=(",", ":"), default=str) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
