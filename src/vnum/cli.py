"""Command-line surface: graph ingestion, dispatch, and stable JSON reports.

Commands:
    vnum compute <graph-file> [--all | --prime <S>] [--json] [--bounds-only] [--oracle]
    vnum cycle <n> [--verify | --bounds]
    vnum gb <graph-file> [--sigma <perm-file>]

Exit codes: 0 success, 2 parse error, 3 precondition violation,
4 resource exhaustion (a partial report is still emitted).

Environment: VNUM_MAX_POLYS (basis size cap, default 20000), VNUM_MAX_DEGREE
(degree cap, 40), VNUM_TIME_BUDGET_SECS (seconds per prime, 300) and
VNUM_JOBS (worker processes, 1).  Each must be a positive number, an integer
except for the time budget; any other value exits 2 with an error line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import __version__
from .errors import ConfigError, GraphFormatError, PreconditionError, ResourceLimitError
from .graphs import enumerate_min_cuts, is_connected, is_minimal_kcut, parse_graph
from .groebner import Limits
from .poly import poly_to_text
from .edgeideals import admissible_path_basis, vnumber, vnumber_at_prime
from .cycles import cycle_graph, global_bounds, verify_cycle

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4


@dataclass
class RunConfig:
    command: str
    graph_path: str | None = None
    cycle_n: int | None = None
    prime: str | None = None  # "all", "empty", or "1,3"
    as_json: bool = False
    bounds_only: bool = False
    oracle: bool = False
    verify: bool = True
    sigma_path: str | None = None
    limits: Limits = None
    jobs: int = 1


def settings_from_env(env=os.environ):
    """(Limits, jobs) from the VNUM_* variables; ConfigError on a bad value."""

    def positive(name, kind, default):
        text = env.get(name)
        if text is None:
            return default
        try:
            value = kind(text)
        except ValueError:
            value = 0
        if not value > 0:  # also rejects nan
            noun = "integer" if kind is int else "number"
            raise ConfigError(f"{name} must be a positive {noun}, got {text!r}")
        return value

    limits = Limits(
        max_polys=positive("VNUM_MAX_POLYS", int, 20000),
        max_degree=positive("VNUM_MAX_DEGREE", int, 40),
        time_budget_secs=positive("VNUM_TIME_BUDGET_SECS", float, 300.0),
    )
    return limits, positive("VNUM_JOBS", int, 1)


def _parse_prime(text, g):
    if text == "empty":
        return frozenset()
    try:
        verts = frozenset(int(p) for p in text.split(","))
    except ValueError:
        raise GraphFormatError(f"bad prime selector {text!r}; use 'empty' or e.g. '1,3'")
    if not verts <= g.vertices:
        raise PreconditionError(f"prime selector {sorted(verts)} outside 1..{g.n}")
    return verts


def _window_json(lo, hi):
    return {"lo": lo, "hi": hi}


def _prime_json(entry):
    return {
        "s": sorted(entry.s),
        "method": entry.method,
        "v": entry.v,
        "witness": poly_to_text(entry.witness) if entry.witness is not None else None,
        "window": _window_json(entry.window[0], entry.window[1]),
        "oracle_ok": entry.oracle_ok,
        "millis": entry.millis,
    }


def report_document(g, entries, global_v, argmin):
    """The stable report schema; key order is fixed by construction."""
    return {
        "version": __version__,
        "input": {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]},
        "primes": [_prime_json(e) for e in entries],
        "global": {"v": global_v, "argmin_s": sorted(argmin) if argmin is not None else None},
    }


def render_json(doc):
    return json.dumps(doc, indent=2) + "\n"


def render_table(doc, out):
    print(f"vnum {doc['version']}  n={doc['input']['n']}  edges={len(doc['input']['edges'])}", file=out)
    print(f"{'prime':<16} {'method':<14} {'v':>4}  {'window':<10} {'oracle':<7} witness", file=out)
    for p in doc["primes"]:
        s = "{" + ",".join(str(v) for v in p["s"]) + "}"
        window = f"[{p['window']['lo']},{p['window']['hi']}]"
        oracle = {None: "-", True: "ok", False: "MISMATCH"}[p["oracle_ok"]]
        v = "-" if p["v"] is None else p["v"]
        witness = p["witness"] or "-"
        print(f"{s:<16} {p['method']:<14} {v:>4}  {window:<10} {oracle:<7} {witness}", file=out)
    g = doc["global"]
    argmin = "-" if g["argmin_s"] is None else "{" + ",".join(str(v) for v in g["argmin_s"]) + "}"
    print(f"global v = {g['v']}  attained at {argmin}", file=out)


def _compute_entries(g, config):
    """Per-prime entries, optionally fanned out over a process pool."""
    if config.jobs <= 1:
        rep = vnumber(g, config.limits, with_oracle=config.oracle,
                      algebraic=not config.bounds_only)
        return rep.per_prime, rep.global_v, rep.argmin
    cuts = enumerate_min_cuts(g)
    # at most one worker per prime and per cpu; assembly order is the
    # deterministic prime order
    width = min(config.jobs, len(cuts), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=width) as pool:
        entries = list(
            pool.map(
                _single_prime_entry,
                [(g, rec.s, config.limits, config.oracle, config.bounds_only) for rec in cuts],
            )
        )
    known = [e for e in entries if e.v is not None]
    global_v = min((e.v for e in known), default=None)
    argmin = next((e.s for e in known if e.v == global_v), None)
    return entries, global_v, argmin


def _single_prime_entry(args):
    g, s, limits, oracle, bounds_only = args
    import time

    from .edgeideals import PrimeResult, _combinatorial_value, _window, oracle_vnumber_at_prime
    from .graphs import enumerate_min_cuts as _cuts

    rec = next(r for r in _cuts(g) if r.s == s)
    t0 = time.monotonic()
    comb = _combinatorial_value(g, rec)
    window = _window(g, rec, comb)
    v = witness = None
    status, detail = "ok", ""
    if bounds_only:
        v = comb
        method = "combinatorial"
    else:
        method = "algebraic"
        try:
            v, witness = vnumber_at_prime(g, s, limits)
        except ResourceLimitError as exc:
            status, detail = "resource-limit", str(exc)
    oracle_v = oracle_ok = None
    if oracle and status == "ok" and not bounds_only:
        try:
            oracle_v = oracle_vnumber_at_prime(g, s, limits)
            oracle_ok = oracle_v == v
        except ResourceLimitError as exc:
            status, detail = "resource-limit", str(exc)
    agree = comb == v if (comb is not None and v is not None) else None
    millis = int((time.monotonic() - t0) * 1000)
    return PrimeResult(s, method, v, witness, window, comb, agree, oracle_v, oracle_ok,
                       millis, status, detail)


def cmd_compute(config, out):
    with open(config.graph_path, encoding="utf-8") as fh:
        g = parse_graph(fh.read())
    if not is_connected(g):
        raise PreconditionError("input graph must be connected")
    if config.prime not in (None, "all"):
        s = _parse_prime(config.prime, g)
        # validate the selector before any heavy computation
        if s and not is_minimal_kcut(g, s)[0]:
            raise PreconditionError(f"{sorted(s)} does not index a minimal prime")
        entries = [_single_prime_entry((g, s, config.limits, config.oracle, config.bounds_only))]
        global_v = entries[0].v
        argmin = s if global_v is not None else None
    else:
        entries, global_v, argmin = _compute_entries(g, config)
    doc = report_document(g, entries, global_v, argmin)
    if config.as_json:
        out.write(render_json(doc))
    else:
        render_table(doc, out)
    if any(e.status != "ok" for e in entries):
        return EXIT_RESOURCE
    return EXIT_OK


def cmd_cycle(config, out):
    n = config.cycle_n
    if not config.verify:  # --bounds: pure arithmetic, no algebra
        lo, hi = global_bounds(n)
        doc = {
            "version": __version__,
            "input": {"n": n, "edges": [list(e) for e in sorted(cycle_graph(n).edges)]},
            "primes": [],
            "global": {"v": lo if lo == hi else None, "argmin_s": None},
            "window": _window_json(lo, hi),
        }
        if config.as_json:
            out.write(render_json(doc))
        else:
            print(f"v(C_{n}) window: [{lo}, {hi}]" + ("  (exact)" if lo == hi else ""), file=out)
        return EXIT_OK
    rep = verify_cycle(n, config.limits, with_oracle=config.oracle)
    doc = report_document(cycle_graph(n), rep.report.per_prime, rep.global_v, rep.report.argmin)
    if config.as_json:
        out.write(render_json(doc))
    else:
        render_table(doc, out)
        for check in rep.primes:
            s = "{" + ",".join(str(v) for v in sorted(check.s)) + "}"
            lo, hi, exact = check.window
            print(
                f"  window check {s:<14} [{lo},{hi}]"
                f" in_window={check.in_window} gb={check.gb_check}",
                file=out,
            )
        if rep.global_window is not None:
            print(
                f"  global window [{rep.global_window[0]},{rep.global_window[1]}]"
                f" satisfied={rep.global_in_window} resolved={rep.resolved_value}",
                file=out,
            )
    if any(c.status != "ok" for c in rep.primes):
        return EXIT_RESOURCE
    return EXIT_OK


def cmd_gb(config, out):
    with open(config.graph_path, encoding="utf-8") as fh:
        g = parse_graph(fh.read())
    sigma = None
    if config.sigma_path:
        with open(config.sigma_path, encoding="utf-8") as fh:
            parts = fh.read().split()
        try:
            sigma = [int(p) for p in parts]
        except ValueError:
            raise GraphFormatError("permutation file must hold integers")
        if sorted(sigma) != list(range(1, g.n + 1)):
            raise GraphFormatError(f"permutation file must list 1..{g.n} once each")
    gb = admissible_path_basis(g, sigma)
    for p in gb.generators:
        print(poly_to_text(p), file=out)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="vnum", description=__doc__)
    parser.add_argument("--version", action="version", version=f"vnum {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="v-numbers of a graph from a file")
    pc.add_argument("graph_file")
    sel = pc.add_mutually_exclusive_group()
    sel.add_argument("--all", action="store_true", help="all minimal primes (default)")
    sel.add_argument("--prime", help="one prime: 'empty' or comma-separated vertices")
    pc.add_argument("--json", action="store_true")
    pc.add_argument("--bounds-only", action="store_true",
                    help="combinatorial values and windows only; no Groebner engine")
    pc.add_argument("--oracle", action="store_true",
                    help="cross-check each prime against the intersection oracle")

    py = sub.add_parser("cycle", help="verify or bound the cycle graph C_n")
    py.add_argument("n", type=int)
    mode = py.add_mutually_exclusive_group()
    mode.add_argument("--verify", action="store_true", help="full run (default)")
    mode.add_argument("--bounds", action="store_true", help="window only, no algebra")
    py.add_argument("--json", action="store_true")
    py.add_argument("--oracle", action="store_true")

    pg = sub.add_parser("gb", help="print the admissible-path Groebner basis")
    pg.add_argument("graph_file")
    pg.add_argument("--sigma", help="file with n space-separated permutation images")
    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching our parse-error code
        return int(exc.code or 0)
    try:
        limits, jobs = settings_from_env()
        config = RunConfig(command=ns.command, limits=limits, jobs=jobs)
        if ns.command == "compute":
            config.graph_path = ns.graph_file
            config.prime = ns.prime if ns.prime else "all"
            config.as_json = ns.json
            config.bounds_only = ns.bounds_only
            config.oracle = ns.oracle
            return cmd_compute(config, out)
        if ns.command == "cycle":
            config.cycle_n = ns.n
            config.verify = not ns.bounds
            config.as_json = ns.json
            config.oracle = ns.oracle
            return cmd_cycle(config, out)
        config.graph_path = ns.graph_file
        config.sigma_path = ns.sigma
        return cmd_gb(config, out)
    except (GraphFormatError, ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
