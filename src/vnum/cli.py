"""Command-line surface: graph ingestion, dispatch, and stable JSON reports.

Commands:
    vnum compute <graph-file> [--all | --prime <S>] [--json] [--bounds-only] [--oracle]
    vnum cycle <n> [--verify | --bounds]
    vnum gb <graph-file> [--sigma <perm-file>]

Exit codes: 0 success, 2 parse error, 3 precondition violation,
4 resource exhaustion, 5 a failed check: routes that disagree (the
pipeline against a domination formula or the oracle), a v outside its
window, and for `vnum cycle` a failed combined basis check or a global
value outside the global window; after 4 and 5 the full report is still
emitted, and 5 wins over 4.  A --bounds-only run never exits 5 but can
exit 4, as its searches run under the time budget.  The cut enumeration
runs first, under a time budget of its own; when that runs out, compute
exits 4 with an error line and no report.

Environment: VNUM_MAX_POLYS (basis size cap, default 20000), VNUM_MAX_DEGREE
(degree cap, 40), VNUM_TIME_BUDGET_SECS (seconds per prime, cut enumeration
or gb run, 300) and
VNUM_JOBS (worker processes for compute and cycle, 1).  Each must be a
positive number, an integer except for the time budget; any other value
exits 2 with an error line.  A prime's one time budget covers its
domination and window searches, the pipeline, the certificate and the
oracle.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .errors import ConfigError, GraphFormatError, Limits, PreconditionError, ResourceLimitError
from .graphs import is_connected, parse_graph
from .poly import poly_to_text
from .edgeideals import GraphWork, admissible_path_basis, global_minimum, prime_entry, vnumber
from .cycles import cycle_graph, global_bounds, verify_cycle

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4
EXIT_DISAGREE = 5


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


def _outside_window(v, window):
    """v lies outside its window; False while either is unknown (a window
    is (None, None) until its search ends)."""
    lo, hi = window
    return v is not None and lo is not None and not lo <= v <= hi


def _exit_code(entries):
    """5 when a route disagrees or a v lies outside its window, else 4 when
    a prime hit a limit, else 0.  The window's upper end is the paper's
    bound, and its lower end a proven one, so a v outside it is a bug."""
    if any(e.agree is False or e.oracle_ok is False or _outside_window(e.v, e.window)
           for e in entries):
        return EXIT_DISAGREE
    if any(e.status != "ok" for e in entries):
        return EXIT_RESOURCE
    return EXIT_OK


def cmd_compute(ns, limits, jobs, out):
    with open(ns.graph_file, encoding="utf-8") as fh:
        g = parse_graph(fh.read())
    if not is_connected(g):
        raise PreconditionError("input graph must be connected")
    algebraic = not ns.bounds_only
    if ns.prime and ns.prime != "all":  # an empty --prime or --prime all acts as --all
        s = _parse_prime(ns.prime, g)
        work = GraphWork.of(g, limits.start_clock())
        entries = [prime_entry(work.record(s), g, work, limits, ns.oracle, algebraic)]
        global_v, argmin = global_minimum(entries)
    else:
        rep = vnumber(g, limits, ns.oracle, algebraic, jobs)
        entries, global_v, argmin = rep.per_prime, rep.global_v, rep.argmin
    doc = report_document(g, entries, global_v, argmin)
    if ns.json:
        out.write(render_json(doc))
    else:
        render_table(doc, out)
    return _exit_code(entries)


def cmd_cycle(ns, limits, jobs, out):
    n = ns.n
    if ns.bounds:  # pure arithmetic, no algebra
        lo, hi = global_bounds(n)
        doc = report_document(cycle_graph(n), [], lo if lo == hi else None, None)
        doc["window"] = _window_json(lo, hi)
        if ns.json:
            out.write(render_json(doc))
        else:
            print(f"v(C_{n}) window: [{lo}, {hi}]" + ("  (exact)" if lo == hi else ""), file=out)
        return EXIT_OK
    rep = verify_cycle(n, limits, with_oracle=ns.oracle, jobs=jobs)
    doc = report_document(cycle_graph(n), rep.report.per_prime, rep.global_v, rep.report.argmin)
    if ns.json:
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
    return _cycle_exit_code(rep)


def _cycle_exit_code(rep):
    """_exit_code of a verify_cycle report, whose entries carry the interval
    windows, so a prime with in_window=False exits 5; so does a failed
    combined basis check or a global value outside the global window."""
    if rep.global_in_window is False or any(c.gb_check == "fail" for c in rep.primes):
        return EXIT_DISAGREE
    return _exit_code(rep.report.per_prime)


def cmd_gb(ns, limits, jobs, out):
    with open(ns.graph_file, encoding="utf-8") as fh:
        g = parse_graph(fh.read())
    sigma = None
    if ns.sigma:
        with open(ns.sigma, encoding="utf-8") as fh:
            parts = fh.read().split()
        try:
            sigma = [int(p) for p in parts]
        except ValueError:
            raise GraphFormatError("permutation file must hold integers")
        if sorted(sigma) != list(range(1, g.n + 1)):
            raise GraphFormatError(f"permutation file must list 1..{g.n} once each")
    gb = admissible_path_basis(g, sigma, limits.start_clock())
    for p in gb.generators:
        print(poly_to_text(p), file=out)
    return EXIT_OK


@functools.cache
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
        command = {"compute": cmd_compute, "cycle": cmd_cycle, "gb": cmd_gb}[ns.command]
        return command(ns, limits, jobs, out)
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
