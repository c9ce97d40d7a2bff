#!/usr/bin/env python3
"""End-to-end benchmark of vnum, with an optional per-layer traced run.

Run from the repository root:

    python3 bench/run.py --workload {cycle6,corpus5,bounds9} --seed N \\
        --seconds S --trace {0,1}

Each run is one fresh, single-threaded Python process.  It imports vnum from
./src, makes the workload's inputs from the seed, then repeats whole rounds
of the workload until S seconds have passed (at least one round).  A round
calls vnum's public entry points once per input graph; one graph's report
is one operation, and each operation is timed on its own.  Around every
operation, outside the timed region, the run times a fixed pure-Python loop,
the speed reference, and every time metric but setup_s is scaled towards
the speed at which that loop takes REF_NOMINAL_S (see `SpeedReference`).
After each round, also outside the timed region, every report is checked
against the reference computations in checkers.py, which import nothing
from vnum.

With --trace 0 the run installs no wrapper and reports the end-to-end
metrics.  With --trace 1 it alternates an untraced round with a round traced
by layers.Tracer, reports the per-layer metrics of the traced rounds and the
tracing overhead, and writes the spans to bench/out/.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 11

# The speed reference (see SpeedReference): a loop of REF_LOOPS steps, timed
# at least REF_MIN_REPS times and for at least REF_SHARE of the operation
# just timed, or REF_WARMUP_S before the first one.  Times are scaled towards
# the speed at which the loop takes REF_NOMINAL_S, by the ratio of the two
# speeds raised to REF_ELASTICITY: vnum's time moves by only part of the
# loop's, 0.46 of it in cycle6 and 0.72 in bounds9 (bench/README.md).
REF_LOOPS = 50_000
REF_MIN_REPS = 3
REF_SHARE = 0.03
REF_WARMUP_S = 0.5
REF_NOMINAL_S = 0.005
REF_ELASTICITY = 0.5

# bounds9: the base graphs are drawn once from this fixed seed, and --seed
# draws a vertex relabelling of each.  Edge counts run from trees (8 edges)
# to half of K_9 (18 of 36), two graphs per count.
BOUNDS9_BASE_SEED = 9
BOUNDS9_EDGE_COUNTS = (8, 9, 10, 11, 12, 14, 16, 18)
BOUNDS9_PER_COUNT = 2

import checkers  # noqa: E402  (beside this file)
import layers  # noqa: E402


def import_vnum():
    """vnum from ./src of this checkout, never an installed copy."""
    sys.path.insert(0, SRC)
    try:
        import vnum
        import vnum.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import vnum from {SRC}: {exc}")
    if not os.path.abspath(vnum.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: vnum was imported from {vnum.__file__}, not from {SRC}")
    return vnum


def write_graph(workdir, name, g):
    path = os.path.join(workdir, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(checkers.graph_text(g))
    return path


def random_connected(rng, n, m):
    """A connected graph on 1..n with m edges: a random spanning tree plus
    m - (n - 1) further random edges."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    rest = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in edges]
    rng.shuffle(rest)
    return checkers.make_graph(n, sorted(edges) + rest[: m - (n - 1)])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Cycle6:
    """verify_cycle(6) through the library: one graph, 12 primes."""

    n = 6

    def __init__(self, vnum, seed, workdir):
        self.vnum = vnum
        self.graph = checkers.cycle(self.n)
        self.windows = {s: checkers.cycle_window(self.n, s) for s in checkers.minimal_cuts(self.graph)}

    def operations(self):
        return [lambda: self.vnum.verify_cycle(self.n)]

    def check(self, outputs):
        """({(operation, cut): millis}, one Verdict per operation)."""
        millis, verdicts = {}, []
        for i, rep in enumerate(outputs):
            entries = rep.report.per_prime
            millis.update(((i, tuple(sorted(e.s))), e.millis) for e in entries)
            doc = {
                "primes": [
                    {"s": sorted(e.s), "v": e.v, "window": {"lo": e.window[0], "hi": e.window[1]},
                     "oracle_ok": e.oracle_ok}
                    for e in entries
                ],
                "global": {"v": rep.global_v,
                           "argmin_s": None if rep.report.argmin is None else sorted(rep.report.argmin)},
            }
            verdict = checkers.check_report(
                self.graph, doc, algebraic=True, paper_windows=self.windows,
                paper_global=checkers.cycle_global_value(self.n),
            )
            for c in rep.primes:
                s = tuple(sorted(c.s))
                if c.window[:2] != self.windows[s]:
                    verdict.errors.append(f"window at {s} is {c.window[:2]}, the paper gives {self.windows[s]}")
                if c.status != "ok" or c.in_window is not True or c.gb_check not in ("pass", "skipped"):
                    verdict.errors.append(f"prime {s}: status {c.status}, in_window {c.in_window}, gb {c.gb_check}")
            if rep.global_in_window is not True:
                verdict.errors.append("global value outside the global window")
            verdicts.append(verdict)
        return millis, verdicts


class CliWorkload:
    """`vnum compute <file> ...` on each input graph, run in process through
    vnum.cli.main with an output buffer."""

    flags = ()
    algebraic = True
    oracle = False

    def __init__(self, vnum, seed, workdir):
        self.main = vnum.cli.main
        self.inputs = [(write_graph(workdir, name, g), g) for name, g in self.graphs(seed)]

    def operations(self):
        return [functools.partial(self.compute, path) for path, _ in self.inputs]

    def compute(self, path):
        buf = io.StringIO()
        code = self.main(["compute", path, "--all", "--json", *self.flags], out=buf)
        return code, buf.getvalue()

    def check_options(self, g):
        return {}

    def check(self, outputs):
        millis, verdicts = {}, []
        for i, ((code, text), (_, g)) in enumerate(zip(outputs, self.inputs)):
            if code != 0:
                verdicts.append(checkers.Verdict([f"vnum exited {code}"], []))
                continue
            doc = json.loads(text)
            millis.update(((i, tuple(p["s"])), p["millis"]) for p in doc["primes"])
            verdicts.append(checkers.check_report(
                g, doc, algebraic=self.algebraic, oracle=self.oracle, **self.check_options(g)))
        return millis, verdicts


class Corpus5(CliWorkload):
    """The 30 connected graphs on 2-5 vertices, one per isomorphism class,
    with the intersection oracle on."""

    flags = ("--oracle",)
    oracle = True

    def graphs(self, seed):
        return [(f"g{i:02d}_n{g.n}", g) for i, g in enumerate(checkers.corpus(2, 5))]


class Bounds9(CliWorkload):
    """Bounds-only reports for C_9 and for 16 random connected graphs on 9
    vertices.  The seed relabels the random graphs; their isomorphism
    classes, and so the work and the failed share, stay fixed."""

    flags = ("--bounds-only",)
    algebraic = False

    def graphs(self, seed):
        base_rng = random.Random(BOUNDS9_BASE_SEED)
        base = [
            random_connected(base_rng, 9, m)
            for m in BOUNDS9_EDGE_COUNTS for _ in range(BOUNDS9_PER_COUNT)
        ]
        rng = random.Random(seed)
        out = [("c9", checkers.cycle(9))]
        for i, g in enumerate(base):
            perm = list(range(1, 10))
            rng.shuffle(perm)
            out.append((f"r{i:02d}_m{len(g.edges)}", checkers.relabel(g, perm)))
        return out

    def check_options(self, g):
        if g == checkers.cycle(9):
            return {
                "paper_windows": {s: checkers.cycle_window(9, s) for s in checkers.minimal_cuts(g)},
                "paper_global": checkers.cycle_global_value(9),
            }
        return {}


WORKLOADS = {"cycle6": Cycle6, "corpus5": Corpus5, "bounds9": Bounds9}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def setup(args):
    vnum = import_vnum()
    workdir = os.path.join(OUT_DIR, "inputs", f"{args.workload}-seed{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[args.workload](vnum, args.seed, workdir)


def setup_seconds(args):
    """Median time from spawning a fresh interpreter to the point where a
    run would make its first timed call, over SETUP_PROBES processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples), samples


class SpeedReference:
    """The machine's speed, measured between operations with a fixed loop.

    The speed of a shared virtual machine drifts, by up to 1.5x in phases of
    seconds to minutes, and a run's medians follow the drift.  The loop
    speeds up and slows down with it, and vnum's code cannot change it.  It
    makes no containers, so it never sets off the cyclic garbage collector
    with garbage that vnum left behind.  A point is the median time of the
    loop over a number of runs; it is measured after every operation, and
    once before the first, which also warms the loop up.
    """

    def __init__(self):
        self.last = self.measure(REF_WARMUP_S)

    @staticmethod
    def measure(budget_s):
        samples = []
        start = time.perf_counter()
        while len(samples) < REF_MIN_REPS or time.perf_counter() - start < budget_s:
            t0 = time.perf_counter()
            acc = 0
            for i in range(REF_LOOPS):
                acc += i * i % 7
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    def scale_after(self, op_seconds):
        """The scale of an operation that took op_seconds and has just
        ended: REF_NOMINAL_S over the mean of the points before and after
        it, raised to REF_ELASTICITY."""
        before, self.last = self.last, self.measure(REF_SHARE * op_seconds)
        return (2 * REF_NOMINAL_S / (before + self.last)) ** REF_ELASTICITY


def timed_round(workload, reference):
    """Run one round, timing each operation on its own.  Returns (seconds
    per operation, scale per operation, outputs)."""
    seconds, scales, outputs = [], [], []
    for op in workload.operations():
        t0 = time.perf_counter()
        outputs.append(op())
        seconds.append(time.perf_counter() - t0)
        scales.append(reference.scale_after(seconds[-1]))
    return seconds, scales, outputs


def scaled_wall(seconds, scales):
    return sum(t * k for t, k in zip(seconds, scales))


def prime_seconds(rounds):
    """(p50, max) of the scaled per-prime times.  `rounds` holds one
    ({(operation, cut): millis}, scales) pair per round.

    A report's millis is the time truncated to whole milliseconds, so k
    stands for the middle of [k, k + 1) ms.  p50 is the median over primes
    of each prime's mean across rounds, which keeps every round's sample.
    max is the largest of each prime's median across rounds, so that one
    slow round of one prime does not set it.
    """
    per_key = {}
    for millis, scales in rounds:
        for (op, cut), ms in millis.items():
            per_key.setdefault((op, cut), []).append((ms + 0.5) / 1000 * scales[op])
    p50 = statistics.median(statistics.fmean(v) for v in per_key.values())
    return p50, max(statistics.median(v) for v in per_key.values())


def run(args):
    workload = setup(args)
    setup_s, setup_samples = setup_seconds(args)
    rounds, traced_rounds, tracers = [], [], []
    prime_rounds, verdicts = [], []
    reference = SpeedReference()
    start = time.perf_counter()
    # whole rounds (with --trace 1, an untraced and a traced round) while
    # another one still fits in the run's seconds; at least one
    while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= args.seconds:
        seconds, scales, outputs = timed_round(workload, reference)
        rounds.append((seconds, scales))
        millis, v = workload.check(outputs)
        prime_rounds.append((millis, scales))
        verdicts += v
        if args.trace:
            tracer = layers.Tracer().install()
            try:
                seconds, scales, outputs = timed_round(workload, reference)
            finally:
                tracer.uninstall()
            tracers.append(tracer)
            traced_rounds.append((seconds, scales))
            verdicts += workload.check(outputs)[1]

    walls = [scaled_wall(*r) for r in rounds]
    raw_walls = [sum(seconds) for seconds, _ in rounds]
    errors = [e for v in verdicts for e in v.errors]
    failed = sum(1 for v in verdicts if v.bound_faults)
    if args.trace:
        metrics = layers.summary(tracers, walls, [scaled_wall(*r) for r in traced_rounds])
    else:
        p50, slowest = prime_seconds(prime_rounds)
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup_s, "s"),
            "prime_s_p50": (p50, "s"),
            "prime_s_max": (slowest, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": not errors,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "round_walls_s": walls, "raw_round_walls_s": raw_walls,
        "rounds": [{"seconds": t, "scales": k} for t, k in rounds],
        "traced_rounds": [{"seconds": t, "scales": k} for t, k in traced_rounds],
        "setup_samples_s": setup_samples,
        "prime_millis": [[[i, list(s), ms] for (i, s), ms in r.items()] for r, _ in prime_rounds],
        "errors": errors, "bound_faults": sorted({f for v in verdicts for f in v.bound_faults}),
        "result": result,
    }
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({"rounds": [t.dump() for t in tracers]}, fh)

    for e in errors[:10]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} rounds={len(walls)} attempted={len(verdicts)} failed={failed}"
          f" raw_wall_s={statistics.median(raw_walls):.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the monotonic clock, and exit (used for setup_s)")
    args = parser.parse_args(argv)
    # the benchmark measures vnum's defaults: serial, default limits
    for key in [k for k in os.environ if k.startswith("VNUM_")]:
        del os.environ[key]
    if args.setup_probe:
        setup(args)
        print(time.monotonic())
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
