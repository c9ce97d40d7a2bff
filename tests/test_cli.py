"""Command-line surface: dispatch, report schema, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys

import pytest

from vnum.cli import (
    EXIT_DISAGREE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_RESOURCE,
    main,
    settings_from_env,
)


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.txt"
    p.write_text("n 4\n1 2\n2 3\n3 4\n1 4\n")
    return str(p)


@pytest.fixture
def p4_file(tmp_path):
    p = tmp_path / "p4.txt"
    p.write_text("# path on four vertices\nn 4\n1 2\n2 3\n3 4\n")
    return str(p)


def run_main(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_compute_c4_json(c4_file):
    code, text = run_main(["compute", c4_file, "--all", "--json"])
    assert code == EXIT_OK
    doc = json.loads(text)
    assert list(doc) == ["version", "input", "primes", "global"]
    assert doc["input"]["n"] == 4
    assert doc["global"]["v"] == 2
    assert [p["s"] for p in doc["primes"]] == [[], [1, 3], [2, 4]]
    for p in doc["primes"]:
        assert list(p) == ["s", "method", "v", "witness", "window", "oracle_ok", "millis"]
        assert p["v"] == 2


def test_compute_prime_selector(c4_file):
    code, text = run_main(["compute", c4_file, "--prime", "1,3", "--json"])
    assert code == EXIT_OK
    doc = json.loads(text)
    assert len(doc["primes"]) == 1
    assert doc["primes"][0]["s"] == [1, 3]
    assert doc["primes"][0]["witness"] == "x2*y4 - x4*y2"
    code, _ = run_main(["compute", c4_file, "--prime", "empty", "--json"])
    assert code == EXIT_OK


def test_compute_bad_prime_is_precondition_error(c4_file):
    code, _ = run_main(["compute", c4_file, "--prime", "1,2"])
    assert code == EXIT_PRECONDITION
    code, _ = run_main(["compute", c4_file, "--prime", "9"])
    assert code == EXIT_PRECONDITION


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("n 3\n1 5\n")
    code, _ = run_main(["compute", str(bad)])
    assert code == EXIT_PARSE
    code, _ = run_main(["compute", str(tmp_path / "missing.txt")])
    assert code == EXIT_PARSE


def _patch_engine_to_explode(monkeypatch):
    # _nf_terms and _gm_update sit under every division and basis step and
    # are looked up through module globals, so this catches any engine use
    # regardless of where the public functions were imported
    import vnum.groebner

    def boom(*a, **k):
        raise AssertionError("this code path must not reach the Groebner engine")

    monkeypatch.setattr(vnum.groebner, "_nf_terms", boom)
    monkeypatch.setattr(vnum.groebner, "_gm_update", boom)


def test_bounds_only_never_runs_groebner(p4_file, monkeypatch):
    _patch_engine_to_explode(monkeypatch)
    code, text = run_main(["compute", p4_file, "--bounds-only", "--json"])
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["global"]["v"] == 2
    assert all(p["method"] == "combinatorial" for p in doc["primes"])
    # even combined with --oracle the combinatorial path stays engine-free
    code, _ = run_main(["compute", p4_file, "--bounds-only", "--oracle", "--json"])
    assert code == EXIT_OK


def test_compute_oracle_flag(p4_file):
    code, text = run_main(["compute", p4_file, "--oracle", "--json"])
    assert code == EXIT_OK
    doc = json.loads(text)
    assert all(p["oracle_ok"] is True for p in doc["primes"])


def test_report_roundtrip_byte_identical(c4_file):
    code, text = run_main(["compute", c4_file, "--json"])
    assert code == EXIT_OK
    doc = json.loads(text)
    assert json.dumps(doc, indent=2) + "\n" == text


def test_reports_deterministic_across_runs(c4_file):
    def strip_millis(doc):
        for p in doc["primes"]:
            p.pop("millis")
        return doc

    _, a = run_main(["compute", c4_file, "--json"])
    _, b = run_main(["compute", c4_file, "--json"])
    assert strip_millis(json.loads(a)) == strip_millis(json.loads(b))


def test_cycle_bounds_no_algebra(monkeypatch):
    _patch_engine_to_explode(monkeypatch)
    code, text = run_main(["cycle", "9", "--bounds"])
    assert code == EXIT_OK
    assert "[6, 6]" in text


def test_cycle_verify_table():
    code, text = run_main(["cycle", "4", "--verify"])
    assert code == EXIT_OK
    assert "global v = 2" in text
    assert "in_window=True" in text


def test_cycle_verify_json():
    code, text = run_main(["cycle", "4", "--json"])
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["global"]["v"] == 2


def test_gb_command(c4_file):
    code, text = run_main(["gb", c4_file])
    assert code == EXIT_OK
    lines = text.strip().splitlines()
    assert len(lines) == 6
    assert "x1*y2 - x2*y1" in lines


def test_gb_with_sigma(c4_file, tmp_path):
    perm = tmp_path / "perm.txt"
    perm.write_text("2 3 4 1\n")
    code, text = run_main(["gb", c4_file, "--sigma", str(perm)])
    assert code == EXIT_OK
    assert len(text.strip().splitlines()) >= 4
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1 2 3\n")
    code, _ = run_main(["gb", c4_file, "--sigma", str(bad)])
    assert code == EXIT_PARSE


def test_gb_runs_under_the_time_budget(tmp_path, monkeypatch, capsys):
    c6 = tmp_path / "c6.txt"
    c6.write_text("n 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n")
    monkeypatch.setenv("VNUM_TIME_BUDGET_SECS", "1e-9")
    code, text = run_main(["gb", str(c6)])
    assert code == EXIT_RESOURCE
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: time budget exceeded") and "Traceback" not in err


GRID_EDGES = [(i, i + 1) for i in range(1, 19) if i % 6] + [(i, i + 6) for i in range(1, 13)]
GRID_CUT = frozenset({2, 5, 8, 11, 15, 16})


def grid_file(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("n 18\n" + "".join(f"{u} {v}\n" for u, v in GRID_EDGES))
    return grid


def test_bounds_only_searches_run_under_the_time_budget(tmp_path, monkeypatch):
    """The transversal search at the cut {2,5,8,11,15,16} of the 3 x 6 grid
    takes seconds; under a 5 ms budget it stops with an empty window, and
    the bounds-only run exits 4.  The cuts are enumerated beforehand, as
    their enumeration (about 0.1 s) would use up that budget by itself."""
    import vnum.edgeideals
    from vnum.graphs import Graph, enumerate_min_cuts

    cuts = enumerate_min_cuts(Graph.make(18, GRID_EDGES))
    monkeypatch.setattr(vnum.edgeideals, "enumerate_min_cuts", lambda g, limits: cuts)
    grid = grid_file(tmp_path)
    monkeypatch.setenv("VNUM_TIME_BUDGET_SECS", "0.005")
    code, text = run_main(
        ["compute", str(grid), "--prime", "2,5,8,11,15,16", "--bounds-only", "--json"])
    assert code == EXIT_RESOURCE
    (entry,) = json.loads(text)["primes"]
    assert entry["v"] is None and entry["window"] == {"lo": None, "hi": None}


def test_cut_enumeration_runs_under_the_time_budget(tmp_path, monkeypatch, capsys):
    """The grid's 2,203 cuts are enumerated under a clock of their own,
    before any prime's: when it runs out, compute exits 4 with an error
    line and no report."""
    from vnum.errors import Limits, ResourceLimitError
    from vnum.graphs import Graph, enumerate_min_cuts

    with pytest.raises(ResourceLimitError):
        enumerate_min_cuts(Graph.make(18, GRID_EDGES), Limits(time_budget_secs=0.0).start_clock())
    grid = grid_file(tmp_path)
    monkeypatch.setenv("VNUM_TIME_BUDGET_SECS", "1e-9")
    for argv in (["--bounds-only"], ["--prime", "2,5,8,11,15,16", "--bounds-only"]):
        code, text = run_main(["compute", str(grid), *argv])
        assert code == EXIT_RESOURCE and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: time budget exceeded") and "Traceback" not in err


def test_window_search_set_up_checks_the_clock(monkeypatch):
    """At the grid prime, cut_dependents' and delta_family's loops over the
    2,203 cuts and the inclusion-minimal filter over the 2,202 members at
    the top of min_transversal_weight each check the clock every
    STEPS_PER_CLOCK_CHECK steps, before the branch and bound's first check."""
    from vnum.edgeideals import GraphWork
    from vnum.graphs import Graph
    from vnum.errors import DEFAULT_LIMITS, STEPS_PER_CLOCK_CHECK, Limits
    from vnum.matroids import cut_dependents, delta_family, min_transversal_weight

    class Stop(Exception):
        pass

    callers = []

    def counting_check(self):
        callers.append(sys._getframe(1).f_code.co_name)
        if callers[-1] == "search":
            raise Stop

    grid = Graph.make(18, GRID_EDGES)
    work = GraphWork.of(grid)
    assert work.dependents is None
    monkeypatch.setattr(Limits, "check_time", counting_check)
    dependents = cut_dependents(grid, work.cuts, DEFAULT_LIMITS)
    cut_checks = len(work.cuts) // STEPS_PER_CLOCK_CHECK
    assert callers == ["cut_dependents"] * cut_checks
    callers.clear()
    family = delta_family(grid, GRID_CUT, dependents, DEFAULT_LIMITS)
    assert callers == ["delta_family"] * cut_checks
    callers.clear()
    with pytest.raises(Stop):
        min_transversal_weight(family, DEFAULT_LIMITS)
    filter_checks = len(family.members) // STEPS_PER_CLOCK_CHECK
    assert callers == ["min_transversal_weight"] * filter_checks + ["search"]
    assert filter_checks == 8


def test_limits_from_env(monkeypatch):
    monkeypatch.setenv("VNUM_MAX_POLYS", "123")
    monkeypatch.setenv("VNUM_MAX_DEGREE", "7")
    monkeypatch.setenv("VNUM_TIME_BUDGET_SECS", "1.5")
    monkeypatch.delenv("VNUM_JOBS", raising=False)
    limits, jobs = settings_from_env()
    assert (limits.max_polys, limits.max_degree, limits.time_budget_secs) == (123, 7, 1.5)
    assert jobs == 1


@pytest.mark.parametrize("name, value", [
    ("VNUM_JOBS", "x"),
    ("VNUM_JOBS", "0"),
    ("VNUM_TIME_BUDGET_SECS", "abc"),
    ("VNUM_TIME_BUDGET_SECS", "nan"),
    ("VNUM_MAX_POLYS", "-3"),
    ("VNUM_MAX_DEGREE", "2.5"),
])
def test_bad_env_value_exits_cleanly(p4_file, monkeypatch, capsys, name, value):
    monkeypatch.setenv(name, value)
    code, text = run_main(["compute", p4_file, "--bounds-only"])
    assert code == EXIT_PARSE
    assert text == ""
    assert capsys.readouterr().err.startswith(f"error: {name} must be a positive ")


def test_oracle_limit_keeps_the_report(tmp_path, monkeypatch):
    import vnum.edgeideals
    from vnum.errors import ResourceLimitError

    def out_of_time(*a, **k):
        raise ResourceLimitError("time budget exceeded")

    monkeypatch.setattr(vnum.edgeideals, "oracle_vnumber_at_prime", out_of_time)
    c5 = tmp_path / "c5.txt"
    c5.write_text("n 5\n1 2\n2 3\n3 4\n4 5\n1 5\n")
    code, text = run_main(["compute", str(c5), "--prime", "1,3", "--oracle", "--json"])
    assert code == EXIT_RESOURCE
    (entry,) = json.loads(text)["primes"]
    assert entry["s"] == [1, 3]
    assert entry["v"] is not None and entry["oracle_ok"] is None


def test_pool_width_is_bounded(c4_file, monkeypatch):
    import vnum.cli
    import vnum.edgeideals

    widths = []

    class SerialPool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(vnum.edgeideals, "ProcessPoolExecutor", SerialPool)
    _, serial = run_main(["compute", c4_file, "--json"])
    monkeypatch.setenv("VNUM_JOBS", "100000")
    for cpus, width in [(64, 3), (2, 2), (None, None)]:  # C_4 has 3 primes
        monkeypatch.setattr(vnum.cli.os, "cpu_count", lambda: cpus)
        started = len(widths)
        code, pooled = run_main(["compute", c4_file, "--json"])
        assert code == EXIT_OK
        if width is None:  # a pool of width 1 is never started
            assert len(widths) == started
        else:
            assert widths[-1] == width
        strip = [{k: v for k, v in p.items() if k != "millis"}
                 for text in (serial, pooled) for p in json.loads(text)["primes"]]
        assert strip[:3] == strip[3:]


def test_serial_import_leaves_out_the_process_pool():
    # the pool's modules load only when a pool starts
    code = (
        "import sys, vnum, vnum.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'multiprocessing')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH="src"),
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_parallel_width_matches_serial(c4_file):
    env = dict(os.environ, VNUM_JOBS="2", PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "vnum.cli", "compute", c4_file, "--json"],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0, proc.stderr
    parallel = json.loads(proc.stdout)
    _, serial_text = run_main(["compute", c4_file, "--json"])
    serial = json.loads(serial_text)
    for doc in (parallel, serial):
        for p in doc["primes"]:
            p.pop("millis")
    assert parallel == serial


def strip_millis(text):
    doc = json.loads(text)
    for p in doc["primes"]:
        p.pop("millis")
    return doc


def test_pool_enumerates_cuts_once(tmp_path, monkeypatch, serial_pool):
    import vnum.edgeideals
    import vnum.graphs
    import vnum.matroids

    calls = []

    def counting(g, limits):
        calls.append(g)
        return vnum.graphs.enumerate_min_cuts(g, limits)

    for mod in (vnum.edgeideals, vnum.matroids):
        monkeypatch.setattr(mod, "enumerate_min_cuts", counting)
    c6 = tmp_path / "c6.txt"
    c6.write_text("n 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n")
    monkeypatch.setenv("VNUM_JOBS", "2")
    code, text = run_main(["compute", str(c6), "--json"])
    assert code == EXIT_OK
    assert len(serial_pool) == 1 and len(json.loads(text)["primes"]) == 12
    assert len(calls) == 1


def test_cycle_honours_jobs(monkeypatch, serial_pool):
    import vnum.edgeideals

    monkeypatch.setattr(vnum.edgeideals.os, "cpu_count", lambda: 64)
    _, serial = run_main(["cycle", "4", "--json"])
    assert serial_pool == []
    monkeypatch.setenv("VNUM_JOBS", "2")
    code, pooled = run_main(["cycle", "4", "--json"])
    assert code == EXIT_OK
    assert serial_pool == [2]
    assert strip_millis(pooled) == strip_millis(serial)


@pytest.fixture
def c5_file(tmp_path):
    p = tmp_path / "c5.txt"
    p.write_text("n 5\n1 2\n2 3\n3 4\n4 5\n1 5\n")
    return str(p)


def test_oracle_mismatch_exits_disagree(c5_file, monkeypatch):
    import vnum.edgeideals

    honest = vnum.edgeideals.oracle_vnumber_at_prime
    monkeypatch.setattr(vnum.edgeideals, "oracle_vnumber_at_prime",
                        lambda g, s, limits, _work=None: honest(g, s, limits, _work) + 1)
    code, text = run_main(["compute", c5_file, "--prime", "1,3", "--oracle", "--json"])
    assert code == EXIT_DISAGREE
    (entry,) = json.loads(text)["primes"]
    assert entry["s"] == [1, 3] and entry["v"] == 3 and entry["oracle_ok"] is False


def test_disagreement_wins_over_resource_limit(c5_file, monkeypatch):
    import vnum.edgeideals
    from vnum.errors import ResourceLimitError

    honest = vnum.edgeideals.oracle_vnumber_at_prime

    def oracle(g, s, limits, _work=None):
        if s != {1, 3}:
            raise ResourceLimitError("time budget exceeded")
        return honest(g, s, limits, _work) + 1

    monkeypatch.setattr(vnum.edgeideals, "oracle_vnumber_at_prime", oracle)
    code, text = run_main(["compute", c5_file, "--oracle", "--json"])
    assert code == EXIT_DISAGREE
    oks = {tuple(p["s"]): p["oracle_ok"] for p in json.loads(text)["primes"]}
    assert len(oks) == 6 and oks.pop((1, 3)) is False
    assert set(oks.values()) == {None}


def test_formula_mismatch_exits_disagree(c5_file, monkeypatch):
    import vnum.edgeideals

    honest = vnum.edgeideals._combinatorial_value

    def off_by_one(g, rec, limits):
        comb = honest(g, rec, limits)
        return None if comb is None else comb + 1

    monkeypatch.setattr(vnum.edgeideals, "_combinatorial_value", off_by_one)
    code, text = run_main(["compute", c5_file, "--prime", "1,3", "--json"])
    assert code == EXIT_DISAGREE
    (entry,) = json.loads(text)["primes"]
    assert entry["v"] == 3 and entry["window"] == {"lo": 4, "hi": 4}
    code, text = run_main(["cycle", "4", "--json"])
    assert code == EXIT_DISAGREE
    assert len(json.loads(text)["primes"]) == 3
    # bounds-only reports the formula itself, so it cannot disagree
    code, _ = run_main(["compute", c5_file, "--bounds-only", "--json"])
    assert code == EXIT_OK


def test_v_outside_its_window_exits_disagree(tmp_path, monkeypatch):
    import vnum.edgeideals

    honest = vnum.edgeideals.min_transversal_weight

    def three_short(family, limits):
        weight, witness = honest(family, limits)
        return weight - 3, witness

    c6 = tmp_path / "c6.txt"
    c6.write_text("n 6\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 6)) + "1 6\n")
    monkeypatch.setattr(vnum.edgeideals, "min_transversal_weight", three_short)
    code, text = run_main(["compute", str(c6), "--json"])
    assert code == EXIT_DISAGREE
    primes = json.loads(text)["primes"]
    assert [p["s"] for p in primes if p["v"] > p["window"]["hi"]] == [[1, 3, 5], [2, 4, 6]]
    assert all(p["oracle_ok"] is None for p in primes)


CYCLE_MUTANTS = {  # name in vnum.cycles: (replacement, the check it fails)
    "localized_bounds": (lambda n, s: (n + 1, n + 1, True), "in_window=False"),
    "_combined_basis_check": (lambda *args: False, "gb=fail"),
    "global_bounds": (lambda n: (n + 1, n + 1), "satisfied=False"),
}


@pytest.mark.parametrize("name", sorted(CYCLE_MUTANTS))
def test_each_cycle_check_joins_the_exit_code(monkeypatch, name):
    import vnum.cycles

    mutant, failed = CYCLE_MUTANTS[name]
    monkeypatch.setattr(vnum.cycles, name, mutant)
    code, text = run_main(["cycle", "6"])
    assert code == EXIT_DISAGREE and failed in text
    assert run_main(["cycle", "6", "--json"])[0] == EXIT_DISAGREE


def test_golden_reports_keep_every_v_inside_its_window():
    """The golden inputs keep exit code 0: no v of theirs leaves its window
    and no oracle disagrees (their cycle table is checked for exit 0 by
    test_golden)."""
    from test_golden import DATA

    docs = json.loads((DATA / "corpus5_oracle.json").read_text())
    docs.append(json.loads((DATA / "cycle6.json").read_text()))
    docs += [json.loads(line) for line in (DATA / "bounds6.jsonl").read_text().splitlines()]
    primes = [p for doc in docs for p in doc["primes"]]
    assert len(primes) > 100
    for p in primes:
        lo, hi = p["window"]["lo"], p["window"]["hi"]
        assert p["v"] is None or lo <= p["v"] <= hi, p
        assert p["oracle_ok"] is not False, p


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "vnum" in capsys.readouterr().out
