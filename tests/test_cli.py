"""Command-line surface: dispatch, report schema, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys

import pytest

from vnum.cli import (
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

    monkeypatch.setattr(vnum.cli, "ProcessPoolExecutor", SerialPool)
    _, serial = run_main(["compute", c4_file, "--json"])
    monkeypatch.setenv("VNUM_JOBS", "100000")
    for cpus, width in [(64, 3), (2, 2), (None, 1)]:  # C_4 has 3 primes
        monkeypatch.setattr(vnum.cli.os, "cpu_count", lambda: cpus)
        code, pooled = run_main(["compute", c4_file, "--json"])
        assert code == EXIT_OK
        assert widths[-1] == width
        strip = [{k: v for k, v in p.items() if k != "millis"}
                 for text in (serial, pooled) for p in json.loads(text)["primes"]]
        assert strip[:3] == strip[3:]


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


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "vnum" in capsys.readouterr().out
