"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import check
import instances
import run
import spans

sys.path.insert(0, str(run.SRC))


def _span(name, start, end, parent=None, counts=None):
    return [name, start, end, parent, counts]


def test_self_time_on_a_synthetic_tree():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("monocech.cohomology_profile", 1.0, 6.0, 0),
        _span("exactlin.rank", 2.0, 3.0, 1),
        _span("exactlin.rank", 3.5, 5.0, 1),
        # overlapping children of one parent count once
        _span("monocech.normalize", 7.0, 8.0, 0),
        _span("monocech.pattern_report", 7.5, 9.5, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([2.5, 2.5, 1.0, 1.5, 1.0, 2.0])
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


def test_aggregate_sums_self_time_and_boundary_counts():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("monocech.cohomology_profile", 1.0, 6.0, 0, {"cech_calls": 8, "cech_nonzero": 2, "complexes": 5}),
        _span("exactlin.rank", 2.0, 3.0, 1, {"cells": 12}),
        _span("exactlin.rank", 3.5, 5.0, 1, {"cells": 30}),
    ]
    layers = spans.aggregate([tree, tree])
    assert layers["monocech.profile_s"] == pytest.approx(5.0)
    assert layers["exactlin.rank_s"] == pytest.approx(5.0)
    assert layers["cli.self_s"] == pytest.approx(10.0)
    assert layers["trace.main_s"] == pytest.approx(20.0)
    assert layers["exactlin.rank_calls"] == 4
    assert layers["exactlin.rank_cells"] == 84
    assert layers["exactlin.rank_max_cells"] == 30
    assert layers["exactlin.complexes"] == 10
    assert layers["monocech.patterns_enumerated"] == 16
    assert layers["monocech.useful_pattern_ratio"] == pytest.approx(0.25)


def test_cold_c7_pattern_counts(tmp_path):
    """Hand-checked: C7 has 2^7 sign patterns, each builds its own
    complex, and 15 of them carry nonzero cohomology."""
    spec = instances.write_spec(instances.fixed_specs()["C7"], tmp_path / "C7.json")
    out = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "tracer.py"), str(out), "pattern", str(spec), "--all", "--json"],
        env=run.child_env(), capture_output=True, timeout=120,
    )
    assert proc.returncode == 0
    layers = spans.aggregate([json.loads(out.read_text())["spans"]])
    assert layers["exactlin.complexes"] == 128
    assert layers["monocech.patterns_enumerated"] == 128
    assert Fraction(layers["monocech.useful_pattern_ratio"]).limit_denominator(1000) == Fraction(15, 128)


def test_children_run_without_threads_and_with_a_fixed_hash_seed(monkeypatch):
    monkeypatch.setenv("LCLAB_THREADS", "4")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = run.child_env()
    assert "LCLAB_THREADS" not in env
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONPATH"] == str(run.SRC)


def test_instances_follow_the_seed():
    a, b, c = (instances.seeded_specs(s) for s in (1, 1, 2))
    assert a == b and a != c
    for n in (6, 7, 8):
        graph = a[f"G{n}"]
        assert len(graph["generators"]) == 7
        assert {v for g in graph["generators"] for v in g.split("*")} == set(graph["deg1_vars"])
        assert len(graph["deg1_vars"]) == n
    assert len(a["C8-y2"]["deg0_vars"]) == 2


def _cli_json(argv):
    from lclab import cli

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert cli.main(argv) == 0
    return json.loads(buffer.getvalue())


def test_seeded_checks_accept_lclab_and_reject_a_wrong_rank(tmp_path):
    spec = instances.seeded_specs(5)["G6"]
    path = instances.write_spec(spec, tmp_path / "G6.json")
    payload = _cli_json(["pattern", str(path), "--all", "--json"])
    found = check.check_pattern(spec, payload)
    m = len(spec["deg1_vars"])
    for sub, fn, args in run.GRAPH_QUERIES:
        fn(found[run.GRAPH_I], m, _cli_json([sub, str(path), "-i", str(run.GRAPH_I), *args, "--json"]))
    row = next(r for r in payload["patterns"] if r["contributors"])
    row["contributors"][0]["rank"] += 1
    with pytest.raises(check.CheckError):
        check.check_pattern(spec, payload)


def test_dimension_checks_use_lattice_counts():
    # (X1, X2) at i = 2: one k = m contributor of rank 1, dim(-3) = 2
    found = [(2, 1)]
    assert check.coarse_dim(found, 2, -3) == 2
    assert check.coarse_dim(found, 2, -1) == 0
    assert check.coarse_dim([(1, 1)], 2, 0) is None
    with pytest.raises(check.CheckError):
        check.check_dim(found, 2, {"dims": [{"n": -3, "dim": 3}]})


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "query-walls", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_every_fixed_command_has_a_reference():
    references = json.loads((run.BENCH / "references.json").read_text())
    fixed, seeded = run.write_specs(Path(run.OUT) / "test-specs", "0/0")
    try:
        for build in run.WORKLOADS.values():
            for cmd in build(fixed, seeded, "0/0"):
                assert cmd.ref is None or cmd.ref in references
                assert cmd.ref is not None or cmd.check is not None
                assert "-i" not in cmd.argv or int(cmd.argv[cmd.argv.index("-i") + 1]) >= 0
    finally:
        shutil.rmtree(Path(run.OUT) / "test-specs", ignore_errors=True)


def test_verify_seeds_hold_the_heavy_ideals_fixed():
    from lclab.verify import random_battery

    seeds = [run.verify_seed(random.Random(f"test:{k}")) for k in range(3)]
    assert seeds == [run.verify_seed(random.Random(f"test:{k}")) for k in range(3)]
    for seed in seeds:
        heavy = Counter(
            len(ideal.generators)
            for ideal in random_battery(count=run.VERIFY_COUNT, seed=seed)
            if ideal.context.nvars == 5
        )
        assert heavy[4] == run.VERIFY_HEAVY[4] and heavy[5] == run.VERIFY_HEAVY[5]
