"""Smoke test of the benchmark itself, at a tiny rank with a short stream.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fakedegrees import QPolynomial, fakedeg  # noqa: E402

TINY = ["--seed", "3", "--seconds", "0", "--max-n", "2", "--calls", "30"]


def test_every_metric_is_printed_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--trace", "1", *TINY],
        capture_output=True, text=True, cwd=HERE.parent, timeout=150)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    final = json.loads(lines[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 4:
            printed[fields[0], fields[1]] = fields[3]
    expected = {**run.E2E_UNITS, "fail_frac": "ratio", **tracer.LAYER_METRICS}
    for w in run.WORKLOADS:
        for name, unit in expected.items():
            assert printed.get((w, name)) == unit, (w, name)
        for name, unit in tracer.LAYER_METRICS.items():
            assert final["metrics"][f"{w}.{name}"]["unit"] == unit

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.LAYER_METRICS


def test_corrupted_polynomial_trips_the_digest_gate(monkeypatch):
    ops = workloads.build("certify-routes", 1, 0, 2, 0)
    clean = workloads.run(ops)
    assert clean["failures"] == []
    assert workloads.gate_sweep(
        "certify-routes", 2, workloads.digest(ops, clean["values"]), []) == []

    real = fakedeg.fake_degree_wreath

    def corrupted(mp, d, route="formula"):
        # both thm1 routes of one label (checked nowhere else) get the same
        # wrong answer, so only the digest can tell
        p = real(mp, d, route)
        return p + QPolynomial([1]) if mp == ((1, 1),) and d == 1 else p

    monkeypatch.setattr(fakedeg, "fake_degree_wreath", corrupted)
    bad = workloads.run(ops)
    assert bad["failures"] == []
    problems = workloads.gate_sweep(
        "certify-routes", 2, workloads.digest(ops, bad["values"]), bad["failures"])
    assert any(p.startswith("digest") for p in problems)


def test_corrupted_lookup_answer_fails_the_independent_check(monkeypatch):
    ops = workloads.build("lookup", 1, 0, 2, 15)
    assert workloads.gate_lookup(ops, workloads.run(ops)["values"]) == []
    real = fakedeg.fake_degree_wreath
    monkeypatch.setattr(fakedeg, "fake_degree_wreath",
                        lambda mp, d, route="formula": real(mp, d, route).shift(1))
    bad = workloads.run(ops)
    assert any(key.startswith("wreath3") for key, _, _ in ops)
    assert any("wreath3" in p for p in workloads.gate_lookup(ops, bad["values"]))


def test_corrupted_repeat_answer_fails_the_independent_check(monkeypatch):
    label = ((2, 1), (1,))
    ops = [("bc 2,1|1", workloads.op_lookup, ("bc", label))] * 2
    assert workloads.gate_lookup(ops, workloads.run(ops)["values"]) == []
    real = fakedeg.fake_degree_bc
    calls = []

    def wrong_on_repeat(pair, route="tuple"):
        # a cache that computes right on a miss and returns wrong on a hit
        calls.append(pair)
        p = real(pair, route)
        return p.shift(1) if calls.count(pair) > 1 else p

    monkeypatch.setattr(fakedeg, "fake_degree_bc", wrong_on_repeat)
    bad = workloads.run(ops)
    assert workloads.gate_lookup(ops, bad["values"]) == [
        "bc 2,1|1: answer differs from the independent route"]


def test_known_failure_with_another_error_is_a_problem():
    stored = json.loads(workloads.REFERENCE.read_text())["certify-bijections"]["7"]
    failures = [{"op": op, **record} for op, record in stored["known_failures"].items()]

    def gate(fs):
        return workloads.gate_sweep("certify-bijections", 7, stored["digest"], fs)

    assert gate(failures) == [] and gate(failures[1:]) == []
    changed = {**failures[0], "error": "IndexError: list index out of range"}
    assert gate([changed] + failures[1:]) == [
        f"known failure changed: {changed['op']}: {changed['error']}"]
    fewer = {**failures[0], "tableaux": []}
    assert gate([fewer]) == [f"known failure changed: {fewer['op']}: {fewer['error']}"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lookup", "--trace", "0", *TINY],
        capture_output=True, text=True, cwd=tmp_path, timeout=150)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
