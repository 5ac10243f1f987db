"""Tests of the benchmark itself: its checks reject bad outputs, and a
smoke-size pass of every workload runs clean.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from math import comb

import pytest

import checks
import inputs
import pace
import run
import worker

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


def _star(n, k, r):
    return [m for m in inputs.universe(n, k, r) if m[0] == (1, 1)]


def _certificate_text(n=6, k=3, r=2):
    from signedfam import assemble_injection
    from signedfam.core import Params, SignedFamily
    from signedfam.jsonl import certificate_to_json

    family = inputs.pinned_family(n, k, r)
    cert = assemble_injection(SignedFamily(Params(n, k, r), tuple(family)))
    return family, certificate_to_json(cert)


def test_certificate_check_accepts_the_library_certificate():
    family, text = _certificate_text()
    assert checks.check_certificate(text, family, 6, 3, 2) == []


def test_certificate_with_a_shared_target_is_rejected():
    family, text = _certificate_text()
    cert = json.loads(text)
    cert["map"][1]["to"] = cert["map"][0]["to"]
    problems = checks.check_certificate(json.dumps(cert), family, 6, 3, 2)
    assert problems == ["two sources share a target"]


def test_certificate_target_without_one_one_is_rejected():
    family, text = _certificate_text()
    cert = json.loads(text)
    target = cert["map"][0]["to"]
    assert target[0] == [1, 1]
    target[0] = [1, 2]
    problems = checks.check_certificate(json.dumps(cert), family, 6, 3, 2)
    assert len(problems) == 1 and "lacks (1, 1)" in problems[0]


def test_certificate_missing_a_source_is_rejected():
    family, text = _certificate_text()
    cert = json.loads(text)
    del cert["map"][-1]
    problems = checks.check_certificate(json.dumps(cert), family, 6, 3, 2)
    assert problems == ["certificate sources are not exactly the input family"]


def _witness(members, n, k, r, exhausted=True):
    return {
        "max_size": r ** (k - 1) * comb(n - 1, k - 1),
        "exhausted": exhausted,
        "witness": [[list(p) for p in m] for m in members],
    }


def test_witness_check_accepts_the_star():
    assert checks.check_witness(_witness(_star(5, 2, 2), 5, 2, 2), 5, 2, 2) == []


def test_non_intersecting_witness_is_rejected():
    members = _star(5, 2, 2)
    members[-1] = ((2, 2), (3, 2))  # shares no pair with ((1, 1), (4, 1))
    problems = checks.check_witness(_witness(members, 5, 2, 2), 5, 2, 2)
    assert problems == ["witness has two members sharing no pair"]


def test_unexhausted_or_short_witness_is_rejected():
    members = _star(5, 2, 2)
    assert checks.check_witness(_witness(members, 5, 2, 2, exhausted=False), 5, 2, 2) == [
        "search did not exhaust its tree"
    ]
    assert len(checks.check_witness(_witness(members[1:], 5, 2, 2), 5, 2, 2)) == 1


def test_maximal_family_check_rejects_a_non_maximal_family():
    verts = inputs.universe(4, 2, 2)
    star = sum(1 << i for i, v in enumerate(verts) if v[0] == (1, 1))
    assert checks.check_maximal_families([star], 4, 2, 2) == []
    part = star & (star - 1)  # drop one member: still intersecting, no longer maximal
    assert checks.check_maximal_families([part], 4, 2, 2) == ["family 0 is not maximal"]


SMOKE = {
    "ORACLE_LADDER": ((5, 2, 2), (4, 2, 3)),
    "ENUMERATE_PARAMS": (4, 2, 2),
    "INJECT_PARAMS": (8, 3, 2),
    "SAMPLE_PARAMS": ((6, 3, 2),),
    "SAMPLE_SEEDS": 4,
}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_pass_of_each_workload_has_no_errors(workload, monkeypatch, tmp_path):
    for name, value in SMOKE.items():
        monkeypatch.setattr(inputs, name, value)
    bench = run.Run(workload, 7, tmp_path)
    bench.inputs = worker.prepare(workload, tmp_path, 7)
    passes = run.measure(bench, 0, trace=True)
    ops = [op for kind in (False, True) for p, _ in passes[kind] for op in p]
    assert ops and [op.problems for op in ops if op.problems] == []
    assert all(op.exact for op in ops)

    e2e = run.end_to_end(bench, [p for p, _ in passes[False]], [0.1])
    assert e2e["success_rate"][0] == 1.0 and e2e["wall_s"][0] > 0
    layers = run.per_layer(bench, passes, [], 0.0)
    busy = {"oracle": "search.exact_s", "inject_big": "core.is_intersecting_s",
            "sample": "search.random_s"}[workload]
    assert layers[busy][0] > 0


def test_meter_scales_a_span_by_the_readings_around_it():
    meter = pace.Meter()
    meter.times = [9.0, 10.35, 10.45, 20.0]
    meter.readings = [pace.REFERENCE_S, 2 * pace.REFERENCE_S, 3 * pace.REFERENCE_S, pace.REFERENCE_S]
    # The CPU ran at 1/2.5 of the reference speed during the span.
    assert meter.normalise(10.3, 10.5) == pytest.approx(0.2 / 2.5)
    # No reading near the span: the nearest one sets the speed.
    assert meter.normalise(18.0, 19.0) == pytest.approx(1.0)


def test_runner_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout == ""
