"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit on
every workload, that a correct program passes the correctness gate, that a
planted wrong expected value raises the error rate, and that the benchmark
refuses to run without the package sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, *extra, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trials", "20000", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_emitted_and_gate_green(workload, trace, section):
    res = _result(_run(workload, "--trace", trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) for v in res["metrics"].values())
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_expected_value_raises_error_rate(workload):
    res = _result(_run(workload, "--trace", "0", "--plant-wrong-expected"))
    assert res["correct"] is False and res["failed"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
