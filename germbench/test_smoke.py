"""Smoke test of the benchmark at tiny sizes.

Checks that every declared metric is printed with its unit, that the
trace accounts for the traced solve time, and that a deliberately wrong
expectation fails the run.  Run from the repository root::

    python -m pytest germbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from meter import REFERENCE_RATE, SpeedMeter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "germbench/run.py", "--smoke", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "seed=1" in proc.stdout
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
        if not trace:
            assert printed["value"] > 0, m["name"]
    if trace:
        values = {name: v["value"] for name, v in result["metrics"].items()}
        self_s = sum(v for name, v in values.items() if name.endswith(".self_s"))
        assert self_s + values["trace.overhead_s"] == pytest.approx(values["trace.solve_s"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expectation_fails_the_run(workload):
    proc = run_bench("--workload", workload, "--seed", "0", "--wrong-expectation")
    assert proc.returncode != 0
    result = last_json(proc)
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "germbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "fermat_ladder", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_meter_correction_is_wall_time_at_reference_speed():
    meter = SpeedMeter()
    meter.samples = [(1.0, 1.1, REFERENCE_RATE), (2.0, 2.1, REFERENCE_RATE)]
    # [0.5, 3.0] minus the two sample windows
    assert meter.corrected(0.5, 3.0) == pytest.approx(2.3)
    meter.samples = [(1.0, 1.1, REFERENCE_RATE / 2), (2.0, 2.1, REFERENCE_RATE / 2)]
    assert meter.corrected(0.5, 3.0) == pytest.approx(1.15)
    assert meter.corrected(5.0, 6.0) == pytest.approx(0.5)
