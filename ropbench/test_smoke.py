"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest ropbench/test_smoke.py -q

It checks that every workload reports every metric BENCHMARK.json
names and that a wrong prediction is counted as a failed operation.
It makes no assertion about time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import ropnet.models as models  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run_tiny(name, trace, out_dir):
    return bench.run_workload(
        name, SEED, 0, trace, out_dir, workload=bench.tiny(name)
    )


def record_of(name, trace, out_dir):
    return json.loads((out_dir / f"{name}-seed{SEED}-trace{int(trace)}.json").read_text())


def test_spec_lists_the_workloads_and_metrics():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: wl.why for name, wl in bench.WORKLOADS.items()
    }
    assert {
        m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]
    } == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.per_layer_metrics()


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_every_metric_is_reported(name, tmp_path):
    for trace, listed in ((False, "end_to_end"), (True, "per_layer")):
        result = run_tiny(name, trace, tmp_path)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert result["correct"] == (result["failed"] == 0)
        expected = {m["name"]: m["unit"] for m in SPEC[listed]}
        assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
        for metric, v in result["metrics"].items():
            assert isinstance(v["value"], (int, float)), metric
        # tiny sizes may miss the accuracy floors; predictions at every
        # batch size must still agree
        failures = record_of(name, trace, tmp_path)["failures"]
        assert not [f for f in failures if "differ" in f]


def test_traced_run_counts_exactly(tmp_path):
    values = {
        m: v["value"] for m, v in run_tiny("train_flagship", True, tmp_path)["metrics"].items()
    }
    assert values["models.param_objects"] == 43
    assert values["explain.predict_calls"] == 1 + 8 * 5
    assert values["layers.tape.records_per_step"] == 18


def test_wrong_prediction_is_a_failed_operation(tmp_path, monkeypatch):
    predict = models.Model.predict

    def skewed(model, windows, statics, batch_size=256):
        out = predict(model, windows, statics, batch_size)
        return out + 1e-6 if batch_size == 1 else out

    monkeypatch.setattr(models.Model, "predict", skewed)
    result = run_tiny("train_flagship", False, tmp_path)
    assert not result["correct"]
    wl = bench.tiny("train_flagship")
    online = wl.online_windows * bench.MIN_CYCLES
    assert result["failed"] >= online
    failures = record_of("train_flagship", False, tmp_path)["failures"]
    assert len([f for f in failures if "batch 1 and batch 4096" in f]) == online


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "train_flagship",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
