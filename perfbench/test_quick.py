"""Quick checks of the benchmark itself (about half a minute):

    python3 -m pytest perfbench/test_quick.py

They pin the metric names and units to BENCHMARK.json, check that the
counted metrics repeat exactly, and tie the MAC columns to the closed-form
cost model, so the harness cannot drift from it.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from names import END_TO_END, PER_LAYER  # noqa: E402

EXACT_PREFIXES = ("macs.", "metering.peak_elems", "tensor.nodes_per_step.",
                  "tensor.useful_grad_ratio")


def run_bench(seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", "train32",
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res


@pytest.fixture(scope="module")
def traced_runs():
    return [result(run_bench(seed, 1)) for seed in (1, 2)]


def test_benchmark_json_lists_the_same_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["train32", "train128"]


def test_untraced_run_prints_every_end_to_end_metric():
    res = result(run_bench(1, 0))
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(traced_runs):
    for res in traced_runs:
        assert [(k, v["unit"]) for k, v in res["metrics"].items()] == PER_LAYER


def test_counts_repeat_exactly_across_runs(traced_runs):
    a, b = (r["metrics"] for r in traced_runs)
    counted = [k for k in a if k.startswith(EXACT_PREFIXES)]
    assert len(counted) == 12
    assert {k: a[k]["value"] for k in counted} == {k: b[k]["value"] for k in counted}
    assert a["tensor.nodes_per_step.wau"]["value"] > a["tensor.nodes_per_step.bilinear"]["value"]
    assert 0 < a["tensor.useful_grad_ratio"]["value"] < 1


def test_macs_of_one_wad_forward_sum_to_flops_wad():
    from probes import count_macs
    from wau.analysis import flops_wad
    from wau.attention import AttentionDecoder, WauConfig
    from wau.config import AnalysisConfig
    from wau.tensor import tensor

    # analysis.measure's geometry: one item, equal widths, one head.
    a = AnalysisConfig()
    h2, w2, c, k, n, m2 = a.h2, a.w2, a.channels, a.kernel, a.ratio, a.window
    cfg = WauConfig(ratio=n, window=m2, heads=1, proj_kernel=k, out_kernel=k)
    rng = np.random.default_rng(0)
    dec = AttentionDecoder(cfg, lateral_channels=c, source_channels=c, rng=rng)
    lateral = tensor(rng.standard_normal((1, c, n * h2, n * w2)))
    source = tensor(rng.standard_normal((1, c, h2, w2)))
    macs, _ = count_macs(lambda: dec.wad_forward(lateral, source))
    assert macs["other"] == 0
    assert sum(macs.values()) == flops_wad(h2, w2, c, k, n, m2)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
