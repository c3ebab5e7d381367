"""Smoke test of the benchmark: every workload once at a tiny size, plain
and traced, plus a deliberately corrupted output and a checkout without
sources.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

# metrics the benchmark was specified to report
END_TO_END = ["ops_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "cold_start_s", "peak_rss_mb"]
SUMMARY_ONLY = ["failed_frac", "dev_ratio_max"]
PER_LAYER = [
    "numerics.derivative.busy_ms", "numerics.cumulative_integral.busy_ms", "numerics.solve_calls_per_op",
    "frenet.frenet_apparatus.busy_ms", "frenet.valid_frac", "direction.construct.busy_ms",
    "direction.checks.busy_ms", "direction.compare_predicted.fail_frac", "classify.classify.busy_ms",
    "od.od_osculating_curve.busy_ms", "od.verify_od_properties.busy_ms", "curves.evaluate_catalog.busy_ms",
    "curves.arclength_reparametrize.busy_ms", "curves.load_csv.busy_ms", "curves.save_csv.busy_ms",
    "cli.classify.busy_ms", "cli.frenet.busy_ms", "cli.direct.busy_ms", "cli.verify.busy_ms",
    "setup.import_numpy_s", "setup.import_scipy_interpolate_s", "trace.overhead_frac",
    *(f"{layer}.errors" for layer in ("numerics", "curves", "frenet", "direction", "classify", "od", "verify", "cli")),
    "verify.props.frame-system.dev_ratio", "verify.thm4.4.root_curve.dev",
]


def run_tiny(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)], tiny=True)
    out = capsys.readouterr().out
    assert code == 0
    return out, json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    out, result = run_tiny(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float)) and math.isfinite(printed["value"])
    for name in PER_LAYER if trace else END_TO_END:
        assert name in result["metrics"]
    for name in SUMMARY_ONLY:
        assert name in out
    assert "env {" in out


def _scaled_kappa(frenet_apparatus):
    def corrupted(c):
        f = frenet_apparatus(c)
        return dataclasses.replace(f, kappa=f.kappa * 1.001)

    return corrupted


def _truncated(save_csv):
    def corrupted(c, path):
        save_csv(c, path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-1])

    return corrupted


@pytest.mark.parametrize(
    "workload, module, name, corrupt",
    [
        ("large_pipeline", "frenetdir", "frenet_apparatus", _scaled_kappa),
        ("csv_cli", "frenetdir.cli", "save_csv", _truncated),
    ],
)
def test_corrupted_output_counts_as_failed(capsys, monkeypatch, workload, module, name, corrupt):
    _, clean = run_tiny(capsys, workload, 0)
    assert clean["correct"] and clean["failed"] == 0
    target = sys.modules[module]
    monkeypatch.setattr(target, name, corrupt(getattr(target, name)))
    _, result = run_tiny(capsys, workload, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
