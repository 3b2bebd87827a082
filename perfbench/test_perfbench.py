"""Tests of the benchmark itself (about two minutes).

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402

SEED = 7
COUNT_SUFFIXES = (".calls", ".misses", ".distinct", ".fft_points", ".nodes",
                  "_iters", ".steps", ".cells")


def bench(*args, root=ROOT):
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def runs(request):
    workload = request.param
    common = ["--workload", workload, "--seed", str(SEED), "--seconds", "0"]
    plain = bench(*common, "--trace", "0")
    traced = bench(*common, "--trace", "1")
    again = run.run_child(workload, "traced")
    return workload, plain, traced, again


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    from workloads import WORKLOADS

    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES


def test_every_metric_emitted_with_its_unit(runs):
    workload, (plain_lines, plain), (traced_lines, traced), _ = runs
    for result, units in ((plain, run.END_TO_END), (traced, run.PER_LAYER)):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in run.END_TO_END.items():
        assert any(line.strip().startswith(f"{name} = ") and line.endswith(unit)
                   for line in plain_lines), name
    assert any(line.strip().startswith("failed_ops_ratio = 0/") for line in plain_lines)
    assert plain_lines[0].startswith("environment ")


def test_untraced_run_patches_nothing(runs):
    _, (plain_lines, _), (traced_lines, _), _ = runs
    assert "attribute untouched: plain True" in "\n".join(plain_lines)
    assert "attribute untouched: plain True, traced False" in "\n".join(traced_lines)


def test_traced_counts_repeat_exactly(runs):
    workload, _, (_, traced), again = runs
    counts = [n for n in run.PER_LAYER if n.endswith(COUNT_SUFFIXES)]
    first = {n: traced["metrics"][n]["value"] for n in counts}
    second = {n: again["layers"].get(n, 0) for n in counts}
    assert first == second
    assert first["kernel.toeplitz_matvec.calls"] > 0
    if workload == "example1-sweep":
        assert first["special.wright_phi.calls"] == 0
        assert first["study.cells"] == 10
    if workload == "fractional":
        assert first["special.wright_phi.misses"] > 0
        assert first["evolution.newton_iters"] > 0


def test_corrupted_reference_fails_its_operation(tmp_path):
    (tmp_path / "src").symlink_to(ROOT / "src")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    refs_path = tmp_path / "perfbench" / "references.json"
    refs = json.loads(refs_path.read_text())
    refs["fractional"]["fractional-l1"]["gaps"]["0.5"] += 1e-5
    refs_path.write_text(json.dumps(refs))
    lines, result = bench("--workload", "fractional", "--seed", str(SEED),
                          "--seconds", "0", "--trace", "0", root=tmp_path)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (6, 1)
    assert any("failed_ops_ratio = 1/6 = 0.166667" in line for line in lines)
    assert any(line.strip().startswith("FAILED scalar l1 alpha=0.5") for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fractional",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
