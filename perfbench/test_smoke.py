"""Smoke test of the benchmark harness: `python3 -m pytest perfbench -q`."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import FUSED_ORACLE, GROUP_ORACLE, SPARSE_ORACLE, Tiny  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_every_metric_prints_with_its_unit():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
        for metric in SPEC[key]:
            printed = result["metrics"][metric["name"]]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], float)
            assert any(line.startswith(f"{metric['name']} ") and
                       line.endswith(f" {metric['unit']}") for line in lines[:-1])
        if trace:
            assert result["metrics"]["linalg.factorizations_per_iter"]["value"] == 1.0


def test_wrong_oracle_fails_the_tiny_check():
    right = {"group": GROUP_ORACLE, "sparse": SPARSE_ORACLE, "fused": FUSED_ORACLE}
    wrong = dict(right, sparse=dict(SPARSE_ORACLE, sigma2=1.5 * SPARSE_ORACLE["sigma2"]))
    workload = Tiny(right)
    rounds = workload.run_round(seed=11, index=0)
    assert workload.check(rounds) == set()
    failed = Tiny(wrong).check(rounds)
    assert failed == {(0, 1, "2bg"), (0, 1, "3bg")}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
