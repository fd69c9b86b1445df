"""The benchmark command end to end: result line, tamper exit, missing engine."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(cwd, *extra, trace="0"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "realistic_first_order",
           "--seed", "3", "--seconds", "0.5", "--trace", trace, *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_tamper_makes_the_run_fail():
    done = _run(HERE.parent, "--tamper")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "tamper self-check flagged" in done.stdout


def test_clean_run_passes():
    done = _run(HERE.parent)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode == 0, done.stdout[-2000:]
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {
        "ops_per_s", "ops_per_s.gather", "ops_per_s.scatter", "call_ms.p50",
        "call_ms.tail", "setup_s", "im2col_ratio", "peak_rss_mb",
    }


def test_traced_run_passes_and_writes_the_counters(tmp_path):
    # the CRS probe checks its own estimates next to the workload's CRS calls
    done = _run(HERE.parent, "--out", str(tmp_path), trace="1")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode == 0, done.stdout[-2000:]
    assert result["correct"] is True and result["failed"] == 0
    per_layer = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in per_layer}
    rows = json.loads((tmp_path / "counters_realistic_first_order.json").read_text())
    assert len(rows) == 6 * 11  # every layer x every op but the CRS calls


def test_fails_without_the_engine_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
