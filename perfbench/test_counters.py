"""Deterministic counters: identical across runs, consistent with op_cost."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import counters
import workload

HERE = Path(__file__).resolve().parent
DUMP = (
    "import json, sys; sys.path[:0] = [{src!r}, {here!r}];"
    "import counters, workload;"
    "print(json.dumps(counters.for_workload(workload.load({name!r}))))"
)


def _fresh_counters(name: str) -> list:
    code = DUMP.format(src=str(HERE.parent / "src"), here=str(HERE), name=name)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(done.stdout)


@pytest.mark.parametrize("name", workload.names())
def test_counters_repeat_and_match_op_cost(name):
    first = _fresh_counters(name)
    assert _fresh_counters(name) == first
    # and again in this process, where earlier calls have filled the caches
    assert counters.for_workload(workload.load(name)) == first
    tot = counters.totals(first)
    assert tot["planned_flops"] == tot["op_cost_flops"]
    assert all(r["planned_flops"] >= r["exact_flops"] for r in first)

