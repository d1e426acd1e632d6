"""Tiny runs of every workload pass their checks and emit every metric."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from benchpath import BENCH, ROOT
from inputs import WORKLOADS, tiny
from journey import END_TO_END, PER_LAYER, run


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_metric_tables_match_benchmark_json():
    spec = _spec()
    assert {m["name"] for m in spec["end_to_end"]} == set(END_TO_END)
    assert {m["name"] for m in spec["per_layer"]} == set(PER_LAYER)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == END_TO_END[metric["name"]]
    for metric in spec["per_layer"]:
        assert metric["unit"] == PER_LAYER[metric["name"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run(name, trace, tmp_path):
    path = str(tmp_path / "spans.json") if trace else None
    result, problems = run(tiny(WORKLOADS[name]), seed=3, seconds=0.4,
                           trace=bool(trace), trace_path=path)
    assert problems == []
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    expected = PER_LAYER if trace else END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"])
               for m in result["metrics"].values())
    if trace:
        with open(path, encoding="utf-8") as f:
            spans = json.load(f)["spans"]
        assert {"embed", "partition", "walks", "embedding", "update",
                "dynamic.apply", "serve.batch"} <= {s["name"] for s in spans}
    else:
        for name_ in ("embed_s", "update_s", "serve_qps", "serve_p50_ms",
                      "peak_rss_mb", "ok_frac", "auc"):
            assert result["metrics"][name_]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark present, the run fails
    without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _children_of(pid):
    """Pids whose parent is ``pid``, read from ``/proc``."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_stop_helpers_reaps_the_resource_tracker():
    """The resource tracker a shared segment starts is stopped and reaped
    before the run exits, so no process of the run outlives it."""
    code = (
        "import os, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from multiprocessing import resource_tracker, shared_memory\n"
        "segment = shared_memory.SharedMemory(create=True, size=64)\n"
        "segment.close(); segment.unlink()\n"
        "assert resource_tracker._resource_tracker._pid is not None\n"
        "from run import stop_helpers\n"
        "stop_helpers()\n"
        "print('stopped', flush=True)\n"
        "sys.stdin.readline()\n")
    proc = subprocess.Popen([sys.executable, "-c", code, BENCH],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    try:
        assert proc.stdout.readline().strip() == "stopped"
        assert _children_of(proc.pid) == []
    finally:
        proc.communicate("\n", timeout=60)
    assert proc.returncode == 0
