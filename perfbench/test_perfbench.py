"""Tests of the benchmark itself: span arithmetic, seeded inputs, repeatable counts.

    python3 -m pytest perfbench/test_perfbench.py -q

The repeat test runs two traced passes of every workload and takes about a
minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    # root 0-100 holds a 10-40 child (which holds 15-25) and a 50-70 child
    spans = [
        (2, 0, 1, 15, 25, 0),
        (1, 0, 0, 10, 40, 0),
        (3, 0, 0, 50, 70, 0),
        (0, 0, -1, 0, 100, 0),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 50, 1: 20, 2: 10, 3: 20}
    assert sum(own.values()) == 100


def test_layer_metrics_split_self_time_between_layers():
    tracer = tracing.Tracer()
    outer = tracer._name_id("cli.dispatch")
    inner = tracer._name_id("solvers.solve")
    tracer.spans += [(1, inner, 0, 2_000_000_000, 5_000_000_000, 7),
                     (0, outer, -1, 0, 6_000_000_000, 0)]
    m = tracer.layer_metrics()
    assert m["cli.dispatch.s"] == 6.0
    assert m["cli.self_s"] == 3.0
    assert m["solvers.self_s"] == 3.0
    assert m["solvers.nodes"] == 7
    assert m["solvers.nodes_per_s"] == 7 / 3.0


def test_random_hosts_follow_the_seed():
    workloads.bootstrap()
    from turanlab.hypergraph import content_hash

    first = [content_hash(h) for h in workloads.random_hosts(7)]
    again = [content_hash(h) for h in workloads.random_hosts(7)]
    other = [content_hash(h) for h in workloads.random_hosts(8)]
    assert first == again
    assert first != other


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared == [*tracing.LAYER_METRICS, ("trace.overhead_s", "s")]


def _traced_pass(workload: str) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "3",
           "--trace", "1", "--spawned", str(time.monotonic_ns())]
    return subprocess.Popen(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True)


def test_traced_counts_repeat_exactly():
    workloads.OUT.mkdir(exist_ok=True)
    counts = [name for name, unit in tracing.LAYER_METRICS if unit in ("count", "bytes")]
    for workload in workloads.WORKLOADS:
        procs = [_traced_pass(workload), _traced_pass(workload)]
        layers = []
        for proc in procs:
            out, _ = proc.communicate(timeout=300)
            assert proc.returncode == 0
            layers.append(json.loads(out.splitlines()[-1])["layers"])
        first, second = ({k: m[k] for k in counts} for m in layers)
        assert first == second, workload
        assert any(first.values()), workload


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
