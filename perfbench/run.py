"""turanlab benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload exact-solve|algebra|sweep \\
        --seed N --seconds S --trace 0|1

Every pass runs in a fresh interpreter (``worker.py``), as a CLI user pays
the field and norm-table cache fills on each invocation.  Passes run one at
a time until ``--seconds`` have gone by, at least one.  With ``--trace 0``
the last stdout line carries ``wall_s`` and ``setup_s`` (medians over the
passes and over extra set-up-only starts) and ``peak_rss_mb``.  With
``--trace 1`` one untraced pass is followed by traced passes, and the line
carries the per-layer metrics (medians over the traced passes) and the
tracing overhead.  ``correct`` is false when an output failed its check or
a call raised; ``failed`` also counts calls that exited nonzero with an
output that passed its checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_STARTS = 9
DEADLINE_S = 170.0


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, trace: int, deadline: float,
             setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining < 1:
        raise PassFailed("out of time before the pass could start")
    cmd += ["--spawned", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=workloads.ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise PassFailed("pass ran past the deadline") from None
    if proc.returncode != 0:
        raise PassFailed(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def summarize(workload: str, records: list[dict]) -> None:
    """Human-readable pass summary on stderr."""
    for i, r in enumerate(records):
        kinds = ", ".join(f"{k} {v:.2f}s" for k, v in r["seconds"].items())
        print(f"[{workload}] pass {i}: wall {r['wall_s']:.3f}s setup {r['setup_s']:.3f}s "
              f"ops {r['attempted']} failed {r['failed']} ({kinds})", file=sys.stderr)
        for s in r["solves"]:
            print(f"[{workload}]   {s['job']}: value {s['value']} nodes {s['nodes']}",
                  file=sys.stderr)
        for f in r["failures"]:
            print(f"[{workload}]   FAILED {f}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    deadline = start + DEADLINE_S
    workloads.OUT.mkdir(exist_ok=True)
    try:
        setups = [] if args.trace else [
            run_pass(args.workload, args.seed, 0, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_STARTS)]
        measure_from = time.monotonic()
        untraced = [run_pass(args.workload, args.seed, 0, deadline)] if args.trace else []
        traced: list[dict] = []
        batch = traced if args.trace else untraced
        while not batch or time.monotonic() - measure_from < args.seconds:
            batch.append(run_pass(args.workload, args.seed, args.trace, deadline))
    except PassFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    records = untraced + traced
    summarize(args.workload, records)
    if args.trace:
        # median_low keeps counts whole: it always picks an observed value
        metrics = {name: {"value": statistics.median_low(r["layers"][name] for r in traced),
                          "unit": unit} for name, unit in tracing.LAYER_METRICS}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in untraced))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        setups += [r["setup_s"] for r in untraced]
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    print(json.dumps({
        "correct": all(r["wrong"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
