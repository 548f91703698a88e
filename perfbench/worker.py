"""One benchmark pass in a fresh interpreter; prints one JSON record.

    python3 perfbench/worker.py --workload W --seed N --trace 0|1 --spawned NS [--setup-only]

``--spawned`` is the parent's ``time.monotonic_ns()`` just before it started
this process, so ``setup_s`` covers interpreter start, the turanlab import
and input generation.  ``wall_s`` runs from inputs ready to the last output
checked.  A traced pass installs the tracer after set-up and writes its
spans to ``perfbench/out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import time

import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workloads.bootstrap()
    setup, run = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic_ns()
    record = {"setup_s": (ready - args.spawned) / 1e9}
    if not args.setup_only:
        tally = workloads.Tally()
        run(inputs, tally)
        record["wall_s"] = (time.monotonic_ns() - ready) / 1e9
        record.update(attempted=tally.attempted, failed=tally.failed, wrong=tally.wrong,
                      failures=tally.failures, seconds=tally.seconds, solves=tally.solves)
        if tracer is not None:
            record["layers"] = tracer.layer_metrics()
            tracer.write(workloads.OUT / f"trace-{args.workload}.json")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
