"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload table1_flow --seed 1 --seconds 40 \\
        --trace 0

Workloads: ``table1_flow``, ``arith_verify`` (see flow_workloads.py) and
``serve_mix`` (see serve_workload.py).  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` reports the per-layer
metrics from a traced run.  Every metric is printed as
``<name> <value> <unit>``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every correctness check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import END_TO_END, PER_LAYER, ROOT, use_repo_sources

WORKLOADS = ("table1_flow", "arith_verify", "serve_mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--circuits", default=None,
                        help="comma-separated circuits replacing the "
                             "workload's set (reduced-size runs in tests)")
    args = parser.parse_args(argv)

    use_repo_sources()
    os.chdir(ROOT)
    if args.workload == "serve_mix":
        import serve_workload as workload
    else:
        import flow_workloads as workload
    circuits = args.circuits.split(",") if args.circuits else None
    out = workload.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), circuits)

    metrics = out["metrics"]
    wanted = PER_LAYER if args.trace else END_TO_END
    absent = sorted(name for name in wanted if name not in metrics)
    for name in absent:
        metrics[name] = 0.0
    for name in sorted(metrics):
        unit = END_TO_END.get(name) or PER_LAYER.get(name, "")
        print("%-30s %.6g %s" % (name, metrics[name], unit))
    if absent:
        print("not exercised by %s (reported as 0): %s"
              % (args.workload, " ".join(absent)))
    for note in out["notes"]:
        print(note)
    for problem in out["failures"]:
        print("FAILED", problem)
    failed = min(len(out["failures"]), out["attempted"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
