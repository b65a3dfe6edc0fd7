"""Run-to-run spread of the end-to-end metrics, as the acceptance rule computes it.

Run from the root of a checkout:

    python3 perfbench/spread.py --workloads rl_search,report,crlb_anneal --seeds 1-10 \
        [--out perfbench/baseline.json]

For every workload it runs ``run.py --trace 0`` once per seed, one after
another, and reports for each end-to-end metric the median and the
distance between the first and third quartile (``statistics.quantiles``
with n=4) as a share of the median, next to a third of the metric's
bound from BENCHMARK.json. ``--out`` also stores every value measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, type=seed_range, help="e.g. 1-10")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: output check failed", file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            summary[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": series,
            }
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"{workload:12s} {name:16s} median {median:10.4f}  spread {spread:6.2%}  "
                  f"(bound/3 {bounds[name] / 3:6.2%}) {flag}")
    if args.out:
        args.out.write_text(json.dumps(
            {"seeds": args.seeds, "run_seconds": bench["run_seconds"], "workloads": summary},
            indent=1,
        ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
