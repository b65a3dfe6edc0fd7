"""Alternating parent/change pairs of one benchmark workload, and their verdict.

Run from anywhere, naming two checkouts:

    python3 tools/bench_pairs.py --parent ../parent --change . --workload rl_search \
        --seeds 101-110 --out BENCH_label_pairs.json

For each seed it runs ``perfbench/run.py --trace 0`` in both checkouts, one
after the other, each run as long as ``BENCHMARK.json``'s ``run_seconds``:
the parent first in the first pair, the change first in the second, and so
on. It stores every pair's end-to-end metrics, ``correct``, first ``CHECK
FAILED`` line, ``failed`` and first-round output digest, the faults among
them (a run whose output check failed, quoting that line, a change that
failed more operations than the parent, a digest that moved), and for each
end-to-end metric that ``BENCHMARK.json`` names a summary: both medians,
both sides' quartiles, the parent's quartile spread, the change's wins and
a verdict. The verdict follows the acceptance rule: a gain needs pairs free
of faults, at least ten of them, wins in at least nine tenths (ties count
for neither side) and a median gap larger than the distance between the
parent's quartiles; "worse" means a median worse than the parent's by more
than the metric's bound; a spread wider than the bound is "unresolved"
unless every change run beats every parent run. The tool exits with 1 when
a pair has a fault. It reads ``perfbench/`` and ``BENCHMARK.json`` of the
change checkout and edits neither; the seed range is parsed by
``perfbench/spread.py``'s ``seed_range``.

Both checkouts start every run from the same bytecode-cache state, so a
set-up time does not compare a warm import with a cold one. Each gets a
fresh cache directory of its own (``PYTHONPYCACHEPREFIX``), which one tiny
run of the workload fills before the first pair, with bytecode writing on;
the measured runs then read it with writing off. Neither checkout's own
``__pycache__`` directories are read.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

DIGEST = re.compile(r"first-round output digest (\S+)")
SPREAD = Path(__file__).resolve().parents[1] / "perfbench" / "spread.py"


def _spread_module():
    spec = importlib.util.spec_from_file_location("perfbench_spread", SPREAD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


seed_range = _spread_module().seed_range


def run_bench(checkout: Path, workload: str, seed: int, seconds, cache: Path, *flags: str, write: bool) -> str:
    """The standard output of one ``run.py --trace 0`` in ``checkout`` whose
    bytecode cache is the directory ``cache``, written to if ``write``, else
    only read; a failed run ends the tool."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(cache)
    if not write:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0", *flags]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True, env=env)
    if done.returncode != 0:
        sys.exit(f"{checkout}: run.py --workload {workload} --seed {seed} exited with {done.returncode}")
    return done.stdout


def run_once(checkout: Path, workload: str, seed: int, seconds, metrics: list, cache: Path) -> dict:
    """One measured run in ``checkout``, reading the bytecode cache ``cache``:
    its end-to-end metrics, correct, its first ``CHECK FAILED`` line (None
    when it has none), failed, first-round digest and unscaled numbers."""
    lines = run_bench(checkout, workload, seed, seconds, cache, write=False).strip().splitlines()
    result = json.loads(lines[-1])
    unscaled = next((line.split(" unscaled ", 1)[1] for line in lines if " unscaled " in line), "null")
    return {
        **{name: result["metrics"][name]["value"] for name in metrics},
        "correct": result["correct"],
        "check": next((line for line in lines if " CHECK FAILED: " in line), None),
        "failed": result["failed"],
        "digest": next(match[1] for match in map(DIGEST.search, lines) if match),
        "unscaled": json.loads(unscaled),
    }


def pair_faults(pairs: list) -> list:
    """What in the recorded pairs forbids a gain, one line per fault: a run
    whose output check failed, quoting its first ``CHECK FAILED`` line, a
    change run that failed more operations than its parent run, or a
    first-round digest that differs between the two."""
    faults = []
    for pair in pairs:
        parent, change, seed = pair["parent"], pair["change"], pair["seed"]
        faults += [f"seed {seed}: {side} output check failed: {pair[side]['check']}"
                   for side in ("parent", "change") if not pair[side]["correct"]]
        if change["failed"] > parent["failed"]:
            faults.append(f"seed {seed}: change failed {change['failed']} operations, parent {parent['failed']}")
        if change["digest"] != parent["digest"]:
            faults.append(f"seed {seed}: first-round digest {parent['digest']} -> {change['digest']}")
    return faults


def verdict(parent: list, change: list, better: str, bound: float, sound: bool = True) -> dict:
    """Summary of one metric over paired runs (``parent[i]`` with ``change[i]``).

    ``better`` is "higher" or "lower"; ``bound`` the share of the parent's
    median by which the change may be worse before it counts as worse;
    ``sound`` is false when the pairs have faults, and then no gain is given.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    change_q1, _, change_q3 = statistics.quantiles(change, n=4)
    gain = sign * (change_median - parent_median)
    separated = all(sign * (c - p) > 0 for c in change for p in parent)
    if sound and len(parent) >= 10 and wins >= 0.9 * len(parent) and gain > q3 - q1:
        outcome = "gain"
    elif gain < -bound * parent_median:
        outcome = "worse"
    elif q3 - q1 > bound * parent_median and not separated:
        outcome = "unresolved"
    else:
        outcome = "not worse"
    return {"parent_median": parent_median, "change_median": change_median, "ratio": change_median / parent_median,
            "parent_q1": q1, "parent_q3": q3, "parent_spread": q3 - q1, "change_q1": change_q1,
            "change_q3": change_q3, "change_wins": wins, "pairs": len(parent), "verdict": outcome}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 101-110")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds: the parent's quartiles take two runs")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = [metric["name"] for metric in bench["end_to_end"]]

    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as caches:
        cache = {side: Path(caches, side) for side in ("parent", "change")}
        for side in ("parent", "change"):  # fill each fresh cache with what a tiny run imports
            run_bench(getattr(args, side), args.workload, args.seeds[0], 1, cache[side], "--tiny", write=True)
        for index, seed in enumerate(args.seeds):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(getattr(args, side), args.workload, seed, bench["run_seconds"], metrics,
                                      cache[side])
            pairs.append(pair)
            print(f"seed {seed}: " + "  ".join(
                f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}" for name in metrics), flush=True)

    faults = pair_faults(pairs)
    summary = {
        metric["name"]: verdict([pair["parent"][metric["name"]] for pair in pairs],
                                [pair["change"][metric["name"]] for pair in pairs],
                                metric["better"], metric["bound"], sound=not faults)
        for metric in bench["end_to_end"]
    }
    for name, row in summary.items():
        print(f"{name}: median {row['parent_median']:.4g} -> {row['change_median']:.4g}, quartiles "
              f"{row['parent_q1']:.4g}-{row['parent_q3']:.4g} -> {row['change_q1']:.4g}-{row['change_q3']:.4g}, "
              f"parent spread {row['parent_spread']:.4g}, change wins {row['change_wins']}/{row['pairs']}: "
              f"{row['verdict']}")
    for fault in faults:
        print(f"fault: {fault}", file=sys.stderr)
    args.out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                    "run_seconds": bench["run_seconds"], "pairs": pairs, "faults": faults,
                                    "summary": summary}, indent=1) + "\n")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
