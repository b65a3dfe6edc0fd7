"""qmridesign benchmark: candidate protocols scored per second.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rl_search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in a process of its own (perfbench/workloads.py),
started from this one with BLAS/OpenMP threads pinned to one. With
``--trace 0`` this process first starts SETUP_SAMPLES set-up-only
processes, then the measured one, and reports the end-to-end metrics:
set-up time (median over all of them), protocols scored per second and
peak resident memory; both times are scaled to the reference machine
speed (perfbench/calibration.py), and the unscaled ones are printed too.
With ``--trace 1`` it spends half of ``--seconds``
on an untraced process and half on a traced one, reports the per-layer
metrics, the tracing overhead, and checks that both processes count the
same work. Every run checks the program's outputs. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import FIT_FLAGS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("rl_search", "report", "crlb_anneal")
REQUIRED = (Path("src/qmridesign/__init__.py"), Path("configs/repro.json"))

#: set-up-only processes per untraced run, besides the measured one
SETUP_SAMPLES = 8

#: the whole run, every process included, ends within this many seconds
DEADLINE_S = 170.0

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = (("setup_s", "s"), ("protocols_per_s", "1/s"), ("peak_rss_mb", "MB"))

LAYER_FIELDS = (("calls", "count"), ("samples", "count"), ("self_s", "s"),
                ("p50_ms", "ms"), ("tail_ms", "ms"))

COUNTERS = (
    ("fit.rows", "count"),
    ("fit.deficient_frac", "frac"),
    ("fit.f_clamped_frac", "frac"),
    ("fit.dstar_at_bound_frac", "frac"),
    ("protocol_env.reward_share", "frac"),
    ("ppo.episodes", "count"),
    ("ppo.updates", "count"),
    ("ppo.minibatches", "count"),
    ("ppo.update_share", "frac"),
    ("crlb.iter_us", "us"),
    ("trace.rounds", "count"),
    ("trace.protocols_per_s", "1/s"),
    ("trace.untraced_protocols_per_s", "1/s"),
    ("trace.overhead_protocols_per_s", "1/s"),
    ("trace.unscaled_protocols_per_s", "1/s"),
    ("calibration.pass_ms", "ms"),
)


class BenchError(RuntimeError):
    """A workload process failed; the run prints no result."""


def spawn(workload: str, seed: int, seconds: float, deadline: float, *flags: str) -> dict:
    env = dict(os.environ, **THREAD_PINS)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    command = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--spawned-at", repr(time.monotonic()), *flags,
    ]
    try:
        done = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload} process passed the {DEADLINE_S:g} s deadline") from err
    if done.returncode != 0:
        raise BenchError(f"{workload} process exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def untraced(workload: str, seed: int, seconds: float, deadline: float, tiny: list):
    setups = [
        spawn(workload, seed, seconds, deadline, "--setup-only", *tiny)
        for _ in range(SETUP_SAMPLES)
    ]
    child = spawn(workload, seed, seconds, deadline, *tiny)
    setups.append(child)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "protocols_per_s": child["protocols_per_s"],
        "peak_rss_mb": child["peak_rss_mb"],
    }
    child["unscaled"] = {
        "setup_s": statistics.median(s["raw_setup_s"] for s in setups),
        "protocols_per_s": child["raw_protocols_per_s"],
        "calibration_ms": child["calibration_ms"],
    }
    return metrics, dict(END_TO_END), child, [child]


def traced(workload: str, seed: int, seconds: float, deadline: float, tiny: list):
    plain = spawn(workload, seed, seconds / 2, deadline, *tiny)
    child = spawn(workload, seed, seconds / 2, deadline, "--trace", "1", *tiny)
    metrics, units = {}, {}
    for boundary, stats in child["layers"].items():
        for field, unit in LAYER_FIELDS:
            metrics[f"{boundary}.{field}"] = stats[field]
            units[f"{boundary}.{field}"] = unit
    metrics.update(child["counters"])
    metrics.update({
        "trace.rounds": child["rounds"],
        "trace.protocols_per_s": child["protocols_per_s"],
        "trace.untraced_protocols_per_s": plain["protocols_per_s"],
        "trace.overhead_protocols_per_s": child["protocols_per_s"] - plain["protocols_per_s"],
        "trace.unscaled_protocols_per_s": child["raw_protocols_per_s"],
        "calibration.pass_ms": child["calibration_ms"],
    })
    units.update(COUNTERS)
    mismatched = count_mismatches(plain["counts"], child["traced_counts"])
    child["problems"] += [f"traced and untraced counts differ: {m}" for m in mismatched]
    return metrics, units, child, [plain, child]


def count_mismatches(untraced_counts: dict, traced_counts: dict) -> list:
    """Every count of round 0 that both runs know must agree exactly.

    The fit flag totals are known to the traced run only; every span name
    the untraced run does not list must have zero calls.
    """
    flags = {f"fit.{flag}" for flag in FIT_FLAGS}
    names = (set(untraced_counts) | set(traced_counts)) - flags
    return [
        f"{name}: untraced {untraced_counts.get(name, 0)}, traced {traced_counts.get(name, 0)}"
        for name in sorted(names)
        if untraced_counts.get(name, 0) != traced_counts.get(name, 0)
    ]


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float,
                 tiny: list) -> dict:
    measure = traced if trace else untraced
    metrics, units, shown, children = measure(workload, seed, seconds, deadline, tiny)
    problems = shown["problems"]
    attempted = sum(c["units"] for c in children)
    if len({c["digest"] for c in children}) > 1:
        problems.append("same-seed processes disagree on the first round's outputs")
    return {
        "workload": workload,
        "correct": not problems,
        "attempted": attempted,
        "failed": 0 if not problems else attempted,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "problems": problems,
        "rounds": shown["rounds"],
        "digest": shown["digest"],
        # the traced run shows the counts its spans measured, not the derived ones
        "counts": shown.get("traced_counts", shown["counts"]),
        "facts": shown["facts"],
        "span_file": shown.get("span_file"),
        "unscaled": shown.get("unscaled"),
    }


def report(result: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    name = result["workload"]
    print(f"# {name}: facts {json.dumps(result['facts'], sort_keys=True)}")
    print(f"# {name}: {result['rounds']} rounds, first-round output digest {result['digest']}")
    print(f"# {name}: counts of round 0 {json.dumps(result['counts'], sort_keys=True)}")
    if result["unscaled"]:
        print(f"# {name}: unscaled {json.dumps(result['unscaled'], sort_keys=True)}")
    if result["span_file"]:
        print(f"# {name}: spans written to {result['span_file']}")
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"{name} failed_frac = {failed_frac:g} ({result['failed']}/{result['attempted']})")
    for problem in result["problems"]:
        print(f"{name} CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-check sizes, not for measuring")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    missing = [str(p) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"run from the root of a qmridesign checkout; missing {missing}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    tiny = ["--tiny"] if args.tiny else []
    try:
        results = [
            run_workload(w, args.seed, args.seconds, args.trace, deadline, tiny) for w in workloads
        ]
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    for result in results:
        report(result)
    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{m}" if prefix else m): entry
            for r in results for m, entry in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
