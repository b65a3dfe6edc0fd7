"""Quick self-check of the benchmark at tiny budgets (about a minute).

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

For every workload it runs ``run.py`` untraced and traced with the same
seed at tiny sizes, and asserts that:
- every metric BENCHMARK.json names is emitted, with its unit, and no other;
- the output checks pass and no operation failed;
- the untraced run's counts equal the traced run's measured counts;
- both runs give the same first-round output digest.
Then it asserts that the command fails, printing no result, in a copy
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, count_mismatches  # noqa: E402

SEED = 7


def bench_run(cwd: Path, *args: str, stderr=None):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, stderr=stderr, text=True,
                          timeout=300)


def parse(stdout: str, workload: str):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    counts = digest = None
    for line in lines:
        if line.startswith(f"# {workload}: counts of round 0 "):
            counts = json.loads(line.split("round 0 ", 1)[1])
        found = re.search(r"first-round output digest (\w+)", line)
        if line.startswith(f"# {workload}:") and found:
            digest = found.group(1)
    return result, counts, digest


def check_metrics(result: dict, declared: list, label: str) -> list:
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    problems = [f"{label}: {name} missing" for name in expected if name not in got]
    problems += [f"{label}: {name} not declared" for name in got if name not in expected]
    problems += [
        f"{label}: {name} in {got[name]}, declared {unit}"
        for name, unit in expected.items() if name in got and got[name] != unit
    ]
    problems += [
        f"{label}: {name} is not a number"
        for name, entry in result["metrics"].items()
        if not isinstance(entry["value"], (int, float))
    ]
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{label}: correct={result['correct']} "
                        f"attempted={result['attempted']} failed={result['failed']}")
    return problems


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        runs = {}
        for trace, declared in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            done = bench_run(root, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
                             "--trace", trace, "--tiny")
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit code {done.returncode}")
                continue
            runs[trace] = parse(done.stdout, workload)
            problems += check_metrics(runs[trace][0], declared, label)
        if len(runs) == 2:
            (_, untraced, digest0), (_, traced, digest1) = runs["0"], runs["1"]
            problems += [f"{workload}: {m}" for m in count_mismatches(untraced, traced)]
            if digest0 != digest1:
                problems.append(f"{workload}: same-seed runs give digests {digest0}, {digest1}")
        print(f"{workload}: checked")

    bare = HERE / "out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    done = bench_run(bare, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", stderr=subprocess.DEVNULL)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("without the program the command must fail and print no result")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
