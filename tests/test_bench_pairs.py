"""The alternating-pairs tool's verdict (``tools/bench_pairs.py``), on fixed numbers."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [170.0, 172.0, 168.0, 175.0, 171.0, 169.0, 173.0, 170.5, 174.0, 167.0]


def test_gain_needs_nine_wins_in_ten_and_a_gap_past_the_spread(tool):
    change = [p * 1.14 for p in PARENT]
    row = tool.verdict(PARENT, change, "higher", 0.25)
    assert row["verdict"] == "gain"
    assert row["change_wins"] == 10 and row["pairs"] == 10
    assert row["parent_median"] == 170.75
    assert row["parent_spread"] == pytest.approx(row["parent_q3"] - row["parent_q1"])
    # each side's quartiles: the change's are the parent's scaled by 1.14
    assert (row["parent_q1"], row["parent_q3"]) == (168.75, 173.25)
    assert row["change_q1"] == pytest.approx(1.14 * 168.75) and row["change_q3"] == pytest.approx(1.14 * 173.25)
    # two lost pairs of ten: 8 wins fall short of nine tenths
    lost_two = [*change[:8], PARENT[8] - 1.0, PARENT[9] - 1.0]
    assert tool.verdict(PARENT, lost_two, "higher", 0.25)["verdict"] == "not worse"
    # a tie counts for neither side
    tied = [*change[:9], PARENT[9]]
    assert tool.verdict(PARENT, tied, "higher", 0.25)["change_wins"] == 9
    assert tool.verdict(PARENT, tied, "higher", 0.25)["verdict"] == "gain"


def test_gain_needs_a_median_gap_wider_than_the_parents_quartiles(tool):
    change = [p + 0.5 for p in PARENT]  # wins every pair, by less than the spread
    row = tool.verdict(PARENT, change, "higher", 0.25)
    assert row["change_wins"] == 10
    assert row["change_median"] - row["parent_median"] < row["parent_spread"]
    assert row["verdict"] == "not worse"


def test_gain_needs_ten_pairs(tool):
    assert tool.verdict(PARENT[:9], [p * 1.2 for p in PARENT[:9]], "higher", 0.25)["verdict"] == "not worse"


def test_lower_is_better_and_worse_means_past_the_bound(tool):
    parent = [40.0, 41.0, 39.5, 40.5, 40.2, 39.8, 40.1, 40.3, 39.9, 40.4]
    assert tool.verdict(parent, [p * 0.5 for p in parent], "lower", 0.2)["verdict"] == "gain"
    assert tool.verdict(parent, [p * 1.15 for p in parent], "lower", 0.2)["verdict"] == "not worse"
    assert tool.verdict(parent, [p * 1.3 for p in parent], "lower", 0.2)["verdict"] == "worse"
    assert tool.verdict(PARENT, [p * 0.7 for p in PARENT], "higher", 0.25)["verdict"] == "worse"


def test_spread_wider_than_the_bound_is_unresolved(tool):
    parent = [100.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0, 95.0, 105.0, 100.0]
    change = [p * 1.01 for p in reversed(parent)]
    assert tool.verdict(parent, change, "higher", 0.25)["verdict"] == "unresolved"
    # unless every change run beats every parent run
    assert tool.verdict(parent, [p + 100.0 for p in parent], "higher", 0.25)["verdict"] == "gain"
    assert tool.verdict(parent[:5], [p + 100.0 for p in parent[:5]], "higher", 0.25)["verdict"] == "not worse"


def test_seed_range(tool):
    assert tool.seed_range("101-110") == list(range(101, 111))
    assert tool.seed_range("7") == [7]


CHECK_FAILED = "rl_search CHECK FAILED: same-seed processes disagree on the first round's outputs"


def run_record(correct=True, failed=0, digest="47e0d99a484ddb47"):
    return {"protocols_per_s": 170.0, "correct": correct, "check": None if correct else CHECK_FAILED,
            "failed": failed, "digest": digest}


def test_faults_forbid_a_gain(tool):
    clean = [{"seed": seed, "parent": run_record(), "change": run_record()} for seed in range(101, 111)]
    assert tool.pair_faults(clean) == []
    faulty = [
        {"seed": 101, "parent": run_record(), "change": run_record(correct=False, failed=227)},
        {"seed": 102, "parent": run_record(correct=False), "change": run_record()},
        {"seed": 103, "parent": run_record(failed=2), "change": run_record(failed=2)},
        {"seed": 104, "parent": run_record(), "change": run_record(digest="dcf56ec4bd317462")},
    ]
    assert tool.pair_faults(faulty) == [
        f"seed 101: change output check failed: {CHECK_FAILED}",
        "seed 101: change failed 227 operations, parent 0",
        f"seed 102: parent output check failed: {CHECK_FAILED}",
        "seed 104: first-round digest 47e0d99a484ddb47 -> dcf56ec4bd317462",
    ]
    change = [p * 1.14 for p in PARENT]
    assert tool.verdict(PARENT, change, "higher", 0.25, sound=True)["verdict"] == "gain"
    assert tool.verdict(PARENT, change, "higher", 0.25, sound=False)["verdict"] == "not worse"
    # a fault does not hide a loss
    assert tool.verdict(PARENT, [p * 0.7 for p in PARENT], "higher", 0.25, sound=False)["verdict"] == "worse"


def test_both_checkouts_run_from_fresh_bytecode_caches_filled_alike(tool, tmp_path, monkeypatch):
    """With ``subprocess.run`` stubbed: each checkout gets a new bytecode-cache
    directory of its own, which one tiny run with bytecode writing on fills
    before the first pair; every measured run reads that cache with writing
    off, and a pair's two runs differ only in their checkout and cache. A
    run whose output check fails keeps its first ``CHECK FAILED`` line, and
    its fault quotes it."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
        (checkout / "BENCHMARK.json").write_text((BENCH_PAIRS.parents[1] / "BENCHMARK.json").read_text())
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")  # as a checkout with a stale __pycache__ may be run
    calls = []

    def fake_run(command, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        calls.append({"cwd": cwd, "command": command, "env": env,
                      "cached": sorted(p.name for p in cache.rglob("*")) if cache.exists() else None})
        if "PYTHONDONTWRITEBYTECODE" not in env:
            cache.mkdir(parents=True, exist_ok=True)
            (cache / "module.pyc").write_bytes(b"")
        failing = cwd == change and command[command.index("--seed") + 1] == "102" and "--tiny" not in command
        result = {"correct": not failing, "failed": 227 if failing else 0, "metrics": {
            name: {"value": 1.0} for name in ("setup_s", "protocols_per_s", "peak_rss_mb")}}
        second = "rl_search CHECK FAILED: reward_calls: untraced 2048, traced 2047"
        checks = f"{CHECK_FAILED}\n{second}\n" if failing else ""
        stdout = f"first-round output digest 47e0d99a484ddb47\n{checks}{json.dumps(result)}\n"
        return subprocess.CompletedProcess(command, 0, stdout=stdout)

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    assert tool.main(["--parent", str(parent), "--change", str(change), "--workload", "rl_search",
                      "--seeds", "101-102", "--out", str(tmp_path / "pairs.json")]) == 1
    record = json.loads((tmp_path / "pairs.json").read_text())
    assert [(pair["parent"]["check"], pair["change"]["check"]) for pair in record["pairs"]] == [
        (None, None), (None, CHECK_FAILED)]
    assert record["faults"] == [f"seed 102: change output check failed: {CHECK_FAILED}",
                                "seed 102: change failed 227 operations, parent 0"]

    warm, measured = calls[:2], calls[2:]
    assert [call["cwd"] for call in warm] == [parent, change]
    assert [call["cwd"] for call in measured] == [parent, change, change, parent]
    caches = {call["cwd"]: call["env"]["PYTHONPYCACHEPREFIX"] for call in warm}
    assert caches[parent] != caches[change]
    for call in warm:  # a fresh cache, filled with writing on by a tiny run
        assert call["cached"] is None
        assert "--tiny" in call["command"] and "PYTHONDONTWRITEBYTECODE" not in call["env"]
    for call in measured:  # the side's own filled cache, read with writing off
        assert call["env"]["PYTHONPYCACHEPREFIX"] == caches[call["cwd"]]
        assert call["cached"] == ["module.pyc"]
        assert "--tiny" not in call["command"] and call["env"]["PYTHONDONTWRITEBYTECODE"] == "1"

    def same_but_cache(a, b):
        return a["command"] == b["command"] and (
            {**a["env"], "PYTHONPYCACHEPREFIX": ""} == {**b["env"], "PYTHONPYCACHEPREFIX": ""})

    assert same_but_cache(*warm)
    assert same_but_cache(*measured[:2]) and same_but_cache(*measured[2:])
    assert not any(Path(cache).exists() for cache in caches.values())  # removed when the tool ends


def test_differing_benchmark_code_is_a_fault_that_withholds_the_gain(tool, tmp_path, monkeypatch):
    """With ``subprocess.run`` stubbed and the change ahead in every pair: a
    checkout whose ``perfbench/`` differs from the other's is a fault naming
    the first differing path, the gain is withheld and the tool exits with 1;
    ``out/`` and ``__pycache__/`` are not compared."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "perfbench" / "out").mkdir(parents=True)
        (checkout / "perfbench" / "__pycache__").mkdir()
        (checkout / "BENCHMARK.json").write_text((BENCH_PAIRS.parents[1] / "BENCHMARK.json").read_text())
        for name in ("run.py", "workloads.py"):
            (checkout / "perfbench" / name).write_text("REPEATS = 50\n")
        (checkout / "perfbench" / "out" / "last.json").write_text(checkout.name)
        (checkout / "perfbench" / "__pycache__" / "run.pyc").write_text(checkout.name)

    def fake_run(command, cwd, env, **kwargs):
        rate = 200.0 if cwd == change else 100.0 + int(command[command.index("--seed") + 1]) % 7
        result = {"correct": True, "failed": 0, "metrics": {
            "setup_s": {"value": 0.15}, "protocols_per_s": {"value": rate}, "peak_rss_mb": {"value": 40.0}}}
        stdout = f"first-round output digest 47e0d99a484ddb47\n{json.dumps(result)}\n"
        return subprocess.CompletedProcess(command, 0, stdout=stdout)

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "report", "--seeds", "101-110",
            "--out", str(tmp_path / "pairs.json")]
    assert tool.main(argv) == 0
    assert json.loads((tmp_path / "pairs.json").read_text())["summary"]["protocols_per_s"]["verdict"] == "gain"

    (change / "perfbench" / "workloads.py").write_text("REPEATS = 5\n")
    (change / "perfbench" / "spread.py").write_text("")  # on one side only
    assert tool.main(argv) == 1
    record = json.loads((tmp_path / "pairs.json").read_text())
    assert record["faults"] == [
        "benchmark code differs between the checkouts at perfbench/spread.py: no gain without the same benchmark"]
    assert record["summary"]["protocols_per_s"]["change_wins"] == 10
    assert record["summary"]["protocols_per_s"]["verdict"] == "not worse"
    (change / "perfbench" / "spread.py").unlink()
    assert tool.benchmark_difference(parent, change) == "perfbench/workloads.py"
    (change / "BENCHMARK.json").write_text("{}")
    assert tool.benchmark_difference(parent, change) == "BENCHMARK.json"
