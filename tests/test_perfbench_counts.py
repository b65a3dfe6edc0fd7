"""Every call count the benchmark derives is the count its traced run measures.

``perfbench/workloads.py`` derives each workload's per-round call counts
from its sizes, and a traced run of the benchmark rejects a count that the
spans do not confirm. This runs every workload once, tiny and traced, and
applies ``perfbench/run.py``'s own ``count_mismatches``, so a change that
moves a count fails here and not only in the minute-long
``perfbench/selfcheck.py``. The benchmark runs from a copy, because a
traced run writes its span file next to its own scripts.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path, monkeypatch):
    """The module at ``path``, importable by its stem while the test runs."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, path.stem, module)
    spec.loader.exec_module(module)
    return module


def test_traced_counts_equal_derived_counts(tmp_path, monkeypatch):
    before = sorted((ROOT / "perfbench").rglob("*"))
    bench = shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
    load(bench / "tracer.py", monkeypatch)  # run.py imports it by name
    run = load(bench / "run.py", monkeypatch)
    env = dict(os.environ, **run.THREAD_PINS, PYTHONPATH=str(ROOT / "src"))
    problems = {}
    for workload in run.WORKLOADS:
        command = [sys.executable, str(bench / "workloads.py"), "--workload", workload, "--seed", "7",
                   "--seconds", "0", "--spawned-at", repr(time.monotonic()), "--tiny", "--trace", "1"]
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=300, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        found = result["problems"] + run.count_mismatches(result["counts"], result["traced_counts"])
        if found:
            problems[workload] = found
    assert problems == {}
    assert sorted((ROOT / "perfbench").rglob("*")) == before
