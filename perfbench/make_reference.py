"""Write perfbench/reference.json: the expected means the output checks use.

Run from the root of a checkout:

    PYTHONPATH=src python3 perfbench/make_reference.py

It runs the first round of ``report`` and ``rl_search`` at full size for
REFERENCE_SEEDS and stores, for every checked mean, [mean, per-sample
standard deviation]. The checks accept a run's mean when it lies within
TOLERANCE_Z standard errors of the stored one, so the references describe
the model's behaviour, not one seed's draws. Regenerate them only when the
model is meant to change, and say so.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import workloads
from qmridesign.config import load_experiment_config

REFERENCE_SEEDS = range(1000, 1008)


def pooled(means, stds) -> list:
    """[grand mean, per-sample standard deviation] of equal-sized groups."""
    means, stds = np.asarray(means), np.asarray(stds)
    within_var = float(np.mean(stds**2))
    return [float(means.mean()), math.sqrt(within_var + float(means.var()))]


def main() -> None:
    config = load_experiment_config(workloads.CONFIG_PATH)
    cells, aucs = {}, {}
    for seed in REFERENCE_SEEDS:
        out = workloads.Report(config, seed, tiny=False).run_round(0, None)
        for (name, snr), value in out["cells"].items():
            cells.setdefault((name, snr), []).append(value)
        for task, params in out["auc"].items():
            for param, value in params.items():
                aucs.setdefault((task, param), []).append(value)
    accuracy, auc = {}, {}
    for (name, snr), values in cells.items():
        accuracy.setdefault(name, {})[repr(snr)] = pooled(*zip(*values))
    for (task, param), values in aucs.items():
        auc.setdefault(task, {})[param] = pooled(*zip(*values))

    rewards = []
    for seed in REFERENCE_SEEDS:
        out = workloads.RlSearch(config, seed, tiny=False).run_round(0, None)
        rewards += [reward for _, reward, _ in out["records"]]
    reference = {
        "about": (
            "[mean, per-sample sd] at the commit that wrote this file, first round "
            f"of seeds {REFERENCE_SEEDS.start}..{REFERENCE_SEEDS.stop - 1}; "
            "written by perfbench/make_reference.py"
        ),
        "report": {"accuracy": accuracy, "auc": auc},
        "rl_search": {"mean_reward": [float(np.mean(rewards)), float(np.std(rewards))]},
    }
    path = workloads.REFERENCE_PATH
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {os.path.relpath(path)}")


if __name__ == "__main__":
    main()
