"""Print one sha256 per artifact of the determinism check's command sequence.

Runs the commands of acceptance criterion C06 (validate, calibrate,
evaluate, sweep-snr, optimize crlb, optimize rl, plot, report) with C06's
config in a temporary directory, using the ``qmridesign`` that
``python -m qmridesign`` imports, then prints ``<sha256>  <artifact>`` per
artifact. Two checkouts that print the same lines wrote the same bytes.
What legitimately varies between runs is masked before hashing:
``report.csv``'s ``wall_clock_s`` column, ``config_snapshot.json``'s
``out_dir``, and in the combined stdout the run directory and elapsed
times. Point PYTHONPATH at the checkout under test:

    PYTHONPATH=src python tools/artifact_digests.py
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

#: the config of tests/test_acceptance.py::test_c06_command_determinism
CONFIG = {
    "seed": 777,
    "task": "active-chronic",
    "eval": {"n_repeats_report": 3, "n_repeats_reward": 1, "validation_snr": 600.0},
    "crlb": {"iterations": 120, "n_tissue_samples": 8},
    "ppo": {"total_steps": 54, "rollout_steps": 27, "minibatch_size": 16,
            "n_epochs": 2, "hidden_size": 8},
    "snr_list": [15.0, 25.0],
}

ARTIFACTS = ("auc_report.csv", "tissue_calibrated.json", "calibration_report.json",
             "protocol_crlb.json", "protocol_rl.json", "curve.csv", "checkpoint.npz",
             "accuracy_vs_snr.svg", "report.csv", "config_snapshot.json")


def commands(config: Path, out: Path) -> list:
    """C06's command sequence, in order."""
    base = ["--config", str(config)]
    return [
        ["validate", *base],
        ["calibrate", *base, "--budget", "0"],
        ["evaluate", *base, "--optimizer", "adhoc"],
        ["sweep-snr", *base, "--optimizer", "adhoc", "--label", "sweep"],
        ["optimize", *base, "--optimizer", "crlb"],
        ["optimize", *base, "--optimizer", "rl"],
        ["plot", *base, "--report", str(out / "report.csv")],
        ["report", "--report", str(out / "report.csv")],
    ]


def masked(path: Path) -> bytes:
    """The artifact's bytes, with the fields that vary between runs blanked."""
    if path.name == "report.csv":
        rows = list(csv.reader(io.StringIO(path.read_text(), newline="")))
        column = rows[0].index("wall_clock_s")
        text = io.StringIO()
        csv.writer(text).writerows(
            [*rows[:1], *([*row[:column], "", *row[column + 1:]] for row in rows[1:])])
        return text.getvalue().encode()
    if path.name == "config_snapshot.json":
        return json.dumps({**json.loads(path.read_text()), "out_dir": ""}, sort_keys=True).encode()
    return path.read_bytes()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({**CONFIG, "out_dir": str(out)}))
        stdout = []
        for args in commands(config, out):
            run = subprocess.run([sys.executable, "-m", "qmridesign", *args],
                                 capture_output=True, text=True)
            if run.returncode != 0:
                sys.exit(f"qmridesign {' '.join(args)} exited with {run.returncode}:\n{run.stderr}")
            stdout.append(re.sub(r"\(\d+\.\d+s\)", "(<s>)", run.stdout.replace(tmp, "<tmp>")))
        for name in ARTIFACTS:
            print(f"{hashlib.sha256(masked(out / name)).hexdigest()}  {name}")
        print(f"{hashlib.sha256(''.join(stdout).encode()).hexdigest()}  stdout")
    return 0


if __name__ == "__main__":
    sys.exit(main())
