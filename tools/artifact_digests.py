"""Print one sha256 per artifact of the determinism check's command sequence.

This tool defines acceptance criterion C06, which runs ``digest_lines``
twice and compares the lines. It runs validate, calibrate, evaluate,
sweep-snr, optimize crlb, optimize rl, plot and report with C06's config in
a work directory, then gives ``<sha256>  <artifact>`` per artifact and one
line for the combined stdout; runs that give the same lines wrote the same
bytes. A file the sequence writes that ``ARTIFACTS`` does not list is an
error, so no artifact drops out of the check unnoticed. What legitimately
varies between runs is masked before hashing:
``report.csv``'s ``wall_clock_s`` column, ``config_snapshot.json``'s
``out_dir``, and in the stdout the work directory and elapsed times. Point
PYTHONPATH at the checkout under test:

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

#: C06's config
CONFIG = {
    "seed": 777,
    "task": "active-chronic",
    "eval": {"n_repeats_report": 3, "n_repeats_reward": 1, "validation_snr": 600.0},
    "crlb": {"iterations": 120, "n_tissue_samples": 8},
    "ppo": {"total_steps": 54, "rollout_steps": 27, "minibatch_size": 16,
            "n_epochs": 2, "hidden_size": 8},
    "snr_list": [15.0, 25.0],
}

#: every file the command sequence writes; any other file in ``out`` is an error
ARTIFACTS = ("auc_report.csv", "tissue_calibrated.json", "calibration_report.json",
             "protocol_crlb.json", "anneal.csv", "protocol_rl.json", "curve.csv", "checkpoint.npz",
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


def digest_lines(run, work: Path) -> list:
    """The digest lines of the command sequence run in ``work``, an existing
    empty directory; ``run(args, cwd)`` returns the stdout of ``qmridesign
    <args>`` run in ``cwd`` and fails on a non-zero exit. Raises ValueError
    if the sequence leaves a file in ``out`` that ARTIFACTS does not list,
    so that no artifact goes undigested."""
    out = work / "out"
    config = work / "config.json"
    config.write_text(json.dumps({**CONFIG, "out_dir": str(out)}))
    stdout = "".join(run(args, work) for args in commands(config, out))
    undigested = sorted(path.name for path in out.iterdir() if path.name not in ARTIFACTS)
    if undigested:
        raise ValueError(f"the command sequence wrote artifacts that ARTIFACTS does not list: {undigested}")
    stdout = re.sub(r"\(\d+\.\d+s\)", "(<s>)", stdout.replace(str(work), "<tmp>"))
    return [*(f"{hashlib.sha256(masked(out / name)).hexdigest()}  {name}" for name in ARTIFACTS),
            f"{hashlib.sha256(stdout.encode()).hexdigest()}  stdout"]


def main() -> int:
    def run(args: list, cwd: Path) -> str:
        # the child keeps this process's directory, where a relative PYTHONPATH resolves
        done = subprocess.run([sys.executable, "-m", "qmridesign", *args], capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"qmridesign {' '.join(args)} exited with {done.returncode}:\n{done.stderr}")
        return done.stdout

    with tempfile.TemporaryDirectory() as tmp:
        print(*digest_lines(run, Path(tmp)), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
