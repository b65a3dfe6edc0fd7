"""Shared fixtures for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmridesign


@pytest.fixture
def run_cli():
    """Run ``python -m qmridesign <args>`` in ``cwd``; returns the
    ``CompletedProcess``. With ``check=True`` a non-zero exit fails the
    test with the command and the child's stderr."""
    # The directory holding the package this process imported goes first on
    # the child's PYTHONPATH, as an absolute path: the child then runs the
    # same copy under test, installed or not. A relative entry such as
    # PYTHONPATH=src does not resolve from the child's working directory.
    # The rest of the child's environment is this process's at the call.
    package_root = Path(qmridesign.__file__).resolve().parents[1]

    def run(args, cwd, *, check=False):
        inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(package_root), *inherited]))
        cmd = [sys.executable, "-m", "qmridesign", *args]
        result = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, env=env)
        if check and result.returncode != 0:
            pytest.fail(
                f"{' '.join(cmd)} exited with {result.returncode}:\n{result.stderr}",
                pytrace=False,
            )
        return result

    return run
