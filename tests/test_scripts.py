"""Each script under scripts/ runs to exit 0 and prints its golden stdout,
and refuses bad arguments with exit 2 and one line."""

import os
import pathlib
import subprocess
import sys

import pytest

from conftest import GOLDEN

ROOT = pathlib.Path(__file__).parent.parent
SCRIPTS = sorted(p.stem for p in (ROOT / "scripts").glob("*.py"))


def script(name, *args) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_prints_its_golden(name):
    run = script(name)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == (GOLDEN / "scripts" / f"{name}.txt").read_text()


@pytest.mark.parametrize("steps", ["0", "-2"])
def test_bell_sweep_refuses_fewer_than_one_step(steps):
    """Exit 2 with one line, before the CSV header, as `qlogic bell
    --sweep 0` does."""
    run = script("bell_sweep", "--steps", steps)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == f"error: a sweep needs steps >= 1, got {steps}\n"
