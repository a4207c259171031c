"""Each script under scripts/ runs to exit 0 and prints its golden stdout."""

import os
import pathlib
import subprocess
import sys

import pytest

from conftest import GOLDEN

ROOT = pathlib.Path(__file__).parent.parent
SCRIPTS = sorted(p.stem for p in (ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_prints_its_golden(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == (GOLDEN / "scripts" / f"{name}.txt").read_text()
