"""Each demo runs from a source checkout, exits 0 and prints pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout, recorded before the coset routine
# replaced the materialise-then-quotient route.
STDOUT_SHA256 = {
    "01_building_blocks.py":
        "b481560f84ff544df52cec2d4ec57a82b94177530ec28ad91c1e76996467b58e",
    "02_goursat_walkthrough.py":
        "9a2f6924b250dc63c49c7a3ea65aa0aae5cc8da19d25e0b440763d0b689c6237",
    "03_extensibility.py":
        "ab1d6b91d285985dc7accac5c5b4029100680cfcd36fcbb141301e9638940159",
    "04_composition.py":
        "f304cf5a6b7b260cb3ba572fb4583254c571ec2beab929306f46f72399462f77",
    "05_oracle_crosscheck.py":
        "467875000967e61d484a427df19929c92e147c7eaab7c057eaac0e1922410ba5",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == \
        sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_runs_with_unchanged_output(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         capture_output=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == STDOUT_SHA256[name]
