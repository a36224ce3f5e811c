"""Smoke runs of every script in ``demos/`` at tiny sizes.

Each demo is started as its own process, as a reader would run it, so
an API change that breaks a demo fails here rather than going unseen.
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

#: Tiny arguments per demo; every demo in the directory must be listed.
TINY_ARGS = {
    "collector_bounds.py": ["--n", "200", "--k", "10", "--replicas", "300"],
    "coupling_merge.py": ["--n", "60", "--k", "12", "--replicas", "300"],
    "cutoff_curve.py": ["--sizes", "40", "80"],
    "labeled_gap.py": ["--n", "200", "--k", "10", "--threshold", "3", "--replicas", "300"],
    "reflection_walk.py": ["--q", "0.5", "--start", "3"],
    "window_growth.py": ["--sizes", "40", "80", "160", "--fixed-n", "200"],
}


def test_every_demo_has_tiny_arguments():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(TINY_ARGS)


@pytest.mark.parametrize("name", sorted(TINY_ARGS))
def test_demo_runs(name, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name), *TINY_ARGS[name]],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
