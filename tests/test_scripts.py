"""Smoke test: every script under scripts/ runs to exit 0 on tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "run_rectangles.py": "--train 120 --valid 40 --test 60 --width 6 --depth 3 --batch 3",
    "run_svd_comparison.py": "--runs 1 --m 80 --d 4 --width 5 --batch 5 --depth 3 --valid 20",
    "model_digests.py": "--workloads randomized --seeds 1",
}


def test_every_script_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SCRIPTS)


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_runs(script):
    args = SCRIPTS[script]
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args.split()],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
