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
    "heldout_errors.py": "--cases logistic --seeds 1",
}


def test_every_script_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SCRIPTS)


def run_script(script, args):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args.split()],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_runs(script):
    done = run_script(script, SCRIPTS[script])
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_model_digests_compare(tmp_path):
    case = "--workloads logistic --seeds 1 2"
    saved = run_script("model_digests.py", case)
    assert saved.returncode == 0, saved.stderr
    first, second = saved.stdout.splitlines()
    path = tmp_path / "digests.txt"
    path.write_text(saved.stdout)
    clean = run_script("model_digests.py", f"{case} --compare {path}")
    assert clean.returncode == 0, clean.stderr
    assert clean.stdout.splitlines() == [f"0 of 2 lines differ from {path}"]
    altered = first.replace(" depth_cap ", " empty_layer ")
    assert altered != first
    path.write_text(f"{altered}\n{second}\n")
    changed = run_script("model_digests.py", f"{case} --compare {path}")
    assert changed.returncode == 1, changed.stderr
    assert changed.stdout.splitlines() == [f"- {altered}", f"+ {first}",
                                           f"1 of 2 lines differ from {path}"]
