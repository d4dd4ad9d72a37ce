"""The scripts under scripts/ run end to end at small sizes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_run_theorem_demos(tmp_path):
    proc = run_script("run_theorem_demos.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for example in ("1", "2"):
        report = json.loads((tmp_path / f"demo{example}.json").read_text())
        assert report["summary"]["pass"]
        assert f"demo {example}: pass=True" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("find_cp_violation.py", "--draws", "20"),
        ("dpi_sweep.py", "--trials", "2", "--search-draws", "50"),
    ],
)
def test_script_exits_zero(argv):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    json.loads(proc.stdout)
