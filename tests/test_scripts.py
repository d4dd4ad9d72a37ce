"""The scripts under scripts/ run end to end at small sizes."""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_find_cp_violation_exits_zero():
    proc = run_script("find_cp_violation.py", "--draws", "20")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    json.loads(proc.stdout)
