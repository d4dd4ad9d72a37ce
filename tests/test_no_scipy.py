"""numpy is the only runtime dependency, and CI installs only numpy, pytest,
hypothesis and jsonschema.  scipy may be installed locally, where a stray
import would pass and then fail only in CI, so this scans the sources."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "tests", "bench")


def imported_modules(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


@pytest.mark.parametrize("top", DIRS)
def test_no_file_imports_scipy(top):
    files = sorted((ROOT / top).rglob("*.py"))
    assert files
    offenders = [
        str(path.relative_to(ROOT))
        for path in files
        if any(name.split(".")[0] == "scipy" for name in imported_modules(path))
    ]
    assert not offenders, f"scipy imported by {offenders}"


def test_the_scan_sees_a_scipy_import(tmp_path):
    path = tmp_path / "stray.py"
    path.write_text("import numpy\nfrom scipy.linalg import expm\n")
    assert imported_modules(path) == ["numpy", "scipy.linalg"]
