"""Every function the benchmark's tracer rebinds must still exist in cpdyn.

`bench/tracing.py` looks each name in its `LAYERS` table up on its
`cpdyn.<module>`; a missing name breaks `bench/run.py --trace 1` without
failing any other test.  The table is read from the file, not copied.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_layers() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_traced_names_resolve_in_cpdyn():
    layers = load_layers()
    assert layers
    missing = [
        f"cpdyn.{mod}.{fn}"
        for mod, fns in layers.items()
        for fn in fns
        if not hasattr(importlib.import_module(f"cpdyn.{mod}"), fn)
    ]
    assert not missing, f"names traced by bench/tracing.py are gone: {missing}"
