"""Every function the benchmark's tracer rebinds must still exist in cpdyn,
with the parameter names the tracer binds its samples by.

`bench/tracing.py` looks each name in its `LAYERS` table up on its
`cpdyn.<module>`, and checks sampled calls by calling
`reduced_dynamics_distance(psi.mat, **args)` and `kernel_problems(args["v"], k)`
with the arguments bound by name.  A missing or renamed name breaks
`bench/run.py --trace 1` without failing any other test.  The table and the
reference functions are read from the file, not copied.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from cpdyn import channels, consistency

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def params(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_traced_names_resolve_in_cpdyn():
    layers = load_tracing().LAYERS
    assert layers
    missing = [
        f"cpdyn.{mod}.{fn}"
        for mod, fns in layers.items()
        for fn in fns
        if not hasattr(importlib.import_module(f"cpdyn.{mod}"), fn)
    ]
    assert not missing, f"names traced by bench/tracing.py are gone: {missing}"


def test_sampled_calls_bind_to_the_reference_checks():
    tracing = load_tracing()
    # reduced_dynamics_distance(psi_mat, **arguments of reduced_dynamics)
    assert params(tracing.reduced_dynamics_distance)[1:] == params(channels.reduced_dynamics)
    # kernel_problems(v, k) reads the argument of kernel_tr_e named v
    assert params(consistency.kernel_tr_e) == params(tracing.kernel_problems)[:1]
