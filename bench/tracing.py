"""Per-layer tracing from outside the program.

`Tracer.install` wraps each function listed in `LAYERS` once and rebinds
the wrapper at its module attribute and at every `from ... import` binding
in the other cpdyn modules, so calls such as `consistency`'s own
`reduced_dynamics` are counted too.  `OperatorSubspace` is traced through
its `__init__`, which counts every construction.

Per round the tracer records, for each function, its calls and inclusive
seconds, and for each module its self seconds (inclusive time minus the
time of traced calls made from inside it).  In rounds run with
`track_memory` set it records instead, for the functions in `PEAK`, the
largest `tracemalloc` peak over one call; `tracemalloc` then runs only while
one of those functions is on the stack.  Those rounds are not timed, since
`tracemalloc` slows every allocation made under it.

The first and last result per round of `channels.reduced_dynamics` and
`consistency.kernel_tr_e` are kept and checked after the round, outside
every timed interval, against the benchmark's own computations.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import tracemalloc

import numpy as np

LAYERS: dict[str, tuple[str, ...]] = {
    "tensor": (
        "partial_trace", "von_neumann_entropy", "min_eigenvalue",
        "psd_tolerance", "random_haar_unitary", "is_hermitian",
    ),
    "channels": (
        "reduced_dynamics", "trace_out_env_matrix", "choi", "is_cp", "is_tp",
        "is_tp_on_domain", "choi_distance", "channel_from_function", "kraus_factorized",
    ),
    "consistency": (
        "OperatorSubspace", "span_from_states", "full_space", "subspace_from_constraint",
        "kernel_tr_e", "canonical_assignment", "perturb_assignment",
        "g_consistency_report", "u_consistency_violation", "theorem1_verify",
    ),
    "families": ("sample_member", "random_params", "build_markov_state", "structure_fit"),
    "info": ("dpi_check", "mutual_information", "conditional_mutual_information"),
    "cli": ("run",),
}

PEAK = frozenset({
    "channels.reduced_dynamics", "channels.trace_out_env_matrix",
    "consistency.OperatorSubspace", "consistency.span_from_states",
    "consistency.full_space", "consistency.subspace_from_constraint",
    "consistency.kernel_tr_e", "consistency.canonical_assignment",
    "consistency.g_consistency_report", "consistency.u_consistency_violation",
})

SAMPLED = ("channels.reduced_dynamics", "consistency.kernel_tr_e")

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
OVERHEAD_METRIC = "trace.overhead_s"

# Bounds for the reference checks of sampled results.
REDUCED_DYNAMICS_TOL = 1e-10
KERNEL_TOL = 1e-9
RANK_FACTOR = 1e-9


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        if name in PEAK:
            units[f"{name}.peak_mb"] = "MB"
    for mod in LAYERS:
        units[f"{mod}.self_s"] = "s"
    units[OVERHEAD_METRIC] = "s"
    return units


class Tracer:
    def __init__(self):
        self.rounds: list[dict] = []
        self.peak_bytes = dict.fromkeys(PEAK, 0)
        self.track_memory = False
        self._stack: list[float] = []  # child seconds of each open traced call
        self._mem: list[list[int]] = []  # [current at entry, peak so far] per open PEAK call
        self.begin_round()

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items() if name == "cpdyn" or name.startswith("cpdyn.")]
        for mod, fns in LAYERS.items():
            owner = sys.modules[f"cpdyn.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                if fn == "OperatorSubspace":
                    cls = owner.OperatorSubspace
                    cls.__init__ = self._wrap(name, mod, cls.__init__)
                    continue
                orig = getattr(owner, fn)
                wrapped = self._wrap(name, mod, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)

    def _wrap(self, name: str, module: str, fn):
        stack = self._stack
        peak = name in PEAK
        sampled = name in SAMPLED
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            mem = peak and self.track_memory
            if mem:
                self._mem_enter()
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                cur = self._cur
                cur["calls"][name] += 1
                cur["s"][name] += dur
                cur["self_s"][module] += dur - child
                if mem:
                    self._mem_exit(name)
            if sampled:
                kept = self._samples[name]
                entry = (args, kwargs, result)
                if len(kept) < 2:
                    kept.append(entry)
                else:
                    kept[1] = entry
            return result

        return traced

    def _mem_enter(self):
        if not self._mem:
            tracemalloc.start()
            base = 0
        else:
            base, peak = tracemalloc.get_traced_memory()
            top = self._mem[-1]
            top[1] = max(top[1], peak)
            tracemalloc.reset_peak()
        self._mem.append([base, base])

    def _mem_exit(self, name: str):
        _, peak = tracemalloc.get_traced_memory()
        base, seen = self._mem.pop()
        peak = max(peak, seen)
        self.peak_bytes[name] = max(self.peak_bytes[name], peak - base)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
        else:
            tracemalloc.stop()

    # -- rounds ------------------------------------------------------------

    def begin_round(self):
        self._cur = {
            "calls": dict.fromkeys(FUNCTIONS, 0),
            "s": dict.fromkeys(FUNCTIONS, 0.0),
            "self_s": dict.fromkeys(LAYERS, 0.0),
        }
        self._samples = {name: [] for name in SAMPLED}

    def end_round(self, keep: bool) -> list[str]:
        """Close the round; keep its timings if the round is to be counted and
        was not a memory round.  Runs the reference checks on the sampled
        results and returns their failures."""
        if keep and not self.track_memory:
            self.rounds.append(self._cur)
        problems = []
        for args, psi in self._sampled("channels.reduced_dynamics"):
            dist = reduced_dynamics_distance(psi.mat, **args)
            if not dist <= REDUCED_DYNAMICS_TOL:
                problems.append(f"reduced_dynamics differs from the reference by {dist:.3e}")
        for args, k in self._sampled("consistency.kernel_tr_e"):
            problems += kernel_problems(args["v"], k)
        self.begin_round()
        return problems

    def _sampled(self, name: str):
        """The round's kept calls of `name` as (arguments by name, result)."""
        mod, fn = name.split(".")
        sig = inspect.signature(getattr(sys.modules[f"cpdyn.{mod}"], fn))  # follows __wrapped__
        return [(sig.bind(*a, **kw).arguments, r) for a, kw, r in self._samples[name]]

    def metrics(self) -> dict[str, float]:
        """Median per-round figures over the kept rounds; peaks over all calls."""
        out = {}
        med = statistics.median
        for name in FUNCTIONS:
            out[f"{name}.calls"] = med(r["calls"][name] for r in self.rounds)
            out[f"{name}.s"] = med(r["s"][name] for r in self.rounds)
            if name in PEAK:
                out[f"{name}.peak_mb"] = self.peak_bytes[name] / 2**20
        for mod in LAYERS:
            out[f"{mod}.self_s"] = med(r["self_s"][mod] for r in self.rounds)
        return out


# -- reference computations -------------------------------------------------


def trace_env(x: np.ndarray, d_s: int, d_e: int) -> np.ndarray:
    """Tr_E of a stack of vectorized operators, columns in, columns out."""
    n = x.shape[1]
    return np.einsum("aebek->abk", x.reshape(d_s, d_e, d_s, d_e, n)).reshape(d_s * d_s, n)


def choi_of(mat: np.ndarray, d: int) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) Psi(|i><j|) of a (d^2, d^2) map matrix."""
    return mat.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)


def reduced_dynamics_distance(psi_mat, u, assign_mat, d_s, d_e) -> float:
    """Frobenius distance between the Choi matrix of `psi_mat` and that of
    x -> Tr_E(U Lambda(x) U^dag), with Lambda given by `assign_mat`."""
    d = d_s * d_e
    lam = np.asarray(assign_mat).reshape(d, d, d_s * d_s)  # Lambda(|i><j|) at k = i d_s + j
    evolved = np.einsum("ab,bck,dc->adk", u, lam, np.conj(u), optimize=True)
    ref = trace_env(evolved.reshape(d * d, -1), d_s, d_e)
    return float(np.linalg.norm(choi_of(psi_mat, d_s) - choi_of(ref, d_s)))


def kernel_problems(v, k) -> list[str]:
    """A kernel of Tr_E on V must be orthonormal, lie in V, vanish under
    Tr_E and have dimension dim V - rank(Tr_E restricted to V)."""
    problems = []
    b, kb = v.basis, k.basis
    n0 = kb.shape[1]
    scale = max(1, n0)
    gram = np.linalg.norm(kb.conj().T @ kb - np.eye(n0))
    if not gram <= KERNEL_TOL * scale:
        problems.append(f"kernel basis not orthonormal ({gram:.3e})")
    outside = np.linalg.norm(kb - b @ (b.conj().T @ kb))
    if not outside <= KERNEL_TOL * scale:
        problems.append(f"kernel leaves V ({outside:.3e})")
    if n0:
        traced = np.linalg.norm(trace_env(kb, v.d_s, v.d_e), axis=0).max()
        if not traced <= KERNEL_TOL:
            problems.append(f"kernel not annihilated by Tr_E ({traced:.3e})")
    sv = np.linalg.svd(trace_env(b, v.d_s, v.d_e), compute_uv=False)
    rank = int((sv > RANK_FACTOR * sv[0]).sum()) if sv.size and sv[0] > 0 else 0
    if n0 != b.shape[1] - rank:
        problems.append(f"kernel dimension {n0} != dim V {b.shape[1]} - rank {rank}")
    return problems
