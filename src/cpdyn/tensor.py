"""Dense complex linear algebra on tensor-product spaces: kron and vec,
partial traces, Tr_E after Ad_U on operator stacks, Haar and Ginibre
sampling, von Neumann entropy, and Hermitian/PSD/density checks.

Conventions used everywhere in this package:

* row-major tensor basis: the index of ``|i1 i2 ... in>`` is
  ``i1*d2*...*dn + ... + in`` (numpy ``kron`` order);
* direct-sum blocks on the system factor are concatenated in declaration
  order, row-major within each ``L x R`` block;
* ``vec`` is row-major flattening, so ``vec(A X B) = (A kron B.T) vec(X)``.

Every function is a pure function of its inputs; RNG state is always
passed explicitly.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "kron",
    "vec",
    "unvec",
    "dagger",
    "partial_trace",
    "tr_e",
    "random_haar_unitary",
    "random_haar_unitaries",
    "random_density",
    "random_hermitian",
    "von_neumann_entropy",
    "swap_unitary",
    "psd_tolerance",
    "min_eigenvalue",
    "is_hermitian",
    "psd_check",
    "check_density",
]

# Scale-aware PSD acceptance: min eigenvalue >= -PSD_TOL_FACTOR * max(1, ||m||_2).
PSD_TOL_FACTOR = 1e-9
HERM_TOL = 1e-9
# Eigenvalues below this are treated as exact zeros in entropy sums.
ENTROPY_EIG_CUTOFF = 1e-12


def kron(*mats: np.ndarray) -> np.ndarray:
    """Tensor product in row-major convention (left factor most significant)."""
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def vec(m: np.ndarray) -> np.ndarray:
    """Row-major vectorization."""
    return np.asarray(m, dtype=complex).reshape(-1)


def unvec(v: np.ndarray, rows: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if rows is None:
        rows = int(round(math.isqrt(v.size)))
        if rows * rows != v.size:
            raise ValueError(f"cannot unvec length-{v.size} vector to a square matrix")
    return v.reshape(rows, v.size // rows)


def dagger(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


def partial_trace(m: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep`` (by position).

    ``dims`` are the factor dimensions in row-major order; the result keeps
    the surviving factors in their original order.  The full trace is
    preserved: tr(result) = tr(m).  Leading axes of ``m`` beyond the last
    two are batch axes and are kept.
    """
    dims = tuple(dims)
    keep = tuple(sorted(keep))
    n = len(dims)
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep positions {keep} out of range for {n} factors")
    m = np.asarray(m, dtype=complex)
    batch = m.shape[:-2]
    nb = len(batch)
    t = m.reshape(batch + dims + dims)
    # Trace the discarded axes pairwise, from the highest axis down so that
    # earlier axis numbers stay valid.
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=nb + ax, axis2=nb + ax + (t.ndim - nb) // 2)
    d_keep = math.prod(dims[k] for k in keep) if keep else 1
    return t.reshape(batch + (d_keep, d_keep))


def tr_e(cols: np.ndarray, d_s: int, d_e: int, u: np.ndarray | None = None) -> np.ndarray:
    """``vec Tr_E(U X U^dagger)`` for each column ``vec X`` of a ``(d^2, k)`` stack.

    ``d = d_s * d_e`` and the result is a ``(d_s^2, k)`` stack; with
    ``u=None`` only the environment trace is applied.  No superoperator is
    formed: the cost is one ``(d, d) x (d, d k)`` product plus one
    ``d_s``-batched ``(d_s, d d_e) x (d d_e, k)`` product that applies
    ``U^dagger`` and the trace together.
    """
    d = d_s * d_e
    x = np.asarray(cols, dtype=complex)
    n = x.shape[1]
    if u is None:
        t = x.reshape(d_s, d_e, d_s, d_e, n)
        return np.einsum("aebek->abk", t).reshape(d_s * d_s, n)
    u = np.asarray(u, dtype=complex)
    # (U X_k)[(s, e), c] laid out as [s, (e, c), k].
    ux = (u @ x.reshape(d, d * n)).reshape(d_s, d_e * d, n)
    # Tr_E(U X_k U^dagger)[s, t] = sum_(e, c) conj(U)[(t, e), c] (U X_k)[(s, e), c].
    return (u.conj().reshape(d_s, d_e * d) @ ux).reshape(d_s * d_s, n)


def random_haar_unitaries(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """A ``(n, dim, dim)`` stack of Haar-random unitaries, via QR of complex
    Ginibre matrices.

    Each matrix takes its real part and then its imaginary part from the
    stream, so the stack equals ``n`` successive ``random_haar_unitary``
    draws and leaves ``rng`` in the same state.  The diagonal phase fix
    makes the distribution exactly Haar and the output a deterministic
    function of the RNG state.
    """
    x = rng.normal(size=(n, 2, dim, dim))
    q, r = np.linalg.qr(x[:, 0] + 1j * x[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def random_haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-random unitary: ``random_haar_unitaries`` with ``n = 1``."""
    return random_haar_unitaries(1, dim, rng)[0]


def random_density(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random density matrix of the given rank, from a Ginibre factor G G^dagger."""
    if rank < 1 or rank > dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def von_neumann_entropy(rho: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy in nats, with 0 log 0 := 0.

    Leading axes beyond the last two are batch axes: one stacked
    ``eigvalsh`` gives an array of entropies.  A single matrix gives a float.
    """
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    if w.ndim == 1:
        w = w[w > ENTROPY_EIG_CUTOFF]
        return float(-(w * np.log(w)).sum())
    # eigvalsh sorts ascending, so the eigenvalues kept form a suffix.  Rows
    # are summed in stacks of equal suffix length, so that each entropy is
    # the one its matrix gives alone, bit for bit.
    kept = (w > ENTROPY_EIG_CUTOFF).sum(axis=-1)
    out = np.empty(kept.shape)
    for k in set(kept.flat):
        rows = kept == k
        tail = w[rows][:, w.shape[-1] - k:]
        out[rows] = -(tail * np.log(tail)).sum(axis=-1)
    return out


def swap_unitary(d: int) -> np.ndarray:
    """Swap operator on a d x d bipartite space: |a,b> -> |b,a>."""
    u = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            u[b * d + a, a * d + b] = 1.0
    return u


def psd_tolerance(m: np.ndarray) -> float:
    """Scale-aware tolerance: a matrix counts as PSD down to -psd_tolerance(m)."""
    norm = np.linalg.norm(np.asarray(m), 2)
    return PSD_TOL_FACTOR * max(1.0, norm)


def min_eigenvalue(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(np.asarray(m, dtype=complex)).min())


def is_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> bool:
    m = np.asarray(m)
    return np.linalg.norm(m - m.conj().T) <= tol * max(1.0, np.linalg.norm(m))


def psd_check(m: np.ndarray) -> tuple[bool, float]:
    """Whether ``m`` is Hermitian and PSD down to the scale-aware tolerance,
    and the least eigenvalue of its Hermitian part.

    One ``eigvalsh`` of the Hermitian part gives both the smallest
    eigenvalue and the scale ``max |lambda|``, its spectral norm.
    """
    m = np.asarray(m)
    w = np.linalg.eigvalsh((m + dagger(m)) / 2)
    ok = is_hermitian(m) and w[0] >= -PSD_TOL_FACTOR * max(1.0, float(np.abs(w).max()))
    return bool(ok), float(w[0])


def check_density(rho: np.ndarray, name: str = "state") -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity; returns the array."""
    rho = np.asarray(rho, dtype=complex)
    psd, _ = psd_check(rho)  # also False when rho is not Hermitian
    if not psd and not is_hermitian(rho):
        raise ValueError(f"{name} is not Hermitian")
    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"{name} has trace {tr}, expected 1")
    if not psd:
        raise ValueError(f"{name} is not positive semidefinite")
    return rho

