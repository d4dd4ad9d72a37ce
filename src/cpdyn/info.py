"""Mutual information, conditional mutual information and the data
processing inequality on tripartite ancilla-system-environment states.

All entropies are in nats.  Sampling-based searches report the best
violation found; absence of a violation is never a Markovianity
certificate.
"""

from __future__ import annotations

import numpy as np

from .tensor import partial_trace, random_haar_unitaries, von_neumann_entropy

__all__ = [
    "mutual_information",
    "conditional_mutual_information",
    "dpi_check",
    "search_dpi_violation",
]

# Unitaries per stack in search_dpi_violation.  At the 64-dimension cap a
# chunk's two (64 x 64) state stacks take 2 MB, whatever the number of draws;
# 32 or more would add over 10% to the peak RSS of a cap-size `dpi` run.
_CHUNK = 16


def mutual_information(omega_as: np.ndarray, d_a: int, d_s: int) -> float | np.ndarray:
    """I(A:S) = S(A) + S(S) - S(AS) for the declared bipartition.

    Leading axes beyond the last two are batch axes, as in
    ``von_neumann_entropy``; a single state gives a float.
    """
    omega_as = np.asarray(omega_as, dtype=complex)
    if omega_as.shape[-1] != d_a * d_s:
        raise ValueError(f"state dim {omega_as.shape[-1]} != {d_a}*{d_s}")
    s_a = von_neumann_entropy(partial_trace(omega_as, (d_a, d_s), keep=(0,)))
    s_s = von_neumann_entropy(partial_trace(omega_as, (d_a, d_s), keep=(1,)))
    return s_a + s_s - von_neumann_entropy(omega_as)


def conditional_mutual_information(
    omega_ase: np.ndarray, d_a: int, d_s: int, d_e: int
) -> float:
    """I(A:E|S) = S(AS) + S(SE) - S(S) - S(ASE); zero exactly on Markov states."""
    omega_ase = np.asarray(omega_ase, dtype=complex)
    if omega_ase.shape[0] != d_a * d_s * d_e:
        raise ValueError(f"state dim {omega_ase.shape[0]} != {d_a}*{d_s}*{d_e}")
    dims = (d_a, d_s, d_e)
    s_as = von_neumann_entropy(partial_trace(omega_ase, dims, keep=(0, 1)))
    s_se = von_neumann_entropy(partial_trace(omega_ase, dims, keep=(1, 2)))
    s_s = von_neumann_entropy(partial_trace(omega_ase, dims, keep=(1,)))
    return s_as + s_se - s_s - von_neumann_entropy(omega_ase)


def dpi_check(
    omega_ase: np.ndarray, d_a: int, d_s: int, d_e: int, u_se: np.ndarray
) -> np.ndarray:
    """Data-processing deltas ``I(A:S) before - I(A:S) after`` for a
    ``(n, d_s d_e, d_s d_e)`` stack of unitaries on S x E followed by Tr_E.

    Each delta is non-negative (to round-off) whenever the input is a
    Markov state.
    """
    return _i_before(omega_ase, d_a, d_s, d_e) - _i_after(omega_ase, d_a, d_s, d_e, u_se)


def _i_before(omega_ase: np.ndarray, d_a: int, d_s: int, d_e: int) -> float:
    """I(A:S) of a state on A x S x E, whose shape is checked here."""
    omega_ase = np.asarray(omega_ase, dtype=complex)
    if omega_ase.shape != (d_a * d_s * d_e,) * 2:
        raise ValueError(f"state shape {omega_ase.shape} is not ({d_a}*{d_s}*{d_e}) square")
    return mutual_information(partial_trace(omega_ase, (d_a, d_s, d_e), keep=(0, 1)), d_a, d_s)


def _i_after(
    omega_ase: np.ndarray, d_a: int, d_s: int, d_e: int, u_se: np.ndarray
) -> np.ndarray:
    """I(A:S) of Tr_E((I_A kron U) omega (I_A kron U)^dagger) for each U of a
    stack.  U acts on the S x E factor of every ``(a, a')`` block of the
    state by batched matmul, so ``I_A kron U`` is never formed."""
    d = d_s * d_e
    u_se = np.asarray(u_se, dtype=complex)
    if u_se.ndim != 3 or u_se.shape[1:] != (d, d):
        raise ValueError(f"evolution must be a stack of {d}x{d} unitaries on S x E")
    # (I_A kron U) omega with rows (a, (s, e)), then times (I_A kron U)^dagger
    # with columns ((a', s'), e') read as rows of d entries.
    left = u_se[:, None] @ np.asarray(omega_ase, dtype=complex).reshape(d_a, d, d_a * d)
    evolved = left.reshape(-1, d_a * d * d_a, d) @ u_se.conj().transpose(0, 2, 1)
    after = partial_trace(evolved.reshape(-1, d_a * d, d_a * d), (d_a, d_s, d_e), keep=(0, 1))
    return mutual_information(after, d_a, d_s)


def search_dpi_violation(
    omega_ase: np.ndarray,
    d_a: int,
    d_s: int,
    d_e: int,
    rng: np.random.Generator,
    draws: int = 500,
) -> dict:
    """Monte-Carlo hunt for a data-processing violation.

    Draws Haar unitaries on S x E and returns the most negative delta seen
    and the index of its first draw.  I(A:S) before is computed once; the
    unitaries are drawn and checked ``_CHUNK`` at a time, in the order of
    single draws, so memory does not grow with ``draws``.  ``found`` flags
    a clear violation; a negative result only means none was found within
    the budget.
    """
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    i_before = _i_before(omega_ase, d_a, d_s, d_e)
    best = np.inf
    best_draw = -1
    for start in range(0, draws, _CHUNK):
        us = random_haar_unitaries(min(_CHUNK, draws - start), d_s * d_e, rng)
        deltas = i_before - _i_after(omega_ase, d_a, d_s, d_e, us)
        i = int(np.argmin(deltas))
        if deltas[i] < best:
            best = float(deltas[i])
            best_draw = start + i
    return {
        "draws": draws,
        "best_delta": best,
        "best_draw": best_draw,
        "found": bool(best < -0.01),
    }
