"""Mutual information, conditional mutual information and the data
processing inequality on tripartite ancilla-system-environment states.
After a unitary U on S x E, the (a, a') block of the state on A x S is
Tr_E(U omega_aa' U^dagger), so one ``tensor.tr_e`` over the blocks gives it.

A unitary on S x E leaves rho_A unchanged, so S(A) cancels from every
data-processing delta: a delta is a difference of -S(A|S) = S(S) - S(AS),
and S(A) is never computed for it.  Each Markov state's S(AS) and S(S)
are computed once, for its CMI and its "before" term together.

All entropies are in nats.  Sampling-based searches report the best
violation found; absence of a violation is never a Markovianity
certificate.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    _transpose_last,
    haar_unitaries,
    partial_trace,
    per_stream,
    stacks,
    tr_e,
    von_neumann_entropy,
)

__all__ = [
    "mutual_information",
    "conditional_mutual_information",
    "dpi_check",
    "search_dpi_violation",
]

def mutual_information(omega_as: np.ndarray, d_a: int, d_s: int) -> float | np.ndarray:
    """I(A:S) = S(A) + S(S) - S(AS) for the declared bipartition.

    Leading axes beyond the last two are batch axes, as in
    ``von_neumann_entropy``; a single state gives a float.
    """
    omega_as = _check_state(omega_as, d_a, d_s, 1)
    s_a = von_neumann_entropy(partial_trace(omega_as, (d_a, d_s), keep=(0,)))
    s_s = von_neumann_entropy(partial_trace(omega_as, (d_a, d_s), keep=(1,)))
    return s_a + s_s - von_neumann_entropy(omega_as)


def _check_state(omega_ase: np.ndarray, d_a: int, d_s: int, d_e: int) -> np.ndarray:
    """A state on A x S x E, or a stack of them along leading axes, as a
    complex array; any other shape is refused, by name."""
    omega_ase = np.asarray(omega_ase, dtype=complex)
    if omega_ase.shape[-2:] != (d_a * d_s * d_e,) * 2:
        raise ValueError(f"state shape {omega_ase.shape} is not ({d_a}*{d_s}*{d_e}) square")
    return omega_ase


def conditional_mutual_information(
    omega_ase: np.ndarray, d_a: int, d_s: int, d_e: int
) -> float | np.ndarray:
    """I(A:E|S) = S(AS) + S(SE) - S(S) - S(ASE); zero exactly on Markov states.

    Leading axes are batch axes; a single state gives a float.
    """
    return _cmi_and_i_before(omega_ase, d_a, d_s, d_e)[0]


def _cmi_and_i_before(omega_ase: np.ndarray, d_a: int, d_s: int, d_e: int) -> tuple:
    """I(A:E|S) and -S(A|S) = S(S) - S(AS) of a state on A x S x E, or of
    each state of a stack, from one S(AS) and one S(S).  The second is
    I(A:S) less the S(A) that no unitary on S x E changes: the "before"
    term of every data-processing delta."""
    omega_ase = _check_state(omega_ase, d_a, d_s, d_e)
    dims = (d_a, d_s, d_e)
    s_as = von_neumann_entropy(partial_trace(omega_ase, dims, keep=(0, 1)))
    s_se = von_neumann_entropy(partial_trace(omega_ase, dims, keep=(1, 2)))
    s_s = von_neumann_entropy(partial_trace(omega_ase, dims, keep=(1,)))
    return s_as + s_se - s_s - von_neumann_entropy(omega_ase), s_s - s_as


def dpi_check(
    omega_ase: np.ndarray, d_a: int, d_s: int, d_e: int, u_se: np.ndarray
) -> np.ndarray:
    """Data-processing deltas ``I(A:S) before - I(A:S) after`` for a
    ``(n, d_s d_e, d_s d_e)`` stack of unitaries on S x E followed by Tr_E.

    S(A) is the same before and after, so each delta is computed as the
    difference of -S(A|S) = S(S) - S(AS).  Each delta is non-negative (to
    round-off) whenever the input is a Markov state.  A stack of states
    takes a stack of unitary stacks along the same leading axes.
    """
    before = np.asarray(_cmi_and_i_before(omega_ase, d_a, d_s, d_e)[1])
    return before[..., None] - _i_after(omega_ase, d_a, d_s, d_e, u_se)


def _i_after(
    omega_ase: np.ndarray, d_a: int, d_s: int, d_e: int, u_se: np.ndarray
) -> np.ndarray:
    """-S(A|S) of Tr_E((I_A kron U) omega (I_A kron U)^dagger) for each U of
    a stack.  The ``(a, a')`` block of that state on A x S is
    Tr_E(U omega_aa' U^dagger), so it is one ``tr_e`` over the d_a^2 blocks
    of omega, and neither ``I_A kron U`` nor an evolved state is formed.  A
    ``(..., n, n)`` stack of states takes a ``(..., k, d, d)`` stack of
    unitaries and gives ``(..., k)``."""
    d = d_s * d_e
    omega_ase = np.asarray(omega_ase, dtype=complex)
    u_se = np.asarray(u_se, dtype=complex)
    if u_se.ndim != omega_ase.ndim + 1 or u_se.shape[-2:] != (d, d):
        raise ValueError(f"evolution must be a stack of {d}x{d} unitaries on S x E")
    # Column (a, a') of each state's stack is vec omega_aa', the block at
    # rows (a, .) and columns (a', .).
    blocks = omega_ase.reshape(omega_ase.shape[:-2] + (1, d_a, d, d_a, d))
    cols = _transpose_last(blocks, 1, 3, 0, 2).reshape(blocks.shape[:-4] + (d * d, d_a * d_a))
    # Rows (s, s') and columns (a, a'), read as rows (a, s), columns (a', s').
    after = tr_e(cols, d_s, d_e, u_se).reshape(u_se.shape[:-2] + (d_s, d_s, d_a, d_a))
    after = _transpose_last(after, 2, 0, 3, 1).reshape(u_se.shape[:-2] + (d_a * d_s,) * 2)
    s_s = von_neumann_entropy(partial_trace(after, (d_a, d_s), keep=(1,)))
    return s_s - von_neumann_entropy(after)


def _search(
    omega_ase: np.ndarray, d_a: int, d_s: int, d_e: int, rngs, draws: int, i_before
) -> tuple[np.ndarray, np.ndarray]:
    """The most negative delta over ``draws`` Haar unitaries, and the index
    of its first draw, for each state of a ``(states, n, n)`` stack; state
    i takes its unitaries from ``rngs[i]``.

    Each delta is the "before" -S(A|S) of each state, ``i_before`` from
    ``_cmi_and_i_before``, less the -S(A|S) after a unitary.  The
    unitaries are drawn and checked a chunk at a time, in the order of
    single draws from each stream: the draws are cut into ``tensor.stacks``
    by the largest array of a chunk, ``tr_e``'s U X product in
    ``_i_after``, n^2 entries for each (state, unitary) pair of side
    n = d_a d_s d_e.  So memory does not grow with ``draws``; at the
    64-dimension cap a chunk is one state and eight unitaries.
    """
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    i_before = np.asarray(i_before)[:, None]
    d, n, rows = d_s * d_e, omega_ase.shape[-1], np.arange(len(rngs))
    best = np.full(len(rngs), np.inf)
    best_draw = np.full(len(rngs), -1)
    for chunk in stacks(draws, len(rngs) * n * n):
        size = (len(chunk), 2, d, d)
        us = haar_unitaries(per_stream(rngs, lambda rng: rng.normal(size=size)))
        deltas = i_before - _i_after(omega_ase, d_a, d_s, d_e, us)
        i = np.argmin(deltas, axis=-1)
        low = deltas[rows, i]
        # A strict < keeps the first of tied draws across chunks.
        better = low < best
        best[better], best_draw[better] = low[better], chunk.start + i[better]
    return best, best_draw


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
    and the index of its first draw: the one-state case of ``_search``.
    ``found`` flags a clear violation; a negative result only means none
    was found within the budget.
    """
    omega_ase = np.asarray(omega_ase, dtype=complex)[None]
    i_before = _cmi_and_i_before(omega_ase, d_a, d_s, d_e)[1]
    best, best_draw = _search(omega_ase, d_a, d_s, d_e, [rng], draws, i_before)
    return {
        "draws": draws,
        "best_delta": float(best[0]),
        "best_draw": int(best_draw[0]),
        "found": bool(best[0] < -0.01),
    }
