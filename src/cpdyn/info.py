"""Mutual information, conditional mutual information and the data
processing inequality on tripartite ancilla-system-environment states.

All entropies are in nats.  Sampling-based searches report the best
violation found; absence of a violation is never a Markovianity
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import kron, partial_trace, random_haar_unitary, von_neumann_entropy

__all__ = [
    "InfoReport",
    "mutual_information",
    "conditional_mutual_information",
    "dpi_check",
    "search_dpi_violation",
]


@dataclass(frozen=True)
class InfoReport:
    """Mutual information before and after an evolution on S x E."""

    i_before: float
    i_after: float
    delta: float


def mutual_information(omega_as: np.ndarray, d_a: int, d_s: int) -> float:
    """I(A:S) = S(A) + S(S) - S(AS) for the declared bipartition."""
    omega_as = np.asarray(omega_as, dtype=complex)
    if omega_as.shape[0] != d_a * d_s:
        raise ValueError(f"state dim {omega_as.shape[0]} != {d_a}*{d_s}")
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
) -> InfoReport:
    """Compare I(A:S) before and after a unitary on S x E followed by Tr_E.

    ``delta = i_before - i_after`` is non-negative (to round-off) whenever
    the input is a Markov state.
    """
    u_se = np.asarray(u_se, dtype=complex)
    if u_se.shape[0] != d_s * d_e:
        raise ValueError("evolution must act on S x E only")
    dims = (d_a, d_s, d_e)
    before = partial_trace(omega_ase, dims, keep=(0, 1))
    big_u = kron(np.eye(d_a), u_se)
    evolved = big_u @ omega_ase @ big_u.conj().T
    after = partial_trace(evolved, dims, keep=(0, 1))
    i_before = mutual_information(before, d_a, d_s)
    i_after = mutual_information(after, d_a, d_s)
    return InfoReport(i_before, i_after, i_before - i_after)


def search_dpi_violation(
    omega_ase: np.ndarray,
    d_a: int,
    d_s: int,
    d_e: int,
    rng: np.random.Generator,
    draws: int = 500,
) -> dict:
    """Monte-Carlo hunt for a data-processing violation.

    Draws Haar unitaries on S x E and returns the most negative delta seen.
    ``found`` flags a clear violation; a negative result only means none
    was found within the budget.
    """
    best = np.inf
    best_draw = -1
    for i in range(draws):
        u = random_haar_unitary(d_s * d_e, rng)
        rep = dpi_check(omega_ase, d_a, d_s, d_e, u)
        if rep.delta < best:
            best = rep.delta
            best_draw = i
    return {
        "draws": draws,
        "best_delta": float(best),
        "best_draw": best_draw,
        "found": bool(best < -0.01),
    }
