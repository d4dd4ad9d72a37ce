"""Linear maps on operator spaces: matrix representations, Choi matrices,
Kraus sets and explicit operator-sum constructions.

A map Psi with input dimension ``d_in`` and output dimension ``d_out`` is
stored as a ``(d_out**2, d_in**2)`` matrix acting on row-major vectorized
operators: column ``i*d_in + j`` is ``vec(Psi(|i><j|))``.

The Choi matrix is the unnormalized ``C = sum_ij |i><j| kron Psi(|i><j|)``;
it is PSD exactly when the map is completely positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    dagger,
    psd_check,
    tr_e,
    unvec,
    vec,
)

__all__ = [
    "ChannelMap",
    "KrausSet",
    "choi",
    "channel_from_function",
    "channel_from_kraus",
    "is_cp",
    "is_tp",
    "kraus_factorized",
    "kraus_classical_quantum",
    "reduced_dynamics",
    "trace_out_env_matrix",
    "choi_distance",
]


@dataclass(frozen=True)
class ChannelMap:
    """Matrix representation of a linear map on vectorized operators."""

    d_in: int
    d_out: int
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.shape != (self.d_out**2, self.d_in**2):
            raise ValueError(
                f"channel matrix shape {m.shape}, expected "
                f"({self.d_out**2}, {self.d_in**2})"
            )
        object.__setattr__(self, "mat", m)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return unvec(self.mat @ vec(x), self.d_out)


@dataclass(frozen=True)
class KrausSet:
    """Operator-sum representation x -> sum_i E_i x E_i^dag of a CP map.

    ``operators`` have shape (d_out, d_in).
    """

    operators: tuple[np.ndarray, ...]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return sum(k @ x @ dagger(k) for k in self.operators)

    def closure(self) -> np.ndarray:
        """sum_i E_i^dag E_i; equals the input identity for TP maps."""
        return sum(dagger(k) @ k for k in self.operators)


def channel_from_function(fn, d_in: int, d_out: int) -> ChannelMap:
    """Build the matrix representation by applying ``fn`` to matrix units."""
    cols = np.empty((d_out**2, d_in**2), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            x = np.zeros((d_in, d_in), dtype=complex)
            x[i, j] = 1.0
            cols[:, i * d_in + j] = vec(fn(x))
    return ChannelMap(d_in, d_out, cols)


def channel_from_kraus(k: KrausSet, d_in: int, d_out: int) -> ChannelMap:
    m = np.zeros((d_out**2, d_in**2), dtype=complex)
    for op in k.operators:
        m += np.kron(op, op.conj())
    return ChannelMap(d_in, d_out, m)


def choi(c: ChannelMap) -> np.ndarray:
    """Choi matrix C = sum_ij |i><j| kron Psi(|i><j|), unnormalized."""
    d_in, d_out = c.d_in, c.d_out
    t = c.mat.reshape(d_out, d_out, d_in, d_in)
    return t.transpose(2, 0, 3, 1).reshape(d_in * d_out, d_in * d_out)


def is_cp(ch: np.ndarray) -> bool:
    """CP test on a Choi matrix: Hermitian and PSD to scale-aware tolerance."""
    return psd_check(ch)[0]


def is_tp(c: ChannelMap) -> bool:
    """Trace preservation: Tr_out of the Choi matrix equals the input identity."""
    return is_tp_on_domain(c, np.eye(c.d_in**2))


def is_tp_on_domain(c: ChannelMap, domain_projector: np.ndarray, tol: float = 1e-9) -> bool:
    """Trace preservation restricted to a domain subspace of inputs.

    Checks that the trace functional composed with the channel agrees with
    the plain trace on the range of the projector.
    """
    lhs = vec(np.eye(c.d_out)).conj() @ (c.mat @ domain_projector)
    rhs = vec(np.eye(c.d_in)).conj() @ domain_projector
    return bool(np.linalg.norm(lhs - rhs) <= tol * c.d_in)


def trace_out_env_matrix(d_s: int, d_e: int) -> np.ndarray:
    """Matrix of Tr_E : vec L(H_S x H_E) -> vec L(H_S).

    Dense reference for ``tensor.tr_e``, which applies the same map without
    forming it; the program itself does not call this.
    """
    d = d_s * d_e
    t = np.zeros((d_s**2, d**2), dtype=complex)
    for s in range(d_s):
        for sp in range(d_s):
            for e in range(d_e):
                t[s * d_s + sp, (s * d_e + e) * d + (sp * d_e + e)] = 1.0
    return t


def reduced_dynamics(u: np.ndarray, assign_mat: np.ndarray, d_s: int, d_e: int) -> ChannelMap:
    """Compose Tr_E, Ad_U and an assignment map into one channel on S.

    ``assign_mat`` maps vec L(H_S) -> vec L(H_S x H_E).
    """
    u = np.asarray(u, dtype=complex)
    d = d_s * d_e
    if u.shape != (d, d):
        raise ValueError(f"unitary shape {u.shape}, expected ({d}, {d})")
    if assign_mat.shape != (d**2, d_s**2):
        raise ValueError(
            f"assignment matrix shape {assign_mat.shape}, expected ({d**2}, {d_s**2})"
        )
    return ChannelMap(d_s, d_s, tr_e(assign_mat, d_s, d_e, u))


def product_assignment_matrix(omega_e: np.ndarray, d_s: int) -> np.ndarray:
    """Matrix of the product assignment x -> x kron omega_E."""
    omega_e = np.asarray(omega_e, dtype=complex)
    d_e = omega_e.shape[0]
    eye = np.eye(d_s)
    # Row (s, e, t, f), column (i, j): <s|i> omega_E[e, f] <j|t>.
    m = np.einsum("si,tj,ef->setfij", eye, eye, omega_e)
    return m.reshape((d_s * d_e) ** 2, d_s * d_s)


def kraus_factorized(u: np.ndarray, omega_e: np.ndarray, d_s: int, d_e: int) -> KrausSet:
    """Operator-sum construction for a fixed environment state.

    With omega_E = sum_l lam_l |mu_l><mu_l|, the Kraus operators are
    ``E_kl = sqrt(lam_l) <k_E| U |mu_l>`` acting on H_S; the represented
    channel equals Tr_E ( U (rho kron omega_E) U^dag ) for every rho.
    """
    w, vmat = np.linalg.eigh(np.asarray(omega_e, dtype=complex))
    # Row index (s, e), column (s', e'): contract the environment slots.
    u4 = np.asarray(u, dtype=complex).reshape(d_s, d_e, d_s, d_e)
    ops = []
    for l in range(d_e):
        lam = w[l].real
        if lam <= 1e-14:
            continue
        mu = vmat[:, l]
        u_mu = np.einsum("sket,t->ske", u4, mu)  # still indexed by k_E
        for k in range(d_e):
            ops.append(np.sqrt(lam) * u_mu[:, k, :])
    return KrausSet(tuple(ops))


def kraus_classical_quantum(
    u: np.ndarray, basis: np.ndarray, omegas, d_s: int, d_e: int
) -> KrausSet:
    """Operator-sum construction for classical-quantum initial correlations.

    ``basis`` holds the fixed orthonormal system basis as columns; each
    basis state i carries its own fixed environment state omegas[i].  The
    Kraus operators are ``D_ikl P_i`` with P_i the basis projector and
    ``D_ikl = sqrt(lam_il) <k_E| U |mu_il>`` the ``kraus_factorized``
    operators for omegas[i].
    """
    ops = []
    for i in range(d_s):
        b = basis[:, i]
        proj = np.outer(b, b.conj())
        ops += [d @ proj for d in kraus_factorized(u, omegas[i], d_s, d_e).operators]
    return KrausSet(tuple(ops))


def choi_distance(a: ChannelMap, b: ChannelMap) -> float:
    """Frobenius norm of the Choi difference (basis-independent equality metric)."""
    return float(np.linalg.norm(choi(a) - choi(b)))

