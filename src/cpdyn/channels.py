"""Linear maps on operator spaces: matrix representations, Choi matrices
and explicit operator-sum constructions.

A map Psi with input dimension ``d_in`` and output dimension ``d_out`` is
stored as a ``(d_out**2, d_in**2)`` matrix acting on row-major vectorized
operators: column ``i*d_in + j`` is ``vec(Psi(|i><j|))``.  A Kraus set
x -> sum_i E_i x E_i^dag is a plain ``(n, d_out, d_in)`` stack of its
operators.

The Choi matrix is the unnormalized ``C = sum_ij |i><j| kron Psi(|i><j|)``;
it is PSD exactly when the map is completely positive.

Leading axes are batch axes, a stack of trials, in ``ChannelMap``,
``channel_from_kraus``, ``choi``, ``is_tp_on_domain``,
``product_dynamics_choi`` and ``kraus_factorized``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import _scalar, _transpose_last, frobenius, psd_check, tr_e, vec

__all__ = [
    "ChannelMap",
    "choi",
    "channel_from_function",
    "channel_from_kraus",
    "is_cp",
    "is_tp",
    "kraus_factorized",
    "product_dynamics_choi",
    "reduced_dynamics",
    "trace_out_env_matrix",
    "choi_distance",
]


@dataclass(frozen=True)
class ChannelMap:
    """Matrix representation of a linear map on vectorized operators, or a
    stack of them along the leading axes of ``mat``."""

    d_in: int
    d_out: int
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.shape[-2:] != (self.d_out**2, self.d_in**2):
            raise ValueError(
                f"channel matrix shape {m.shape}, expected "
                f"({self.d_out**2}, {self.d_in**2})"
            )
        object.__setattr__(self, "mat", m)


def channel_from_function(fn, d_in: int, d_out: int) -> ChannelMap:
    """Build the matrix representation by applying ``fn`` to matrix units."""
    cols = np.empty((d_out**2, d_in**2), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            x = np.zeros((d_in, d_in), dtype=complex)
            x[i, j] = 1.0
            cols[:, i * d_in + j] = vec(fn(x))
    return ChannelMap(d_in, d_out, cols)


def channel_from_kraus(ops, d_in: int, d_out: int) -> ChannelMap:
    """``sum_i E_i kron conj(E_i)`` for an ``(n, d_out, d_in)`` stack, or a
    sequence, of Kraus operators, as one product: with the operators
    stacked as rows e[i, (a, b)], entry [(a, c), (b, d)] is
    ``(e^T conj(e))[(a, b), (c, d)]``."""
    ops = np.asarray(ops, dtype=complex)
    batch = ops.shape[:-3]
    e = ops.reshape(batch + (-1, d_out * d_in))
    m = (e.swapaxes(-1, -2) @ e.conj()).reshape(batch + (d_out, d_in, d_out, d_in))
    return ChannelMap(d_in, d_out, m.swapaxes(-3, -2).reshape(batch + (d_out**2, d_in**2)))


def choi(c: ChannelMap) -> np.ndarray:
    """Choi matrix C = sum_ij |i><j| kron Psi(|i><j|), unnormalized."""
    d_in, d_out = c.d_in, c.d_out
    batch = c.mat.shape[:-2]
    t = _transpose_last(c.mat.reshape(batch + (d_out, d_out, d_in, d_in)), 2, 0, 3, 1)
    return t.reshape(batch + (d_in * d_out, d_in * d_out))


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
    return _scalar(frobenius(lhs - rhs, axes=1) <= tol * c.d_in)


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


def product_dynamics_choi(u: np.ndarray, omega_e: np.ndarray, d_s: int, d_e: int) -> np.ndarray:
    """Choi matrix of x -> Tr_E(U (x kron omega_E) U^dag), contracted from
    U and omega_E with no eigendecomposition and no Kraus operators.

    With W = U (I kron omega_E), entry [(i, s), (j, t)] is
    ``sum_(e, g) W[(s, e), (i, g)] conj(U)[(t, e), (j, g)]``: one
    ``(d_s^2, d_e^2) x (d_e^2, d_s^2)`` product.
    """
    u = np.asarray(u, dtype=complex)
    rows = u.shape[:-1] + (d_s, d_e)  # U[(s, e), (i, g)] at [..., (s, e), i, g]
    w = u.reshape(rows) @ np.asarray(omega_e, dtype=complex)[..., None, :, :]

    def by_input(m):  # m[(s, e), (i, g)] laid out as [(i, s), (e, g)]
        batch = m.shape[:-3]
        m = _transpose_last(m.reshape(batch + (d_s, d_e, d_s, d_e)), 2, 0, 1, 3)
        return m.reshape(batch + (d_s * d_s, -1))

    return by_input(w) @ by_input(u.conj().reshape(rows)).swapaxes(-1, -2)


def kraus_factorized(u: np.ndarray, omega_e: np.ndarray, d_s: int, d_e: int) -> np.ndarray:
    """Operator-sum construction for a fixed environment state.

    With omega_E = sum_l lam_l |mu_l><mu_l|, the Kraus operators are
    ``E_kl = sqrt(lam_l) <k_E| U |mu_l>`` acting on H_S, returned as an
    ``(n, d_s, d_s)`` stack; the represented channel equals
    Tr_E ( U (rho kron omega_E) U^dag ) for every rho.  Eigenvalues at or
    below 1e-14 are dropped.  Leading axes of ``u`` and ``omega_e`` are
    batch axes: a stack keeps zero operators in place of the dropped ones,
    so that every member has d_E^2 operators, in the order (l, k).
    """
    w, vmat = np.linalg.eigh(np.asarray(omega_e, dtype=complex))
    kept = w > 1e-14
    scale = np.sqrt(np.where(kept, w, 0.0))[..., None, None, None]  # (..., l, k, s, e)
    # Row index (s, e), column (s', e'): contract the environment slots.
    u = np.asarray(u, dtype=complex)
    u4 = u.reshape(u.shape[:-2] + (d_s, d_e, d_s, d_e))
    u_mu = [np.einsum("...sket,...t->...kse", u4, vmat[..., :, l]) for l in range(d_e)]
    u_mu = np.stack(u_mu, axis=-4)
    ops = (scale * u_mu).reshape(u_mu.shape[:-4] + (d_e * d_e, d_s, d_s))
    return ops[np.repeat(kept, d_e)] if kept.ndim == 1 else ops


def choi_distance(a: ChannelMap, b: ChannelMap) -> float:
    """Frobenius norm of the Choi difference (basis-independent equality metric)."""
    return float(np.linalg.norm(choi(a) - choi(b)))

