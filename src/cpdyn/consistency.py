"""Operator subspaces of L(H_S x H_E), their partial-trace kernels,
unitary-consistency checks, assignment maps and the end-to-end theorem
verifier.

A subspace V answers the verifier's questions itself (``d_s``, ``d_e``,
``dim``, ``dim_v0`` with V0 = V ∩ ker Tr_E, ``violation(u)``,
``canonical_assignment()``, ``kernel_escape(x)``), and the module functions
only call it.  ``OperatorSubspace`` stores V as an orthonormal basis of
row-major vectorized operators and answers from one SVD of Tr_E on it,
which gives both its ``kernel`` and its canonical assignment.  The full
space, demo 1's V and the span of Markov-block states, in any frame,
answer in closed form, with no factorization of Tr_E, and have no basis
or kernel.  The Markov-block spans and the full space build their
canonical assignments in Kraus form, one operator stack per block, so
those are CP by construction and their reduced dynamics is contracted
block by block; every other assignment is decided by the dense test of
its Choi matrix.
A basis-backed subspace and a Markov-block span answer
``contains(x, tol)`` too.  The kernel parametrizes the freedom in
choosing an assignment map; conjugating it into ker Tr_E again is unitary
consistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channels import (
    ChannelMap,
    channel_from_kraus,
    choi,
    is_tp_on_domain,
)
from .families import MarkovBlocksSpec, block_slices, in_frame, structure_fit
from .tensor import (
    _scalar,
    _transpose_last,
    frobenius,
    haar_unitaries,
    hermitian_part_psd,
    is_hermitian,
    kron,
    normal_runs,
    psd_check,
    stacks,
    swap_unitary,
    tr_e,
    vec,
)

__all__ = [
    "OperatorSubspace",
    "AssignmentMap",
    "span_from_states",
    "full_space",
    "markov_block_space",
    "subspace_from_constraint",
    "kernel_tr_e",
    "u_consistency_violation",
    "g_consistency_report",
    "sample_unitaries",
    "unitary_shapes",
    "unitaries_from_draws",
    "canonical_assignment",
    "perturb_assignment",
    "reduced_dynamics_verdict",
    "records",
    "theorem1_verify",
]

# Singular values at or below SPAN_RANK_FACTOR * largest are treated as zero;
# for Tr_E on an orthonormal basis the largest is floored at 1 (see _rank).
SPAN_RANK_FACTOR = 1e-9
CONSISTENCY_TOL = 1e-9


@dataclass(frozen=True)
class OperatorSubspace:
    """Orthonormalized subspace of vectorized operators on S x E.

    The constructor checks that every basis is orthonormal
    (``||B^dag B - I||_F <= 1e-8 max(1, n)``), the caller's and those this
    module builds (spans, kernels, constraint null spaces) alike.
    """

    d_s: int
    d_e: int
    basis: np.ndarray = field(repr=False)  # shape (d^2, n), orthonormal columns

    def __post_init__(self):
        d = self.d_s * self.d_e
        b = np.asarray(self.basis, dtype=complex).reshape(d * d, -1)
        gram = b.conj().T @ b
        if np.linalg.norm(gram - np.eye(b.shape[1])) > 1e-8 * max(1, b.shape[1]):
            raise ValueError("subspace basis is not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def _tr_e_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One SVD ``(u_k, sv_k, vh)`` of R = Tr_E B, computed when first
        read: ``u`` and ``sv`` truncated at the rank k (``_rank`` at floor
        1), ``vh`` square (n, n).

        R is (d_s^2, n).  A wide R (n > d_s^2) takes the full factorization,
        whose trailing rows of ``vh`` span its null space; for n <= d_s^2
        the thin right factor is already square, and a full left factor
        would only cost time and memory.  The kernel and the canonical
        assignment both read this one factorization, so dim V = dim V0 + k
        holds by construction.
        """
        r = tr_e(self.basis, self.d_s, self.d_e)
        u, sv, vh = np.linalg.svd(r, full_matrices=self.dim > self.d_s**2)
        k = _rank(sv, floor=1.0)
        return u[:, :k], sv[:k], vh

    @cached_property
    def kernel(self) -> OperatorSubspace:
        """V0 = V ∩ ker Tr_E, computed when first read: ``B vh[k:]^dag``
        from ``_tr_e_svd``, or V itself when Tr_E vanishes on it (k = 0)."""
        _, sv, vh = self._tr_e_svd
        if sv.size == 0:
            return self
        return OperatorSubspace(self.d_s, self.d_e, self.basis @ vh[sv.size :].conj().T)

    # The verifier's questions, answered from the kernel; the module
    # functions of the same names say what each answer means.
    @property
    def dim_v0(self) -> int:
        return kernel_tr_e(self).dim

    def violation(self, u: np.ndarray):
        return frobenius(tr_e(kernel_tr_e(self).basis, self.d_s, self.d_e, u))

    def canonical_assignment(self) -> AssignmentMap:
        u, sv, vh = self._tr_e_svd
        r_pinv = vh[: sv.size].conj().T @ (u.conj().T / sv[:, None])
        return AssignmentMap(self.d_s, self.d_e, self.basis @ r_pinv, u @ u.conj().T)

    def kernel_escape(self, x: np.ndarray) -> float:
        """``||x - P_V0 x||_F`` for a (d^2, N) stack of vectorized operators."""
        k = kernel_tr_e(self).basis
        return float(np.linalg.norm(x - k @ (k.conj().T @ x)))

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        """Whether the orthogonal projection onto V moves ``x`` by at most
        ``tol max(1, ||x||_F)`` in Frobenius norm."""
        x = vec(x)
        residual = np.linalg.norm(self.basis @ (self.basis.conj().T @ x) - x)
        return bool(residual <= tol * max(1.0, np.linalg.norm(x)))


class AssignmentMap:
    """Linear section of the environment trace on a declared domain.

    ``mat`` maps vec L(H_S) to vec L(H_S x H_E); ``domain_projector`` is the
    orthogonal projector onto Tr_E V inside vec L(H_S).

    A Markov-block assignment, CP by construction, is given instead by its
    ``blocks`` and ``frame``, with ``mat`` None.  Block i is a tuple
    ``(s, r, t)``: ``s`` is its slice of S, of l_i r_i rows, and ``t`` the
    (..., n_i, r_i d_E, r_i) stack of its operators g_j <k| b_i on
    R_i -> R_i x E; the map is x -> directsum_i (I_L_i kron t) x_ii
    (I_L_i kron t)^dag, conjugated by the unitary ``frame`` F on S (None for
    the standard basis).  The l_i diagonal copies and the rows off each
    block are never stored.  Then ``hermitian`` and ``cp`` are true with no
    Choi matrix built, ``reduced`` contracts each block on its own rows and
    columns (``_block_dynamics``), and ``mat`` is built block by block
    (``_block_mat``) only when a caller reads it.  A map given by ``mat``
    alone is reduced by one ``tensor.tr_e`` of ``mat``, and its
    ``hermitian`` and ``cp`` read one Choi matrix, built when first read:
    one ``is_hermitian`` and, when that holds, one ``eigvalsh`` of its
    Hermitian part.  ``choi()`` returns a copy of that matrix.
    """

    def __init__(
        self,
        d_s: int,
        d_e: int,
        mat: np.ndarray | None,
        domain_projector: np.ndarray,
        *,
        blocks: list[tuple[slice, int, np.ndarray]] | None = None,
        frame: np.ndarray | None = None,
    ):
        if (mat is None) == (blocks is None):
            raise ValueError("an assignment takes exactly one of mat and blocks")
        self.d_s, self.d_e = d_s, d_e
        self.domain_projector, self.blocks, self.frame = domain_projector, blocks, frame
        if mat is not None:
            self.mat = mat

    @cached_property
    def mat(self) -> np.ndarray:
        """The (d^2, d_s^2) matrix of a block-backed map, built when first read."""
        return _block_mat(self.blocks, self.d_s, self.d_e, self.frame)

    def reduced(self, u: np.ndarray | None = None) -> ChannelMap:
        """The channel Tr_E o Ad_U o the map on S, or Tr_E o the map for
        ``u=None``, or the stack of channels of a stack of unitaries: block
        by block when there are blocks, else from ``mat``.

        A frame F is carried by the unitary: with U' = U (F kron I_E), the
        map is Psi_U'(F^dag x F) (``_inputs_in_frame``)."""
        d_s, d_e = self.d_s, self.d_e
        if self.blocks is None:
            return ChannelMap(d_s, d_s, tr_e(self.mat, d_s, d_e, u))
        u = np.eye(d_s * d_e) if u is None else np.asarray(u, dtype=complex)
        f = self.frame
        if f is None:
            return ChannelMap(d_s, d_s, _block_dynamics(self.blocks, u, d_s, d_e))
        psi = _block_dynamics(self.blocks, u @ kron(f, np.eye(d_e)), d_s, d_e)
        return ChannelMap(d_s, d_s, _inputs_in_frame(psi, f))

    @cached_property
    def trace_consistent(self) -> bool:
        """Tr_E after the assignment is the projector onto the domain."""
        residual = self.reduced().mat - self.domain_projector
        return bool(np.linalg.norm(residual) <= 1e-8 * max(1, self.d_s))

    @cached_property
    def _choi(self) -> np.ndarray:
        return choi(ChannelMap(self.d_s, self.d_s * self.d_e, self.mat))

    @cached_property
    def hermitian(self) -> bool:
        """The Choi matrix is Hermitian: the map preserves Hermiticity."""
        return self.blocks is not None or bool(is_hermitian(self._choi))

    @cached_property
    def cp(self) -> bool:
        """The Choi matrix is PSD: the map is completely positive."""
        return self.blocks is not None or (self.hermitian and hermitian_part_psd(self._choi)[0])

    def choi(self) -> np.ndarray:
        return self._choi.copy()


def _block_dynamics(blocks, u: np.ndarray, d_s: int, d_e: int) -> np.ndarray:
    """The (..., d_s^2, d_s^2) matrix of x -> Tr_E(U Lambda(x) U^dag) for
    the unframed block map Lambda of ``blocks`` (see ``AssignmentMap``).

    Block i meets only U's columns on its rows of S x E: that (d, l_i r_i
    d_E) slice, read as (d l_i, r_i d_E), times t laid out as (r_i d_E,
    n_i r_i), gives the operators B_(k, e) = (I kron <e|) U (I_L_i kron
    t_k) on the block's columns, an (n_i d_E, d_s, l_i r_i) stack.  Their
    Gram matrix, formed as ``channels.channel_from_kraus`` forms it, is
    Psi's columns (s, s); blocks fill disjoint columns, and every other
    column is zero."""
    d, out = d_s * d_e, None
    for s, r, t in blocks:
        m, n = s.stop - s.start, t.shape[-3]
        w = u[..., :, s.start * d_e : s.stop * d_e].reshape(u.shape[:-2] + (d * m // r, r * d_e))
        ut = w @ t.swapaxes(-3, -2).reshape(t.shape[:-3] + (r * d_e, n * r))
        batch = ut.shape[:-2]  # the batch axes of U and t, broadcast
        # (U (I kron t_k))[(a, e), (c, y)] at [a, e, c, k, y], read as B[(k, e), a, (c, y)].
        ops = _transpose_last(ut.reshape(batch + (d_s, d_e, m // r, n, r)), 3, 1, 0, 2, 4)
        e = ops.reshape(batch + (n * d_e, d_s * m))
        gram = (e.swapaxes(-1, -2) @ e.conj()).reshape(batch + (d_s, m, d_s, m))
        if out is None:
            out = np.zeros(batch + (d_s,) * 4, dtype=complex)
        out[..., s, s] = gram.swapaxes(-3, -2)
    return out.reshape(out.shape[:-4] + (d_s * d_s,) * 2)


def _block_mat(blocks, d_s: int, d_f: int, frame: np.ndarray | None) -> np.ndarray:
    """The (..., (d_s d_f)^2, d_s^2) matrix of the block map x ->
    directsum_i (I_L_i kron t) x_ii (I_L_i kron t)^dag on S -> S x F, for
    ``blocks`` whose operators t map R_i to R_i x F, conjugated by the
    frame: each block's Gram matrix (``channels.channel_from_kraus``) of its
    n_i operators, copied onto the l_i^2 pairs of its diagonal copies."""
    batch, d = blocks[0][2].shape[:-3], d_s * d_f
    out = np.zeros(batch + (d, d, d_s, d_s), dtype=complex)
    for s, r, t in blocks:
        l, rf = (s.stop - s.start) // r, t.shape[-2]
        gram = channel_from_kraus(t, r, rf).mat.reshape(batch + (1, rf, 1, rf, 1, r, 1, r))
        # Output copy (a, b) from input copy (c, d) when a = c and b = d,
        # written through a view of the block's rows and columns.
        copies = np.einsum("ac,bd->abcd", np.eye(l), np.eye(l)).reshape((l, 1) * 4)
        rows = slice(s.start * d_f, s.stop * d_f)
        blk = out[..., rows, rows, s, s].reshape(batch + (l, rf, l, rf, l, r, l, r))
        np.multiply(copies, gram, out=blk)
    if frame is None:
        return out.reshape(batch + (d * d, d_s * d_s))
    # Each column (F kron I) Y (F kron I)^dag, then the input x read as F^dag x F.
    cols = np.moveaxis(out.reshape(batch + (d, d, -1)), -1, -3)
    cols = in_frame(cols, frame[..., None, :, :], d_f)
    return _inputs_in_frame(np.moveaxis(cols, -3, -1).reshape(batch + (d * d, -1)), frame)


def _inputs_in_frame(m: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """``m kron(F^dag, F^T)`` for the (..., k, d_s^2) matrix m of a map on
    L(S): the matrix of x -> m(F^dag x F).  Each row, read as a (d_s, d_s)
    matrix R, becomes conj(F) R F^T, in 2 k d_s^3 multiply-adds where the
    product with the Kronecker matrix takes k d_s^4."""
    f = frame[..., None, :, :]
    r = m.reshape(m.shape[:-1] + f.shape[-2:])
    return (f.conj() @ r @ f.swapaxes(-1, -2)).reshape(m.shape)


def span_from_states(states, d_s: int, d_e: int) -> OperatorSubspace:
    """Orthonormalized span of a list of operators; dimension is the
    numerical rank of the stack."""
    if not states:
        raise ValueError("need at least one spanning operator")
    d = d_s * d_e
    stack = np.column_stack([vec(s) for s in states])
    if stack.shape[0] != d * d:
        raise ValueError(f"spanning operators must be {d} x {d}")
    u, sv, _ = np.linalg.svd(stack, full_matrices=False)
    return OperatorSubspace(d_s, d_e, u[:, : _rank(sv)])


class _ClosedFormSpace:
    """All of L(S x E) or, given ``omega_e``, demo 1's V, in closed form.

    It answers ``dim``, ``dim_v0``, ``violation``, ``canonical_assignment``
    and ``kernel_escape`` and has no basis or kernel.  V0 is ker Tr_E, or
    ker Tr_E ∩ ker Tr_S on demo 1's V, with orthogonal projector P:
    X -> X - Tr_E X kron I/d_E [then Y -> Y - I/d_S kron Tr_S Y].  The
    canonical assignment x -> x kron I/d_E [+ tr(x) I/d_S kron (omega_E -
    I/d_E)] lies in V, inverts Tr_E and is orthogonal to V0: the
    minimum-norm section, on all of L(S).  Its first term is the one-block
    layout (d_s, 1) in Kraus form; demo 1's tilt is not, so demo 1's
    canonical assignment carries only its matrix.
    """

    def __init__(self, d_s: int, d_e: int, omega_e: np.ndarray | None = None):
        self.d_s, self.d_e, self.omega_e = d_s, d_e, omega_e

    @property
    def dim(self) -> int:
        return (self.d_s * self.d_e) ** 2 - (self.omega_e is not None) * (self.d_e**2 - 1)

    @property
    def dim_v0(self) -> int:
        return (self.d_s**2 - (self.omega_e is not None)) * (self.d_e**2 - 1)

    def _project_v0(self, x: np.ndarray) -> np.ndarray:
        """P applied in place to each X[(a, f), (b, g)] = x[..., s, a, f, t, b, g]."""
        t = np.einsum("...saftbf->...satb", x) / self.d_e
        for f in range(self.d_e):
            x[..., :, :, f, :, :, f] -= t
        if self.omega_e is not None:
            t = np.einsum("...saftag->...sftg", x) / self.d_s
            for a in range(self.d_s):
                x[..., :, a, :, :, a, :] -= t
        return x

    def violation(self, u: np.ndarray):
        """The norm of A_U, the matrix of Tr_E o Ad_U, with the real symmetric
        P applied to each row; taken entrywise, as a difference of squared
        norms would cancel to the rounding level."""
        d_s, d_e, d = self.d_s, self.d_e, self.d_s * self.d_e
        u = np.asarray(u, dtype=complex)
        w = u.reshape(u.shape[:-2] + (d_s, d_e, d)).swapaxes(-3, -2)
        w = w.reshape(u.shape[:-2] + (d_e, d_s * d))
        # A_U[(s, t), (i, j)] = sum_e U[s,e,i] conj U[t,e,j], laid out as
        # [s, (a, f), t, (b, g)] with i = (a, f) and j = (b, g).
        a = (w.swapaxes(-1, -2) @ w.conj()).reshape(u.shape[:-2] + (d_s, d_s, d_e) * 2)
        return frobenius(self._project_v0(a), axes=6)

    def canonical_assignment(self) -> AssignmentMap:
        d_s, d_e = self.d_s, self.d_e
        spec = MarkovBlocksSpec(((d_s, 1),), d_e, (np.eye(d_e, dtype=complex) / d_e,))
        base = markov_block_space(spec).canonical_assignment()
        if self.omega_e is None:
            return base
        # The tilt leaves Kraus form: tr(x) = vec(I) . vec(x).
        tilt = kron(np.eye(d_s), self.omega_e - spec.omega_re[0]) / d_s
        mat = base.mat + np.outer(vec(tilt), vec(np.eye(d_s)))
        return AssignmentMap(d_s, d_e, mat, base.domain_projector)

    def kernel_escape(self, x: np.ndarray) -> float:
        y = x.T.reshape(-1, self.d_s, self.d_e, 1, self.d_s, self.d_e)
        return float(np.linalg.norm(y - self._project_v0(y.copy())))


def full_space(d_s: int, d_e: int, omega_e: np.ndarray | None = None) -> _ClosedFormSpace:
    """L(S x E), or demo 1's V = {X : Tr_S X = tr(X) omega_E} given ``omega_e``."""
    return _ClosedFormSpace(d_s, d_e, omega_e)


class _MarkovBlockSpace:
    """The span V of the states directsum_i p_i rho_L_i kron omega_RE_i, in
    closed form: it answers ``dim``, ``dim_v0``, ``violation``,
    ``canonical_assignment``, ``kernel_escape`` and ``contains`` and has
    no basis or kernel.

    In the standard basis V is spanned by E_ab kron omega_RE_i in block i
    (a, b < l_i), mutually orthogonal, and Tr_E maps them to E_ab kron
    omega_R_i, with omega_R_i = Tr_E omega_RE_i, which are orthogonal and
    nonzero.  So Tr_E is injective on V: V0 = 0, every violation is 0.0
    and the escape of x from V0 is ||x||_F.  The canonical assignment
    x -> directsum_i m_i(x) kron omega_RE_i, with m_i(x)_ab = <E_ab kron
    omega_R_i, x_ii> / ||omega_R_i||_F^2, is the unique section of Tr_E on
    V after the orthogonal projection onto its domain, directsum_i I kron
    I kron |omega_R_i>><<omega_R_i| / ||omega_R_i||_F^2.

    Both maps are built in Kraus form (Lu, PRA 93, 042332), so the
    assignment is CP by construction.  With g_j the columns of a factor of
    omega_RE_i and b_i = h^dag / ||omega_R_i||_F for a factor h of
    omega_R_i, so that tr(b_i y b_i^dag) = <omega_R_i, y> /
    ||omega_R_i||_F^2, the operators are I_L_i kron g_j <k| b_i, one per
    (k, j), each acting alike on all l_i diagonal copies; block i keeps
    only its g_j <k| b_i (``_blocks``).  The columns of h in place of the
    g_j give the projector.  The factors exist because the spec's
    constructor has passed every omega_RE_i through ``psd_check``.  A
    ``frame`` F turns V by F kron I_E, so V0 stays 0 and each operator K
    becomes (F kron I) K F^dag, which the assignment carries as its
    ``frame``.
    """

    def __init__(self, spec: MarkovBlocksSpec):
        self.blocks, self.d_e, self.omega_re = spec.blocks, spec.d_e, spec.omega_re
        self.frame, self.d_s = spec.frame, spec.d_s
        # The trial axes of a stacked spec: every array below carries them.
        self.batch = np.shape(spec.omega_re[0])[:-2]

    @cached_property
    def _factors(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per block: factors g of omega_RE_i and h of omega_R_i, and b_i."""
        out = []
        for (_, r), w in zip(self.blocks, self.omega_re):
            w_r = np.einsum("...aebe->...ab", w.reshape(self.batch + (r, self.d_e, r, self.d_e)))
            h = _factor(w_r)
            b = h.swapaxes(-1, -2).conj() / np.asarray(frobenius(w_r))[..., None, None]
            out.append((_factor(w), h, b))
        return out

    def _blocks(self, d_f: int) -> list[tuple[slice, int, np.ndarray]]:
        """The blocks ``(s, r, t)`` (see ``AssignmentMap``) of x ->
        directsum_i m_i(x) kron f_i, with f_i = omega_RE_i for d_f = d_E and
        omega_R_i for d_f = 1: t holds the operators g_j <k| b_i, for g the
        factor of f_i, in the order (k, j)."""
        out = []
        for (_, r, s), (g, h, b) in zip(block_slices(self.blocks), self._factors):
            g = g if d_f == self.d_e else h
            t = np.einsum("...xj,...ky->...kjxy", g, b).reshape(self.batch + (-1, r * d_f, r))
            out.append((s, r, t))
        return out

    @property
    def dim(self) -> int:
        return sum(l * l for l, _ in self.blocks)

    @property
    def dim_v0(self) -> int:
        return 0

    def violation(self, u: np.ndarray):
        return np.zeros(np.shape(u)[:-2])[()]

    def canonical_assignment(self) -> AssignmentMap:
        p = _block_mat(self._blocks(1), self.d_s, 1, self.frame)
        return AssignmentMap(
            self.d_s, self.d_e, None, p, blocks=self._blocks(self.d_e), frame=self.frame
        )

    def kernel_escape(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(x))

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        """Whether ``||x - P_V x||_F <= tol max(1, ||x||_F)``, read from the
        residual of ``families.structure_fit`` on the layout, after x is
        rotated back from the frame: its fit is the orthogonal projection
        of each diagonal block x_ii onto the span of the E_ab kron
        omega_RE_i, and it drops every off-block entry."""
        if self.frame is not None:
            x = in_frame(x, self.frame.swapaxes(-1, -2).conj(), self.d_e)
        residual = structure_fit(x, self.blocks, self.omega_re, self.d_e)
        return _scalar(residual <= tol * np.maximum(1.0, frobenius(x)))


def _factor(w: np.ndarray) -> np.ndarray:
    """g with g g^dag = w for a PSD ``w``, or each of a stack, from one
    ``eigh`` (none at 1 x 1), with rounding below zero in its eigenvalues
    clipped."""
    if w.shape[-1] == 1:
        return np.sqrt(np.maximum(w.real, 0.0)) + 0j
    lam, q = np.linalg.eigh(w)
    return q * np.sqrt(np.maximum(lam, 0.0))[..., None, :]


def markov_block_space(spec: MarkovBlocksSpec) -> _MarkovBlockSpace:
    """The span of the members of ``spec``, the Markov-block states
    directsum_i p_i rho_L_i kron omega_RE_i on its layout of blocks
    (l_i, r_i), in its frame, in closed form."""
    return _MarkovBlockSpace(spec)


# Any subspace the module functions below accept (see the module docstring).
Subspace = OperatorSubspace | _ClosedFormSpace | _MarkovBlockSpace


def _rank(sv: np.ndarray, floor: float = 0.0) -> int:
    """Numerical rank from singular values: the count above
    SPAN_RANK_FACTOR * max(largest, ``floor``).

    Spans and constraints come at the caller's scale and take the purely
    relative rule, ``floor`` = 0.  Tr_E on an orthonormal basis has a known
    scale (every singular value is at most sqrt(d_e)) and takes ``floor`` =
    1, so rounding noise on a V where Tr_E vanishes does not count as rank.
    """
    return int((sv > SPAN_RANK_FACTOR * max(sv.max(initial=0.0), floor)).sum())


def subspace_from_constraint(a: np.ndarray, d_s: int, d_e: int) -> OperatorSubspace:
    """Null space of a linear constraint matrix acting on vectorized operators:
    the trailing right singular vectors ``vh[rank:]^dag`` of one full SVD of
    ``a``, whose rank takes the purely relative ``_rank`` rule."""
    _, sv, vh = np.linalg.svd(a)
    return OperatorSubspace(d_s, d_e, vh[_rank(sv) :].conj().T)


def kernel_tr_e(v: OperatorSubspace) -> OperatorSubspace:
    """V0 = V ∩ ker Tr_E as a basis: ``v.kernel``, computed once per
    subspace.  Only an ``OperatorSubspace`` has one."""
    return v.kernel


def u_consistency_violation(v: Subspace, u: np.ndarray):
    """Hilbert-Schmidt norm of M_U = Tr_E o Ad_U restricted to V0, for each U of a stack.

    ``||M_U||_F = ||tr_e(K, d_s, d_e, u)||_F`` for any orthonormal kernel
    basis K, and it is invariant under K -> K Q.  It vanishes exactly when
    U is consistent on V.  For every kernel-valued perturbation
    Delta = K C of an assignment, the reduced dynamics moves by M_U C, so
    ``||Psi_{Lambda+Delta} - Psi_Lambda||_F = ||M_U C||_F
    <= ||M_U||_F ||Delta||_F``.
    """
    return v.violation(u)


def _unitary_entries(v: Subspace) -> int:
    """The complex entries of the largest arrays one unitary's check on V
    holds: d^2 d_s^2, the size of Tr_E o Ad_U as a matrix, which bounds the
    U A product of a ``mat``-only assignment, each block's U-slice product
    and operators in a block-backed one (d d_E l_i r_i^3 entries each,
    since n_i = r_i^2 d_E), the Choi matrix and the full space's A_U; or
    d^2 dim V0, the U K product of a kernel basis K, if wider."""
    width = kernel_tr_e(v).dim if isinstance(v, OperatorSubspace) else 0
    return (v.d_s * v.d_e) ** 2 * max(v.d_s**2, width)


def sample_unitaries(g: str, n: int, v: Subspace, rng: np.random.Generator):
    """``n`` unitaries on the S x E of ``v`` from the set named ``g``: ``"all"``
    (Haar, labels ``haar_i``), ``"local"`` (Haar products U_S x U_E,
    ``local_i``) or ``"swap"`` (the one swap, ``swap``, whatever ``n``).
    They are yielded as ``(labels, stack)`` chunks, ``tensor.stacks`` of
    ``_unitary_entries(v)``, each from one ``normal`` call of their draws
    (``unitary_shapes``, ``tensor.normal_runs``) and one QR, so every
    unitary has the bits it has in one draw of all ``n``."""
    d_s, d_e = v.d_s, v.d_e
    for chunk in stacks(1 if g == "swap" else n, _unitary_entries(v)):
        draws = normal_runs(rng, *[unitary_shapes(g, d_s, d_e)] * len(chunk))
        stem, us = unitaries_from_draws(g, tuple(map(np.stack, zip(*draws))), d_s, d_e)
        yield ([stem], us[None]) if g == "swap" else ([f"{stem}_{i}" for i in chunk], us)


def unitary_shapes(g: str, d_s: int, d_e: int) -> list[tuple[int, ...]]:
    """The shapes of the normal draws behind one unitary of the set named
    ``g``, in stream order: a Ginibre pair (see ``tensor.haar_unitaries``)
    on S x E for ``"all"``, one on S and then one on E for ``"local"``,
    none for ``"swap"``."""
    if g == "all":
        return [(2, d_s * d_e, d_s * d_e)]
    if g == "local":
        return [(2, d_s, d_s), (2, d_e, d_e)]
    return []


def unitaries_from_draws(g: str, draws: tuple, d_s: int, d_e: int) -> tuple[str, np.ndarray]:
    """The label stem and the unitaries of the set named ``g`` built from
    the normal draws of ``unitary_shapes``, stacked along leading axes: one
    QR per stack.  The swap is the one matrix, whatever the draws."""
    if g == "all":
        return "haar", haar_unitaries(draws[0])
    if g == "local":
        return "local", kron(haar_unitaries(draws[0]), haar_unitaries(draws[1]))
    if g == "swap":
        if d_s != d_e:
            raise ValueError("swap needs equal system and environment dimensions")
        return "swap", swap_unitary(d_s)
    raise ValueError(f"unknown unitary set {g!r}")


def g_consistency_report(
    v: Subspace, g: str, violations: list[float], tol: float = CONSISTENCY_TOL
) -> dict:
    """Consistency of a subspace over the unitary set named ``g``, summarized
    from the ``u_consistency_violation`` of each unitary the caller checked.

    ``worst_violation`` is the largest of ``violations``, and the set is
    consistent when it is at most ``tol``.  An empty kernel is consistent
    for every unitary, and local product unitaries conjugate the kernel
    into itself exactly, so both are reported as exact; the checked
    violations are reported alongside.
    """
    dim_v0 = v.dim_v0
    # Tr_E((U_S x U_E) Y (U_S x U_E)^dag) = U_S Tr_E(Y) U_S^dag = 0.
    exact = dim_v0 == 0 or g == "local"
    worst = max(violations, default=0.0)
    return {
        "set": g,
        "dim_v": v.dim,
        "dim_v0": dim_v0,
        "exact": exact,
        "consistent": exact or worst <= tol,
        "worst_violation": worst,
        "checked": len(violations),
    }


def canonical_assignment(v: Subspace) -> AssignmentMap:
    """Minimum-Frobenius-norm right inverse of Tr_E restricted to V.

    The Moore-Penrose section is deterministic and basis independent;
    operators outside the domain Tr_E V are first projected onto it.  It
    is ``B vh[:k]^dag S_k^-1 U_k^dag`` from the subspace's one cached SVD
    of Tr_E on V, whose trailing rows ``vh[k:]`` give the kernel, so
    dim V = dim V0 + k, the rank of the domain projector ``U_k U_k^dag``.
    The full space and demo 1's V give it in closed form, on all of L(S),
    and a Markov-block span gives it in Kraus form on its domain, with no
    factorization of Tr_E.
    """
    return v.canonical_assignment()


def perturb_assignment(
    base: AssignmentMap, delta: np.ndarray, v: Subspace, tol: float = 1e-8
) -> AssignmentMap:
    """Add a kernel-valued linear map to an assignment.

    ``delta`` maps vec L(H_S) into V0 of ``v`` (or of V0 itself, its own
    kernel); trace consistency survives as Tr_E vanishes on the kernel.
    """
    delta = np.asarray(delta, dtype=complex)
    if delta.shape != base.mat.shape:
        raise ValueError(f"delta shape {delta.shape}, expected {base.mat.shape}")
    escape = v.kernel_escape(delta)
    if escape > tol * max(1.0, np.linalg.norm(delta)):
        raise ValueError(f"delta range escapes the kernel (residual {escape:.3e})")
    return AssignmentMap(base.d_s, base.d_e, base.mat + delta, base.domain_projector)


def reduced_dynamics_verdict(assign: AssignmentMap, u: np.ndarray) -> tuple[ChannelMap, dict]:
    """The reduced channel Psi = Tr_E o Ad_U o ``assign`` and its verdicts
    ``{cp, tp, min_choi_eigenvalue}``: CP and the least eigenvalue from the
    Choi matrix of Psi, TP on the assignment's domain.  A stack of
    unitaries gives a stack of channels and arrays of verdicts.

    Psi is ``assign.reduced(u)``: for a block-backed assignment, one Gram
    matrix per block of its operators ``(I kron <e|) U A_k`` on that
    block's columns, with no (d^2, d_s^2) matrix built; for a ``mat``-only
    one, one ``tensor.tr_e`` of ``mat``."""
    psi = assign.reduced(u)
    cp, min_eig = psd_check(choi(psi))
    tp = is_tp_on_domain(psi, assign.domain_projector)
    return psi, {"cp": cp, "tp": tp, "min_choi_eigenvalue": min_eig}


def records(cols: dict, **head) -> list[dict]:
    """One record per row of the columns ``cols``, lists or stacks read as
    Python values, after the entries ``head`` all share; to the shortest."""
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in cols.values()))
    return [{**head, **dict(zip(cols, row))} for row in rows]


def theorem1_verify(
    v: Subspace,
    g: str,
    unitaries,
    assignment: AssignmentMap | None = None,
    tol: float = CONSISTENCY_TOL,
) -> dict:
    """Check the subspace/assignment route to CP reduced dynamics.

    Reports, over the ``(labels, stack)`` chunks of ``unitaries`` the
    caller drew from the set named ``g`` (see ``sample_unitaries``), (a)
    consistency of the subspace, (b) the CP flag of the assignment, and
    per-unitary CP/TP verdicts of the reduced channel; nothing is drawn
    here.  A chunk is checked as one stack, its records formed from the
    columns of its verdicts and violations (``records``).  Each record's
    ``perturbation_deviation`` is ``u_consistency_violation`` for its
    unitary: the exact bound on how far the reduced dynamics moves per unit
    Frobenius norm of a kernel-valued perturbation of the assignment; (a)
    is the summary of those same values against ``tol``.  The combined
    check passes when (a) and (b) imply CP dynamics and perturbation
    independence throughout.
    """
    assign = canonical_assignment(v) if assignment is None else assignment
    per_u = []
    for labels, us in unitaries:
        _, verdict = reduced_dynamics_verdict(assign, us)
        deviation = u_consistency_violation(v, us)
        per_u += records({"unitary": labels, **verdict, "perturbation_deviation": deviation})
    deviations = [rec["perturbation_deviation"] for rec in per_u]
    consistency = g_consistency_report(v, g, deviations, tol)
    premises = bool(consistency["consistent"]) and bool(assign.cp)
    conclusion = all(rec["cp"] for rec in per_u) and consistency["worst_violation"] <= tol
    return {
        "dim_v": v.dim,
        "dim_v0": consistency["dim_v0"],
        "consistency": consistency,
        "assignment": {
            "trace_consistent": bool(assign.trace_consistent),
            "hermitian": bool(assign.hermitian),
            "cp": bool(assign.cp),
        },
        "per_unitary": per_u,
        "premises_hold": premises,
        "conclusion_holds": conclusion,
        "passed": (not premises) or conclusion,
    }
