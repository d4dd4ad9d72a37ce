"""Initial system-environment state families.

Each family separates fixed data (environment states, block layout,
orthonormal bases) from free parameters (probability distributions, free
block states, steering operators).  All members are density matrices on
S x E; the Markov construction additionally carries an ancilla A.

The block families are layouts of one spec, ``MarkovBlocksSpec``: members
directsum_i p_i rho_L_i kron omega_RE_i with fixed states on R_i x E (Lu,
PRA 93, 042332).  A factorized family rho_S kron omega_E is the one block
(d_s, 1); a direct sum of factorized blocks has blocks (d_i, 1); a block
holding a fixed S x E state omega_SE_i is a block (1, d_i).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    check_density,
    kron,
    min_eigenvalue,
    partial_trace,
    psd_check,
    psd_tolerance,
    random_density,
    unvec,
    vec,
)

__all__ = [
    "ClassicalQuantumSpec",
    "MarkovBlocksSpec",
    "SteeredSpec",
    "KernelExtendedSpec",
    "FamilyParams",
    "MarkovStateSpec",
    "StructureFit",
    "sample_member",
    "random_params",
    "span_generators",
    "build_markov_state",
    "random_markov_state_spec",
    "steer",
    "structure_fit",
    "block_indices",
]


def _check_probs(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if (p < -1e-12).any() or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"invalid probability distribution {p}")
    return np.clip(p, 0.0, None)


@dataclass(frozen=True)
class ClassicalQuantumSpec:
    """Fixed orthonormal system basis, one fixed environment state per label."""

    basis: np.ndarray = field(repr=False)  # columns |i~>
    omegas: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        d = b.shape[0]
        if np.linalg.norm(b.conj().T @ b - np.eye(d)) > 1e-9 * d:
            raise ValueError("basis columns are not orthonormal")
        if len(self.omegas) != d:
            raise ValueError("need one environment state per basis vector")
        for i, w in enumerate(self.omegas):
            check_density(w, f"omega_{i}")

    @property
    def d_s(self) -> int:
        return self.basis.shape[0]

    @property
    def d_e(self) -> int:
        return self.omegas[0].shape[0]


@dataclass(frozen=True)
class MarkovBlocksSpec:
    """H_S = directsum_i L_i x R_i with fixed states on each R_i x E."""

    blocks: tuple[tuple[int, int], ...]
    d_e: int
    omega_re: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        if len(self.omega_re) != len(self.blocks):
            raise ValueError("need one fixed R,E state per block")
        for i, ((_, r), w) in enumerate(zip(self.blocks, self.omega_re)):
            check_density(w, f"omega_RE_{i}")
            if w.shape[0] != r * self.d_e:
                raise ValueError(f"omega_RE_{i} dimension mismatch")

    @property
    def d_s(self) -> int:
        return sum(l * r for l, r in self.blocks)


@dataclass(frozen=True)
class SteeredSpec:
    """Members are obtained from a fixed tripartite state by steering on A."""

    d_a: int
    d_s: int
    d_e: int
    omega_ase: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_density(self.omega_ase, "omega_ASE")
        if self.omega_ase.shape[0] != self.d_a * self.d_s * self.d_e:
            raise ValueError("omega_ASE dimension mismatch")


@dataclass(frozen=True)
class KernelExtendedSpec:
    """A Markov-block family widened by directions that vanish under Tr_E.

    ``kernel_basis`` holds orthonormal vectorized operators on S x E whose
    environment trace is zero; members are base members plus a PSD-preserving
    step along a random Hermitian kernel direction.
    """

    base: MarkovBlocksSpec
    kernel_basis: np.ndarray = field(repr=False)  # shape (d^2, k)

    @property
    def d_s(self) -> int:
        return self.base.d_s

    @property
    def d_e(self) -> int:
        return self.base.d_e


@dataclass(frozen=True)
class FamilyParams:
    """Free parameters of one family member."""

    probs: tuple[float, ...] = ()
    states: tuple[np.ndarray, ...] = ()
    p_a: np.ndarray | None = None
    kernel_coeffs: tuple[float, ...] = ()


@dataclass(frozen=True)
class MarkovStateSpec:
    """Tripartite Markov construction: directsum_i q_i omega_AL_i kron omega_RE_i."""

    d_a: int
    blocks: tuple[tuple[int, int], ...]
    d_e: int
    q: tuple[float, ...]
    omega_al: tuple[np.ndarray, ...] = field(repr=False)
    omega_re: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        _check_probs(self.q)
        if not len(self.q) == len(self.omega_al) == len(self.omega_re) == len(self.blocks):
            raise ValueError("per-block data lengths disagree")
        for i, ((l, r), wal, wre) in enumerate(
            zip(self.blocks, self.omega_al, self.omega_re)
        ):
            check_density(wal, f"omega_AL_{i}")
            check_density(wre, f"omega_RE_{i}")
            if wal.shape[0] != self.d_a * l or wre.shape[0] != r * self.d_e:
                raise ValueError(f"block {i} dimension mismatch")

    @property
    def d_s(self) -> int:
        return sum(l * r for l, r in self.blocks)


@dataclass(frozen=True)
class StructureFit:
    """Least-squares fit of a state to the block form sum_i p_i rho_L_i kron fixed_i."""

    probs: tuple[float, ...]
    block_states: tuple[np.ndarray, ...]
    residual: float


def block_indices(blocks, d_f: int, d_a: int = 1) -> list[np.ndarray]:
    """Row indices of each A x L_i x R_i x F block inside the A x S x F space.

    A is a leading ancilla factor and F a trailing one (the environment);
    either may be trivial, with dimension 1.  Index order within a block is
    (a, l, r, f), matching a plain kron.
    """
    d_s = sum(l * r for l, r in blocks)
    out = []
    off = 0
    for l, r in blocks:
        # For each ancilla value a block's (l, r, f) rows are contiguous.
        n = l * r * d_f
        out.append(np.array([(a * d_s + off) * d_f + k for a in range(d_a) for k in range(n)]))
        off += l * r
    return out


def random_params(spec, rng: np.random.Generator) -> FamilyParams:
    """Draw a valid random parameter set for the given family spec."""
    if isinstance(spec, ClassicalQuantumSpec):
        return FamilyParams(probs=tuple(rng.dirichlet(np.ones(spec.d_s))))
    if isinstance(spec, MarkovBlocksSpec):
        return FamilyParams(
            probs=tuple(rng.dirichlet(np.ones(len(spec.blocks)))),
            states=tuple(random_density(l, l, rng) for l, _ in spec.blocks),
        )
    if isinstance(spec, SteeredSpec):
        p = random_density(spec.d_a, spec.d_a, rng) * spec.d_a  # full rank, positive
        return FamilyParams(p_a=p)
    if isinstance(spec, KernelExtendedSpec):
        k = spec.kernel_basis.shape[1]
        base = random_params(spec.base, rng)
        coeffs = tuple(rng.normal(size=k))
        return FamilyParams(probs=base.probs, states=base.states, kernel_coeffs=coeffs)
    raise TypeError(f"unknown family spec {type(spec).__name__}")


def sample_member(spec, params: FamilyParams) -> np.ndarray:
    """Assemble the S x E density matrix for one parameter set."""
    if isinstance(spec, ClassicalQuantumSpec):
        p = _check_probs(params.probs)
        d = spec.d_s * spec.d_e
        out = np.zeros((d, d), dtype=complex)
        for i in range(spec.d_s):
            b = spec.basis[:, i]
            out += p[i] * kron(np.outer(b, b.conj()), spec.omegas[i])
        return out
    if isinstance(spec, MarkovBlocksSpec):
        p = _check_probs(params.probs)
        d = spec.d_s * spec.d_e
        out = np.zeros((d, d), dtype=complex)
        idx = block_indices(spec.blocks, spec.d_e)
        for i, (rho_l, w) in enumerate(zip(params.states, spec.omega_re)):
            out[np.ix_(idx[i], idx[i])] += p[i] * kron(rho_l, w)
        return out
    if isinstance(spec, SteeredSpec):
        return steer(spec.omega_ase, spec.d_a, params.p_a)
    if isinstance(spec, KernelExtendedSpec):
        base = sample_member(spec.base, FamilyParams(params.probs, params.states))
        return _extend_along_kernel(base, spec.kernel_basis, params.kernel_coeffs)
    raise TypeError(f"unknown family spec {type(spec).__name__}")


def span_generators(spec) -> list[np.ndarray]:
    """Operators on S x E whose span is the span of the family's members.

    A member is the normalization of a linear function of its free
    parameters, so the members span the image of that function, which is
    spanned by its values on unit parameters:

    * classical-quantum: ``|b_i><b_i| kron omega_i``, d_s of them;
    * markov-blocks: ``E_ab kron omega_RE_i`` in block i, with a, b < l_i,
      sum_i l_i^2 of them (a block with l_i = 1 gives its fixed state alone);
    * steered: ``Tr_A[(E_ab kron I) omega_ASE]`` for a, b < d_a.

    All but the steered generators are mutually orthogonal.  A
    kernel-extended member is not linear in its parameters (its step along
    the kernel is found by a PSD search), so that family has no generators.
    """
    if isinstance(spec, ClassicalQuantumSpec):
        b, w = np.asarray(spec.basis), np.asarray(spec.omegas)
        d = spec.d_s * spec.d_e
        return list(np.einsum("ai,bi,ixy->iaxby", b, b.conj(), w).reshape(spec.d_s, d, d))
    if isinstance(spec, MarkovBlocksSpec):
        d = spec.d_s * spec.d_e
        out, hi = [], 0
        for (l, r), w in zip(spec.blocks, spec.omega_re):
            # Block i's rows are contiguous; E_ab in row-major order of (a, b).
            lo, hi = hi, hi + l * r * spec.d_e
            eye = np.eye(l, dtype=complex)
            g = np.zeros((l * l, d, d), dtype=complex)
            g[:, lo:hi, lo:hi] = np.einsum("ac,bd,xy->abcxdy", eye, eye, w).reshape(
                l * l, hi - lo, hi - lo
            )
            out.extend(g)
        return out
    if isinstance(spec, SteeredSpec):
        # Tr_A[(E_ab kron I) omega]_{st} = omega_{(b,s),(a,t)}: block (b, a) of omega.
        d_se = spec.d_s * spec.d_e
        t = np.asarray(spec.omega_ase, dtype=complex).reshape(spec.d_a, d_se, spec.d_a, d_se)
        return [t[b, :, a, :] for a in range(spec.d_a) for b in range(spec.d_a)]
    raise TypeError(f"no linear generators for {type(spec).__name__}")


def _extend_along_kernel(base, kernel_basis, coeffs) -> np.ndarray:
    """Largest PSD-preserving step along a Hermitian kernel direction.

    A binary search finds the biggest t in [0, 1] keeping base + t*Y PSD;
    the emitted member backs off to 0.9 t to stay strictly inside.
    """
    d = base.shape[0]
    z = np.asarray(coeffs, dtype=complex)
    if z.size == 0 or not np.linalg.norm(z):
        return base
    y = unvec(kernel_basis @ z, d)
    y = (y + y.conj().T) / 2
    # Re-project after Hermitization so the direction stays in the kernel.
    y = unvec(kernel_basis @ (kernel_basis.conj().T @ vec(y)), d)
    y = (y + y.conj().T) / 2
    ny = np.linalg.norm(y)
    if ny < 1e-14:
        return base
    y /= ny
    tol = psd_tolerance(base)
    if min_eigenvalue(base + y) >= -tol:
        t = 1.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(50):
            mid = (lo + hi) / 2
            if min_eigenvalue(base + mid * y) >= -tol:
                lo = mid
            else:
                hi = mid
        t = lo
    return base + 0.9 * t * y


def build_markov_state(spec: MarkovStateSpec) -> np.ndarray:
    """Assemble the A x S x E state directsum_i q_i omega_AL_i kron omega_RE_i."""
    d = spec.d_a * spec.d_s * spec.d_e
    out = np.zeros((d, d), dtype=complex)
    idx = block_indices(spec.blocks, spec.d_e, spec.d_a)
    for ix, q, wal, wre in zip(idx, spec.q, spec.omega_al, spec.omega_re):
        out[np.ix_(ix, ix)] += q * kron(wal, wre)  # index order (a, l, r, e)
    return out


def random_markov_state_spec(
    d_a: int, blocks, d_e: int, rng: np.random.Generator
) -> MarkovStateSpec:
    """Random Markov construction with full-rank block states."""
    blocks = tuple(tuple(b) for b in blocks)
    q = tuple(rng.dirichlet(np.ones(len(blocks))))
    omega_al = tuple(random_density(d_a * l, d_a * l, rng) for l, _ in blocks)
    omega_re = tuple(random_density(r * d_e, r * d_e, rng) for _, r in blocks)
    return MarkovStateSpec(d_a, blocks, d_e, q, omega_al, omega_re)


def steer(omega_ase: np.ndarray, d_a: int, p_a: np.ndarray) -> np.ndarray:
    """Condition on a positive ancilla operator and trace A out.

    Implements Tr_A[(P_A kron I_SE) omega_ASE], renormalized.  Positivity
    is checked on the Hermitian part of P_A.
    """
    p_a = np.asarray(p_a, dtype=complex)
    if not psd_check((p_a + p_a.conj().T) / 2)[0]:
        raise ValueError("steering operator must be positive semidefinite")
    d = omega_ase.shape[0]
    d_se = d // d_a
    big = kron(p_a, np.eye(d_se))
    weighted = big @ omega_ase
    norm = np.trace(weighted).real
    if norm <= 1e-14:
        raise ValueError("steering operator has zero overlap with the state")
    return partial_trace(weighted, (d_a, d_se), keep=(1,)) / norm


def structure_fit(rho, blocks, fixed, d_f: int) -> StructureFit:
    """Fit ``rho`` on S x F to directsum_i p_i rho_L_i kron fixed_i.

    Each block is projected onto its fixed R x F state by the normalized
    partial inner product; the residual is the Frobenius norm of whatever
    the fitted form leaves unexplained (off-block weight included).
    """
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    idx = block_indices(blocks, d_f)
    recon = np.zeros_like(rho)
    probs = []
    block_states = []
    for (l, r), ix, w in zip(blocks, idx, fixed):
        w = np.asarray(w, dtype=complex)
        blk = rho[np.ix_(ix, ix)].reshape(l, r * d_f, l, r * d_f)
        scale = np.vdot(w, w).real
        m_l = np.einsum("awbv,wv->ab", blk, w.conj()) / scale
        p = np.trace(m_l).real
        if p > 1e-12:
            rho_l = m_l / p
        else:
            p = max(p, 0.0)
            rho_l = np.eye(l) / l
        probs.append(float(p))
        block_states.append(rho_l)
        recon[np.ix_(ix, ix)] += np.kron(m_l, w)
    residual = float(np.linalg.norm(rho - recon))
    return StructureFit(tuple(probs), tuple(block_states), residual)
