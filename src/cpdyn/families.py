"""Initial system-environment state families.

Each family separates fixed data (environment states, block layout and
frame) from free parameters (probability distributions, free block
states, steering operators).  All members are density matrices on S x E;
the Markov construction additionally carries an ancilla A.

The block families are layouts of one spec, ``MarkovBlocksSpec``: members
directsum_i p_i rho_L_i kron omega_RE_i with fixed states on R_i x E, up to
a unitary on S, the ``frame`` (Lu, PRA 93, 042332).  A factorized family
rho_S kron omega_E is the one block (d_s, 1); a direct sum of factorized
blocks has blocks (d_i, 1); a block holding a fixed S x E state omega_SE_i
is a block (1, d_i); classical-quantum, sum_i p_i |b_i><b_i| kron omega_i,
is d_s blocks (1, 1) in the frame of the b_i.  Every reader of a layout
takes its blocks from ``block_slices``.

A tripartite Markov state directsum_i q_i omega_AL_i kron omega_RE_i,
``MarkovStateSpec``, is its ancilla half on such a layout: it holds q and
the omega_AL_i, and its ``layout`` holds the blocks, d_E and the
omega_RE_i that the family it steers to shares.

A spec whose arrays carry a leading trial axis is a stack of specs on one
layout, validated at once, and ``sample_member``, ``steer``,
``build_markov_state``, ``structure_fit`` and ``in_frame`` then act on each
trial: per block, ``omega_re`` and ``omega_al`` hold ``(trials, n, n)``
stacks and the probabilities a ``(trials, blocks)`` array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    _scalar,
    check_density,
    first_failure,
    frobenius,
    ginibre_densities,
    kron,
    min_eigenvalue,
    normal_runs,
    partial_trace,
    per_stream,
    psd_check,
    psd_tolerance,
    random_density,
    unvec,
    vec,
)

__all__ = [
    "MarkovBlocksSpec",
    "SteeredSpec",
    "KernelExtendedSpec",
    "FamilyParams",
    "MarkovStateSpec",
    "sample_member",
    "random_params",
    "span_generators",
    "build_markov_state",
    "markov_state_draws",
    "steer",
    "structure_fit",
    "block_slices",
    "in_frame",
]


def _check_probs(p) -> np.ndarray:
    """A distribution over the last axis of ``p``, clipped at 0."""
    p = np.asarray(p, dtype=float)
    bad = (p < -1e-12).any(axis=-1) | (np.abs(p.sum(axis=-1) - 1.0) > 1e-9)
    who = first_failure(bad, "probability distribution")
    if who is not None:
        k = tuple(np.argwhere(bad)[0])
        raise ValueError(f"invalid {who} {p[k]}")
    return np.clip(p, 0.0, None)


@dataclass(frozen=True)
class MarkovBlocksSpec:
    """H_S = directsum_i L_i x R_i with fixed states on each R_i x E, laid
    out in the system basis given by the columns of the unitary ``frame``
    (the standard basis when it is None)."""

    blocks: tuple[tuple[int, int], ...]
    d_e: int
    omega_re: tuple[np.ndarray, ...] = field(repr=False)
    frame: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if len(self.omega_re) != len(self.blocks):
            raise ValueError("need one fixed R,E state per block")
        f, eye = self.frame, np.eye(self.d_s)
        if f is not None:
            if f.shape[-2:] != eye.shape:
                raise ValueError("frame is not a unitary on S")
            drift = np.abs(f.swapaxes(-1, -2).conj() @ f - eye).max(axis=(-2, -1))
            who = first_failure(drift > 1e-9, "frame")
            if who is not None:
                raise ValueError(f"{who} is not a unitary on S")
        for i, ((_, r), w) in enumerate(zip(self.blocks, self.omega_re)):
            check_density(w, f"omega_RE_{i}")
            if w.shape[-1] != r * self.d_e:
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
        if self.omega_ase.shape[-1] != self.d_a * self.d_s * self.d_e:
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
    """Tripartite Markov construction directsum_i q_i omega_AL_i kron
    omega_RE_i: the ancilla half (q, omega_AL_i) on a ``layout`` that holds
    the blocks, d_E and the omega_RE_i, validated there.  The state is
    built in the standard basis, so a framed layout is refused."""

    d_a: int
    q: tuple[float, ...]
    omega_al: tuple[np.ndarray, ...] = field(repr=False)
    layout: MarkovBlocksSpec

    def __post_init__(self):
        _check_probs(self.q)
        if self.layout.frame is not None:
            raise ValueError("a Markov state is built on an unframed layout")
        if not np.shape(self.q)[-1] == len(self.omega_al) == len(self.layout.blocks):
            raise ValueError("per-block data lengths disagree")
        for i, ((l, _), wal) in enumerate(zip(self.layout.blocks, self.omega_al)):
            check_density(wal, f"omega_AL_{i}")
            if wal.shape[-1] != self.d_a * l:
                raise ValueError(f"block {i} dimension mismatch")


def block_slices(blocks, d_f: int = 1):
    """Yield ``(l, r, s)`` for each block (l, r) of a layout, with ``s`` the
    slice of the block's rows in S x F: a block's (l, r, f) rows are
    contiguous, in the index order of a plain kron."""
    hi = 0
    for l, r in blocks:
        lo, hi = hi, hi + l * r * d_f
        yield l, r, slice(lo, hi)


def in_frame(x: np.ndarray, frame: np.ndarray | None, d_f: int = 1) -> np.ndarray:
    """``(F kron I_F) x (F kron I_F)^dag`` for each operator on S x F in the
    last two axes of ``x``: ``x`` read in the basis of the columns of the
    unitary ``frame`` F, or ``x`` itself when ``frame`` is None."""
    if frame is None:
        return x
    g = kron(frame, np.eye(d_f))
    return g @ x @ g.swapaxes(-1, -2).conj()


def _direct_sum(blocks, d_e: int, terms, d_a: int = 1) -> np.ndarray:
    """The operator on A x S x E holding ``terms[i]``, an operator on
    A x L_i x R_i x E in index order (a, l, r, e), in block i."""
    terms = list(terms)
    batch, n = terms[0].shape[:-2], sum(l * r for l, r in blocks) * d_e
    out = np.zeros(batch + (d_a, n, d_a, n), dtype=complex)
    for (_, _, s), t in zip(block_slices(blocks, d_e), terms):
        m = s.stop - s.start
        out[..., :, s, :, s] += t.reshape(batch + (d_a, m, d_a, m))
    return out.reshape(batch + (d_a * n, d_a * n))


def _weighted(p, ops):
    """``p_i ops_i`` for each block i, with ``p`` indexed by block in its
    last axis."""
    return (q[..., None, None] * op for q, op in zip(np.moveaxis(np.asarray(p), -1, 0), ops))


def random_params(spec, rng: np.random.Generator) -> FamilyParams:
    """Draw a valid random parameter set for the given family spec."""
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
    if isinstance(spec, MarkovBlocksSpec):
        p = _check_probs(params.probs)
        terms = _weighted(p, map(kron, params.states, spec.omega_re))
        return in_frame(_direct_sum(spec.blocks, spec.d_e, terms), spec.frame, spec.d_e)
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

    * markov-blocks: ``E_ab kron omega_RE_i`` in block i, with a, b < l_i,
      sum_i l_i^2 of them (a block with l_i = 1 gives its fixed state
      alone), read in the spec's frame: classical-quantum gives
      ``|b_i><b_i| kron omega_i``, d_s of them;
    * steered: ``Tr_A[(E_ab kron I) omega_ASE]`` for a, b < d_a.

    The Markov-block generators are mutually orthogonal.  A
    kernel-extended member is not linear in its parameters (its step along
    the kernel is found by a PSD search), so that family has no generators.
    The CLI takes a Markov-block span in closed form
    (``consistency.markov_block_space``); ``span_from_states`` of these
    generators is the reference that closed form is tested against.
    """
    if isinstance(spec, MarkovBlocksSpec):
        d, out = spec.d_s * spec.d_e, []
        for (l, _, s), w in zip(block_slices(spec.blocks, spec.d_e), spec.omega_re):
            n, eye = s.stop - s.start, np.eye(l, dtype=complex)
            g = np.zeros((l * l, d, d), dtype=complex)
            g[:, s, s] = np.einsum("ac,bd,xy->abcxdy", eye, eye, w).reshape(l * l, n, n)
            out.append(g)
        return list(in_frame(np.concatenate(out), spec.frame, spec.d_e))
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
    lay = spec.layout
    terms = _weighted(spec.q, map(kron, spec.omega_al, lay.omega_re))
    return _direct_sum(lay.blocks, lay.d_e, terms, spec.d_a)


def markov_state_draws(d_a: int, blocks, d_e: int, rngs, *then) -> tuple:
    """The draws ``(q, omega_al, omega_re)`` of a random Markov construction
    with full-rank block states, not yet validated, from one generator or
    stacked from each of a sequence (``tensor.per_stream``).

    A stream gives q by one Dirichlet draw, then the Ginibre pairs of every
    omega_AL_i and every omega_RE_i in one run of normal draws, which goes
    on with the groups of shapes ``then`` (``tensor.normal_runs``); their
    draws follow the three."""
    q = per_stream(rngs, lambda rng: rng.dirichlet(np.ones(len(blocks))))
    x_al, x_re, *rest = normal_runs(
        rngs,
        [(2, d_a * l, d_a * l) for l, _ in blocks],
        [(2, r * d_e, r * d_e) for _, r in blocks],
        *then,
    )
    return q, tuple(map(ginibre_densities, x_al)), tuple(map(ginibre_densities, x_re)), *rest


def steer(omega_ase: np.ndarray, d_a: int, p_a: np.ndarray) -> np.ndarray:
    """Condition on a positive ancilla operator and trace A out.

    Implements Tr_A[(P_A kron I_SE) omega_ASE], renormalized.  A P_A that
    is not Hermitian PSD (``psd_check``) is refused: its result would not
    be a density matrix.
    """
    p_a = np.asarray(p_a, dtype=complex)
    if not np.all(psd_check(p_a)[0]):
        raise ValueError("steering operator must be Hermitian positive semidefinite")
    d = omega_ase.shape[-1]
    d_se = d // d_a
    big = kron(p_a, np.eye(d_se))
    weighted = big @ omega_ase
    norm = np.trace(weighted, axis1=-2, axis2=-1).real
    if np.any(norm <= 1e-14):
        raise ValueError("steering operator has zero overlap with the state")
    return partial_trace(weighted, (d_a, d_se), keep=(1,)) / np.asarray(norm)[..., None, None]


def structure_fit(rho, blocks, fixed, d_f: int) -> float:
    """Frobenius distance from ``rho`` on S x F to the span of the states
    directsum_i p_i rho_L_i kron fixed_i: each diagonal block is projected
    onto the span of the E_ab kron fixed_i by the normalized partial inner
    product, and every off-block entry is left over."""
    rho = np.asarray(rho, dtype=complex)
    batch = rho.shape[:-2]
    recon = np.zeros_like(rho)
    for (l, r, s), w in zip(block_slices(blocks, d_f), fixed):
        w = np.asarray(w, dtype=complex)
        # A contiguous copy of the block, which einsum reads fastest.
        blk = rho[..., s, s].copy().reshape(batch + (l, r * d_f, l, r * d_f))
        # <w, w> per matrix, as the (1, N) @ (N, 1) product of np.vdot.
        flat = w.reshape(w.shape[:-2] + (1, -1))
        norm2 = (flat.conj() @ flat.swapaxes(-1, -2)).real
        m_l = np.einsum("...awbv,...wv->...ab", blk, w.conj()) / norm2
        recon[..., s, s] += kron(m_l, w)
    return _scalar(frobenius(rho - recon))
