"""The Tr_E kernel and the constraint null space against their full-SVD
references, the kernel computed once per subspace, kernel properties at
dimensions beyond 2x2, the closed forms of the full space and of demo 1's
space against the kernel-basis path on an explicit basis, and closed forms
that carry no basis."""

import numpy as np
import pytest

from cpdyn.consistency import (
    SPAN_RANK_FACTOR,
    OperatorSubspace,
    canonical_assignment,
    full_space,
    g_consistency_report,
    kernel_tr_e,
    markov_block_space,
    span_from_states,
    subspace_from_constraint,
    u_consistency_violation,
)
from cpdyn.families import MarkovBlocksSpec, random_params, sample_member
from cpdyn.tensor import (
    kron,
    random_density,
    random_haar_unitary,
    swap_unitary,
    tr_e,
    vec,
)
from trial_oracle import random_hermitian

TOL = 1e-12


def _rank(sv):
    top = sv[0] if sv.size and sv[0] > 0 else 1.0
    return int((sv > SPAN_RANK_FACTOR * top).sum())


def kernel_tr_e_full_svd(v):
    """Reference kernel: V times the trailing right singular vectors of a
    full SVD of Tr_E restricted to V.  Returns the basis and the rank."""
    r = tr_e(v.basis, v.d_s, v.d_e)
    _, sv, vh = np.linalg.svd(r, full_matrices=True)
    rank = _rank(sv)
    return v.basis @ vh[rank:].conj().T, rank


def null_space_full_svd(a):
    """Reference null space: trailing right singular vectors of a full SVD."""
    _, sv, vh = np.linalg.svd(a)
    rank = _rank(sv)
    return vh[rank:].conj().T, rank


def _markov_span():
    rng = np.random.default_rng(11)
    blocks, d_e = ((1, 2), (2, 1)), 2
    spec = MarkovBlocksSpec(
        blocks, d_e, tuple(random_density(r * d_e, r * d_e, rng) for _, r in blocks)
    )
    members = [sample_member(spec, random_params(spec, rng)) for _ in range(spec.d_s**2 + 2)]
    return span_from_states(members, spec.d_s, d_e)


def _inside_kernel():
    # Off-diagonal environment units E_ss' (x) E_ee' (e != e') have Tr_E
    # exactly zero, so Tr_E vanishes on V and the rank is 0.
    d_s, d_e = 2, 3
    units = [
        vec(kron(np.outer(np.eye(d_s)[s], np.eye(d_s)[t]), np.outer(np.eye(d_e)[e], np.eye(d_e)[f])))
        for s in range(d_s)
        for t in range(d_s)
        for e in range(d_e)
        for f in range(d_e)
        if e != f
    ]
    rotation = random_haar_unitary(len(units), np.random.default_rng(12))
    return OperatorSubspace(d_s, d_e, np.column_stack(units) @ rotation)


def _trace_injective():
    # x (x) omega_E for three independent x: Tr_E is injective on V, so the
    # rank is dim V and the kernel is empty.
    rng = np.random.default_rng(13)
    d_s, d_e = 2, 3
    omega = random_density(d_e, d_e, rng)
    return span_from_states([kron(random_hermitian(d_s, rng), omega) for _ in range(3)], d_s, d_e)


def identity_space(d_s, d_e):
    """All of L(S x E) on an explicit identity basis: the generic path."""
    return OperatorSubspace(d_s, d_e, np.eye((d_s * d_e) ** 2))


KERNEL_CASES = {
    "full-2x2": lambda: identity_space(2, 2),
    "full-2x3": lambda: identity_space(2, 3),
    "full-3x2": lambda: identity_space(3, 2),
    "full-4x4": lambda: identity_space(4, 4),
    "markov-blocks": _markov_span,
    "inside-kernel": _inside_kernel,
    "trace-injective": _trace_injective,
}


def _assert_same_subspace(k, k0):
    assert k.shape == k0.shape
    assert np.linalg.norm(k @ k.conj().T - k0 @ k0.conj().T) <= TOL
    assert np.linalg.norm(k.conj().T @ k - np.eye(k.shape[1])) <= TOL


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_matches_full_svd_oracle(case):
    v = KERNEL_CASES[case]()
    kernel = kernel_tr_e(v)
    k0, rank = kernel_tr_e_full_svd(v)
    _assert_same_subspace(kernel.basis, k0)
    assert kernel.dim == v.dim - rank
    if kernel.dim:
        assert np.linalg.norm(tr_e(kernel.basis, v.d_s, v.d_e), axis=0).max() <= TOL
    if case == "markov-blocks":
        assert 0 < rank < v.d_s**2
    if case == "inside-kernel":
        assert rank == 0 and kernel.dim == v.dim
    if case == "trace-injective":
        assert rank == v.dim and kernel.dim == 0


def _constraint(name):
    rng = np.random.default_rng(21)
    n = 16
    if name == "generic":
        return rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    if name == "rank-deficient":
        return rng.normal(size=(6, 2)) @ rng.normal(size=(2, n))
    if name == "zero":
        return np.zeros((4, n))
    if name == "full-rank":
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    raise ValueError(name)


@pytest.mark.parametrize("name", ["generic", "rank-deficient", "zero", "full-rank"])
def test_constraint_null_space_matches_full_svd_oracle(name):
    a = _constraint(name)
    v = subspace_from_constraint(a, 2, 2)
    k0, rank = null_space_full_svd(a)
    _assert_same_subspace(v.basis, k0)
    assert v.dim == a.shape[1] - rank
    if v.dim:
        assert np.linalg.norm(a @ v.basis, axis=0).max() <= TOL
    assert v.dim == {"generic": 13, "rank-deficient": 14, "zero": 16, "full-rank": 0}[name]


def test_kernel_is_computed_once_per_subspace():
    v = identity_space(2, 3)
    assert kernel_tr_e(v) is kernel_tr_e(v)
    assert v.kernel is kernel_tr_e(v)


@pytest.mark.parametrize("d_s, d_e", [(4, 4), (2, 8)])
def test_full_space_kernel_properties_beyond_2x2(d_s, d_e):
    v = full_space(d_s, d_e)
    rank = np.linalg.matrix_rank(tr_e(np.eye(v.dim), d_s, d_e), tol=1e-9)
    assert v.dim == v.dim_v0 + rank
    assert v.dim_v0 == d_s * d_s * (d_e * d_e - 1)
    rng = np.random.default_rng(31)
    for _ in range(3):
        u = kron(random_haar_unitary(d_s, rng), random_haar_unitary(d_e, rng))
        assert u_consistency_violation(v, u) <= 1e-9


# The full space's closed forms against the kernel-basis path, which an
# explicit identity basis still takes.

ORACLE_DIMS = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 4), (4, 8)]


@pytest.mark.parametrize("d_s, d_e", ORACLE_DIMS)
def test_full_space_closed_forms_match_kernel_basis_oracle(d_s, d_e):
    d = d_s * d_e
    v, oracle = full_space(d_s, d_e), identity_space(d_s, d_e)
    rng = np.random.default_rng(41 + 10 * d_s + d_e)
    for _ in range(3):
        haar = random_haar_unitary(d, rng)
        local = kron(random_haar_unitary(d_s, rng), random_haar_unitary(d_e, rng))
        for u in (haar, local):
            a, b = u_consistency_violation(v, u), u_consistency_violation(oracle, u)
            assert abs(a - b) <= 1e-12 * max(1.0, a)
        assert u_consistency_violation(v, haar) > 1e-3
        assert u_consistency_violation(v, local) <= 1e-13
    a, b = canonical_assignment(v), canonical_assignment(oracle)
    assert np.abs(a.mat - b.mat).max() <= 1e-12
    assert np.abs(a.domain_projector - b.domain_projector).max() <= 1e-12
    assert g_consistency_report(v, "all", [])["dim_v0"] == kernel_tr_e(oracle).dim
    assert v.dim == oracle.dim


@pytest.mark.parametrize("d_s, d_e", ORACLE_DIMS)
def test_full_space_kernel_escape_matches_kernel_basis_oracle(d_s, d_e):
    v, oracle = full_space(d_s, d_e), identity_space(d_s, d_e)
    k = kernel_tr_e(oracle).basis
    assert k.shape == (v.dim, v.dim_v0)
    rng = np.random.default_rng(51 + 10 * d_s + d_e)
    inside = k @ _gaussian(rng, v.dim_v0, 3)
    outside = _gaussian(rng, v.dim, 3)
    for x in (inside, outside):
        assert abs(v.kernel_escape(x) - oracle.kernel_escape(x)) <= TOL * np.linalg.norm(x)
    assert v.kernel_escape(inside) <= TOL * np.linalg.norm(inside)
    assert v.kernel_escape(outside) > 0.1 * np.linalg.norm(outside)


# Demo 1's V = {X : Tr_S X = tr(X) omega_E} in closed form against the
# kernel-basis path on the null space of its constraint, built entry by entry.


def demo1_constraint_by_loop(omega_e, d_s):
    """The reference: Tr_S X - tr(X) omega_E, one matrix unit at a time."""
    d_e = omega_e.shape[0]
    d = d_s * d_e
    t_s = np.zeros((d_e * d_e, d * d), dtype=complex)
    for e in range(d_e):
        for ep in range(d_e):
            for s in range(d_s):
                t_s[e * d_e + ep, (s * d_e + e) * d + (s * d_e + ep)] = 1.0
    return t_s - np.outer(omega_e.reshape(-1), np.eye(d).reshape(-1).conj())


def demo1_omega(d_e):
    """The environment state `demo 1` fixes."""
    if d_e == 2:
        return np.diag([0.7, 0.3]).astype(complex)
    return np.eye(d_e, dtype=complex) / d_e


def _gaussian(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("omega", ["demo", "random"])
@pytest.mark.parametrize("d_s, d_e", [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2)])
def test_demo1_space_closed_forms_match_constraint_oracle(d_s, d_e, omega):
    rng = np.random.default_rng(61 + 10 * d_s + d_e)
    omega_e = demo1_omega(d_e) if omega == "demo" else random_density(d_e, d_e, rng)
    d = d_s * d_e
    v = full_space(d_s, d_e, omega_e)
    oracle = subspace_from_constraint(demo1_constraint_by_loop(omega_e, d_s), d_s, d_e)
    k = kernel_tr_e(oracle)
    assert (v.dim, v.dim_v0) == (oracle.dim, k.dim)
    assert g_consistency_report(v, "all", [])["dim_v0"] == k.dim
    haar = random_haar_unitary(d, rng)
    local = kron(random_haar_unitary(d_s, rng), random_haar_unitary(d_e, rng))
    for u in [haar, local] + ([swap_unitary(d_s)] if d_s == d_e else []):
        a, b = u_consistency_violation(v, u), u_consistency_violation(oracle, u)
        assert abs(a - b) <= 1e-12 * max(1.0, a)
    assert u_consistency_violation(v, haar) > 1e-3
    a, b = canonical_assignment(v), canonical_assignment(oracle)
    assert np.abs(a.mat - b.mat).max() <= 1e-12
    assert np.abs(a.domain_projector - b.domain_projector).max() <= 1e-12
    inside = k.basis @ _gaussian(rng, k.dim, 5)
    outside = _gaussian(rng, d * d, 5)
    for x in (inside, outside):
        escape = v.kernel_escape(x)
        assert abs(escape - oracle.kernel_escape(x)) <= 1e-12 * np.linalg.norm(x)
    assert v.kernel_escape(inside) <= 1e-12 * np.linalg.norm(inside)
    assert v.kernel_escape(outside) > 0.1 * np.linalg.norm(outside)


def _closed_forms():
    rng = np.random.default_rng(71)
    blocks, d_e = ((1, 2), (2, 1)), 2
    omega_re = [random_density(r * d_e, r * d_e, rng) for _, r in blocks]
    return {
        "full": full_space(2, 3),
        "demo1": full_space(2, 2, demo1_omega(2)),
        "markov": markov_block_space(MarkovBlocksSpec(blocks, d_e, tuple(omega_re))),
    }


@pytest.mark.parametrize("name", ["full", "demo1", "markov"])
def test_closed_forms_carry_no_basis_or_kernel(name):
    # They answer the verifier from closed forms, and for demo 1's V the
    # identity would be a wrong basis.
    v = _closed_forms()[name]
    assert not isinstance(v, OperatorSubspace)
    for read in ("basis", "kernel", "project", "_tr_e_svd"):
        assert not hasattr(v, read)
    with pytest.raises(AttributeError):
        kernel_tr_e(v)
