"""Every basis, the caller's and those cpdyn builds, passes the
constructor's Gram check; here a tighter check runs as an oracle on every
internal construction.  Also: the canonical assignment and the kernel read
one SVD of Tr_E on V, with one rank cutoff, on wide and tall Tr_E alike,
and the kernel matches an independent pseudoinverse oracle."""

from types import SimpleNamespace

import numpy as np
import pytest

from cpdyn import cli, consistency
from cpdyn.consistency import (
    SPAN_RANK_FACTOR,
    OperatorSubspace,
    canonical_assignment,
    kernel_tr_e,
    span_from_states,
    subspace_from_constraint,
)
from cpdyn.tensor import kron, random_density, tr_e
from test_kernel import demo1_constraint_by_loop, identity_space


def assert_orthonormal(v: OperatorSubspace):
    """The oracle every internally built basis must pass, with its kernel."""
    for sub in (v, v.kernel):
        assert sub.basis.shape == ((sub.d_s * sub.d_e) ** 2, sub.dim)
        assert sub.basis.dtype == complex
        gram = sub.basis.conj().T @ sub.basis
        assert np.linalg.norm(gram - np.eye(sub.dim)) <= 1e-12 * max(1, sub.dim)


@pytest.mark.parametrize("d_s, d_e", [(2, 2), (2, 3), (4, 4), (4, 8)])
def test_full_space_and_its_kernel_are_orthonormal(d_s, d_e):
    # On the identity basis: the closed-form full space has none.
    assert_orthonormal(identity_space(d_s, d_e))


def _family_span(family: str) -> OperatorSubspace:
    """V as `consistency --family` builds it, from the family's generators."""
    args = SimpleNamespace(family=family, ds=None, de=2, da=2, blocks=((1, 2), (2, 1)))
    args.ds = cli._system_dim(args)
    return cli._build_subspace(args, np.random.default_rng(71))


# Every other family is a Markov-block layout, whose closed-form span has
# no basis; classical-quantum is one in a rotated frame.
def test_steered_span_and_its_kernel_are_orthonormal():
    v = _family_span("steered")
    assert v.dim > 0
    assert_orthonormal(v)


def test_demo1_constraint_space_and_its_kernel_are_orthonormal():
    # The generic oracle the closed-form space is checked against.
    d_s = d_e = 3
    v = subspace_from_constraint(demo1_constraint_by_loop(np.eye(d_e) / d_e, d_s), d_s, d_e)
    assert (v.dim, v.kernel.dim) == (73, 64)
    assert_orthonormal(v)


def test_subspace_computes_its_cached_kernel_once(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    v = identity_space(2, 3)
    assert "kernel" not in vars(v)  # nothing computed before the first read
    k = v.kernel
    assert v.kernel is k and kernel_tr_e(v) is k
    assert calls == [(4, 36)]


def _random_span(d_s, d_e, n):
    r = np.random.default_rng(9)
    return span_from_states([random_density(d_s * d_e, d_s * d_e, r) for _ in range(n)], d_s, d_e)


# The full space takes closed forms (tests/test_kernel.py), so its case runs
# on an explicit identity basis, which goes the generic path.
@pytest.mark.parametrize("build", [lambda: identity_space(2, 3), lambda: _random_span(2, 2, 7)])
def test_kernel_and_canonical_assignment_share_one_svd(monkeypatch, build):
    v = build()
    svd = np.linalg.svd
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    k, a = v.kernel, canonical_assignment(v)
    assert canonical_assignment(v).mat.tobytes() == a.mat.tobytes()
    assert calls == [(v.d_s**2, v.dim)]
    monkeypatch.undo()
    # The separately factored pseudoinverse section is the oracle.
    r = tr_e(v.basis, v.d_s, v.d_e)
    u, sv, vh = np.linalg.svd(r, full_matrices=v.dim > v.d_s**2)
    n = consistency._rank(sv, floor=1.0)
    r_pinv = vh[:n].conj().T @ (u[:, :n].conj().T / sv[:n, None])
    assert np.array_equal(a.mat, v.basis @ r_pinv)
    assert np.linalg.norm(a.domain_projector - r @ r_pinv) <= 1e-12
    assert v.dim == k.dim + n


# (d_s, d_e, states): Tr_E on V is wide (dim V > d_s^2) and takes the full
# SVD, or tall and takes the thin one, whose right factor is already square.
SVD_SHAPES = {
    "wide-2x2": (2, 2, 7),
    "wide-2x4": (2, 4, 12),
    "wide-3x3": (3, 3, 20),
    "tall-32x2": (32, 2, 8),
}


@pytest.mark.parametrize("case", list(SVD_SHAPES))
def test_kernel_matches_pinv_oracle_on_both_svd_shapes(monkeypatch, case):
    d_s, d_e, n = SVD_SHAPES[case]
    v = _random_span(d_s, d_e, n)
    svd, calls = np.linalg.svd, []

    def recording(a, *args, **kwargs):
        calls.append((a.shape, kwargs.get("full_matrices", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    k = v.kernel
    monkeypatch.undo()
    wide = n > d_s**2
    # A full left factor of a tall R would be (d_s^2, d_s^2): 1024 x 1024 at 32x2.
    assert calls == [((d_s**2, n), wide)]
    assert v._tr_e_svd[2].shape == (n, n)
    r = tr_e(v.basis, d_s, d_e)
    assert v.dim == n == k.dim + np.linalg.matrix_rank(r)
    assert (k.dim > 0) == wide
    # The projector onto V0 is B (I - R^+ R) B^dag.
    m = np.eye(n) - np.linalg.pinv(r) @ r
    if k.dim:
        p = v.basis @ m @ v.basis.conj().T
        assert np.linalg.norm(k.basis @ k.basis.conj().T - p) <= 1e-12
    else:  # ||B M B^dag||_F = ||M||_F for orthonormal B, without the d^2 x d^2 matrix
        assert np.linalg.norm(m) <= 1e-12


@pytest.mark.parametrize("case", [c for c in SVD_SHAPES if c.startswith("wide")])
def test_kernel_of_a_space_inside_ker_tr_e_is_the_space(case):
    v0 = _random_span(*SVD_SHAPES[case]).kernel
    assert v0.dim > 0
    assert v0.kernel is v0 and kernel_tr_e(v0).dim == v0.dim
    assert v0._tr_e_svd[1].size == 0
    assert not canonical_assignment(v0).domain_projector.any()


@pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-11])
def test_canonical_assignment_and_kernel_share_one_rank_cutoff(eps):
    # Tr_E on V has singular values near (1.07, 1.3 eps): at eps = 1e-10
    # and 1e-11 the second one is below the SPAN_RANK_FACTOR cutoff.
    rng = np.random.default_rng(5)
    x, z, eye = np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0]), np.eye(2)
    rho = kron(random_density(2, 2, rng), random_density(2, 2, rng))
    v = span_from_states([rho, (kron(eye, z) + eps * kron(x, eye)) / 2], 2, 2)
    a = canonical_assignment(v)
    sv = np.linalg.svd(tr_e(v.basis, 2, 2), compute_uv=False)
    kept = sv[sv > SPAN_RANK_FACTOR * sv[0]]
    rank = np.linalg.matrix_rank(a.domain_projector, tol=0.5)
    assert rank == kept.size == (2 if eps == 1e-8 else 1)
    assert v.dim == 2 == kernel_tr_e(v).dim + rank
    assert a.trace_consistent
    assert np.linalg.norm(a.mat, 2) <= (1 + 1e-6) / kept[-1]


@pytest.mark.parametrize("d_s, d_e", [(2, 2), (2, 3), (3, 2), (4, 4)])
def test_rank_floor_on_a_kernel_where_tr_e_vanishes(d_s, d_e):
    # Tr_E on V0 has singular values of order 1e-16, rounding noise that
    # the rank floor keeps from counting as rank.
    v0 = identity_space(d_s, d_e).kernel
    assert v0.dim == d_s * d_s * (d_e * d_e - 1)
    k = v0.kernel
    assert k.dim == v0.dim
    p0, pk = v0.basis @ v0.basis.conj().T, k.basis @ k.basis.conj().T
    assert np.linalg.norm(pk - p0) <= 1e-12 * v0.dim
    a = canonical_assignment(v0)
    assert not a.domain_projector.any()
    assert a.trace_consistent
