"""Metamorphic tests of the reduced dynamics at d_s, d_e in {2, 3, 4}.

Each test runs the verifier on a transformed input and checks the output
against the transformation the theory predicts, with no stored value:

* a unitary W on E applied after U is traced out, so (I x W) U gives the
  same channel Psi and the same ||M_U||_HS as U;
* a unitary change of basis W on S, applied to the spanning states and to
  U, turns Psi into Ad_W o Psi o Ad_W^dag, whose Choi matrix is the old
  one conjugated by conj(W) x W;
* on the full space, local unitaries L and R around U leave ||M_U||_HS
  unchanged: Ad_R maps ker Tr_E onto itself isometrically, and Tr_E o Ad_L
  is Ad_{L_S} o Tr_E, an isometry of L(S).

The full-space tests run at (4, 8) and (8, 8), and at the 64-dimension cap,
where local products must give a violation at the rounding level, below
the CLI's ``--tol`` floor.
"""

import numpy as np
import pytest

from cpdyn.channels import choi, reduced_dynamics
from cpdyn.cli import TOL_FLOOR
from cpdyn.consistency import (
    canonical_assignment,
    full_space,
    kernel_tr_e,
    span_from_states,
    u_consistency_violation,
)
from cpdyn.tensor import kron, random_density, random_haar_unitary

DIMS = [(d_s, d_e) for d_s in (2, 3, 4) for d_e in (2, 3, 4)]


def generic_states(d_s, d_e, rng):
    """d_s^2 + 2 generic states: Tr_E maps their span onto L(H_S), and the
    kernel of Tr_E in the span has dimension 2."""
    d = d_s * d_e
    return [random_density(d, d, rng) for _ in range(d_s * d_s + 2)]


@pytest.mark.parametrize("d_s, d_e", DIMS)
def test_environment_unitary_after_u_changes_nothing(d_s, d_e):
    rng = np.random.default_rng(100 * d_s + d_e)
    v = span_from_states(generic_states(d_s, d_e, rng), d_s, d_e)
    assert kernel_tr_e(v).dim == 2
    assign = canonical_assignment(v)
    u = random_haar_unitary(d_s * d_e, rng)
    uw = kron(np.eye(d_s), random_haar_unitary(d_e, rng)) @ u
    psi = reduced_dynamics(u, assign.mat, d_s, d_e).mat
    psi_w = reduced_dynamics(uw, assign.mat, d_s, d_e).mat
    assert np.abs(psi_w - psi).max() <= 1e-12 * max(1.0, np.abs(psi).max())
    hs = u_consistency_violation(v, u)
    assert hs > 1e-3  # a Haar U is not consistent on a generic kernel
    assert np.isclose(u_consistency_violation(v, uw), hs, rtol=1e-12)


@pytest.mark.parametrize("d_s, d_e", DIMS)
def test_system_change_of_basis_conjugates_the_choi_matrix(d_s, d_e):
    rng = np.random.default_rng(200 * d_s + d_e)
    states = generic_states(d_s, d_e, rng)
    w = random_haar_unitary(d_s, rng)
    w_se = kron(w, np.eye(d_e))
    v = span_from_states(states, d_s, d_e)
    v_w = span_from_states([w_se @ s @ w_se.conj().T for s in states], d_s, d_e)
    assert v_w.dim == v.dim and kernel_tr_e(v_w).dim == kernel_tr_e(v).dim
    u = random_haar_unitary(d_s * d_e, rng)
    u_w = w_se @ u @ w_se.conj().T
    c = choi(reduced_dynamics(u, canonical_assignment(v).mat, d_s, d_e))
    c_w = choi(reduced_dynamics(u_w, canonical_assignment(v_w).mat, d_s, d_e))
    x = np.kron(w.conj(), w)
    assert np.abs(c_w - x @ c @ x.conj().T).max() <= 1e-10 * max(1.0, np.abs(c).max())
    assert np.isclose(
        u_consistency_violation(v_w, u_w), u_consistency_violation(v, u), rtol=1e-10
    )


def _local(d_s, d_e, rng):
    return kron(random_haar_unitary(d_s, rng), random_haar_unitary(d_e, rng))


@pytest.mark.parametrize("d_s, d_e", [(4, 8), (8, 8)])
def test_local_unitaries_around_u_keep_the_full_space_violation(d_s, d_e):
    rng = np.random.default_rng(300 * d_s + d_e)
    v = full_space(d_s, d_e)
    u = random_haar_unitary(d_s * d_e, rng)
    hs = u_consistency_violation(v, u)
    assert hs > 1e-3
    for _ in range(3):
        lur = _local(d_s, d_e, rng) @ u @ _local(d_s, d_e, rng)
        assert np.isclose(u_consistency_violation(v, lur), hs, rtol=1e-12, atol=0)


@pytest.mark.parametrize("d_s, d_e", [(8, 8), (4, 16), (32, 2), (2, 32)])
def test_local_products_at_the_cap_stay_below_the_tol_floor(d_s, d_e):
    rng = np.random.default_rng(400 * d_s + d_e)
    v = full_space(d_s, d_e)
    for _ in range(2):
        assert u_consistency_violation(v, _local(d_s, d_e, rng)) <= 1e-13 < TOL_FLOOR
    assert "basis" not in vars(v)
