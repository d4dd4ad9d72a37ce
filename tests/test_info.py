import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdyn.cli import ghz_state
from cpdyn.families import build_markov_state, random_markov_state_spec
from cpdyn.info import (
    conditional_mutual_information,
    dpi_check,
    mutual_information,
    search_dpi_violation,
)
from cpdyn.tensor import kron, random_density, random_haar_unitary

LN2 = 0.6931471805599453


def bell_pair():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def test_mutual_information_product_state(rng):
    rho = kron(random_density(2, 2, rng), random_density(3, 3, rng))
    assert abs(mutual_information(rho, 2, 3)) < 1e-10


def test_mutual_information_bell_pair():
    # Oracle: a maximally entangled qubit pair carries 2 ln 2 of mutual
    # information.
    assert abs(mutual_information(bell_pair(), 2, 2) - 1.3862943611198906) < 1e-12


def test_mutual_information_classical_correlation():
    rho = 0.5 * kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])) + 0.5 * kron(
        np.diag([0.0, 1.0]), np.diag([0.0, 1.0])
    )
    assert abs(mutual_information(rho, 2, 2) - LN2) < 1e-12


def test_mutual_information_dimension_check(rng):
    with pytest.raises(ValueError):
        mutual_information(np.eye(4) / 4, 3, 2)


def test_cmi_vanishes_on_markov_states(rng):
    for _ in range(5):
        mspec = random_markov_state_spec(2, ((1, 2), (2, 1)), 2, rng)
        omega = build_markov_state(mspec)
        cmi = conditional_mutual_information(omega, 2, mspec.d_s, 2)
        assert abs(cmi) < 1e-9


def test_cmi_positive_on_ghz():
    # Oracle for the three-qubit GHZ state: I(A:E|S) = ln 2.
    assert abs(conditional_mutual_information(ghz_state(), 2, 2, 2) - LN2) < 1e-12


def test_dpi_holds_on_markov_states(rng):
    mspec = random_markov_state_spec(2, ((1, 2), (2, 1)), 2, rng)
    omega = build_markov_state(mspec)
    assert abs(conditional_mutual_information(omega, 2, mspec.d_s, 2)) < 1e-9
    for _ in range(10):
        u = random_haar_unitary(mspec.d_s * 2, rng)
        rep = dpi_check(omega, 2, mspec.d_s, 2, u)
        assert rep.delta >= -1e-9


def test_dpi_identity_evolution_is_neutral(rng):
    mspec = random_markov_state_spec(2, ((1, 2), (2, 1)), 2, rng)
    omega = build_markov_state(mspec)
    rep = dpi_check(omega, 2, mspec.d_s, 2, np.eye(mspec.d_s * 2))
    assert abs(rep.delta) < 1e-10
    assert abs(rep.i_before - rep.i_after) < 1e-10


def test_dpi_rejects_wrong_unitary_dimension(rng):
    mspec = random_markov_state_spec(2, ((1, 2), (2, 1)), 2, rng)
    omega = build_markov_state(mspec)
    with pytest.raises(ValueError):
        dpi_check(omega, 2, mspec.d_s, 2, np.eye(2))


def test_ghz_admits_deterministic_dpi_violation():
    # Uncomputing E onto |0> with a CNOT (control S) leaves A and S in a
    # maximally entangled pair: I(A:S) doubles, a ln 2 violation.
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    rep = dpi_check(ghz_state(), 2, 2, 2, cnot)
    assert abs(rep.delta + LN2) < 1e-9


def test_search_finds_ghz_violation():
    out = search_dpi_violation(
        ghz_state(), 2, 2, 2, np.random.default_rng(0), draws=200
    )
    assert out["found"]
    assert out["best_delta"] < -0.01
    assert 0 <= out["best_draw"] < 200


def test_search_reports_no_violation_on_markov_state(rng):
    mspec = random_markov_state_spec(2, ((1, 2), (2, 1)), 2, rng)
    omega = build_markov_state(mspec)
    out = search_dpi_violation(omega, 2, mspec.d_s, 2, rng, draws=20)
    assert not out["found"]
    assert out["best_delta"] >= -1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mutual_information_nonnegative(seed):
    r = np.random.default_rng(seed)
    rho = random_density(4, 4, r)
    assert mutual_information(rho, 2, 2) >= -1e-10


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cmi_nonnegative(seed):
    r = np.random.default_rng(seed)
    rho = random_density(8, 8, r)
    assert conditional_mutual_information(rho, 2, 2, 2) >= -1e-9
