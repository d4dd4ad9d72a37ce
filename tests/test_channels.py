import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdyn.channels import (
    ChannelMap,
    channel_from_function,
    channel_from_kraus,
    choi,
    choi_distance,
    is_cp,
    is_tp,
    is_tp_on_domain,
    kraus_classical_quantum,
    kraus_factorized,
    product_assignment_matrix,
    reduced_dynamics,
    trace_out_env_matrix,
)
from cpdyn.tensor import (
    PSD_TOL_FACTOR,
    is_hermitian,
    kron,
    min_eigenvalue,
    psd_check,
    partial_trace,
    random_density,
    random_haar_unitary,
    random_hermitian,
    tr_e,
    vec,
)


def identity_channel(d):
    return channel_from_function(lambda x: x, d, d)


def transpose_channel(d):
    return channel_from_function(lambda x: x.T, d, d)


def depolarizing_channel(d, p):
    return channel_from_function(
        lambda x: (1 - p) * x + p * np.trace(x) * np.eye(d) / d, d, d
    )


def test_channel_matrix_column_convention():
    # Column i*d+j of the identity channel is vec(|i><j|) itself.
    c = identity_channel(2)
    assert np.allclose(c.mat, np.eye(4))


def test_channel_apply_matches_function(rng):
    d = 3
    u = random_haar_unitary(d, rng)
    c = channel_from_function(lambda x: u @ x @ u.conj().T, d, d)
    x = random_hermitian(d, rng)
    assert np.allclose(c.apply(x), u @ x @ u.conj().T)


def test_choi_of_identity_is_maximally_entangled():
    # Oracle: C = sum_ij |ii><jj|, a rank-one matrix of trace d.
    ch = choi(identity_channel(2))
    phi = np.zeros(4)
    phi[0] = phi[3] = 1.0
    assert np.allclose(ch, np.outer(phi, phi))


def test_choi_channel_round_trip(rng):
    for d_in, d_out in [(2, 2), (2, 3), (3, 2)]:
        m = rng.normal(size=(d_out**2, d_in**2)) + 1j * rng.normal(
            size=(d_out**2, d_in**2)
        )
        # Inverse reshuffle: C[(i, a), (j, b)] is entry (a, b) of Psi(|i><j|).
        t = choi(ChannelMap(d_in, d_out, m)).reshape(d_in, d_out, d_in, d_out)
        assert np.allclose(t.transpose(1, 3, 0, 2).reshape(d_out**2, d_in**2), m)


def test_transpose_map_is_positive_but_not_cp():
    c = transpose_channel(2)
    ch = choi(c)
    assert is_tp(c)
    assert is_hermitian(ch)
    assert not is_cp(ch)
    # Oracle: the transpose Choi is the swap operator, min eigenvalue -1.
    assert abs(min_eigenvalue(ch) + 1.0) < 1e-12


def test_depolarizing_is_cp_tp():
    for p in (0.0, 0.3, 1.0):
        c = depolarizing_channel(3, p)
        assert is_cp(choi(c))
        assert is_tp(c)


def test_trace_out_env_matrix_matches_partial_trace(rng):
    for d_s, d_e in [(2, 2), (2, 3), (3, 2)]:
        t = trace_out_env_matrix(d_s, d_e)
        x = random_hermitian(d_s * d_e, rng)
        out = (t @ vec(x)).reshape(d_s, d_s)
        assert np.allclose(out, partial_trace(x, (d_s, d_e), keep=(0,)))


@pytest.mark.parametrize("haar", [False, True])
@pytest.mark.parametrize("d_s, d_e", [(2, 2), (2, 3), (3, 2), (4, 4)])
def test_tr_e_matches_dense_oracle(d_s, d_e, haar):
    rng = np.random.default_rng(100 * d_s + 10 * d_e + haar)
    d = d_s * d_e
    cols = rng.normal(size=(d * d, 5)) + 1j * rng.normal(size=(d * d, 5))
    u = random_haar_unitary(d, rng) if haar else None
    ad = np.eye(d * d) if u is None else np.kron(u, u.conj())
    expected = trace_out_env_matrix(d_s, d_e) @ ad @ cols
    out = tr_e(cols, d_s, d_e, u)
    assert out.shape == (d_s * d_s, 5)
    assert np.abs(out - expected).max() <= 1e-12


def product_assignment_by_units(omega_e, d_s):
    """Per-matrix-unit construction of x -> x kron omega_E (the reference)."""
    d = d_s * omega_e.shape[0]
    m = np.zeros((d**2, d_s**2), dtype=complex)
    for i in range(d_s):
        for j in range(d_s):
            x = np.zeros((d_s, d_s), dtype=complex)
            x[i, j] = 1.0
            m[:, i * d_s + j] = vec(kron(x, omega_e))
    return m


def test_product_assignment_matrix_matches_per_unit_loop(rng):
    for d_s, d_e in [(1, 3), (2, 2), (3, 2), (2, 4)]:
        omega = random_density(d_e, d_e, rng) + 1j * random_hermitian(d_e, rng)
        assert np.array_equal(
            product_assignment_matrix(omega, d_s), product_assignment_by_units(omega, d_s)
        )


def is_psd_by_svd(m):
    """The PSD test with its scale taken from a full SVD (the reference)."""
    tol = PSD_TOL_FACTOR * max(1.0, np.linalg.norm(m, 2))
    return is_hermitian(m) and min_eigenvalue((m + m.conj().T) / 2) >= -tol


def test_is_cp_matches_svd_scaled_reference(rng):
    for d in (1, 3, 8):
        for scale in (1e-3, 1.0, 1e4):
            w, v = np.linalg.eigh(scale * random_hermitian(d, rng))
            spread = w - w[0]
            tol = PSD_TOL_FACTOR * max(1.0, spread[-1])
            for margin in (-2.0, -0.5, 0.0, 0.5):
                # Smallest eigenvalue `margin` tolerances away from zero.
                m = (v * (spread + margin * tol)) @ v.conj().T
                assert is_cp(m) == is_psd_by_svd(m) == (margin >= -1.0)
                assert is_cp(m) == psd_check(m)[0]
    assert not is_cp(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_check_gives_cp_and_min_eigenvalue_from_one_spectrum(rng):
    # Choi matrices of reduced dynamics: CP, Hermitian but not CP (the
    # transpose), and not Hermitian (an arbitrary assignment matrix).
    cases = [choi(transpose_channel(3)).astype(complex)]
    for d_s, d_e in ((2, 2), (3, 2)):
        d = d_s * d_e
        for assign in (
            product_assignment_matrix(random_density(d_e, d_e, rng), d_s),
            rng.normal(size=(d * d, d_s * d_s)),
        ):
            cases.append(choi(reduced_dynamics(random_haar_unitary(d, rng), assign, d_s, d_e)))
    verdicts = []
    for ch in cases:
        cp, min_eig = psd_check(ch)
        # The two calls the reports used to make, bit for bit.
        assert min_eig == min_eigenvalue((ch + ch.conj().T) / 2)
        assert cp == is_psd_by_svd(ch)
        verdicts.append(cp)
    assert verdicts == [False, True, False, True, False]


def test_reduced_dynamics_matches_direct_evaluation(rng):
    d_s = d_e = 2
    omega = random_density(d_e, d_e, rng)
    u = random_haar_unitary(d_s * d_e, rng)
    c = reduced_dynamics(u, product_assignment_matrix(omega, d_s), d_s, d_e)
    rho = random_density(d_s, d_s, rng)
    direct = partial_trace(u @ kron(rho, omega) @ u.conj().T, (d_s, d_e), keep=(0,))
    assert np.allclose(c.apply(rho), direct)
    with pytest.raises(ValueError):
        reduced_dynamics(np.eye(3), product_assignment_matrix(omega, d_s), d_s, d_e)


def test_fixed_env_kraus_construction_agrees_with_composition(rng):
    for d_s, d_e in [(2, 2), (3, 3)]:
        omega = random_density(d_e, d_e, rng)
        u = random_haar_unitary(d_s * d_e, rng)
        k = kraus_factorized(u, omega, d_s, d_e)
        assert np.linalg.norm(k.closure() - np.eye(d_s)) < 1e-10
        built = channel_from_kraus(k, d_s, d_s)
        via = reduced_dynamics(u, product_assignment_matrix(omega, d_s), d_s, d_e)
        assert choi_distance(built, via) < 1e-9


def test_fixed_env_kraus_drops_zero_eigenvalues(rng):
    omega = np.diag([1.0, 0.0]).astype(complex)  # pure environment
    u = random_haar_unitary(4, rng)
    k = kraus_factorized(u, omega, 2, 2)
    assert len(k.operators) == 2  # only d_e operators survive


def test_classical_quantum_kraus_agrees_on_basis_diagonal_states(rng):
    d_s = d_e = 2
    basis = random_haar_unitary(d_s, rng)
    omegas = [random_density(d_e, d_e, rng) for _ in range(d_s)]
    u = random_haar_unitary(d_s * d_e, rng)
    k = kraus_classical_quantum(u, basis, omegas, d_s, d_e)
    p = rng.dirichlet(np.ones(d_s))
    rho = sum(
        p[i] * np.outer(basis[:, i], basis[:, i].conj()) for i in range(d_s)
    )
    joint = sum(
        p[i] * kron(np.outer(basis[:, i], basis[:, i].conj()), omegas[i])
        for i in range(d_s)
    )
    direct = partial_trace(u @ joint @ u.conj().T, (d_s, d_e), keep=(0,))
    assert np.linalg.norm(k.apply(rho) - direct) < 1e-10


def test_choi_distance_basics(rng):
    c = depolarizing_channel(2, 0.5)
    assert choi_distance(c, c) == 0.0
    assert choi_distance(identity_channel(2), transpose_channel(2)) > 1.0


def test_is_tp_on_domain(rng):
    d_s = d_e = 2
    omega = random_density(d_e, d_e, rng)
    assign = product_assignment_matrix(omega, d_s)
    c = reduced_dynamics(random_haar_unitary(4, rng), assign, d_s, d_e)
    assert is_tp_on_domain(c, np.eye(d_s * d_s))
    # Halving the map breaks trace preservation on the full domain but keeps
    # it on the trivial one.
    half = reduced_dynamics(np.eye(4), 0.5 * assign, d_s, d_e)
    assert not is_tp_on_domain(half, np.eye(d_s * d_s))
    assert is_tp_on_domain(half, np.zeros((d_s * d_s, d_s * d_s)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.floats(0.0, 1.0))
def test_random_unitary_reduction_is_cp_tp(seed, p):
    r = np.random.default_rng(seed)
    d = 2
    omega = (1 - p) * random_density(d, d, r) + p * np.eye(d) / d
    u = random_haar_unitary(d * d, r)
    c = reduced_dynamics(u, product_assignment_matrix(omega, d), d, d)
    assert is_cp(choi(c))
    assert is_tp(c)
