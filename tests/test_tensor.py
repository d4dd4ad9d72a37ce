import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdyn.tensor import (
    HERM_TOL,
    PSD_TOL_FACTOR,
    STACK_ENTRIES,
    _with_adjoint,
    check_density,
    is_hermitian,
    kron,
    normal_runs,
    partial_trace,
    psd_check,
    random_density,
    random_haar_unitary,
    stacks,
    swap_unitary,
    von_neumann_entropy,
)
from trial_oracle import random_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_kron_identities():
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))
    assert np.allclose(
        kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.diag([0.0, 1.0, 0.0, 0.0])
    )


def test_kron_flips_both_qubits():
    ket00 = np.zeros(4)
    ket00[0] = 1.0
    out = kron(SX, SX) @ ket00
    expected = np.zeros(4)
    expected[3] = 1.0  # |11>
    assert np.allclose(out, expected)


def test_partial_trace_product_state(rng):
    rho_s = random_density(2, 2, rng)
    omega = random_density(3, 3, rng)
    out = partial_trace(kron(rho_s, omega), (2, 3), keep=(0,))
    assert np.allclose(out, rho_s)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    out = partial_trace(np.outer(bell, bell.conj()), (2, 2), keep=(1,))
    assert np.allclose(out, np.eye(2) / 2)


def test_partial_trace_matches_index_summation_oracle(rng):
    # Independent oracle: explicit loop over environment indices.
    rho = random_density(4, 4, rng)
    oracle = np.zeros((2, 2), dtype=complex)
    for s in range(2):
        for sp in range(2):
            for e in range(2):
                oracle[s, sp] += rho[s * 2 + e, sp * 2 + e]
    assert np.allclose(partial_trace(rho, (2, 2), keep=(0,)), oracle)


def test_partial_trace_preserves_trace(rng):
    rho = random_density(6, 6, rng)
    out = partial_trace(rho, (2, 3), keep=(1,))
    assert abs(np.trace(out) - np.trace(rho)) < 1e-12


def test_partial_trace_keeps_leading_batch_axes(rng):
    stack = np.stack([random_density(12, 12, rng) for _ in range(6)]).reshape(2, 3, 12, 12)
    for keep in ((0,), (1,), (2,), (0, 2), (1, 2)):
        out = partial_trace(stack, (2, 3, 2), keep=keep)
        singles = [partial_trace(m, (2, 3, 2), keep=keep) for m in stack.reshape(6, 12, 12)]
        assert np.array_equal(out.reshape((6,) + out.shape[2:]), np.array(singles))


def test_swap_unitary_exchanges_the_factors(rng):
    for d in (2, 3):
        swap = swap_unitary(d)
        rho, omega = random_density(d, d, rng), random_density(d, d, rng)
        assert np.allclose(swap @ kron(rho, omega) @ swap.conj().T, kron(omega, rho))


def test_haar_unitary_is_unitary_and_deterministic():
    u1 = random_haar_unitary(5, np.random.default_rng(7))
    u2 = random_haar_unitary(5, np.random.default_rng(7))
    assert np.linalg.norm(u1 @ u1.conj().T - np.eye(5)) <= 1e-12
    assert np.array_equal(u1, u2)


def test_random_density_rank_and_determinism():
    rho = random_density(3, 1, np.random.default_rng(9))
    check_density(rho)
    assert abs(np.trace(rho @ rho) - 1.0) < 1e-12  # pure
    again = random_density(3, 1, np.random.default_rng(9))
    assert np.array_equal(rho, again)
    with pytest.raises(ValueError):
        random_density(2, 3, np.random.default_rng(0))


@pytest.mark.parametrize("dim, rank", [(1, 1), (2, 2), (4, 4), (4, 1), (16, 3)])
def test_random_density_is_one_draw_of_the_two_ginibre_halves(dim, rank):
    # One (2, dim, rank) draw: the real half of G, then its imaginary half,
    # as two (dim, rank) draws take them, bits and stream alike.
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    rho = random_density(dim, rank, a)
    g = b.normal(size=(dim, rank)) + 1j * b.normal(size=(dim, rank))
    ref = g @ g.conj().T
    ref = ref / np.trace(ref).real
    assert (rho.shape, rho.tobytes()) == (ref.shape, ref.tobytes())
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("rank", [0, -1, 5])
def test_random_density_refuses_a_rank_outside_one_to_dim(rank):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"rank must be in \[1, 4\]"):
        random_density(4, rank, rng)
    assert rng.bit_generator.state == state


def test_normal_runs_cut_one_call_into_the_draws_of_each_shape():
    groups = ([(2, 3, 3)], [], [(4,), (2, 1, 2)])
    stream = [np.random.default_rng([5, t]) for t in range(3)]
    cut = normal_runs(stream, *groups)
    for t, rng in enumerate(stream):
        alone = np.random.default_rng([5, t])
        for group, arrays in zip(groups, cut):
            assert len(arrays) == len(group)
            for shape, x in zip(group, arrays):
                ref = alone.normal(size=shape)
                assert x.shape == (3,) + shape and x[t].tobytes() == ref.tobytes()
        assert rng.bit_generator.state == alone.bit_generator.state
    # One generator gives the draws with no trial axis.
    one = normal_runs(np.random.default_rng([5, 0]), *groups)
    assert all(np.array_equal(x, y[0]) for a, b in zip(one, cut) for x, y in zip(a, b))


@settings(max_examples=200, deadline=None)
@given(
    count=st.integers(0, 3 * STACK_ENTRIES),
    entries=st.integers(1, 2 * STACK_ENTRIES),
)
def test_stacks_cover_the_items_in_order_within_the_entry_bound(count, entries):
    cut = stacks(count, entries)
    assert [i for stack in cut for i in stack] == list(range(count))
    assert all(len(stack) >= 1 for stack in cut)
    # A stack of several items holds at most STACK_ENTRIES entries.
    assert all(len(stack) * entries <= STACK_ENTRIES for stack in cut if len(stack) > 1)
    # All stacks but the last have equal length, and could take no more.
    assert len({len(stack) for stack in cut[:-1]}) <= 1
    assert all((len(stack) + 1) * entries > STACK_ENTRIES for stack in cut[:-1])
    assert (cut == []) == (count == 0)


def test_check_density_takes_positivity_from_one_eigvalsh(monkeypatch, rng):
    _, v = np.linalg.eigh(random_hermitian(4, rng))
    eigvalsh, norm = np.linalg.eigvalsh, np.linalg.norm
    calls = []

    def counting(m):
        calls.append(m.shape)
        return eigvalsh(m)

    def no_spectral_norm(x, ord=None, *args, **kwargs):
        assert ord != 2, "check_density took an SVD for the spectral norm"
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(np.linalg, "norm", no_spectral_norm)
    for margin in (0.5, 2.0):
        # Least eigenvalue `margin` tolerances below zero, at scale 1.
        w = np.array([-margin * PSD_TOL_FACTOR, 0.2, 0.3, 0.5 + margin * PSD_TOL_FACTOR])
        rho = (v * w) @ v.conj().T
        if margin < 1:
            check_density(rho)
        else:
            with pytest.raises(ValueError, match="not positive semidefinite"):
                check_density(rho)
    assert calls == [(4, 4), (4, 4)]
    with pytest.raises(ValueError, match="not Hermitian"):
        check_density(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="has trace"):
        check_density(np.eye(2))


@pytest.mark.parametrize("layout", ["hermitian", "non-hermitian", "transposed-view", "fortran"])
def test_hermitian_checks_give_the_bits_of_the_strided_formulas(layout, rng):
    # The contiguous adjoint copy against m - m^dag and (m + m^dag)/2 taken
    # on the strided view m.conj().T, at a size where norms sum in blocks.
    g = rng.normal(size=(200, 200)) + 1j * rng.normal(size=(200, 200))
    m = {
        "hermitian": (g + g.conj().T) / 2,
        "non-hermitian": g,
        "transposed-view": g.T,
        "fortran": np.asfortranarray(g),
    }[layout]
    before = m.copy()
    gap = np.linalg.norm(m - m.conj().T)
    part = (m + m.conj().T) / 2
    assert np.linalg.norm(_with_adjoint(m, np.subtract)) == gap
    assert np.array_equal(_with_adjoint(m, np.add) / 2, part)
    assert is_hermitian(m) == (gap <= HERM_TOL * max(1.0, np.linalg.norm(m)))
    assert is_hermitian(m) == (layout == "hermitian")
    assert psd_check(m)[1] == np.linalg.eigvalsh(part)[0]
    assert np.array_equal(m, before)  # the input is never written


def test_random_density_mean_approaches_maximally_mixed():
    rng = np.random.default_rng(11)
    mean = np.zeros((2, 2), dtype=complex)
    n = 10_000
    for _ in range(n):
        mean += random_density(2, 2, rng)
    assert np.linalg.norm(mean / n - np.eye(2) / 2) < 0.05


def test_entropy_values(rng):
    pure = random_density(4, 1, rng)
    assert von_neumann_entropy(pure) < 1e-10
    assert abs(von_neumann_entropy(np.eye(3) / 3) - np.log(3)) < 1e-12
    # Scalar oracle: -0.75 ln 0.75 - 0.25 ln 0.25.
    assert abs(von_neumann_entropy(np.diag([0.75, 0.25])) - 0.5623351446188083) < 1e-12


def test_stacked_entropy_equals_single_entropies(rng):
    # Ranks 1..6 of an 8-dimensional state give every count of eigenvalues
    # dropped below the cutoff, zero included.
    stack = np.stack([random_density(8, 1 + i % 6, rng) for i in range(12)]).reshape(3, 4, 8, 8)
    out = von_neumann_entropy(stack)
    assert out.shape == (3, 4)
    singles = [von_neumann_entropy(m) for m in stack.reshape(12, 8, 8)]
    assert all(type(s) is float for s in singles)
    assert np.array_equal(out.reshape(12), np.array(singles))


def test_entropy_unitary_invariance(rng):
    rho = random_density(4, 3, rng)
    u = random_haar_unitary(4, rng)
    assert abs(von_neumann_entropy(u @ rho @ u.conj().T) - von_neumann_entropy(rho)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), da=st.integers(2, 3), db=st.integers(2, 3))
def test_partial_trace_of_kron_recovers_factor(seed, da, db):
    r = np.random.default_rng(seed)
    a = random_density(da, da, r)
    b = random_hermitian(db, r)
    out = partial_trace(kron(a, b), (da, db), keep=(0,))
    assert np.allclose(out, a * np.trace(b))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4))
def test_entropy_nonnegative_and_bounded(seed, dim):
    r = np.random.default_rng(seed)
    s = von_neumann_entropy(random_density(dim, dim, r))
    assert -1e-12 <= s <= np.log(dim) + 1e-12
