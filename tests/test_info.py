import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdyn import info
from cpdyn.cli import ghz_state
from cpdyn.families import build_markov_state
from cpdyn.info import (
    conditional_mutual_information,
    dpi_check,
    mutual_information,
    search_dpi_violation,
)
from cpdyn.tensor import (
    STACK_ENTRIES,
    kron,
    partial_trace,
    random_density,
    random_haar_unitary,
    stacks,
    von_neumann_entropy,
)
from trial_oracle import evolve, i_after, random_haar_unitaries, random_markov_state_spec

LN2 = 0.6931471805599453
# Markov block layouts by system dimension.
BLOCKS = {2: ((1, 1), (1, 1)), 3: ((1, 1), (1, 2)), 4: ((1, 2), (2, 1)), 8: ((2, 2), (2, 2))}
DPI_DIMS = [(1, 2, 2), (2, 2, 2), (2, 4, 2), (3, 2, 3), (2, 3, 2), (4, 4, 4)]


def reference_delta(omega, d_a, d_s, d_e, u):
    """The per-unitary data-processing delta: I_A kron U applied densely,
    Tr_E by partial_trace, and I(A:S) from scalar entropies."""
    dims = (d_a, d_s, d_e)
    big_u = kron(np.eye(d_a), u)
    before = partial_trace(omega, dims, keep=(0, 1))
    after = partial_trace(big_u @ omega @ big_u.conj().T, dims, keep=(0, 1))
    return mutual_information(before, d_a, d_s) - mutual_information(after, d_a, d_s)


def reference_search(omega, d_a, d_s, d_e, rng, draws):
    best, best_draw = np.inf, -1
    for i in range(draws):
        delta = reference_delta(omega, d_a, d_s, d_e, random_haar_unitary(d_s * d_e, rng))
        if delta < best:
            best, best_draw = delta, i
    return best, best_draw


def markov_state(d_a, d_s, d_e, rng):
    return build_markov_state(random_markov_state_spec(d_a, BLOCKS[d_s], d_e, rng))


def reference_haar_unitary(dim, rng):
    """A single Haar draw as written before stacked draws: real part, then
    imaginary part, QR and the diagonal phase fix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class RepeatingNormals:
    """Stands in for a generator whose every Haar draw is the same unitary."""

    def __init__(self, dim, seed):
        self.block = np.random.default_rng(seed).normal(size=(2, dim, dim))

    def normal(self, size):
        return np.broadcast_to(self.block, size).copy()


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


@pytest.mark.parametrize("shape", [(8, 4), (2, 4), (4,)])
def test_mutual_information_rejects_a_state_of_the_wrong_shape(shape):
    with pytest.raises(ValueError, match=rf"state shape \({shape[0]},"):
        mutual_information(np.zeros(shape), 2, 2)


def test_cmi_vanishes_on_markov_states(rng):
    for _ in range(5):
        mspec = random_markov_state_spec(2, ((1, 2), (2, 1)), 2, rng)
        omega = build_markov_state(mspec)
        cmi = conditional_mutual_information(omega, 2, mspec.layout.d_s, 2)
        assert abs(cmi) < 1e-9


@pytest.mark.parametrize("shape", [(8, 4), (8,), (2, 4, 8)])
def test_cmi_rejects_a_state_of_the_wrong_shape(shape):
    with pytest.raises(ValueError, match=rf"state shape \({shape[0]},"):
        conditional_mutual_information(np.zeros(shape), 2, 2, 2)


def test_cmi_positive_on_ghz():
    # Oracle for the three-qubit GHZ state: I(A:E|S) = ln 2.
    assert abs(conditional_mutual_information(ghz_state(), 2, 2, 2) - LN2) < 1e-12


def test_dpi_holds_on_markov_states(rng):
    mspec = random_markov_state_spec(2, ((1, 2), (2, 1)), 2, rng)
    omega = build_markov_state(mspec)
    d_s = mspec.layout.d_s
    assert abs(conditional_mutual_information(omega, 2, d_s, 2)) < 1e-9
    deltas = dpi_check(omega, 2, d_s, 2, random_haar_unitaries(10, d_s * 2, rng))
    assert deltas.shape == (10,)
    assert deltas.min() >= -1e-9


def test_dpi_identity_evolution_is_neutral(rng):
    mspec = random_markov_state_spec(2, ((1, 2), (2, 1)), 2, rng)
    omega = build_markov_state(mspec)
    deltas = dpi_check(omega, 2, mspec.layout.d_s, 2, np.eye(mspec.layout.d_s * 2)[None])
    assert abs(deltas[0]) < 1e-10


def test_dpi_rejects_wrong_unitary_dimension(rng):
    mspec = random_markov_state_spec(2, ((1, 2), (2, 1)), 2, rng)
    omega = build_markov_state(mspec)
    with pytest.raises(ValueError):
        dpi_check(omega, 2, mspec.layout.d_s, 2, np.eye(2)[None])
    with pytest.raises(ValueError, match="stack"):
        dpi_check(omega, 2, mspec.layout.d_s, 2, np.eye(mspec.layout.d_s * 2))


@pytest.mark.parametrize("shape", [(12, 12), (16, 8), (16,)])
def test_dpi_rejects_a_state_of_the_wrong_shape(shape):
    with pytest.raises(ValueError, match="state shape"):
        dpi_check(np.zeros(shape), 2, 2, 4, np.eye(8)[None])


def test_ghz_admits_deterministic_dpi_violation():
    # Uncomputing E onto |0> with a CNOT (control S) leaves A and S in a
    # maximally entangled pair: I(A:S) doubles, a ln 2 violation.
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    (delta,) = dpi_check(ghz_state(), 2, 2, 2, cnot[None])
    assert abs(delta + LN2) < 1e-9


@pytest.mark.parametrize("dims", DPI_DIMS)
@pytest.mark.parametrize("state", ["markov", "ghz"])
def test_stacked_delta_matches_the_per_unitary_reference(dims, state):
    d_a, d_s, d_e = dims
    rng = np.random.default_rng(sum(dims))
    omega = markov_state(*dims, rng) if state == "markov" else ghz_state(*dims)
    us = random_haar_unitaries(7, d_s * d_e, rng)
    ref = [reference_delta(omega, d_a, d_s, d_e, u) for u in us]
    assert np.max(np.abs(dpi_check(omega, d_a, d_s, d_e, us) - ref)) <= 1e-12


def _states(state, dims, rng):
    """A stack of three Markov or random states, or the GHZ state alone."""
    n = np.prod(dims)
    if state == "ghz":
        return ghz_state(*dims)[None]
    if state == "markov":
        return np.stack([markov_state(*dims, rng) for _ in range(3)])
    return np.stack([random_density(n, n, rng) for _ in range(3)])


def s_a(omega, dims):
    """S(A) of each state of a stack."""
    return von_neumann_entropy(partial_trace(omega, dims, keep=(0,)))


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 4, 2), (3, 3, 2), (2, 8, 4)])
@pytest.mark.parametrize("state", ["markov", "random"])
def test_i_after_matches_the_evolve_then_trace_oracle(dims, state):
    # A (states, unitaries) stack: tr_e over the blocks of omega against
    # (I_A kron U) omega (I_A kron U)^dagger and partial_trace.  _i_after
    # is -S(A|S), the oracle's I(A:S) less the S(A) of omega.
    d_a, d_s, d_e = dims
    rng = np.random.default_rng(sum(dims))
    omega = _states(state, dims, rng)
    us = np.stack([random_haar_unitaries(4, d_s * d_e, rng) for _ in range(3)])
    got = info._i_after(omega, *dims, us)
    assert got.shape == (3, 4)
    assert np.max(np.abs(got - (i_after(omega, *dims, us) - s_a(omega, dims)[:, None]))) <= 1e-12


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 4, 2), (3, 3, 2), (2, 8, 4), (4, 4, 4)])
@pytest.mark.parametrize("state", ["markov", "random", "ghz"])
def test_a_unitary_on_s_x_e_leaves_s_a_unchanged(dims, state):
    # The identity that lets dpi drop S(A): rho_A is the same after
    # (I_A kron U), so S(A) before and after agree.
    d_a, d_s, d_e = dims
    rng = np.random.default_rng(sum(dims))
    omega = _states(state, dims, rng)
    us = np.stack([random_haar_unitaries(4, d_s * d_e, rng) for _ in omega])
    after = s_a(evolve(omega, *dims, us), dims)
    assert np.max(np.abs(after - s_a(omega, dims)[:, None])) <= 1e-12


@pytest.mark.parametrize("dims", DPI_DIMS)
@pytest.mark.parametrize("state", ["markov", "random", "ghz"])
def test_a_unitary_on_a_leaves_every_delta_unchanged(dims, state):
    # (V_A kron I) omega (V_A kron I)^dagger has the same I(A:S) before and
    # after any unitary on S x E, so the same deltas.
    d_a, d_s, d_e = dims
    rng = np.random.default_rng(sum(dims))
    omega = _states(state, dims, rng)
    us = np.stack([random_haar_unitaries(5, d_s * d_e, rng) for _ in omega])
    v = kron(random_haar_unitary(d_a, rng), np.eye(d_s * d_e))
    turned = v @ omega @ v.conj().T
    assert np.max(np.abs(dpi_check(turned, *dims, us) - dpi_check(omega, *dims, us))) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 17, 64])
def test_stacked_haar_draw_equals_successive_single_draws(dim):
    stacked_rng, single_rng = np.random.default_rng(dim), np.random.default_rng(dim)
    stack = random_haar_unitaries(5, dim, stacked_rng)
    singles = [reference_haar_unitary(dim, single_rng) for _ in range(5)]
    assert np.array_equal(stack, np.array(singles))
    assert stacked_rng.bit_generator.state == single_rng.bit_generator.state
    assert np.array_equal(random_haar_unitary(dim, stacked_rng), reference_haar_unitary(dim, single_rng))


def full_chunk(n):
    """Unitaries per full chunk of the hunt on a state of side n."""
    return len(stacks(STACK_ENTRIES, n * n)[0])


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)])
def test_chunked_search_matches_the_reference_loop(dims):
    # Two full chunks and a partial one.
    n = np.prod(dims)
    step = full_chunk(n)
    draws = 2 * step + 3
    assert [len(chunk) for chunk in stacks(draws, n * n)] == [step, step, 3]
    omega = ghz_state(*dims)
    out = search_dpi_violation(omega, *dims, np.random.default_rng(11), draws=draws)
    best, best_draw = reference_search(omega, *dims, np.random.default_rng(11), draws)
    assert out["best_draw"] == best_draw
    assert abs(out["best_delta"] - best) <= 1e-12
    assert out["draws"] == draws


def test_search_reports_the_first_of_tied_draws():
    # Every draw is the same unitary: the deltas tie within and across
    # chunks, and the first draw is reported, as a strict < loop does.
    rng = RepeatingNormals(4, seed=3)
    out = search_dpi_violation(ghz_state(), 2, 2, 2, rng, draws=2 * full_chunk(8) + 3)
    assert out["best_draw"] == 0


def test_search_rejects_an_empty_budget():
    with pytest.raises(ValueError, match="draws"):
        search_dpi_violation(ghz_state(), 2, 2, 2, np.random.default_rng(0), draws=0)


def test_search_memory_does_not_grow_with_draws():
    # At the 64-dimension cap the peak is that of one chunk of unitaries,
    # whatever the number of draws.
    omega = ghz_state(4, 4, 4)
    # One-time allocations of the first call are not part of either peak.
    search_dpi_violation(omega, 4, 4, 4, np.random.default_rng(5), draws=1)

    def peak(chunks):
        tracemalloc.start()
        try:
            draws = chunks * full_chunk(64)
            search_dpi_violation(omega, 4, 4, 4, np.random.default_rng(5), draws=draws)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8) <= 1.1 * peak(2)


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
    out = search_dpi_violation(omega, 2, mspec.layout.d_s, 2, rng, draws=20)
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
