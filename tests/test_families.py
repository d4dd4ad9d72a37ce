import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdyn.families import (
    ClassicalQuantumSpec,
    FamilyParams,
    KernelExtendedSpec,
    MarkovBlocksSpec,
    SteeredSpec,
    block_indices,
    build_markov_state,
    random_markov_state_spec,
    random_params,
    sample_member,
    span_generators,
    steer,
    structure_fit,
)
from cpdyn.tensor import (
    check_density,
    kron,
    partial_trace,
    random_density,
    random_haar_unitary,
)
from cpdyn.consistency import full_space, kernel_tr_e


def markov_spec(rng, blocks=((1, 2), (2, 1)), d_e=2):
    return MarkovBlocksSpec(
        blocks, d_e, tuple(random_density(r * d_e, r * d_e, rng) for _, r in blocks)
    )


ALL_SPECS = [
    # factorized, rho_S kron omega_E: the one block (d_s, 1)
    lambda rng: markov_spec(rng, ((2, 1),)),
    lambda rng: ClassicalQuantumSpec(
        random_haar_unitary(2, rng), (random_density(2, 2, rng), random_density(2, 2, rng))
    ),
    # direct sum of factorized blocks: blocks (d_i, 1)
    lambda rng: markov_spec(rng, ((1, 1), (2, 1))),
    # a fixed S x E state on a two-dimensional block, then a factorized block
    lambda rng: markov_spec(rng, ((1, 2), (2, 1))),
    lambda rng: markov_spec(rng, ((2, 2), (1, 1))),
    lambda rng: SteeredSpec(
        2, 4, 2, build_markov_state(random_markov_state_spec(2, ((1, 2), (2, 1)), 2, rng))
    ),
    lambda rng: KernelExtendedSpec(
        markov_spec(rng), kernel_tr_e(full_space(4, 2)).basis[:, :3]
    ),
]


@pytest.mark.parametrize("make", ALL_SPECS)
def test_members_are_density_matrices(make, rng):
    spec = make(rng)
    for _ in range(5):
        member = sample_member(spec, random_params(spec, rng))
        check_density(member)
        assert member.shape[0] == spec.d_s * spec.d_e


def block_diag(*mats):
    """The direct sum of square matrices, in order."""
    d = sum(m.shape[0] for m in mats)
    out = np.zeros((d, d), dtype=complex)
    off = 0
    for m in mats:
        n = m.shape[0]
        out[off : off + n, off : off + n] = m
        off += n
    return out


def placed(blocks, i, x):
    """``x`` in block i of a direct sum shaped like ``blocks``, zero elsewhere."""
    return block_diag(*(x if j == i else np.zeros_like(b) for j, b in enumerate(blocks)))


def units(l):
    """The matrix units E_ab = |a><b| on C^l, in row-major order of (a, b)."""
    return [np.outer(np.eye(l)[a], np.eye(l)[b]) for a in range(l) for b in range(l)]


# The oracles for the three block families that are Markov layouts, in
# their textbook form.  Each gives the member for the free data and the
# linear generators of the family's span, block by block.


def factorized_by_formula(omega_e, rho_s):
    """rho_S kron omega_E; generators E_ab kron omega_E."""
    return kron(rho_s, omega_e), [kron(e, omega_e) for e in units(len(rho_s))]


def direct_sum_by_formula(omegas, p, rhos):
    """sum_i p_i rho_i kron omega_i, each term in block i; generators
    E_ab kron omega_i in block i."""
    blocks = [kron(rho, w) for rho, w in zip(rhos, omegas)]
    member = block_diag(*(q * x for q, x in zip(p, blocks)))
    gens = [
        placed(blocks, i, kron(e, w))
        for i, (rho, w) in enumerate(zip(rhos, omegas))
        for e in units(len(rho))
    ]
    return member, gens


def mixed_direct_sum_by_formula(omega_se, omegas, p, rhos):
    """Fixed p_i omega_SE_i blocks, then p_j rho_j kron omega_j blocks;
    generators omega_SE_i in block i, then E_ab kron omega_j in block j."""
    m = len(omega_se)
    blocks = list(omega_se) + [kron(rho, w) for rho, w in zip(rhos, omegas)]
    member = block_diag(*(q * x for q, x in zip(p, blocks)))
    gens = [placed(blocks, i, w) for i, w in enumerate(omega_se)] + [
        placed(blocks, m + j, kron(e, w))
        for j, (rho, w) in enumerate(zip(rhos, omegas))
        for e in units(len(rho))
    ]
    return member, gens


@pytest.mark.parametrize("d_s, d_e", [(1, 3), (2, 2), (3, 2), (2, 4)])
def test_factorized_is_the_one_block_layout(d_s, d_e, rng):
    omega_e, rho_s = random_density(d_e, d_e, rng), random_density(d_s, d_s, rng)
    spec = MarkovBlocksSpec(((d_s, 1),), d_e, (omega_e,))
    member, gens = factorized_by_formula(omega_e, rho_s)
    got = sample_member(spec, FamilyParams(probs=(1.0,), states=(rho_s,)))
    assert np.linalg.norm(got - member) <= 1e-15
    assert np.array_equal(span_generators(spec), gens)
    # The environment marginal is the fixed state whatever the parameters.
    assert np.allclose(partial_trace(got, (d_s, d_e), keep=(1,)), omega_e)


@pytest.mark.parametrize(
    "dims, d_e", [((1, 2), 2), ((2, 2), 2), ((3, 1), 3), ((1, 2, 1), 2), ((2,), 1)]
)
def test_direct_sum_is_the_layout_of_d_i_by_1_blocks(dims, d_e, rng):
    omegas = tuple(random_density(d_e, d_e, rng) for _ in dims)
    rhos = tuple(random_density(d, d, rng) for d in dims)
    p = tuple(rng.dirichlet(np.ones(len(dims))))
    spec = MarkovBlocksSpec(tuple((d, 1) for d in dims), d_e, omegas)
    member, gens = direct_sum_by_formula(omegas, p, rhos)
    got = sample_member(spec, FamilyParams(probs=p, states=rhos))
    assert np.linalg.norm(got - member) <= 1e-15
    assert np.array_equal(span_generators(spec), gens)
    # No weight off the blocks.
    off_block = got.copy()
    for ix in block_indices(spec.blocks, d_e):
        off_block[np.ix_(ix, ix)] = 0.0
    assert not off_block.any()


@pytest.mark.parametrize(
    "fixed_dims, free_dims, d_e",
    [((1,), (2,), 2), ((2,), (2,), 2), ((2, 1), (3,), 2), ((3,), (), 2), ((1,), (1, 2), 3)],
)
def test_mixed_direct_sum_is_the_layout_of_1_by_d_i_then_d_j_by_1_blocks(
    fixed_dims, free_dims, d_e, rng
):
    omega_se = tuple(random_density(d * d_e, d * d_e, rng) for d in fixed_dims)
    omegas = tuple(random_density(d_e, d_e, rng) for _ in free_dims)
    rhos = tuple(random_density(d, d, rng) for d in free_dims)
    p = tuple(rng.dirichlet(np.ones(len(fixed_dims) + len(free_dims))))
    layout = tuple((1, d) for d in fixed_dims) + tuple((d, 1) for d in free_dims)
    spec = MarkovBlocksSpec(layout, d_e, omega_se + omegas)
    member, gens = mixed_direct_sum_by_formula(omega_se, omegas, p, rhos)
    # A (1, d) block's free state is the 1 x 1 identity.
    states = (np.eye(1),) * len(fixed_dims) + rhos
    got = sample_member(spec, FamilyParams(probs=p, states=states))
    assert np.linalg.norm(got - member) <= 1e-15
    assert np.array_equal(span_generators(spec), gens)
    # At fixed probabilities the leading blocks do not move with the free states.
    rhos = tuple(random_density(d, d, rng) for d in free_dims)
    other = sample_member(spec, FamilyParams(probs=p, states=states[: len(fixed_dims)] + rhos))
    n = sum(fixed_dims) * d_e
    assert np.array_equal(other[:n, :n], got[:n, :n])


def test_classical_quantum_env_conditionals(rng):
    basis = random_haar_unitary(2, rng)
    omegas = (random_density(2, 2, rng), random_density(2, 2, rng))
    spec = ClassicalQuantumSpec(basis, omegas)
    p = (0.3, 0.7)
    member = sample_member(spec, FamilyParams(probs=p))
    expected = sum(
        p[i] * kron(np.outer(basis[:, i], basis[:, i].conj()), omegas[i])
        for i in range(2)
    )
    assert np.allclose(member, expected)


def test_classical_quantum_rejects_bad_basis(rng):
    with pytest.raises(ValueError):
        ClassicalQuantumSpec(
            np.ones((2, 2)), (random_density(2, 2, rng), random_density(2, 2, rng))
        )


def test_markov_blocks_probabilities_and_fixed_parts(rng):
    spec = markov_spec(rng)
    params = random_params(spec, rng)
    member = sample_member(spec, params)
    fit = structure_fit(member, spec.blocks, spec.omega_re, spec.d_e)
    assert fit.residual < 1e-10
    assert np.allclose(fit.probs, params.probs, atol=1e-10)
    for got, want in zip(fit.block_states, params.states):
        assert np.allclose(got, want, atol=1e-9)


def test_structure_fit_flags_outside_states(rng):
    spec = markov_spec(rng)
    rho = random_density(spec.d_s * spec.d_e, spec.d_s * spec.d_e, rng)
    fit = structure_fit(rho, spec.blocks, spec.omega_re, spec.d_e)
    assert fit.residual > 1e-3


def test_markov_state_marginal_lies_in_block_family(rng):
    mspec = random_markov_state_spec(2, ((1, 2), (2, 1)), 2, rng)
    omega = build_markov_state(mspec)
    check_density(omega)
    marg = partial_trace(omega, (2, mspec.d_s * 2), keep=(1,))
    fit = structure_fit(marg, mspec.blocks, mspec.omega_re, 2)
    assert fit.residual < 1e-10
    assert np.allclose(fit.probs, mspec.q, atol=1e-10)


def test_steer_identity_recovers_marginal(rng):
    mspec = random_markov_state_spec(2, ((1, 2), (2, 1)), 2, rng)
    omega = build_markov_state(mspec)
    out = steer(omega, 2, np.eye(2))
    assert np.allclose(out, partial_trace(omega, (2, mspec.d_s * 2), keep=(1,)))


def test_steered_members_stay_in_block_family(rng):
    mspec = random_markov_state_spec(2, ((1, 2), (2, 1)), 2, rng)
    spec = SteeredSpec(2, mspec.d_s, 2, build_markov_state(mspec))
    for _ in range(10):
        member = sample_member(spec, random_params(spec, rng))
        check_density(member)
        fit = structure_fit(member, mspec.blocks, mspec.omega_re, 2)
        assert fit.residual < 1e-9


def test_steer_input_validation(rng):
    mspec = random_markov_state_spec(2, ((1, 2), (2, 1)), 2, rng)
    omega = build_markov_state(mspec)
    with pytest.raises(ValueError):
        steer(omega, 2, np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        steer(omega, 2, np.zeros((2, 2)))


@pytest.mark.parametrize("low, ok", [(-1e-3, False), (-1e-7, False), (0.0, True), (0.2, True)])
def test_steer_checks_the_positivity_of_p(low, ok):
    rng = np.random.default_rng(31)
    omega = build_markov_state(random_markov_state_spec(2, ((1, 2), (2, 1)), 2, rng))
    w = random_haar_unitary(2, rng)
    p_a = w @ np.diag([1.0, low]) @ w.conj().T
    if ok:
        check_density(steer(omega, 2, p_a))
    else:
        with pytest.raises(ValueError, match="positive semidefinite"):
            steer(omega, 2, p_a)


def test_kernel_extension_changes_state_but_not_marginal(rng):
    base = markov_spec(rng)
    spec = KernelExtendedSpec(base, kernel_tr_e(full_space(base.d_s, 2)).basis[:, :4])
    params = random_params(spec, rng)
    member = sample_member(spec, params)
    base_member = sample_member(base, FamilyParams(params.probs, params.states))
    check_density(member)
    assert np.linalg.norm(member - base_member) > 1e-6
    d_s = base.d_s
    assert np.allclose(
        partial_trace(member, (d_s, 2), keep=(0,)),
        partial_trace(base_member, (d_s, 2), keep=(0,)),
        atol=1e-10,
    )


def build_markov_state_by_loop(spec):
    """Reference: the explicit (a, l, r, e) index loop over each block."""
    d_a, d_e, d_s = spec.d_a, spec.d_e, spec.d_s
    d = d_a * d_s * d_e
    out = np.zeros((d, d), dtype=complex)
    off = 0
    for (l, r), q, wal, wre in zip(spec.blocks, spec.q, spec.omega_al, spec.omega_re):
        idx = []
        for a in range(d_a):
            for li in range(l):
                for ri in range(r):
                    for e in range(d_e):
                        idx.append((a * d_s + off + li * r + ri) * d_e + e)
        idx = np.array(idx)
        out[np.ix_(idx, idx)] += q * kron(wal, wre)
        off += l * r
    return out


@pytest.mark.parametrize("d_a", [1, 2, 3])
@pytest.mark.parametrize(
    "blocks, d_e",
    [(((1, 2), (2, 1)), 2), (((1, 1),), 3), (((2, 2),), 1), (((1, 3), (2, 1), (1, 1)), 2)],
)
def test_build_markov_state_matches_index_loop(blocks, d_e, d_a, rng):
    mspec = random_markov_state_spec(d_a, blocks, d_e, rng)
    assert np.array_equal(build_markov_state(mspec), build_markov_state_by_loop(mspec))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_markov_members_are_valid_states(seed):
    r = np.random.default_rng(seed)
    spec = markov_spec(r)
    member = sample_member(spec, random_params(spec, r))
    check_density(member)
