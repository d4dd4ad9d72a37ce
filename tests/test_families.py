import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdyn.families import (
    ClassicalQuantumSpec,
    DirectSumSpec,
    FactorizedSpec,
    FamilyParams,
    KernelExtendedSpec,
    MarkovBlocksSpec,
    MixedDirectSumSpec,
    SteeredSpec,
    block_indices,
    build_markov_state,
    random_markov_state_spec,
    random_params,
    sample_member,
    steer,
    structure_fit,
)
from cpdyn.serialize import spec_from_json, spec_to_json
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
    lambda rng: FactorizedSpec(2, random_density(2, 2, rng)),
    lambda rng: ClassicalQuantumSpec(
        random_haar_unitary(2, rng), (random_density(2, 2, rng), random_density(2, 2, rng))
    ),
    lambda rng: DirectSumSpec((1, 2), (random_density(2, 2, rng), random_density(2, 2, rng))),
    lambda rng: MixedDirectSumSpec(
        (1, 2), 1, (random_density(2, 2, rng),), (random_density(2, 2, rng),)
    ),
    markov_spec,
    lambda rng: SteeredSpec(
        2, 4, 2, build_markov_state(random_markov_state_spec(2, ((1, 2), (2, 1)), 2, rng))
    ),
    lambda rng: KernelExtendedSpec(
        markov_spec(rng), kernel_tr_e(full_space(4, 2)).basis[:, :3]
    ),
    lambda rng: MixedDirectSumSpec(
        (1, 2), 0, (), (random_density(2, 2, rng), random_density(2, 2, rng))
    ),
]


@pytest.mark.parametrize("make", ALL_SPECS)
def test_members_are_density_matrices(make, rng):
    spec = make(rng)
    for _ in range(5):
        member = sample_member(spec, random_params(spec, rng))
        check_density(member)
        assert member.shape[0] == spec.d_s * spec.d_e


def test_factorized_member_shape(rng):
    omega = random_density(3, 3, rng)
    spec = FactorizedSpec(2, omega)
    rho = random_density(2, 2, rng)
    member = sample_member(spec, FamilyParams(states=(rho,)))
    assert np.allclose(member, kron(rho, omega))
    # Environment marginal is the fixed state regardless of parameters.
    assert np.allclose(partial_trace(member, (2, 3), keep=(1,)), omega)


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


def test_direct_sum_block_support(rng):
    spec = DirectSumSpec((1, 2), (random_density(2, 2, rng), random_density(2, 2, rng)))
    member = sample_member(spec, random_params(spec, rng))
    idx = block_indices(((1, 1), (2, 1)), 2)
    off_block = member.copy()
    for ix in idx:
        off_block[np.ix_(ix, ix)] = 0.0
    assert np.linalg.norm(off_block) < 1e-12


def test_mixed_direct_sum_leading_block_is_fixed(rng):
    fixed = random_density(2, 2, rng)
    spec = MixedDirectSumSpec((1, 2), 1, (fixed,), (random_density(2, 2, rng),))
    m1 = sample_member(spec, FamilyParams(probs=(0.4, 0.6), states=(random_density(2, 2, rng),)))
    m2 = sample_member(spec, FamilyParams(probs=(0.4, 0.6), states=(random_density(2, 2, rng),)))
    # The leading 2x2 corner (block 0 with environment) agrees across members.
    assert np.allclose(m1[:2, :2], m2[:2, :2])
    assert np.allclose(m1[:2, :2], 0.4 * fixed)


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


def test_spec_json_round_trip(rng):
    for make in ALL_SPECS:
        spec = make(rng)
        back = spec_from_json(spec_to_json(spec))
        assert type(back) is type(spec)
        member_a = sample_member(spec, random_params(spec, np.random.default_rng(5)))
        member_b = sample_member(back, random_params(back, np.random.default_rng(5)))
        assert np.allclose(member_a, member_b)


D = np.diag

# One small spec per variant with the exact JSON it encodes to; the format
# is pinned byte for byte, key order included.
PINNED_JSON = [
    (
        FactorizedSpec(2, D([0.75, 0.25])),
        '{"variant": "factorized", "d_s": 2, "omega_e": [[[0.75, 0.0], [0.0, 0.0]], '
        '[[0.0, 0.0], [0.25, 0.0]]]}',
    ),
    (
        ClassicalQuantumSpec(np.array([[1, 0], [0, 1j]]), (D([1.0, 0.0]), D([0.5, 0.5]))),
        '{"variant": "classical-quantum", "basis": [[[1.0, 0.0], [0.0, 0.0]], '
        '[[0.0, 0.0], [0.0, 1.0]]], "omegas": [[[[1.0, 0.0], [0.0, 0.0]], '
        '[[0.0, 0.0], [0.0, 0.0]]], [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]}',
    ),
    (
        DirectSumSpec((1, 2), (D([1.0, 0.0]), D([0.5, 0.5]))),
        '{"variant": "direct-sum", "block_dims": [1, 2], "omegas": [[[[1.0, 0.0], '
        '[0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], [[[0.5, 0.0], [0.0, 0.0]], '
        '[[0.0, 0.0], [0.5, 0.0]]]]}',
    ),
    (
        MixedDirectSumSpec((1, 1), 0, (), (D([0.5, 0.5]), D([1.0, 0.0]))),
        '{"variant": "mixed-direct-sum", "block_dims": [1, 1], "m_prime": 0, '
        '"omega_se": [], "omegas": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]], '
        '[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}',
    ),
    (
        MixedDirectSumSpec((1, 1), 1, (D([0.25, 0.75]),), (D([1.0, 0.0]),)),
        '{"variant": "mixed-direct-sum", "block_dims": [1, 1], "m_prime": 1, '
        '"omega_se": [[[[0.25, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.75, 0.0]]]], '
        '"omegas": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}',
    ),
    (
        MarkovBlocksSpec(((1, 2), (1, 1)), 1, (D([0.5, 0.5]), D([1.0]))),
        '{"variant": "markov-blocks", "blocks": [[1, 2], [1, 1]], "d_e": 1, '
        '"omega_re": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]], '
        '[[[1.0, 0.0]]]]}',
    ),
    (
        SteeredSpec(1, 2, 1, D([0.75, 0.25])),
        '{"variant": "steered", "d_a": 1, "d_s": 2, "d_e": 1, "omega_ase": '
        '[[[0.75, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]]}',
    ),
    (
        # The kernel direction is vec of the traceless Hermitian
        # [[0.5, 0.5i], [-0.5i, -0.5]] on d_s = 1, d_e = 2.
        KernelExtendedSpec(
            MarkovBlocksSpec(((1, 1),), 2, (D([0.75, 0.25]),)),
            np.array([[0.5], [0.5j], [-0.5j], [-0.5]]),
        ),
        '{"variant": "kernel-extended", "base": {"variant": "markov-blocks", '
        '"blocks": [[1, 1]], "d_e": 2, "omega_re": [[[[0.75, 0.0], [0.0, 0.0]], '
        '[[0.0, 0.0], [0.25, 0.0]]]]}, "kernel_basis": [[[0.5, 0.0]], [[0.0, 0.5]], '
        '[[-0.0, -0.5]], [[-0.5, 0.0]]]}',
    ),
]


@pytest.mark.parametrize(
    "spec, expected", PINNED_JSON, ids=[e[1].split('"')[3] for e in PINNED_JSON]
)
def test_spec_json_format_is_pinned(spec, expected):
    assert json.dumps(spec_to_json(spec)) == expected
    back = spec_from_json(json.loads(expected))
    assert type(back) is type(spec)
    assert json.dumps(spec_to_json(back)) == expected


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
