"""Leading batch axes on the primitives the stacked ``verify-family`` and
``dpi`` checks run: a stack gives each member the bits that member gets
alone."""

import numpy as np
import pytest

from cpdyn import channels, consistency, families, info, tensor
from cpdyn.channels import ChannelMap
from cpdyn.consistency import markov_block_space
from cpdyn.families import FamilyParams, MarkovBlocksSpec, SteeredSpec
from cpdyn.tensor import random_density, random_haar_unitary
from trial_oracle import (
    labelled,
    random_haar_unitaries,
    random_hermitian,
    tr_e_kraus,
    unitary_draws,
)

T = 5


def _equal_per_member(stacked, members):
    members = [np.asarray(m) for m in members]
    assert np.shape(stacked) == (len(members),) + members[0].shape
    assert all(np.array_equal(s, m) for s, m in zip(stacked, members))


def _gaussian(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _states(rng, dim, n=T):
    return np.stack([random_density(dim, dim, rng) for _ in range(n)])


def _unitaries(rng, dim, n=T):
    return np.stack([random_haar_unitary(dim, rng) for _ in range(n)])


def test_kron_gives_the_products_of_np_kron(rng):
    a, b = _gaussian(rng, T, 2, 3), _gaussian(rng, T, 4, 2)
    _equal_per_member(tensor.kron(a, b), [np.kron(x, y) for x, y in zip(a, b)])
    _equal_per_member(tensor.kron(a, np.eye(3)), [np.kron(x, np.eye(3)) for x in a])
    assert np.array_equal(tensor.kron(a[0], b[0]), np.kron(a[0], b[0]))


@pytest.mark.parametrize("with_u", [False, True])
def test_tr_e_on_a_stack(with_u, rng):
    d_s, d_e, k = 2, 3, 4
    cols = _gaussian(rng, T, (d_s * d_e) ** 2, k)
    u = _unitaries(rng, d_s * d_e) if with_u else [None] * T
    stacked = tensor.tr_e(cols, d_s, d_e, u if with_u else None)
    _equal_per_member(stacked, [tensor.tr_e(c, d_s, d_e, w) for c, w in zip(cols, u)])


@pytest.mark.parametrize("with_u", [False, True])
def test_tr_e_kraus_on_a_stack(with_u, rng):
    d_s, d_e, n = 3, 2, 4
    ops = _gaussian(rng, T, n, d_s * d_e, d_s)
    u = _unitaries(rng, d_s * d_e) if with_u else [None] * T
    stacked = tr_e_kraus(ops, d_s, d_e, u if with_u else None)
    _equal_per_member(stacked, [tr_e_kraus(a, d_s, d_e, w) for a, w in zip(ops, u)])
    if with_u:  # one unitary for the whole stack broadcasts
        _equal_per_member(
            tr_e_kraus(ops, d_s, d_e, u[0]),
            [tr_e_kraus(a, d_s, d_e, u[0]) for a in ops],
        )


def test_haar_unitaries_on_a_stack(rng):
    x = rng.normal(size=(T, 2, 4, 4))
    _equal_per_member(tensor.haar_unitaries(x), [tensor.haar_unitaries(m) for m in x])


def test_ginibre_densities_on_a_stack(rng):
    for rank in (1, 3, 4):
        x = rng.normal(size=(T, 2, 4, rank))
        _equal_per_member(tensor.ginibre_densities(x), [tensor.ginibre_densities(m) for m in x])


def test_kraus_factorized_on_a_stack_keeps_zero_operators_for_dropped_eigenvalues(rng):
    d_s, d_e = 2, 3
    u = _unitaries(rng, d_s * d_e)
    omega = _states(rng, d_e)
    omega[1] = random_density(d_e, 1, rng)
    k = channels.kraus_factorized(u, omega, d_s, d_e)
    assert k.shape == (T, d_e * d_e, d_s, d_s)
    dropped = 0
    for member, ui, wi in zip(k, u, omega):
        kept = np.repeat(np.linalg.eigvalsh(wi) > 1e-14, d_e)
        assert np.array_equal(member[kept], channels.kraus_factorized(ui, wi, d_s, d_e))
        assert not member[~kept].any()
        dropped += (~kept).sum()
    # The rank-1 member drops two of its three eigenvalues, d_E operators each.
    assert dropped == 2 * d_e


def test_random_haar_unitaries_keep_their_stream_and_bits():
    # The construction before Haar draws took leading axes, verbatim: the
    # dpi hunt's unitaries, and so its reports, are unchanged.
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    x = a.normal(size=(7, 2, 6, 6))
    q, r = np.linalg.qr(x[:, 0] + 1j * x[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    assert np.array_equal(random_haar_unitaries(7, 6, b), q * (d / np.abs(d))[:, None, :])
    assert a.random() == b.random()


@pytest.mark.parametrize("axes, shape", [(2, (4, 6)), (1, (9,)), (2, (3, 1))])
@pytest.mark.parametrize("complex_", [True, False])
def test_frobenius_gives_the_bits_of_np_linalg_norm(axes, shape, complex_, rng):
    x = _gaussian(rng, T, *shape) if complex_ else rng.normal(size=(T, *shape))
    _equal_per_member(tensor.frobenius(x, axes), [np.linalg.norm(m) for m in x])
    assert tensor.frobenius(x[0], axes) == np.linalg.norm(x[0])


@pytest.mark.parametrize("lead", [(1,), (1, 1)])
@pytest.mark.parametrize("shape", [(4, 6), (64, 64)])
@pytest.mark.parametrize("complex_", [True, False])
def test_frobenius_of_a_one_member_stack_is_the_norm_of_its_member(lead, shape, complex_, rng):
    # The chunk of one unitary: the member's norm alone, the bits a stack of
    # several gives it too, shaped by the leading axes.
    x = _gaussian(rng, *lead, *shape) if complex_ else rng.normal(size=(*lead, *shape))
    member = x.reshape(shape)
    norms = tensor.frobenius(x)
    assert norms.shape == lead
    assert norms.tobytes() == np.full(lead, np.linalg.norm(member)).tobytes()
    assert tensor.frobenius(np.stack([member, -member]))[0] == norms.item()


def _mixed_stack(rng, dim=4):
    """Hermitian PSD, Hermitian non-PSD, non-Hermitian, and trace-2 members."""
    good = random_density(dim, dim, rng)
    h = random_hermitian(dim, rng)
    skew = good.copy()
    skew[0, 1] += 1e-3
    return np.stack([good, h, skew, 2 * good, random_density(dim, 2, rng)])


@pytest.mark.parametrize("check", ["is_hermitian", "hermitian_part_psd", "psd_check"])
def test_hermiticity_and_psd_verdicts_on_a_stack(check, rng):
    f = getattr(tensor, check)
    m = _mixed_stack(rng)
    stacked, alone = f(m), [f(x) for x in m]
    if check == "is_hermitian":
        assert stacked.tolist() == alone == [True, True, False, True, True]
        return
    verdicts, lows = stacked
    assert verdicts.tolist() == [a[0] for a in alone]
    assert np.array_equal(lows, [a[1] for a in alone])
    assert verdicts.tolist() == [True, False, check == "hermitian_part_psd", True, True]


def test_check_density_passes_a_good_stack(rng):
    m = _states(rng, 3)
    assert tensor.check_density(m, "rho") is not None


def test_channel_from_kraus_choi_and_tp_on_a_stack(rng):
    d_in, d_out, n = 2, 3, 4
    ops = _gaussian(rng, T, n, d_out, d_in)
    stacked = channels.channel_from_kraus(ops, d_in, d_out)
    alone = [channels.channel_from_kraus(a, d_in, d_out) for a in ops]
    _equal_per_member(stacked.mat, [c.mat for c in alone])
    _equal_per_member(channels.choi(stacked), [channels.choi(c) for c in alone])
    # TP on a stack of domains, and on one domain for the whole stack.
    q = np.stack([np.linalg.qr(_gaussian(rng, d_in**2, 2))[0] for _ in range(T)])
    p = q @ np.swapaxes(q, -1, -2).conj()
    assert channels.is_tp_on_domain(stacked, p).tolist() == [
        channels.is_tp_on_domain(c, x) for c, x in zip(alone, p)
    ]
    # A trace-preserving stack passes on the whole space.
    tp = channels.channel_from_kraus(_unitaries(rng, d_in)[:, None], d_in, d_in)
    assert channels.is_tp_on_domain(tp, np.eye(d_in**2)).tolist() == [True] * T


def test_product_dynamics_choi_on_a_stack(rng):
    d_s, d_e = 2, 3
    u, w = _unitaries(rng, d_s * d_e), _states(rng, d_e)
    _equal_per_member(
        channels.product_dynamics_choi(u, w, d_s, d_e),
        [channels.product_dynamics_choi(a, b, d_s, d_e) for a, b in zip(u, w)],
    )


def test_in_frame_on_a_stack(rng):
    d_s, d_f = 3, 2
    x, frame = _gaussian(rng, T, d_s * d_f, d_s * d_f), _unitaries(rng, d_s)
    _equal_per_member(
        families.in_frame(x, frame, d_f), [families.in_frame(a, f, d_f) for a, f in zip(x, frame)]
    )


BLOCKS = ((1, 2), (2, 1))


def _specs(rng, frame=False):
    """A stack of Markov-block specs on BLOCKS and its members alone."""
    omega_re = tuple(_states(rng, r * 2) for _, r in BLOCKS)
    frames = _unitaries(rng, 4) if frame else None
    stacked = MarkovBlocksSpec(BLOCKS, 2, omega_re, frames)
    alone = [
        MarkovBlocksSpec(
            BLOCKS, 2, tuple(w[t] for w in omega_re), None if frames is None else frames[t]
        )
        for t in range(T)
    ]
    return stacked, alone


@pytest.mark.parametrize("frame", [False, True])
def test_markov_block_assignment_on_a_stack(frame, rng):
    stacked, alone = _specs(rng, frame)
    a = markov_block_space(stacked).canonical_assignment()
    singles = [markov_block_space(s).canonical_assignment() for s in alone]
    for i, (s, r, t) in enumerate(a.blocks):
        assert all(one.blocks[i][:2] == (s, r) for one in singles)
        _equal_per_member(t, [one.blocks[i][2] for one in singles])
    _equal_per_member(a.domain_projector, [one.domain_projector for one in singles])
    _equal_per_member(a.mat, [one.mat for one in singles])


@pytest.mark.parametrize("frame", [False, True])
def test_members_and_their_fit_on_a_stack(frame, rng):
    stacked, alone = _specs(rng, frame)
    params = [families.random_params(s, rng) for s in alone]
    probs = np.array([p.probs for p in params])
    states = tuple(np.stack(s) for s in zip(*(p.states for p in params)))
    members = families.sample_member(stacked, FamilyParams(probs, states))
    singles = [families.sample_member(s, p) for s, p in zip(alone, params)]
    _equal_per_member(members, singles)
    _equal_per_member(
        families.structure_fit(members, BLOCKS, stacked.omega_re, 2),
        [families.structure_fit(m, BLOCKS, s.omega_re, 2) for m, s in zip(singles, alone)],
    )
    v, vs = markov_block_space(stacked), [markov_block_space(s) for s in alone]
    noisy = members + 1e-3 * _gaussian(rng, *members.shape)
    for x in (members, noisy):
        assert v.contains(x).tolist() == [w.contains(m) for w, m in zip(vs, x)]
    assert v.contains(members).tolist() == [True] * T
    assert v.contains(noisy).tolist() == [False] * T


def test_steering_on_a_stack(rng):
    d_a, d_se = 2, 4
    omega = _states(rng, d_a * d_se)
    p_a = _states(rng, d_a) * d_a
    stacked = families.sample_member(SteeredSpec(d_a, 2, 2, omega), FamilyParams(p_a=p_a))
    alone = [
        families.sample_member(SteeredSpec(d_a, 2, 2, w), FamilyParams(p_a=p))
        for w, p in zip(omega, p_a)
    ]
    _equal_per_member(stacked, alone)


def test_markov_states_on_a_stack(rng):
    draws = [families.markov_state_draws(2, BLOCKS, 2, rng) for _ in range(T)]
    q = np.array([d[0] for d in draws])
    omega_al, omega_re = (tuple(np.stack(s) for s in zip(*(d[i] for d in draws))) for i in (1, 2))
    stacked = families.MarkovStateSpec(2, q, omega_al, MarkovBlocksSpec(BLOCKS, 2, omega_re))
    alone = [
        families.MarkovStateSpec(2, d[0], d[1], MarkovBlocksSpec(BLOCKS, 2, d[2])) for d in draws
    ]
    _equal_per_member(
        families.build_markov_state(stacked), [families.build_markov_state(s) for s in alone]
    )


@pytest.mark.parametrize(
    "g, n",
    [
        pytest.param(g, n, id=g if n == 1 else f"{g}-{n}")
        for g in ("all", "local", "swap")
        for n in (1, 7)
    ],
)
def test_unitaries_from_stacked_draws_equal_sampled_ones(g, n):
    # sample_unitaries takes a chunk's draws in one normal call: the
    # unitaries, labels and stream of n per-call draws, T times over.
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    draws = [unitary_draws(g, 2, 2, a) for _ in range(T * n)]
    stem, us = consistency.unitaries_from_draws(g, tuple(map(np.stack, zip(*draws))), 2, 2)
    v = consistency.full_space(2, 2)
    sampled = [labelled(consistency.sample_unitaries(g, n, v, b)) for _ in range(T)]
    if g == "swap":
        assert [[(stem, us.tolist())]] * T == [[(l, u.tolist()) for l, u in s] for s in sampled]
        # The swap draws nothing.
        assert b.bit_generator.state == np.random.default_rng(3).bit_generator.state
    else:
        assert [[f"{stem}_{i}" for i in range(n)]] * T == [[l for l, _ in s] for s in sampled]
        _equal_per_member(us, [u for s in sampled for _, u in s])
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 4, 2), (3, 3, 2)])
def test_entropic_quantities_on_a_stack(dims, rng):
    d_a, d_s, d_e = dims
    omega = _states(rng, d_a * d_s * d_e)
    us = np.stack([_unitaries(rng, d_s * d_e, 3) for _ in range(T)])
    _equal_per_member(
        info.conditional_mutual_information(omega, *dims),
        [info.conditional_mutual_information(w, *dims) for w in omega],
    )
    before = [info._cmi_and_i_before(w, *dims)[1] for w in omega]
    _equal_per_member(info._cmi_and_i_before(omega, *dims)[1], before)
    _equal_per_member(
        info.dpi_check(omega, *dims, us), [info.dpi_check(w, *dims, u) for w, u in zip(omega, us)]
    )


def test_a_stack_of_hunts_equals_each_hunt_alone(rng):
    dims = (2, 2, 2)
    omega = _states(rng, 8)
    seeds = range(T)
    rngs = [np.random.default_rng(k) for k in seeds]
    best, draw = info._search(omega, *dims, rngs, 300, info._cmi_and_i_before(omega, *dims)[1])
    alone = [
        info.search_dpi_violation(w, *dims, np.random.default_rng(k), draws=300)
        for w, k in zip(omega, seeds)
    ]
    assert best.tolist() == [a["best_delta"] for a in alone]
    assert draw.tolist() == [a["best_draw"] for a in alone]
