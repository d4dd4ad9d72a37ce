"""``verify-family`` draws each trial from its own stream and checks the
trials as stacks.  Every record it writes equals the record of the
per-trial oracle (``trial_oracle``) for the same trial, bit for bit, and a
bad member of a stack fails as it would alone, naming its trial."""

import numpy as np
import pytest

from cpdyn import cli, families
from cpdyn.families import MarkovBlocksSpec, MarkovStateSpec
from cpdyn.tensor import (
    STACK_ENTRIES,
    check_density,
    is_hermitian,
    psd_check,
    random_density,
    random_haar_unitary,
    stacks,
    trial_streams,
)
from trial_oracle import trial_draws, trial_rng, verify_family_trial

DEFAULT_CASES = [
    ("--family", family, "--g", g)
    for family in cli.FAMILY_CHOICES
    for g in ("all", "local")
    if (family, g) != ("kernel-extended", "all")
]
# --g swap needs d_s = d_e.
SWAP_CASES = [
    ("--family", "factorized", "--g", "swap"),
    ("--family", "classical-quantum", "--g", "swap"),
    ("--family", "kernel-extended", "--blocks", "1x1,1x1", "--g", "swap"),
] + [
    ("--family", family, "--blocks", "1x2,2x1", "--de", "4", "--g", "swap")
    for family in ("direct-sum", "mixed-direct-sum", "markov-blocks", "steered")
]
LAYOUT_CASES = [
    ("--family", "factorized", "--ds", "8", "--de", "8"),
    ("--family", "classical-quantum", "--ds", "4", "--de", "4"),
    ("--family", "markov-blocks", "--blocks", "2x2,2x2", "--de", "8"),
    ("--family", "steered", "--da", "3", "--blocks", "2x1,1x3"),
    ("--family", "kernel-extended", "--blocks", "2x2,1x1", "--de", "3"),
]


def _args(case, trials, seed):
    args = cli.build_parser().parse_args(
        ["verify-family", *case, "--trials", str(trials), "--seed", str(seed)]
    )
    args.g = args.g or cli._default_g(args)
    args.ds = cli._system_dim(args)
    return args


def _assert_records_match_the_oracle(case, trials, seed):
    args = _args(case, trials, seed)
    report = cli.cmd_verify_family(args)
    assert report["trials"] == [verify_family_trial(args, t) for t in range(args.trials)]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("case", DEFAULT_CASES + SWAP_CASES + LAYOUT_CASES, ids=" ".join)
def test_stacked_records_equal_the_oracle(case, seed):
    _assert_records_match_the_oracle(case, 1 if case in LAYOUT_CASES else 50, seed)


def _member(draw, t):
    """Trial ``t``'s part of a stack's draw: None, a tuple of arrays, or an
    array along the trial axis."""
    if draw is None:
        return None
    if isinstance(draw, tuple):
        return tuple(x[t] for x in draw)
    return draw[t]


def _assert_same_bits(cut, alone):
    if alone is None:
        assert cut is None
    elif isinstance(alone, tuple) and all(isinstance(x, np.ndarray) for x in alone):
        # Per-block states, or a unitary's draws.
        assert isinstance(cut, tuple) and len(cut) == len(alone)
        for c, a in zip(cut, alone):
            _assert_same_bits(c, a)
    else:
        # A distribution drawn alone is a tuple of floats.
        cut, alone = np.asarray(cut), np.asarray(alone)
        assert (cut.dtype, cut.shape, cut.tobytes()) == (alone.dtype, alone.shape, alone.tobytes())


@pytest.mark.parametrize("case", DEFAULT_CASES + SWAP_CASES + LAYOUT_CASES, ids=" ".join)
def test_the_cut_draws_are_the_draws_of_each_trial_alone(case):
    # Every family at every --g: the stack's runs of normal draws, cut into
    # arrays and formed on the stack, equal the per-call draws of each
    # trial's stream, bit for bit, and leave each stream where they do.
    n = 3
    args = _args(case, n, 4)
    streams = trial_streams(args.seed, range(n))
    cut = cli._stack_draws(args, streams)
    for t, rng in enumerate(streams):
        alone_rng = trial_rng(args.seed, t)
        alone = trial_draws(args, alone_rng)
        assert cut.keys() == alone.keys()
        for key, draw in alone.items():
            _assert_same_bits(_member(cut[key], t), draw)
        assert rng.bit_generator.state == alone_rng.bit_generator.state


def _stack_length(args) -> int:
    """Trials per full stack of ``verify-family``."""
    return len(stacks(STACK_ENTRIES, cli._trial_entries(args))[0])


def test_the_default_trials_are_one_stack():
    for case in DEFAULT_CASES:
        assert stacks(50, cli._trial_entries(_args(case, 50, 1))) == [range(50)]


# Factorized and classical-quantum stack hundreds of trials at the default
# size; their layouts here cross a stack boundary in a few.
BOUNDARY_CASES = [case for case in DEFAULT_CASES[::2] if case[1] not in (
    "factorized", "classical-quantum"
)] + LAYOUT_CASES


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("case", BOUNDARY_CASES, ids=" ".join)
def test_records_across_a_stack_boundary_equal_the_oracle(case, seed):
    # One trial past a full stack: the last trial is a stack of its own.
    step = _stack_length(_args(case, 1, seed))
    _assert_records_match_the_oracle(case, step + 1, seed)
    _assert_records_match_the_oracle(case, 1, seed)


# A bad member of a stack fails as it would alone, and the error names its
# trial: the same ValueError, with "of trial k" after the name.

K, N = 3, 6  # the bad member's index, the stack's length


def _not_hermitian(rho):
    rho = rho.copy()
    rho[0, 1] += 1e-3  # trace and PSD Hermitian part kept
    return rho


def _not_psd(rho):
    return rho - 2 * np.diag(np.arange(len(rho)) == 0) + 2 * np.eye(len(rho)) / len(rho)


BAD_MEMBERS = {
    "non-Hermitian": (_not_hermitian, "is not Hermitian"),
    "trace 2": (lambda rho: 2 * rho, "has trace"),
    "non-PSD": (_not_psd, "is not positive semidefinite"),
}


def _stack_with_a_bad_member(rng, dim, kind):
    """N random states, member K made bad in the way ``kind`` names (none
    for None)."""
    stack = np.stack([random_density(dim, dim, rng) for _ in range(N)])
    if kind is not None:
        stack[K] = BAD_MEMBERS[kind][0](stack[K])
    return stack


def _raised(build) -> str:
    with pytest.raises(ValueError) as err:
        build()
    return str(err.value)


@pytest.mark.parametrize("kind", BAD_MEMBERS)
def test_a_bad_block_state_fails_as_it_would_alone_and_names_its_trial(kind, rng):
    blocks, d_e = ((1, 2), (2, 1)), 2
    omega_re = [_stack_with_a_bad_member(rng, r * d_e, None) for _, r in blocks]
    omega_re[1] = _stack_with_a_bad_member(rng, d_e, kind)
    alone = _raised(lambda: check_density(omega_re[1][K], "omega_RE_1"))
    assert BAD_MEMBERS[kind][1] in alone and alone.startswith("omega_RE_1 ")
    stacked = _raised(lambda: MarkovBlocksSpec(blocks, d_e, tuple(omega_re)))
    assert stacked == alone.replace("omega_RE_1", f"omega_RE_1 of trial {K}", 1)
    # The verdict arrays flag exactly member K, or none for a trace-2 member.
    flagged = (np.arange(N) == K).tolist()
    none = [False] * N
    assert (~is_hermitian(omega_re[1])).tolist() == (flagged if kind == "non-Hermitian" else none)
    assert (~psd_check(omega_re[1])[0]).tolist() == (flagged if kind != "trace 2" else none)


@pytest.mark.parametrize("kind", BAD_MEMBERS)
def test_a_bad_steered_state_names_its_trial(kind, rng):
    omega = _stack_with_a_bad_member(rng, 8, kind)
    alone = _raised(lambda: families.SteeredSpec(2, 2, 2, omega[K]))
    assert alone.startswith("omega_ASE ")
    stacked = _raised(lambda: families.SteeredSpec(2, 2, 2, omega))
    assert stacked == alone.replace("omega_ASE", f"omega_ASE of trial {K}", 1)


def test_a_non_unitary_frame_fails_as_it_would_alone_and_names_its_trial(rng):
    blocks, d_e = ((1, 1),) * 3, 2
    omega_re = tuple(np.stack([random_density(d_e, d_e, rng) for _ in range(N)]) for _ in blocks)
    frames = np.stack([random_haar_unitary(3, rng) for _ in range(N)])
    frames[K, 0] *= 1.01
    alone = _raised(lambda: MarkovBlocksSpec(blocks, d_e, tuple(w[K] for w in omega_re), frames[K]))
    assert alone == "frame is not a unitary on S"
    stacked = _raised(lambda: MarkovBlocksSpec(blocks, d_e, omega_re, frames))
    assert stacked == f"frame of trial {K} is not a unitary on S"


def test_a_bad_distribution_names_its_trial(rng):
    omega_re = tuple(_stack_with_a_bad_member(rng, 2 * r, None) for r in (2, 1))
    layout = MarkovBlocksSpec(((1, 2), (2, 1)), 2, omega_re)
    omega_al = tuple(_stack_with_a_bad_member(rng, 2 * l, None) for l in (1, 2))
    q = np.full((N, 2), 0.5)
    q[K] = (0.7, 0.7)
    message = rf"invalid probability distribution of trial {K} \[0.7 0.7\]"
    with pytest.raises(ValueError, match=message):
        MarkovStateSpec(2, q, omega_al, layout)
