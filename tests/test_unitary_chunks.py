"""``theorem1``, ``consistency`` and ``demo`` draw their unitaries in
``consistency.sample_unitaries`` chunks, cut by ``tensor.stacks``, and check
each chunk as one stack.  Every report equals the report of the
per-unitary oracle (``trial_oracle``), which draws all the unitaries in one
call and checks them one at a time, byte for byte apart from
``wall_time_s``; and memory does not grow with ``--trials``."""

import json
import tracemalloc

import numpy as np
import pytest

from cpdyn import cli, consistency
from cpdyn.tensor import STACK_ENTRIES, stacks
from trial_oracle import (
    consistency_report,
    demo_report,
    labelled,
    one_call_draw,
    theorem1_report,
)

# The cap-size default layout of markov-blocks.
CAP = ("--family", "markov-blocks", "--blocks", "2x2,2x2", "--de", "8", "--g", "all")
# Every family at d_s = d_e = 4, where --g swap is accepted too, and a
# chunk holds eight unitaries or fewer.
FAMILY_SIZES = {
    "factorized": ("--ds", "4", "--de", "4"),
    "classical-quantum": ("--ds", "4", "--de", "4"),
    "full": ("--ds", "4", "--de", "4"),
    # The mat path, on a basis-backed V.
    "random": ("--ds", "4", "--de", "4", "--span-states", "8"),
    **{
        family: ("--de", "4")
        for family in ("direct-sum", "mixed-direct-sum", "markov-blocks", "kernel-extended")
    },
    "steered": ("--de", "4"),
}
THEOREM1_CASES = [
    ("--family", family, *size, "--g", g)
    for family, size in FAMILY_SIZES.items()
    for g in ("all", "local", "swap")
] + [
    CAP,  # the Kraus path at the cap, one unitary a chunk
    # A kernel basis wider than d_s^2 widens each unitary's entries.
    ("--family", "random", "--ds", "2", "--de", "4", "--span-states", "40", "--g", "all"),
]
CONSISTENCY_CASES = [
    ("--family", family, *size, "--g", g)
    for family, size in [
        ("full", FAMILY_SIZES["full"]),
        ("random", ("--ds", "2", "--de", "4", "--span-states", "40")),
        ("markov-blocks", FAMILY_SIZES["markov-blocks"]),
    ]
    for g in ("all", "local")
]
DEMO_CASES = [("1", "--ds", "2"), ("1", "--ds", "8"), ("2", "--ds", "2"), ("2", "--ds", "8")]


def _args(*argv):
    args = cli.build_parser().parse_args(list(argv))
    if "g" in vars(args):
        args.g = args.g or cli._default_g(args)
    return args


def _chunk_length(command, case, seed) -> int:
    """Unitaries per full chunk of the report ``command case``, from the
    subspace it checks."""
    args = _args(command, *case, "--seed", str(seed))
    if command == "demo":
        d_e = args.ds if args.example == 1 else 2
        v = consistency.full_space(args.ds, d_e)
    else:
        args.ds = cli._system_dim(args)
        v = cli._build_subspace(args, np.random.default_rng(seed))
    return len(stacks(STACK_ENTRIES, consistency._unitary_entries(v))[0])


def _written(argv, tmp_path) -> dict:
    out = tmp_path / "report.json"
    cli.run([*argv, "--out", str(out)])
    report = json.loads(out.read_text())
    report.pop("wall_time_s")
    return report


def _text(body: dict) -> str:
    return json.dumps(body, sort_keys=True, indent=2)


def _assert_body_matches(command, oracle, case, seed, tmp_path):
    # One unitary past a full chunk: the last unitary is a chunk of its own.
    trials = str(_chunk_length(command, case, seed) + 1)
    argv = [command, *case, "--trials", trials, "--seed", str(seed)]
    written = _written(argv, tmp_path)
    body = oracle(_args(*argv))
    assert _text({k: written[k] for k in body}) == _text(body)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", THEOREM1_CASES, ids=" ".join)
def test_theorem1_report_equals_the_oracle(case, seed, tmp_path):
    _assert_body_matches("theorem1", theorem1_report, case, seed, tmp_path)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", CONSISTENCY_CASES, ids=" ".join)
def test_consistency_report_equals_the_oracle(case, seed, tmp_path):
    _assert_body_matches("consistency", consistency_report, case, seed, tmp_path)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", DEMO_CASES, ids=" ".join)
def test_demo_report_equals_the_oracle(case, seed, tmp_path):
    trials = str(_chunk_length("demo", case, seed) + 1)
    argv = ["demo", *case, "--trials", trials, "--seed", str(seed)]
    oracle = demo_report(argv)
    oracle.pop("wall_time_s")
    assert _text(_written(argv, tmp_path)) == _text(oracle)


def test_the_chunk_lengths_of_the_cases():
    # d^2 d_s^2 entries a unitary: eight unitaries a chunk at d_s = d_e = 4
    # (the steered span's kernel is narrower than d_s^2), one at the cap.
    lengths = [_chunk_length("theorem1", case, 1) for case in THEOREM1_CASES]
    assert lengths == [8] * 27 + [1, 14]
    # The wide kernel: d^2 dim V0 = 64 * 36 entries, not d^2 d_s^2 = 64 * 4.
    assert _chunk_length("consistency", CONSISTENCY_CASES[2], 1) == 14
    assert [_chunk_length("demo", case, 1) for case in DEMO_CASES] == [512, 1, 512, 2]


@pytest.mark.parametrize(
    "g, n, d_s, d_e",
    [("all", 9, 4, 4), ("local", 9, 4, 4), ("all", 3, 8, 8), ("local", 40, 2, 2),
     ("swap", 5, 3, 3), ("all", 1, 2, 3)],
)
def test_the_chunks_concatenate_to_one_call_draw(g, n, d_s, d_e):
    a, b = np.random.default_rng(6), np.random.default_rng(6)
    v = consistency.full_space(d_s, d_e)
    chunks = list(consistency.sample_unitaries(g, n, v, a))
    drawn = one_call_draw(g, n, d_s, d_e, b)
    assert [label for label, _ in labelled(chunks)] == [label for label, _ in drawn]
    assert np.array_equal(np.concatenate([us for _, us in chunks]), np.stack([u for _, u in drawn]))
    assert a.bit_generator.state == b.bit_generator.state
    # Chunks of tensor.stacks, each within the entry bound.
    entries = consistency._unitary_entries(v)
    cut = stacks(1 if g == "swap" else n, entries)
    assert [len(us) for _, us in chunks] == [len(r) for r in cut]
    assert all(len(us) * entries <= max(STACK_ENTRIES, entries) for _, us in chunks)


def _peak(command, trials) -> int:
    args = _args(command, *CAP, "--trials", str(trials), "--seed", "1")
    tracemalloc.start()
    try:
        args.func(args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["theorem1", "consistency"])
def test_cap_size_memory_does_not_grow_with_trials(command):
    # At the cap a chunk is one unitary, where one draw of all the trials'
    # unitaries took 3.0 MB at 8 trials against 1.8 and 0.8 MB at 2.  One-
    # time allocations of the first call are not part of either peak.
    _peak(command, 1)
    assert _peak(command, 8) <= 1.1 * _peak(command, 2)
