"""``dpi`` draws each Markov state from its own stream and checks the states
and their unitaries as stacks whose largest arrays hold at most
``info._STACK_ENTRIES`` complex entries.  Every report equals the report
the per-state oracle (``trial_oracle``) writes, byte for byte apart from
``wall_time_s``, and its memory grows with no flag."""

import json
import tracemalloc

import pytest

from cpdyn import cli, info
from trial_oracle import dpi_report

CASES = [
    (),
    ("--unitaries-per-state", "37"),
    ("--blocks", "2x2,2x2", "--de", "4"),
    ("--da", "3", "--ds", "3", "--blocks", "1x2,2x1", "--de", "3"),
    ("--trials", "7", "--search-draws", "1000"),
    ("--da", "4", "--blocks", "1x1,1x1,1x1"),
]
CAP = ("--da", "2", "--ds", "8", "--de", "4", "--blocks", "2x2,2x2")


def _args(*argv):
    return cli.build_parser().parse_args(["dpi", *argv])


def _stack_shape(args):
    """States per stack and unitaries per chunk of the Markov sweep."""
    n = args.da * sum(l * r for l, r in args.blocks) * args.de
    states = info._states_per_stack(n, args.unitaries_per_state)
    return states, info._chunk_length(states, n, args.unitaries_per_state)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("case", CASES, ids=" ".join)
def test_stacked_report_equals_the_oracle(case, seed, tmp_path):
    out = tmp_path / "report.json"
    cli.run(["dpi", *case, "--seed", str(seed), "--out", str(out)])
    written = json.loads(out.read_text())
    body = {k: written[k] for k in ("trials", "summary")}
    oracle = dpi_report(_args(*case, "--seed", str(seed)))
    assert json.dumps(body, sort_keys=True) == json.dumps(oracle, sort_keys=True)


def test_the_cases_cross_stack_and_chunk_boundaries():
    shapes = {case: _stack_shape(_args(*case)) for case in CASES}
    # The default states fill several stacks; with 37 unitaries each state
    # is a stack of its own.
    assert shapes[()] == (6, 10)
    assert shapes[("--unitaries-per-state", "37")] == (1, 37)
    # At the cap one state's ten unitaries take three chunks.
    assert shapes[("--blocks", "2x2,2x2", "--de", "4")] == (1, 4)
    # The GHZ hunt's 1000 draws at side 8 take four chunks.
    assert info._chunk_length(1, 8, 1000) == 256


def test_a_chunk_holds_at_most_the_entry_bound():
    for n in (1, 4, 8, 12, 16, 27, 36, 64):
        for draws in (1, 3, 10, 37, 500):
            states = info._states_per_stack(n, draws)
            for k in range(1, states + 1):
                per = info._chunk_length(k, n, draws)
                assert 1 <= per <= draws
                assert k * per * n * n <= max(info._STACK_ENTRIES, n * n)
            # A full stack takes the chunks one state would take alone.
            assert info._chunk_length(states, n, draws) == info._chunk_length(1, n, draws)


def _peak(argv) -> int:
    tracemalloc.start()
    try:
        cli.cmd_dpi(_args(*argv))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("flag", ["--trials", "--unitaries-per-state", "--search-draws"])
def test_cap_size_memory_does_not_grow_with_a_flag(flag):
    # A cap-size state takes one state a stack and four unitaries a chunk,
    # as does the cap-size GHZ hunt; the other counts stay at two.
    base = {"--trials": 2, "--unitaries-per-state": 8, "--search-draws": 8}

    def peak(scale):
        counts = {**base, flag: base[flag] * scale}
        return _peak([*CAP, *(x for k, v in counts.items() for x in (k, str(v)))])

    # One-time allocations of the first call are not part of either peak.
    peak(1)
    assert peak(8) <= 1.1 * peak(2)
