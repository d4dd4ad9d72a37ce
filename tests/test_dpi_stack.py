"""``dpi`` draws each Markov state from its own stream and checks the states
and their unitaries as ``tensor.stacks``, whose largest arrays hold at most
``tensor.STACK_ENTRIES`` complex entries.  Every report equals the report
the per-state oracle (``trial_oracle``) writes, byte for byte apart from
``wall_time_s``, and its memory grows with no flag."""

import json
import tracemalloc

import pytest

from cpdyn import cli, info
from cpdyn.tensor import STACK_ENTRIES, stacks
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


def _chunks(monkeypatch, *argv) -> list[list[tuple[int, int]]]:
    """The (states, unitaries) shape of each chunk ``dpi`` draws, one list
    for each ``info._search`` call: the Markov sweep's stacks in order,
    then the GHZ hunt."""
    searches = []
    search, haar = info._search, info.haar_unitaries

    def spy_search(*args):
        searches.append([])
        return search(*args)

    def spy_haar(x):
        searches[-1].append(x.shape[:2])
        return haar(x)

    monkeypatch.setattr(info, "_search", spy_search)
    monkeypatch.setattr(info, "haar_unitaries", spy_haar)
    cli.cmd_dpi(_args(*argv))
    return searches


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("case", CASES, ids=" ".join)
def test_stacked_report_equals_the_oracle(case, seed, tmp_path):
    out = tmp_path / "report.json"
    cli.run(["dpi", *case, "--seed", str(seed), "--out", str(out)])
    written = json.loads(out.read_text())
    body = {k: written[k] for k in ("trials", "summary")}
    oracle = dpi_report(_args(*case, "--seed", str(seed)))
    assert json.dumps(body, sort_keys=True) == json.dumps(oracle, sort_keys=True)


def test_the_cases_cross_stack_and_chunk_boundaries(monkeypatch):
    # The twenty default states of side 16 take two stacks, each one chunk
    # of their ten unitaries; with 37 unitaries a stack is three states.
    *sweep, hunt = _chunks(monkeypatch)
    assert sweep == [[(12, 10)], [(8, 10)]]
    assert hunt == [(1, 500)]
    *sweep, _ = _chunks(monkeypatch, "--unitaries-per-state", "37")
    assert sweep == [[(3, 37)]] * 6 + [[(2, 37)]]
    # At the cap a stack is one state, whose ten unitaries take two chunks.
    *sweep, _ = _chunks(monkeypatch, "--blocks", "2x2,2x2", "--de", "4")
    assert sweep == [[(1, 8), (1, 2)]] * 20
    # The GHZ hunt's 1000 draws at side 8 take two chunks.
    *_, hunt = _chunks(monkeypatch, "--trials", "7", "--search-draws", "1000")
    assert hunt == [(1, 512), (1, 488)]


def test_a_chunk_holds_at_most_the_entry_bound(monkeypatch):
    for case in CASES + [CAP]:
        args = _args(*case)
        n = args.da * sum(l * r for l, r in args.blocks) * args.de
        alone = [len(chunk) for chunk in stacks(args.unitaries_per_state, n * n)]
        *sweep, _ = _chunks(monkeypatch, *case)
        for chunks in sweep:
            for states, unitaries in chunks:
                assert states * unitaries * n * n <= max(STACK_ENTRIES, n * n)
            # A full stack takes the chunks one state would take alone.
            assert [unitaries for _, unitaries in chunks] == alone


def _peak(argv) -> int:
    tracemalloc.start()
    try:
        cli.cmd_dpi(_args(*argv))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("flag", ["--trials", "--unitaries-per-state", "--search-draws"])
def test_cap_size_memory_does_not_grow_with_a_flag(flag):
    # A cap-size state takes one state a stack and eight unitaries a chunk,
    # as does the cap-size GHZ hunt; the other counts stay at two.
    base = {"--trials": 2, "--unitaries-per-state": 8, "--search-draws": 8}

    def peak(scale):
        counts = {**base, flag: base[flag] * scale}
        return _peak([*CAP, *(x for k, v in counts.items() for x in (k, str(v)))])

    # One-time allocations of the first call are not part of either peak.
    peak(1)
    assert peak(8) <= 1.1 * peak(2)
