"""A Markov-block assignment is contracted block by block
(``AssignmentMap.reduced``) and its matrix built block by block
(``AssignmentMap.mat``), with no zero-padded Kraus stack.  Both are checked
against two oracles, to 1e-12 relative: the padded route of
``trial_oracle`` (the operators zero-padded to (n, d_s d_e, d_s),
``tr_e_kraus`` and one Gram matrix over all of them) and the dense
``channels.reduced_dynamics`` of the assignment's matrix.  The layouts are
drawn up to the 64-dimension cap, with and without a frame, on single and
stacked specs and unitaries, and for Tr_E alone (``u=None``)."""

import json
import os

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from cpdyn import cli
from cpdyn.channels import channel_from_kraus, reduced_dynamics
from cpdyn.consistency import AssignmentMap, markov_block_space
from cpdyn.families import MarkovBlocksSpec
from cpdyn.tensor import random_density, random_haar_unitary
from trial_oracle import padded_domain_projector, padded_kraus, padded_reduced

# Members of a stacked spec, and unitaries of a stack.
T = 2


@st.composite
def layouts(draw):
    """1-3 blocks (l_i, r_i) with l_i, r_i <= 4, then a d_E from 1 to 8
    that keeps d_s d_E within the cap."""
    blocks = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=3))
    d_s = sum(l * r for l, r in blocks)
    d_e = draw(st.integers(1, max(1, min(8, 64 // d_s))))
    return tuple(blocks), d_e


def _close(x, y) -> bool:
    return np.abs(x - y).max() <= 1e-12 * max(1.0, np.abs(y).max())


def _assignment(blocks, d_e, rng, framed: bool, stacked: bool):
    """The canonical assignment of a random spec on the layout, and its span;
    each omega_RE_i of a random rank, so some factors have zero columns."""
    d_s = sum(l * r for l, r in blocks)

    def one():
        omega_re = tuple(
            random_density(r * d_e, int(rng.integers(1, r * d_e + 1)), rng) for _, r in blocks
        )
        return omega_re, random_haar_unitary(d_s, rng) if framed else None

    draws = [one() for _ in range(T if stacked else 1)]
    if stacked:
        omega_re = tuple(np.stack(w) for w in zip(*(om for om, _ in draws)))
        frame = np.stack([f for _, f in draws]) if framed else None
    else:
        omega_re, frame = draws[0]
    v = markov_block_space(MarkovBlocksSpec(blocks, d_e, omega_re, frame))
    return v, v.canonical_assignment()


@seed(20160601)
@settings(max_examples=25, deadline=None, database=None)
@given(
    layout=layouts(),
    framed=st.booleans(),
    stacked=st.booleans(),
    unitaries=st.sampled_from(["none", "one", "stack"]),
    draw_seed=st.integers(0, 2**16),
)
# The cap: blocks l_i > 1 and r_i > 1 in one layout, each with its frame.
@example(layout=(((1, 4), (4, 1)), 8), framed=False, stacked=False, unitaries="one", draw_seed=1)
@example(layout=(((2, 2), (2, 2)), 8), framed=True, stacked=True, unitaries="stack", draw_seed=2)
@example(layout=(((8, 1),), 8), framed=True, stacked=True, unitaries="one", draw_seed=3)
@example(layout=(((2, 1), (1, 3), (1, 1)), 1), framed=True, stacked=False, unitaries="none", draw_seed=4)
def test_block_contraction_matches_the_padded_and_dense_routes(
    layout, framed, stacked, unitaries, draw_seed
):
    blocks, d_e = layout
    rng = np.random.default_rng(draw_seed)
    v, a = _assignment(blocks, d_e, rng, framed, stacked)
    d_s, d = a.d_s, a.d_s * d_e
    u = {
        "none": None,
        "one": random_haar_unitary(d, rng),
        "stack": np.stack([random_haar_unitary(d, rng) for _ in range(T)]),
    }[unitaries]
    psi = a.reduced(u).mat
    assert _close(psi, padded_reduced(a, u).mat)
    # The matrix and the domain projector, built block by block.
    padded = channel_from_kraus(padded_kraus(a.blocks, d_s, d_e, a.frame), d_s, d).mat
    assert _close(a.mat, padded)
    assert _close(a.domain_projector, padded_domain_projector(v))
    # The dense route, one spec and one unitary at a time.
    members = [a.mat[t] for t in range(T)] if stacked else [a.mat]
    us = [np.eye(d)] if u is None else list(u) if u.ndim == 3 else [u]
    dense = np.array([[reduced_dynamics(w, m, d_s, d_e).mat for w in us] for m in members])
    if stacked and unitaries == "stack":  # trial t meets unitary t
        dense = dense[np.arange(T), np.arange(T)]
    assert _close(psi, dense.reshape(psi.shape))


def test_the_blocks_hold_no_copies_or_padding():
    # The cap layout of markov-blocks: (64, 512) padded operators, of which
    # 12.5% are nonzero, against each block's (32, 16, 2) stack.
    rng = np.random.default_rng(1)
    _, a = _assignment(((2, 2), (2, 2)), 8, rng, framed=False, stacked=False)
    assert [(s, r, t.shape) for s, r, t in a.blocks] == [
        (slice(0, 4), 2, (32, 16, 2)),
        (slice(4, 8), 2, (32, 16, 2)),
    ]
    support = padded_kraus([(s, r, np.ones_like(t)) for s, r, t in a.blocks], a.d_s, a.d_e)
    assert support.shape == (64, 64, 8)
    assert np.count_nonzero(support) / support.size == 0.125


CAP = ["theorem1", "--family", "markov-blocks", "--blocks", "2x2,2x2", "--de", "8", "--g", "all"]


@pytest.mark.parametrize("argv", [CAP, [*CAP[:-1], "local"]], ids=" ".join)
def test_the_cap_report_is_the_padded_oracles_byte_for_byte(monkeypatch, argv):
    argv = [*argv, "--trials", "5", "--seed", "1", "--out", os.devnull]

    def text():
        report, code = cli.run(argv)
        assert code == 0
        report.pop("wall_time_s")
        return json.dumps(report, sort_keys=True, indent=2)

    block_by_block = text()
    monkeypatch.setattr(AssignmentMap, "reduced", padded_reduced)
    assert text() == block_by_block
