"""V, the span of a family's members, built from the family's linear
generators.  The span of d_s^2 + 2 sampled members, the way V used to be
built, stays here as the oracle."""

from types import SimpleNamespace

import numpy as np
import pytest

from cpdyn import cli, families
from cpdyn.consistency import canonical_assignment, span_from_states
from cpdyn.families import (
    KernelExtendedSpec,
    random_params,
    sample_member,
    span_generators,
)
from cpdyn.tensor import random_density, tr_e

LAYOUTS = {
    "1x2,2x1": ((1, 2), (2, 1)),
    "2x2": ((2, 2),),
    "1x1,1x3": ((1, 1), (1, 3)),
    "2x1,1x2,1x1": ((2, 1), (1, 2), (1, 1)),
}
SEEDS = (0, 1, 2, 3)


def _args(family, blocks, d_a=2, d_e=2):
    # Every family runs at the layout's system dimension, --ds included.
    d_s = sum(l * r for l, r in blocks)
    return SimpleNamespace(family=family, ds=d_s, de=d_e, da=d_a, blocks=blocks)


def _spec(args, seed):
    return cli._random_spec(args.family, args, np.random.default_rng(seed))


def sampled_span(spec, rng):
    """The oracle: the span of d_s^2 + 2 random members of the family (of
    its base, for a kernel extension)."""
    base = spec.base if isinstance(spec, KernelExtendedSpec) else spec
    members = [sample_member(base, random_params(base, rng)) for _ in range(spec.d_s**2 + 2)]
    return span_from_states(members, spec.d_s, spec.d_e)


def assert_same_span(v, w):
    assert v.dim == w.dim
    p_v = v.basis @ v.basis.conj().T
    p_w = w.basis @ w.basis.conj().T
    assert np.linalg.norm(p_v - p_w) <= 1e-12
    a_v, a_w = canonical_assignment(v), canonical_assignment(w)
    assert np.linalg.norm(a_v.mat - a_w.mat) <= 1e-12
    assert np.linalg.norm(a_v.domain_projector - a_w.domain_projector) <= 1e-12


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("family", cli.FAMILY_CHOICES)
def test_generator_span_equals_sampled_span(family, layout, seed):
    spec = _spec(_args(family, LAYOUTS[layout]), seed)
    assert_same_span(cli._family_span(spec), sampled_span(spec, np.random.default_rng(seed + 100)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("d_a", [1, 2, 3])
def test_steered_generator_span_equals_sampled_span(d_a, layout, seed):
    spec = _spec(_args("steered", LAYOUTS[layout], d_a=d_a), seed)
    v = cli._family_span(spec)
    assert 1 <= v.dim <= d_a * d_a
    assert_same_span(v, sampled_span(spec, np.random.default_rng(seed + 100)))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("family", [f for f in cli.FAMILY_CHOICES if f != "steered"])
def test_generators_are_orthogonal_with_the_closed_form_count(family, layout):
    blocks = LAYOUTS[layout]
    spec = _spec(_args(family, blocks), 5)
    base = spec.base if isinstance(spec, KernelExtendedSpec) else spec
    gens = np.column_stack([g.reshape(-1) for g in span_generators(base)])
    gram = gens.conj().T @ gens
    assert np.linalg.norm(gram - np.diag(np.diag(gram))) <= 1e-14
    # mixed-direct-sum fixes the S x E state of its first m' blocks.
    dims, m_prime = [l * r for l, r in blocks], max(1, len(blocks) // 2)
    expected = {
        "factorized": spec.d_s**2,
        "classical-quantum": spec.d_s,
        "direct-sum": sum(d * d for d in dims),
        "mixed-direct-sum": m_prime + sum(d * d for d in dims[m_prime:]),
    }.get(family, sum(l * l for l, _ in blocks))
    assert gens.shape[1] == expected == cli._family_span(spec).dim


@pytest.mark.parametrize(
    "layout, d_e, expected",
    [
        ("1x2,2x1", 2, {
            "factorized": ((4, 1),),
            "direct-sum": ((2, 1), (2, 1)),
            "mixed-direct-sum": ((1, 2), (2, 1)),
        }),
        ("2x1,1x2,1x1", 3, {
            "factorized": ((5, 1),),
            "direct-sum": ((2, 1), (2, 1), (1, 1)),
            "mixed-direct-sum": ((1, 2), (2, 1), (1, 1)),
        }),
        ("2x2", 1, {
            "factorized": ((4, 1),),
            "direct-sum": ((4, 1),),
            "mixed-direct-sum": ((1, 4),),
        }),
    ],
)
@pytest.mark.parametrize("family", ["factorized", "direct-sum", "mixed-direct-sum"])
def test_block_families_are_markov_layouts(family, layout, d_e, expected):
    """Each block family is a MarkovBlocksSpec with its layout, and its
    fixed states are the random_density draws the family always made: a
    (1, d) block's fixed S x E state, or a (d, 1) block's E state, in block
    order."""
    args = _args(family, LAYOUTS[layout], d_e=d_e)
    spec = _spec(args, 7)
    assert type(spec) is families.MarkovBlocksSpec
    assert spec.blocks == expected[family] and spec.d_e == d_e
    rng = np.random.default_rng(7)
    draws = [random_density(r * d_e, r * d_e, rng) for _, r in expected[family]]
    assert all(np.array_equal(w, x) for w, x in zip(spec.omega_re, draws, strict=True))


def test_kernel_extended_has_no_generators():
    spec = _spec(_args("kernel-extended", LAYOUTS["1x2,2x1"]), 0)
    with pytest.raises(TypeError, match="no linear generators"):
        span_generators(spec)


@pytest.mark.parametrize("family", cli.FAMILY_CHOICES)
def test_verify_family_trial_samples_at_most_one_member(monkeypatch, family):
    calls = []
    sample = families.sample_member

    def counting(spec, params):
        calls.append(type(spec).__name__)
        return sample(spec, params)

    monkeypatch.setattr(families, "sample_member", counting)
    argv = ["verify-family", "--family", family, "--trials", "3", "--seed", "4"]
    if family == "kernel-extended":
        argv += ["--g", "local"]
    report, code = cli.run(argv)
    assert code == 0
    assert len(calls) <= report["summary"]["n_trials"] == 3
    assert len(calls) == (3 if family in ("markov-blocks", "steered") else 0)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d_a", [1, 2, 3])
def test_steered_members_lie_in_the_consistency_span(d_a, seed):
    args = _args("steered", LAYOUTS["1x2,2x1"], d_a=d_a)
    v = cli._build_subspace(args, np.random.default_rng(seed))
    spec = _spec(args, seed)  # the spec _build_subspace drew first
    rng = np.random.default_rng(seed + 100)
    for _ in range(3):
        assert v.contains(sample_member(spec, random_params(spec, rng)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d_e", [1, 2, 3])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_kernel_extended_directions_are_orthonormal_and_traceless(layout, d_e, seed):
    spec = _spec(_args("kernel-extended", LAYOUTS[layout], d_e=d_e), seed)
    sub, d_s = spec.kernel_basis, spec.d_s
    d = d_s * d_e
    assert sub.shape == (d * d, min(3, d * d - d_s * d_s))
    assert np.linalg.norm(sub.conj().T @ sub - np.eye(sub.shape[1])) <= 1e-12
    assert np.linalg.norm(tr_e(sub, d_s, d_e)) <= 1e-12
