"""V, the span of a family's members, built from the family's linear
generators, or in closed form for a Markov-block layout.  The span of
d_s^2 + 2 sampled members, the way V used to be built, stays here as the
oracle, and the orthonormalized generators, ``span_from_states`` of
``span_generators``, as the reference for the closed form."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cpdyn import channels, cli, consistency, families
from cpdyn.consistency import canonical_assignment, sample_unitaries, span_from_states
from cpdyn.families import (
    KernelExtendedSpec,
    random_params,
    sample_member,
    span_generators,
)
from cpdyn.tensor import random_density, random_haar_unitary, tr_e
from trial_oracle import kraus_classical_quantum, labelled

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
    # W's orthonormal basis lies in V, of the same dimension: V = W.  A
    # closed-form V has no basis to compare projectors with.
    assert v.dim == w.dim
    d = v.d_s * v.d_e
    assert all(v.contains(b.reshape(d, d), tol=1e-12) for b in w.basis.T)
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
    # A stack of trials samples its members in one call: the members
    # sampled are counted by the stack's leading axis.
    calls = []
    sample = families.sample_member

    def counting(spec, params):
        member = sample(spec, params)
        calls.append(len(member) if member.ndim == 3 else 1)
        return member

    monkeypatch.setattr(families, "sample_member", counting)
    argv = ["verify-family", "--family", family, "--trials", "3", "--seed", "4"]
    if family == "kernel-extended":
        argv += ["--g", "local"]
    report, code = cli.run(argv)
    assert code == 0
    assert sum(calls) <= report["summary"]["n_trials"] == 3
    assert sum(calls) == (3 if family in ("markov-blocks", "steered") else 0)


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


# (layout, d_e): sizes (2, 2) to (4, 4), then the 64-dimension cap.
CLOSED_FORM_CASES = [
    ("1x2,2x1", 2),
    ("2x1,1x3,1x1", 2),
    ("1x3,2x1", 3),
    ("3x2", 2),
    ("8x1", 8),
    ("2x2,2x2", 8),
]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("layout, d_e", CLOSED_FORM_CASES)
def test_markov_block_space_matches_the_generator_span(layout, d_e, seed):
    spec = _spec(_args("markov-blocks", cli._parse_blocks(layout), d_e=d_e), seed)
    d_s = spec.d_s
    v = cli._family_span(spec)
    ref = span_from_states(span_generators(spec), d_s, d_e)
    assert type(v) is consistency._MarkovBlockSpace
    a, a_ref = canonical_assignment(v), canonical_assignment(ref)
    assert np.linalg.norm(a.mat - a_ref.mat) <= 1e-12
    assert np.linalg.norm(a.domain_projector - a_ref.domain_projector) <= 1e-12
    assert v.dim == ref.dim == sum(l * l for l, _ in spec.blocks)
    assert v.dim_v0 == ref.dim_v0 == 0
    rng = np.random.default_rng(seed + 200)
    for g in ("all", "local"):
        for _, u in labelled(sample_unitaries(g, 2, v, rng)):
            assert v.violation(u) == 0.0
            assert abs(v.violation(u) - ref.violation(u)) <= 1e-12
    d2 = (d_s * d_e) ** 2
    x = rng.normal(size=(d2, 3)) + 1j * rng.normal(size=(d2, 3))
    assert abs(v.kernel_escape(x) - ref.kernel_escape(x)) <= 1e-12 * np.linalg.norm(x)
    members = [sample_member(spec, random_params(spec, rng)) for _ in range(3)]
    assert all(v.contains(m) and ref.contains(m) for m in members)
    outside = random_density(d_s * d_e, d_s * d_e, rng)
    assert not v.contains(outside) and not ref.contains(outside)
    # A unit step orthogonal to V moves a member by exactly its length, on
    # either side of the tolerance tol * max(1, ||x||_F) = tol (||x||_F <= 1).
    z = x[:, 0] - ref.basis @ (ref.basis.conj().T @ x[:, 0])
    step = (z / np.linalg.norm(z)).reshape(d_s * d_e, d_s * d_e)
    for scale, inside in ((0.5, True), (2.0, False)):
        y = members[0] + scale * 1e-9 * step
        assert v.contains(y) is ref.contains(y) is inside


# Framed layouts: classical-quantum, d_s blocks (1, 1) in its Haar frame,
# at (d_s, d_e), and the layout 1x2,2x1 turned by a Haar frame, at d_e.
FRAMED_CASES = [
    ("classical-quantum", 2, 2),
    ("classical-quantum", 3, 2),
    ("classical-quantum", 4, 4),
    ("classical-quantum", 8, 8),
    ("1x2,2x1", 4, 2),
    ("1x2,2x1", 4, 3),
]


def _framed_spec(layout, d_s, d_e, rng):
    if layout == "classical-quantum":
        return cli._random_spec(layout, SimpleNamespace(ds=d_s, de=d_e), rng)
    spec = cli._random_spec("markov-blocks", _args("markov-blocks", LAYOUTS[layout], d_e=d_e), rng)
    return replace(spec, frame=random_haar_unitary(d_s, rng))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("layout, d_s, d_e", FRAMED_CASES)
def test_framed_markov_span_matches_the_generator_span(layout, d_s, d_e, seed):
    rng = np.random.default_rng(seed)
    spec = _framed_spec(layout, d_s, d_e, rng)
    v = cli._family_span(spec)
    ref = span_from_states(span_generators(spec), d_s, d_e)
    assert type(v) is consistency._MarkovBlockSpace and v.frame is spec.frame
    assert v.dim == ref.dim and v.dim_v0 == ref.dim_v0 == 0
    a, a_ref = canonical_assignment(v), canonical_assignment(ref)
    assert np.linalg.norm(a.mat - a_ref.mat) <= 1e-12
    assert np.linalg.norm(a.domain_projector - a_ref.domain_projector) <= 1e-12
    members = [sample_member(spec, random_params(spec, rng)) for _ in range(3)]
    assert all(v.contains(m) for m in members)
    # A unit step orthogonal to V, on either side of the tolerance.
    x = rng.normal(size=(d_s * d_e) ** 2) + 1j * rng.normal(size=(d_s * d_e) ** 2)
    z = x - ref.basis @ (ref.basis.conj().T @ x)
    step = (z / np.linalg.norm(z)).reshape(d_s * d_e, d_s * d_e)
    for scale, inside in ((0.5, True), (2.0, False)):
        y = members[0] + scale * 1e-9 * step
        assert v.contains(y) is ref.contains(y) is inside


@pytest.mark.parametrize("d_s, d_e", [(2, 2), (3, 2), (4, 4), (8, 8)])
def test_classical_quantum_dynamics_dephases_then_prepares(d_s, d_e):
    # The oracle: Kraus operators D_ikl P_i, which dephase in the frame's
    # basis b_i and then prepare omega_i on E before U acts.
    rng = np.random.default_rng(10 * d_s + d_e)
    spec = _framed_spec("classical-quantum", d_s, d_e, rng)
    v = cli._family_span(spec)
    assign = canonical_assignment(v)
    for _, u in labelled(sample_unitaries("all", 2, v, rng)):
        psi = channels.reduced_dynamics(u, assign.mat, d_s, d_e)
        k = kraus_classical_quantum(u, spec.frame, spec.omega_re, d_s, d_e)
        assert np.linalg.norm(psi.mat - channels.channel_from_kraus(k, d_s, d_s).mat) <= 1e-12


# (layout, d_e) of `verify-family --family steered --da 2`, up to
# A x S x E = 64.
STEERED_CASES = [("1x2,2x1", 2), ("1x2,2x1", 3), ("2x2,2x2", 4), ("2x1,1x3", 3)]


@pytest.mark.parametrize("layout, d_e", STEERED_CASES)
def test_markov_span_contains_reads_the_structure_fit_residual(layout, d_e):
    # steered_in_span: the residual of structure_fit is the distance to V
    # that the orthonormalized generators give, on members and states alike.
    args = _args("steered", cli._parse_blocks(layout), d_e=d_e)
    rng = np.random.default_rng(17)
    draws = families.markov_state_draws(args.da, args.blocks, args.de, rng)
    mspec, spec = cli._steered(args, *draws)
    markov = mspec.layout
    v = cli._family_span(markov)
    b = span_from_states(span_generators(markov), markov.d_s, d_e).basis
    d = markov.d_s * d_e
    xs = [sample_member(spec, random_params(spec, rng)) for _ in range(5)]
    xs += [random_density(d, d, rng) for _ in range(2)]
    for x in xs:
        residual = families.structure_fit(x, markov.blocks, markov.omega_re, d_e)
        x = x.reshape(-1)
        assert abs(residual - np.linalg.norm(b @ (b.conj().T @ x) - x)) <= 1e-12
    assert [v.contains(x) for x in xs] == [True] * 5 + [False] * 2


@pytest.mark.parametrize("layout, d_e", STEERED_CASES)
def test_a_steered_trial_validates_each_density_once(monkeypatch, layout, d_e):
    # The Markov state's layout is the steered trials' span: its omega_RE_i
    # are validated when the layout is built and never again, so a stack of
    # trials checks the stacks of the omega_RE_i, the omega_AL_i and
    # omega_ASE once each.
    seen = []

    def recording(rho, name="state", _orig=families.check_density):
        seen.append(rho)  # kept alive, so no id is reused
        return _orig(rho, name)

    monkeypatch.setattr(families, "check_density", recording)
    args = _args("steered", cli._parse_blocks(layout), d_e=d_e)
    args.seed, args.g = 5, "all"
    recs = cli._verify_stack(args, range(3))
    assert [rec["steered_in_span"] for rec in recs] == [True] * 3
    assert len(seen) == len({id(x) for x in seen}) == 2 * len(args.blocks) + 1
    assert all(len(x) == 3 for x in seen)


MARKOV_BLOCK_REPORTS = [
    ("verify-family", "--family", family) for family in cli.FAMILY_CHOICES
] + [
    (command, "--family", family)
    for command in ("consistency", "theorem1")
    for family in cli.FAMILY_CHOICES
    if family != "steered"
] + [  # the cap-size reports of the benchmark's cap-dynamics workload
    ("verify-family", "--family", "factorized", "--ds", "8", "--de", "8"),
    ("theorem1", "--family", "markov-blocks", "--blocks", "2x2,2x2", "--de", "8"),
    ("theorem1", "--family", "classical-quantum", "--ds", "8", "--de", "8"),
]


@pytest.mark.parametrize("argv", MARKOV_BLOCK_REPORTS, ids=" ".join)
def test_markov_block_reports_factor_nothing(monkeypatch, argv):
    # Every family's span is a Markov-block layout, classical-quantum's in
    # its frame (verify-family builds a steered trial's span from its
    # underlying layout, and a kernel-extended family takes its base): no
    # generator span and no SVD,
    # the one factorization a basis-backed kernel would take.
    calls = []
    for owner, name in (
        (cli, "span_from_states"),
        (consistency, "span_from_states"),
        (np.linalg, "svd"),
    ):
        def counting(*args, _orig=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    report, code = cli.run([*argv, "--g", "local", "--trials", "3", "--seed", "5"])
    assert code == 0
    assert calls == []
    assert report["summary"].get("dim_v0", 0) == 0
