import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdyn import channels, cli, consistency, families, tensor
from cpdyn.channels import (
    ChannelMap,
    choi,
    choi_distance,
    is_cp,
    is_tp_on_domain,
    reduced_dynamics,
    trace_out_env_matrix,
)
from cpdyn.consistency import (
    CONSISTENCY_TOL,
    OperatorSubspace,
    AssignmentMap,
    canonical_assignment,
    full_space,
    g_consistency_report,
    kernel_tr_e,
    markov_block_space,
    perturb_assignment,
    sample_unitaries,
    span_from_states,
    subspace_from_constraint,
    theorem1_verify,
    u_consistency_violation,
)
from cpdyn.families import (
    FamilyParams,
    MarkovBlocksSpec,
    random_params,
    sample_member,
)
from cpdyn.tensor import (
    PSD_TOL_FACTOR,
    is_hermitian,
    kron,
    psd_check,
    random_density,
    random_haar_unitary,
    swap_unitary,
    tr_e,
    unvec,
    vec,
)
from trial_oracle import (
    labelled,
    padded_kraus,
    product_assignment_matrix,
    random_hermitian,
    random_markov_state_spec,
    witness_assignment,
)


def random_kernel_perturbation(v0, rng, scale=0.1):
    """A random linear map from vec L(H_S) into V0: Delta = K C with C a
    complex Gaussian (dim V0, d_s^2) coefficient matrix."""
    d_s = v0.d_s
    if v0.dim == 0:
        return np.zeros((v0.basis.shape[0], d_s * d_s), dtype=complex)
    coeffs = scale * (
        rng.normal(size=(v0.dim, d_s * d_s)) + 1j * rng.normal(size=(v0.dim, d_s * d_s))
    )
    return v0.basis @ coeffs


def markov_span(rng, blocks=((1, 2), (2, 1)), d_e=2):
    spec = MarkovBlocksSpec(
        blocks, d_e, tuple(random_density(r * d_e, r * d_e, rng) for _, r in blocks)
    )
    d_s = spec.d_s
    members = [
        sample_member(spec, random_params(spec, rng)) for _ in range(d_s * d_s + 2)
    ]
    return spec, span_from_states(members, d_s, d_e)


def test_subspace_requires_orthonormal_basis():
    with pytest.raises(ValueError):
        OperatorSubspace(1, 2, np.ones((4, 2)))
    q = np.linalg.qr(np.random.default_rng(72).normal(size=(16, 4)))[0]
    assert OperatorSubspace(2, 2, q).dim == 4
    with pytest.raises(ValueError, match="not orthonormal"):
        OperatorSubspace(2, 2, q * (1 + 1e-6))


def test_span_from_states_rank(rng):
    rho = random_density(4, 4, rng)
    v = span_from_states([rho, 2 * rho, rho + 0j], 2, 2)
    assert v.dim == 1
    assert v.contains(5 * rho)
    assert not v.contains(random_hermitian(4, rng))


def test_full_space_dimension():
    assert full_space(2, 2).dim == 16
    assert full_space(2, 3).dim == 36


def test_kernel_dimension_full_space():
    # Traceless-on-E directions of the full 2x2 operator space: exactly 12.
    assert full_space(2, 2).dim_v0 == 12
    assert full_space(2, 3).dim_v0 == 4 * 8


def test_rank_nullity_on_random_subspaces():
    # dim V = dim V0 + rank(Tr_E restricted to V), with the rank capped by
    # the system operator-space dimension.
    from cpdyn.channels import trace_out_env_matrix

    r = np.random.default_rng(42)
    d_s = d_e = 2
    t = trace_out_env_matrix(d_s, d_e)
    for _ in range(25):
        n = int(r.integers(1, 16))
        states = [random_hermitian(d_s * d_e, r) for _ in range(n)]
        v = span_from_states(states, d_s, d_e)
        v0 = kernel_tr_e(v)
        rank = np.linalg.matrix_rank(t @ v.basis, tol=1e-9)
        assert v.dim == v0.dim + rank


def test_subspace_from_constraint_is_null_space(rng):
    a = rng.normal(size=(3, 16))
    v = subspace_from_constraint(a, 2, 2)
    assert v.dim == 13
    assert np.linalg.norm(a @ v.basis) < 1e-9


def checked_report(v, g, n, rng, tol=CONSISTENCY_TOL):
    """g_consistency_report over one draw of n unitaries from the set g."""
    unitaries = labelled(sample_unitaries(g, n, v, rng))
    return g_consistency_report(v, g, [u_consistency_violation(v, u) for _, u in unitaries], tol)


def test_product_span_is_locally_consistent(rng):
    spec, v = markov_span(rng)
    d_s, d_e = spec.d_s, spec.d_e
    u_local = kron(random_haar_unitary(d_s, rng), random_haar_unitary(d_e, rng))
    assert u_consistency_violation(v, u_local) <= CONSISTENCY_TOL
    report = checked_report(v, "local", 5, rng)
    assert report["set"] == "local"
    assert report["exact"] and report["consistent"]
    assert report["checked"] == 5
    assert report["worst_violation"] < 1e-9


def random_span_with_kernel(rng, d_s=2, d_e=2, n=6):
    """Span of n > d_s**2 generic states: its partial-trace kernel is
    nonzero, so generic unitaries move it out of the trace kernel."""
    states = [random_density(d_s * d_e, d_s * d_e, rng) for _ in range(n)]
    return span_from_states(states, d_s, d_e)


def test_generic_unitary_breaks_consistency(rng):
    v = random_span_with_kernel(rng)
    assert kernel_tr_e(v).dim > 0
    u = random_haar_unitary(4, rng)
    assert u_consistency_violation(v, u) > 1e-3
    report = checked_report(v, "all", 3, rng)
    assert not report["consistent"] and not report["exact"]
    assert report["checked"] == 3
    # The verdict is the worst checked violation against tol, nothing redrawn.
    worst = report["worst_violation"]
    assert g_consistency_report(v, "all", [worst, 0.0], tol=worst)["consistent"]
    assert not g_consistency_report(v, "all", [worst, 0.0], tol=worst * (1 - 1e-12))["consistent"]
    assert g_consistency_report(v, "local", [worst])["consistent"]


def test_zero_kernel_is_always_consistent(rng):
    rho = random_density(4, 4, rng)
    v = span_from_states([rho], 2, 2)
    assert kernel_tr_e(v).dim == 0
    report = checked_report(v, "all", 3, rng)
    assert report["exact"] and report["consistent"]
    assert report["checked"] == 3 and report["worst_violation"] == 0.0


def test_sample_unitaries_variants(rng):
    drawn = labelled(sample_unitaries("all", 7, full_space(2, 2), rng))
    assert [label for label, _ in drawn] == [f"haar_{i}" for i in range(7)]
    drawn = labelled(sample_unitaries("local", 2, full_space(2, 3), rng))
    assert [(label, u.shape) for label, u in drawn] == [("local_0", (6, 6)), ("local_1", (6, 6))]
    # The one swap, whatever n, as a chunk of one.
    (labels, us), = sample_unitaries("swap", 5, full_space(2, 2), rng)
    assert labels == ["swap"] and us.shape == (1, 4, 4) and np.allclose(us[0], swap_unitary(2))
    with pytest.raises(ValueError, match="swap needs equal"):
        list(sample_unitaries("swap", 1, full_space(2, 3), rng))
    with pytest.raises(ValueError, match="unknown unitary set 'Local'"):
        list(sample_unitaries("Local", 1, full_space(2, 2), rng))


def test_canonical_assignment_is_a_section(rng):
    spec, v = markov_span(rng)
    assign = canonical_assignment(v)
    assert assign.trace_consistent
    assert assign.hermitian
    assert assign.cp
    member = sample_member(spec, random_params(spec, rng))
    # Applying the section to a member's system marginal returns a state in V.
    from cpdyn.tensor import partial_trace

    rho_s = partial_trace(member, (spec.d_s, spec.d_e), keep=(0,))
    lifted = unvec(assign.mat @ vec(rho_s))
    assert np.allclose(
        partial_trace(lifted, (spec.d_s, spec.d_e), keep=(0,)), rho_s, atol=1e-9
    )
    assert v.contains(lifted, tol=1e-8)


def test_canonical_assignment_full_space_attaches_maximally_mixed(rng):
    assign = canonical_assignment(full_space(2, 3))
    rho = random_density(2, 2, rng)
    assert np.allclose(unvec(assign.mat @ vec(rho)), kron(rho, np.eye(3) / 3))


def test_perturbation_keeps_trace_consistency(rng):
    v = random_span_with_kernel(rng)
    assign = canonical_assignment(v)
    v0 = kernel_tr_e(v)
    assert v0.dim > 0
    delta = random_kernel_perturbation(v0, rng)
    tilted = perturb_assignment(assign, delta, v0)
    assert tilted.trace_consistent
    assert np.linalg.norm(tilted.mat - assign.mat) > 1e-6


def test_perturbation_rejects_directions_outside_kernel(rng):
    _, v = markov_span(rng)
    assign = canonical_assignment(v)
    v0 = kernel_tr_e(v)
    bad = rng.normal(size=assign.mat.shape)
    with pytest.raises(ValueError):
        perturb_assignment(assign, bad, v0)


def test_witness_assignment_flags(rng):
    omega = np.diag([0.7, 0.3]).astype(complex)
    delta = np.diag([1.0, -1.0]).astype(complex)
    w0 = witness_assignment(omega, delta, 0.0, 2)
    assert w0.cp and w0.trace_consistent
    w = witness_assignment(omega, delta, 2.0, 2)
    assert w.trace_consistent and w.hermitian and not w.cp
    with pytest.raises(ValueError):
        witness_assignment(omega, np.eye(2), 1.0, 2)


def witness_matrix_by_units(omega_e, delta_e, gamma, d_s):
    """Per-matrix-unit construction of the witness assignment (the reference)."""
    base = product_assignment_matrix(omega_e, d_s)
    pert = np.zeros_like(base)
    for i in range(d_s):
        for j in range(d_s):
            x = np.zeros((d_s, d_s), dtype=complex)
            x[i, j] = 1.0
            hat = x - np.trace(x) * np.eye(d_s) / d_s
            pert[:, i * d_s + j] = vec(kron(hat, delta_e))
    return base + gamma * pert


def test_witness_assignment_matches_per_unit_loop(rng):
    for d_s, d_e in [(2, 2), (3, 2), (2, 3)]:
        omega = random_density(d_e, d_e, rng)
        delta = random_hermitian(d_e, rng)
        delta -= np.trace(delta) * np.eye(d_e) / d_e
        for gamma in (0.0, 0.3, 2.0):
            w = witness_assignment(omega, delta, gamma, d_s)
            ref = witness_matrix_by_units(omega, delta, gamma, d_s)
            assert np.abs(w.mat - ref).max() <= 1e-15


def _assignment_flags(mat, d_s, d_e, domain_projector):
    """Flags computed eagerly with the dense Tr_E matrix (the reference)."""
    t = trace_out_env_matrix(d_s, d_e)
    trace_consistent = np.linalg.norm(t @ mat - domain_projector) <= 1e-8 * max(1, d_s)
    ch = choi(ChannelMap(d_s, d_s * d_e, mat))
    return bool(trace_consistent), bool(is_hermitian(ch)), bool(is_cp(ch))


def test_assignment_flags_read_lazily_match_direct_flags(rng):
    v = random_span_with_kernel(rng)
    v0 = kernel_tr_e(v)
    canon = canonical_assignment(v)
    omega = np.diag([0.7, 0.3]).astype(complex)
    delta = np.diag([1.0, -1.0]).astype(complex)
    cases = [
        canon,
        perturb_assignment(canon, random_kernel_perturbation(v0, rng, scale=1.0), v0),
        canonical_assignment(markov_span(rng)[1]),
        canonical_assignment(full_space(2, 3)),
        witness_assignment(omega, delta, 0.0, 2),
        witness_assignment(omega, delta, 2.0, 2),
        AssignmentMap(2, 2, rng.normal(size=(16, 4)) + 0j, np.eye(4, dtype=complex)),
    ]
    seen = set()
    for a in cases:
        names = ("trace_consistent", "hermitian", "cp")
        assert not set(names) & set(vars(a))  # nothing computed before a read
        lazy = tuple(getattr(a, name) for name in names)
        assert set(names) <= set(vars(a))
        assert lazy == _assignment_flags(a.mat, a.d_s, a.d_e, a.domain_projector)
        seen.add(lazy)
    assert len(seen) > 2  # the cases cover differing flag combinations


def test_witness_threshold_is_crossed(rng):
    # The CP threshold of the witness is gamma = 0 in closed form.
    omega = np.diag([0.7, 0.3]).astype(complex)
    delta = np.diag([1.0, -1.0]).astype(complex)
    assert witness_assignment(omega, delta, 0.0, 2).cp
    assert not witness_assignment(omega, delta, 0.5, 2).cp


def test_witness_threshold_closed_form():
    # Every gamma > 0 breaks CP once d_S >= 2 and Delta != 0; for d_S = 1 or
    # Delta = 0 the perturbation vanishes and no gamma does.
    omega = np.diag([0.7, 0.3]).astype(complex)
    delta = np.diag([1.0, -1.0]).astype(complex)
    for gamma in (1e-6, 1e-3, 2.0):
        for d_s in (2, 3):
            assert not witness_assignment(omega, delta, gamma, d_s).cp
        assert witness_assignment(omega, delta, gamma, 1).cp
        assert witness_assignment(omega, np.zeros((2, 2)), gamma, 2).cp


def _witness_choi_eigenvalues(omega, delta, gamma, d_s):
    ch = witness_assignment(omega.astype(complex), delta, gamma, d_s).choi()
    return np.linalg.eigvalsh((ch + ch.conj().T) / 2)


@pytest.mark.parametrize("d_s", [2, 3])
@pytest.mark.parametrize("gamma", [0.1, 1.0])
def test_witness_choi_spectrum_closed_form(d_s, gamma):
    # C = |Omega><Omega| (x) (omega + gamma Delta) - (gamma/d_S) I (x) Delta
    # is d_S omega + gamma (d_S - 1/d_S) Delta on Omega (x) E, and
    # -(gamma/d_S) Delta on each of the d_S^2 - 1 copies of Omega-perp (x) E.
    omega, delta = np.diag([0.7, 0.3]), np.diag([1.0, -1.0])
    omega_block = np.linalg.eigvalsh(d_s * omega + gamma * (d_s - 1 / d_s) * delta)
    perp_block = np.repeat(-gamma / d_s * np.diag(delta), d_s * d_s - 1)
    expected = np.sort(np.concatenate([omega_block, perp_block]))
    assert np.allclose(_witness_choi_eigenvalues(omega, delta, gamma, d_s), expected, atol=1e-12)
    # Here the Omega block stays PSD, so the minimum is -gamma lambda_max(Delta)/d_S.
    omega, delta = np.diag([0.6, 0.4]), np.diag([0.2, -0.2])
    low = _witness_choi_eigenvalues(omega, delta, gamma, d_s).min()
    assert abs(low + gamma * 0.2 / d_s) <= 1e-12


def test_theorem_verifier_passes_on_consistent_setup(rng):
    _, v = markov_span(rng)
    report = theorem1_verify(v, "local", sample_unitaries("local", 5, v, rng))
    assert report["premises_hold"]
    assert report["conclusion_holds"]
    assert report["passed"]
    assert all(rec["cp"] for rec in report["per_unitary"])
    assert all(
        rec["perturbation_deviation"] <= 1e-9 for rec in report["per_unitary"]
    )


def test_theorem_verifier_vacuous_when_premises_fail(rng):
    v = random_span_with_kernel(rng)
    report = theorem1_verify(v, "all", sample_unitaries("all", 3, v, rng))
    assert not report["premises_hold"]
    assert report["passed"]  # implication holds vacuously


def test_reduced_dynamics_tp_on_block_domain(rng):
    spec, v = markov_span(rng)
    assign = canonical_assignment(v)
    u = kron(random_haar_unitary(spec.d_s, rng), random_haar_unitary(spec.d_e, rng))
    psi = reduced_dynamics(u, assign.mat, spec.d_s, spec.d_e)
    assert is_tp_on_domain(psi, assign.domain_projector)


def test_kernel_perturbation_invariance_of_dynamics(rng):
    spec, v = markov_span(rng)
    v0 = kernel_tr_e(v)
    assign = canonical_assignment(v)
    u = kron(random_haar_unitary(spec.d_s, rng), random_haar_unitary(spec.d_e, rng))
    psi = reduced_dynamics(u, assign.mat, spec.d_s, spec.d_e)
    for _ in range(5):
        tilted = perturb_assignment(assign, random_kernel_perturbation(v0, rng), v0)
        psi_t = reduced_dynamics(u, tilted.mat, spec.d_s, spec.d_e)
        assert choi_distance(psi, psi_t) < 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_local_consistency_is_exact_property(seed):
    r = np.random.default_rng(seed)
    _, v = markov_span(r)
    u = kron(random_haar_unitary(4, r), random_haar_unitary(2, r))
    assert u_consistency_violation(v, u) < 1e-9


# The sampled perturbation path as the oracle for u_consistency_violation,
# ||M_U||_F with M_U = Tr_E o Ad_U restricted to V0.

def _random_span_7():
    # The subspace `consistency --family random --span-states 7` builds.
    r = np.random.default_rng(7)
    return span_from_states([random_density(4, 4, r) for _ in range(7)], 2, 2)


def _kernel_basis(v):
    """V0 as a basis: a closed-form full space has none, so its V0 comes
    from the identity basis, by the generic path."""
    if not isinstance(v, OperatorSubspace):
        v = OperatorSubspace(v.d_s, v.d_e, np.eye(v.dim))
    return kernel_tr_e(v)


ORACLE_SUBSPACES = {
    "full-2x2": lambda: full_space(2, 2),
    "full-2x3": lambda: full_space(2, 3),
    "full-3x2": lambda: full_space(3, 2),
    "full-4x4": lambda: full_space(4, 4),
    "random-7": _random_span_7,
}


def _oracle_unitary(kind, d_s, d_e, rng):
    if kind == "haar":
        return random_haar_unitary(d_s * d_e, rng)
    return kron(random_haar_unitary(d_s, rng), random_haar_unitary(d_e, rng))


def _dense_m_u(k, u, d_s, d_e):
    """M_U from the dense Tr_E matrix and kron(U, conj U)."""
    return trace_out_env_matrix(d_s, d_e) @ np.kron(u, u.conj()) @ k


@pytest.mark.parametrize("kind", ["haar", "local"])
@pytest.mark.parametrize("name", sorted(ORACLE_SUBSPACES))
def test_kernel_perturbation_moves_dynamics_by_m_u_c(name, kind):
    rng = np.random.default_rng(81)
    v = ORACLE_SUBSPACES[name]()
    d_s, d_e, v0 = v.d_s, v.d_e, _kernel_basis(v)
    assert v0.dim > 0
    assign = canonical_assignment(v)
    u = _oracle_unitary(kind, d_s, d_e, rng)
    m_u = _dense_m_u(v0.basis, u, d_s, d_e)
    hs = u_consistency_violation(v, u)
    assert np.isclose(hs, np.linalg.norm(m_u), rtol=1e-12, atol=1e-13)
    psi = reduced_dynamics(u, assign.mat, d_s, d_e)
    for scale in (0.1, 1.0, 10.0):
        delta = random_kernel_perturbation(v0, rng, scale)
        c = v0.basis.conj().T @ delta
        size = np.linalg.norm(delta)
        assert np.isclose(np.linalg.norm(c), size, rtol=1e-12)
        tilted = perturb_assignment(assign, delta, v0)
        explicit = choi_distance(psi, reduced_dynamics(u, tilted.mat, d_s, d_e))
        exact = np.linalg.norm(m_u @ c)
        assert np.isclose(explicit, exact, rtol=1e-12, atol=1e-12 * size)
        assert explicit <= hs * size * (1 + 1e-12) + 1e-12 * size
    if kind == "haar":
        assert hs > 1e-3
    else:
        assert hs < 1e-12


@pytest.mark.parametrize("kind", ["haar", "local"])
@pytest.mark.parametrize("name", sorted(ORACLE_SUBSPACES))
def test_u_consistency_violation_ignores_the_kernel_basis(name, kind):
    rng = np.random.default_rng(82)
    v = ORACLE_SUBSPACES[name]()
    d_s, d_e, k = v.d_s, v.d_e, _kernel_basis(v).basis
    # A subspace inside ker Tr_E is its own kernel, on the basis it is given.
    q = random_haar_unitary(k.shape[1], rng)
    v0, v0_rotated = OperatorSubspace(d_s, d_e, k), OperatorSubspace(d_s, d_e, k @ q)
    assert np.array_equal(kernel_tr_e(v0_rotated).basis, v0_rotated.basis)
    u = _oracle_unitary(kind, d_s, d_e, rng)
    hs = u_consistency_violation(v, u)
    for w in (v0, v0_rotated):
        assert np.isclose(u_consistency_violation(w, u), hs, rtol=1e-12, atol=1e-12)
    if kind == "haar":
        # The column maximum reported before depends on the basis.
        col_max = [
            np.linalg.norm(tr_e(b, d_s, d_e, u), axis=0).max() for b in (k, k @ q)
        ]
        assert abs(col_max[0] - col_max[1]) > 1e-6 * hs


@pytest.mark.parametrize("g", [("all", 3), ("local", 3)])  # (set, draws)
@pytest.mark.parametrize("name", sorted(ORACLE_SUBSPACES))
def test_theorem1_records_report_u_consistency_violation(name, g):
    v = ORACLE_SUBSPACES[name]()
    g_name, n = g
    drawn = list(sample_unitaries(g_name, n, v, np.random.default_rng(83)))
    report = theorem1_verify(v, g_name, drawn)
    drawn = labelled(drawn)
    records, checked = report["per_unitary"], report["consistency"]
    # The records name the caller's unitaries in order, and the consistency
    # block summarizes those same records.
    assert checked["set"] == g_name and checked["exact"] == (g_name == "local")
    assert [r["unitary"] for r in records] == [label for label, _ in drawn]
    assert [r["perturbation_deviation"] for r in records] == [
        u_consistency_violation(v, u) for _, u in drawn
    ]
    assert checked["checked"] == len(records)
    assert checked["worst_violation"] == max(r["perturbation_deviation"] for r in records)


# Assignment CP, by Kraus form or by the dense test, against the dense
# channels.is_cp of the same Choi matrix.

def _family_assignment(family, size, seed):
    """The assignment a report builds: demo 1's product `x -> x kron omega_E`
    at `--ds <size>` for `demo1-product`, else the canonical assignment
    `theorem1 --family <family>` builds, at `--blocks 2x2,2x2 --de <size>`
    for block families, else at `--ds <size[0]> --de <size[1]>`."""
    if family == "demo1-product":
        used = []
        verify = cli.theorem1_verify
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                cli, "theorem1_verify",
                lambda *a, **kw: used.append(kw["assignment"]) or verify(*a, **kw),
            )
            _, code = cli.run(["demo", "1", "--ds", str(size), "--seed", str(seed),
                               "--trials", "1", "--out", os.devnull])
        assert code == 0
        return used[0]
    argv = ["theorem1", "--family", family, "--seed", str(seed)]
    if family in cli.BLOCK_FAMILIES:
        argv += ["--blocks", "2x2,2x2", "--de", str(size)]
    else:
        argv += ["--ds", str(size[0]), "--de", str(size[1])]
    args = cli.build_parser().parse_args(argv)
    args.ds = cli._system_dim(args)
    return canonical_assignment(cli._build_subspace(args, np.random.default_rng(seed)))


CP_ORACLE_CASES = (
    [
        (family, size)
        for family in ("factorized", "classical-quantum", "random")
        for size in ((2, 2), (4, 2), (4, 4), (8, 8))
    ]
    + [(family, d_e) for family in cli.BLOCK_FAMILIES for d_e in (4, 8)]
    + [("full", (2, 2)), ("full", (4, 8))]
    + [("demo1-product", d_s) for d_s in (2, 3, 8)]
)


@pytest.mark.parametrize(
    "family,size",
    CP_ORACLE_CASES,
    ids=[f"{f}-{s if isinstance(s, int) else 'x'.join(map(str, s))}" for f, s in CP_ORACLE_CASES],
)
def test_assignment_cp_matches_dense_is_cp(family, size):
    # Demo 1 draws nothing its product assignment reads, so one seed does.
    for seed in range(1, 2 if family == "demo1-product" else 6):
        a = _family_assignment(family, size, seed)
        assert a.cp == is_cp(a.choi())
        # Only a basis-backed span's assignment is decided numerically.
        assert (a.blocks is None) == (family in ("steered", "random"))
        if a.blocks is not None:
            assert a.cp
            # Each block holds its operators on R_i -> R_i x E alone.
            assert all(t.shape[1:] == (r * a.d_e, r) for _, r, t in a.blocks)
            assert sum(s.stop - s.start for s, _, _ in a.blocks) == a.d_s
        if family == "steered":  # its canonical assignment is never CP
            assert not a.cp


def test_a_perturbed_kraus_backed_assignment_is_decided_numerically():
    # x -> x kron (I/2 + Delta) has Choi matrix |Omega><Omega| kron diag(1.5, -0.5).
    v = full_space(2, 2)
    canon = canonical_assignment(v)
    assert canon.blocks is not None and canon.cp
    delta = product_assignment_matrix(np.diag([1.0, -1.0]).astype(complex), 2)
    tilted = perturb_assignment(canon, delta, v)
    assert tilted.blocks is None
    assert tilted.trace_consistent and tilted.hermitian
    assert not tilted.cp and not is_cp(tilted.choi())


def test_markov_block_space_takes_only_a_psd_omega():
    blocks, d_e = ((1, 2), (1, 1)), 2
    good = (np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex), np.eye(2, dtype=complex) / 2)
    bad = (np.diag([0.5, 0.3, 0.3, -0.1]).astype(complex), good[1])
    with pytest.raises(ValueError, match="omega_RE_0 is not positive semidefinite"):
        markov_block_space(MarkovBlocksSpec(blocks, d_e, bad))
    # Negativity at the rounding level passes psd_check and is clipped.
    near = (good[0] - 1e-13 * np.diag([0, 0, 0, 1]), good[1])
    exact, clipped = (
        markov_block_space(MarkovBlocksSpec(blocks, d_e, w)).canonical_assignment()
        for w in (good, near)
    )
    assert clipped.cp and np.abs(clipped.mat - exact.mat).max() <= 1e-12


def _record_eigensolver_shapes(monkeypatch) -> list:
    """Shapes of every eigvalsh and eigh call made after this one."""
    shapes = []
    for name in ("eigvalsh", "eigh"):
        def recording(a, *rest, _orig=getattr(np.linalg, name), **kw):
            shapes.append(np.shape(a))
            return _orig(a, *rest, **kw)
        monkeypatch.setattr(np.linalg, name, recording)
    return shapes


@pytest.mark.parametrize("d_s,d_e", [(4, 4), (4, 8)])
@pytest.mark.parametrize("depth", [0.5, 0.9, 1.1, 2.0])
def test_witness_near_the_tolerance_is_decided_densely(monkeypatch, d_s, d_e, depth):
    # The witness has no Kraus form, so the dense test decides at depth *
    # tolerance: one Hermiticity check and one eigensolver, whatever the
    # verdict.
    rng = np.random.default_rng(91)
    omega = random_density(d_e, d_e, rng)
    delta = random_hermitian(d_e, rng)
    delta -= np.trace(delta) * np.eye(d_e) / d_e
    c0 = witness_assignment(omega, delta, 0.0, d_s).choi()
    tau = PSD_TOL_FACTOR * max(1.0, np.abs(np.linalg.eigvalsh(c0)).max())
    gamma = depth * tau * d_s / np.linalg.eigvalsh(delta)[-1]
    a = witness_assignment(omega, delta, gamma, d_s)
    ok, low = psd_check(a.choi())
    assert low == pytest.approx(-depth * tau, rel=1e-3)
    shapes = _record_eigensolver_shapes(monkeypatch)
    checked = _record_hermiticity_checks(monkeypatch)
    assert a.hermitian and a.cp == ok == (depth < 1)
    assert shapes == [c0.shape] and checked == [len(c0)]


def _record_hermiticity_checks(monkeypatch) -> list:
    """Sides of every ``is_hermitian`` call made after this one, whether
    ``consistency`` or ``tensor.psd_check`` makes it."""
    checked = []

    def recording(m, *rest, **kw):
        checked.append(len(m))
        return is_hermitian(m, *rest, **kw)

    for module in (consistency, tensor):
        monkeypatch.setattr(module, "is_hermitian", recording)
    return checked


def test_demo1_checks_its_assignment_choi_for_hermiticity_once(monkeypatch):
    # Demo 1's canonical assignment carries only its matrix, so its flags
    # read the side-512 Choi matrix at --ds 8; one check settles both.
    checked = _record_hermiticity_checks(monkeypatch)
    report, code = cli.run(["demo", "1", "--ds", "8", "--out", os.devnull])
    assert code == 0 and report["summary"]["canonical_assignment_cp"]
    assert checked.count(512) == 1


def test_a_non_cp_mat_only_assignment_checks_its_choi_once(monkeypatch):
    # The steered canonical assignment is Hermitian and not CP; its side-32
    # Choi matrix gets one Hermiticity check and one eigensolver.
    shapes = _record_eigensolver_shapes(monkeypatch)
    checked = _record_hermiticity_checks(monkeypatch)
    report, code = cli.run(["theorem1", "--family", "steered", "--g", "all", "--trials", "1",
                            "--seed", "1", "--out", os.devnull])
    flags = report["theorem"]["assignment"]
    assert flags["hermitian"] and not flags["cp"]
    assert checked.count(32) == 1 and shapes.count((32, 32)) == 1


def test_a_non_hermitian_perturbed_map_is_neither_hermitian_nor_cp(rng):
    # A kernel step with an anti-Hermitian Choi matrix breaks Hermiticity
    # while keeping trace consistency; psd_check refuses it, and the
    # hermitian flag then reads its own check.
    v = full_space(2, 2)
    base = canonical_assignment(v)
    v0_step = kron(np.eye(2), np.diag([1.0, -1.0]))  # Tr_E vanishes on it
    delta = 0.1j * np.outer(vec(v0_step), vec(np.eye(2)))
    a = perturb_assignment(base, delta, v)
    assert a.blocks is None and a.trace_consistent
    assert not is_hermitian(a.choi())
    assert not a.hermitian and not a.cp


@pytest.mark.parametrize("d_s,d_e", [(4, 4), (4, 8)])
@pytest.mark.parametrize("omega_kind", ["pure", "mixed", "indefinite"])
def test_mat_only_product_assignment_cp_matches_the_oracle(d_s, d_e, omega_kind):
    # x -> x kron omega has C = |Omega><Omega| kron omega: CP for a pure or
    # mixed omega, and not for an indefinite unit-trace omega.
    rng = np.random.default_rng(92)
    omega = random_density(d_e, 1 if omega_kind == "pure" else d_e, rng)
    if omega_kind == "indefinite":
        omega = omega - 0.5 * random_density(d_e, 1, rng) + 0.5 * np.eye(d_e) / d_e
    a = AssignmentMap(
        d_s, d_e, product_assignment_matrix(omega, d_s), np.eye(d_s * d_s, dtype=complex)
    )
    assert a.cp == is_cp(a.choi()) == (omega_kind != "indefinite")


def _mat_from_choi(c, d_in, d_out):
    """Inverse of channels.choi: C[(i, s), (j, t)] = mat[(s, t), (i, j)]."""
    t = c.reshape(d_in, d_out, d_in, d_out).transpose(1, 3, 0, 2)
    return t.reshape(d_out * d_out, d_in * d_in)


def test_non_hermitian_assignment_choi_is_not_cp(rng):
    # A PSD Hermitian part (the product assignment x -> x kron omega) plus an
    # anti-Hermitian i s G: only the Hermiticity conjunct rejects it.
    d_s, d_e = 4, 4
    eye = np.eye(d_s * d_s, dtype=complex)
    product = product_assignment_matrix(random_density(d_e, d_e, rng), d_s)
    c = AssignmentMap(d_s, d_e, product, eye).choi()
    g = rng.normal(size=c.shape)
    bad = c + 1e-6j * (g + g.T)
    a = AssignmentMap(d_s, d_e, _mat_from_choi(bad, d_s, d_s * d_e), eye)
    assert np.array_equal(a.choi(), bad)
    assert np.linalg.eigvalsh((bad + bad.conj().T) / 2)[0] >= -1e-12
    assert not a.hermitian and not a.cp and not is_cp(a.choi())


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-family", "--family", "factorized", "--ds", "8", "--de", "8", "--trials", "1"],
        [
            "theorem1", "--family", "markov-blocks", "--blocks", "2x2,2x2",
            "--de", "8", "--g", "local", "--trials", "1",
        ],
    ],
    ids=["verify-family", "theorem1"],
)
def test_kraus_backed_assignment_cp_builds_no_assignment_choi(monkeypatch, tmp_path, argv):
    # The assignment is CP by its Kraus form: no 512 x 512 Choi matrix is
    # built, and no eigensolver of that size runs; the 64 x 64 Choi
    # matrices of the reduced channels are built and decided.
    shapes = _record_eigensolver_shapes(monkeypatch)
    sides = []
    for module in (consistency, channels):
        monkeypatch.setattr(
            module, "choi", lambda ch, _choi=choi: sides.append(ch.d_in * ch.d_out) or _choi(ch)
        )
    report, code = cli.run([*argv, "--seed", "1", "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert 512 not in sides and 64 in sides
    # verify-family decides its trials as a stack: (trials, 64, 64).
    sizes = [shape[-2:] for shape in shapes]
    assert (512, 512) not in sizes and (64, 64) in sizes
    if argv[0] == "verify-family":
        assert all(t["assignment_cp"] for t in report["trials"])
    else:
        assert report["theorem"]["assignment"]["cp"]


# The Kraus route to the reduced dynamics against the dense path: the
# assignment matrix, channels.reduced_dynamics and tensor.tr_e on it.

def _kraus_backed_assignment(case, size, seed):
    """A Kraus-backed assignment the reports build: the verify-family
    steered trial's layout section (``--da 2``, ``--blocks`` ``size``),
    demo 1's product at ``--ds size``, else ``_family_assignment``."""
    if case == "steered":
        blocks, d_e = size
        rng = np.random.default_rng(seed)
        layout = random_markov_state_spec(2, blocks, d_e, rng).layout
        return markov_block_space(layout).canonical_assignment()
    if case == "demo1-product":
        omega_e = (np.diag([0.7, 0.3]) if size == 2 else np.eye(size) / size).astype(complex)
        spec = MarkovBlocksSpec(((size, 1),), size, (omega_e,))
        return markov_block_space(spec).canonical_assignment()
    return _family_assignment(case, size, seed)


KRAUS_ROUTE_CASES = (
    [("factorized", (2, 2)), ("factorized", (8, 8))]
    + [("classical-quantum", (4, 2)), ("classical-quantum", (8, 8))]
    + [(family, d_e) for family in cli.BLOCK_FAMILIES if family != "steered" for d_e in (2, 8)]
    + [("steered", (((1, 2), (2, 1)), 2)), ("steered", (((2, 2), (2, 2)), 4))]
    + [("full", (2, 2)), ("full", (4, 8))]
    + [("demo1-product", d_s) for d_s in (2, 3, 8)]
)


def _size_id(size) -> str:
    if isinstance(size, int):
        return str(size)
    if isinstance(size[0], int):
        return "x".join(map(str, size))
    blocks, d_e = size
    return ",".join(f"{l}x{r}" for l, r in blocks) + f"-de{d_e}"


@pytest.mark.parametrize("g", ["all", "local"])
@pytest.mark.parametrize(
    "case,size", KRAUS_ROUTE_CASES, ids=[f"{c}-{_size_id(s)}" for c, s in KRAUS_ROUTE_CASES]
)
def test_kraus_route_agrees_with_the_dense_path(case, size, g):
    for seed in (1, 2):
        a = _kraus_backed_assignment(case, size, seed)
        d_s, d_e = a.d_s, a.d_e
        rng = np.random.default_rng([seed, 7])
        (_, u), = labelled(sample_unitaries(g, 1, full_space(d_s, d_e), rng))
        psi, verdict = consistency.reduced_dynamics_verdict(a, u)
        traced = a.reduced()
        assert a.blocks is not None and a.trace_consistent
        assert "mat" not in vars(a)  # nothing above built the assignment matrix
        dense = reduced_dynamics(u, a.mat, d_s, d_e)
        assert np.abs(choi(psi) - choi(dense)).max() <= 1e-12
        assert verdict["cp"] == psd_check(choi(dense))[0]
        assert verdict["tp"] == is_tp_on_domain(dense, a.domain_projector)
        on_e = tr_e(a.mat, d_s, d_e)
        assert np.abs(traced.mat - on_e).max() <= 1e-12
        assert np.linalg.norm(on_e - a.domain_projector) <= 1e-8 * max(1, d_s)
        padded = padded_kraus(a.blocks, d_s, d_e, a.frame)
        kraus_mat = channels.channel_from_kraus(padded, d_s, d_s * d_e).mat
        assert np.abs(a.mat - kraus_mat).max() <= 1e-12


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-family", "--family", "factorized", "--ds", "8", "--de", "8", "--trials", "1"],
        [
            "theorem1", "--family", "markov-blocks", "--blocks", "2x2,2x2",
            "--de", "8", "--g", "local", "--trials", "1",
        ],
        ["verify-family", "--family", "markov-blocks", "--blocks", "2x2,2x2", "--de", "8",
         "--trials", "2"],
        ["verify-family", "--family", "steered", "--trials", "2"],
        ["verify-family", "--family", "classical-quantum", "--ds", "4", "--de", "4", "--trials", "2"],
        ["theorem1", "--family", "classical-quantum", "--ds", "4", "--de", "2", "--trials", "2"],
        ["theorem1", "--family", "full", "--ds", "2", "--de", "4", "--trials", "2"],
    ],
    ids=["cap-verify-family", "cap-theorem1", "markov-blocks", "steered", "classical-quantum",
         "theorem1-classical-quantum", "theorem1-full"],
)
def test_kraus_backed_reports_build_no_assignment_matrix(monkeypatch, argv):
    # The one block matrix built is the domain projector, on S (d_f = 1),
    # tr_e meets no (d^2, d_s^2) assignment matrix, and the dense
    # channels.reduced_dynamics is not called.
    on_s, traced, dense = [], [], []

    def block_mat(blocks, d_s, d_f, frame, _orig=consistency._block_mat):
        on_s.append(d_f == 1)
        return _orig(blocks, d_s, d_f, frame)

    def recording_tr_e(cols, d_s, d_e, u=None, _orig=tr_e):
        traced.append(np.shape(cols) == ((d_s * d_e) ** 2, d_s * d_s))
        return _orig(cols, d_s, d_e, u)

    monkeypatch.setattr(consistency, "_block_mat", block_mat)
    monkeypatch.setattr(channels, "reduced_dynamics", lambda *a: dense.append(a))
    for module in (consistency, channels, cli):
        monkeypatch.setattr(module, "tr_e", recording_tr_e)
    report, code = cli.run([*argv, "--seed", "1", "--out", os.devnull])
    assert code == 0
    assert on_s and all(on_s) and not any(traced) and not dense
