"""End-to-end acceptance suite.

Each test covers one headline guarantee of the package at its stated
tolerance and prints a single PASS/FAIL line; the whole module is designed
to run in well under two minutes.
"""

import json
import time

import numpy as np

from cpdyn import channels, consistency, families, info
from cpdyn.channels import (
    channel_from_kraus,
    choi,
    choi_distance,
    is_cp,
    kraus_classical_quantum,
    kraus_factorized,
    product_assignment_matrix,
    reduced_dynamics,
    trace_out_env_matrix,
)
from cpdyn.cli import ghz_state, run as cli_run
from cpdyn.consistency import (
    canonical_assignment,
    full_space,
    kernel_tr_e,
    span_from_states,
    witness_assignment,
)
from cpdyn.tensor import (
    dagger,
    kron,
    min_eigenvalue,
    partial_trace,
    random_density,
    random_haar_unitaries,
    random_haar_unitary,
    random_hermitian,
    tr_e,
)

BLOCKS = ((1, 2), (2, 1))


def report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def markov_spec(rng, blocks=BLOCKS, d_e=2):
    return families.MarkovBlocksSpec(
        blocks, d_e, tuple(random_density(r * d_e, r * d_e, rng) for _, r in blocks)
    )


def family_span(spec, rng):
    d_s, d_e = spec.d_s, spec.d_e
    members = [
        families.sample_member(spec, families.random_params(spec, rng))
        for _ in range(d_s * d_s + 2)
    ]
    return span_from_states(members, d_s, d_e)


def test_acceptance_1_factorized_reduction_is_cp():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst_eig = 0.0
    worst_closure = 0.0
    worst_dist = 0.0
    for trial in range(200):
        d = 2 if trial % 2 == 0 else 3
        omega = random_density(d, d, rng)
        u = random_haar_unitary(d * d, rng)
        psi = reduced_dynamics(u, product_assignment_matrix(omega, d), d, d)
        ch = choi(psi)
        worst_eig = min(worst_eig, min_eigenvalue((ch + dagger(ch)) / 2))
        k = kraus_factorized(u, omega, d, d)
        worst_closure = max(
            worst_closure, float(np.linalg.norm(k.closure() - np.eye(d)))
        )
        worst_dist = max(worst_dist, choi_distance(channel_from_kraus(k, d, d), psi))
    elapsed = time.monotonic() - start
    report(
        "acceptance 1: factorized-family reduced dynamics is CP",
        worst_eig >= -1e-9
        and worst_closure <= 1e-10
        and worst_dist <= 1e-9
        and elapsed < 10.0,
        f"min eig {worst_eig:.2e}, closure {worst_closure:.2e}, "
        f"dist {worst_dist:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_2_classical_quantum_construction_agrees():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        d_s = d_e = 2
        basis = random_haar_unitary(d_s, rng)
        omegas = [random_density(d_e, d_e, rng) for _ in range(d_s)]
        u = random_haar_unitary(d_s * d_e, rng)
        k = kraus_classical_quantum(u, basis, omegas, d_s, d_e)
        p = rng.dirichlet(np.ones(d_s))
        rho = sum(
            p[i] * np.outer(basis[:, i], basis[:, i].conj()) for i in range(d_s)
        )
        joint = sum(
            p[i] * kron(np.outer(basis[:, i], basis[:, i].conj()), omegas[i])
            for i in range(d_s)
        )
        direct = partial_trace(u @ joint @ u.conj().T, (d_s, d_e), keep=(0,))
        worst = max(worst, float(np.linalg.norm(k.apply(rho) - direct)))
    report(
        "acceptance 2: classical-quantum operator-sum matches reduced dynamics",
        worst <= 1e-10,
        f"max deviation {worst:.2e}",
    )


def test_acceptance_3_markov_block_reduction_is_cp():
    rng = np.random.default_rng(103)
    n_cp = 0
    for _ in range(100):
        spec = markov_spec(rng)
        v = family_span(spec, rng)
        assign = canonical_assignment(v)
        u = random_haar_unitary(spec.d_s * spec.d_e, rng)
        psi = reduced_dynamics(u, assign.mat, spec.d_s, spec.d_e)
        if assign.cp and is_cp(choi(psi)):
            n_cp += 1
    report(
        "acceptance 3: block-family reduced dynamics is CP for arbitrary unitaries",
        n_cp == 100,
        f"{n_cp}/100 trials CP",
    )


def test_acceptance_4_steered_states_keep_block_structure():
    rng = np.random.default_rng(104)
    worst_res = 0.0
    worst_cmi = 0.0
    for _ in range(100):
        mspec = families.random_markov_state_spec(2, BLOCKS, 2, rng)
        omega = families.build_markov_state(mspec)
        worst_cmi = max(
            worst_cmi,
            abs(info.conditional_mutual_information(omega, 2, mspec.d_s, 2)),
        )
        p_a = random_density(2, 2, rng) * 2 + 0.1 * np.eye(2)  # strictly positive
        steered = families.steer(omega, 2, p_a)
        fit = families.structure_fit(steered, mspec.blocks, mspec.omega_re, 2)
        worst_res = max(worst_res, fit.residual)
    report(
        "acceptance 4: steering preserves the block structure, Markov CMI vanishes",
        worst_res <= 1e-9 and worst_cmi <= 1e-9,
        f"max residual {worst_res:.2e}, max CMI {worst_cmi:.2e}",
    )


def test_acceptance_5_data_processing_inequality():
    rng = np.random.default_rng(105)
    worst_delta = np.inf
    for _ in range(100):
        mspec = families.random_markov_state_spec(2, BLOCKS, 2, rng)
        omega = families.build_markov_state(mspec)
        us = random_haar_unitaries(10, mspec.d_s * 2, rng)
        worst_delta = min(worst_delta, info.dpi_check(omega, 2, mspec.d_s, 2, us).min())
    hunt = info.search_dpi_violation(
        ghz_state(), 2, 2, 2, np.random.default_rng(1055), draws=500
    )
    report(
        "acceptance 5: mutual information never increases on Markov inputs, "
        "violation found on the non-Markov fixture",
        worst_delta >= -1e-9 and hunt["found"] and hunt["best_delta"] < -0.01,
        f"markov worst delta {worst_delta:.2e}, "
        f"fixture best delta {hunt['best_delta']:.3f} at draw {hunt['best_draw']}",
    )


def test_acceptance_6_kernel_dimension_arithmetic():
    rng = np.random.default_rng(106)
    d_s = d_e = 2
    t = trace_out_env_matrix(d_s, d_e)
    ok = True
    for _ in range(50):
        n = int(rng.integers(1, 17))
        states = [random_hermitian(d_s * d_e, rng) for _ in range(n)]
        v = span_from_states(states, d_s, d_e)
        v0 = kernel_tr_e(v)
        rank = np.linalg.matrix_rank(t @ v.basis, tol=1e-9)
        ok = ok and v.dim == v0.dim + rank
    full_kernel = kernel_tr_e(full_space(2, 2)).dim
    report(
        "acceptance 6: kernel dimensions satisfy rank-nullity, "
        "full-space kernel has dimension 12",
        ok and full_kernel == 12,
        f"full-space kernel dim {full_kernel}",
    )


def test_acceptance_7_demo_scenarios_reproducible():
    def strip(rep):
        out = json.loads(json.dumps(rep))
        out.pop("wall_time_s")
        return json.dumps(out, sort_keys=True)

    r1a, c1a = cli_run(["demo", "1", "--seed", "77", "--out", "/dev/null"])
    r1b, _ = cli_run(["demo", "1", "--seed", "77", "--out", "/dev/null"])
    r2a, c2a = cli_run(["demo", "2", "--seed", "77", "--out", "/dev/null"])
    r2b, _ = cli_run(["demo", "2", "--seed", "77", "--out", "/dev/null"])
    identical = strip(r1a) == strip(r1b) and strip(r2a) == strip(r2b)
    pert = max(
        r1a["summary"]["worst_perturbation_deviation"],
        r2a["summary"]["worst_perturbation_deviation"],
    )
    dims_ok = r1a["summary"]["dim_v0"] == 9 and r2a["summary"]["dim_v0"] == 12
    report(
        "acceptance 7: both demo scenarios give CP dynamics, perturbation "
        "invariance, documented kernel dimensions and reproducible reports",
        c1a == 0 and c2a == 0 and identical and pert <= 1e-9 and dims_ok,
        f"worst perturbation deviation {pert:.2e}, "
        f"kernel dims {r1a['summary']['dim_v0']}/{r2a['summary']['dim_v0']}",
    )


def test_acceptance_8_non_cp_assignment_is_detected():
    rng = np.random.default_rng(108)
    omega = np.diag([0.7, 0.3]).astype(complex)
    delta = np.diag([1.0, -1.0]).astype(complex)
    # The witness is not CP for any gamma > 0 at d_S = 2 (closed form, see
    # witness_assignment), so gamma = 2 is past its threshold.
    gamma = 2.0
    assign = witness_assignment(omega, delta, gamma, 2)
    best = 0.0
    for _ in range(60):
        u = random_haar_unitary(4, rng)
        psi = reduced_dynamics(u, assign.mat, 2, 2)
        ch = choi(psi)
        best = min(best, min_eigenvalue((ch + dagger(ch)) / 2))
        if best <= -0.01:
            break
    report(
        "acceptance 8: a witness assignment past its CP threshold produces "
        "detectably non-CP reduced dynamics",
        not assign.cp and best <= -0.01,
        f"best min Choi eigenvalue {best:.3f}",
    )


def test_acceptance_9_assignments_fix_their_domain():
    rng = np.random.default_rng(109)
    specs = [
        markov_spec(rng, ((2, 1),)),  # factorized: rho_S kron omega_E
        families.ClassicalQuantumSpec(
            random_haar_unitary(2, rng),
            (random_density(2, 2, rng), random_density(2, 2, rng)),
        ),
        markov_spec(rng, ((1, 1), (2, 1))),  # a direct sum of factorized blocks
        markov_spec(rng, ((1, 2), (2, 1))),  # a fixed S x E block, then a factorized one
        markov_spec(rng, ((2, 2), (1, 1))),
    ]
    worst = 0.0
    for spec in specs:
        v = family_span(spec, rng)
        assign = canonical_assignment(v)
        samples = [
            partial_trace(
                families.sample_member(spec, families.random_params(spec, rng)),
                (spec.d_s, spec.d_e),
                keep=(0,),
            )
            for _ in range(100)
        ]
        rhos = np.column_stack([rho.reshape(-1) for rho in samples])
        fixed = tr_e(assign.mat @ rhos, spec.d_s, spec.d_e)
        worst = max(worst, float(np.linalg.norm(fixed - rhos, axis=0).max()))
    report(
        "acceptance 9: canonical assignments return every domain state unchanged",
        worst <= 1e-10,
        f"max deviation {worst:.2e}",
    )
