"""The per-trial oracles of ``verify-family`` and ``dpi``: one trial drawn
from its own ``default_rng([seed, trial])`` stream (``trial_rng``), one
draw at a time, and checked alone, with the unbatched primitives.  The
commands seed each stack's streams at once, draw each stream in runs and
check their trials as stacks; every record they write must equal these
oracles' records for the same trial, bit for bit.

The per-unitary oracles of ``theorem1``, ``consistency`` and ``demo``: all
``--trials`` unitaries drawn in one call, then checked one at a time.  The
commands draw and check them in ``consistency.sample_unitaries`` chunks;
every report they write must equal these oracles' reports, byte for byte
apart from ``wall_time_s``.

The padded Kraus route of a block-backed assignment: its operators
zero-padded to the full (n, d_s d_e, d_s) shape (``padded_kraus``) and
reduced by one product over all of S x E (``tr_e_kraus``), the oracle of
the block-by-block contraction of ``AssignmentMap.reduced``.

Also here: the samplers, the per-call unitary draws, the Kraus
construction, the evolve-then-trace data-processing term, and the product
and witness assignments that only tests call."""

import os

import numpy as np
import pytest

from cpdyn import channels, cli, consistency, families, info
from cpdyn.channels import ChannelMap, channel_from_kraus
from cpdyn.consistency import AssignmentMap, canonical_assignment, markov_block_space
from cpdyn.families import MarkovBlocksSpec, MarkovStateSpec
from cpdyn.tensor import (
    _transpose_last,
    haar_unitaries,
    is_hermitian,
    kron,
    normal_runs,
    partial_trace,
    random_density,
    random_haar_unitary,
    vec,
)

# Unitaries per chunk of the one-state hunt, a count independent of the
# command's entry bound.
DPI_CHUNK = 16


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The stream of one trial, ``default_rng([seed, trial])``: the oracle
    of ``tensor.trial_streams``."""
    return np.random.default_rng([seed, trial])


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_haar_unitaries(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """A ``(n, dim, dim)`` stack of Haar-random unitaries from one ``normal``
    call, each matrix's real part and then its imaginary part: ``n``
    successive ``random_haar_unitary`` draws."""
    return haar_unitaries(rng.normal(size=(n, 2, dim, dim)))


def tr_e_kraus(ops: np.ndarray, d_s: int, d_e: int, u: np.ndarray | None = None) -> np.ndarray:
    """Kraus stack of ``x -> Tr_E(U Lambda(x) U^dagger)`` for the
    ``(n, d, d_s)`` Kraus stack ``A`` of Lambda, ``d = d_s * d_e``.

    The operators are ``B_(k, e) = (I kron <e|) U A_k``, an
    ``(n d_e, d_s, d_s)`` stack; with ``u=None`` only the environment
    trace is applied.  The cost is one ``(d, d) x (d, n d_s)`` product, a
    reshape and a transpose; no ``(d^2, d_s^2)`` matrix is formed.
    Leading axes of ``ops`` and ``u`` are batch axes.
    """
    a = np.asarray(ops, dtype=complex)
    batch, n, d = a.shape[:-3], a.shape[-3], d_s * d_e
    if u is None:
        # A_k[(s, e), j] at [k, s, e, j], read as B[(k, e), s, j].
        t = a.reshape(batch + (n, d_s, d_e, d_s)).swapaxes(-3, -2)
    else:
        # (U A_k)[(s, e), j] at [(s, e), (k, j)], read as B[(k, e), s, j].
        ua = np.asarray(u, dtype=complex) @ a.swapaxes(-3, -2).reshape(batch + (d, n * d_s))
        batch = ua.shape[:-2]
        t = _transpose_last(ua.reshape(batch + (d_s, d_e, n, d_s)), 2, 1, 0, 3)
    return t.reshape(batch + (n * d_e, d_s, d_s))


def padded_kraus(blocks, d_s: int, d_f: int, frame=None) -> np.ndarray:
    """The (..., n, d_s d_f, d_s) Kraus stack of the block map of
    ``blocks`` (see ``consistency.AssignmentMap``), with ``d_f`` = d_E for
    an assignment and 1 for its domain projector: each operator I_L_i kron
    t on block i's rows and columns, zero off them, in the frame F as
    (F kron I) K F^dag."""
    batch = blocks[0][2].shape[:-3]
    n = sum(t.shape[-3] for _, _, t in blocks)
    k = np.zeros(batch + (n, d_s * d_f, d_s), dtype=complex)
    lo = 0
    for s, r, t in blocks:
        hi = lo + t.shape[-3]
        for a in range(s.start, s.stop, r):  # the l_i diagonal copies
            k[..., lo:hi, a * d_f : (a + r) * d_f, a : a + r] = t
        lo = hi
    if frame is not None:
        f = frame[..., None, :, :]
        fk = (k @ f.swapaxes(-1, -2).conj()).reshape(batch + (n, d_s, -1))
        k = (f @ fk).reshape(k.shape)
    return k


def padded_reduced(assign: AssignmentMap, u=None) -> ChannelMap:
    """``assign.reduced(u)`` of a block-backed assignment by the padded
    route: ``tr_e_kraus`` of its ``padded_kraus`` stack, then the Gram
    matrix of the result over all n d_E operators."""
    d_s, d_e = assign.d_s, assign.d_e
    ops = padded_kraus(assign.blocks, d_s, d_e, assign.frame)
    return channel_from_kraus(tr_e_kraus(ops, d_s, d_e, u), d_s, d_s)


def padded_domain_projector(v) -> np.ndarray:
    """The domain projector of a Markov-block span's canonical assignment
    by the padded route: the Gram matrix of its ``padded_kraus`` stack at
    d_f = 1."""
    return channel_from_kraus(padded_kraus(v._blocks(1), v.d_s, 1, v.frame), v.d_s, v.d_s).mat


def unitary_draws(g: str, d_s: int, d_e: int, rng: np.random.Generator) -> tuple:
    """The normal draws behind one unitary of the set named ``g``, one
    ``normal`` call per shape of ``consistency.unitary_shapes``."""
    return tuple(rng.normal(size=shape) for shape in consistency.unitary_shapes(g, d_s, d_e))


def evolve(omega_ase, d_a: int, d_s: int, d_e: int, u_se) -> np.ndarray:
    """Each state evolved by ``(I_A kron U) omega (I_A kron U)^dagger``, U
    acting on the S x E factor of every ``(a, a')`` block by batched matmul.
    A ``(..., n, n)`` stack of states and a ``(..., k, d, d)`` stack of
    unitaries give a ``(..., k, n, n)`` stack."""
    d = d_s * d_e
    omega_ase = np.asarray(omega_ase, dtype=complex)
    u_se = np.asarray(u_se, dtype=complex)
    batch = u_se.shape[:-2]
    # (I_A kron U) omega with rows (a, (s, e)), then times (I_A kron U)^dagger
    # with columns ((a', s'), e') read as rows of d entries.
    state = omega_ase.reshape(omega_ase.shape[:-2] + (1, d_a, d, d_a * d))
    left = u_se[..., None, :, :] @ state
    evolved = left.reshape(batch + (d_a * d * d_a, d)) @ u_se.conj().swapaxes(-1, -2)
    return evolved.reshape(batch + (d_a * d,) * 2)


def i_after(omega_ase, d_a: int, d_s: int, d_e: int, u_se) -> np.ndarray:
    """I(A:S) after each unitary, the slow way: the states ``evolve``d, then
    E traced out by ``partial_trace``."""
    evolved = evolve(omega_ase, d_a, d_s, d_e, u_se)
    after = partial_trace(evolved, (d_a, d_s, d_e), keep=(0, 1))
    return info.mutual_information(after, d_a, d_s)


def kraus_classical_quantum(
    u: np.ndarray, basis: np.ndarray, omegas, d_s: int, d_e: int
) -> np.ndarray:
    """Operator-sum construction for classical-quantum initial correlations.

    ``basis`` holds the fixed orthonormal system basis as columns; each
    basis state i carries its own fixed environment state omegas[i].  The
    Kraus operators, an ``(n, d_s, d_s)`` stack, are ``D_ikl P_i`` with P_i
    the basis projector and ``D_ikl = sqrt(lam_il) <k_E| U |mu_il>`` the
    ``kraus_factorized`` operators for omegas[i].
    """
    ops = []
    for i in range(d_s):
        b = basis[:, i]
        ops.append(channels.kraus_factorized(u, omegas[i], d_s, d_e) @ np.outer(b, b.conj()))
    return np.concatenate(ops)


def random_markov_state_spec(
    d_a: int, blocks, d_e: int, rng: np.random.Generator
) -> MarkovStateSpec:
    """Random Markov construction with full-rank block states, drawn in the
    order q, every omega_AL_i, every omega_RE_i."""
    blocks = tuple(tuple(b) for b in blocks)
    q = tuple(rng.dirichlet(np.ones(len(blocks))))
    omega_al = tuple(random_density(d_a * l, d_a * l, rng) for l, _ in blocks)
    omega_re = tuple(random_density(r * d_e, r * d_e, rng) for _, r in blocks)
    return MarkovStateSpec(d_a, q, omega_al, MarkovBlocksSpec(blocks, d_e, omega_re))


def trial_draws(args, rng: np.random.Generator) -> dict:
    """The draws of one ``verify-family`` trial, one call at a time, in
    stream order, with the entries of ``cli._stack_draws``."""
    ds, de, da = args.ds, args.de, args.da
    if args.family == "steered":
        mspec = random_markov_state_spec(da, args.blocks, de, rng)
        unitary = unitary_draws(args.g, ds, de, rng)
        spec = families.SteeredSpec(da, ds, de, families.build_markov_state(mspec))
        return {
            "q": mspec.q,
            "omega_al": mspec.omega_al,
            "omega_re": mspec.layout.omega_re,
            "unitary": unitary,
            "p_a": families.random_params(spec, rng).p_a,
        }
    draws = {"frame": random_haar_unitary(ds, rng) if args.family == "classical-quantum" else None}
    draws["omega_re"] = tuple(
        random_density(r * de, r * de, rng) for _, r in cli._layout(args.family, args)
    )
    draws["directions"] = None
    if args.family == "kernel-extended":
        d = ds * de
        n_dir = min(3, d * d - ds * ds)
        draws["directions"] = rng.normal(size=(d * d, n_dir)) + 1j * rng.normal(size=(d * d, n_dir))
    if args.family == "markov-blocks":
        params = families.random_params(MarkovBlocksSpec(args.blocks, de, draws["omega_re"]), rng)
        draws["probs"], draws["states"] = params.probs, params.states
    return {**draws, "unitary": unitary_draws(args.g, ds, de, rng)}


def verify_family_trial(args, trial: int) -> dict:
    draws = trial_draws(args, trial_rng(args.seed, trial))
    # The assignment is built from the span of the widest family containing
    # the trial's members: steered sets take the layout of their Markov
    # state, kernel extensions their base.
    if args.family == "steered":
        mspec, spec = cli._steered(args, draws["q"], draws["omega_al"], draws["omega_re"])
        v = markov_block_space(mspec.layout)
    else:
        spec = cli._spec_from(
            args.family, args, draws["frame"], draws["omega_re"], draws["directions"]
        )
        v = cli._family_span(spec)
    ds, de = spec.d_s, spec.d_e
    assign = canonical_assignment(v)
    label, u = consistency.unitaries_from_draws(args.g, draws["unitary"], ds, de)
    label = label if args.g == "swap" else f"{label}_0"
    psi, verdict = consistency.reduced_dynamics_verdict(assign, u)
    rec = {"trial": trial, "unitary": label, **verdict, "assignment_cp": bool(assign.cp)}
    if args.family == "factorized":
        # psi comes from the assignment's Kraus stack, which is kraus_factorized's
        # set here; the contraction of U and omega_E builds no Kraus operators.
        direct = channels.product_dynamics_choi(u, spec.omega_re[0], ds, de)
        rec["construction_choi_distance"] = float(np.linalg.norm(channels.choi(psi) - direct))
        k = channels.kraus_factorized(u, spec.omega_re[0], ds, de)
        rec["kraus_closure_error"] = float(
            np.linalg.norm(sum(e.conj().T @ e for e in k) - np.eye(ds))
        )
    if args.family == "markov-blocks":
        params = families.FamilyParams(draws["probs"], draws["states"])
        member = families.sample_member(spec, params)
        rec["structure_residual"] = families.structure_fit(member, spec.blocks, spec.omega_re, de)
    if args.family == "steered":
        member = families.sample_member(spec, families.FamilyParams(p_a=draws["p_a"]))
        rec["steered_in_span"] = bool(v.contains(member))
    return rec


def dpi_search(omega, d_a, d_s, d_e, rng, draws) -> dict:
    """The hunt on one state: ``DPI_CHUNK`` Haar unitaries drawn and checked
    at a time, the first of tied draws kept."""
    i_before = info._cmi_and_i_before(omega, d_a, d_s, d_e)[1]
    best, best_draw = np.inf, -1
    for start in range(0, draws, DPI_CHUNK):
        us = random_haar_unitaries(min(DPI_CHUNK, draws - start), d_s * d_e, rng)
        deltas = i_before - info._i_after(omega, d_a, d_s, d_e, us)
        i = int(np.argmin(deltas))
        if deltas[i] < best:
            best, best_draw = float(deltas[i]), start + i
    return {"draws": draws, "best_delta": best, "best_draw": best_draw, "found": bool(best < -0.01)}


def dpi_state(args, trial: int) -> dict:
    rng = trial_rng(args.seed, trial)
    mspec = random_markov_state_spec(args.da, args.blocks, args.de, rng)
    omega = families.build_markov_state(mspec)
    d_s = mspec.layout.d_s
    cmi = info.conditional_mutual_information(omega, args.da, d_s, args.de)
    worst = dpi_search(omega, args.da, d_s, args.de, rng, args.unitaries_per_state)["best_delta"]
    return {"trial": trial, "cmi": cmi, "worst_delta": worst}


def dpi_report(args) -> dict:
    """The trials and summary of a ``dpi`` report, one state at a time."""
    trials = [dpi_state(args, t) for t in range(args.trials)]
    worst_delta = min(t["worst_delta"] for t in trials)
    ghz = cli.ghz_state(args.da, args.ds, args.de)
    shift = cli.ghz_inverse_shift(args.ds, args.de)[None]
    shift_delta = float(info.dpi_check(ghz, args.da, args.ds, args.de, shift)[0])
    hunt = dpi_search(
        ghz, args.da, args.ds, args.de, np.random.default_rng(args.seed), args.search_draws
    )
    summary = {
        "pass": bool(worst_delta >= -args.tol and shift_delta < -0.01),
        "ghz_shift_delta": shift_delta,
        "markov_worst_delta": worst_delta,
        "markov_worst_cmi": max(abs(t["cmi"]) for t in trials),
        "non_markov_search": hunt,
    }
    return {"trials": trials, "summary": summary}


def one_call_draw(g: str, n: int, d_s: int, d_e: int, rng) -> list[tuple[str, np.ndarray]]:
    """``n`` labelled unitaries of the set named ``g`` (the one swap for
    ``"swap"``), the normal draws of all of them from one ``normal`` call
    and one QR: the draw that the chunks of ``consistency.sample_unitaries``
    must concatenate to."""
    draws = normal_runs(rng, *[consistency.unitary_shapes(g, d_s, d_e)] * n)
    stem, us = consistency.unitaries_from_draws(g, tuple(map(np.stack, zip(*draws))), d_s, d_e)
    return [(stem, us)] if g == "swap" else [(f"{stem}_{i}", u) for i, u in enumerate(us)]


def labelled(chunks) -> list[tuple[str, np.ndarray]]:
    """The ``(label, unitary)`` pairs of ``(labels, stack)`` chunks, in order."""
    return [pair for labels, us in chunks for pair in zip(labels, us)]


def theorem1_verify(v, g, unitaries, assignment=None, tol=consistency.CONSISTENCY_TOL) -> dict:
    """``consistency.theorem1_verify`` over ``(label, unitary)`` pairs, one
    unitary at a time."""
    assign = canonical_assignment(v) if assignment is None else assignment
    per_u = []
    for label, u in unitaries:
        _, verdict = consistency.reduced_dynamics_verdict(assign, u)
        deviation = float(consistency.u_consistency_violation(v, u))
        per_u.append({"unitary": label, **verdict, "perturbation_deviation": deviation})
    checked = consistency.g_consistency_report(
        v, g, [rec["perturbation_deviation"] for rec in per_u], tol
    )
    premises = bool(checked["consistent"]) and bool(assign.cp)
    conclusion = all(rec["cp"] for rec in per_u) and checked["worst_violation"] <= tol
    return {
        "dim_v": v.dim,
        "dim_v0": checked["dim_v0"],
        "consistency": checked,
        "assignment": {
            "trace_consistent": bool(assign.trace_consistent),
            "hermitian": bool(assign.hermitian),
            "cp": bool(assign.cp),
        },
        "per_unitary": per_u,
        "premises_hold": premises,
        "conclusion_holds": conclusion,
        "passed": (not premises) or conclusion,
    }


def _subspace_and_draw(args):
    """A ``consistency`` or ``theorem1`` report's subspace, then its
    unitaries in one draw, from the seed's stream."""
    args.ds = cli._system_dim(args)
    rng = np.random.default_rng(args.seed)
    v = cli._build_subspace(args, rng)
    return v, one_call_draw(args.g, args.trials, v.d_s, v.d_e, rng)


def theorem1_report(args) -> dict:
    """The trials, theorem and summary of a ``theorem1`` report, one
    unitary at a time."""
    v, drawn = _subspace_and_draw(args)
    report = theorem1_verify(v, args.g, drawn, tol=args.tol)
    summary = {
        "pass": bool(report["passed"]),
        **cli._outcome(report),
        "dim_v": report["dim_v"],
        "dim_v0": report["dim_v0"],
        "premises_hold": report["premises_hold"],
        "worst_min_choi_eigenvalue": min(
            (r["min_choi_eigenvalue"] for r in report["per_unitary"]), default=0.0
        ),
    }
    return {"trials": report["per_unitary"], "theorem": report, "summary": summary}


def consistency_report(args) -> dict:
    """The trials and summary of a ``consistency`` report, one unitary at a
    time."""
    v, drawn = _subspace_and_draw(args)
    violations = [float(consistency.u_consistency_violation(v, u)) for _, u in drawn]
    report = consistency.g_consistency_report(v, args.g, violations, args.tol)
    trials = [
        {"trial": i, "unitary": label, "violation": x}
        for i, ((label, _), x) in enumerate(zip(drawn[:10], violations))
    ]
    summary = {
        "pass": bool(report["consistent"]),
        "dim_v": v.dim,
        "dim_v0": report["dim_v0"],
        "worst_violation": report["worst_violation"],
        "exact": report["exact"],
    }
    return {"trials": trials, "summary": summary}


def demo_report(argv) -> dict:
    """The report of ``cli.run(argv)`` for a ``demo``, its unitaries drawn
    in one call and checked one at a time by ``theorem1_verify`` above."""

    def draw(g, n, v, rng):
        pairs = one_call_draw(g, n, v.d_s, v.d_e, rng)
        return [([label for label, _ in pairs], np.stack([u for _, u in pairs]))]

    def verify(v, g, chunks, **kwargs):
        return theorem1_verify(v, g, labelled(chunks), **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(consistency, "sample_unitaries", draw)
        mp.setattr(cli, "theorem1_verify", verify)
        report, _ = cli.run([*argv, "--out", os.devnull])
    return report


def product_assignment_matrix(omega_e: np.ndarray, d_s: int) -> np.ndarray:
    """Matrix of the product assignment x -> x kron omega_E."""
    omega_e = np.asarray(omega_e, dtype=complex)
    d_e = omega_e.shape[0]
    eye = np.eye(d_s)
    # Row (s, e, t, f), column (i, j): <s|i> omega_E[e, f] <j|t>.
    m = np.einsum("si,tj,ef->setfij", eye, eye, omega_e)
    return m.reshape((d_s * d_e) ** 2, d_s * d_s)


def witness_assignment(
    omega_e: np.ndarray, delta_e: np.ndarray, gamma: float, d_s: int
) -> AssignmentMap:
    """Hermitian, trace-consistent assignment on all of L(H_S) that departs
    from CP-ness.

    x -> x kron omega_E + gamma * (x - tr(x) I/d_S) kron Delta with Delta a
    fixed traceless Hermitian environment direction; trace consistency
    holds for every gamma.  The Choi matrix is |Omega><Omega| kron
    (omega_E + gamma Delta) - (gamma/d_S) I kron Delta, with Omega the
    unnormalized maximally entangled vector.  On Omega-perp kron E it
    equals -(gamma/d_S) Delta, whose least eigenvalue
    -gamma lambda_max(Delta)/d_S is negative for every gamma > 0 once
    d_S >= 2 and Delta != 0 (a nonzero traceless Hermitian Delta has a
    positive eigenvalue), whatever omega_E is.  So the CP threshold is
    gamma = 0 in closed form; for d_S = 1 or Delta = 0 the perturbation
    vanishes and the map is CP for every gamma.
    """
    delta_e = np.asarray(delta_e, dtype=complex)
    if abs(np.trace(delta_e)) > 1e-10 or not is_hermitian(delta_e):
        raise ValueError("Delta must be traceless Hermitian")
    d_e = omega_e.shape[0]
    base = product_assignment_matrix(omega_e, d_s)
    # x -> (x - tr(x) I/d_S) kron Delta, with tr(x) = vec(I) . vec(x).
    eye = np.eye(d_s)
    pert = product_assignment_matrix(delta_e, d_s)
    pert -= np.outer(vec(kron(eye, delta_e)), vec(eye)) / d_s
    return AssignmentMap(d_s, d_e, base + gamma * pert, np.eye(d_s * d_s, dtype=complex))
