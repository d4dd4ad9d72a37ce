"""The per-trial oracles of ``verify-family`` and ``dpi``: one trial drawn
from its own stream and checked alone, with the unbatched primitives.  The
commands check their trials as stacks; every record they write must equal
these oracles' records for the same trial, bit for bit."""

import numpy as np

from cpdyn import channels, cli, consistency, families, info
from cpdyn.consistency import canonical_assignment, markov_block_space
from cpdyn.tensor import random_haar_unitaries

# Unitaries per chunk of the one-state hunt, a count independent of the
# command's entry bound.
DPI_CHUNK = 16


def verify_family_trial(args, trial: int) -> dict:
    rng = cli._trial_rng(args.seed, trial)
    # The assignment is built from the span of the widest family containing
    # the trial's members: steered sets take the layout of their Markov
    # state, kernel extensions their base.
    if args.family == "steered":
        mspec, spec = cli._steered_draw(args, rng)
        v = markov_block_space(mspec.layout)
    else:
        spec = cli._random_spec(args.family, args, rng)
        v = cli._family_span(spec)
    ds, de = spec.d_s, spec.d_e
    assign = canonical_assignment(v)
    if args.family == "markov-blocks":
        member = families.sample_member(spec, families.random_params(spec, rng))
    label, u = consistency.sample_unitaries(args.g, 1, ds, de, rng)[0]
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
        rec["structure_residual"] = families.structure_fit(member, spec.blocks, spec.omega_re, de)
    if args.family == "steered":
        member = families.sample_member(spec, families.random_params(spec, rng))
        rec["steered_in_span"] = bool(v.contains(member))
    return rec


def dpi_search(omega, d_a, d_s, d_e, rng, draws) -> dict:
    """The hunt on one state: ``DPI_CHUNK`` Haar unitaries drawn and checked
    at a time, the first of tied draws kept."""
    i_before = info._i_before(omega, d_a, d_s, d_e)
    best, best_draw = np.inf, -1
    for start in range(0, draws, DPI_CHUNK):
        us = random_haar_unitaries(min(DPI_CHUNK, draws - start), d_s * d_e, rng)
        deltas = i_before - info._i_after(omega, d_a, d_s, d_e, us)
        i = int(np.argmin(deltas))
        if deltas[i] < best:
            best, best_draw = float(deltas[i]), start + i
    return {"draws": draws, "best_delta": best, "best_draw": best_draw, "found": bool(best < -0.01)}


def dpi_state(args, trial: int) -> dict:
    rng = cli._trial_rng(args.seed, trial)
    mspec = families.random_markov_state_spec(args.da, args.blocks, args.de, rng)
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
