"""The per-trial oracle of ``verify-family``: one trial drawn from its own
stream and checked alone, with the unbatched primitives.  The command
checks its trials as stacks; every record it writes must equal this
oracle's record for the same trial, bit for bit."""

import numpy as np

from cpdyn import channels, cli, consistency, families
from cpdyn.consistency import canonical_assignment, markov_block_space


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
