"""Command-line harness: seeded verification sweeps with JSON reports.

Subcommands:

* ``verify-family`` — sample a family and unitaries, verify CP/TP of the
  reduced dynamics per trial;
* ``consistency``   — subspace dimensions and per-unitary consistency;
* ``theorem1``      — the full subspace/assignment/perturbation check;
* ``dpi``           — data-processing sweeps over Markov states plus a
  fixed violation on a non-Markov fixture (a random hunt is reported too);
* ``demo``          — the two worked swap / local-product scenarios.

Reports are deterministic functions of (command, config, seed) except for
the ``wall_time_s`` field.  ``verify-family`` and ``dpi`` trials draw from
RNG streams seeded with the pair ``[seed, trial_index]``; ``consistency``,
``theorem1`` and ``demo`` draw their unitaries once, from the seed's stream.
Exit code is 0 iff the summary pass flag is set.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import channels, consistency, families, info
from .consistency import (
    canonical_assignment,
    full_space,
    kernel_tr_e,
    perturb_assignment,
    span_from_states,
    subspace_from_constraint,
    theorem1_verify,
)
from .tensor import psd_check, random_density, random_haar_unitary, tr_e, vec

SCHEMA_VERSION = 1
MAX_TOTAL_DIM = 64
# --tol below this is rejected: ||M_U||_HS carries rounding of about 1e-14
# at the dimension cap, on a kernel basis and in the full space's closed form
# alike, which a smaller tolerance would report as a counterexample.
TOL_FLOOR = 1e-12
SEED_ENV_VAR = "CPDYN_SEED"
DEFAULT_SEED = 2024

# Families whose system dimension comes from the block layout.
BLOCK_FAMILIES = (
    "direct-sum",
    "mixed-direct-sum",
    "markov-blocks",
    "steered",
    "kernel-extended",
)
FAMILY_CHOICES = ("factorized", "classical-quantum") + BLOCK_FAMILIES


def _parse_blocks(text: str) -> tuple[tuple[int, int], ...]:
    """Parse a block layout like '1x2,2x1' into ((1, 2), (2, 1))."""
    try:
        blocks = tuple(
            tuple(int(p) for p in part.split("x")) for part in text.split(",")
        )
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad block layout {text!r}") from None
    if any(len(b) != 2 or b[0] < 1 or b[1] < 1 for b in blocks):
        raise argparse.ArgumentTypeError(f"bad block layout {text!r}")
    return blocks


def _tolerance(text: str) -> float:
    value = float(text)
    if not value >= TOL_FLOOR:
        raise argparse.ArgumentTypeError(
            f"must be at least {TOL_FLOOR:g}, the rounding floor, got {text!r}"
        )
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def _default_g(args) -> str:
    """Unitary set when ``--g`` is not given: local products for
    ``verify-family --family kernel-extended``, whose kernel freedom
    arbitrary unitaries would void, and all unitaries otherwise."""
    if args.command == "verify-family" and args.family == "kernel-extended":
        return "local"
    return "all"


def _check_swap(g: str, d_s: int, d_e: int):
    if g == "swap" and d_s != d_e:
        raise SystemExit("error: --g swap needs equal system and environment dimensions")


def _check_dims(*dims: int):
    total = 1
    for d in dims:
        if d < 1:
            raise SystemExit(f"error: dimensions must be >= 1, got {d}")
        total *= d
    if total > MAX_TOTAL_DIM:
        raise SystemExit(
            f"error: total dimension {total} exceeds the hard cap {MAX_TOTAL_DIM}"
        )


def _steered_draw(args, rng: np.random.Generator):
    """A random Markov state spec and the steered family of its state."""
    mspec = families.random_markov_state_spec(args.da, args.blocks, args.de, rng)
    state = families.build_markov_state(mspec)
    return mspec, families.SteeredSpec(args.da, mspec.d_s, args.de, state)


def _layout(family: str, args) -> tuple[tuple[int, int], ...]:
    """The Markov block layout (l_i, r_i) of a block family: factorized is
    the one block (d_s, 1) and direct-sum has blocks (d_i, 1), with d_i the
    sizes of ``--blocks``; mixed-direct-sum holds a fixed S x E state in
    each of its first max(1, m // 2) blocks, as (1, d_i), and is a direct
    sum after them."""
    if family == "factorized":
        return ((args.ds, 1),)
    dims = [l * r for l, r in args.blocks]
    if family == "direct-sum":
        return tuple((d, 1) for d in dims)
    if family == "mixed-direct-sum":
        m_prime = max(1, len(dims) // 2)
        return tuple((1, d) for d in dims[:m_prime]) + tuple((d, 1) for d in dims[m_prime:])
    if family in ("markov-blocks", "kernel-extended"):
        return args.blocks
    raise ValueError(f"unknown family {family!r}")


def _random_spec(family: str, args, rng: np.random.Generator):
    ds, de = args.ds, args.de
    if family == "classical-quantum":
        return families.ClassicalQuantumSpec(
            random_haar_unitary(ds, rng),
            tuple(random_density(de, de, rng) for _ in range(ds)),
        )
    if family == "steered":
        return _steered_draw(args, rng)[1]
    layout = _layout(family, args)
    spec = families.MarkovBlocksSpec(
        layout, de, tuple(random_density(r * de, r * de, rng) for _, r in layout)
    )
    if family != "kernel-extended":
        return spec
    # Gaussian directions projected onto ker Tr_E, X - Tr_E(X) kron I/d_E:
    # Tr_E is a co-isometry up to the factor d_E, so this is the
    # orthogonal projection, and no kernel basis is built.
    d = ds * de
    n_dir = min(3, d * d - ds * ds)
    x = rng.normal(size=(d * d, n_dir)) + 1j * rng.normal(size=(d * d, n_dir))
    t = tr_e(x, ds, de).reshape(ds, ds, n_dir)
    x -= np.einsum("abk,ef->aebfk", t, np.eye(de) / de).reshape(d * d, n_dir)
    return families.KernelExtendedSpec(spec, np.linalg.qr(x)[0])


def _family_span(spec):
    """V from the linear generators of a family; a kernel-extended family
    takes the span of its base."""
    base = spec.base if isinstance(spec, families.KernelExtendedSpec) else spec
    return span_from_states(families.span_generators(base), spec.d_s, spec.d_e)


def _verify_family_trial(args, trial: int) -> dict:
    rng = _trial_rng(args.seed, trial)
    # The assignment is built from the span of the widest family containing
    # the trial's members: steered sets reuse their underlying block family,
    # kernel extensions reuse their base.
    if args.family == "steered":
        mspec, spec = _steered_draw(args, rng)
        v = _family_span(families.MarkovBlocksSpec(args.blocks, args.de, mspec.omega_re))
    else:
        spec = _random_spec(args.family, args, rng)
        v = _family_span(spec)
    ds, de = spec.d_s, spec.d_e
    assign = canonical_assignment(v)
    if args.family == "markov-blocks":
        member = families.sample_member(spec, families.random_params(spec, rng))
    label, u = consistency.sample_unitaries(args.g, 1, ds, de, rng)[0]
    psi = channels.reduced_dynamics(u, assign.mat, ds, de)
    cp, min_eig = psd_check(channels.choi(psi))
    rec = {
        "trial": trial,
        "unitary": label,
        "cp": cp,
        "tp": bool(channels.is_tp_on_domain(psi, assign.domain_projector)),
        "min_choi_eigenvalue": min_eig,
        "assignment_cp": bool(assign.cp),
    }
    if args.family == "factorized":
        k = channels.kraus_factorized(u, spec.omega_re[0], ds, de)
        direct = channels.channel_from_kraus(k, ds, ds)
        rec["construction_choi_distance"] = channels.choi_distance(psi, direct)
        rec["kraus_closure_error"] = float(
            np.linalg.norm(k.closure() - np.eye(ds))
        )
    if args.family == "markov-blocks":
        fit = families.structure_fit(member, spec.blocks, spec.omega_re, de)
        rec["structure_residual"] = fit.residual
    if args.family == "steered":
        member = families.sample_member(spec, families.random_params(spec, rng))
        rec["steered_in_span"] = bool(v.contains(member))
    return rec


def _system_dim(args) -> int:
    """System dimension a command runs at: block families take it from
    ``--blocks``, the others from ``--ds``."""
    if args.family in BLOCK_FAMILIES:
        return sum(l * r for l, r in args.blocks)
    return args.ds


def _check_family_dims(args):
    """Check S x E and, for the steered family, whose members are drawn
    from a state on A x S x E, that state's dimensions too."""
    _check_dims(args.ds, args.de)
    if args.family == "steered":
        _check_dims(args.da, args.ds, args.de)


def cmd_verify_family(args) -> dict:
    ds = args.ds = _system_dim(args)
    _check_family_dims(args)
    _check_swap(args.g, ds, args.de)
    if args.family == "kernel-extended" and args.g == "all":
        raise SystemExit(
            "error: --g all voids the kernel freedom of kernel-extended; use --g local or swap"
        )
    trials = [_verify_family_trial(args, t) for t in range(args.trials)]
    ok = [t["cp"] and t["tp"] for t in trials]
    summary = {
        "pass": all(ok),
        "n_trials": len(trials),
        "n_pass": sum(ok),
        "worst_min_choi_eigenvalue": min(t["min_choi_eigenvalue"] for t in trials),
        "worst_residual": max(
            (t.get("construction_choi_distance", 0.0) for t in trials), default=0.0
        ),
    }
    return {"trials": trials, "summary": summary}


def _build_subspace(args, rng: np.random.Generator):
    ds, de = args.ds, args.de
    if args.family == "full":
        return full_space(ds, de)
    if args.family == "random":
        states = [random_density(ds * de, ds * de, rng) for _ in range(args.span_states)]
        return span_from_states(states, ds, de)
    return _family_span(_random_spec(args.family, args, rng))


def cmd_consistency(args) -> dict:
    args.ds = _system_dim(args)
    _check_family_dims(args)
    rng = np.random.default_rng(args.seed)
    v = _build_subspace(args, rng)
    _check_swap(args.g, v.d_s, v.d_e)
    unitaries = consistency.sample_unitaries(args.g, args.trials, v.d_s, v.d_e, rng)
    violations = [consistency.u_consistency_violation(v, u) for _, u in unitaries]
    report = consistency.g_consistency_report(v, args.g, violations, args.tol)
    trials = [
        {"trial": i, "unitary": label, "violation": x}
        for i, ((label, _), x) in enumerate(zip(unitaries[:10], violations))
    ]
    summary = {
        "pass": bool(report["consistent"]),
        "dim_v": v.dim,
        "dim_v0": report["dim_v0"],
        "worst_violation": report["worst_violation"],
        "exact": report["exact"],
    }
    return {"trials": trials, "summary": summary}


def cmd_theorem1(args) -> dict:
    args.ds = _system_dim(args)
    _check_family_dims(args)
    rng = np.random.default_rng(args.seed)
    v = _build_subspace(args, rng)
    _check_swap(args.g, v.d_s, v.d_e)
    unitaries = consistency.sample_unitaries(args.g, args.trials, v.d_s, v.d_e, rng)
    report = theorem1_verify(v, args.g, unitaries, tol=args.tol)
    summary = {
        "pass": bool(report["passed"]),
        "dim_v": report["dim_v"],
        "dim_v0": report["dim_v0"],
        "premises_hold": report["premises_hold"],
        "worst_min_choi_eigenvalue": min(
            (r["min_choi_eigenvalue"] for r in report["per_unitary"]), default=0.0
        ),
    }
    return {"trials": report["per_unitary"], "theorem": report, "summary": summary}


def ghz_state(d_a: int = 2, d_s: int = 2, d_e: int = 2) -> np.ndarray:
    """Tripartite GHZ-type pure state; deliberately not Markov."""
    dim = d_a * d_s * d_e
    psi = np.zeros(dim, dtype=complex)
    k = min(d_a, d_s, d_e)
    for i in range(k):
        psi[(i * d_s + i) * d_e + i] = 1.0
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def ghz_inverse_shift(d_s: int, d_e: int) -> np.ndarray:
    """Controlled inverse shift |s, e> -> |s, (e - s) mod d_e> on S x E.

    On ``ghz_state`` with k = min(d_a, d_s, d_e) terms it maps |i, i, i> to
    |i, i, 0>: E decouples and A:S turns from classically correlated
    (I = ln k) to maximally entangled (I = 2 ln k), so the data-processing
    delta is -ln k.  That is the bound: mutual information is non-negative,
    so no unitary on S x E takes I(A:S) = ln k lower, and the random hunt
    can find no violation this shift misses.
    """
    d = d_s * d_e
    s, e = np.divmod(np.arange(d), d_e)
    u = np.zeros((d, d), dtype=complex)
    u[s * d_e + (e - s) % d_e, np.arange(d)] = 1.0
    return u


def cmd_dpi(args) -> dict:
    # The GHZ fixture runs at --ds, the Markov states at the --blocks size.
    _check_dims(args.da, args.ds, args.de)
    _check_dims(args.da, sum(l * r for l, r in args.blocks), args.de)
    trials = []
    worst_delta = np.inf
    worst_cmi = 0.0
    for t in range(args.trials):
        rng = _trial_rng(args.seed, t)
        mspec = families.random_markov_state_spec(args.da, args.blocks, args.de, rng)
        omega = families.build_markov_state(mspec)
        cmi = info.conditional_mutual_information(omega, args.da, mspec.d_s, args.de)
        worst = info.search_dpi_violation(
            omega, args.da, mspec.d_s, args.de, rng, draws=args.unitaries_per_state
        )["best_delta"]
        worst_delta = min(worst_delta, worst)
        worst_cmi = max(worst_cmi, abs(cmi))
        trials.append({"trial": t, "cmi": cmi, "worst_delta": worst})
    ghz = ghz_state(args.da, args.ds, args.de)
    shift = ghz_inverse_shift(args.ds, args.de)[None]
    shift_delta = float(info.dpi_check(ghz, args.da, args.ds, args.de, shift)[0])
    hunt = info.search_dpi_violation(
        ghz, args.da, args.ds, args.de, np.random.default_rng(args.seed), draws=args.search_draws
    )
    summary = {
        "pass": bool(worst_delta >= -args.tol and shift_delta < -0.01),
        "ghz_shift_delta": shift_delta,
        "markov_worst_delta": float(worst_delta),
        "markov_worst_cmi": float(worst_cmi),
        "non_markov_search": hunt,
    }
    return {"trials": trials, "summary": summary}


def demo1_constraint(omega_e: np.ndarray, d_s: int) -> np.ndarray:
    """Matrix of X -> Tr_S X - tr(X) omega_E on vectorized operators of
    S x E; its null space is demo 1's subspace."""
    d_e = omega_e.shape[0]
    d = d_s * d_e
    # Row (e, g), column ((s, f), (t, h)) holds delta_ef delta_gh delta_st:
    # Tr_S keeps the environment indices and sums over s = t.
    eye_e, eye_s = np.eye(d_e, dtype=complex), np.eye(d_s, dtype=complex)
    t_s = np.einsum("ef,gh,st->egsfth", eye_e, eye_e, eye_s).reshape(d_e * d_e, d * d)
    return t_s - np.outer(vec(omega_e), vec(np.eye(d)).conj())


def _demo1(args) -> dict:
    """Fixed environment marginal, swap-only evolution.

    The subspace is every operator whose system trace is proportional to a
    fixed environment state; the reduced dynamics collapses to the constant
    channel onto that state and stays CP and assignment independent.  The
    one swap is the whole unitary set, so ``--trials`` and ``--seed``
    change nothing.
    """
    ds = de = args.ds
    _check_dims(ds, de)
    omega_e = np.diag([0.7, 0.3] + [0.0] * (de - 2)).astype(complex) if de == 2 else (
        np.eye(de, dtype=complex) / de
    )
    v = subspace_from_constraint(demo1_constraint(omega_e, ds), ds, de)
    kernel = kernel_tr_e(v)
    canon = canonical_assignment(v)
    prod_mat = channels.product_assignment_matrix(omega_e, ds)
    product = perturb_assignment(canon, prod_mat - canon.mat, kernel)
    unitaries = consistency.sample_unitaries(
        "swap", args.trials, ds, de, np.random.default_rng(args.seed)
    )
    report = theorem1_verify(v, "swap", unitaries, assignment=product, tol=args.tol)
    # The swap turns any member into its system marginal read on S.
    psi = channels.reduced_dynamics(unitaries[0][1], product.mat, ds, de)
    constant = channels.channel_from_function(
        lambda x: np.trace(x) * omega_e, ds, ds
    )
    const_dist = channels.choi_distance(psi, constant)
    summary = {
        "pass": bool(
            report["passed"]
            and report["premises_hold"]
            and const_dist <= 1e-8
            and v.dim == ds * ds * de * de - de * de + 1
            and kernel.dim == (ds * ds - 1) * (de * de - 1)
        ),
        "dim_v": v.dim,
        "dim_v0": kernel.dim,
        "constant_channel_distance": float(const_dist),
        "canonical_assignment_cp": bool(canon.cp),
        "product_assignment_cp": bool(product.cp),
        "worst_perturbation_deviation": max(
            r["perturbation_deviation"] for r in report["per_unitary"]
        ),
    }
    return {"trials": report["per_unitary"], "theorem": report, "summary": summary}


def _demo2(args) -> dict:
    """Full operator space, local product evolutions.

    The canonical assignment is the closed form x -> x kron I/d_E; it is
    checked once, as ``maximally_mixed_distance``, against that map built
    column by column from matrix units.  For every product unitary
    U_S kron U_E the reduced dynamics is then the system-side conjugation
    by U_S, whatever the kernel perturbation.  The sampled products go
    through the theorem verifier like every other report.
    """
    ds, de = args.ds, args.de
    _check_dims(ds, de)
    v = full_space(ds, de)
    canon = canonical_assignment(v)
    unitaries = consistency.sample_unitaries(
        "local", args.trials, ds, de, np.random.default_rng(args.seed)
    )
    report = theorem1_verify(v, "local", unitaries, assignment=canon, tol=args.tol)
    mixed = channels.channel_from_function(lambda x: np.kron(x, np.eye(de) / de), ds, ds * de)
    mixed_dist = float(np.linalg.norm(canon.mat - mixed.mat))
    # dim V_0 counted apart from its closed form: Tr_E of d_s^2 + 2 random
    # operators, drawn from a stream of their own, spans the system
    # operators, and V_0 is the kernel of Tr_E on the (d_s d_e)^2 operators.
    probe = np.random.default_rng([args.seed, 1]).random(((ds * de) ** 2, ds * ds + 2))
    dim_v0 = (ds * de) ** 2 - np.linalg.matrix_rank(tr_e(probe, ds, de))
    summary = {
        "pass": bool(
            report["passed"]
            and report["premises_hold"]
            and mixed_dist <= 1e-8
            and report["dim_v0"] == dim_v0
        ),
        "dim_v": v.dim,
        "dim_v0": report["dim_v0"],
        "maximally_mixed_distance": mixed_dist,
        "canonical_assignment_cp": bool(canon.cp),
        "worst_perturbation_deviation": max(
            r["perturbation_deviation"] for r in report["per_unitary"]
        ),
    }
    return {"trials": report["per_unitary"], "theorem": report, "summary": summary}


def cmd_demo(args) -> dict:
    if args.example == 1:
        # Demo 1 swaps S and E, so both run at --ds.
        if args.de not in (None, args.ds):
            raise SystemExit("error: demo 1 runs at --ds x --ds; --de must equal --ds")
        args.de = args.ds
        return _demo1(args)
    args.de = 2 if args.de is None else args.de
    return _demo2(args)


def _config_echo(args) -> dict:
    skip = {"func", "out"}
    cfg = {}
    for k, v in sorted(vars(args).items()):
        if k in skip:
            continue
        if k == "blocks" and v is not None:
            cfg[k] = [list(b) for b in v]
        else:
            cfg[k] = v
    return cfg


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``cpdyn`` argument parser, built on the first call and shared by
    every later one in the process."""
    parser = argparse.ArgumentParser(
        prog="cpdyn",
        description="Verify complete positivity of reduced open-system dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trials=50, tol=True, g=True, blocks=True, de=2):
        # A subcommand takes only the flags it reads.
        p.add_argument("--ds", type=int, default=2, help="system dimension")
        p.add_argument("--de", type=int, default=de, help="environment dimension")
        if blocks:
            p.add_argument("--da", type=int, default=2, help="ancilla dimension")
            p.add_argument(
                "--blocks",
                type=_parse_blocks,
                default=((1, 2), (2, 1)),
                help="system block layout, e.g. '1x2,2x1'",
            )
        p.add_argument("--trials", type=_positive_int, default=trials)
        p.add_argument("--seed", type=int, default=None)
        if tol:
            p.add_argument("--tol", type=_tolerance, default=consistency.CONSISTENCY_TOL)
        p.add_argument("--out", type=str, default=None, help="report output path")
        if g:
            p.add_argument(
                "--g",
                choices=("all", "local", "swap"),
                default=None,
                help="unitary set (default: local for verify-family kernel-extended, else all)",
            )

    p = sub.add_parser("verify-family", help="CP/TP sweep over one family")
    p.add_argument("--family", choices=FAMILY_CHOICES, required=True)
    common(p, tol=False)
    p.set_defaults(func=cmd_verify_family)

    p = sub.add_parser("consistency", help="subspace consistency report")
    p.add_argument(
        "--family",
        choices=FAMILY_CHOICES + ("full", "random"),
        default="markov-blocks",
    )
    p.add_argument("--span-states", type=_positive_int, default=4)
    common(p)
    p.set_defaults(func=cmd_consistency)

    p = sub.add_parser("theorem1", help="end-to-end subspace/assignment check")
    p.add_argument(
        "--family",
        choices=FAMILY_CHOICES + ("full", "random"),
        default="markov-blocks",
    )
    p.add_argument("--span-states", type=_positive_int, default=4)
    common(p, trials=10)
    p.set_defaults(func=cmd_theorem1)

    p = sub.add_parser("dpi", help="data processing inequality sweeps")
    p.add_argument("--unitaries-per-state", type=_positive_int, default=10)
    p.add_argument("--search-draws", type=_positive_int, default=500)
    common(p, trials=20, g=False)
    p.set_defaults(func=cmd_dpi)

    p = sub.add_parser("demo", help="worked swap / local-product scenarios")
    p.add_argument("example", type=int, choices=(1, 2))
    # --de is resolved per example: demo 1 runs at --ds x --ds.
    common(p, trials=10, g=False, blocks=False, de=None)
    p.set_defaults(func=cmd_demo)

    return parser


def run(argv=None) -> tuple[dict, int]:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = int(os.environ.get(SEED_ENV_VAR, DEFAULT_SEED))
    if "g" in vars(args) and args.g is None:
        args.g = _default_g(args)
    start = time.monotonic()
    body = args.func(args)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": _config_echo(args),
        **body,
        "wall_time_s": time.monotonic() - start,
    }
    report["config_hash"] = hashlib.sha256(
        json.dumps(report["config"], sort_keys=True).encode()
    ).hexdigest()
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return report, 0 if report["summary"]["pass"] else 1


def main(argv=None) -> int:
    _, code = run(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
