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
``theorem1`` and ``demo`` draw their unitaries from the seed's stream, in
chunks that hold the bits of one draw of them all.

``verify-family`` runs in two phases.  Each trial draws its spec, its
member's parameters and its unitary from its own stream, in the order a
lone trial takes them, with one ``normal`` call per run of normal draws
(``_stack_draws``): one run for the spec and the unitary; for
markov-blocks the spec's run, a Dirichlet draw, then one run for the
member's block states and the unitary; for steered a Dirichlet draw, then
one run for omega_AL, omega_RE, the unitary and P_A.  The runs are stacked
along a leading trial axis and cut into Ginibre pairs and unitary draws;
densities, Kraus closures and records are then formed once per stack, and
the trials checked as one stack.  ``dpi`` runs the same way: each Markov
state draws its blocks, then its unitaries, from its own stream, and the
states and their unitaries are checked as stacks.  The other three check
each chunk of their unitaries (``consistency.sample_unitaries``) as one
stack.  All cut their work with ``tensor.stacks``, so a stack's largest
arrays hold at most ``tensor.STACK_ENTRIES`` complex entries and memory
does not grow with any flag; a stack records what each member would
record alone.

Exit codes: 0 when the summary pass flag is set, 1 when a verdict failed,
and 2 for a usage or configuration error (a malformed flag, a dimension
over the cap, a unitary set the configuration cannot take), which prints
``error: ...`` on stderr and writes no report.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import channels, consistency, families, info
from .consistency import (
    canonical_assignment,
    full_space,
    markov_block_space,
    perturb_assignment,
    span_from_states,
    theorem1_verify,
)
from .tensor import (
    frobenius,
    ginibre_densities,
    haar_unitaries,
    normal_runs,
    per_stream,
    random_density,
    stacks,
    tr_e,
    vec,
)

SCHEMA_VERSION = 1
MAX_TOTAL_DIM = 64
# --tol below this is rejected: ||M_U||_HS carries rounding of about 1e-14
# at the dimension cap, on a kernel basis and in the full space's closed form
# alike, which a smaller tolerance would report as a counterexample.
TOL_FLOOR = 1e-12
# Bounds of verify-family's family checks, which a passing trial meets
# besides CP and TP; steered_in_span must hold too (acceptance 1 and 4).
CONSTRUCTION_TOL = 1e-9
CLOSURE_TOL = 1e-10
STRUCTURE_TOL = 1e-9
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


def _at_least(low, convert=int, kind: str = "an integer", why: str = ""):
    """A flag parser: ``convert`` of the text, finite and at least ``low``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}") from None
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be at least {low:g}{why}, got {text!r}")
        return value

    return parse


_positive_int, _nonnegative_int = _at_least(1), _at_least(0)
_tolerance = _at_least(TOL_FLOOR, float, "a number", ", the rounding floor, and finite")


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def _default_g(args) -> str:
    """Unitary set when ``--g`` is not given: local products for
    ``verify-family --family kernel-extended``, whose kernel freedom
    arbitrary unitaries would void, and all unitaries otherwise."""
    if args.command == "verify-family" and args.family == "kernel-extended":
        return "local"
    return "all"


def _refuse(message: str):
    """Exit 2 with ``error: message`` on stderr, as argparse refuses a flag."""
    build_parser().error(message)


def _check_dims(*dims: int):
    total = math.prod(dims)
    if total > MAX_TOTAL_DIM:
        _refuse(f"total dimension {total} exceeds the hard cap {MAX_TOTAL_DIM}")


def _markov_state(args, q, omega_al, omega_re):
    """A Markov state spec from its draws, validated, and its state; draws
    stacked along a leading trial axis give a stack of both."""
    layout = families.MarkovBlocksSpec(args.blocks, args.de, omega_re)
    mspec = families.MarkovStateSpec(args.da, q, omega_al, layout)
    return mspec, families.build_markov_state(mspec)


def _steered(args, q, omega_al, omega_re):
    """A Markov state spec from its draws, and the steered family of its state."""
    mspec, state = _markov_state(args, q, omega_al, omega_re)
    return mspec, families.SteeredSpec(args.da, mspec.layout.d_s, args.de, state)


def _layout(family: str, args) -> tuple[tuple[int, int], ...]:
    """The Markov block layout (l_i, r_i) of a family: factorized is the one
    block (d_s, 1), classical-quantum d_s blocks (1, 1) (in a random frame)
    and direct-sum has blocks (d_i, 1), with d_i the sizes of ``--blocks``;
    mixed-direct-sum holds a fixed S x E state in each of its first
    max(1, m // 2) blocks, as (1, d_i), and is a direct sum after them;
    markov-blocks, kernel-extended and steered (that of its Markov state)
    take ``--blocks``."""
    if family == "factorized":
        return ((args.ds, 1),)
    if family == "classical-quantum":
        return ((1, 1),) * args.ds
    dims = [l * r for l, r in args.blocks]
    if family == "direct-sum":
        return tuple((d, 1) for d in dims)
    if family == "mixed-direct-sum":
        m_prime = max(1, len(dims) // 2)
        return tuple((1, d) for d in dims[:m_prime]) + tuple((d, 1) for d in dims[m_prime:])
    if family in ("markov-blocks", "kernel-extended", "steered"):
        return args.blocks
    raise ValueError(f"unknown family {family!r}")


def _spec_draws(family: str, args, rngs, *then) -> tuple[dict, list]:
    """A random spec's parts, a family other than steered, and the draws of
    the groups of shapes ``then`` (``tensor.normal_runs``), from one stream
    or stacked from several.

    A stream gives them in one run of normal draws: classical-quantum's
    frame, the Ginibre pair of the Haar basis b_i, first; then the Ginibre
    pairs of every omega_RE_i; then kernel-extended's Gaussian directions;
    then the draws of ``then``.  The parts are the ``frame``, the
    ``omega_re`` and the ``directions``, None where the family has none.
    """
    ds, de = args.ds, args.de
    d = ds * de
    frame, x_re, x_dir, *rest = normal_runs(
        rngs,
        [(2, ds, ds)] if family == "classical-quantum" else [],
        [(2, r * de, r * de) for _, r in _layout(family, args)],
        [(2, d * d, min(3, d * d - ds * ds))] if family == "kernel-extended" else [],
        *then,
    )
    parts = {
        "frame": haar_unitaries(frame[0]) if frame else None,
        "omega_re": tuple(map(ginibre_densities, x_re)),
        "directions": x_dir[0][..., 0, :, :] + 1j * x_dir[0][..., 1, :, :] if x_dir else None,
    }
    return parts, rest


def _spec_from(family: str, args, frame, omega_re, directions):
    """The spec of a family other than steered from its parts (see
    ``_spec_draws``), validated; parts stacked along leading trial axes
    give a stack of specs."""
    ds, de = args.ds, args.de
    spec = families.MarkovBlocksSpec(_layout(family, args), de, omega_re, frame)
    if family != "kernel-extended":
        return spec
    # Gaussian directions projected onto ker Tr_E, X - Tr_E(X) kron I/d_E:
    # Tr_E is a co-isometry up to the factor d_E, so this is the
    # orthogonal projection, and no kernel basis is built.
    x = directions
    t = tr_e(x, ds, de).reshape(x.shape[:-2] + (ds, ds, -1))
    x = x - np.einsum("...abk,ef->...aebfk", t, np.eye(de) / de).reshape(x.shape)
    return families.KernelExtendedSpec(spec, np.linalg.qr(x)[0])


def _random_spec(family: str, args, rng: np.random.Generator):
    if family == "steered":
        draws = families.markov_state_draws(args.da, args.blocks, args.de, rng)
        return _steered(args, *draws)[1]
    return _spec_from(family, args, **_spec_draws(family, args, rng)[0])


def _family_span(spec):
    """V, the span of a family's members: in closed form for a Markov-block
    layout, in its frame, else (steered) from the family's linear
    generators; a kernel-extended family takes the span of its base."""
    base = spec.base if isinstance(spec, families.KernelExtendedSpec) else spec
    if isinstance(base, families.MarkovBlocksSpec):
        return markov_block_space(base)
    return span_from_states(families.span_generators(base), spec.d_s, spec.d_e)


def _trial_entries(args) -> int:
    """The complex entries of a ``verify-family`` trial's largest arrays,
    by which ``tensor.stacks`` cuts the trials: n d d_s for its assignment's
    n = sum_i r_i^2 d_E operators, its (d, d) unitary and the (d_s^2,
    d_s^2) Choi matrix of its channel.  n d d_s is the size those operators
    would take zero-padded to (d, d_s), which no report stores; it bounds
    the arrays of each block's contraction, the U-slice product and the
    operators, d d_E l_i r_i^3 entries each.  A trial at the default layout
    counts at most 640, so the 50 default trials are one stack; one at
    --blocks 2x2,2x2 --de 8 counts 40960, a stack of its own."""
    ds, d = args.ds, args.ds * args.de
    n = sum(r * r for _, r in _layout(args.family, args)) * args.de
    return n * d * ds + d * d + ds**4


def _stack_draws(args, rngs) -> dict:
    """The draws of a stack of ``verify-family`` trials, one stream each, as
    a lone trial takes them, formed on the stack.

    Each stream gives one call for each run of normal draws: the spec's
    run (see ``_spec_draws``), with the unitary's draws at its end; for
    markov-blocks the spec's run, the member's Dirichlet draw ``probs``,
    then the member's block ``states`` and the unitary; for steered the
    Markov state's Dirichlet draw ``q``, then ``omega_al``, ``omega_re``,
    the unitary and the member's ``p_a``.  The ``unitary`` entry holds the
    normal draws of ``consistency.unitary_shapes``.
    """
    family, de = args.family, args.de
    u_shapes = consistency.unitary_shapes(args.g, args.ds, de)
    if family == "steered":
        q, omega_al, omega_re, x_u, (x_p,) = families.markov_state_draws(
            args.da, args.blocks, de, rngs, u_shapes, [(2, args.da, args.da)]
        )
        # Full rank and positive, as families.random_params draws it.
        p_a = ginibre_densities(x_p) * args.da
        return {"q": q, "omega_al": omega_al, "omega_re": omega_re, "unitary": x_u, "p_a": p_a}
    if family != "markov-blocks":
        draws, (x_u,) = _spec_draws(family, args, rngs, u_shapes)
        return {**draws, "unitary": x_u}
    draws, _ = _spec_draws(family, args, rngs)
    blocks = args.blocks
    probs = per_stream(rngs, lambda rng: rng.dirichlet(np.ones(len(blocks))))
    x_states, x_u = normal_runs(rngs, [(2, l, l) for l, _ in blocks], u_shapes)
    states = tuple(map(ginibre_densities, x_states))
    return {**draws, "probs": probs, "states": states, "unitary": x_u}


def _verify_stack(args, trials: range) -> list[dict]:
    """The records of ``trials``, drawn one stream each (``_stack_draws``)
    and checked as one stack.

    The assignment is built from the span of the widest family containing
    the trial's members: steered sets take the layout of their Markov
    state, kernel extensions their base.  Densities, Kraus closures and
    records are formed once per stack.
    """
    family, ds, de = args.family, args.ds, args.de
    draws = _stack_draws(args, [_trial_rng(args.seed, t) for t in trials])
    if family == "steered":
        mspec, spec = _steered(args, draws["q"], draws["omega_al"], draws["omega_re"])
        v = markov_block_space(mspec.layout)
    else:
        spec = _spec_from(family, args, draws["frame"], draws["omega_re"], draws["directions"])
        v = _family_span(spec)
    assign = canonical_assignment(v)
    stem, u = consistency.unitaries_from_draws(args.g, draws["unitary"], ds, de)
    label = stem if args.g == "swap" else f"{stem}_0"
    u = np.broadcast_to(u, (len(trials),) + u.shape[-2:])
    psi, verdict = consistency.reduced_dynamics_verdict(assign, u)
    cols = dict(verdict)
    if family == "factorized":
        # psi comes from the assignment's Kraus stack, which is kraus_factorized's
        # set here; the contraction of U and omega_E builds no Kraus operators.
        omega_e = spec.omega_re[0]
        direct = channels.product_dynamics_choi(u, omega_e, ds, de)
        cols["construction_choi_distance"] = frobenius(channels.choi(psi) - direct)
        kraus = channels.kraus_factorized(u, omega_e, ds, de)
        closure = (kraus.conj().swapaxes(-1, -2) @ kraus).sum(axis=-3)
        cols["kraus_closure_error"] = frobenius(closure - np.eye(ds))
    if family == "markov-blocks":
        member = families.sample_member(
            spec, families.FamilyParams(draws["probs"], draws["states"])
        )
        cols["structure_residual"] = families.structure_fit(member, spec.blocks, spec.omega_re, de)
    if family == "steered":
        member = families.sample_member(spec, families.FamilyParams(p_a=draws["p_a"]))
        cols["steered_in_span"] = v.contains(member)
    head = {"unitary": label, "assignment_cp": bool(assign.cp)}
    return consistency.records({"trial": trials, **cols}, **head)


def _system_dim(args) -> int:
    """System dimension a command runs at: block families take it from
    ``--blocks`` and refuse a ``--ds`` that differs, the others take
    ``--ds``, default 2."""
    if args.family in BLOCK_FAMILIES:
        ds = sum(l * r for l, r in args.blocks)
        if args.ds not in (None, ds):
            _refuse(f"--family {args.family} runs at d_s = {ds} from --blocks; --ds must equal it")
        return ds
    return 2 if args.ds is None else args.ds


def _check_family_dims(args):
    """Check S x E and, for the steered family, whose members are drawn
    from a state on A x S x E, that state's dimensions too; then that
    ``--g swap`` has d_s = d_e.  The family commands call it before any
    draw."""
    _check_dims(args.ds, args.de)
    if args.family == "steered":
        _check_dims(args.da, args.ds, args.de)
    if args.g == "swap" and args.ds != args.de:
        _refuse("--g swap needs equal system and environment dimensions")


def cmd_verify_family(args) -> dict:
    args.ds = _system_dim(args)
    _check_family_dims(args)
    if args.family == "kernel-extended" and args.g == "all":
        _refuse("--g all voids the kernel freedom of kernel-extended; use --g local or swap")
    cut = stacks(args.trials, _trial_entries(args))
    trials = [rec for stack in cut for rec in _verify_stack(args, stack)]
    ok = [
        t["cp"]
        and t["tp"]
        and t.get("construction_choi_distance", 0.0) <= CONSTRUCTION_TOL
        and t.get("kraus_closure_error", 0.0) <= CLOSURE_TOL
        and t.get("structure_residual", 0.0) <= STRUCTURE_TOL
        and t.get("steered_in_span", True)
        for t in trials
    ]
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


def _checked(args):
    """The V of a ``consistency`` or ``theorem1`` report, then the chunks of
    its unitaries, from the seed's stream, once its dimensions are checked."""
    args.ds = _system_dim(args)
    _check_family_dims(args)
    rng = np.random.default_rng(args.seed)
    v = _build_subspace(args, rng)
    return v, consistency.sample_unitaries(args.g, args.trials, v, rng)


def cmd_consistency(args) -> dict:
    v, unitaries = _checked(args)
    labels, violations = [], []
    for chunk, us in unitaries:
        labels += chunk
        violations += consistency.u_consistency_violation(v, us).tolist()
    report = consistency.g_consistency_report(v, args.g, violations, args.tol)
    # The records are the first ten of the checked unitaries.
    trials = consistency.records({"trial": range(10), "unitary": labels, "violation": violations})
    summary = {
        "pass": bool(report["consistent"]),
        "dim_v": v.dim,
        "dim_v0": report["dim_v0"],
        "worst_violation": report["worst_violation"],
        "exact": report["exact"],
    }
    return {"trials": trials, "summary": summary}


def _outcome(report: dict) -> dict:
    """The case a ``theorem1_verify`` report falls in, for its summary:
    ``outcome`` is ``"holds"`` when the premises and the conclusion hold,
    ``"vacuous"`` when a premise fails and ``"counterexample"`` when the
    premises hold and the conclusion fails; ``failed_premises`` names the
    premises that fail, ``"consistency"`` and ``"assignment_cp"``."""
    failed = [
        name
        for name, held in (
            ("consistency", report["consistency"]["consistent"]),
            ("assignment_cp", report["assignment"]["cp"]),
        )
        if not held
    ]
    case = "vacuous" if failed else "holds" if report["conclusion_holds"] else "counterexample"
    return {"outcome": case, "failed_premises": failed}


def cmd_theorem1(args) -> dict:
    v, unitaries = _checked(args)
    report = theorem1_verify(v, args.g, unitaries, tol=args.tol)
    summary = {
        "pass": bool(report["passed"]),
        **_outcome(report),
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


def _dpi_stack(args, trials: range) -> list[dict]:
    """The records of ``trials``: each Markov state drawn from its own
    stream, then checked with the others as one stack.  A stream gives its
    state's draws, then the Ginibre pairs of its unitaries."""
    rngs = [_trial_rng(args.seed, t) for t in trials]
    draws = families.markov_state_draws(args.da, args.blocks, args.de, rngs)
    mspec, omega = _markov_state(args, *draws)
    dims = args.da, mspec.layout.d_s, args.de
    cmi, i_before = info._cmi_and_i_before(omega, *dims)
    worst, _ = info._search(omega, *dims, rngs, args.unitaries_per_state, i_before)
    return consistency.records({"trial": trials, "cmi": cmi, "worst_delta": worst})


def cmd_dpi(args) -> dict:
    # The GHZ fixture runs at --ds, the Markov states at the --blocks size.
    _check_dims(args.da, args.ds, args.de)
    d_s = sum(l * r for l, r in args.blocks)
    _check_dims(args.da, d_s, args.de)
    # The states are cut by the entries of one state's chunk of unitaries
    # in info._search, n^2 for each unitary.
    n = args.da * d_s * args.de
    chunk = len(stacks(args.unitaries_per_state, n * n)[0]) * n * n
    trials = [rec for states in stacks(args.trials, chunk) for rec in _dpi_stack(args, states)]
    worst_delta = min(t["worst_delta"] for t in trials)
    ghz = ghz_state(args.da, args.ds, args.de)
    shift = ghz_inverse_shift(args.ds, args.de)[None]
    shift_delta = float(info.dpi_check(ghz, args.da, args.ds, args.de, shift)[0])
    hunt = info.search_dpi_violation(
        ghz, args.da, args.ds, args.de, np.random.default_rng(args.seed), draws=args.search_draws
    )
    summary = {
        "pass": bool(worst_delta >= -args.tol and shift_delta < -0.01),
        "ghz_shift_delta": shift_delta,
        "markov_worst_delta": worst_delta,
        "markov_worst_cmi": max(abs(t["cmi"]) for t in trials),
        "non_markov_search": hunt,
    }
    return {"trials": trials, "summary": summary}


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
    omega_e = (np.diag([0.7, 0.3]) if de == 2 else np.eye(de) / de).astype(complex)
    v = full_space(ds, de, omega_e)
    canon = canonical_assignment(v)
    # x -> x kron omega_E, the one-block layout (d_s, 1), is CP by its Kraus
    # form; it differs from the canonical assignment by a map into V_0.
    product = markov_block_space(families.MarkovBlocksSpec(((ds, 1),), de, (omega_e,)))
    product = product.canonical_assignment()
    perturb_assignment(canon, product.mat - canon.mat, v)
    rng = np.random.default_rng(args.seed)
    (chunk,) = consistency.sample_unitaries("swap", args.trials, v, rng)
    report = theorem1_verify(v, "swap", [chunk], assignment=product, tol=args.tol)
    # The swap turns any member into its system marginal read on S.
    psi = channels.reduced_dynamics(chunk[1][0], product.mat, ds, de)
    constant = channels.channel_from_function(lambda x: np.trace(x) * omega_e, ds, ds)
    const_dist = channels.choi_distance(psi, constant)
    # dim V and dim V_0 counted apart from their closed forms, on random
    # operators P drawn from a stream of their own: V is the kernel of
    # X -> Tr_S X - tr(X) omega_E, and V_0 that of X -> (Tr_E X, Tr_S X).
    d2 = (ds * de) ** 2
    probe = np.random.default_rng([args.seed, 1]).random((d2, ds * ds + de * de + 2))
    on_e = tr_e(probe, ds, de)
    on_s = np.einsum("aeafk->efk", probe.reshape(ds, de, ds, de, -1)).reshape(de * de, -1)
    tilted = on_s - np.outer(vec(omega_e), np.trace(on_e.reshape(ds, ds, -1)))
    rank = np.linalg.matrix_rank
    dims = v.dim == d2 - rank(tilted) and report["dim_v0"] == d2 - rank(np.vstack([on_e, on_s]))
    return _demo_report(
        v, canon, report, const_dist <= 1e-8 and dims,
        constant_channel_distance=float(const_dist), product_assignment_cp=bool(product.cp),
    )


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
    rng = np.random.default_rng(args.seed)
    unitaries = consistency.sample_unitaries("local", args.trials, v, rng)
    report = theorem1_verify(v, "local", unitaries, assignment=canon, tol=args.tol)
    mixed = channels.channel_from_function(lambda x: np.kron(x, np.eye(de) / de), ds, ds * de)
    mixed_dist = float(np.linalg.norm(canon.mat - mixed.mat))
    # dim V_0 counted apart from its closed form: Tr_E of d_s^2 + 2 random
    # operators, drawn from a stream of their own, spans the system
    # operators, and V_0 is the kernel of Tr_E on the (d_s d_e)^2 operators.
    probe = np.random.default_rng([args.seed, 1]).random(((ds * de) ** 2, ds * ds + 2))
    dim_v0 = (ds * de) ** 2 - np.linalg.matrix_rank(tr_e(probe, ds, de))
    checks = mixed_dist <= 1e-8 and report["dim_v0"] == dim_v0
    return _demo_report(v, canon, report, checks, maximally_mixed_distance=mixed_dist)


def _demo_report(v, canon, report: dict, checks: bool, **extra) -> dict:
    """A demo's report: it passes on the theorem verdict with true premises
    and the demo's own ``checks``; ``extra`` joins the summary."""
    summary = {
        "pass": bool(report["passed"] and report["premises_hold"] and checks),
        **_outcome(report),
        "dim_v": v.dim,
        "dim_v0": report["dim_v0"],
        "canonical_assignment_cp": bool(canon.cp),
        "worst_perturbation_deviation": max(
            r["perturbation_deviation"] for r in report["per_unitary"]
        ),
        **extra,
    }
    return {"trials": report["per_unitary"], "theorem": report, "summary": summary}


def cmd_demo(args) -> dict:
    if args.example == 1:
        # Demo 1 swaps S and E, so both run at --ds.
        if args.de not in (None, args.ds):
            _refuse("demo 1 runs at --ds x --ds; --de must equal --ds")
        args.de = args.ds
        return _demo1(args)
    args.de = 2 if args.de is None else args.de
    return _demo2(args)


def _config_echo(args) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
    if cfg.get("blocks") is not None:
        cfg["blocks"] = [list(b) for b in cfg["blocks"]]
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

    def common(p, trials=50, tol=True, g=True, blocks=True, ds=2, de=2):
        # A subcommand takes only the flags it reads.
        p.add_argument("--ds", type=_positive_int, default=ds, help="system dimension")
        p.add_argument("--de", type=_positive_int, default=de, help="environment dimension")
        if blocks:
            p.add_argument("--da", type=_positive_int, default=2, help="ancilla dimension")
            p.add_argument(
                "--blocks",
                type=_parse_blocks,
                default=((1, 2), (2, 1)),
                help="system block layout, e.g. '1x2,2x1'",
            )
        p.add_argument("--trials", type=_positive_int, default=trials)
        p.add_argument("--seed", type=_nonnegative_int, default=DEFAULT_SEED)
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
    # --ds is resolved per family: block families run at the --blocks size.
    common(p, tol=False, ds=None)
    p.set_defaults(func=cmd_verify_family)

    for name, about, trials, func in (
        ("consistency", "subspace consistency report", 50, cmd_consistency),
        ("theorem1", "end-to-end subspace/assignment check", 10, cmd_theorem1),
    ):
        p = sub.add_parser(name, help=about)
        choices = FAMILY_CHOICES + ("full", "random")
        p.add_argument("--family", choices=choices, default="markov-blocks")
        p.add_argument("--span-states", type=_positive_int, default=4)
        common(p, trials=trials, ds=None)
        p.set_defaults(func=func)

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
