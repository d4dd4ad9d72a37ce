"""The benchmark's workloads: the fixed make-up of one round, the seed of
every report in it, and the checks every report must pass.

Each workload puts most of its time in one layer of cpdyn, so a change to
that layer shows on one workload and is predicted to leave the others alone
(see README.md for the table).  The round lists are spelled out here rather
than read from ``cpdyn.cli`` so that a change to the CLI's defaults or family
list cannot silently change what a round measures.
"""

from __future__ import annotations

import numpy as np

FAMILIES = (
    "factorized",
    "classical-quantum",
    "direct-sum",
    "mixed-direct-sum",
    "markov-blocks",
    "steered",
    "kernel-extended",
)

FULL_D32 = ("--family", "full", "--ds", "4", "--de", "8", "--g", "local")

# One round of each workload, as `cpdyn` argv lists without `--seed`.
ROUNDS: dict[str, tuple[tuple[str, ...], ...]] = {
    # The README's everyday commands at default sizes: family sampling,
    # small decompositions and CLI glue; per-call overhead shows here first.
    "small-sweep": tuple(("verify-family", "--family", f) for f in FAMILIES)
    + (("consistency",), ("theorem1",), ("demo", "1"), ("demo", "2")),
    # Entropies: 700 dpi_check calls and 720 CMI evaluations per round.
    "dpi-sweep": (("dpi",),),
    # Tr_E o Ad_U at the 64-dimension cap on a small subspace: one channel
    # per assignment in verify-family, four per unitary in theorem1.
    "cap-dynamics": (
        ("verify-family", "--family", "factorized", "--ds", "8", "--de", "8", "--trials", "1"),
        (
            "theorem1", "--family", "markov-blocks", "--blocks", "2x2,2x2",
            "--de", "8", "--g", "local", "--trials", "1",
        ),
    ),
    # Subspace algebra on the full operator space at d = 32: the kernel of
    # the same V is computed 2, 3 and 1 times by the three reports.
    "subspace-d32": (
        ("theorem1", *FULL_D32, "--trials", "1"),
        ("consistency", *FULL_D32, "--trials", "1"),
        ("demo", "2", "--ds", "4", "--de", "8", "--trials", "1"),
    ),
}

TOL = 1e-9  # the CLI's default --tol, which every round uses


def report_seed(seed: int, round_index: int, report_index: int) -> int:
    """Seed passed as `--seed` to one report of one round."""
    return int(np.random.SeedSequence([seed, round_index, report_index]).generate_state(1)[0])


def round_argvs(workload: str, seed: int, round_index: int) -> list[list[str]]:
    return [
        [*argv, "--seed", str(report_seed(seed, round_index, k))]
        for k, argv in enumerate(ROUNDS[workload])
    ]


def _opt(argv, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_report(argv: list[str], report: dict, code: int) -> list[str]:
    """Properties the method guarantees for this report; returns the failures.

    Nothing here is compared with a stored report: every bound follows from
    the theory (CP/TP, kernel dimensions by rank-nullity, Markov states have
    zero CMI and obey data processing) or from the CLI's own tolerances.
    """
    problems: list[str] = []

    def need(ok, what):
        if not ok:
            problems.append(f"{' '.join(argv)}: {what}")

    s = report["summary"]
    need(code == 0 and s["pass"], "summary.pass is false")
    cmd = argv[0]
    family = _opt(argv, "--family")
    ds, de = int(_opt(argv, "--ds", 2)), int(_opt(argv, "--de", 2))

    if cmd == "verify-family":
        trials = report["trials"]
        need(all(t["cp"] and t["tp"] for t in trials), "a trial is not both CP and TP")
        if family == "factorized":
            need(max(t["construction_choi_distance"] for t in trials) <= 1e-9,
                 "construction_choi_distance > 1e-9")
            need(max(t["kraus_closure_error"] for t in trials) <= 1e-10,
                 "kraus_closure_error > 1e-10")
        if family == "markov-blocks":
            need(max(t["structure_residual"] for t in trials) <= 1e-9,
                 "structure_residual > 1e-9")
        if family == "steered":
            need(all(t["steered_in_span"] for t in trials), "steered member outside the span")

    if family == "full" or argv[:2] == ["demo", "2"]:
        need(s["dim_v"] == (ds * de) ** 2, f"dim_v {s['dim_v']} != (d_s d_e)^2")
        need(s["dim_v0"] == ds * ds * (de * de - 1), f"dim_v0 {s['dim_v0']} != d_s^2 (d_e^2 - 1)")
    if argv[:2] == ["demo", "1"]:
        de = ds  # demo 1 swaps S and E, so both take --ds
        need(s["dim_v"] == ds * ds * de * de - de * de + 1, f"dim_v {s['dim_v']} is not d_s^2 d_e^2 - d_e^2 + 1")
        need(s["dim_v0"] == (ds * ds - 1) * (de * de - 1), f"dim_v0 {s['dim_v0']} is not (d_s^2-1)(d_e^2-1)")

    if _opt(argv, "--g") == "local" and cmd in ("consistency", "theorem1"):
        c = s if cmd == "consistency" else report["theorem"]["consistency"]
        need(c["exact"], "local-unitary consistency is not exact")
        need(c["worst_violation"] <= 1e-9, f"worst_violation {c['worst_violation']:.3e} > 1e-9")

    if cmd == "dpi":
        need(s["markov_worst_delta"] >= -TOL, f"markov_worst_delta {s['markov_worst_delta']:.3e} < -tol")
        need(s["markov_worst_cmi"] <= 1e-9, f"markov_worst_cmi {s['markov_worst_cmi']:.3e} > 1e-9")
        need(s["non_markov_search"]["best_delta"] < -0.01, "GHZ search found no delta < -0.01")
    return problems
