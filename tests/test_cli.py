import json
from pathlib import Path

import jsonschema
import pytest

import numpy as np

from cpdyn import channels, cli, consistency, info
from cpdyn.cli import build_parser, ghz_state, main, run
from cpdyn.tensor import random_haar_unitary

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "report.schema.json").read_text()
)


def run_args(*argv):
    return run(list(argv))


def strip_timing(report):
    out = json.loads(json.dumps(report))
    out.pop("wall_time_s")
    return out


def test_verify_family_passes_and_validates():
    report, code = run_args(
        "verify-family", "--family", "factorized", "--trials", "5", "--seed", "7"
    )
    assert code == 0
    assert report["summary"]["pass"]
    jsonschema.validate(report, SCHEMA)
    assert report["config"]["seed"] == 7
    assert len(report["trials"]) == 5


@pytest.mark.parametrize(
    "family",
    [
        "classical-quantum",
        "direct-sum",
        "mixed-direct-sum",
        "markov-blocks",
        "steered",
        "kernel-extended",
    ],
)
def test_verify_family_all_variants(family):
    report, code = run_args(
        "verify-family", "--family", family, "--trials", "3", "--seed", "11",
        "--g", "local",
    )
    assert code == 0, report["summary"]
    jsonschema.validate(report, SCHEMA)


def test_reports_are_deterministic_up_to_timing():
    a, _ = run_args("verify-family", "--family", "markov-blocks", "--trials", "3",
                    "--seed", "3", "--g", "local")
    b, _ = run_args("verify-family", "--family", "markov-blocks", "--trials", "3",
                    "--seed", "3", "--g", "local")
    assert strip_timing(a) == strip_timing(b)
    c, _ = run_args("verify-family", "--family", "markov-blocks", "--trials", "3",
                    "--seed", "4", "--g", "local")
    assert strip_timing(a) != strip_timing(c)


def test_out_flag_writes_report(tmp_path):
    path = tmp_path / "report.json"
    report, code = run_args(
        "verify-family", "--family", "factorized", "--trials", "2", "--seed", "1",
        "--out", str(path),
    )
    assert code == 0
    on_disk = json.loads(path.read_text())
    assert strip_timing(on_disk) == strip_timing(report)


def test_seed_env_var_fallback(monkeypatch):
    monkeypatch.setenv("CPDYN_SEED", "99")
    report, _ = run_args("verify-family", "--family", "factorized", "--trials", "2")
    assert report["config"]["seed"] == 99


def test_dimension_cap_aborts():
    with pytest.raises(SystemExit):
        run_args("verify-family", "--family", "factorized", "--ds", "9", "--de", "9",
                 "--trials", "1")


@pytest.mark.parametrize("command", ["consistency", "theorem1"])
def test_steered_block_layout_counts_against_the_cap(command):
    # --blocks 3x3 gives d_s = 9, so the run would be at 9 * 8 = 72 > 64
    # although --ds keeps its default of 2.
    with pytest.raises(SystemExit, match="total dimension 72 exceeds the hard cap 64"):
        run_args(command, "--family", "steered", "--blocks", "3x3", "--de", "8",
                 "--g", "local", "--trials", "1")


@pytest.mark.parametrize("command", ["verify-family", "consistency", "theorem1"])
def test_steered_checks_the_ancilla_dimension(command):
    with pytest.raises(SystemExit, match="dimensions must be >= 1, got 0"):
        run_args(command, "--family", "steered", "--da", "0", "--trials", "1")
    # S x E is 16 but the steered state on A x S x E is 256.
    with pytest.raises(SystemExit, match="total dimension 256 exceeds the hard cap 64"):
        run_args(command, "--family", "steered", "--da", "16", "--blocks", "2x2",
                 "--de", "4", "--trials", "1")


def test_steered_consistency_echoes_the_block_dimension():
    report, code = run_args("consistency", "--family", "steered", "--g", "local",
                            "--trials", "1", "--seed", "3")
    assert code == 0
    assert report["config"]["ds"] == 4  # default blocks 1x2,2x1


def test_bad_block_layout_rejected():
    with pytest.raises(SystemExit):
        run_args("verify-family", "--family", "markov-blocks", "--blocks", "abc",
                 "--trials", "1")


def test_bad_trials_and_tol_rejected():
    with pytest.raises(SystemExit):
        run_args("verify-family", "--family", "factorized", "--trials", "0")
    for argv in (("consistency", "--tol", "-1"), ("theorem1", "--tol", "0"),
                 ("demo", "1", "--tol", "nan")):
        with pytest.raises(SystemExit):
            run_args(*argv, "--trials", "1")


def test_verify_family_has_no_tol():
    # No verify-family decision reads a tolerance, so the flag is not offered.
    with pytest.raises(SystemExit):
        run_args("verify-family", "--family", "factorized", "--tol", "1e-3", "--trials", "1")
    report, _ = run_args("verify-family", "--family", "factorized", "--trials", "1")
    assert "tol" not in report["config"]


def test_consistency_verdict_flips_as_tol_crosses_worst_violation():
    argv = ("consistency", "--family", "random", "--span-states", "7", "--g", "all",
            "--trials", "3", "--seed", "1")
    report, code = run_args(*argv)
    worst = report["summary"]["worst_violation"]
    assert code == 1 and worst > 1e-3
    at, code_at = run_args(*argv, "--tol", repr(worst))
    below, code_below = run_args(*argv, "--tol", repr(worst * (1 - 1e-12)))
    assert code_at == 0 and at["summary"]["pass"]
    assert code_below == 1 and not below["summary"]["pass"]
    assert at["summary"]["worst_violation"] == below["summary"]["worst_violation"] == worst


def test_consistency_command_local_exact():
    report, code = run_args(
        "consistency", "--family", "markov-blocks", "--g", "local",
        "--trials", "5", "--seed", "2",
    )
    assert code == 0
    assert report["summary"]["exact"]
    jsonschema.validate(report, SCHEMA)


def test_consistency_failure_sets_exit_code():
    report, code = run_args(
        "consistency", "--family", "random", "--span-states", "6",
        "--g", "all", "--trials", "3", "--seed", "2",
    )
    assert code == 1
    assert not report["summary"]["pass"]


def test_theorem1_command():
    report, code = run_args(
        "theorem1", "--family", "markov-blocks", "--g", "local",
        "--trials", "3", "--seed", "5",
    )
    assert code == 0
    assert report["theorem"]["premises_hold"]
    assert report["theorem"]["conclusion_holds"]
    jsonschema.validate(report, SCHEMA)


def test_theorem1_reports_tp_on_the_assignment_domain():
    # markov-blocks spans dim V = 5 < d_s^2 = 16, so TP holds only on the domain.
    report, code = run_args("theorem1", "--trials", "2")
    assert code == 0
    assert report["theorem"]["dim_v"] < 16
    assert [r["tp"] for r in report["trials"]] == [True, True]


def test_trial_streams_do_not_collide_across_seeds():
    a = cli._trial_rng(2025, 0).normal(size=3)
    b = cli._trial_rng(2024, 1).normal(size=3)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-family", "--family", "markov-blocks"),
        ("consistency", "--family", "steered"),
        ("theorem1", "--family", "markov-blocks"),
    ],
)
def test_swap_with_unequal_dimensions_is_an_argument_error(argv):
    with pytest.raises(SystemExit, match="--g swap needs equal system and environment"):
        run_args(*argv, "--g", "swap", "--trials", "1")


@pytest.mark.parametrize("command", ["verify-family", "consistency", "theorem1"])
def test_kernel_extended_builds_no_full_space(monkeypatch, command):
    # The extra directions are drawn by projection, so no report factors the
    # full operator space; consistency and theorem1 factor only the span of
    # the base, and verify-family reads no kernel at all.
    full_spaces, factored = [], []
    full_space, factor = consistency.full_space, consistency._null_complement

    def counting_full_space(*args):
        full_spaces.append(args)
        return full_space(*args)

    def counting_null_complement(vh, *rest):
        factored.append(vh.shape[1])
        return factor(vh, *rest)

    monkeypatch.setattr(cli, "full_space", counting_full_space)
    monkeypatch.setattr(consistency, "full_space", counting_full_space)
    monkeypatch.setattr(consistency, "_null_complement", counting_null_complement)
    report, code = run_args(
        command, "--family", "kernel-extended", "--trials", "4", "--seed", "5", "--g", "local"
    )
    assert code == 0
    assert full_spaces == []
    assert factored == ([] if command == "verify-family" else [report["summary"]["dim_v"]])


@pytest.mark.parametrize(
    "argv",
    [("theorem1", "--family", "full"), ("consistency", "--family", "full"), ("demo", "2")],
    ids=["theorem1", "consistency", "demo-2"],
)
def test_full_space_commands_factor_nothing(monkeypatch, argv):
    # The full space's violation, canonical assignment and dim V0 are
    # closed forms: no SVD, no kernel basis, no identity basis.
    spaces, factored, svds = [], [], []
    full_space, factor, svd = consistency.full_space, consistency._null_complement, np.linalg.svd

    def recording_full_space(*args):
        spaces.append(full_space(*args))
        return spaces[-1]

    def counting_null_complement(*args, **kwargs):
        factored.append(args[0].shape)
        return factor(*args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        svds.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(cli, "full_space", recording_full_space)
    monkeypatch.setattr(consistency, "_null_complement", counting_null_complement)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    report, _ = run_args(*argv, "--trials", "3", "--seed", "5")
    assert report["summary"]["dim_v0"] == 12
    assert factored == [] and svds == []
    assert len(spaces) == 1 and "basis" not in vars(spaces[0])


def _checked_unitaries(argv):
    """A consistency report's subspace and checked unitaries, replayed: the
    subspace, then one draw of `--trials` unitaries from the seed stream."""
    args = build_parser().parse_args(argv)
    args.ds = cli._system_dim(args)
    rng = np.random.default_rng(args.seed)
    v = cli._build_subspace(args, rng)
    return v, consistency.sample_unitaries(args.g, args.trials, v.d_s, v.d_e, rng)


@pytest.mark.parametrize("g", ["all", "local"])
def test_consistency_records_are_the_checked_unitaries(g):
    argv = ["consistency", "--family", "full", "--g", g, "--trials", "12", "--seed", "4"]
    report, _ = run(argv)
    v, checked = _checked_unitaries(argv)
    violations = [consistency.u_consistency_violation(v, u) for _, u in checked]
    assert report["summary"]["worst_violation"] == max(violations)
    # The records are the first ten of the checked set, each naming its unitary.
    assert [t["unitary"] for t in report["trials"]] == [label for label, _ in checked[:10]]
    assert [t["violation"] for t in report["trials"]] == violations[:10]


@pytest.mark.parametrize(
    "argv, n_drawn",
    [
        (("consistency", "--family", "full", "--trials", "12"), 12),
        (("consistency", "--family", "factorized", "--trials", "3"), 3),  # empty kernel
        (("theorem1", "--family", "full", "--g", "local", "--trials", "3"), 3),
        (("theorem1", "--family", "random", "--span-states", "7", "--trials", "3"), 3),
        (("demo", "1", "--trials", "3"), 1),  # the swap
        (("demo", "2", "--trials", "3"), 3),
    ],
)
def test_one_u_consistency_violation_per_drawn_unitary(monkeypatch, argv, n_drawn):
    calls, draws = [], []
    violation, sample = consistency.u_consistency_violation, consistency.sample_unitaries

    def counting_violation(v, u):
        calls.append(u)
        return violation(v, u)

    def recording_sample(*args):
        out = sample(*args)
        draws.append([u for _, u in out])
        return out

    monkeypatch.setattr(consistency, "u_consistency_violation", counting_violation)
    monkeypatch.setattr(consistency, "sample_unitaries", recording_sample)
    report, _ = run_args(*argv, "--seed", "5")
    (drawn,) = draws  # one draw per report
    assert len(drawn) == len(calls) == n_drawn
    assert all(c is d for c, d in zip(calls, drawn))
    assert all("unitary" in t for t in report["trials"])


@pytest.mark.parametrize(
    "argv",
    [("demo", "1"), ("demo", "2"), ("consistency", "--family", "factorized")],
)
def test_demo_and_empty_kernel_reports_validate(argv):
    report, code = run_args(*argv, "--trials", "3", "--seed", "6")
    assert code == 0
    jsonschema.validate(report, SCHEMA)
    if argv[0] == "consistency":
        s = report["summary"]
        assert s["dim_v0"] == 0 and s["exact"] and s["worst_violation"] == 0.0
        assert [(t["unitary"], t["violation"]) for t in report["trials"]] == [
            (f"haar_{i}", 0.0) for i in range(3)
        ]


def test_dpi_block_layout_counts_against_the_cap():
    # The Markov states run at d_a * 9 * d_e = 144 although --ds keeps its
    # default of 2 (the GHZ fixture alone would be 2 * 2 * 8 = 32).
    with pytest.raises(SystemExit, match="total dimension 144 exceeds the hard cap 64"):
        run_args("dpi", "--blocks", "3x3", "--de", "8", "--trials", "1",
                 "--unitaries-per-state", "1", "--search-draws", "1")


def test_dpi_command():
    report, code = run_args(
        "dpi", "--trials", "3", "--unitaries-per-state", "3",
        "--search-draws", "120", "--seed", "0",
    )
    assert code == 0
    assert report["summary"]["non_markov_search"]["found"]
    assert report["summary"]["markov_worst_delta"] >= -1e-9
    assert abs(report["summary"]["ghz_shift_delta"] + np.log(2)) <= 1e-12
    # The shift reaches the floor -ln k; no drawn unitary goes below it.
    best = report["summary"]["non_markov_search"]["best_delta"]
    assert best >= report["summary"]["ghz_shift_delta"] - 1e-9
    jsonschema.validate(report, SCHEMA)


@pytest.mark.parametrize(
    "dims",
    [
        (2, 2, 2), (3, 3, 3), (4, 4, 4), (2, 3, 2), (2, 2, 4), (3, 2, 2), (2, 4, 3), (4, 2, 3),
        (1, 2, 2), (1, 3, 4),  # no ancilla: delta 0
    ],
)
def test_ghz_inverse_shift_delta_is_minus_log_min_dimension(dims):
    d_a, d_s, d_e = dims
    u = cli.ghz_inverse_shift(d_s, d_e)
    assert np.allclose(u @ u.conj().T, np.eye(d_s * d_e))
    (delta,) = info.dpi_check(ghz_state(d_a, d_s, d_e), d_a, d_s, d_e, u[None])
    assert abs(delta + np.log(min(dims))) <= 1e-12


def test_dpi_verdict_does_not_hang_on_the_hunt():
    # The hunt alone finds no violation in 20 draws here; the fixed shift does.
    report, code = run_args(
        "dpi", "--blocks", "2x2,2x2", "--de", "4", "--da", "2", "--trials", "2",
        "--unitaries-per-state", "2", "--search-draws", "20", "--seed", "2024",
    )
    assert code == 0 and report["summary"]["pass"]
    assert not report["summary"]["non_markov_search"]["found"]
    assert report["summary"]["ghz_shift_delta"] < -0.01


def test_demo_reports_byte_identical_for_fixed_seed(capsys):
    texts = []
    for _ in range(2):
        code = main(["demo", "1", "--seed", "31", "--out", "/dev/null"])
        assert code == 0
    for example in ("1", "2"):
        a, _ = run_args("demo", example, "--seed", "31")
        b, _ = run_args("demo", example, "--seed", "31")
        ta = json.dumps(strip_timing(a), sort_keys=True)
        tb = json.dumps(strip_timing(b), sort_keys=True)
        assert ta == tb  # byte-identical modulo the timing field
        texts.append(ta)
    assert texts[0] != texts[1]


def test_demo1_summary_contents():
    report, code = run_args("demo", "1", "--seed", "12")
    assert code == 0
    s = report["summary"]
    assert s["dim_v"] == 13
    assert s["dim_v0"] == 9
    assert s["product_assignment_cp"]
    assert s["constant_channel_distance"] <= 1e-8


def test_demo1_kernel_dimensions_at_ds_3():
    report, code = run_args("demo", "1", "--ds", "3", "--trials", "2", "--seed", "12")
    assert code == 0
    assert report["summary"]["dim_v"] == 73  # 9 * 9 - 9 + 1
    assert report["summary"]["dim_v0"] == 64  # (9 - 1) * (9 - 1)


def demo1_constraint_by_loop(omega_e, d_s):
    """The reference: Tr_S X - tr(X) omega_E, one matrix unit at a time."""
    d_e = omega_e.shape[0]
    d = d_s * d_e
    t_s = np.zeros((d_e * d_e, d * d), dtype=complex)
    for e in range(d_e):
        for ep in range(d_e):
            for s in range(d_s):
                t_s[e * d_e + ep, (s * d_e + e) * d + (s * d_e + ep)] = 1.0
    return t_s - np.outer(omega_e.reshape(-1), np.eye(d).reshape(-1).conj())


@pytest.mark.parametrize("d_e", [2, 3])
@pytest.mark.parametrize("d_s", [2, 3, 4])
def test_demo1_constraint_matches_the_loop(d_s, d_e):
    omega_e = np.diag(np.arange(1.0, d_e + 1)).astype(complex)
    omega_e /= np.trace(omega_e)
    fast = cli.demo1_constraint(omega_e, d_s)
    assert np.array_equal(fast, demo1_constraint_by_loop(omega_e, d_s))


def test_demo2_summary_contents():
    report, code = run_args("demo", "2", "--trials", "5", "--seed", "12")
    assert code == 0
    s = report["summary"]
    assert s["dim_v0"] == 12
    assert s["canonical_assignment_cp"]
    assert s["worst_perturbation_deviation"] <= 1e-9
    assert s["maximally_mixed_distance"] <= 1e-8
    theorem = report["theorem"]
    assert theorem["premises_hold"] and theorem["conclusion_holds"]
    assert theorem["consistency"]["set"] == "local" and theorem["consistency"]["exact"]
    assert report["trials"] == theorem["per_unitary"]


@pytest.mark.parametrize("ds, de", [(2, 2), (3, 2), (2, 4)])
def test_demo2_records_are_the_system_conjugation(ds, de):
    """Oracle for the one U-independent check demo 2 makes: the reduced
    dynamics of every drawn product U_S x U_E is Ad_{U_S}, replayed from
    the seed's stream."""
    seed, trials = 12, 4
    report, code = run_args(
        "demo", "2", "--ds", str(ds), "--de", str(de), "--trials", str(trials),
        "--seed", str(seed),
    )
    assert code == 0
    assert report["summary"]["maximally_mixed_distance"] <= 1e-8
    records = report["trials"]
    assert [r["unitary"] for r in records] == [f"local_{i}" for i in range(trials)]
    drawn = consistency.sample_unitaries("local", trials, ds, de, np.random.default_rng(seed))
    v = consistency.full_space(ds, de)
    assign = consistency.canonical_assignment(v)
    rng = np.random.default_rng(seed)
    for rec, (_, u) in zip(records, drawn):
        u_s = random_haar_unitary(ds, rng)
        assert np.array_equal(u, np.kron(u_s, random_haar_unitary(de, rng)))
        psi = channels.reduced_dynamics(u, assign.mat, ds, de)
        target = channels.channel_from_function(lambda x: u_s @ x @ u_s.conj().T, ds, ds)
        assert channels.choi_distance(psi, target) <= 1e-8
        assert rec["cp"] and rec["tp"]
        assert rec["perturbation_deviation"] == consistency.u_consistency_violation(v, u)


@pytest.mark.parametrize(
    "argv", [("theorem1",), ("consistency",), ("demo", "2"), ("dpi",)]
)
def test_tol_below_the_rounding_floor_is_an_argument_error(argv, capsys):
    with pytest.raises(SystemExit):
        run_args(*argv, "--tol", "1e-20", "--trials", "1")
    assert "--tol: must be at least 1e-12, the rounding floor" in capsys.readouterr().err


def test_tol_at_the_rounding_floor_certifies_local_products():
    report, code = run_args(
        "theorem1", "--family", "full", "--g", "local", "--tol", "1e-12",
        "--trials", "3", "--seed", "1",
    )
    assert code == 0
    assert report["theorem"]["premises_hold"] and report["theorem"]["conclusion_holds"]


def test_ghz_state_is_pure_and_normalized():
    g = ghz_state()
    assert abs(g.trace() - 1.0) < 1e-12
    assert abs((g @ g).trace() - 1.0) < 1e-12


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_kernel_extended_defaults_to_local_products():
    report, code = run_args(
        "verify-family", "--family", "kernel-extended", "--trials", "2", "--seed", "3"
    )
    assert code == 0
    assert report["config"]["g"] == "local"
    assert all(t["unitary"].startswith("local_") for t in report["trials"])
    for argv in (["verify-family", "--family", "markov-blocks"], ["consistency"]):
        args = build_parser().parse_args(argv)
        assert args.g is None and cli._default_g(args) == "all"


def test_kernel_extended_with_all_unitaries_is_an_argument_error():
    with pytest.raises(SystemExit, match="--g all"):
        run_args("verify-family", "--family", "kernel-extended", "--g", "all", "--trials", "1")


@pytest.mark.parametrize(
    "argv",
    [
        ("dpi", "--g", "all"),
        ("demo", "2", "--g", "all"),
        ("demo", "1", "--blocks", "2x2"),
        ("demo", "2", "--da", "3"),
    ],
)
def test_commands_take_only_the_flags_they_read(argv, capsys):
    with pytest.raises(SystemExit):
        run_args(*argv, "--trials", "1")
    assert "unrecognized arguments" in capsys.readouterr().err


def test_demo1_runs_at_ds_by_ds():
    with pytest.raises(SystemExit, match="demo 1 runs at --ds x --ds"):
        run_args("demo", "1", "--ds", "3", "--de", "5", "--trials", "1")
    report, code = run_args("demo", "1", "--ds", "3", "--trials", "1", "--seed", "1")
    assert code == 0
    assert report["config"]["de"] == 3
    assert not {"g", "da", "blocks"} & set(report["config"])
    report, code = run_args("demo", "2", "--trials", "1", "--seed", "1")
    assert code == 0 and report["config"]["de"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("consistency", "--family", "random", "--span-states", "0"),
        ("theorem1", "--trials", "0"),
        ("dpi", "--unitaries-per-state", "0"),
        ("dpi", "--search-draws", "0"),
    ],
)
def test_non_positive_counts_are_argument_errors(argv, capsys):
    with pytest.raises(SystemExit):
        run_args(*argv)
    assert "must be at least 1, got '0'" in capsys.readouterr().err
