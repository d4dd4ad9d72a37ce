import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import numpy as np

from cpdyn import channels, cli, consistency, families, info
from cpdyn.cli import build_parser, ghz_state, main, run
from cpdyn.tensor import random_haar_unitary
from trial_oracle import labelled, trial_rng

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "report.schema.json").read_text()
)


def run_args(*argv):
    return run(list(argv))


@pytest.fixture(autouse=True)
def reports_are_written_as_json_dumps(monkeypatch):
    """Every report a test here writes, printed or to ``--out``, is the text
    ``json.dumps`` gives the dict ``run`` returns."""
    original = cli._report_text

    def checked(report):
        text = original(report)
        assert text == json.dumps(report, sort_keys=True, indent=2)
        return text

    monkeypatch.setattr(cli, "_report_text", checked)


def refusal(capsys, *argv) -> str:
    """The stderr of a run the CLI refuses as a usage error, with exit code 2."""
    with pytest.raises(SystemExit) as exc:
        run_args(*argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


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


@pytest.mark.parametrize("family", cli.FAMILY_CHOICES)
def test_verify_family_names_its_assignment_form(family):
    # Every family's span is a Markov-block layout, whose assignment is built
    # from per-block Kraus operators: CP by construction.
    report, code = run_args("verify-family", "--family", family, "--trials", "2", "--g", "local")
    assert code == 0
    assert report["summary"]["assignment"] == "kraus"
    assert all(t["assignment_cp"] for t in report["trials"])
    jsonschema.validate(report, SCHEMA)


# One family check of verify-family, broken on the first trial of a stack:
# the family, the function whose output the check reads, and the change.
BROKEN_CHECKS = {
    "construction_choi_distance": (
        "factorized", channels, "product_dynamics_choi", lambda c: c + 1e-6
    ),
    "kraus_closure_error": ("factorized", channels, "kraus_factorized", lambda k: k * 1.001),
    "structure_residual": ("markov-blocks", families, "structure_fit", lambda r: r + 1e-6),
    "steered_in_span": ("steered", consistency._MarkovBlockSpace, "contains", lambda _: False),
}


@pytest.mark.parametrize(
    "family, owner, name, change", BROKEN_CHECKS.values(), ids=list(BROKEN_CHECKS)
)
def test_verify_family_fails_on_a_broken_family_check(monkeypatch, family, owner, name, change):
    argv = ("verify-family", "--family", family, "--trials", "3", "--seed", "5")
    clean, code = run_args(*argv)
    assert code == 0 and clean["summary"]["n_pass"] == 3
    original = getattr(owner, name)

    def first_broken(*args, **kwargs):
        out = np.array(original(*args, **kwargs))
        out[0] = change(out[0])
        return out

    monkeypatch.setattr(owner, name, first_broken)
    report, code = run_args(*argv)
    assert code == 1
    assert report["summary"]["pass"] is False
    assert report["summary"]["n_pass"] == 2
    # Only the family check moved: every trial's reduced dynamics is CP and TP.
    assert all(t["cp"] and t["tp"] for t in report["trials"])


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


def test_default_seed_ignores_the_environment(monkeypatch):
    monkeypatch.setenv("CPDYN_SEED", "99")
    report, _ = run_args("verify-family", "--family", "factorized", "--trials", "2")
    assert report["config"]["seed"] == 2024


def test_dimension_cap_aborts(capsys):
    err = refusal(capsys, "verify-family", "--family", "factorized", "--ds", "9", "--de", "9",
                  "--trials", "1")
    assert "error: total dimension 81 exceeds the hard cap 64" in err


@pytest.mark.parametrize("command", ["consistency", "theorem1"])
def test_steered_block_layout_counts_against_the_cap(command, capsys):
    # --blocks 3x3 gives d_s = 9, so the run would be at 9 * 8 = 72 > 64
    # although --ds keeps its default of 2.
    err = refusal(capsys, command, "--family", "steered", "--blocks", "3x3", "--de", "8",
                  "--g", "local", "--trials", "1")
    assert "error: total dimension 72 exceeds the hard cap 64" in err


@pytest.mark.parametrize("command", ["verify-family", "consistency", "theorem1"])
def test_steered_checks_the_ancilla_dimension(command, capsys):
    err = refusal(capsys, command, "--family", "steered", "--da", "0", "--trials", "1")
    assert "error: argument --da: must be at least 1, got '0'" in err
    # S x E is 16 but the steered state on A x S x E is 256.
    err = refusal(capsys, command, "--family", "steered", "--da", "16", "--blocks", "2x2",
                  "--de", "4", "--trials", "1")
    assert "error: total dimension 256 exceeds the hard cap 64" in err


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
    a = trial_rng(2025, 0).normal(size=3)
    b = trial_rng(2024, 1).normal(size=3)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-family", "--family", "markov-blocks"),
        ("consistency", "--family", "steered"),
        ("theorem1", "--family", "markov-blocks"),
    ],
)
def test_swap_with_unequal_dimensions_is_an_argument_error(argv, capsys):
    err = refusal(capsys, *argv, "--g", "swap", "--trials", "1")
    assert "error: --g swap needs equal system and environment dimensions" in err


def test_swap_with_unequal_dimensions_is_refused_before_any_work(monkeypatch, capsys):
    builds = []
    build_subspace = cli._build_subspace

    def counting_build_subspace(*args):
        builds.append(args)
        return build_subspace(*args)

    monkeypatch.setattr(cli, "_build_subspace", counting_build_subspace)
    argv = ("consistency", "--family", "random", "--ds", "2", "--de", "4", "--g", "swap")
    err = refusal(capsys, *argv)
    assert "error: --g swap needs equal system and environment dimensions" in err
    assert builds == []


@pytest.mark.parametrize("command", ["verify-family", "consistency", "theorem1"])
def test_kernel_extended_builds_no_full_space(monkeypatch, command):
    # The extra directions are drawn by projection, so no report factors the
    # full operator space, and the span of the base is a Markov-block span,
    # whose empty kernel is a closed form: no report factors anything.
    full_spaces, svds = [], []
    full_space, svd = consistency.full_space, np.linalg.svd

    def counting_full_space(*args):
        full_spaces.append(args)
        return full_space(*args)

    def counting_svd(a, *args, **kwargs):
        svds.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(cli, "full_space", counting_full_space)
    monkeypatch.setattr(consistency, "full_space", counting_full_space)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    report, code = run_args(
        command, "--family", "kernel-extended", "--trials", "4", "--seed", "5", "--g", "local"
    )
    assert code == 0
    assert full_spaces == []
    assert svds == []


@pytest.mark.parametrize(
    "argv, dim_v0",
    [
        (("theorem1", "--family", "full"), 12),
        (("consistency", "--family", "full"), 12),
        (("demo", "2"), 12),
        (("demo", "1", "--ds", "3"), 64),
        (("demo", "1", "--ds", "8"), 63 * 63),
    ],
    ids=["theorem1", "consistency", "demo-2", "demo-1-ds3", "demo-1-ds8"],
)
def test_full_space_commands_factor_nothing(monkeypatch, argv, dim_v0):
    # The violation, canonical assignment and dim V0 of the full space and
    # of demo 1's space are closed forms: no SVD, no kernel basis, no
    # identity or constraint basis.
    spaces, svds = [], []
    full_space, svd = consistency.full_space, np.linalg.svd

    def recording_full_space(*args):
        spaces.append(full_space(*args))
        return spaces[-1]

    def counting_svd(a, *args, **kwargs):
        svds.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(cli, "full_space", recording_full_space)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(consistency, "subspace_from_constraint", None)
    report, code = run_args(*argv, "--trials", "3", "--seed", "5")
    assert code == 0 or argv[0] == "consistency"  # Haar draws are not consistent on L(S x E)
    assert report["summary"]["dim_v0"] == dim_v0
    assert svds == []
    assert len(spaces) == 1 and "basis" not in vars(spaces[0])
    assert not hasattr(cli, "subspace_from_constraint") and not hasattr(cli, "kernel_tr_e")


def _checked_unitaries(argv):
    """A consistency report's subspace and checked unitaries, replayed: the
    subspace, then the chunks of `--trials` unitaries from the seed stream."""
    args = build_parser().parse_args(argv)
    args.ds = cli._system_dim(args)
    rng = np.random.default_rng(args.seed)
    v = cli._build_subspace(args, rng)
    return v, labelled(consistency.sample_unitaries(args.g, args.trials, v, rng))


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
    # One call per drawn chunk, on its stack: every drawn unitary is
    # checked once, in draw order.
    calls, draws = [], []
    violation, sample = consistency.u_consistency_violation, consistency.sample_unitaries

    def counting_violation(v, us):
        calls.append(us)
        return violation(v, us)

    def recording_sample(*args):
        draws.append([])
        for chunk in sample(*args):
            draws[-1].append(chunk)
            yield chunk

    monkeypatch.setattr(consistency, "u_consistency_violation", counting_violation)
    monkeypatch.setattr(consistency, "sample_unitaries", recording_sample)
    report, _ = run_args(*argv, "--seed", "5")
    (drawn,) = draws  # one draw per report
    assert len(calls) == len(drawn) and all(c is us for c, (_, us) in zip(calls, drawn))
    assert sum(len(us) for _, us in drawn) == n_drawn
    labels = [label for chunk, _ in drawn for label in chunk]
    shown = 10 if argv[0] == "consistency" else None  # consistency records the first ten
    assert [t["unitary"] for t in report["trials"]] == labels[:shown]


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


def test_dpi_block_layout_counts_against_the_cap(capsys):
    # The Markov states run at d_a * 9 * d_e = 144 although --ds keeps its
    # default of 2 (the GHZ fixture alone would be 2 * 2 * 8 = 32).
    err = refusal(capsys, "dpi", "--blocks", "3x3", "--de", "8", "--trials", "1",
                  "--unitaries-per-state", "1", "--search-draws", "1")
    assert "error: total dimension 144 exceeds the hard cap 64" in err


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
    v = consistency.full_space(ds, de)
    drawn = labelled(consistency.sample_unitaries("local", trials, v, np.random.default_rng(seed)))
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


def test_kernel_extended_with_all_unitaries_is_an_argument_error(capsys):
    err = refusal(capsys, "verify-family", "--family", "kernel-extended", "--g", "all",
                  "--trials", "1")
    assert "error: --g all voids the kernel freedom of kernel-extended" in err


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


def test_demo1_runs_at_ds_by_ds(capsys):
    err = refusal(capsys, "demo", "1", "--ds", "3", "--de", "5", "--trials", "1")
    assert "error: demo 1 runs at --ds x --ds; --de must equal --ds" in err
    report, code = run_args("demo", "1", "--ds", "3", "--trials", "1", "--seed", "1")
    assert code == 0
    assert report["config"]["de"] == 3
    assert not {"g", "da", "blocks"} & set(report["config"])
    report, code = run_args("demo", "2", "--trials", "1", "--seed", "1")
    assert code == 0 and report["config"]["de"] == 2


@pytest.mark.parametrize(
    "argv, ds",
    [
        (("verify-family", "--family", "markov-blocks"), 4),
        (("verify-family", "--family", "kernel-extended", "--blocks", "1x1,2x1"), 3),
        (("consistency", "--family", "steered"), 4),
        (("consistency", "--family", "mixed-direct-sum", "--blocks", "2x1,1x3"), 5),
        (("theorem1", "--family", "direct-sum", "--blocks", "3x1"), 3),
    ],
)
def test_block_families_refuse_a_ds_other_than_their_layout_size(argv, ds, capsys):
    family = argv[2]
    err = refusal(capsys, *argv, "--ds", str(ds + 1), "--trials", "1")
    assert f"error: --family {family} runs at d_s = {ds} from --blocks; --ds must equal it" in err
    # An equal --ds is accepted and gives the default's report, config_hash too.
    default, code = run_args(*argv, "--trials", "1", "--seed", "1")
    equal, code_equal = run_args(*argv, "--ds", str(ds), "--trials", "1", "--seed", "1")
    assert code == code_equal == 0 and default["config"]["ds"] == ds
    assert strip_timing(equal) == strip_timing(default)


@pytest.mark.parametrize("command", ["verify-family", "consistency", "theorem1"])
def test_ds_defaults_to_two_outside_the_block_families(command):
    report, code = run_args(command, "--family", "factorized", "--trials", "1", "--seed", "1")
    assert code == 0 and report["config"]["ds"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("consistency", "--family", "random", "--span-states", "0"),
        ("theorem1", "--trials", "0"),
        ("dpi", "--unitaries-per-state", "0"),
        ("dpi", "--search-draws", "0"),
        ("verify-family", "--family", "factorized", "--ds", "0"),
        ("demo", "2", "--de", "0"),
        ("dpi", "--da", "0"),
    ],
)
def test_non_positive_counts_are_argument_errors(argv, capsys):
    with pytest.raises(SystemExit):
        run_args(*argv)
    assert "must be at least 1, got '0'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-family", "--family", "factorized"),
        ("consistency",),
        ("theorem1",),
        ("dpi",),
        ("demo", "2"),
    ],
)
def test_negative_seed_is_an_argument_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_args(*argv, "--seed", "-5", "--trials", "1")
    assert exc.value.code == 2
    assert "--seed: must be at least 0, got '-5'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["consistency", "theorem1"])
@pytest.mark.parametrize("tol", ["inf", "1e400", "nan"])
def test_non_finite_tol_is_an_argument_error(command, tol, capsys):
    # An infinite tolerance would pass any violation.
    argv = (command, "--family", "full", "--g", "all", "--trials", "1", "--tol", tol)
    with pytest.raises(SystemExit) as exc:
        run_args(*argv)
    assert exc.value.code == 2
    assert f"--tol: must be at least 1e-12, the rounding floor, and finite, got '{tol}'" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("demo", "2", "--trials", "abc"), "--trials: expected an integer, got 'abc'"),
        (("theorem1", "--seed", "1.5"), "--seed: expected an integer, got '1.5'"),
        (("dpi", "--tol", "abc"), "--tol: expected a number, got 'abc'"),
        (("demo", "2", "--ds", "abc"), "--ds: expected an integer, got 'abc'"),
    ],
)
def test_malformed_numbers_are_argument_errors_that_name_no_parser(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run_args(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "_positive_int" not in err and "_nonnegative_int" not in err
    assert "_tolerance" not in err and "invalid" not in err


# summary.outcome names the case a theorem1 or demo report falls in; pass
# and the exit code read as before, so a vacuous report still passes.

@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("g", ["local", "all"])
@pytest.mark.parametrize("family", ["steered", "random"])
def test_a_non_cp_canonical_assignment_reads_vacuous(family, g, seed):
    report, code = run_args(
        "theorem1", "--family", family, "--g", g, "--trials", "5", "--seed", str(seed)
    )
    s = report["summary"]
    assert code == 0 and s["pass"] and not s["premises_hold"]
    assert s["outcome"] == "vacuous" and "assignment_cp" in s["failed_premises"]
    jsonschema.validate(report, SCHEMA)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_an_inconsistent_full_space_reads_vacuous(seed):
    report, code = run_args("theorem1", "--family", "full", "--g", "all", "--trials", "5",
                            "--seed", str(seed))
    s = report["summary"]
    assert code == 0 and s["pass"]
    assert s["outcome"] == "vacuous" and s["failed_premises"] == ["consistency"]


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem1", "--family", "markov-blocks", "--g", "all"],
        ["theorem1", "--family", "markov-blocks", "--blocks", "2x2,2x2", "--de", "8", "--g", "local"],
        ["demo", "1"],
        ["demo", "2"],
    ],
    ids=" ".join,
)
def test_markov_blocks_and_the_demos_read_holds(argv):
    report, code = run_args(*argv, "--trials", "3", "--seed", "1")
    s = report["summary"]
    assert code == 0 and s["pass"]
    assert s["outcome"] == "holds" and s["failed_premises"] == []
    jsonschema.validate(report, SCHEMA)


def test_a_non_cp_record_under_true_premises_is_a_counterexample(monkeypatch):
    # The canonical assignment of a markov-blocks span, CP by construction,
    # with its reduced channel for the first unitary checked replaced by
    # the transpose, which is not CP.
    canonical = consistency.canonical_assignment

    def patched(v):
        assign = canonical(v)
        reduced = assign.reduced

        def first_transposed(u=None):
            psi = reduced(u)
            if u is None:
                return psi
            d = psi.d_in
            flip = np.eye(d * d).reshape(d, d, d, d).swapaxes(0, 1).reshape(d * d, d * d)
            mat = psi.mat.copy()
            mat[0] = flip
            return channels.ChannelMap(d, d, mat)

        assign.reduced = first_transposed
        return assign

    monkeypatch.setattr(consistency, "canonical_assignment", patched)
    report, code = run_args("theorem1", "--family", "markov-blocks", "--trials", "3", "--seed", "1")
    s = report["summary"]
    assert code == 1 and not s["pass"] and s["premises_hold"]
    assert s["outcome"] == "counterexample" and s["failed_premises"] == []
    assert [t["cp"] for t in report["trials"]] == [False, True, True]


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | st.text()
)
FLAT_DICTS = st.dictionaries(st.text(), SCALARS, min_size=1, max_size=4)
JSON = st.recursive(
    SCALARS | FLAT_DICTS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4)
    | st.lists(FLAT_DICTS, min_size=1, max_size=4)
    | st.lists(FLAT_DICTS | children, max_size=4),
    max_leaves=30,
)


@seed(20161228)
@settings(max_examples=300, deadline=None, database=None)
@given(JSON)
def test_report_text_is_json_dumps_with_indent(obj):
    # Nested and empty containers, tuples, records among other items, escapes
    # and non-ASCII text, NaN, infinities, -0.0, ints past 64 bits, None.
    assert cli._report_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "text", ["}", "},\n      {", "\n", "\u2028", '"},', "\x00\x1f"], ids=repr
)
def test_report_text_keeps_record_boundaries_inside_strings(text):
    records = [{"a": text, "b": 1}, {"a": 2.5, text: None}, {"c": text}]
    report = {"trials": records, "summary": {"pass": True, "note": text}}
    assert cli._report_text(report) == json.dumps(report, sort_keys=True, indent=2)
