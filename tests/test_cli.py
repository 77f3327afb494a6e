"""CLI behavior: exit codes, report files, config merging, determinism."""

import json
import tracemalloc

import pytest

from qlease import cli, qas
from qlease.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from qlease.qmath import random_density


def test_design_check_one_qubit(capsys):
    assert main(["design-check", "--qubits", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cardinality   24" in out
    assert "frame_potential 2.000000" in out


def test_design_check_sampled_two_qubits(tmp_path):
    out = tmp_path / "fp.json"
    rc = main(
        ["design-check", "--qubits", "2", "--pairs", "200000", "--seed", "3", "--out", str(out)]
    )
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["cardinality"] == 11520
    assert abs(payload["frame_potential"] - 2.0) < 0.05


def test_design_check_two_qubits_is_exact(tmp_path):
    # the whole group through the group identity, not 11520^2 pairs
    out = tmp_path / "fp.json"
    assert main(["design-check", "--qubits", "2", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["pairs"] is None
    assert abs(payload["frame_potential"] - 2.0) < 1e-12


@pytest.mark.parametrize("qubits", ["5", "6"])
def test_design_check_sampled_beyond_int64(qubits, capsys):
    assert main(["design-check", "--qubits", qubits, "--pairs", "10", "--seed", "1"]) == EXIT_OK
    assert f"clifford-ks-q{qubits}-v1" in capsys.readouterr().out


def test_design_check_invalid_qubits_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["design-check", "--qubits", "9"])
    assert err.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "config,code",
    [({"qubits": 1}, EXIT_OK), (None, EXIT_USAGE), ({}, EXIT_USAGE), ({"qubits": 9}, EXIT_USAGE)],
    ids=["config-qubits-1", "no-config", "config-without-qubits", "config-qubits-9"],
)
def test_design_check_takes_qubits_from_config(tmp_path, capsys, monkeypatch, config, code):
    # --qubits may come from argv or from --config; missing from both, or
    # outside its choices, it is a usage error before any design is built
    argv = ["design-check"]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    if code == EXIT_USAGE:
        def refuse(*args, **kwargs):
            raise AssertionError("built before the usage check")

        monkeypatch.setattr("qlease.designs.clifford_design", refuse)
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == EXIT_OK:
        assert "cardinality   24" in captured.out
    else:
        assert captured.err.startswith("error: ")


def test_qas_verify_passes(capsys):
    assert main(["qas-verify", "--scheme", "1,1,14", "--seed", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "wrong-key-design-avg" in out
    assert "FAIL" not in out


def test_qas_verify_wrong_key_estimate_is_near_the_exact_average(monkeypatch, tmp_path):
    # at 2,1,6 the keys reach 64 indices, so the check reads the exact key
    # average; only above MAX_EXACT_INDICES reached indices does it sample
    states = []

    def recorded(qubits, rng):
        states.append(random_density(qubits, rng))
        return states[-1]

    monkeypatch.setattr(cli, "random_density", recorded)
    out = tmp_path / "qas-verify.json"
    assert main(["qas-verify", "--scheme", "2,1,6", "--seed", "1", "--out", str(out)]) == EXIT_OK
    (state,) = [s for s in states if s.qubits == 3]
    (check,) = [c for c in json.loads(out.read_text())["checks"] if c["name"] == "wrong-key-2eps-cap"]
    exact = qas.avg_wrong_key_accept(qas.build_scheme(2, 1, 6), state)
    assert check["measured"] == exact


def test_qas_verify_corruption_fails(capsys):
    rc = main(["qas-verify", "--seed", "1", "--inject-keymap-corruption"])
    assert rc == EXIT_FAIL
    assert "FAIL" in capsys.readouterr().out


def test_qas_verify_rejects_bad_scheme():
    assert main(["qas-verify", "--scheme", "3,4,14"]) == EXIT_USAGE
    assert main(["qas-verify", "--scheme", "nonsense"]) == EXIT_USAGE
    assert main(["qas-verify", "--scheme", "1,1,30"]) == EXIT_USAGE


def test_cp_run_writes_report_and_csv(tmp_path, capsys):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "rows.csv"
    args = [
        "cp",
        "--adversary",
        "trivial-forward",
        "--trials",
        "400",
        "--seed",
        "7",
        "--out",
        str(out),
        "--csv",
        str(csv_path),
    ]
    assert main(args) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["game"] == "free"
    assert payload["trials"] == 400
    assert payload["seed"] == 7
    assert 0.0 <= payload["estimate"] <= 1.0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2
    # append-safe: a second run adds one row, no second header
    assert main(args) == EXIT_OK
    assert len(csv_path.read_text().strip().splitlines()) == 3


def test_cp_reports_are_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["cp", "--adversary", "give-to-charlie", "--trials", "300", "--seed", "11"]
    assert main(base + ["--out", str(a)]) == EXIT_OK
    assert main(base + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_cp_keysearch_budget_flag(tmp_path):
    out = tmp_path / "ks.json"
    rc = main(
        ["cp", "--adversary", "keysearch", "--budget", "4", "--trials", "300", "--seed", "2", "--out", str(out)]
    )
    assert rc == EXIT_OK
    assert "keysearch-4" in json.loads(out.read_text())["adversary"]


def test_cp_keysearch_budget_defaults_to_4(tmp_path):
    out = tmp_path / "ks.json"
    assert main(["cp", "--adversary", "keysearch", "--trials", "20", "--seed", "2", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["adversary"] == "keysearch-4/point-guess"


@pytest.mark.parametrize(
    "argv,config",
    [
        (["cp", "--budget", "4"], None),
        (["cp", "--adversary", "give-to-charlie", "--budget", "16"], None),
        (["cp", "--adversary", "trivial-forward"], {"budget": 4}),
        (["cp", "--adversary", "give-to-charlie"], {"budget": 4, "adversary": "keysearch"}),
    ],
    ids=["flag-default-adversary", "flag", "config", "config-adversary-flag-wins"],
)
def test_budget_without_keysearch_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, config):
    # a budget is read only by keysearch: given with another adversary it
    # is refused before any scheme is built, not silently ignored
    def refuse(*args, **kwargs):
        raise AssertionError("built before the usage check")

    monkeypatch.setattr("qlease.qas.build_scheme", refuse)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: --budget applies to the keysearch adversary only")


def test_ssl_run(tmp_path):
    out = tmp_path / "ssl.json"
    rc = main(
        ["ssl", "--adversary", "keep-program", "--trials", "400", "--seed", "5", "--out", str(out)]
    )
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["game"] == "ssl"
    assert payload["params"]["verify_r"] == 1.0


def test_ssl_verify_r_flag(tmp_path):
    out = tmp_path / "ssl.json"
    rc = main(
        ["ssl", "--adversary", "honest-return", "--trials", "300", "--seed", "5", "--r", "0.5", "--out", str(out)]
    )
    assert rc == EXIT_OK
    assert json.loads(out.read_text())["params"]["verify_r"] == 0.5


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 250, "seed": 9, "adversary": "give-to-charlie"}))
    out = tmp_path / "rep.json"
    rc = main(["cp", "--config", str(cfg), "--seed", "10", "--out", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["trials"] == 250  # from the config
    assert payload["seed"] == 10  # flag wins
    assert "give-to-charlie" in payload["adversary"]


@pytest.mark.parametrize(
    "flags,seed,adversary",
    [
        (["--seed", "0"], 0, "give-to-charlie"),  # the default value, given
        (["--seed=0", "--adversary", "trivial-forward"], 0, "trivial-forward"),
        ([], 9, "give-to-charlie"),  # absent: the file's value
    ],
    ids=["default-value-flag", "default-value-flags", "absent"],
)
def test_config_yields_to_flags_given_at_their_default(tmp_path, capsys, flags, seed, adversary):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9, "trials": 20, "adversary": "give-to-charlie"}))
    assert main(["cp", "--config", str(cfg), "--json", *flags]) == EXIT_OK
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{") :])
    assert payload["seed"] == seed
    assert payload["trials"] == 20
    assert adversary in payload["adversary"]


def test_config_unknown_key_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no-such-option": 1}))
    assert main(["cp", "--config", str(cfg)]) == EXIT_USAGE


def test_unreadable_config_is_usage_error(tmp_path, capsys):
    assert main(["cp", "--config", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: cannot read config")


@pytest.mark.parametrize(
    "command,config,code",
    [
        ("cp", {"seed": "x"}, EXIT_USAGE),
        ("cp", {"budget": "3", "adversary": "keysearch"}, EXIT_USAGE),
        ("cp", {"trials": 1.5}, EXIT_USAGE),
        ("ssl", {"trials": 20, "r": 1, "json": True, "adversary": "keep-program"}, EXIT_OK),
        ("cp", [20], EXIT_USAGE),
    ],
    ids=["str-seed", "str-budget", "float-trials", "valid", "non-object"],
)
def test_config_values_take_the_option_types(tmp_path, capsys, command, config, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == code
    captured = capsys.readouterr()
    if code == EXIT_USAGE:
        assert captured.err.startswith("error: ")
        return
    payload = json.loads(captured.out[captured.out.index("{") :])
    assert payload["trials"] == 20
    assert "keep-program" in payload["adversary"]
    # an integer for a float option is typed as the parser types it
    assert type(payload["params"]["verify_r"]) is float


def test_invalid_trials_usage_error():
    assert main(["cp", "--trials", "0"]) == EXIT_USAGE


def test_invalid_r_usage_error():
    assert main(["cp", "--r", "0.2"]) == EXIT_USAGE
    assert main(["ssl", "--r", "1.5"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["cp", "--adversary", "keysearch", "--budget", "0"],
        ["cp", "--adversary", "keysearch", "--budget", "65"],
        ["design-check", "--qubits", "1", "--pairs", "0"],
        ["design-check", "--qubits", "1", "--pairs", "-5"],
        ["design-check", "--qubits", "6", "--pairs", "1000001"],
        ["cp", "--seed", "-1"],
        ["ssl", "--seed", "-1"],
        ["qas-verify", "--seed", "-1"],
        ["design-check", "--qubits", "1", "--seed", "-1"],
        ["suite", "--seed", "-1"],
        ["ssl", "--r", "1.5"],
        ["design-check", "--qubits", "4"],
        ["cp", "--scheme", "0,1,6"],
    ],
    ids=" ".join,
)
def test_out_of_range_values_are_usage_errors(argv, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built before the usage check")

    monkeypatch.setattr("qlease.qas.build_scheme", refuse)
    monkeypatch.setattr("qlease.designs.clifford_enumerate", refuse)
    monkeypatch.setattr("qlease.designs.clifford_design", refuse)
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_huge_pair_count_is_refused_before_drawing(capsys, monkeypatch):
    # frame_potential draws every pair's indices up front: 2 * 10^9 pairs
    # would ask for tens of GB; the cap admits 10^6 and refuses the rest
    # with exit 2, no traceback, before anything is drawn
    tracemalloc.start()
    try:
        code = main(["design-check", "--qubits", "6", "--pairs", "2000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "Traceback" not in err
    assert peak < 1 << 20
    monkeypatch.setattr("qlease.designs.frame_potential", lambda design, samples, rng: 2.0)
    assert main(["design-check", "--qubits", "1", "--pairs", str(cli.MAX_PAIRS)]) == EXIT_OK


@pytest.mark.parametrize(
    "flag,is_directory",
    [("--out", False), ("--csv", False), ("--out", True), ("--csv", True)],
    ids=["--out", "--csv", "--out-directory", "--csv-directory"],
)
def test_missing_output_directory_is_usage_error(flag, is_directory, tmp_path, capsys, monkeypatch):
    # a path whose directory is missing, or a path that is a directory
    def refuse(*args, **kwargs):
        raise AssertionError("built before the usage check")

    monkeypatch.setattr("qlease.qas.build_scheme", refuse)
    target = tmp_path if is_directory else tmp_path / "missing" / "report"
    argv = ["cp", "--scheme", "1,1,6", "--trials", "3", flag, str(target)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag,writer",
    [("--out", "pathlib.Path.write_text"), ("--csv", "qlease.games.append_csv")],
    ids=["--out", "--csv"],
)
def test_unwritable_output_is_usage_error(flag, writer, tmp_path, capsys, monkeypatch):
    # a file the OS refuses once the game has run: exit 2 with one line,
    # not a traceback under exit 1, the criterion-failed code
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(writer, refuse)
    argv = ["cp", "--scheme", "1,1,6", "--trials", "3", flag, str(tmp_path / "report")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: cannot write ") and err.endswith("Permission denied\n")


@pytest.mark.parametrize("flag", ["--out", "--csv"])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_unwritable_output_is_found_before_the_game_runs(flag, existing, tmp_path, capsys, monkeypatch):
    # it was once found only after the whole run, when the report was written
    def refuse_open(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    def refuse_run(*args, **kwargs):
        raise AssertionError("the game ran before the usage check")

    target = tmp_path / "report"
    if existing:
        target.write_text("kept\n")
    monkeypatch.setattr("pathlib.Path.open", refuse_open)
    monkeypatch.setattr("qlease.games.run_experiment_free", refuse_run)
    assert main(["cp", "--scheme", "1,1,6", "--trials", "3", flag, str(target)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: cannot write ") and err.endswith("Permission denied\n")
    monkeypatch.undo()
    assert [p.read_text() for p in tmp_path.iterdir()] == (["kept\n"] if existing else [])


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_the_early_open_leaves_no_new_file_behind_a_later_usage_error(flag, tmp_path):
    # the path is opened before the command's own checks; a budget above
    # 2^k is refused after it, and must not leave an empty report
    target = tmp_path / "report"
    argv = ["cp", "--scheme", "1,1,6", "--adversary", "keysearch", "--budget", "65", flag, str(target)]
    assert main(argv) == EXIT_USAGE
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["cp", "--trials", "20"],
        ["ssl", "--trials", "20"],
        ["qas-verify", "--scheme", "1,1,6"],
        ["design-check", "--qubits", "1"],
        ["suite", "--trials", "20"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_flag_prints_only_the_report(argv, capsys):
    main([*argv, "--seed", "1", "--json"])
    captured = capsys.readouterr()
    json.loads(captured.out)
    assert captured.err  # the human-readable lines


def test_suite_json_outputs_are_byte_identical(tmp_path, capsys):
    # low trial count: some statistical criteria may fail, which is fine;
    # the point is that same-seed runs serialize identically, with or
    # without --timings, whose lines go to stderr only
    a, b = tmp_path / "s1.json", tmp_path / "s2.json"
    base = ["suite", "--seed", "4", "--trials", "400"]
    main(base + ["--out", str(a)])
    assert capsys.readouterr().err == ""
    main(base + ["--timings", "--out", str(b)])
    timed = [line.split()[1] for line in capsys.readouterr().err.splitlines()]
    assert timed[:3] == ["zoo-games", "keysearch-games", "qas-correctness"]
    assert timed[-1] == "determinism"
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert [c["name"] for c in payload][:2] == ["qas-correctness", "wrong-key-bound"]
    assert all(set(c) == {"name", "measured", "bound", "pass"} for c in payload)
