import json

import numpy as np
import pytest

from bellkit import cli, criteria, optimize, qstate, symstate, verification
from bellkit.bellop import ghz_optimal_settings

from conftest import ghz_pure


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# stdout of `certify --estimate` on the Werner-GHZ n=5 state below, recorded
# when the estimator began to draw each term's even-parity count as one
# binomial (the config echo holds only the keys certify reads)
WERNER5_ESTIMATE_STDOUT = """\
{
  "certificate": {
    "E": 6.014,
    "certified_entangled": 5,
    "epsilon": 0.11794381446979676,
    "flags": [],
    "max_consistent_independent": 0,
    "n": 5,
    "thresholds": [
      8.0,
      5.656854249492381,
      4.0,
      2.8284271247461903,
      2.0,
      1.4142135623730951
    ]
  },
  "config": {
    "command": "certify",
    "estimate": true,
    "format": "json",
    "seed": 11,
    "settings": "settings.json",
    "shots": 2000,
    "state": "state.json"
  },
  "estimate": {
    "E": 6.014,
    "stderr": 0.02948595361744919
  }
}
"""


# stdout of `criteria --which distribute`, recorded before measure_sample
# read its marginal and branch from one contraction of the measured qubits
# (the config echo holds only the keys criteria reads)
DISTRIBUTE_STDOUT = {
    ("6", "3", "200", "101"): """\
{
  "config": {
    "command": "criteria",
    "format": "json",
    "k": 3,
    "n": 6,
    "seed": 101,
    "trials": 200,
    "which": "distribute"
  },
  "report": {
    "k": 3,
    "n": 6,
    "passed": true,
    "trials": 200,
    "worst_fidelity_error": 2.220446049250313e-16,
    "x_passes": 200,
    "z_passes": 200
  }
}
""",
    ("8", "5", "300", "4"): """\
{
  "config": {
    "command": "criteria",
    "format": "json",
    "k": 5,
    "n": 8,
    "seed": 4,
    "trials": 300,
    "which": "distribute"
  },
  "report": {
    "k": 5,
    "n": 8,
    "passed": true,
    "trials": 300,
    "worst_fidelity_error": 2.220446049250313e-16,
    "x_passes": 300,
    "z_passes": 300
  }
}
""",
}


def run_estimate(capsys, tmp_path, monkeypatch, state, n):
    """`certify --estimate` at seed 11, 2000 shots, GHZ-optimal settings,
    with relative file names so the echoed configuration is fixed."""
    monkeypatch.chdir(tmp_path)
    qstate.save_state("state.json", state)
    ghz_optimal_settings(n).save("settings.json")
    return run_cli(capsys, "certify", "--estimate", "--state", "state.json",
                   "--settings", "settings.json", "--shots", "2000", "--seed", "11")


class TestBellmax:
    def test_n2(self, capsys):
        code, out, _ = run_cli(capsys, "bellmax", "--n", "2", "--restarts", "6",
                               "--seed", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["best_value"] == pytest.approx(2**1.5, abs=1e-6)
        assert obj["deviation"] < 1e-6
        assert obj["config"]["n"] == 2

    def test_n1_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bellmax", "--n", "1")
        assert code == 2
        assert err == "error: n must be in [2, 10], got 1\n"

    def test_byte_identical_rerun(self, capsys):
        args = ("bellmax", "--n", "2", "--restarts", "4", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        counts = json.loads(out1)["restart_status"]
        assert set(counts) == {"converged", "stalled", "capped"}
        assert sum(counts.values()) == 4

    def test_negative_seed_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "bellmax", "--n", "3", "--seed", "-2")
        assert code == 2
        assert out == ""
        assert err == "error: seed must be at least 0, got -2\n"

    @pytest.mark.parametrize("flag,value", [("--restarts", "0"), ("--restarts", "-1"),
                                            ("--tol", "nan"), ("--tol", "inf"),
                                            ("--tol", "0")])
    def test_bad_restarts_or_tol_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "bellmax", "--n", "2", flag, value)
        assert code == 2
        assert out == ""
        assert flag[2:] in err


class TestCertify:
    def test_exact_mode(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--n", "3", "--E", "2.5")
        assert code == 0
        obj = json.loads(out)
        assert obj["certificate"]["certified_entangled"] == 2

    def test_exceeds_bound_flag(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--n", "3", "--E", "4.5")
        assert code == 0
        obj = json.loads(out)
        assert obj["certificate"]["flags"] == ["exceeds_quantum_bound"]

    def test_negative_value_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "certify", "--n", "3", "--E", "-1.0")
        assert code == 2

    def test_missing_file_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "certify", "--estimate",
                               "--state", str(tmp_path / "none.json"),
                               "--settings", str(tmp_path / "none2.json"))
        assert code == 2
        assert "missing file" in err

    def test_estimate_mode_certifies_ghz4(self, capsys, tmp_path):
        state_file = tmp_path / "ghz4.json"
        settings_file = tmp_path / "settings.json"
        qstate.save_state(state_file, ghz_pure(4))
        ghz_optimal_settings(4).save(settings_file)
        code, out, _ = run_cli(capsys, "certify", "--estimate",
                               "--state", str(state_file),
                               "--settings", str(settings_file),
                               "--shots", "20000", "--seed", "12")
        assert code == 0
        obj = json.loads(out)
        assert obj["estimate"]["E"] == pytest.approx(2**2.5, abs=0.05)
        assert obj["certificate"]["certified_entangled"] == 4

    def test_estimate_replays_werner5_byte_for_byte(self, capsys, tmp_path, monkeypatch):
        ghz = ghz_pure(5).amp
        rho = 0.75 * np.outer(ghz, ghz.conj()) + 0.25 * np.eye(32) / 32
        code, out, _ = run_estimate(capsys, tmp_path, monkeypatch,
                                    qstate.DensityMatrix(5, rho), 5)
        assert code == 0
        assert out == WERNER5_ESTIMATE_STDOUT

    def test_estimate_replays_ghz6(self, capsys, tmp_path, monkeypatch):
        code, out, _ = run_estimate(capsys, tmp_path, monkeypatch, ghz_pure(6), 6)
        assert code == 0
        assert json.loads(out)["estimate"] == {"E": 11.339749999999999,
                                                    "stderr": 0.031548016695645296}

    def test_estimate_negative_seed_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        qstate.save_state("state.json", ghz_pure(3))
        ghz_optimal_settings(3).save("settings.json")
        code, out, err = run_cli(capsys, "certify", "--estimate", "--state", "state.json",
                                 "--settings", "settings.json", "--seed", "-3")
        assert code == 2
        assert out == ""
        assert err == "error: seed must be at least 0, got -3\n"

    def test_estimate_non_finite_state_usage_error(self, capsys, tmp_path):
        state_file = tmp_path / "nan.json"
        settings_file = tmp_path / "settings.json"
        state_file.write_text('{"n": 2, "amp": [[NaN, 0], [1, 0], [0, 0], [1, 0]]}')
        ghz_optimal_settings(2).save(settings_file)
        code, out, err = run_cli(capsys, "certify", "--estimate",
                                 "--state", str(state_file),
                                 "--settings", str(settings_file))
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_csv_thresholds(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--n", "3", "--E", "2.5",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,bound"
        assert len(lines) == 5


class TestCriteria:
    def test_fragility_ghz5(self, capsys, tmp_path):
        path = tmp_path / "ghz5.json"
        qstate.save_state(path, ghz_pure(5))
        code, out, _ = run_cli(capsys, "criteria", "--which", "fragility",
                               "--state", str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["report"]["fragility"] == pytest.approx(15.0, abs=1e-10)
        assert obj["report"]["is_maximal"] is True

    def test_mm_state_file(self, capsys, tmp_path):
        path = tmp_path / "psi62.json"
        symstate.save_sym(path, symstate.SymState(6, [-3, 0, 1, 0, 1, 0, -3]))
        code, out, _ = run_cli(capsys, "criteria", "--which", "mm",
                               "--state", str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["report"]["residual"] < 1e-9

    def test_mutinfo_ghz4(self, capsys, tmp_path):
        path = tmp_path / "ghz4.json"
        qstate.save_state(path, ghz_pure(4))
        code, out, _ = run_cli(capsys, "criteria", "--which", "mutinfo",
                               "--state", str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["report"]["mutual_information_bits"] == pytest.approx(3.0, abs=1e-10)

    def test_distribute(self, capsys):
        code, out, _ = run_cli(capsys, "criteria", "--which", "distribute",
                               "--n", "3", "--k", "1", "--trials", "20",
                               "--seed", "5")
        assert code == 0
        obj = json.loads(out)
        assert obj["report"]["passed"] is True

    @pytest.mark.parametrize("n,k,trials,seed", list(DISTRIBUTE_STDOUT))
    def test_distribute_replays_byte_for_byte(self, capsys, n, k, trials, seed):
        code, out, _ = run_cli(capsys, "criteria", "--which", "distribute", "--n", n,
                               "--k", k, "--trials", trials, "--seed", seed)
        assert code == 0
        assert out == DISTRIBUTE_STDOUT[(n, k, trials, seed)]

    def test_distribute_echoes_default_trials(self, capsys):
        code, out, _ = run_cli(capsys, "criteria", "--which", "distribute", "--n", "3",
                               "--k", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["config"]["trials"] == obj["report"]["trials"] == 200

    @pytest.mark.parametrize("which", ["fragility", "mutinfo", "mm"])
    def test_without_state_usage_error(self, capsys, which):
        code, out, err = run_cli(capsys, "criteria", "--which", which)
        assert (code, out, err) == (2, "", "error: criteria needs --state\n")

    def test_distribute_negative_trials_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "criteria", "--which", "distribute",
                             "--n", "3", "--k", "1", "--trials", "-5")
        assert code == 2

    def test_malformed_state_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "amp": "nope"}')
        code, _, _ = run_cli(capsys, "criteria", "--which", "fragility",
                             "--state", str(path))
        assert code == 2

    def test_unknown_which(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "criteria", "--which", "bogus")
        assert exc.value.code == 2


class TestBasis:
    def test_ghz4_to_x_even_labels(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--n", "4", "--to", "x")
        assert code == 0
        obj = json.loads(out)
        plus = obj["tables"][0]
        coeffs = plus["output"]["coeff"]
        assert [c for i, c in enumerate(coeffs) if i % 2 == 0] == ["2", "2", "2"]
        assert [c for i, c in enumerate(coeffs) if i % 2 == 1] == ["0", "0"]
        assert plus["scale"] == "1/16"

    def test_ghz2_minus_to_y(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--n", "2", "--to", "y")
        assert code == 0
        obj = json.loads(out)
        minus = obj["tables"][1]
        assert minus["output"]["coeff"] == ["2", "0", "-2"]

    def test_state_file_conversion(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        symstate.save_sym(path, symstate.SymState(3, [0, 1, 0, 0]))
        code, out, _ = run_cli(capsys, "basis", "--state", str(path), "--to", "x")
        assert code == 0
        obj = json.loads(out)
        table = obj["tables"][0]
        converted = symstate.sym_from_json(table["output"])
        lhs = symstate.embed_vector(symstate.SymState(3, [0, 1, 0, 0]))
        from fractions import Fraction
        rhs = float(Fraction(table["scale"])) * symstate.embed_vector(converted)
        assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_y_scale_is_the_embedding_ratio(self, capsys, n):
        # the closed form sign (2i)^n against the ratio of the embedded
        # y-form to the embedded GHZ state at their largest entry
        code, out, _ = run_cli(capsys, "basis", "--n", str(n), "--to", "y")
        assert code == 0
        for table, sign in zip(json.loads(out)["tables"], (1, -1)):
            vy = symstate.embed_vector(symstate.ghz_y_form(n, sign))
            vg = symstate.embed_vector(symstate.ghz(n, sign))
            idx = int(np.argmax(np.abs(vg)))
            ratio = vy[idx] / vg[idx]
            assert table["scale"] == f"{ratio.real:+g}{ratio.imag:+g}i"

    def test_general_y_unsupported(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        symstate.save_sym(path, symstate.SymState(3, [0, 1, 0, 0]))
        code, _, err = run_cli(capsys, "basis", "--state", str(path), "--to", "y")
        assert code == 2
        assert "unsupported" in err


class TestBellBasis:
    def test_n3(self, capsys):
        code, out, _ = run_cli(capsys, "bellbasis", "--n", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["count"] == 8
        assert obj["gram_is_identity"] is True

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "bellbasis", "--n", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "bits,sign"
        assert len(lines) == 5


def _handler_usage_error(tmp_path, case):
    """argv and the message of one command handler's own usage error."""
    if case == "fragility-density-matrix":
        path = tmp_path / "rho.json"
        qstate.save_state(path, ghz_pure(2).to_density())
        return (["criteria", "--which", "fragility", "--state", str(path)],
                "fragility needs a pure-state file")
    if case == "basis-config-to-z":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\nto = z\n")
        return ["basis", "--config", str(cfg)], "--to must be x|y"
    if case == "basis-state-to-y":
        path = tmp_path / "w.json"
        symstate.save_sym(path, symstate.SymState(3, [0, 1, 0, 0]))
        return (["basis", "--state", str(path), "--to", "y"],
                "general z -> y conversion is unsupported (GHZ only)")
    return {
        "bellmax-n1": (["bellmax", "--n", "1"], "n must be in [2, 10], got 1"),
        "certify-exact-without-E": (["certify", "--n", "3"], "certify needs --E"),
        "certify-negative-E": (["certify", "--n", "3", "--E", "-1"],
                               "expectation value must be nonnegative"),
        "certify-estimate-without-files": (["certify", "--estimate"], "certify needs --state"),
        "distribute-without-k": (["criteria", "--which", "distribute", "--n", "3"],
                                 "criteria needs --k"),
        "basis-without-n": (["basis"], "basis needs --n"),
        "bellbasis-without-n": (["bellbasis"], "bellbasis needs --n"),
    }[case]


class TestHandlerUsageErrors:
    """Each handler raises its usage error, and main alone prints it."""

    @pytest.mark.parametrize("case", ["bellmax-n1", "certify-exact-without-E",
                                      "certify-negative-E", "certify-estimate-without-files",
                                      "fragility-density-matrix", "distribute-without-k",
                                      "basis-without-n", "basis-state-to-y",
                                      "basis-config-to-z", "bellbasis-without-n"])
    def test_exit_2_with_error_prefix(self, capsys, tmp_path, case):
        argv, message = _handler_usage_error(tmp_path, case)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestConfigFile:
    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 2\nseed = 4\nrestarts = 3\n")
        code, out, _ = run_cli(capsys, "bellmax", "--config", str(cfg), "--n", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["config"]["n"] == 3       # flag wins
        assert obj["config"]["seed"] == 4    # config supplies the rest
        assert obj["config"]["restarts"] == 3

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qubits = 3\n")
        code, _, _ = run_cli(capsys, "bellmax", "--config", str(cfg), "--n", "2")
        assert code == 2

    @pytest.mark.parametrize("argv,line", [(("basis", "--n", "2"), "seed = 5"),
                                           (("bellbasis", "--n", "2"), "restarts = 3"),
                                           (("bellmax", "--n", "2"), "shots = 10"),
                                           (("certify", "--n", "3", "--E", "2.5"), "tol = 1e-6"),
                                           (("verify",), "n = 3"),
                                           (("certify", "--n", "3", "--E", "2.5"), "seed = 5"),
                                           (("criteria", "--which", "mm", "--state", "s.json"),
                                            "seed = 5")])
    def test_key_the_command_does_not_read_rejected(self, capsys, tmp_path, monkeypatch,
                                                    argv, line):
        monkeypatch.setattr(optimize, "max_eigen_settings", fail_if_called)
        monkeypatch.setattr(verification, "run_all", fail_if_called)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"{argv[0]} does not read config key {line.split()[0]!r}" in err

    @pytest.mark.parametrize("argv,keys", [
        (("basis", "--n", "2"), {"command", "format", "n", "to"}),
        (("bellbasis", "--n", "2"), {"command", "format", "n"}),
        (("certify", "--n", "3", "--E", "2.5"), {"command", "format", "n", "E"}),
        (("bellmax", "--n", "2", "--restarts", "2"),
         {"command", "format", "n", "restarts", "seed", "tol"}),
        (("criteria", "--which", "mm", "--state", "sym.json"),
         {"command", "format", "which", "state"}),
        (("criteria", "--which", "distribute", "--n", "3", "--k", "1", "--trials", "2"),
         {"command", "format", "which", "n", "k", "trials", "seed"}),
    ])
    def test_echo_holds_only_the_keys_read(self, capsys, tmp_path, monkeypatch, argv, keys):
        monkeypatch.chdir(tmp_path)
        symstate.save_sym("sym.json", symstate.ghz(4))
        code, out, _ = run_cli(capsys, *argv)
        assert code in (0, 1)
        assert set(json.loads(out)["config"]) == keys

    @pytest.mark.parametrize("argv,flag", [
        (("certify", "--n", "3", "--E", "2.5"), ("--seed", "5")),
        (("certify", "--n", "3", "--E", "2.5"), ("--state", "s.json")),
        (("certify", "--estimate", "--state", "s.json", "--settings", "t.json"), ("--n", "3")),
        (("criteria", "--which", "mm", "--state", "s.json"), ("--trials", "2")),
        (("basis", "--state", "w.json"), ("--n", "7")),
    ])
    def test_flag_the_mode_does_not_read_rejected(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv, *flag)
        assert code == 2
        assert out == ""
        assert f"{argv[0]} does not read {flag[0]} in this mode" in err

    @pytest.mark.parametrize("line,message", [
        ("seed = abc", "config key 'seed' must be int, got 'abc'"),
        ("restarts = 2.0", "config key 'restarts' must be int, got '2.0'"),
        ("tol = small", "config key 'tol' must be float, got 'small'"),
    ])
    def test_value_of_the_wrong_type_names_its_key(self, capsys, tmp_path, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "bellmax", "--n", "2", "--config", str(cfg))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_which_from_config_chooses_the_keys(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("which = distribute\nseed = 5\n")
        code, out, _ = run_cli(capsys, "criteria", "--config", str(cfg), "--n", "3",
                               "--k", "1", "--trials", "2")
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 5
        cfg.write_text("which = mutinfo\nseed = 5\n")
        code, out, err = run_cli(capsys, "criteria", "--config", str(cfg))
        assert code == 2
        assert "criteria does not read config key 'seed'" in err
        cfg.write_text("which = bogus\n")
        code, out, err = run_cli(capsys, "criteria", "--config", str(cfg))
        assert code == 2
        assert "--which must be fragility|mutinfo|mm|distribute" in err


class TestEmptyValue:
    """A key given an empty value, on a config line or as a flag, is a usage
    error that names the key, before any file is read or written."""

    def test_empty_state_line_in_basis_n_mode(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("state =\n")
        code, out, err = run_cli(capsys, "basis", "--n", "2", "--config", str(cfg))
        assert (code, out, err) == (2, "", "error: --state must not be empty\n")

    def test_empty_state_line_in_certify_estimate(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("state =\n")
        ghz_optimal_settings(3).save(tmp_path / "s.json")
        code, out, err = run_cli(capsys, "certify", "--estimate", "--settings",
                                 str(tmp_path / "s.json"), "--config", str(cfg))
        assert (code, out, err) == (2, "", "error: --state must not be empty\n")

    def test_empty_out_line_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out =\n")
        code, out, err = run_cli(capsys, "certify", "--n", "3", "--E", "3",
                                 "--config", str(cfg))
        assert (code, out, err) == (2, "", "error: --out must not be empty\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("key", ["state", "settings", "out"])
    def test_empty_flag(self, capsys, tmp_path, key):
        argv = ["certify", "--estimate", "--state", "x.json", "--settings", "s.json"]
        code, out, err = run_cli(capsys, *argv, f"--{key}", "")
        assert (code, out, err) == (2, "", f"error: --{key} must not be empty\n")


def _sample(key, mode) -> str:
    """A value of the type cli.KEYS gives key; criteria's which names its mode."""
    kind = cli.KEYS[key][0]
    special = {"which": mode, "format": "json"}
    if key in special:
        return special[key]
    return kind[-1] if isinstance(kind, tuple) else {int: "3", float: "0.5", str: "f.json"}[kind]


def _typed(key, text):
    kind = cli.KEYS[key][0]
    return text if isinstance(kind, tuple) else kind(text)


MODE_CASES = [(command, mode) for command, modes in cli.MODES.items() for mode in modes]
# basis without --state runs in its --n mode, so leaving --state out reports --n
REQUIRED_CASES = [(command, mode, key) for command, mode in MODE_CASES
                  for key in cli.MODES[command][mode]
                  if cli.KEYS[key][1] is cli.REQUIRED and (command, key) != ("basis", "state")]


class TestKeyTable:
    """Every key of every command and mode, straight from cli.MODES and
    cli.KEYS, with the command's computation replaced by a recorder."""

    @pytest.fixture
    def resolved(self, monkeypatch):
        seen = []
        for command in cli.MODES:
            monkeypatch.setattr(cli, f"_cmd_{command}", lambda opts: seen.append(opts) or 0)
        return seen

    @staticmethod
    def argv(command, mode, without=None):
        keys = ("out", "format", *cli.MODES[command][mode])
        switch = [f"--{cli.SWITCHES[command]}"] if mode == "estimate" else []
        return [command, *switch, *(arg for key in keys if key != without
                                    for arg in (f"--{key}", _sample(key, mode)))]

    @pytest.mark.parametrize("command,mode", MODE_CASES)
    def test_each_key_as_flag_and_as_config_line(self, capsys, tmp_path, resolved,
                                                 command, mode):
        keys = ("out", "format", *cli.MODES[command][mode])
        code, _, err = run_cli(capsys, *self.argv(command, mode))
        assert code == 0, err
        assert {key: resolved[-1][key] for key in keys} == \
            {key: _typed(key, _sample(key, mode)) for key in keys}
        cfg = tmp_path / "run.cfg"
        for key in keys:
            cfg.write_text(f"{key} = {_sample(key, mode)}\n")
            code, _, err = run_cli(capsys, *self.argv(command, mode, without=key),
                                   "--config", str(cfg))
            assert code == 0, err
            assert resolved[-1] == resolved[0]

    @pytest.mark.parametrize("command,mode", MODE_CASES)
    def test_empty_config_line(self, capsys, tmp_path, resolved, command, mode):
        cfg = tmp_path / "run.cfg"
        for key in ("out", "format", *cli.MODES[command][mode]):
            cfg.write_text(f"{key} =\n")
            code, out, err = run_cli(capsys, *self.argv(command, mode, without=key),
                                     "--config", str(cfg))
            assert (code, out, err) == (2, "", f"error: --{key} must not be empty\n")
        assert resolved == []

    @pytest.mark.parametrize("command,mode,key", REQUIRED_CASES)
    def test_required_key_left_unset(self, capsys, resolved, command, mode, key):
        code, out, err = run_cli(capsys, *self.argv(command, mode, without=key))
        assert (code, out, err) == (2, "", f"error: {command} needs --{key}\n")
        assert resolved == []


class TestVerifyCommand:
    def test_exit_codes_follow_results(self, capsys, monkeypatch):
        good = verification.CheckResult("a", "desc", True)
        bad = verification.CheckResult("b", "desc", False)
        monkeypatch.setattr(verification, "run_all", lambda fast: [good])
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "PASS" in out and "all checks passed" in out
        monkeypatch.setattr(verification, "run_all", lambda fast: [good, bad])
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL" in out

    def test_stdout_independent_of_wall_times(self, capsys, monkeypatch):
        outs = []
        for seconds in (0.04, 7.3):
            res = verification.CheckResult("a", "desc", True, seconds=seconds)
            monkeypatch.setattr(verification, "run_all", lambda fast, res=res: [res])
            code, out, err = run_cli(capsys, "verify")
            assert code == 0
            assert f"[{seconds:.3f}s]" in err
            outs.append(out)
        assert outs[0] == outs[1]

    def test_out_file_independent_of_wall_times(self, capsys, tmp_path, monkeypatch):
        files, path = [], tmp_path / "verify.json"
        for seconds in (0.04, 7.3):
            res = verification.CheckResult("a", "desc", True, seconds=seconds)
            monkeypatch.setattr(verification, "run_all", lambda fast, res=res: [res])
            code, _, _ = run_cli(capsys, "verify", "--out", str(path))
            assert code == 0
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_out_file(self, capsys, tmp_path, monkeypatch):
        good = verification.CheckResult("a", "desc", True)
        monkeypatch.setattr(verification, "run_all", lambda fast: [good])
        path = tmp_path / "verify.json"
        code, _, _ = run_cli(capsys, "verify", "--out", str(path))
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["all_passed"] is True

    def test_out_file_writes_json_booleans(self, capsys, tmp_path, monkeypatch):
        # symmetric-identities ends its flag as a numpy bool
        checks = [verification.check_symmetric_identities(fast=True),
                  verification.CheckResult("b", "desc", np.bool_(False))]
        assert all(type(res.passed) is bool for res in checks)
        monkeypatch.setattr(verification, "run_all", lambda fast: checks)
        path = tmp_path / "verify.json"
        code, _, _ = run_cli(capsys, "verify", "--out", str(path))
        assert code == 1
        obj = json.loads(path.read_text())
        assert [r["passed"] for r in obj["results"]] == [True, False]
        assert all(type(r["passed"]) is bool for r in obj["results"])


def parse_error(capsys, *argv):
    """Exit code and stderr of an invocation argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    return exc.value.code, capsys.readouterr().err


def fail_if_called(*args, **kwargs):
    raise AssertionError("the command ran its computation")


class TestOptionsThatChangeNothing:
    @pytest.mark.parametrize("argv", [("bellmax", "--n", "2"),
                                      ("criteria", "--which", "distribute", "--n", "3",
                                       "--k", "1")])
    def test_csv_not_offered_without_rows(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(optimize, "max_eigen_settings", fail_if_called)
        monkeypatch.setattr(criteria, "distribute_check", fail_if_called)
        code, err = parse_error(capsys, *argv, "--format", "csv")
        assert code == 2
        assert "invalid choice" in err

    def test_verify_rejects_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(verification, "run_all", fail_if_called)
        path = tmp_path / "verify.out"
        code, err = parse_error(capsys, "verify", "--format", "csv", "--out", str(path))
        assert code == 2
        assert "invalid choice" in err
        assert not path.exists()

    @pytest.mark.parametrize("argv", [("basis", "--n", "2"), ("bellbasis", "--n", "2"),
                                      ("verify",)])
    def test_seed_only_where_drawn(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(verification, "run_all", fail_if_called)
        code, err = parse_error(capsys, *argv, "--seed", "5")
        assert code == 2
        assert "unrecognized arguments: --seed" in err

    @pytest.mark.parametrize("argv", [("bellmax", "--n", "2"),
                                      ("criteria", "--which", "distribute", "--n", "3",
                                       "--k", "1"),
                                      ("verify",)])
    def test_csv_config_line_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(optimize, "max_eigen_settings", fail_if_called)
        monkeypatch.setattr(criteria, "distribute_check", fail_if_called)
        monkeypatch.setattr(verification, "run_all", fail_if_called)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = csv\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "--format json" in err and "'csv'" in err

    def test_unknown_format_config_line_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        code, out, err = run_cli(capsys, "certify", "--n", "3", "--E", "2.5",
                                 "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "--format json or csv" in err


class TestNonIntegerQubitCount:
    def test_state_file_usage_error(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        obj = qstate.state_to_json(ghz_pure(2))
        obj["n"] = 2.7
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "criteria", "--which", "fragility",
                                 "--state", str(path))
        assert code == 2
        assert out == ""
        assert "integer" in err

    def test_sym_state_file_usage_error(self, capsys, tmp_path):
        path = tmp_path / "sym.json"
        obj = symstate.sym_to_json(symstate.ghz(2))
        obj["n"] = 2.7
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "criteria", "--which", "mm", "--state", str(path))
        assert code == 2
        assert out == ""
        assert "integer" in err


def _malformed_files(tmp_path, case):
    """(argv, expected stderr fragment) for one malformed input file."""
    state, settings = tmp_path / "state.json", tmp_path / "settings.json"
    qstate.save_state(state, ghz_pure(2))
    ghz_optimal_settings(2).save(settings)
    estimate = ["certify", "--estimate", "--state", str(state), "--settings", str(settings)]
    if case == "certify-state-without-n":
        obj = qstate.state_to_json(ghz_pure(2))
        del obj["n"]
        state.write_text(json.dumps(obj))
        return estimate, "missing key 'n'"
    if case == "certify-settings-without-a_prime":
        obj = ghz_optimal_settings(2).to_json()
        del obj[1]["a_prime"]
        settings.write_text(json.dumps(obj))
        return estimate, "missing key 'a_prime'"
    if case == "certify-settings-not-a-list":
        settings.write_text(json.dumps({"a": [1, 0, 0]}))
        return estimate, str(settings)
    if case == "basis-sym-without-n":
        obj = symstate.sym_to_json(symstate.ghz(3))
        del obj["n"]
        state.write_text(json.dumps(obj))
        return ["basis", "--state", str(state)], "missing key 'n'"
    if case == "basis-sym-zero-denominator":
        obj = symstate.sym_to_json(symstate.ghz(3))
        obj["coeff"][0] = "1/0"
        state.write_text(json.dumps(obj))
        return ["basis", "--state", str(state)], "cannot parse coefficient '1/0'"
    if case == "criteria-truncated-json":
        state.write_text('{"n": 2, "amp": [[1, 0]')
        return ["criteria", "--which", "mutinfo", "--state", str(state)], str(state)
    raise AssertionError(case)


class TestMalformedInputFile:
    @pytest.mark.parametrize("case", ["certify-state-without-n",
                                      "certify-settings-without-a_prime",
                                      "certify-settings-not-a-list",
                                      "basis-sym-without-n",
                                      "basis-sym-zero-denominator",
                                      "criteria-truncated-json"])
    def test_usage_error(self, capsys, tmp_path, case):
        argv, fragment = _malformed_files(tmp_path, case)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and fragment in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "bellmax", "--n", "2",
                                 "--config", str(tmp_path / "none.cfg"))
        assert code == 2
        assert out == ""
        assert err == f"missing file: {tmp_path / 'none.cfg'}\n"
