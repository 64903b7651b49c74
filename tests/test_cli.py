import json

import numpy as np
import pytest

from bellkit import cli, qstate, symstate, verification
from bellkit.bellop import ghz_optimal_settings

from conftest import ghz_pure


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# stdout of `certify --estimate` on the Werner-GHZ n=5 state below, recorded
# before the estimator read its distributions from a shared outcome table
WERNER5_ESTIMATE_STDOUT = """\
{
  "certificate": {
    "E": 6.064000000000001,
    "certified_entangled": 5,
    "epsilon": 0.11668044893460852,
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
    "restarts": 20,
    "seed": 11,
    "settings": "settings.json",
    "shots": 2000,
    "state": "state.json",
    "tol": 1e-09
  },
  "estimate": {
    "E": 6.064000000000001,
    "stderr": 0.02917011223365213
  }
}
"""


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
        assert "n >= 2" in err

    def test_byte_identical_rerun(self, capsys):
        args = ("bellmax", "--n", "2", "--restarts", "4", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        counts = json.loads(out1)["restart_status"]
        assert set(counts) == {"converged", "stalled", "capped"}
        assert sum(counts.values()) == 4

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
        assert json.loads(out)["estimate"] == {"E": 11.344, "stderr": 0.03153587648620022}

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
            assert f"[{seconds:.1f}s]" in err
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
