import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from povmsim import frames
from povmsim.bloch import rotation_from_euler_zyz
from povmsim.cli import EXIT_FRAME, main
from povmsim.povm import fixture_path, load_povm


def run_cli(*args):
    """Spawn the CLI in a subprocess; returns (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "povmsim", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestVerifyCommand:
    def test_sic_fixture_passes(self):
        code, out, _ = run_cli("verify", "-p", str(fixture_path("sic.json")))
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["residuals"]["max"] <= 1e-10
        # Conditional table matches the known tetrahedral-frame values.
        table = np.array(report["table"])
        np.testing.assert_allclose(table[4], [0.5, 0.003, 0.487, 0.010], atol=1e-3)
        np.testing.assert_allclose(report["alphas"], [0, 0.014, 0.046, 0.046], atol=1e-3)

    def test_projective_fixture_hemispheres(self):
        code, out, _ = run_cli("verify", "-p", str(fixture_path("projective_z.json")))
        assert code == 0
        table = np.array(json.loads(out)["table"])
        assert set(np.round(table.ravel(), 12)) == {0.0, 1.0}

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run_cli("verify", "-p", str(bad))
        assert code == 2
        assert "error" in err

    def test_invalid_povm_exits_2(self, tmp_path):
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps({"outcomes": [{"p": 1.0, "a": [0, 0, 1]}]}))
        code, _, _ = run_cli("verify", "-p", str(bad))
        assert code == 2

    def test_uncertified_frame_exits_3(self, monkeypatch, capsys):
        # A rotation that sends the cube diagonal (1, 1, 1) onto the z axis
        # puts a vertex value of sqrt(3) on the projective z measurement.
        diagonal_on_z = rotation_from_euler_zyz(0.0, -np.arccos(1.0 / np.sqrt(3.0)), -np.pi / 4)
        np.testing.assert_allclose(diagonal_on_z @ np.ones(3), [0.0, 0.0, np.sqrt(3.0)], atol=1e-12)
        monkeypatch.setattr(frames, "orthonormal_frame", lambda axis: diagonal_on_z)
        code = main(["verify", "-p", str(fixture_path("projective_z.json"))])
        assert code == EXIT_FRAME
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "TwoOutcomeExact frame does not certify" in captured.err

    def test_csv_table_shape(self, tmp_path):
        out_file = tmp_path / "table.csv"
        code = main(
            ["verify", "-p", str(fixture_path("sic.json")), "--format", "csv", "--out", str(out_file)]
        )
        assert code == 0
        rows = [line.split(",") for line in out_file.read_text().strip().splitlines()]
        assert len(rows) == 8
        assert all(len(r) == 4 for r in rows)


class TestSimulateCommand:
    def test_sic_on_pure_state(self):
        code = main(
            ["simulate", "-p", str(fixture_path("sic.json")), "--state", "0,0,1",
             "--samples", "200000", "--seed", "1"]
        )
        assert code == 0

    def test_zero_samples_allowed(self, capsys):
        code = main(
            ["simulate", "-p", str(fixture_path("trine.json")), "--samples", "0", "--seed", "0"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outcomes"] is None

    def test_repeat_is_byte_identical(self):
        args = ("simulate", "-p", str(fixture_path("sic.json")), "--state", "0.1,0.2,0.3",
                "--samples", "100000", "--seed", "9")
        code1, out1, _ = run_cli(*args)
        code2, out2, _ = run_cli(*args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_negative_leading_state(self):
        common = ("-p", str(fixture_path("sic.json")), "--samples", "1000", "--seed", "1")
        code1, out1, err1 = run_cli("simulate", "--state", "-0.3,0.1,0.2", *common)
        code2, out2, _ = run_cli("simulate", "--state=-0.3,0.1,0.2", *common)
        assert code1 == code2 == 0, err1
        assert out1 == out2
        assert json.loads(out1)["state"] == [-0.3, 0.1, 0.2]

    def test_bad_state_exits_2(self):
        code, _, _ = run_cli(
            "simulate", "-p", str(fixture_path("sic.json")), "--state", "2,0,0",
            "--samples", "10",
        )
        assert code == 2


class TestWernerCommand:
    def test_projective_pair_exact_only(self, capsys):
        fixture = str(fixture_path("projective_z.json"))
        code = main(["werner", "--alice", fixture, "--bob", fixture, "--samples", "0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_deviation"] <= 1e-12
        assert report["empirical"] is None

    def test_sic_vs_projective_with_sampling(self, capsys):
        code = main(
            ["werner", "--alice", str(fixture_path("sic.json")),
             "--bob", str(fixture_path("projective_z.json")),
             "--samples", "200000", "--seed", "2"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["chi_squared"]["pvalue"] >= 1e-3


class TestWorkers:
    SIMULATE = ["simulate", "-p", str(fixture_path("sic.json")), "--state", "0.1,-0.2,0.6",
                "-n", "300000", "--seed", "4"]
    WERNER = ["werner", "--alice", str(fixture_path("trine.json")),
              "--bob", str(fixture_path("sic.json")), "-n", "300000", "--seed", "5"]

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize("command", ["simulate", "werner"])
    def test_fewer_than_one_worker_exits_2(self, command, workers, capsys):
        argv = self.SIMULATE if command == "simulate" else self.WERNER
        code = main([*argv, "--workers", workers])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "workers must be at least 1" in captured.err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "-p", str(fixture_path("sic.json"))],
            ["werner", "--alice", str(fixture_path("trine.json")),
             "--bob", str(fixture_path("sic.json")), "-n", "0"],
            ["chsh", "--eta", "0.5"],
            ["random", "4", "--seed", "1"],
        ],
        ids=["verify", "werner_exact", "chsh", "random"],
    )
    def test_subcommands_that_never_sample_reject_it_too(self, argv, workers, capsys):
        assert main([*argv, "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "workers must be at least 1" in captured.err

    @pytest.mark.parametrize("command", ["simulate", "werner"])
    def test_two_workers_change_only_the_header(self, command, capsys):
        # 300,000 samples are three chunks, so two workers share them.
        argv = self.SIMULATE if command == "simulate" else self.WERNER
        outputs = []
        for workers in ("1", "2"):
            assert main([*argv, "--workers", workers]) == 0
            out = capsys.readouterr().out
            assert f'"workers": {workers}' in out
            outputs.append(re.sub(r'"workers": \d+', '"workers": W', out))
        assert outputs[0] == outputs[1]


class TestChshCommand:
    @pytest.mark.parametrize(
        "eta,expected",
        [("1.0", 2.8284271247), ("0.5", 1.4142135624), ("0.7071067811865476", 2.0)],
    )
    def test_values(self, eta, expected, capsys):
        code = main(["chsh", "--eta", eta])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == pytest.approx(expected, abs=1e-9)
        assert report["violates"] == (report["value"] > 2.0)

    def test_bad_eta_exits_2(self):
        code, _, _ = run_cli("chsh", "--eta", "1.2")
        assert code == 2

    @pytest.mark.parametrize("eta", ["nan", "-0.1", "1.2"])
    def test_bad_eta_exits_2_in_process(self, eta, capsys):
        code = main(["chsh", "--eta", eta])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "visibility must lie in [0, 1]" in captured.err

    def test_custom_settings(self, capsys):
        # All four axes equal: value |(-1) + (-1) + (-1) - (-1)| = 2.
        code = main(["chsh", "--eta", "1.0", "--settings", "0,0,1;0,0,1;0,0,1;0,0,1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("zeroed", ["0,0,0", "nan,0,1", "inf,0,0"])
    def test_degenerate_settings_exit_2_without_warning(self, zeroed, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["chsh", "--eta", "1.0", "--settings", f"{zeroed};0,0,1;0,0,1;0,0,1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite and nonzero" in captured.err

    def test_negative_leading_settings(self, capsys):
        code = main(["chsh", "--eta", "1.0", "--settings", "-1,0,0;-1,0,0;-1,0,0;-1,0,0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(2.0, abs=1e-12)


class TestRandomCommand:
    def test_generated_file_verifies(self, tmp_path):
        out = tmp_path / "random.json"
        assert main(["random", "4", "--seed", "7", "--out", str(out)]) == 0
        povm = load_povm(out)
        assert povm.n_outcomes == 4
        code, _, _ = run_cli("verify", "-p", str(out))
        assert code == 0

    def test_two_outcomes_projective(self, tmp_path):
        out = tmp_path / "pair.json"
        assert main(["random", "2", "--seed", "3", "--out", str(out)]) == 0
        povm = load_povm(out)
        np.testing.assert_allclose(povm.weights, 1.0, atol=1e-12)
        np.testing.assert_allclose(povm.directions[0], -povm.directions[1], atol=1e-12)

    def test_same_seed_same_bytes(self, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["random", "5", "--seed", "11", "--out", str(f1)])
        main(["random", "5", "--seed", "11", "--out", str(f2)])
        assert f1.read_bytes() == f2.read_bytes()
