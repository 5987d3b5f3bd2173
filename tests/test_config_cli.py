import csv

import numpy as np
import pytest

from adaptdet import cli
from adaptdet.config import build_scenario, format_config, parse_config
from adaptdet.detectors import DetectorKind
from adaptdet.errors import ConfigError, SingularMatrixError
from adaptdet.scenario import check_dimensions

SMALL_CONFIG = """\
# small experiment used by the test suite
N = 5
K = 8
M = 2
J = 2
L = 6
rho = 0.5
pfa = 0.05
snr_grid_db = 0, 8, 16
calib_trials = 600
pd_trials = 200
detectors = GLRGDD_RU, AMGDD_RU, GLRGDD, AMGDD, BOSE_GLRT
master_seed = 7
"""


class TestParseConfig:
    def test_small_config_round_trips(self):
        cfg = parse_config(SMALL_CONFIG)
        assert (cfg.N, cfg.K, cfg.M, cfg.J, cfg.L) == (5, 8, 2, 2, 6)
        assert cfg.snr_grid_db == (0.0, 8.0, 16.0)
        assert cfg.detectors == tuple(DetectorKind)
        assert parse_config(format_config(cfg)) == cfg

    def test_fig1_preset_dimensions(self):
        cfg = cli._preset_fig1(paper_scale=False, seed=1)
        assert (cfg.N, cfg.J, cfg.M, cfg.K, cfg.L) == (12, 2, 3, 16, 14)
        assert parse_config(format_config(cfg)) == cfg

    def test_paper_scale_budgets(self):
        cfg = cli._preset_fig1(paper_scale=True, seed=1)
        assert cfg.pfa == 1e-3
        assert cfg.calib_trials == 100_000
        assert cfg.pd_trials == 10_000

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'pulses'"):
            parse_config("N = 4\npulses = 9\n")

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ConfigError, match="line 3: duplicate key 'N'"):
            parse_config("N = 4\nK = 6\nN = 5\n")

    def test_bad_integer_value(self):
        with pytest.raises(ConfigError, match="line 1: N must be an integer"):
            parse_config("N = four\n")

    def test_missing_keys_listed(self):
        with pytest.raises(ConfigError, match="missing required keys"):
            parse_config("N = 4\n")

    def test_training_constraint_message(self):
        text = SMALL_CONFIG.replace("N = 5", "N = 12").replace("K = 8", "K = 3") \
                           .replace("M = 2", "M = 3").replace("L = 6", "L = 11") \
                           .replace("detectors = GLRGDD_RU, AMGDD_RU, GLRGDD, AMGDD, BOSE_GLRT",
                                    "detectors = GLRGDD_RU")
        with pytest.raises(ConfigError, match=r"L\+K=14 < M\+N=15"):
            parse_config(text)

    def test_detector_constraint_checked_at_parse_time(self):
        text = SMALL_CONFIG.replace("N = 5", "N = 12").replace("K = 8", "K = 16") \
                           .replace("M = 2", "M = 3").replace("L = 6", "L = 11") \
                           .replace("detectors = GLRGDD_RU, AMGDD_RU, GLRGDD, AMGDD, BOSE_GLRT",
                                    "detectors = GLRGDD")
        with pytest.raises(ConfigError, match=r"GLRGDD requires L >= N \(L=11, N=12\)"):
            parse_config(text)

    def test_dimension_messages_match_scenario(self):
        for n, k, m, j, l in ((4, 8, 2, 5, 6), (4, 6, 7, 2, 8), (5, 8, 0, 2, 6)):
            with pytest.raises(ValueError) as expected:
                check_dimensions(n, k, m, j, l)
            text = SMALL_CONFIG.replace("N = 5", f"N = {n}").replace("K = 8", f"K = {k}") \
                               .replace("M = 2", f"M = {m}").replace("J = 2", f"J = {j}") \
                               .replace("L = 6", f"L = {l}")
            with pytest.raises(ConfigError) as raised:
                parse_config(text)
            assert str(raised.value) == str(expected.value)

    def test_unknown_detector_lists_valid_names(self):
        with pytest.raises(ConfigError, match="unknown detector 'KELLY'"):
            parse_config(SMALL_CONFIG.replace("BOSE_GLRT", "KELLY"))

    def test_empty_detector_list(self):
        text = SMALL_CONFIG.replace(
            "detectors = GLRGDD_RU, AMGDD_RU, GLRGDD, AMGDD, BOSE_GLRT",
            "detectors = ")
        with pytest.raises(ConfigError, match="empty detector list"):
            parse_config(text)

    def test_calibration_budget_checked(self):
        with pytest.raises(ConfigError, match="< 20"):
            parse_config(SMALL_CONFIG.replace("pfa = 0.05", "pfa = 0.0001"))

    def test_build_scenario_is_deterministic(self):
        cfg = parse_config(SMALL_CONFIG)
        first = build_scenario(cfg)
        second = build_scenario(cfg)
        assert np.array_equal(first.A, second.A)
        assert np.array_equal(first.C, second.C)


class TestRunExperiment:
    def test_csv_schema_and_exact_ratios(self, tmp_path):
        cfg = parse_config(SMALL_CONFIG)
        out = tmp_path / "result.csv"
        cli.run_experiment(cfg, threads=2, out_path=str(out))
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["detector", "snr_db", "pd", "trials",
                                        "threshold", "pfa", "seed"]
        assert len(rows) == len(cfg.detectors) * len(cfg.snr_grid_db)
        for row in rows:
            count = float(row["pd"]) * int(row["trials"])
            assert count == pytest.approx(round(count), abs=1e-9)
            assert row["seed"] == "7"

    def test_byte_identical_across_thread_counts(self, tmp_path):
        cfg = parse_config(SMALL_CONFIG)
        blobs = []
        for threads in (1, 3):
            out = tmp_path / f"threads{threads}.csv"
            cli.run_experiment(cfg, threads=threads, out_path=str(out))
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_requires_an_output_path(self):
        cfg = parse_config(SMALL_CONFIG)
        with pytest.raises(ConfigError, match="no output path"):
            cli.run_experiment(cfg)


class TestCommandLine:
    def _write_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(SMALL_CONFIG)
        return str(path)

    def test_pd_curve_command(self, tmp_path):
        out = tmp_path / "out.csv"
        code = cli.main(["pd-curve", "--config", self._write_config(tmp_path),
                         "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_calibrate_command_to_stdout(self, tmp_path, capsys):
        code = cli.main(["calibrate", "--config", self._write_config(tmp_path)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "detector,threshold,pfa,trials,seed"
        assert len(lines) == 1 + 5

    def test_seed_override_changes_output(self, tmp_path, capsys):
        config = self._write_config(tmp_path)
        cli.main(["calibrate", "--config", config])
        base = capsys.readouterr().out
        cli.main(["calibrate", "--config", config, "--seed", "8"])
        assert capsys.readouterr().out != base

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG.replace("L = 6", "L = 0").replace("K = 8", "K = 5"))
        code = cli.main(["pd-curve", "--config", str(path), "--out", "-"])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exit_code(self, capsys):
        assert cli.main(["calibrate", "--config", "/nonexistent.cfg"]) == 1

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["no-such-command"])
        assert err.value.code == 1

    def test_numerical_error_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise SingularMatrixError("singular covariance estimate: SCM")

        monkeypatch.setattr(cli.montecarlo, "calibrate_thresholds", boom)
        code = cli.main(["calibrate", "--config", self._write_config(tmp_path)])
        assert code == 3
        assert "numerical error" in capsys.readouterr().err

    def test_non_finite_statistics_exit_code(self, tmp_path, monkeypatch, capsys):
        def nan_statistics(scenario, kinds, trials, *args, **kwargs):
            return np.full((trials, len(kinds)), np.nan)

        monkeypatch.setattr(cli.montecarlo, "simulate_statistics", nan_statistics)
        code = cli.main(["calibrate", "--config", self._write_config(tmp_path)])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    def test_verify_command_passes(self, capsys):
        assert cli.main(["verify", "--instances", "24", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_verify_zero_instances_warns(self, capsys):
        assert cli.main(["verify", "--instances", "0"]) == 0
        assert "vacuous" in capsys.readouterr().out

    def test_preset_print_config_is_parseable(self, capsys):
        assert cli.main(["preset", "fig1", "--print-config"]) == 0
        cfg = parse_config(capsys.readouterr().out)
        assert cfg.N == 12 and cfg.K == 16

    def test_preset_fig2_prints_three_configs(self, capsys):
        assert cli.main(["preset", "fig2", "--print-config"]) == 0
        out = capsys.readouterr().out
        assert out.count("N = 12") == 3
        for k in cli.FIG2_K_GRID:
            assert f"K = {k}" in out
