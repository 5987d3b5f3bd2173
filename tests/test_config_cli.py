import codecs
import csv
import importlib
import os
import pkgutil
import runpy
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import adaptdet
from adaptdet import cli
from adaptdet.config import build_scenario, format_config, parse_config
from adaptdet.detectors import DetectorKind
from adaptdet.errors import ConfigError, SingularMatrixError
from adaptdet.montecarlo import PdCurve
from adaptdet.scenario import DEFAULT_SEED, STREAM_VERSION, check_dimensions
from adaptdet.verify import CheckSuite, VerificationReport, random_instance, run_verification

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

FIG1_PRINT_CONFIG = """\
N = 12
K = 16
M = 3
J = 2
L = 14
rho = 0.95
pfa = 0.01
snr_grid_db = 6.0, 9.0, 12.0, 15.0, 18.0, 21.0, 24.0, 27.0, 30.0
calib_trials = 5000
pd_trials = 2000
detectors = GLRGDD_RU, AMGDD_RU, GLRGDD, AMGDD, BOSE_GLRT
master_seed = 20260810
"""

# one block per K, at K = 6, 10 and 14
FIG2_PRINT_CONFIG = """\
# fig2_K{k}
N = 12
K = {k}
M = 3
J = 2
L = 11
rho = 0.95
pfa = 0.01
snr_grid_db = 6.0, 9.0, 12.0, 15.0, 18.0, 21.0, 24.0, 27.0, 30.0
calib_trials = 5000
pd_trials = 2000
detectors = GLRGDD_RU, AMGDD_RU
master_seed = 20260810
"""


class TestParseConfig:
    def test_small_config_round_trips(self):
        cfg = parse_config(SMALL_CONFIG)
        assert (cfg.N, cfg.K, cfg.M, cfg.J, cfg.L) == (5, 8, 2, 2, 6)
        assert cfg.snr_grid_db == (0.0, 8.0, 16.0)
        assert cfg.detectors == tuple(DetectorKind)
        assert parse_config(format_config(cfg)) == cfg

    @pytest.mark.parametrize("field, value", [("rho", np.float64(0.5)),
                                              ("snr_grid_db", tuple(np.array([0.0, 8.0, 16.0])))])
    def test_numpy_values_format_as_python_floats(self, field, value):
        cfg = parse_config(SMALL_CONFIG)
        assert getattr(cfg, field) == value
        numpy_cfg = replace(cfg, **{field: value})
        assert format_config(numpy_cfg) == format_config(cfg)
        assert parse_config(format_config(numpy_cfg)) == numpy_cfg

    def test_fig1_preset_dimensions(self):
        [(_, cfg)] = cli._preset("fig1", paper_scale=False, seed=1)
        assert (cfg.N, cfg.J, cfg.M, cfg.K, cfg.L) == (12, 2, 3, 16, 14)
        assert parse_config(format_config(cfg)) == cfg

    def test_paper_scale_budgets(self):
        [(_, cfg)] = cli._preset("fig1", paper_scale=True, seed=1)
        assert cfg.pfa == 1e-3
        assert cfg.calib_trials == 100_000
        assert cfg.pd_trials == 10_000

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'pulses'"):
            parse_config("N = 4\npulses = 9\n")
        # the output path is set only by --out
        with pytest.raises(ConfigError, match="line 14: unknown key 'output_path'"):
            parse_config(SMALL_CONFIG + "output_path = x.csv\n")

    def test_line_without_a_key_value_pair(self):
        with pytest.raises(ConfigError, match=r"^line 2: expected 'key = value', got 'K 6'$"):
            parse_config("N = 4\nK 6\n")

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

    @pytest.mark.parametrize("old, new, message", [
        ("snr_grid_db = 0, 8, 16", "snr_grid_db = 0, 8, 8", "strictly increasing"),
        ("snr_grid_db = 0, 8, 16", "snr_grid_db = 0, 8, nan", "SNR grid must be finite"),
        ("snr_grid_db = 0, 8, 16", "snr_grid_db = 0, 8, inf", "SNR grid must be finite"),
        ("snr_grid_db = 0, 8, 16", "snr_grid_db = 0, 8, 4000",
         r"SNR grid point 4000\.0 dB has a linear power 10\^\(snr/10\) beyond the float"),
        ("rho = 0.5", "rho = 1.0", r"rho must lie in \[0, 1\), got 1\.0"),
        ("rho = 0.5", "rho = -0.1", r"rho must lie in \[0, 1\), got -0\.1"),
        ("pfa = 0.05", "pfa = 1.5", r"pfa must lie in \(0, 1\)"),
        # the library's own rules (check_integer, kind_list), as config errors
        ("pd_trials = 200", "pd_trials = 0", "pd_trials must be >= 1, got 0"),
        ("pd_trials = 200", "pd_trials = 2.9", "pd_trials must be an integer, got '2.9'"),
        ("master_seed = 7", "master_seed = -1", "master_seed must be >= 0, got -1"),
        ("master_seed = 7", "master_seed = 1.0", "master_seed must be an integer, got '1.0'"),
        ("calib_trials = 600", "calib_trials = 0", "calibration refused"),
        ("BOSE_GLRT", "GLRGDD_RU", "duplicate detector in list"),
    ])
    def test_engine_run_rules_checked_at_parse_time(self, old, new, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(SMALL_CONFIG.replace(old, new))

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
        cli._run_experiments([(str(out), cfg)], 2)
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
            cli._run_experiments([(str(out), cfg)], threads)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_requires_an_output_path(self, tmp_path, monkeypatch, capsys):
        # --out is the only source of the path, refused before any trial
        calls = []
        monkeypatch.setattr(cli.montecarlo, "simulate_jobs",
                            lambda *args, **kwargs: calls.append(args))
        config = tmp_path / "exp.cfg"
        config.write_text(SMALL_CONFIG)
        with pytest.raises(SystemExit) as err:
            cli.main(["pd-curve", "--config", str(config)])
        assert err.value.code == 1
        assert "the following arguments are required: --out" in capsys.readouterr().err
        assert calls == []


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

    def test_value_error_exit_code(self, tmp_path, monkeypatch, capsys):
        # a ValueError from a command is one "error: " line and exit 1, not a traceback
        def refused(*args, **kwargs):
            raise ValueError("refused by the engine")

        monkeypatch.setattr(cli.montecarlo, "simulate_jobs", refused)
        out = tmp_path / "out.csv"
        assert cli.main(["pd-curve", "--config", self._write_config(tmp_path),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: refused by the engine\n"

    @pytest.mark.parametrize("argv", [["calibrate", "--config", "{dir}"],
                                      ["pd-curve", "--config", "{cfg}", "--out", "{dir}"],
                                      ["preset", "fig1", "--out", "{dir}"],
                                      ["calibrate", "--config", "{cfg}", "--out", "{dir}"]],
                             ids=["calibrate", "pd-curve", "preset", "calibrate-out"])
    def test_unusable_path_exit_code(self, argv, tmp_path, monkeypatch, capsys):
        # a directory where a file belongs: one error line, not a traceback,
        # and before the first trial is drawn
        def refused(*args, **kwargs):
            raise AssertionError("drew a trial before checking the output path")

        monkeypatch.setattr(cli.montecarlo, "simulate_jobs", refused)
        cfg = self._write_config(tmp_path)
        assert cli.main([arg.format(cfg=cfg, dir=tmp_path) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("out", ["results", "fresh/"], ids=["existing", "trailing-slash"])
    def test_preset_fig2_refuses_a_directory_as_fig1_does(self, out, tmp_path, monkeypatch,
                                                          capsys):
        # fig2 names its files <stem>_K<k><suffix> after --out: a directory's
        # name would put them beside it, so it is refused with fig1's error,
        # before the first trial and leaving no file
        def refused(*args, **kwargs):
            raise AssertionError("drew a trial before checking the output path")

        monkeypatch.setattr(cli.montecarlo, "simulate_jobs", refused)
        (tmp_path / "results").mkdir()
        path = f"{tmp_path}/{out}"  # a Path would drop the trailing slash
        errors = []
        for name in ("fig1", "fig2"):
            assert cli.main(["preset", name, "--out", path]) == cli.EXIT_USAGE
            errors.append(capsys.readouterr())
        assert errors[1] == errors[0]
        assert errors[1].err == f"error: [Errno 21] Is a directory: {path!r}\n"
        assert [p.name for p in tmp_path.rglob("*")] == ["results"]

    def test_a_config_may_open_with_a_byte_order_mark(self, tmp_path):
        # some editors save UTF-8 with a leading BOM: it is not part of the first key
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(SMALL_CONFIG, encoding="utf-8")
        marked.write_text(SMALL_CONFIG, encoding="utf-8-sig")
        assert marked.read_bytes() == codecs.BOM_UTF8 + plain.read_bytes()
        blobs = []
        for config in (plain, marked):
            out = tmp_path / f"{config.stem}.csv"
            assert cli.main(["calibrate", "--config", str(config), "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_pd_curve_refuses_an_empty_grid(self, tmp_path, monkeypatch, capsys):
        # an empty grid spent the whole calibration budget on a header-only CSV
        def refused(*args, **kwargs):
            raise AssertionError("drew a trial for an empty SNR grid")

        path = tmp_path / "empty.cfg"
        path.write_text(SMALL_CONFIG.replace("snr_grid_db = 0, 8, 16", "snr_grid_db ="))
        out = tmp_path / "out.csv"
        with monkeypatch.context() as patch:
            patch.setattr(cli.montecarlo, "simulate_jobs", refused)
            assert cli.main(["pd-curve", "--config", str(path), "--out", str(out)]) == 1
        assert "config error: snr_grid_db is empty" in capsys.readouterr().err
        assert not out.exists()
        # calibration reads no grid
        assert cli.main(["calibrate", "--config", str(path)]) == 0

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

    @pytest.mark.parametrize("value", ["0", "-4", "two"])
    def test_invalid_thread_option_exit_code(self, value, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["preset", "fig1", "--print-config", "--threads", value])
        assert err.value.code == 1
        assert f"--threads: must be an integer >= 1, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["calibrate", "--config", "unread.cfg"],
                                      ["pd-curve", "--config", "unread.cfg"],
                                      ["preset", "fig1", "--print-config"],
                                      ["verify"]],
                             ids=lambda argv: argv[0])
    def test_negative_seed_exit_code(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(argv + ["--seed", "-2"])
        assert err.value.code == 1
        assert "--seed: must be an integer >= 0, got '-2'" in capsys.readouterr().err

    def test_thread_count_from_environment_and_option(self, tmp_path, monkeypatch):
        seen = []
        real = cli.montecarlo.calibrate_thresholds

        def record(*args, threads, **kwargs):
            seen.append(threads)
            return real(*args, threads=threads, **kwargs)

        monkeypatch.setattr(cli.montecarlo, "calibrate_thresholds", record)
        # the environment is not read: --threads alone sets the count
        monkeypatch.setenv("ADAPTDET_THREADS", "2")
        config = self._write_config(tmp_path)
        assert cli.main(["calibrate", "--config", config]) == 0
        assert cli.main(["calibrate", "--config", config, "--threads", "3"]) == 0
        assert seen == [1, 3]

    def test_verify_command_passes(self, capsys):
        assert cli.main(["verify", "--instances", "24", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        # only suites that can fail: the t/(1-t) pair and the boundary pairs
        # are one computation each, pinned by tier-1 tests instead
        suites = [line.split(":")[0] for line in out.splitlines()[:-1]]
        assert suites == ["PASS identities", "PASS reparameterization and scale invariance",
                          "PASS bounded statistics stay below 1"]

    def test_verify_report_names_the_first_five_failures(self):
        # a residual over budget fails; past five failures the line ends "; ..."
        clean = CheckSuite("monotone map")
        clean.record(0, 1e-14, 1e-10, "GLRGDD")
        identities = CheckSuite("identities")
        identities.record(0, 1e-14, 1e-10, "eq. (27)")
        for idx in range(1, 6):
            identities.record(idx, idx * 1e-9, 1e-10, f"eq. ({idx})")
        identities.record(6, 2e-10, 1e-10, "eq. (6)")
        assert clean.passed and not identities.passed
        unknown = CheckSuite("NaN")
        unknown.record(0, float("nan"), 1e-10, "eq. (27)")
        assert not unknown.passed
        # a NaN residual shows as the maximum and stays there: max(x, nan) is x
        unknown.record(1, 1e-14, 1e-10, "eq. (28)")
        assert unknown.line() == ("FAIL NaN: 2 instances, max residual nan "
                                  "[instance 0 (eq. (27): residual nan > 1.0e-10)]")
        report = VerificationReport(seed=3, instance_count=7, suites=[clean, identities])
        assert not report.passed
        shown = "; ".join(f"instance {i} (eq. ({i}): residual {i}.000e-09 > 1.0e-10)"
                          for i in range(1, 6))
        assert report.lines() == [
            "PASS monotone map: 1 instances, max residual 1.000e-14",
            f"FAIL identities: 7 instances, max residual 5.000e-09 [{shown}; ...]",
            "FAIL: verification over 7 instances (seed 3; replay instance i from "
            "stream(seed, VERIFY_INSTANCE, i))"]

    def test_verify_zero_instances_warns(self, capsys):
        assert cli.main(["verify", "--instances", "0"]) == 0
        assert "vacuous" in capsys.readouterr().out

    def test_verify_negative_instances_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--instances", "-3"])
        assert err.value.code == 1
        assert "--instances: must be an integer >= 0, got '-3'" in capsys.readouterr().err
        with pytest.raises(ValueError, match="instance_count must be >= 0"):
            run_verification(instance_count=-1)

    def test_verify_refuses_a_negative_seed(self):
        # the command line's --seed check does not guard the library entry
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            run_verification(seed=-1, instance_count=1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            next(adaptdet.verify.instance_stream(-1, 1))

    def test_verify_refuses_an_unknown_regime(self):
        with pytest.raises(ValueError, match="^unknown regime 'dense'$"):
            random_instance("dense", np.random.default_rng(0))

    def test_preset_print_config_is_parseable(self, capsys):
        assert cli.main(["preset", "fig1", "--print-config"]) == 0
        cfg = parse_config(capsys.readouterr().out)
        assert cfg.N == 12 and cfg.K == 16

    def test_python_dash_m_runs_the_command_line(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["adaptdet", "preset", "fig1", "--print-config"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("adaptdet", run_name="__main__")
        assert exc.value.code == 0
        assert parse_config(capsys.readouterr().out).N == 12

    def test_preset_print_config_text_is_pinned(self, capsys):
        # the benchmark's setup parses exactly this text
        assert cli.main(["preset", "fig1", "--print-config"]) == 0
        assert capsys.readouterr().out == FIG1_PRINT_CONFIG
        assert cli.main(["preset", "fig2", "--print-config"]) == 0
        assert capsys.readouterr().out == "".join(FIG2_PRINT_CONFIG.format(k=k)
                                                  for k in (6, 10, 14))

    def test_preset_fig2_names_one_output_per_k(self, tmp_path, monkeypatch, capsys):
        # the benchmark's fig2 workload reads these _K<k> files back
        paths = []
        monkeypatch.setattr(cli, "_curves", lambda configs, threads: [{}] * len(configs))
        monkeypatch.setattr(cli, "_write_curves",
                            lambda path, config, curves: paths.append(path))
        out = tmp_path / "d" / "f.csv"
        out.parent.mkdir()
        assert cli.main(["preset", "fig2", "--out", str(out)]) == 0
        expected = [str(tmp_path / "d" / name) for name in ("f_K6.csv", "f_K10.csv", "f_K14.csv")]
        assert paths == expected
        assert capsys.readouterr().out.splitlines() == [f"wrote {path}" for path in expected]

    def test_each_output_path_is_probed_once(self, tmp_path, monkeypatch):
        # each output path is checked once, all of them before the first trial
        probed = []
        check = cli._check_writable
        monkeypatch.setattr(cli, "_check_writable",
                            lambda path: (probed.append(path), check(path)))
        monkeypatch.setattr(cli, "_curves", lambda configs, threads:
                            [{kind: PdCurve((), 0.0) for kind in config.detectors}
                             for config in configs])
        out = tmp_path / "f.csv"
        assert cli.main(["preset", "fig2", "--out", str(out)]) == 0
        assert probed == [str(tmp_path / name) for name in ("f_K6.csv", "f_K10.csv", "f_K14.csv")]
        probed.clear()
        assert cli.main(["pd-curve", "--config", self._write_config(tmp_path),
                         "--out", str(out)]) == 0
        assert probed == [str(out)]

    def test_preset_fig2_refuses_a_later_output_before_the_first_trial(self, tmp_path,
                                                                       monkeypatch, capsys):
        # an unusable _K10 path is refused before K = 6 draws a trial
        def engine(*args, **kwargs):
            raise AssertionError("the engine ran before every output path was checked")
        monkeypatch.setattr(cli.montecarlo, "simulate_jobs", engine)
        (tmp_path / "f_K10.csv").mkdir()
        assert cli.main(["preset", "fig2", "--out", str(tmp_path / "f.csv")]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "Is a directory" in captured.err
        assert [path.name for path in tmp_path.iterdir()] == ["f_K10.csv"]  # nothing left behind

    def test_preset_fig2_refuses_stdout_before_the_first_trial(self, monkeypatch, capsys):
        # three CSVs back to back on stdout would carry no K to tell them apart
        paths = []
        monkeypatch.setattr(cli, "_curves", lambda configs, threads: [{}] * len(configs))
        monkeypatch.setattr(cli, "_write_curves",
                            lambda path, config, curves: paths.append(path))
        assert cli.main(["preset", "fig2", "--out", "-"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert paths == [] and captured.out == ""
        assert captured.err == ("error: preset fig2 writes one CSV per K (fig2_K6.csv, "
                                "fig2_K10.csv, fig2_K14.csv): --out - cannot hold them; "
                                "give a file path\n")
        assert cli.main(["preset", "fig1", "--out", "-"]) == cli.EXIT_OK
        assert paths == ["-"]

    def test_preset_fig2_draws_each_block_once(self, tmp_path, monkeypatch):
        # one engine call for the six jobs: the three K share each block's
        # draw, 20 calibration blocks and 8 H1 blocks, not three times as many
        draws = []
        draw = cli.montecarlo.complex_gaussian

        def counted(*args, **kwargs):
            draws.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(cli.montecarlo, "complex_gaussian", counted)
        assert cli.main(["preset", "fig2", "--threads", "2", "--out",
                         str(tmp_path / "f.csv")]) == cli.EXIT_OK
        assert len(draws) == 28

    def test_preset_fig2_numerical_error_names_its_k_and_writes_nothing(self, tmp_path,
                                                                        monkeypatch, capsys):
        # K = 10's calibration job, the third of six, fails in its first block
        local, color = threading.local(), cli.montecarlo._color
        statistics = cli.montecarlo.statistics

        def colored(scenario, *args):
            local.k = scenario.K
            return color(scenario, *args)

        def singular_at_k10(*args, **kwargs):
            if local.k == 10:
                raise np.linalg.LinAlgError("Singular matrix")
            return statistics(*args, **kwargs)

        monkeypatch.setattr(cli.montecarlo, "_color", colored)
        monkeypatch.setattr(cli.montecarlo, "statistics", singular_at_k10)
        assert cli.main(["preset", "fig2", "--out", str(tmp_path / "f.csv")]) == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == "" and list(tmp_path.iterdir()) == []
        assert captured.err == ("numerical error: job 2 (N, K, M, J, L) = (12, 10, 3, 2, 11): "
                                "Singular matrix in trial (seed, domain, trial) = "
                                f"({DEFAULT_SEED}, 0, 0) of stream version {STREAM_VERSION}\n")

    def test_version_names_the_stream_layout(self, capsys):
        # a CSV is tied to the draws that made it by the layout that drew them
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == (f"adaptdet {adaptdet.__version__} "
                                           f"(stream layout {STREAM_VERSION})\n")

    def test_preset_fig2_prints_three_configs(self, capsys):
        assert cli.main(["preset", "fig2", "--print-config"]) == 0
        out = capsys.readouterr().out
        assert out.count("N = 12") == 3
        for k in cli.FIG2_K_GRID:
            assert f"K = {k}" in out


def test_start_up_loads_only_what_the_command_runs():
    # scipy serves only the test oracles and adaptdet.verify only `adaptdet
    # verify`, and the engine runs its threads without concurrent.futures (which
    # pulls in logging): engine calls on one and on two threads must import none
    # of them, and the lazy adaptdet.verify must still resolve to the module's
    # own names
    src = str(Path(adaptdet.__file__).resolve().parents[1])
    probe = (
        "import adaptdet, adaptdet.cli, sys; "
        "from adaptdet import DetectorKind, make_scenario, simulate_statistics; "
        "sc, kinds = make_scenario(5, 8, 2, 2, 6), [DetectorKind.GLRGDD_RU]; "
        "simulate_statistics(sc, kinds, 300, 0); "
        "simulate_statistics(sc, kinds, 600, 0, threads=2); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent') "
        "or m == 'adaptdet.verify')); "
        "print(adaptdet.run_verification is adaptdet.verify.run_verification)")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["[]", "True"]


@pytest.mark.parametrize("module", ["adaptdet"] + [
    f"adaptdet.{info.name}" for info in pkgutil.iter_modules(adaptdet.__path__)
    if info.name != "__main__"])
def test_export_list_names_resolve_once(module):
    # a stale __all__ entry would otherwise fail only at `from module import *`
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names)), f"duplicate names in {module}.__all__"
    assert [name for name in names if not hasattr(mod, name)] == []


@pytest.mark.parametrize("path", [
    "cli.main", "config.parse_config", "config.build_scenario",
    "montecarlo.simulate_statistics", "verify.instance_stream", "verify.compute",
    "verify.appendix_identities", "cli.build_scenario",
    "verify.random_instance", "montecarlo.threshold_from_h0",
    "montecarlo.calibrate_thresholds", "montecarlo.pd_curves"])
def test_benchmark_entry_points_resolve(path):
    # perfbench/worker.py reads these as attributes of the imported package, and
    # perfbench/tracer.py wraps them: a missing one zeroes a per-layer metric
    module, name = path.split(".")
    assert callable(getattr(getattr(adaptdet, module), name))


def test_benchmark_reads_instances_and_runs_the_engine_as_called():
    # perfbench/worker.py reads these instance fields, calls the engine
    # positionally and reads .value of verify.compute, a private adapter over
    # detectors.evaluate that goes when the benchmark's per-instance probe
    # stops calling it (ROADMAP item 14B)
    _, inst = next(adaptdet.verify.instance_stream(0, 1))
    for name in ("x", "x_l", "a", "c"):
        assert isinstance(getattr(inst, name), np.ndarray)
    assert inst.valid_kinds()
    for kind in inst.valid_kinds():
        value = adaptdet.verify.compute(kind, inst.x, inst.x_l, inst.a, inst.c).value
        assert isinstance(value, float) and np.isfinite(value)
    cfg = parse_config(SMALL_CONFIG)
    stats = adaptdet.montecarlo.simulate_statistics(build_scenario(cfg), cfg.detectors, 2, 0,
                                                    threads=1)
    assert stats.shape == (2, len(cfg.detectors))


def test_benchmark_reads_the_identity_budget():
    assert isinstance(adaptdet.linalg.TOL.identity_rtol, float)


def test_readme_library_use_runs():
    # the documented API example, run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_readme_output_row_is_what_preset_fig1_writes(tmp_path):
    # the example row of README's Output section, against a real run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Output\n", 1)[1]
    example = section.split("```\n", 1)[1].split("\n```", 1)[0].splitlines()
    out = tmp_path / "fig1.csv"
    assert cli.main(["preset", "fig1", "--threads", "2", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").splitlines()[:2] == example[:2]
