import csv
import re
import signal
from dataclasses import replace
from pathlib import Path

import pytest

from iasim.cli import (Experiment, main, parse_config, preset,
                       run_experiment, _parse_values)
from iasim.network import NetworkConfig


def write(tmp_path, text):
    p = tmp_path / "exp.cfg"
    p.write_text(text)
    return p


MINIMAL = """
# minimal experiment
k = 3
nt = 2
nr = 2
rate_per_pair = 2
snr_db = 0:30:5
epsilon = 0
modes = minil
"""


class TestParseConfig:
    def test_minimal_accepted(self, tmp_path):
        exp = parse_config(write(tmp_path, MINIMAL))
        assert exp.cfg.k_pairs == 3
        assert exp.snr_db == [0, 5, 10, 15, 20, 25, 30]
        assert exp.modes == ["minil"]

    def test_unknown_key_named(self, tmp_path):
        p = write(tmp_path, MINIMAL + "bogus_key = 1\n")
        with pytest.raises(ValueError, match="bogus_key"):
            parse_config(p)

    def test_epsilon_range_rejected(self, tmp_path):
        p = write(tmp_path, "epsilon = 1.5\n")
        with pytest.raises(ValueError, match="epsilon"):
            parse_config(p)

    def test_bad_mode_rejected(self, tmp_path):
        p = write(tmp_path, "modes = quantum\n")
        with pytest.raises(ValueError, match="'quantum'; choose from"):
            parse_config(p)

    def test_absent_keys_take_the_defaults(self, tmp_path):
        exp = parse_config(write(tmp_path, "# nothing set\n"))
        assert exp.cfg == NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=1.0,
                                        rate_per_pair=2, epsilon=0.0,
                                        iterations=100, seed=0)
        assert [exp.snr_db, exp.epsilon, exp.modes, exp.loading] == [
            [0, 5, 10, 15, 20, 25, 30], [0.0], ["minil"], [False]]
        assert (exp.target_errors, exp.max_bits) == (200, 20_000_000)

    def test_repeated_key_rejected(self, tmp_path):
        # Unchecked, the last value won: k = 3 then k = 4 gave K = 4.
        p = write(tmp_path, "k = 3\nnt = 2\n\nk = 4\n")
        with pytest.raises(ValueError, match=r":4: key 'k' repeats line 1"):
            parse_config(p)

    def test_malformed_line(self, tmp_path):
        p = write(tmp_path, "k 3\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config(p)

    def test_proper_boundary_accepted_without_warning(self, tmp_path, capsys):
        # K=4 with 3x2 antennas: 3 + 2 >= 4 + 1 holds, no warning
        p = write(tmp_path, "k = 4\nnt = 3\nnr = 2\nmodes = minil\n")
        exp = parse_config(p)
        assert exp.cfg.is_proper
        assert "alignment" not in capsys.readouterr().err

    def test_improper_warns(self, tmp_path, capsys):
        p = write(tmp_path, "k = 4\nnt = 2\nnr = 2\nmodes = minil\n")
        parse_config(p)
        assert "not proper" in capsys.readouterr().err

    @pytest.mark.parametrize("line,key", [
        ("k = 3.7", "k"), ("nt = two", "nt"), ("seed = 1.5", "seed"),
        ("max_bits = inf", "max_bits"), ("loading = 2", "loading"),
        ("loading = 0,0.5", "loading"),
    ])
    def test_non_integer_values_rejected(self, tmp_path, line, key):
        with pytest.raises(ValueError, match=rf"\b{key} must be"):
            parse_config(write(tmp_path, line + "\n"))

    def test_integer_spellings_accepted(self, tmp_path):
        exp = parse_config(write(tmp_path, "k = 3.0\nmax_bits = 1e6\n"
                                           "loading = 0,1\n"))
        assert exp.cfg.k_pairs == 3 and exp.max_bits == 1_000_000
        assert exp.loading == [False, True]

    def test_grid_syntax(self):
        assert _parse_values("1,2,3") == [1.0, 2.0, 3.0]
        assert _parse_values("0:10:5") == [0.0, 5.0, 10.0]
        with pytest.raises(ValueError):
            _parse_values("0:10:0")

    @pytest.mark.parametrize("text", ["0:inf:5", "0:nan:5", "-inf:0:5",
                                      "0:10:inf", "0,5,nan", "inf"])
    def test_non_finite_grid_rejected(self, text):
        # Unchecked, an infinite stop grows the grid without end, a nan
        # stop gives an empty grid, and a nan in a list fails only when
        # its cell runs, after the output directory exists.
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            _parse_values(text)

    @pytest.mark.parametrize("text", ["1e17:1e17:1", "1e17:2e17:1"])
    def test_range_step_below_float_spacing_rejected(self, text):
        # 1e17 + 1 == 1e17, so unchecked the range appends without end;
        # the alarm turns that into a failure instead of a hang.
        def stuck(signum, frame):
            raise TimeoutError(f"_parse_values({text!r}) did not return")

        old = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(2)
        try:
            with pytest.raises(ValueError, match=re.escape(repr(text))):
                _parse_values(text)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)


class TestPresets:
    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4",
                                      "fig5", "fig6", "fig7"])
    def test_presets_valid(self, name):
        exp = preset(name)
        assert exp.name == name

    # name: ((K, nt, nr), snr_db, epsilon, modes, loading, special)
    SNR = [0, 5, 10, 15, 20, 25, 30]
    EPS = [0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5]
    FULL = ["minil", "maxsinr", "svd"]
    FIELDS = {
        "fig1": ((3, 3, 2), [], [0.0], ["maxsinr"], [False], "fig1"),
        "fig2": ((3, 2, 2), SNR, [0.0, 0.05, 0.1], FULL, [False], None),
        "fig3": ((3, 3, 2), SNR, [0.0, 0.05, 0.1], FULL, [False], None),
        "fig4": ((4, 3, 2), SNR, [0.0, 0.05, 0.1], FULL, [False], None),
        "fig5": ((3, 2, 2), [20.0], EPS, FULL, [False], None),
        "fig6": ((3, 2, 2), SNR, [0.0], FULL + ["adaptive"], [True], None),
        "fig7": ((3, 2, 2), [15.0], EPS, FULL + ["adaptive"], [True], None),
    }

    @pytest.mark.parametrize("name", list(FIELDS))
    def test_preset_fields(self, name):
        (k, nt, nr), *grids = self.FIELDS[name]
        exp = preset(name)
        assert exp.cfg == NetworkConfig(k_pairs=k, nt=nt, nr=nr,
                                        power_p=1.0, rate_per_pair=2,
                                        epsilon=0.0, iterations=100, seed=0)
        assert [exp.snr_db, exp.epsilon, exp.modes, exp.loading,
                exp.special] == grids
        assert (exp.target_errors, exp.max_bits) == (200, 20_000_000)

    def test_preset_lists_are_fresh(self):
        # Editing one preset's grids must not leak into the next call.
        exp = preset("fig6")
        exp.snr_db.append(99.0)
        exp.modes.remove("adaptive")
        assert 99.0 not in preset("fig6").snr_db
        assert "adaptive" in preset("fig6").modes

    def test_fig2_shape(self):
        exp = preset("fig2")
        assert exp.cfg.k_pairs == 3 and exp.cfg.nt == 2 and exp.cfg.nr == 2
        assert exp.epsilon == [0.0, 0.05, 0.1]
        assert set(exp.modes) == {"minil", "maxsinr", "svd"}

    def test_fig5_is_epsilon_sweep_at_20db(self):
        exp = preset("fig5")
        assert exp.snr_db == [20.0]
        assert len(exp.epsilon) > 3

    def test_fig7_is_loaded_epsilon_sweep_at_15db(self):
        exp = preset("fig7")
        assert exp.snr_db == [15.0]
        assert exp.loading == [True]
        assert "adaptive" in exp.modes

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("fig9")


def tiny_experiment(seed=1):
    return Experiment(
        name="tiny", cfg=NetworkConfig(k_pairs=3, nt=2, nr=2, seed=seed),
        snr_db=[0.0, 5.0], epsilon=[0.0], modes=["minil"], loading=[False],
        target_errors=20, max_bits=40_000)


class TestRunExperiment:
    def test_fig1_header(self, tmp_path):
        # The header comes from the rows; pin the fig1 table's columns.
        exp = preset("fig1")
        exp.cfg = replace(exp.cfg, iterations=2)
        with run_experiment(exp, tmp_path, timestamp=False).open() as fh:
            assert next(csv.reader(fh)) == [
                "experiment", "power", "avg_desired_power",
                "avg_interference", "minil_baseline", "beamforming_power"]

    def test_fig1_csv_does_not_depend_on_workers(self, tmp_path):
        exp = preset("fig1")
        exp.cfg = replace(exp.cfg, iterations=3)
        paths = [run_experiment(exp, tmp_path / str(w), workers=w,
                                timestamp=False) for w in (1, 2)]
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_schema_and_determinism(self, tmp_path):
        path1 = run_experiment(tiny_experiment(), tmp_path / "a",
                               timestamp=False)
        path2 = run_experiment(tiny_experiment(), tmp_path / "b",
                               timestamp=False)
        assert path1.read_text() == path2.read_text()
        with path1.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["experiment"] == "tiny"
        assert rows[0]["mode"] == "minil"
        assert float(rows[0]["ber"]) > 0
        assert rows[0]["analytic_ber"] != ""
        expected = ["experiment", "mode", "loading", "K", "nt", "nr",
                    "snr_db", "epsilon", "bits", "errors", "ber", "ci95",
                    "analytic_ber"]
        assert list(rows[0].keys()) == expected

    def test_timestamp_header_toggle(self, tmp_path):
        p = run_experiment(tiny_experiment(), tmp_path, timestamp=True)
        assert p.read_text().startswith("# generated ")


class TestMain:
    def test_requires_exactly_one_source(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        with pytest.raises(SystemExit):
            main(["--config", "x", "--preset", "fig2"])

    def test_config_run(self, tmp_path, capsys):
        cfg = write(tmp_path, MINIMAL.replace("snr_db = 0:30:5", "snr_db = 0")
                    + "target_errors = 10\nmax_bits = 20000\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                   "--no-timestamp", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("exp.csv")
        assert Path(out).exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = write(tmp_path, "bogus = 1\n")
        rc = main(["--config", str(cfg)])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("preset_name", ["fig1", "fig2"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_workers_exit_code(self, tmp_path, capsys, preset_name,
                                   workers):
        rc = main(["--preset", preset_name, "--workers", workers,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: workers")
        assert not (tmp_path / "out").exists()

    def test_non_finite_grid_fails_before_output(self, tmp_path, capsys):
        cfg = write(tmp_path, "snr_db = 0,5,nan\nmax_bits = 2000\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "'0,5,nan'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("snr_db", ["4000", "-4000"])
    def test_snr_beyond_float_power_fails_before_output(self, tmp_path,
                                                        capsys, snr_db):
        # Finite in dB, but 10^(snr/10) overflows to inf or underflows to 0.
        cfg = write(tmp_path, f"snr_db = {snr_db}\nmax_bits = 2000\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: snr_db") and "power_p" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,args,message", [
        ("snr_db =\n", [], "grid '' has no values"),
        ("epsilon = ,\n", [], "grid ',' has no values"),
        ("snr_db = 5:0:1\n", [], "grid '5:0:1' has no values"),
        ("target_errors = 0\n", [], "target_errors"),
        ("", ["--target-errors", "0"], "target_errors"),
        ("", ["--max-bits", "-5"], "max_bits"),
    ])
    def test_bad_grid_or_stop_fails_before_output(self, tmp_path, capsys,
                                                   text, args, message):
        # Each used to be rejected only after the directory was made.
        cfg = write(tmp_path, text)
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "out")]
                  + args)
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,message", [
        ("snr_db = 0,0\nmodes = minil,minil\n", "snr_db grid repeats 0.0"),
        ("modes = minil, MinIL\n", "modes grid repeats minil"),
        ("epsilon = 0.1,0.05,0.1\n", "epsilon grid repeats 0.1"),
        ("loading = 1,1\nmodes = svd\n", "loading grid repeats True"),
    ])
    def test_repeated_grid_value_fails_before_output(self, tmp_path, capsys,
                                                      text, message):
        cfg = write(tmp_path, text)
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unloaded_adaptive_fails_before_output(self, tmp_path, capsys):
        # Adaptive picks among the loaded designs; a grid with no loaded
        # flag used to drop it and write a header-only CSV.
        cfg = write(tmp_path, "modes = adaptive\nloading = 0\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "adaptive needs loading" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [["--target-errors", "10"],
                                      ["--max-bits", "1000"]])
    def test_fig1_stop_rule_fails_before_output(self, tmp_path, capsys,
                                                args):
        # fig1 is a power table, not a BER sweep: a stop rule is not used.
        rc = main(["--preset", "fig1", "--out", str(tmp_path / "out")]
                  + args)
        assert rc == 1
        assert "fig1 takes no stop rule" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file_exit_code(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "nope.cfg")])
        assert rc == 1
