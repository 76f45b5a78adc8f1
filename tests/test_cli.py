import csv
import re
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
        with pytest.raises(ValueError, match="quantum"):
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


class TestPresets:
    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4",
                                      "fig5", "fig6", "fig7"])
    def test_presets_valid(self, name):
        exp = preset(name)
        assert exp.name == name

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
        cfg = write(tmp_path, MINIMAL + "target_errors = 10\nmax_bits = 20000\n"
                    "snr_db = 0\n")
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

    def test_missing_file_exit_code(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "nope.cfg")])
        assert rc == 1
