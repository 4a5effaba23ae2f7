"""Command dispatch, config handling, exit codes, reproducible artifacts."""

import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from thermoplate import cli
from thermoplate.torus import NumericalError


def run(argv, tmp_path, monkeypatch, env=None):
    monkeypatch.setenv(cli.ENV_OUT, str(tmp_path))
    monkeypatch.delenv(cli.ENV_PERTURB, raising=False)
    for key, val in (env or {}).items():
        monkeypatch.setenv(key, val)
    return cli.main(argv)


class TestConfigRoundTrip:
    def test_defaults_round_trip(self):
        cfg = cli.RunConfig(command="roots")
        assert cli.config_from_text(cli.config_to_text(cfg)) == cfg

    def test_randomized_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            cfg = cli.RunConfig(
                command=str(rng.choice(cli.COMMANDS)),
                domain=str(rng.choice(["interval", "rectangle"])),
                bc=str(rng.choice(["free", "lt"])),
                beta=float(rng.uniform(0, 1)),
                mu=float(rng.uniform(0, 0.5)),
                b=float(10.0 ** rng.uniform(-3, 3)),
                grid=int(rng.integers(8, 300)),
                grids=tuple(int(x) for x in rng.integers(8, 200, size=3)),
                seed=int(rng.integers(0, 2**31)),
                k_values=tuple(float(x) for x in 10.0 ** rng.uniform(-2, 4, 3)),
                j=int(rng.integers(0, 3)),
                modes=int(2 ** rng.integers(2, 12)),
                dim=int(rng.integers(1, 3)),
                length=float(rng.uniform(0.1, 1000.0)),
                t=float(rng.uniform(0, 10)),
                horizon=float(rng.uniform(0, 100)),
                samples=int(rng.integers(2, 500)),
                count=int(rng.integers(1, 9)),
                json_output=bool(rng.integers(0, 2)),
            )
            text = cli.config_to_text(cfg)
            assert cli.config_from_text(text) == cfg

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\ngrid = 64\n   # indented comment\nseed = 9\n"
        cfg = cli.config_from_text(text)
        assert cfg.grid == 64
        assert cfg.seed == 9

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(cli.ConfigError, match="line 2"):
            cli.config_from_text("grid = 64\nwt = 3\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.config_from_text("grid 64\n")

    def test_bad_value_type_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.config_from_text("grid = banana\n")

    def test_tuple_fields_parse(self):
        cfg = cli.config_from_text("grids = 16,32,64\nk_values = 1,2.5,30\n")
        assert cfg.grids == (16, 32, 64)
        assert cfg.k_values == (1.0, 2.5, 30.0)


class TestExitCodes:
    def test_ok(self, tmp_path, monkeypatch):
        assert run(["roots"], tmp_path, monkeypatch) == cli.EXIT_OK

    def test_no_command_is_usage_error(self, tmp_path, monkeypatch):
        assert run([], tmp_path, monkeypatch) == cli.EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, tmp_path, monkeypatch):
        assert run(["roots", "--nope"], tmp_path, monkeypatch) == cli.EXIT_USAGE

    def test_variant_domain_mismatch_is_usage_error(self, tmp_path, monkeypatch):
        rc = run(
            ["spectrum", "--domain", "interval", "--bc", "lt"],
            tmp_path,
            monkeypatch,
        )
        assert rc == cli.EXIT_USAGE

    def test_nonpositive_witness_k_is_usage_error(self, tmp_path, monkeypatch):
        assert run(["witness", "--", "-2"], tmp_path, monkeypatch) == cli.EXIT_USAGE

    def test_perturbed_roots_fail_check(self, tmp_path, monkeypatch):
        rc = run(
            ["roots"], tmp_path, monkeypatch, env={cli.ENV_PERTURB: "1e-3"}
        )
        assert rc == cli.EXIT_CHECK

    def test_numerical_error_maps_to_three(self, tmp_path, monkeypatch):
        def boom(state, t):
            raise NumericalError("synthetic instability")

        monkeypatch.setattr(cli.torus, "evolve", boom)
        rc = run(["evolve", "--modes", "16"], tmp_path, monkeypatch)
        assert rc == cli.EXIT_NUMERICAL

    def test_unknown_config_key_is_usage_error(self, tmp_path, monkeypatch):
        bad = tmp_path / "bad.cfg"
        bad.write_text("whatsthis = 1\n")
        rc = run(["roots", "--config", str(bad)], tmp_path, monkeypatch)
        assert rc == cli.EXIT_USAGE


class TestFlagPrecedence:
    def test_flag_overrides_config_file(self, tmp_path, monkeypatch):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("grid = 60\n")
        rc = run(
            ["spectrum", "--config", str(cfgfile), "--grid", "50"],
            tmp_path,
            monkeypatch,
        )
        assert rc == cli.EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["grid"] == 50

    def test_config_file_overrides_default(self, tmp_path, monkeypatch):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("grid = 60\n")
        rc = run(["spectrum", "--config", str(cfgfile)], tmp_path, monkeypatch)
        assert rc == cli.EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["grid"] == 60

    def test_out_flag_beats_environment(self, tmp_path, monkeypatch):
        other = tmp_path / "elsewhere"
        other.mkdir()
        rc = run(["roots", "--out", str(other)], tmp_path, monkeypatch)
        assert rc == cli.EXIT_OK
        assert (other / "roots.json").exists()
        assert not (tmp_path / "roots.json").exists()


class TestManifest:
    def test_structure_and_hashes(self, tmp_path, monkeypatch):
        assert run(["witness", "1", "10"], tmp_path, monkeypatch) == cli.EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "witness"
        assert manifest["checks"]["matches_closed_form"] is True
        assert isinstance(manifest["wall_time_s"], float)
        for name, digest in manifest["artifacts"].items():
            payload = (tmp_path / name).read_bytes()
            assert hashlib.sha256(payload).hexdigest() == digest

    def test_config_echo_parses_back(self, tmp_path, monkeypatch):
        assert run(["spectrum", "--grid", "50"], tmp_path, monkeypatch) == cli.EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        cfg = manifest["config"]
        assert cfg["command"] == "spectrum"
        assert cfg["grid"] == 50


class TestOutputs:
    def test_roots_json_parseable(self, tmp_path, monkeypatch, capsys):
        assert run(["roots", "--json"], tmp_path, monkeypatch) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["gamma1"] == pytest.approx(0.5698402909980533)
        assert payload["invariants_ok"] is True

    def test_witness_csv(self, tmp_path, monkeypatch):
        assert run(["witness", "1", "10", "100"], tmp_path, monkeypatch) == 0
        rows = (tmp_path / "witness.csv").read_text().splitlines()
        assert rows[0] == "k,witness,closed_form,relative_difference"
        assert len(rows) == 4

    def test_spectrum_writes_csv_and_json(self, tmp_path, monkeypatch):
        assert run(["spectrum", "--grid", "50"], tmp_path, monkeypatch) == 0
        assert (tmp_path / "spectrum.csv").exists()
        report = json.loads((tmp_path / "spectrum.json").read_text())
        assert report["kernel_dimension"] == 3

    def test_evolve_states_reload(self, tmp_path, monkeypatch):
        from thermoplate import torus

        rc = run(
            ["evolve", "--modes", "32", "--dim", "1", "--t", "0.5"],
            tmp_path,
            monkeypatch,
        )
        assert rc == 0
        st = torus.load_state(tmp_path / "state_final.bin")
        assert st.grid.modes == (32,)

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["sweep", "--modes", "16"], "sweep.csv"),
            (["evolve", "--modes", "16"], "energy.csv"),
            (["spectrum", "--grid", "20"], "spectrum.csv"),
            (["decay", "--grid", "20"], "decay.csv"),
            (["converge", "--grids", "16,32,64"], "converge.csv"),
        ],
    )
    def test_csv_cells_are_plain_numbers(self, argv, name, tmp_path, monkeypatch):
        assert run(argv, tmp_path, monkeypatch) == 0
        rows = (tmp_path / name).read_text().splitlines()[1:]
        assert rows
        for cell in (c for row in rows for c in row.split(",")):
            assert "np." not in cell
            float(cell)


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ["roots"],
            ["witness", "1", "10", "100"],
            ["spectrum", "--grid", "50"],
            ["evolve", "--modes", "32", "--t", "0.5", "--seed", "11"],
        ],
    )
    def test_rerun_is_byte_identical(self, argv, tmp_path, monkeypatch):
        # same config, same directory, run twice; only the wall clock moves
        assert run(argv, tmp_path, monkeypatch) == 0
        first = {
            p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()
        }
        assert run(argv, tmp_path, monkeypatch) == 0
        second = {
            p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()
        }
        assert sorted(first) == sorted(second)
        for name, payload in first.items():
            if name == "manifest.json":
                ma = json.loads(payload)
                mb = json.loads(second[name])
                ma.pop("wall_time_s")
                mb.pop("wall_time_s")
                assert ma == mb
            else:
                assert payload == second[name], f"{name} differs between runs"
