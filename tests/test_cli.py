"""Command dispatch, config handling, exit codes, reproducible artifacts."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
import scipy

from thermoplate import bounded, cli, multipliers, symbols
from thermoplate.symbols import NumericalError


def run(argv, tmp_path, monkeypatch, env=None):
    monkeypatch.setenv(cli.ENV_OUT, str(tmp_path))
    for key, val in (env or {}).items():
        monkeypatch.setenv(key, val)
    return cli.main(argv)


def _config_text(cfg):
    """cfg written as config lines: the inverse config_from_text must honour."""
    lines = []
    for f in fields(cli.RunConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(map(repr, v))
        elif isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


class TestConfigRoundTrip:
    def test_defaults_round_trip(self):
        cfg = cli.RunConfig(command="roots")
        assert cli.config_from_text(_config_text(cfg)) == cfg

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
            assert cli.config_from_text(_config_text(cfg)) == cfg

    def test_every_field_parses(self):
        text = """
            command = decay
            domain = rectangle
            bc = lt
            beta = 0.25
            mu = -0.5
            b = 1e-3
            grid = 24
            grids = 8, 16,32
            seed = 42
            out = runs/a
            k_values = 1,2.5,1e3
            j = 0
            modes = 64
            dim = 2
            length = 3.5
            t = 0.125
            horizon = 12
            samples = 33
            count = 3
            json_output = true
        """
        keys = [line.split("=")[0].strip() for line in text.strip().splitlines()]
        assert keys == [f.name for f in fields(cli.RunConfig)]
        cfg = cli.config_from_text(text)
        assert cfg == cli.RunConfig(
            command="decay", domain="rectangle", bc="lt", beta=0.25, mu=-0.5, b=1e-3,
            grid=24, grids=(8, 16, 32), seed=42, out="runs/a", k_values=(1.0, 2.5, 1e3),
            j=0, modes=64, dim=2, length=3.5, t=0.125, horizon=12.0, samples=33,
            count=3, json_output=True)
        # equality alone would let 12 stand for 12.0 and 1 for True
        for f in fields(cli.RunConfig):
            assert type(getattr(cfg, f.name)) is type(f.default), f.name
        assert [type(g) for g in cfg.grids] == [int] * 3
        assert [type(k) for k in cfg.k_values] == [float] * 3

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


class TestCommandTable:
    def test_every_flag_sets_a_config_field(self):
        names = {f.name for f in fields(cli.RunConfig)}
        sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
        assert tuple(sub.choices) == cli.COMMANDS == tuple(cli._COMMANDS)
        settable = set()
        for command, (_, _, flags) in cli._COMMANDS.items():
            dests = {a.dest for a in sub.choices[command]._actions if a.option_strings}
            dests -= {"help", "config"}
            assert set(flags) <= dests <= names, command
            settable |= dests
        assert settable == names - {"command"}


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

    @pytest.mark.parametrize("k", ["0", "-2", "nan", "inf"])
    def test_witness_k_is_named_when_rejected(self, k, tmp_path, monkeypatch, capsys):
        assert run(["witness", "1", "--", k], tmp_path, monkeypatch) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: key 'k': ")

    def test_perturbed_roots_fail_check(self, tmp_path, monkeypatch):
        exact = symbols.characteristic_roots()
        monkeypatch.setattr(symbols, "characteristic_roots",
                            lambda: replace(exact, gamma1=exact.gamma1 + 1e-3))
        assert run(["roots"], tmp_path, monkeypatch) == cli.EXIT_CHECK
        # a failed check still writes its artifact and a manifest that hashes it
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["checks"]["root_invariants"] is False
        payload = (tmp_path / "roots.json").read_bytes()
        assert manifest["artifacts"] == {"roots.json": hashlib.sha256(payload).hexdigest()}

    def test_growing_mode_below_zero_tol_fails_enclosure(self, tmp_path, monkeypatch, capsys):
        # a free spectrum whose abscissa off the zero cluster is positive grows,
        # however far below zero_tol its largest real part sits
        exact = cli.bounded.spectrum

        def growing(gen):
            rep = exact(gen)
            return replace(rep, decay_margin=-rep.zero_tol / 2, max_real_part=rep.zero_tol / 2)

        monkeypatch.setattr(cli.bounded, "spectrum", growing)
        assert run(["spectrum", "--grid", "50"], tmp_path, monkeypatch) == cli.EXIT_CHECK
        assert capsys.readouterr().err == "check failure: spectral_enclosure\n"

    @pytest.mark.parametrize("argv, code", [
        (["spectrum", "--grid", "4"], cli.EXIT_USAGE),
        (["evolve", "--modes", "8", "--t", "1e300"], cli.EXIT_NUMERICAL),
    ], ids=["usage", "numerical"])
    def test_failed_run_creates_no_output_directory(self, argv, code, tmp_path, monkeypatch):
        never = tmp_path / "never"
        assert run([*argv, "--out", str(never)], tmp_path, monkeypatch) == code
        assert not never.exists()

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
    def test_unusable_out_is_usage_error(self, below, tmp_path, monkeypatch, capsys):
        plain = tmp_path / "plain"
        plain.write_text("not a directory\n")
        out = str(plain / below) if below else str(plain)
        assert run(["roots", "--out", out], tmp_path, monkeypatch) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and out in err
        assert "Traceback" not in err
        assert plain.read_text() == "not a directory\n"

    def test_perturbed_roots_fail_check_under_optimize(self, tmp_path):
        # validation must not rest on assert, which python -O strips
        src = os.path.dirname(os.path.dirname(cli.__file__))
        script = ("import dataclasses, sys\nfrom thermoplate import cli, symbols\n"
                  "exact = symbols.characteristic_roots()\n"
                  "symbols.characteristic_roots = lambda: dataclasses.replace(\n"
                  "    exact, gamma1=exact.gamma1 + 0.1)\n"
                  "sys.exit(cli.main(['roots', '--out', sys.argv[1]]))\n")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", script, str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == cli.EXIT_CHECK, proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--modes", "100"],
            ["evolve", "--t", "-1"],
            ["evolve", "--t", "nan"],
            ["evolve", "--t", "inf"],
            ["evolve", "--length", "inf"],
            ["sweep", "--length", "nan"],
            ["decay", "--samples", "3"],
            ["sweep", "--k-values", "abc"],
            # grids so fine that s^3 overflows, s = |xi|^2
            ["evolve", "--modes", "8", "--length", "1e-100"],
            ["evolve", "--modes", "8", "--length", "1e-160"],
            ["sweep", "--modes", "8", "--length", "1e-100"],
            ["converge", "--grids", "8,16,32", "--count", "0"],
            ["converge", "--grids", "8,16,32", "--count", "-1"],
            ["decay", "--horizon", "nan"],
            ["decay", "--horizon", "inf"],
            ["decay", "--horizon", "-1"],
            ["sweep", "--k-values="],
            # above the dense size limit, rejected before assembly
            ["spectrum", "--domain", "rectangle", "--grid", "100"],
            ["converge", "--domain", "rectangle", "--grids", "25,50,100"],
            # k^-2 overflows; more modes than the coarsest grid can track
            ["sweep", "--k-values", "1e-200"],
            ["converge", "--grids", "8,16,32", "--count", "100"],
            # det(lambda - A) overflows at lambda = k^-2, below the k^-2 guard
            ["sweep", "--k-values", "1e-60"],
            ["sweep", "--k-values", "1e-100"],
            ["sweep", "--k-values", "1e-150"],
            # the witness determinant overflows (small k) or vanishes (large k)
            ["witness", "1e-60"],
            ["witness", "1e-150"],
            ["witness", "1e100"],
            ["witness", "1e160"],
            ["witness", "1e-200"],
            # the determinant's scale lambda^3 underflows at xi = 0
            ["sweep", "--k-values", "1e52"],
            ["sweep", "--k-values", "1,1e60"],
        ],
    )
    def test_library_value_error_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        assemble = bounded._assemble

        def small_only(cells, *rest):
            # every probe fails at the default grid or before any assembly
            if math.prod(cells) > cli.RunConfig().grid:
                raise AssertionError(f"assembled a {cells} grid")
            return assemble(cells, *rest)

        monkeypatch.setattr(bounded, "_assemble", small_only)
        start = time.perf_counter()
        assert run(argv, tmp_path, monkeypatch) == cli.EXIT_USAGE
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("k", ["1e50", "1.8e51"])
    def test_tiny_lambda_at_origin_is_not_singular(self, k, tmp_path, monkeypatch, capsys):
        # det = lambda^3 < 1e-300 at xi = 0, but well above the relative floor
        assert run(["sweep", "--modes", "8", "--k-values", k], tmp_path, monkeypatch) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        origin = float(rows[1].split(",")[2])
        assert np.isfinite(origin) and origin > 1e99

    def test_overflowing_scale_is_not_singular(self, tmp_path, monkeypatch):
        # prod(|lambda| + |gamma_j| s) overflows while det(lambda - A) stays finite
        argv = ["sweep", "--modes", "4", "--length", "1e-50", "--k-values", "5e-52"]
        assert run(argv, tmp_path, monkeypatch) == cli.EXIT_OK
        row = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")
        bounds = [float(row[2]), float(row[4])]
        assert all(math.isfinite(b) and 0.0 < b <= 1.0 for b in bounds)

    def test_overflowing_energy_norm_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        # the s = 0 mode drifts to ~1e300, whose square overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = run(["evolve", "--modes", "8", "--t", "1e300"], tmp_path, monkeypatch)
        assert rc == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: ")

    @pytest.mark.parametrize("t", ["1e308", "1.7e308"])
    def test_overflowing_time_is_usage_error(self, t, tmp_path, monkeypatch, capsys):
        # t max|xi|^2 overflows, where the phases of the propagators turn invalid
        never = tmp_path / "never"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = run(["evolve", "--modes", "4", "--t", t, "--out", str(never)], tmp_path,
                     monkeypatch)
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: time must be >= 0 with t max|xi|^2")
        assert err[0].endswith(f"got {float(t)!r}") and not never.exists()

    @pytest.mark.parametrize(
        "command, flag, key, value",
        [
            ("evolve", "--dim", "dim", "3"),
            ("spectrum", "--grid", "grid", "banana"),
            ("sweep", "--k-values", "k_values", ""),
            # non-finite floats and non-positive k
            ("spectrum --grid 50", "--beta", "beta", "nan"),
            ("sweep", "--k-values", "k_values", "inf"),
            ("sweep", "--k-values", "k_values", "nan"),
            ("sweep", "--k-values", "k_values", "1,0"),
            ("sweep", "--k-values", "k_values", "-1"),
            ("spectrum --domain rectangle --bc free --grid 8", "--mu", "mu", "nan"),
            ("spectrum --domain rectangle --bc lt --grid 8", "--mu", "mu", "inf"),
            ("spectrum --domain rectangle --bc lt --grid 8", "--b", "b", "inf"),
            ("evolve", "--length", "length", "-inf"),
            ("decay", "--horizon", "horizon", "nan"),
            ("evolve", "--seed", "seed", "-1"),
        ],
    )
    def test_bad_value_fails_alike_as_flag_and_config_line(self, command, flag, key, value,
                                                           tmp_path, monkeypatch, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"{key} = {value}\n")
        command = command.split()
        for argv in ([*command, f"{flag}={value}"], [*command, "--config", str(cfgfile)]):
            assert run(argv, tmp_path, monkeypatch) == cli.EXIT_USAGE
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and repr(key) in err[0]

    @pytest.mark.parametrize("bc, mu", [("free", "1.5"), ("lt", "1.5"), ("free", "1.0")])
    def test_rectangle_mu_at_or_above_one_is_usage_error(self, bc, mu, tmp_path, monkeypatch,
                                                        capsys):
        out = tmp_path / "never"
        argv = ["spectrum", "--domain", "rectangle", "--bc", bc, "--mu", mu, "--grid", "12",
                "--out", str(out)]
        assert run(argv, tmp_path, monkeypatch) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: mu must be below 1")
        assert not out.exists()

    def test_tiny_decay_horizon_is_one_numerical_failure(self, tmp_path, monkeypatch, capsys):
        # the fit window's squared times underflow, so polyfit cannot scale its columns
        argv = ["decay", "--domain", "rectangle", "--bc", "lt", "--grid", "8", "--samples", "8",
                "--horizon", "1e-300"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(argv, tmp_path, monkeypatch) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: ")
        assert "window" in err[0]

    @pytest.mark.parametrize("argv, code", [
        # a b so large that a ghost class's system is exactly singular
        ("spectrum --domain rectangle --bc lt --grid 8 --b 1e160", cli.EXIT_USAGE),
        # the generator times the sample step overflows
        ("decay --grid 50 --horizon 1e308", cli.EXIT_NUMERICAL),
        ("spectrum --domain rectangle --grid 100", cli.EXIT_USAGE),
        ("roots --seed -1", cli.EXIT_USAGE),
        ("sweep --modes 4 --k-values 1e-100", cli.EXIT_USAGE),
        ("decay --domain rectangle --bc lt --grid 8 --samples 8 --horizon 1e-300",
         cli.EXIT_NUMERICAL),
        # the norm history underflows to zero (e^(-2.1 t) at t = 1e3)
        ("decay --grid 50 --horizon 1e3", cli.EXIT_NUMERICAL),
        ("decay --grid 50 --horizon 1e6", cli.EXIT_NUMERICAL),
    ], ids=["huge-b", "huge-horizon", "above-dense-limit", "negative-seed", "overflowing-det",
            "tiny-horizon", "long-horizon", "very-long-horizon"])
    def test_failure_is_one_line_and_its_exit_code(self, argv, code, tmp_path, monkeypatch,
                                                    capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv.split(), tmp_path, monkeypatch) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "Traceback" not in err and "Warning" not in err

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

    def test_negative_value_parses_alike_in_every_spelling(self, tmp_path):
        cfgfile = tmp_path / "mu.cfg"
        cfgfile.write_text("mu = -1e-3\n")
        parser = cli._build_parser()
        configs = [cli._resolve_config(parser.parse_args(["spectrum", *spelling]))
                   for spelling in (["--mu", "-1e-3"], ["--mu=-1e-3"],
                                    ["--config", str(cfgfile)])]
        assert configs[0].mu == -1e-3 and configs[0] == configs[1] == configs[2]

    def test_flag_without_value_is_usage_error(self, tmp_path, monkeypatch, capsys):
        assert run(["spectrum", "--mu"], tmp_path, monkeypatch) == cli.EXIT_USAGE
        assert "expected one argument" in capsys.readouterr().err

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
        env = manifest["environment"]
        assert set(env) == {"python", "numpy", "scipy", "blas", "threads"}
        assert set(env["blas"]) == {"name", "version"}
        assert set(env["threads"]) == set(cli.THREAD_VARS)
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        for name, digest in manifest["artifacts"].items():
            payload = (tmp_path / name).read_bytes()
            assert hashlib.sha256(payload).hexdigest() == digest

    def test_config_echo_parses_back(self, tmp_path, monkeypatch):
        assert run(["spectrum", "--grid", "50"], tmp_path, monkeypatch) == cli.EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        cfg = manifest["config"]
        assert cfg["command"] == "spectrum"
        assert cfg["grid"] == 50


class TestEncoded:
    def test_nested_dataclass_becomes_json_values(self):
        @dataclass
        class Inner:
            values: np.ndarray
            pair: tuple

        @dataclass
        class Outer:
            inner: Inner
            count: np.int64
            missing: None

        obj = Outer(Inner(np.array([1.0 + 2.0j, -0.5j]), (1, 2.5)), np.int64(7), None)
        # one level per call: json.dumps calls the hook again on what it returns
        assert cli._encoded(obj)["inner"] is obj.inner
        assert type(cli._encoded(obj.count)) is int
        text = cli._json_text(obj)
        assert json.loads(text) == {"inner": {"values": [[1.0, 2.0], [0.0, -0.5]],
                                              "pair": [1, 2.5]},
                                    "count": 7, "missing": None}
        assert '"count": 7,' in text

    def test_unsupported_type_is_a_type_error(self):
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            cli._json_text({"ids": {1, 2}})


GENERATOR_KEYS = {"block_sizes", "ghost_condition", "symmetry_residual"}
SPECTRUM_KEYS = {"decay_margin", "eigenvalues", "grid", "kernel_dimension", "kernel_tolerance",
                 "largest_modulus", "max_real_part", "smallest_singular_values",
                 "zero_cluster_count", "zero_tol"}
DECAY_KEYS = {"decaying", "fitted_rate", "idempotency_residual", "pairing_condition",
              "projector_dimension", "relative_gap", "seed", "spectral_rate", "window_start"}


class TestOutputs:
    @pytest.mark.parametrize("argv, extra", [
        (["spectrum", "--grid", "50"], SPECTRUM_KEYS),
        (["spectrum", "--domain", "rectangle", "--bc", "lt", "--grid", "9"],
         SPECTRUM_KEYS | {"swap_residual"}),
        (["decay", "--grid", "50"], DECAY_KEYS),
        (["decay", "--domain", "rectangle", "--bc", "lt", "--grid", "9"],
         DECAY_KEYS | {"swap_residual"}),
    ], ids=["interval", "square", "free", "damped"])
    def test_bounded_json_keys(self, argv, extra, tmp_path, monkeypatch):
        # the report's fields and the generator's diagnostics, nothing else
        assert run(argv, tmp_path, monkeypatch) == cli.EXIT_OK
        record = json.loads((tmp_path / f"{argv[0]}.json").read_text())
        assert set(record) == GENERATOR_KEYS | extra

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

    def test_witness_without_k_uses_the_default_points(self, tmp_path, monkeypatch):
        assert run(["witness"], tmp_path, monkeypatch) == cli.EXIT_OK
        rows = (tmp_path / "witness.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [1.0, 10.0, 100.0]

    def test_spectrum_writes_csv_and_json(self, tmp_path, monkeypatch):
        assert run(["spectrum", "--grid", "50"], tmp_path, monkeypatch) == 0
        report = json.loads((tmp_path / "spectrum.json").read_text())
        assert report["kernel_dimension"] == 3
        assert report["zero_cluster_count"] == 5
        rows = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert rows[0] == "re,im"
        assert len(rows) == len(report["eigenvalues"]) + 1 == 151

    def test_beta_enters_no_artifact(self, tmp_path, monkeypatch):
        # --beta is accepted and echoed in the manifest, but the interval has
        # no tangential terms for a coupling coefficient to multiply
        written = []
        for beta in ("0.1", "0.9"):
            out = tmp_path / beta
            argv = ["spectrum", "--grid", "50", "--beta", beta, "--out", str(out)]
            assert run(argv, tmp_path, monkeypatch) == 0
            assert json.loads((out / "manifest.json").read_text())["config"]["beta"] == float(beta)
            written.append([(out / name).read_bytes()
                            for name in ("spectrum.csv", "spectrum.json")])
        assert written[0] == written[1]

    def test_decay_on_fine_free_interval(self, tmp_path, monkeypatch):
        # n = 600, where a projector built in complex arithmetic aborts
        assert run(["decay", "--grid", "200"], tmp_path, monkeypatch) == cli.EXIT_OK
        fit = json.loads((tmp_path / "decay.json").read_text())
        assert fit["relative_gap"] <= 0.1
        assert fit["projector_dimension"] == 5
        assert fit["pairing_condition"] < bounded.PAIRING_CONDITION_LIMIT
        assert fit["idempotency_residual"] <= bounded.IDEMPOTENCY_TOL
        assert "times" not in fit and "norms" not in fit
        rows = (tmp_path / "decay.csv").read_text().splitlines()
        assert rows[0] == "t,norm"
        assert len(rows) == cli.RunConfig().samples + 1

    def test_damped_decay_writes_empty_projection_diagnostics(self, tmp_path, monkeypatch):
        # the damped rectangle has no kernel, so the projection is empty
        argv = ["decay", "--domain", "rectangle", "--bc", "lt", "--grid", "12"]
        assert run(argv, tmp_path, monkeypatch) == cli.EXIT_OK
        fit = json.loads((tmp_path / "decay.json").read_text())
        assert [fit[k] for k in ("projector_dimension", "pairing_condition",
                                 "idempotency_residual")] == [0, 1.0, 0.0]

    @pytest.mark.parametrize("horizon", ["12", "14", "16", "18", "20", "30", "200", "300"])
    def test_long_free_interval_horizons_fit_the_margin(self, horizon, tmp_path, monkeypatch):
        # the trajectory holds no cluster component, so rounding cannot rebuild the
        # non-decaying cluster late in the history, and the scaled norm stays
        # positive while the states are representable (e^(-2.1 t) at t = 300 is 1e-274)
        argv = ["decay", "--grid", "50", "--horizon", horizon]
        assert run(argv, tmp_path, monkeypatch) == cli.EXIT_OK
        assert json.loads((tmp_path / "decay.json").read_text())["relative_gap"] <= 0.01

    def test_multscan_reports_keep_id_and_note(self, tmp_path, monkeypatch):
        assert run(["multscan"], tmp_path, monkeypatch) == cli.EXIT_OK
        reports = json.loads((tmp_path / "multscan.json").read_text())["reports"]
        assert [r["symbol_id"] for r in reports] == [c[0] for c in multipliers.EXAMPLE_CASES]
        for r in reports:
            assert "not a proof" in r["note"]
            assert r["passed"] is True
            assert len(r["records"]) == 10
            assert set(r["records"][0]) == {"alpha", "c_alpha", "argmax_xi", "argmax_lambda"}

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


class TestImports:
    def test_only_decay_loads_scipy_linalg(self, tmp_path):
        # importing the CLI loads no scipy; of these commands only decay,
        # for its Schur forms and expm, pulls in scipy.linalg.  converge on
        # 8,16,32 runs every solve and then fails its order check (exit 2)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        script = ("import json, sys\nfrom thermoplate import cli\n"
                  "out, argvs = sys.argv[1], json.loads(sys.argv[2])\n"
                  "seen = {'import': sorted(m for m in sys.modules\n"
                  "                         if m == 'scipy' or m.startswith('scipy.'))}\n"
                  "for i, argv in enumerate(argvs):\n"
                  "    code = cli.main([*argv, '--out', f'{out}/{i}'])\n"
                  "    seen[argv[0]] = [code, 'scipy.linalg' in sys.modules]\n"
                  "print(json.dumps(seen))\n")
        argvs = [["roots"], ["spectrum", "--grid", "20"], ["converge", "--grids", "8,16,32"],
                 ["decay", "--grid", "20"]]
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), json.dumps(argvs)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        ok, check = cli.EXIT_OK, cli.EXIT_CHECK
        assert json.loads(proc.stdout.splitlines()[-1]) == {
            "import": [], "roots": [ok, False], "spectrum": [ok, False],
            "converge": [check, False], "decay": [ok, True]}


class TestReproducibility:
    def test_torus_artifacts_do_not_depend_on_blas_threads(self, tmp_path):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        runs = {"evolve": ["evolve", "--dim", "2", "--modes", "64", "--seed", "3"],
                "sweep": ["sweep", "--j", "2", "--seed", "3"]}
        script = ("import json, sys\nfrom thermoplate import cli\n"
                  "sys.exit(max(cli.main(argv) for argv in json.loads(sys.argv[1])))")
        outputs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            dirs = {name: tmp_path / threads / name for name in runs}
            argvs = [[*argv, "--out", str(dirs[name])] for name, argv in runs.items()]
            proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs[threads] = {
                (name, p.name): p.read_bytes()
                for name, d in dirs.items() for p in d.iterdir() if p.name != "manifest.json"
            }
        assert len(outputs["1"]) == 4  # two states and energy.csv; sweep.csv
        assert outputs["1"] == outputs["2"]

    def test_scan_artifacts_do_not_depend_on_blas_threads(self, tmp_path):
        # the scans are elementwise over the sample grid; only the symbol's
        # roots go through LAPACK (a 3x3 eigvals), and no byte may move
        src = os.path.dirname(os.path.dirname(cli.__file__))
        runs = {"multscan": ["multscan", "--seed", "3"], "entries": ["entries", "--seed", "3"]}
        script = ("import json, sys\nfrom thermoplate import cli\n"
                  "sys.exit(max(cli.main(argv) for argv in json.loads(sys.argv[1])))")
        outputs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            dirs = {name: tmp_path / threads / name for name in runs}
            argvs = [[*argv, "--out", str(dirs[name])] for name, argv in runs.items()]
            proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs[threads] = {
                (name, p.name): p.read_bytes()
                for name, d in dirs.items() for p in d.iterdir() if p.name != "manifest.json"
            }
        assert sorted(outputs["1"]) == [("entries", "entries.json"), ("multscan", "multscan.json")]
        assert outputs["1"] == outputs["2"]

    def test_bounded_spectra_under_one_and_two_blas_threads(self, tmp_path):
        # the free interval is byte-identical; on the damped square the
        # eigensolves round differently, so the eigenvalue rows agree per entry
        # to 1e-13 max|lambda| and the JSON reals alike.  decay on the damped
        # square moves its fit by about 6.5e-11 relative, a hundredfold margin
        # under 1e-8, and its norms on the Schur path by about 5.3e-8, under
        # 1e-7 by a margin of only 1.9x
        src = os.path.dirname(os.path.dirname(cli.__file__))
        square = ["--domain", "rectangle", "--bc", "lt", "--grid", "16"]
        runs = {"interval": ["spectrum", "--grid", "50"],
                "square": ["spectrum", *square],
                "decay": ["decay", *square, "--seed", "3"]}
        script = ("import json, sys\nfrom thermoplate import cli\n"
                  "sys.exit(max(cli.main(argv) for argv in json.loads(sys.argv[1])))")
        outputs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            dirs = {name: tmp_path / threads / name for name in runs}
            argvs = [[*argv, "--out", str(dirs[name])] for name, argv in runs.items()]
            proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs[threads] = {(name, p.name): p.read_bytes()
                                for name, d in dirs.items() for p in d.iterdir()}
        one, two = outputs["1"], outputs["2"]
        for name in ("spectrum.csv", "spectrum.json"):
            assert one["interval", name] == two["interval", name]
        rows = [np.loadtxt(io.BytesIO(out["square", "spectrum.csv"]), delimiter=",",
                           skiprows=1) for out in (one, two)]
        top = np.hypot(*rows[0].T).max()
        assert np.abs(rows[0] - rows[1]).max() <= 1e-13 * top
        reps = [json.loads(out["square", "spectrum.json"]) for out in (one, two)]
        for key in ("block_sizes", "kernel_dimension", "zero_cluster_count"):
            assert reps[0][key] == reps[1][key]
        for key in ("decay_margin", "max_real_part", "largest_modulus", "zero_tol"):
            assert reps[0][key] == pytest.approx(reps[1][key], rel=0, abs=1e-13 * top)
        for key in ("symmetry_residual", "swap_residual"):
            assert 0.0 <= reps[1][key] <= bounded.SYMMETRY_TOL
        assert reps[0]["ghost_condition"] == pytest.approx(reps[1]["ghost_condition"],
                                                           rel=1e-12)
        norms = [np.loadtxt(io.BytesIO(out["decay", "decay.csv"]), delimiter=",",
                            skiprows=1) for out in (one, two)]
        assert norms[0] == pytest.approx(norms[1], rel=1e-7, abs=0)
        fits = [json.loads(out["decay", "decay.json"]) for out in (one, two)]
        assert fits[0]["block_sizes"] == fits[1]["block_sizes"]
        assert fits[0]["fitted_rate"] == pytest.approx(fits[1]["fitted_rate"], rel=1e-8)

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
