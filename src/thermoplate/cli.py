"""Command line front end: reproducible batch runs with manifests.

Every command resolves a RunConfig (defaults, then an optional config file,
then flags), runs one analysis and returns its checks and its artifacts: a
map from file name to text or to a torus state.  One writer, `_write_outputs`,
then creates the output directory, writes the artifacts and last a
manifest.json (config snapshot, version, numerical environment, wall time,
per-check pass/fail, sha256 per artifact).  The exit code is 0 on success,
1 on usage errors, 2 when a check fails, 3 on numerical failure; only runs
that exit 0 or 2 create the directory.  The artifact formats live in this
module only: the library returns plain dataclasses, `_json_text` writes them
through one json.dumps hook, `_encoded`, and `_csv` writes every CSV table.
The bounded reports leave the generator's diagnostics to `_bounded_json`,
which writes them into both spectrum.json and decay.json.  Given the same
config and seed, every data file is byte-identical across reruns on one
numpy/scipy/BLAS build with one BLAS thread count; only the wall time inside
the manifest varies.  The manifest's environment block records that build
and the BLAS thread variables, since another thread count can move the
bounded-domain eigenvalues in their last digits and the `decay` fits and
norm histories somewhat further (4.6e-10 and 5.3e-8 relative on the damped
16^2 square).

Config files are flat UTF-8 `key = value` lines with `#` comments; unknown
keys are rejected.  Flags reach the config as raw strings too, so flag and
config values go through one parser, `_coerce`, which also checks the
allowed choices, that every float is finite, every k positive and the seed
non-negative: a bad value exits 1 with one `error:` line that names the
key.  The output root can also be set through the THERMOPLATE_OUT
environment variable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import sys
import time
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from . import __version__, bounded, multipliers, symbols, torus

ENV_OUT = "THERMOPLATE_OUT"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class ConfigError(UsageError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of every command, with global defaults."""

    command: str = ""
    domain: str = "interval"
    bc: str = "free"
    beta: float = 0.5
    mu: float = 0.3
    b: float = 1.0
    grid: int = 100
    grids: tuple = (50, 100, 200)
    seed: int = 0
    out: str = ""
    k_values: tuple = (1.0, 10.0, 100.0)
    j: int = 2
    modes: int = 128
    dim: int = 1
    length: float = 2.0 * math.pi
    t: float = 1.0
    horizon: float = 0.0
    samples: int = 161
    count: int = 5
    json_output: bool = False


_INT_TUPLES = {"grids"}
_CHOICES = {
    "domain": ("interval", "rectangle"),
    "bc": ("free", "lt"),
    "dim": (1, 2),
    "j": (0, 1, 2),
}


def _coerce(name: str, default, raw: str):
    """raw as a value of default's type: the one parser of flags and config lines."""
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            if raw not in ("true", "false"):
                raise ValueError(f"expected true/false, got {raw!r}")
            value = raw == "true"
        elif isinstance(default, tuple):
            if not raw:
                raise ValueError("expected a comma-separated list, got nothing")
            kind = int if name in _INT_TUPLES else float
            value = tuple(kind(p) for p in raw.split(","))
        else:
            value = type(default)(raw)
        numbers = value if isinstance(value, tuple) else (value,)
        if isinstance(value, (float, tuple)) and not all(map(math.isfinite, numbers)):
            raise ValueError(f"expected finite numbers, got {raw!r}")
        if name in ("k", "k_values") and min(numbers) <= 0:
            raise ValueError(f"expected positive numbers, got {raw!r}")
        if name == "seed" and value < 0:
            raise ValueError(f"expected a non-negative integer, got {raw!r}")
    except ValueError as exc:
        raise ConfigError(f"key {name!r}: {exc}") from None
    choices = _CHOICES.get(name)
    if choices and value not in choices:
        raise ConfigError(f"key {name!r}: {raw!r} is not one of "
                          f"{', '.join(map(str, choices))}")
    return value


def config_from_text(text: str, base: RunConfig | None = None) -> RunConfig:
    base = base or RunConfig()
    valid = {f.name: f.default for f in fields(RunConfig)}
    updates = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {ln}: expected 'key = value'")
        key, val = (p.strip() for p in line.split("=", 1))
        if key not in valid:
            raise ConfigError(f"config line {ln}: unknown key {key!r}")
        try:
            updates[key] = _coerce(key, valid[key], val)
        except ConfigError as exc:
            raise ConfigError(f"config line {ln}: {exc}") from None
    return replace(base, **updates)


# ---------------------------------------------------------------------------
# output plumbing

def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _encoded(obj):
    """json.dumps's default hook: a dataclass as its fields, an array or numpy
    scalar through tolist(), a complex number as [re, im]; json walks the rest."""
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(obj) -> str:
    return json.dumps(obj, default=_encoded, indent=2, sort_keys=True) + "\n"


def _bounded_json(gen: bounded.DiscreteGenerator, report, skip=()) -> str:
    """A bounded report's JSON without the skip fields, plus the generator's
    diagnostics; swap_residual only where the diagonal swap applies (a square
    box on a square grid)."""
    blocks = gen.reflection_blocks
    record = {key: val for key, val in _encoded(report).items() if key not in skip}
    record.update(symmetry_residual=blocks.residual, ghost_condition=gen.ghost_condition,
                  block_sizes=blocks.sizes)
    if blocks.swap_residual is not None:
        record["swap_residual"] = blocks.swap_residual
    return _json_text(record)


def _csv(header: str, rows) -> str:
    """CSV text: int cells with str, every other cell as repr(float(x))."""
    lines = [header]
    lines.extend(",".join(str(x) if isinstance(x, int) else repr(float(x)) for x in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def _environment() -> dict:
    """The numerical environment: versions, BLAS build and thread variables."""
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _write_outputs(cfg: RunConfig, checks: dict, artifacts: dict, wall: float) -> None:
    """Create the output directory, write every artifact, then the manifest.

    artifacts maps each file name to its text (written as UTF-8) or to a
    torus.StateField (written by torus.save_state); the manifest hashes
    the files just written.
    """
    outdir = cfg.out or os.environ.get(ENV_OUT, "") or "."
    os.makedirs(outdir, exist_ok=True)
    for name, data in artifacts.items():
        path = os.path.join(outdir, name)
        if isinstance(data, torus.StateField):
            torus.save_state(path, data)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(data)
    manifest = {
        "command": cfg.command,
        "version": __version__,
        "environment": _environment(),
        "config": cfg,
        "checks": checks,
        "wall_time_s": wall,
        "artifacts": {name: _sha256(os.path.join(outdir, name)) for name in sorted(artifacts)},
    }
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(_json_text(manifest))


# ---------------------------------------------------------------------------
# commands; each returns (checks, artifacts) and writes nothing

def cmd_roots(cfg: RunConfig) -> tuple:
    roots = symbols.characteristic_roots()
    ok = True
    try:
        roots.validate()
    except ValueError as exc:
        ok = False
        print(f"roots: invariant violated: {exc}")
    record = {**_encoded(roots), "invariants_ok": ok,
              "residuals": [abs(symbols.poly_eval(-g)) for g in roots.as_array()]}
    if cfg.json_output:
        print(_json_text(record), end="")
    else:
        print(f"gamma1 = {roots.gamma1!r}")
        print(f"gamma2 = {roots.gamma2!r}")
        print(f"gamma3 = {roots.gamma3!r}")
        print(f"theta0 = {roots.theta0!r}  (pi/2 = {math.pi / 2!r})")
        print("residuals:", ", ".join(f"{r:.3e}" for r in record["residuals"]))
    return {"root_invariants": ok}, {"roots.json": _json_text(record)}


def cmd_witness(cfg: RunConfig) -> tuple:
    rows = []
    for k in cfg.k_values:
        w = multipliers.nonsectoriality_witness(k)
        c = multipliers.witness_closed_form(k)
        rows.append((k, w, c, abs(w - c) / c))
        print(f"k={k:g}: witness={w!r} closed_form={c!r}")
    ok = all(rel <= 1e-12 for *_, rel in rows)
    return ({"matches_closed_form": ok},
            {"witness.csv": _csv("k,witness,closed_form,relative_difference", rows)})


def cmd_multscan(cfg: RunConfig) -> tuple:
    reports = multipliers.example_suite()
    base, ext = multipliers.constant_one_origin_growth()
    ok = all(r.passed for r in reports)
    growth = ext / base
    payload = {
        "reports": [{**_encoded(r), "passed": r.passed} for r in reports],
        "origin_growth": {"base_c0": base, "extended_c0": ext, "ratio": growth},
    }
    for r in reports:
        print(f"{r.symbol_id}: order {r.order_s:+g} "
              f"max C = {max(rec.c_alpha for rec in r.records):.6g} passed={r.passed}")
    print(f"constant-on-unshifted-sector C0 growth: {growth:.3e}")
    return ({"examples_pass": ok, "origin_growth_detected": growth >= 1e3},
            {"multscan.json": _json_text(payload)})


def cmd_entries(cfg: RunConfig) -> tuple:
    payload = {}
    ok = True
    for j in (0, 2):
        scans = multipliers.scaled_resolvent_entry_scans(j)
        payload[f"j{j}"] = {f"{r + 1}{c + 1}": {**_encoded(rep), "passed": rep.passed}
                            for (r, c), rep in scans.items()}
        passed = all(rep.passed for rep in scans.values())
        worst = max(rec.c_alpha for rep in scans.values() for rec in rep.records)
        print(f"M^({j}): 9 entries scanned, max C = {worst:.6g}, passed={passed}")
        ok = ok and passed
    return {"entry_scans_pass": ok}, {"entries.json": _json_text(payload)}


def cmd_sweep(cfg: RunConfig) -> tuple:
    try:
        lams_origin = [k ** -2.0 for k in cfg.k_values]
    except OverflowError:
        raise UsageError(
            "key 'k_values': k^-2 overflows a double for k below about 7.5e-155") from None
    grid = torus.TorusGrid((cfg.modes,) * cfg.dim, (cfg.length,) * cfg.dim)
    lams_shift = [1.0 + k ** -2.0 for k in cfg.k_values]
    b_origin = torus.resolvent_bound_sweep(cfg.j, lams_origin, grid)
    b_shift = torus.resolvent_bound_sweep(cfg.j, lams_shift, grid)
    rows = list(zip(cfg.k_values, lams_origin, b_origin, lams_shift, b_shift))
    for k, _, bo, _, bs in rows:
        print(f"k={k:g}: B(origin)={bo:.6g} B(shifted)={bs:.6g}")
    finite = bool(np.all(np.isfinite(b_origin)) and np.all(np.isfinite(b_shift)))
    return ({"finite_bounds": finite},
            {"sweep.csv": _csv("k,lambda_origin,origin_bound,lambda_shifted,shifted_bound",
                               rows)})


def cmd_evolve(cfg: RunConfig) -> tuple:
    grid = torus.TorusGrid((cfg.modes,) * cfg.dim, (cfg.length,) * cfg.dim)
    rng = np.random.default_rng(cfg.seed)
    state0 = torus.random_state(grid, rng)
    (state1, residue), (half, _) = torus.evolve_many(state0, (cfg.t, cfg.t / 2.0))
    e0, e1 = state0.e_norm(), state1.e_norm()
    # two half steps must land on the single full step
    rehalf, _ = torus.evolve(half, cfg.t / 2.0)
    gap = torus.e_norm(grid, rehalf.u - state1.u, rehalf.v - state1.v,
                       rehalf.theta - state1.theta)
    semigroup_ok = gap <= 1e-9 * max(e1, 1.0)
    print(f"evolve: t={cfg.t:g} e_norm {e0!r} -> {e1!r} (residue {residue:.3e})")
    return ({"residue_ok": residue <= torus.IMAG_RESIDUE_TOL,
             "semigroup_consistent": semigroup_ok},
            {"state_initial.bin": state0, "state_final.bin": state1,
             "energy.csv": _csv("t,e_norm,imag_residue",
                                [(0.0, e0, 0.0), (cfg.t, e1, residue)])})


def _domain_from_config(cfg: RunConfig) -> bounded.DomainSpec:
    return bounded.interval() if cfg.domain == "interval" else bounded.rectangle()


def _bc_from_config(cfg: RunConfig) -> bounded.BCVariant:
    return bounded.lt_variant(cfg.mu, cfg.b) if cfg.bc == "lt" else bounded.free(cfg.mu)


def cmd_spectrum(cfg: RunConfig) -> tuple:
    gen = bounded.assemble_generator(_domain_from_config(cfg), cfg.grid,
                                     _bc_from_config(cfg))
    rep = bounded.spectrum(gen)
    # decay_margin is the abscissa off the zero cluster, which holds no physical
    # mode (CLUSTER_GAP); the damped variant has no kernel, so no cluster either
    ok = rep.decay_margin > 0.0 and (rep.zero_cluster_count == 0 or not gen.bc.damped)
    print(f"spectrum: grid={'x'.join(map(str, gen.cells))} "
          f"kernel_dimension={rep.kernel_dimension} "
          f"cluster={rep.zero_cluster_count} decay_margin={rep.decay_margin:.6g} "
          f"max_re={rep.max_real_part:.3e} ok={ok}")
    return ({"spectral_enclosure": ok},
            {"spectrum.csv": _csv("re,im", zip(rep.eigenvalues.real, rep.eigenvalues.imag)),
             "spectrum.json": _bounded_json(gen, rep)})


def cmd_decay(cfg: RunConfig) -> tuple:
    gen = bounded.assemble_generator(_domain_from_config(cfg), cfg.grid,
                                     _bc_from_config(cfg))
    fit = bounded.decay_rate_experiment(gen, samples=cfg.samples,
                                        horizon=cfg.horizon or None, seed=cfg.seed)
    print(f"decay: fitted={fit.fitted_rate!r} spectral={fit.spectral_rate!r} "
          f"relative_gap={fit.relative_gap:.4f}")
    return ({"rate_matches_spectrum": fit.relative_gap <= 0.1},
            {"decay.csv": _csv("t,norm", zip(fit.times, fit.norms)),
             "decay.json": _bounded_json(gen, fit, skip=("times", "norms"))})


def cmd_converge(cfg: RunConfig) -> tuple:
    rep = bounded.convergence_study(_domain_from_config(cfg), _bc_from_config(cfg),
                                    cfg.grids, count=cfg.count)
    orders_ok = bool(np.all((rep.orders >= 1.5) & (rep.orders <= 2.5)))
    print("converge: orders", np.array2string(rep.orders, precision=3), f"ok={orders_ok}")
    names = ["x".join(map(str, cells)) for cells in rep.grids]
    header = ",".join(["mode", *(f"re_{g},im_{g}" for g in names), "order"])
    rows = [(k, *(x for lam in rep.tracked[:, k] for x in (lam.real, lam.imag)), order)
            for k, order in enumerate(rep.orders)]
    return ({"orders_second_order": orders_ok},
            {"converge.csv": _csv(header, rows), "converge.json": _json_text(rep)})


_TORUS = ("modes", "dim", "length")
_BOUNDED = ("domain", "bc", "beta", "mu", "b")

# command -> (function, help line, the RunConfig fields it takes as flags)
_COMMANDS = {
    "roots": (cmd_roots, "characteristic roots with invariant checks", ()),
    "witness": (cmd_witness, "non-sectoriality witness values", ()),
    "multscan": (cmd_multscan, "multiplier order scans for the example symbols", ()),
    "entries": (cmd_entries, "order-0 scans of all scaled resolvent symbol entries", ()),
    "sweep": (cmd_sweep, "resolvent bound sweep toward the origin and shifted",
              _TORUS + ("j", "k_values")),
    "evolve": (cmd_evolve, "periodic-grid evolution of a random smooth state",
               _TORUS + ("t",)),
    "spectrum": (cmd_spectrum, "bounded-domain generator spectrum report",
                 _BOUNDED + ("grid",)),
    "decay": (cmd_decay, "decay-rate experiment against the spectral abscissa",
              _BOUNDED + ("grid", "horizon", "samples")),
    "converge": (cmd_converge, "eigenvalue convergence study across refined grids",
                 _BOUNDED + ("grids", "count")),
}
COMMANDS = tuple(_COMMANDS)
_FLAG_HELP = {
    "out": "output directory",
    "seed": "random seed; only evolve and decay read it",
    "k_values": "comma-separated k list (lambda = 1/k^2)",
    "grids": "comma-separated grid list, each 2x the last",
}


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -1 and -1.5 for numbers; -1e-3 and -.5 are values too
        self._negative_number_matcher = re.compile(r"-[\d.].*")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    """Every flag keeps its raw string; _resolve_config parses it."""
    parser = _Parser(prog="thermoplate",
                     description="thermoelastic plate analysis batch runner")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, helptext, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="config file (key = value lines)")
        for field in ("out", "seed") + flags:
            choices = _CHOICES.get(field)
            metavar = "{" + ",".join(map(str, choices)) + "}" if choices else None
            p.add_argument("--" + field.replace("_", "-"), dest=field, metavar=metavar,
                           help=_FLAG_HELP.get(field))
        if name == "roots":
            p.add_argument("--json", dest="json_output", action="store_const", const="true")
        if name == "witness":
            p.add_argument("k", nargs="*", help="witness points (default 1 10 100)")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = config_from_text(fh.read(), cfg)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
    overrides = {}
    for f in fields(RunConfig):
        raw = getattr(args, f.name, None)
        if raw is not None:
            overrides[f.name] = _coerce(f.name, f.default, raw)
    if getattr(args, "k", None):
        overrides["k_values"] = tuple(_coerce("k", 0.0, k) for k in args.k)
    return replace(cfg, **overrides)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    start = time.perf_counter()
    try:
        cfg = _resolve_config(args)
        checks, artifacts = _COMMANDS[cfg.command][0](cfg)
    except (symbols.NumericalError, symbols.SingularParameterError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (UsageError, ValueError) as exc:
        # after the numerical branch, whose exceptions include ValueErrors;
        # library ValueErrors (bounded.AssemblyError among them) are bad input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _write_outputs(cfg, checks, artifacts, time.perf_counter() - start)
    except OSError as exc:
        # an --out that cannot be a directory; the message names the path
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not all(checks.values()):
        failed = [name for name, ok in checks.items() if not ok]
        print(f"check failure: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
