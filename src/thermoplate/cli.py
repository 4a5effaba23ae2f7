"""Command line front end: reproducible batch runs with manifests.

Every command resolves a RunConfig (defaults, then an optional config file,
then flags), runs one analysis, writes its data files plus a manifest.json
(config snapshot, version, wall time, per-check pass/fail, sha256 per
artifact) into the output directory, and exits 0 on success, 1 on usage
errors, 2 when a check fails, 3 on numerical failure.  Given the same
config and seed, every data file is byte-identical across reruns; only the
wall time inside the manifest varies.

Config files are flat UTF-8 `key = value` lines with `#` comments; unknown
keys are rejected.  The output root can also be set through the
THERMOPLATE_OUT environment variable.  Setting THERMOPLATE_PERTURB_ROOTS
(test hook) perturbs the computed characteristic roots so the `roots`
invariant check trips.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__, bounded, multipliers, symbols, torus

ENV_OUT = "THERMOPLATE_OUT"
ENV_PERTURB = "THERMOPLATE_PERTURB_ROOTS"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK = 2
EXIT_NUMERICAL = 3

COMMANDS = ("roots", "witness", "multscan", "entries", "sweep", "evolve",
            "spectrum", "decay", "converge")


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
_FLOAT_TUPLES = {"k_values"}


def config_to_text(cfg: RunConfig) -> str:
    lines = ["# thermoplate run configuration"]
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(repr(float(x)) if f.name in _FLOAT_TUPLES else str(int(x)) for x in v)
        elif isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def _coerce(name: str, default, raw: str):
    raw = raw.strip()
    if isinstance(default, bool):
        if raw not in ("true", "false"):
            raise ConfigError(f"key {name!r}: expected true/false, got {raw!r}")
        return raw == "true"
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, tuple):
        if not raw:
            return ()
        parts = [p.strip() for p in raw.split(",")]
        return tuple(int(p) for p in parts) if name in _INT_TUPLES \
            else tuple(float(p) for p in parts)
    return raw


def config_from_text(text: str, base: RunConfig | None = None) -> RunConfig:
    base = base or RunConfig()
    valid = {f.name: getattr(base, f.name) for f in fields(RunConfig)}
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
        except ValueError as exc:
            raise ConfigError(f"config line {ln}: {exc}") from exc
    return replace(base, **updates)


def _config_json(cfg: RunConfig) -> dict:
    out = {}
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        out[f.name] = list(v) if isinstance(v, tuple) else v
    return out


# ---------------------------------------------------------------------------
# output plumbing

def _outdir(cfg: RunConfig) -> str:
    path = cfg.out or os.environ.get(ENV_OUT, "") or "."
    os.makedirs(path, exist_ok=True)
    return path


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_text(outdir: str, name: str, text: str, artifacts: dict) -> str:
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    artifacts[name] = path
    return path


def _json_default(obj):
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"


def _write_manifest(outdir: str, cfg: RunConfig, checks: dict, artifacts: dict,
                    wall: float) -> None:
    manifest = {
        "command": cfg.command,
        "version": __version__,
        "config": _config_json(cfg),
        "checks": checks,
        "wall_time_s": wall,
        "artifacts": {name: _sha256(path) for name, path in sorted(artifacts.items())},
    }
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(_json_text(manifest))


# ---------------------------------------------------------------------------
# commands; each returns (checks, artifacts)

def cmd_roots(cfg: RunConfig, outdir: str) -> tuple:
    roots = symbols.characteristic_roots()
    perturb = os.environ.get(ENV_PERTURB, "")
    if perturb:
        roots = replace(roots, gamma1=roots.gamma1 + float(perturb))
    ok = True
    try:
        roots.validate()
    except AssertionError as exc:
        ok = False
        print(f"roots: invariant violated: {exc}")
    record = {
        "gamma1": roots.gamma1,
        "gamma2": [roots.gamma2.real, roots.gamma2.imag],
        "gamma3": [roots.gamma3.real, roots.gamma3.imag],
        "theta0": roots.theta0,
        "residuals": [abs(symbols.poly_eval(-g)) for g in roots.as_array()],
        "invariants_ok": ok,
    }
    if cfg.json_output:
        print(_json_text(record), end="")
    else:
        print(f"gamma1 = {roots.gamma1!r}")
        print(f"gamma2 = {roots.gamma2!r}")
        print(f"gamma3 = {roots.gamma3!r}")
        print(f"theta0 = {roots.theta0!r}  (pi/2 = {math.pi / 2!r})")
        print("residuals:", ", ".join(f"{r:.3e}" for r in record["residuals"]))
    artifacts = {}
    _write_text(outdir, "roots.json", _json_text(record), artifacts)
    return {"root_invariants": ok}, artifacts


def cmd_witness(cfg: RunConfig, outdir: str) -> tuple:
    ks = cfg.k_values
    if not ks:
        raise UsageError("witness needs at least one k value")
    if min(ks) <= 0:
        raise UsageError("witness values k must be positive")
    rows = ["k,witness,closed_form,relative_difference"]
    ok = True
    for k in ks:
        w = multipliers.nonsectoriality_witness(k)
        c = multipliers.witness_closed_form(k)
        rel = abs(w - c) / c
        ok = ok and rel <= 1e-12
        rows.append(f"{k!r},{w!r},{c!r},{rel!r}")
        print(f"k={k:g}: witness={w!r} closed_form={c!r}")
    artifacts = {}
    _write_text(outdir, "witness.csv", "\n".join(rows) + "\n", artifacts)
    return {"matches_closed_form": ok}, artifacts


def cmd_multscan(cfg: RunConfig, outdir: str) -> tuple:
    reports = multipliers.example_suite()
    base, ext = multipliers.constant_one_origin_growth()
    ok = all(r.passed for r in reports)
    growth = ext / base
    payload = {
        "reports": [r.to_json_dict() for r in reports],
        "origin_growth": {"base_c0": base, "extended_c0": ext, "ratio": growth},
    }
    for r in reports:
        print(f"{r.symbol_id}: order {r.order_s:+g} "
              f"max C = {max(rec.c_alpha for rec in r.records):.6g} passed={r.passed}")
    print(f"constant-on-unshifted-sector C0 growth: {growth:.3e}")
    artifacts = {}
    _write_text(outdir, "multscan.json", _json_text(payload), artifacts)
    return {"examples_pass": ok, "origin_growth_detected": growth >= 1e3}, artifacts


def cmd_entries(cfg: RunConfig, outdir: str) -> tuple:
    payload = {}
    ok = True
    for j in (0, 2):
        scans = multipliers.scaled_resolvent_entry_scans(j)
        payload[f"j{j}"] = {f"{r + 1}{c + 1}": rep.to_json_dict()
                            for (r, c), rep in scans.items()}
        passed = all(rep.passed for rep in scans.values())
        worst = max(rec.c_alpha for rep in scans.values() for rec in rep.records)
        print(f"M^({j}): 9 entries scanned, max C = {worst:.6g}, passed={passed}")
        ok = ok and passed
    artifacts = {}
    _write_text(outdir, "entries.json", _json_text(payload), artifacts)
    return {"entry_scans_pass": ok}, artifacts


def cmd_sweep(cfg: RunConfig, outdir: str) -> tuple:
    if min(cfg.k_values) <= 0:
        raise UsageError("sweep values k must be positive")
    grid = torus.TorusGrid((cfg.modes,) * cfg.dim, (cfg.length,) * cfg.dim)
    lams_origin = [k ** -2.0 for k in cfg.k_values]
    lams_shift = [1.0 + k ** -2.0 for k in cfg.k_values]
    b_origin = torus.resolvent_bound_sweep(cfg.j, lams_origin, grid)
    b_shift = torus.resolvent_bound_sweep(cfg.j, lams_shift, grid)
    rows = ["k,lambda_origin,origin_bound,lambda_shifted,shifted_bound"]
    for k, lo, bo, ls, bs in zip(cfg.k_values, lams_origin, b_origin, lams_shift, b_shift):
        rows.append(f"{k!r},{lo!r},{float(bo)!r},{ls!r},{float(bs)!r}")
        print(f"k={k:g}: B(origin)={bo:.6g} B(shifted)={bs:.6g}")
    artifacts = {}
    _write_text(outdir, "sweep.csv", "\n".join(rows) + "\n", artifacts)
    finite = bool(np.all(np.isfinite(b_origin)) and np.all(np.isfinite(b_shift)))
    return {"finite_bounds": finite}, artifacts


def cmd_evolve(cfg: RunConfig, outdir: str) -> tuple:
    grid = torus.TorusGrid((cfg.modes,) * cfg.dim, (cfg.length,) * cfg.dim)
    rng = np.random.default_rng(cfg.seed)
    state0 = torus.random_state(grid, rng)
    state1, residue = torus.evolve(state0, cfg.t)
    e0, e1 = state0.e_norm(), state1.e_norm()
    # two half steps must land on the single full step
    half, _ = torus.evolve(state0, cfg.t / 2.0)
    rehalf, _ = torus.evolve(half, cfg.t / 2.0)
    gap = torus.e_norm(grid, rehalf.u - state1.u, rehalf.v - state1.v,
                       rehalf.theta - state1.theta)
    semigroup_ok = gap <= 1e-9 * max(e1, 1.0)
    print(f"evolve: t={cfg.t:g} e_norm {e0!r} -> {e1!r} (residue {residue:.3e})")
    artifacts = {}
    p0 = os.path.join(outdir, "state_initial.bin")
    p1 = os.path.join(outdir, "state_final.bin")
    torus.save_state(p0, state0)
    torus.save_state(p1, state1)
    artifacts["state_initial.bin"] = p0
    artifacts["state_final.bin"] = p1
    rows = ["t,e_norm,imag_residue", f"{0.0!r},{e0!r},{0.0!r}",
            f"{cfg.t!r},{e1!r},{float(residue)!r}"]
    _write_text(outdir, "energy.csv", "\n".join(rows) + "\n", artifacts)
    return {"residue_ok": residue <= torus.IMAG_RESIDUE_TOL,
            "semigroup_consistent": semigroup_ok}, artifacts


def _domain_from_config(cfg: RunConfig) -> bounded.DomainSpec:
    if cfg.domain == "interval":
        return bounded.interval()
    if cfg.domain == "rectangle":
        return bounded.rectangle()
    raise UsageError(f"unknown domain {cfg.domain!r} (interval or rectangle)")


def _bc_from_config(cfg: RunConfig) -> bounded.BCVariant:
    if cfg.bc == "free":
        if cfg.domain == "interval":
            return bounded.free_beta(cfg.beta)
        return bounded.free_2d(cfg.mu)
    if cfg.bc == "lt":
        return bounded.lt_variant(cfg.mu, cfg.b)
    raise UsageError(f"unknown bc {cfg.bc!r} (free or lt)")


def cmd_spectrum(cfg: RunConfig, outdir: str) -> tuple:
    gen = bounded.assemble_generator(_domain_from_config(cfg), cfg.grid,
                                     _bc_from_config(cfg))
    rep = bounded.spectrum(gen)
    if gen.bc.damped:
        ok = rep.zero_cluster_count == 0 and rep.decay_margin > 0.0
    else:
        ok = rep.max_real_part <= rep.zero_tol
    print(f"spectrum: grid={'x'.join(map(str, gen.cells))} "
          f"kernel_dimension={rep.kernel_dimension} "
          f"cluster={rep.zero_cluster_count} decay_margin={rep.decay_margin:.6g} "
          f"max_re={rep.max_real_part:.3e} ok={ok}")
    artifacts = {}
    _write_text(outdir, "spectrum.csv", "\n".join(rep.to_csv_rows()) + "\n", artifacts)
    _write_text(outdir, "spectrum.json", _json_text(rep.to_json_dict()), artifacts)
    return {"spectral_enclosure": ok}, artifacts


def cmd_decay(cfg: RunConfig, outdir: str) -> tuple:
    gen = bounded.assemble_generator(_domain_from_config(cfg), cfg.grid,
                                     _bc_from_config(cfg))
    fit = bounded.decay_rate_experiment(
        gen,
        samples=cfg.samples,
        horizon=cfg.horizon or None,
        seed=cfg.seed,
        project_off_kernel=not gen.bc.damped,
    )
    print(f"decay: fitted={fit.fitted_rate!r} spectral={fit.spectral_rate!r} "
          f"relative_gap={fit.relative_gap:.4f}")
    artifacts = {}
    _write_text(outdir, "decay.csv", "\n".join(fit.to_csv_rows()) + "\n", artifacts)
    _write_text(outdir, "decay.json", _json_text(fit.to_json_dict()), artifacts)
    return {"rate_matches_spectrum": fit.relative_gap <= 0.1}, artifacts


def cmd_converge(cfg: RunConfig, outdir: str) -> tuple:
    try:
        rep = bounded.convergence_study(_domain_from_config(cfg), _bc_from_config(cfg),
                                        cfg.grids, count=cfg.count)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    orders_ok = bool(np.all((rep.orders >= 1.5) & (rep.orders <= 2.5)))
    print("converge: orders", np.array2string(rep.orders, precision=3), f"ok={orders_ok}")
    artifacts = {}
    _write_text(outdir, "converge.csv", "\n".join(rep.to_csv_rows()) + "\n", artifacts)
    _write_text(outdir, "converge.json", _json_text(rep.to_json_dict()), artifacts)
    return {"orders_second_order": orders_ok}, artifacts


_DISPATCH = {
    "roots": cmd_roots,
    "witness": cmd_witness,
    "multscan": cmd_multscan,
    "entries": cmd_entries,
    "sweep": cmd_sweep,
    "evolve": cmd_evolve,
    "spectrum": cmd_spectrum,
    "decay": cmd_decay,
    "converge": cmd_converge,
}


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="thermoplate",
                     description="thermoelastic plate analysis batch runner")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, helptext, *flags):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="config file (key = value lines)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int)
        for flag in flags:
            flag(p)
        return p

    f_domain = lambda p: p.add_argument("--domain", choices=("interval", "rectangle"))
    f_bc = lambda p: p.add_argument("--bc", choices=("free", "lt"))
    f_beta = lambda p: p.add_argument("--beta", type=float)
    f_mu = lambda p: p.add_argument("--mu", type=float)
    f_b = lambda p: p.add_argument("--b", type=float)
    f_grid = lambda p: p.add_argument("--grid", type=int)
    f_modes = lambda p: p.add_argument("--modes", type=int)
    f_dim = lambda p: p.add_argument("--dim", type=int, choices=(1, 2))
    f_length = lambda p: p.add_argument("--length", type=float)

    p = add("roots", "characteristic roots with invariant checks")
    p.add_argument("--json", dest="json_output", action="store_true", default=None)
    p = add("witness", "non-sectoriality witness values")
    p.add_argument("k", nargs="*", type=float, help="witness points (default 1 10 100)")
    add("multscan", "multiplier order scans for the example symbols")
    add("entries", "order-0 scans of all scaled resolvent symbol entries")
    p = add("sweep", "resolvent bound sweep toward the origin and shifted",
            f_modes, f_dim, f_length)
    p.add_argument("--j", type=int, choices=(0, 1, 2))
    p.add_argument("--k-values", dest="k_values",
                   help="comma-separated k list (lambda = 1/k^2)")
    p = add("evolve", "periodic-grid evolution of a random smooth state",
            f_modes, f_dim, f_length)
    p.add_argument("--t", type=float)
    add("spectrum", "bounded-domain generator spectrum report",
        f_domain, f_bc, f_beta, f_mu, f_b, f_grid)
    p = add("decay", "decay-rate experiment against the spectral abscissa",
            f_domain, f_bc, f_beta, f_mu, f_b, f_grid)
    p.add_argument("--horizon", type=float)
    p.add_argument("--samples", type=int)
    p = add("converge", "eigenvalue convergence study across refined grids",
            f_domain, f_bc, f_beta, f_mu, f_b)
    p.add_argument("--grids", help="comma-separated grid list, each 2x the last")
    p.add_argument("--count", type=int)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                cfg = config_from_text(fh.read(), cfg)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
    overrides = {"command": args.command}
    for f in fields(RunConfig):
        if f.name == "command" or not hasattr(args, f.name):
            continue
        val = getattr(args, f.name)
        if val is None:
            continue
        if isinstance(val, str) and isinstance(getattr(cfg, f.name), tuple):
            val = _coerce(f.name, getattr(cfg, f.name), val)
        overrides[f.name] = val
    k_pos = getattr(args, "k", None)
    if k_pos:
        overrides["k_values"] = tuple(float(k) for k in k_pos)
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
        outdir = _outdir(cfg)
        checks, artifacts = _DISPATCH[cfg.command](cfg, outdir)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except bounded.AssemblyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (torus.NumericalError, symbols.SingularParameterError,
            multipliers.EvaluationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_manifest(outdir, cfg, checks, artifacts, time.perf_counter() - start)
    if not all(checks.values()):
        failed = [name for name, ok in checks.items() if not ok]
        print(f"check failure: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
