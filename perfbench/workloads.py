"""The four benchmark workloads: their operations, inputs and checks.

Sizes follow the documented traffic of the package (README, the acceptance
criteria, the roadmap baseline), with the three heaviest operations cut to a
size that fits several passes into one measuring window; NOTES.md says why
each workload is here and what was cut.
An operation is either a CLI command run in process through
``thermoplate.cli.main(argv)`` into a temporary output directory, or one
acceptance-style library call.  Every operation is verified; a failed
verification raises OperationFailed.  Library functions are looked up at
call time so that a traced pass sees its wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from thermoplate import cli, multipliers, torus

RECT = ("--domain", "rectangle", "--bc", "lt", "--mu", "0.3", "--b", "1", "--grid", "16")
FREE = ("--domain", "interval", "--bc", "free", "--beta", "0.5")
LAPLACE_BAR = 1e-3
LAPLACE_STEPS = 2048
DECAY_GAP_BAR = 0.1


class OperationFailed(Exception):
    """A CLI command exited non-zero, or an output missed its acceptance bar."""


@dataclass(frozen=True)
class Operation:
    name: str
    argv: tuple | None
    check: Callable


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OperationFailed(message)


def _load_json(outdir: str, name: str) -> dict:
    with open(os.path.join(outdir, name), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# per-command acceptance checks; each reads the artifacts in outdir

def _check_multscan(outdir):
    payload = _load_json(outdir, "multscan.json")
    reports = payload["reports"]
    _require(len(reports) == 7 and all(r["passed"] for r in reports),
             "multscan: an example symbol failed its order scan")
    _require(payload["origin_growth"]["ratio"] >= 1e3, "multscan: no origin growth")


def _check_evolve(modes, dim):
    def check(outdir):
        for name in ("state_initial.bin", "state_final.bin"):
            state = torus.load_state(os.path.join(outdir, name))
            _require(state.grid.shape == (modes,) * dim, f"evolve: {name} has the wrong shape")
            _require(all(np.all(np.isfinite(f)) for f in state.fields()),
                     f"evolve: {name} is not finite")
    return check


def _csv_float(cell: str) -> float:
    # under numpy >= 2 the CLI writes numpy scalars as "np.float64(x)"
    # (a known artifact defect, see NOTES.md); the value inside is exact
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64("):-1]
    return float(cell)


def _check_sweep(outdir):
    # criterion 4: the origin bound grows by 1e3 toward the origin, the
    # shifted bound stays below 10
    with open(os.path.join(outdir, "sweep.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    origin = np.array([_csv_float(r["origin_bound"]) for r in rows])
    shifted = np.array([_csv_float(r["shifted_bound"]) for r in rows])
    _require(len(rows) == 3, "sweep: expected 3 k values")
    _require(bool(np.all(np.diff(origin) > 0)) and origin[-1] / origin[0] >= 1e3,
             f"sweep: origin bounds {origin.tolist()} do not blow up")
    _require(bool(np.all(shifted <= 10.0)), f"sweep: shifted bounds {shifted.tolist()} exceed 10")


def _check_spectrum_damped(outdir):
    rep = _load_json(outdir, "spectrum.json")
    ev = np.array(rep["eigenvalues"])
    min_mod = float(np.hypot(ev[:, 0], ev[:, 1]).min())
    _require(rep["zero_cluster_count"] == 0 and rep["max_real_part"] < 0.0
             and min_mod > rep["zero_tol"], "spectrum: damped rectangle is not neutral-free")


def _check_spectrum_free(outdir):
    # criterion 6 on the free interval
    rep = _load_json(outdir, "spectrum.json")
    _require(rep["kernel_dimension"] == 3,
             f"spectrum: kernel_dimension {rep['kernel_dimension']} != 3")
    _require(rep["zero_cluster_count"] >= 5,
             f"spectrum: zero cluster {rep['zero_cluster_count']} < 5")


def _check_decay(outdir):
    fit = _load_json(outdir, "decay.json")
    _require(fit["decaying"] and fit["relative_gap"] <= DECAY_GAP_BAR,
             f"decay: relative gap {fit['relative_gap']:.4f} above {DECAY_GAP_BAR}")


def _check_converge(outdir):
    orders = np.array(_load_json(outdir, "converge.json")["orders"])
    _require(bool(np.all((orders >= 1.5) & (orders <= 2.5))),
             f"converge: orders {orders.round(3).tolist()} outside [1.5, 2.5]")


def _laplace_state():
    # criterion 5's 2-D bump, on a 16x16 torus
    grid = torus.TorusGrid((16, 16), (2.0 * math.pi, 2.0 * math.pi))
    x, y = np.meshgrid(*grid.points(), indexing="ij")
    bump = np.exp(-3.0 * (2.0 - np.cos(x) - np.cos(y)))
    return torus.StateField(grid, bump, np.zeros_like(bump), np.zeros_like(bump))


def _entry_scan(j: int, row: int, col: int) -> Operation:
    """The order-0 scan of one entry of M^(j), as the entries command runs it."""
    def scan(_outdir):
        fn = multipliers.resolvent_entry_symbol(j, row, col)
        report = multipliers.multiplier_order_scan(fn, 0.0, multipliers.SectorSample(),
                                                   symbol_id=fn.__name__)
        _require(report.passed, f"entry {fn.__name__}: order-0 scan failed")
    return Operation(f"entry{j}_{row + 1}{col + 1}", None, scan)


def build(workload: str, seed: int) -> list:
    """The operations of one workload, in run order, for one seed."""
    s = ("--seed", str(seed))
    if workload == "scan":
        return [Operation("multscan", ("multscan",) + s, _check_multscan),
                _entry_scan(0, 0, 0), _entry_scan(2, 1, 2)]
    if workload == "torus":
        state = _laplace_state()

        def laplace(_outdir):
            err = torus.laplace_transform_error(state, 2.0, steps=LAPLACE_STEPS)
            _require(err <= LAPLACE_BAR, f"laplace: error {err:.3e} above {LAPLACE_BAR}")

        return [Operation("evolve", ("evolve", "--dim", "2", "--modes", "512") + s,
                          _check_evolve(512, 2)),
                Operation("sweep", ("sweep", "--modes", "16384", "--length",
                                    repr(200.0 * math.pi), "--j", "2") + s, _check_sweep),
                Operation("laplace", None, laplace)]
    if workload == "bounded-rect":
        return [Operation("spectrum", ("spectrum",) + RECT + s, _check_spectrum_damped),
                Operation("decay", ("decay",) + RECT + s, _check_decay)]
    if workload == "bounded-free":
        return [Operation("spectrum", ("spectrum",) + FREE + ("--grid", "200") + s,
                          _check_spectrum_free),
                Operation("decay", ("decay",) + FREE + ("--grid", "100") + s, _check_decay),
                Operation("converge", ("converge",) + FREE + ("--grids", "50,100,200") + s,
                          _check_converge)]
    raise ValueError(f"unknown workload {workload!r}")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_manifest(outdir: str, command: str) -> None:
    manifest = _load_json(outdir, "manifest.json")
    _require(manifest["command"] == command, f"{command}: manifest names {manifest['command']}")
    failed = [k for k, ok in manifest["checks"].items() if not ok]
    _require(not failed, f"{command}: manifest checks false: {', '.join(failed)}")
    for name, digest in manifest["artifacts"].items():
        _require(_sha256(os.path.join(outdir, name)) == digest,
                 f"{command}: {name} does not match its manifest sha256")


def run_operation(op: Operation, scratch: str, span=None) -> int:
    """Run and verify one operation; return the bytes it wrote.

    Raises OperationFailed when the output misses its bar; any other
    exception from the operation propagates.  The output directory is
    created under scratch and removed afterwards.  span(name) is an optional
    context manager timing the CLI call.
    """
    outdir = tempfile.mkdtemp(prefix=f"{op.name}-", dir=scratch)
    try:
        if op.argv is None:
            op.check(outdir)
            return 0
        sink = io.StringIO()
        timed = span(f"cli.{op.argv[0]}") if span else contextlib.nullcontext()
        with timed, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(list(op.argv) + ["--out", outdir])
        _require(rc == 0, f"{op.name}: exit {rc}: {sink.getvalue().strip()[-300:]}")
        _check_manifest(outdir, op.argv[0])
        op.check(outdir)
        return sum(e.stat().st_size for e in os.scandir(outdir))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
