"""In-memory spans around the calls into each thermoplate layer.

A traced pass replaces selected module attributes with timing wrappers, at
the names the callers look up (``torus.evolve`` is looked up in the torus
module by both the CLI and the Laplace oracle; the adjugate is looked up as
``multipliers._scaled_resolvent_from_s`` and ``torus.resolvent_matrices``).
Every wrapper call appends one span ``[name, start, end, parent]`` to a
list; a span's self time is its duration minus the part of it that its
child spans cover.  Counts that belong to a boundary (points, modes, bytes)
are added at the same wrapper.  Nothing is written until the caller asks.
"""

from __future__ import annotations

import collections
import contextlib
import gzip
import os
import re
import time

import numpy as np

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Dense O(n^3) routines that bounded calls on the whole generator.
DENSE_ROUTINES = (("numpy.linalg", "eigvals"), ("numpy.linalg", "svd"),
                  ("numpy.linalg", "solve"), ("scipy.linalg", "schur"),
                  ("scipy.linalg", "expm"))


def check_metric_name(name: str) -> str:
    """Return name if it is a valid metric name, else raise ValueError."""
    if not isinstance(name, str) or len(name) > 64 or not METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def self_times(spans) -> list:
    """Self time of every span: its duration minus the union of its children.

    Children are clipped to the parent's interval, and overlapping children
    are counted once.
    """
    children = collections.defaultdict(list)
    for idx, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def totals_by_name(spans) -> dict:
    """name -> (calls, total duration, total self time)."""
    agg = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        calls, dur, self_s = agg.get(name, (0, 0.0, 0.0))
        agg[name] = (calls + 1, dur + (end - start), self_s + own)
    return agg


class Tracer:
    """Span list, open-span stack and counters of one traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()
        self.state_sizes = set()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        """fn timed as span `name`; after(args, kwargs, result) runs outside it."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: str) -> None:
        """Spans as gzip CSV: index,name,start,end,parent (seconds)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("index,name,start,end,parent\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start!r},{end!r},{parent}\n")


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore every original on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_wrappers(tracer: Tracer, modules: dict) -> list:
    """(owner, attribute, wrapper) for every traced boundary of thermoplate.

    modules maps "multipliers", "torus", "bounded", "numpy.linalg" and
    "scipy.linalg" to the imported module objects.
    """
    mp, tor, bnd = modules["multipliers"], modules["torus"], modules["bounded"]
    counts, sizes = tracer.counts, tracer.state_sizes

    def adjugate(owner, attr, s_pos):
        def after(args, kwargs, result):
            counts["symbols.adjugate.points"] += np.size(args[s_pos])
        return owner, attr, tracer.wrap("symbols.adjugate", getattr(owner, attr), after)

    def symbol_points(args, kwargs, result):
        counts["multipliers.eval_points"] += len(args[0])

    original_scan = mp.multiplier_order_scan

    def scan(symbol, *args, **kwargs):
        return original_scan(tracer.wrap("multipliers.symbol", symbol, symbol_points),
                             *args, **kwargs)

    def evolve_modes(args, kwargs, result):
        counts["torus.evolve.modes"] += int(np.prod(args[0].grid.shape))

    def state_bytes(args, kwargs, result):
        counts["torus.state_io.bytes"] += os.path.getsize(args[0])

    def generator_shape(args, kwargs, result):
        n = result.state_size
        sizes.add(n)
        if n >= counts["bounded.state_size.max"]:
            counts["bounded.state_size.max"] = n
            counts["bounded.nnz"] = int(np.count_nonzero(result.matrix))

    def dense(owner, attr):
        fn = getattr(owner, attr)

        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            if len(shape) == 2 and shape[0] == shape[1] and shape[0] in sizes:
                counts["bounded.dense_n3_calls"] += 1
            return fn(a, *args, **kwargs)

        counted.__wrapped__ = fn
        return owner, attr, counted

    out = [
        adjugate(mp, "_scaled_resolvent_from_s", 1),
        adjugate(tor, "_scaled_resolvent_from_s", 1),
        adjugate(tor, "resolvent_matrices", 0),
        (mp, "multiplier_order_scan", tracer.wrap("multipliers.scan", scan)),
        (tor, "evolve", tracer.wrap("torus.evolve", tor.evolve, evolve_modes)),
        (tor, "apply_resolvent", tracer.wrap("torus.apply_resolvent", tor.apply_resolvent)),
        (tor, "resolvent_bound_sweep", tracer.wrap("torus.sweep", tor.resolvent_bound_sweep)),
        (tor, "laplace_transform_error", tracer.wrap("torus.laplace", tor.laplace_transform_error)),
        (tor, "e_norm", tracer.wrap("torus.norms", tor.e_norm)),
        (tor, "sobolev_norm", tracer.wrap("torus.norms", tor.sobolev_norm)),
        (tor, "save_state", tracer.wrap("torus.state_io", tor.save_state, state_bytes)),
        (tor, "load_state", tracer.wrap("torus.state_io", tor.load_state, state_bytes)),
        (bnd, "assemble_generator", tracer.wrap("bounded.assemble", bnd.assemble_generator,
                                                generator_shape)),
        (bnd, "spectrum", tracer.wrap("bounded.spectrum", bnd.spectrum)),
        (bnd, "kernel_and_projection", tracer.wrap("bounded.projection",
                                                   bnd.kernel_and_projection)),
        (bnd, "decay_rate_experiment", tracer.wrap("bounded.decay", bnd.decay_rate_experiment)),
        (bnd, "convergence_study", tracer.wrap("bounded.converge", bnd.convergence_study)),
    ]
    out.extend(dense(modules[mod], attr) for mod, attr in DENSE_ROUTINES)
    return out


def units(metrics: dict) -> dict:
    """Unit of each per-layer metric, read from its name."""
    def unit(name):
        if name.endswith("us_per_mode"):
            return "us"
        if name.endswith(("_s", ".s")):
            return "s"
        if name.endswith("bytes"):
            return "B"
        if name.endswith("frac"):
            return "1"
        return "count"
    return {name: unit(name) for name in metrics}


CLI_COMMANDS = ("multscan", "evolve", "sweep", "spectrum", "decay", "converge")


def layer_metrics(tracer: Tracer, artifact_bytes: int) -> dict:
    """Per-layer metric values of one traced pass (0 for idle layers)."""
    agg = totals_by_name(tracer.spans)
    counts = tracer.counts

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    adj_calls, adj_points = calls("symbols.adjugate"), counts["symbols.adjugate.points"]
    modes = counts["torus.evolve.modes"]
    n_max = counts["bounded.state_size.max"]
    out = {f"cli.{cmd}_s": total(f"cli.{cmd}") for cmd in CLI_COMMANDS}
    out.update({
        "cli.artifact_bytes": artifact_bytes,
        "symbols.adjugate.calls": adj_calls,
        "symbols.adjugate.points": adj_points,
        "symbols.adjugate.points_per_call": ratio(adj_points, adj_calls),
        "symbols.adjugate.self_s": own("symbols.adjugate"),
        "multipliers.scans": calls("multipliers.scan"),
        "multipliers.symbol_evals": calls("multipliers.symbol"),
        "multipliers.eval_points": counts["multipliers.eval_points"],
        "multipliers.scan.self_s": own("multipliers.scan"),
        "multipliers.symbol.self_s": own("multipliers.symbol"),
        "torus.evolve.calls": calls("torus.evolve"),
        "torus.evolve.modes": modes,
        "torus.evolve.self_s": own("torus.evolve"),
        "torus.evolve.us_per_mode": 1e6 * ratio(own("torus.evolve"), modes),
        "torus.apply_resolvent.self_s": own("torus.apply_resolvent"),
        "torus.sweep.self_s": own("torus.sweep"),
        "torus.laplace.self_s": own("torus.laplace"),
        "torus.norms.self_s": own("torus.norms"),
        "torus.state_io.bytes": counts["torus.state_io.bytes"],
        "torus.state_io.s": total("torus.state_io"),
        "bounded.assemble.calls": calls("bounded.assemble"),
        "bounded.assemble.self_s": own("bounded.assemble"),
        "bounded.state_size.max": n_max,
        "bounded.nnz_frac": ratio(counts["bounded.nnz"], n_max * n_max),
        "bounded.spectrum.calls": calls("bounded.spectrum"),
        "bounded.spectrum.self_s": own("bounded.spectrum"),
        "bounded.projection.calls": calls("bounded.projection"),
        "bounded.projection.self_s": own("bounded.projection"),
        "bounded.decay.self_s": own("bounded.decay"),
        "bounded.converge.self_s": own("bounded.converge"),
        "bounded.dense_n3_calls": counts["bounded.dense_n3_calls"],
        "trace.spans": len(tracer.spans),
    })
    return out
