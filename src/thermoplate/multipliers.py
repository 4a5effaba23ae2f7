"""Empirical multiplier-class bounds for symbols on sampled sectors.

A symbol m(xi, lambda) has order s when every xi-derivative obeys

    |d^alpha m(xi, lambda)| <= C_alpha (|lambda|^{1/2} + |xi|)^s |xi|^{-|alpha|}

uniformly over the sector.  The scans here certify that empirically: they
sample a shifted sector, estimate the derivatives by iterated central
differences, and report the observed sup constants C_alpha per multi-index.
All multi-indices of a scan share one stencil table: the symbol is evaluated
once per distinct stencil point, offsets in descending lexicographic order,
the order of each multi-index's own leaves, so every sum is bit-identical to
a separate pass per multi-index.  A pass is evidence over the sample, not a
proof; report metadata says so.

Scans of one sample share its grid: the flattened points, their norms and
their difference steps are built once per distinct SectorSample and kept
read-only.  Each scan has one workspace, a stencil-point buffer and a
weighted-term buffer refilled at every offset, so its steady state allocates
no per-point arrays of its own.  A symbol therefore receives read-only
arguments: lambda is the shared grid and xi the point buffer, which the next
offset overwrites.  It must not write to them or keep them.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .symbols import GAMMAS, ROOTS, NumericalError, _scaled_resolvent_from_s

EPS = np.finfo(float).eps
#: relative central-difference step; eps^(1/3) balances truncation against
#: cancellation for first and second differences
STEP_FACTOR = EPS ** (1.0 / 3.0)

DEFAULT_CEILING = 1e6


@dataclass(frozen=True)
class SectorSample:
    """Sampling plan for a (possibly shifted) sector lambda0 + Sigma_theta.

    lambda values are lambda0 + r*exp(i*f*theta) over all moduli r and arg
    fractions f; frequency vectors run over xi_moduli along each coordinate
    axis and along the main diagonal.  A sample is a value: the axes are
    stored as tuples of Python floats (a -0.0 as 0.0, so equal samples
    sample the same points) and it hashes by them.
    """

    lambda0: float = 1.0
    theta: float = 0.95 * ROOTS.theta0
    lambda_moduli: tuple = tuple(np.logspace(-3.0, 3.0, 32))
    arg_fractions: tuple = (0.0, 0.5, -0.5, 0.99, -0.99)
    xi_moduli: tuple = tuple(np.logspace(-3.0, 3.0, 32))
    dim: int = 2

    def __post_init__(self):
        for name in ("lambda_moduli", "arg_fractions", "xi_moduli"):
            axis = np.asarray(getattr(self, name), dtype=float)
            if axis.ndim != 1:
                raise ValueError(f"{name} must be a 1-D sequence, got shape {axis.shape}")
            object.__setattr__(self, name, tuple((axis + 0.0).tolist()))
        dim = self.dim
        if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
            raise ValueError(f"dimension must be an integer of at least 1, got {dim!r}")
        object.__setattr__(self, "dim", int(dim))
        if not 0.0 <= self.lambda0 < math.inf:
            raise ValueError(f"sector shift must be finite and nonnegative, got {self.lambda0}")
        if not 0.0 < self.theta < math.pi:
            raise ValueError(f"sector angle must lie in (0, pi), got {self.theta}")
        if not (len(self.lambda_moduli) and len(self.xi_moduli) and len(self.arg_fractions)):
            raise ValueError("sample axes must be nonempty")
        if not all(0.0 < r < math.inf for r in (*self.lambda_moduli, *self.xi_moduli)):
            raise ValueError("sample moduli must be finite and positive")
        if not all(-1.0 < f < 1.0 for f in self.arg_fractions):
            raise ValueError("arg fractions must lie in (-1, 1)")

    def lambda_points(self) -> np.ndarray:
        r = np.asarray(self.lambda_moduli, dtype=float)
        f = np.asarray(self.arg_fractions, dtype=float)
        return (self.lambda0 + np.multiply.outer(r, np.exp(1j * self.theta * f))).ravel()

    def xi_points(self) -> np.ndarray:
        """(n, dim) frequency vectors: axes plus the normalized diagonal."""
        dirs = list(np.eye(self.dim))
        if self.dim > 1:
            dirs.append(np.ones(self.dim) / math.sqrt(self.dim))
        dirs = np.array(dirs)
        r = np.asarray(self.xi_moduli, dtype=float)
        return (r[:, None, None] * dirs[None, :, :]).reshape(-1, self.dim)


@dataclass
class AlphaRecord:
    alpha: tuple
    c_alpha: float
    argmax_xi: tuple
    argmax_lambda: complex


@dataclass
class MultiplierReport:
    symbol_id: str
    order_s: float
    records: list[AlphaRecord]
    sample_points: int
    max_alpha: int
    ceiling: float
    note: str = "empirical bound over the sample only, not a proof"

    @property
    def passed(self) -> bool:
        return all(np.isfinite(r.c_alpha) and r.c_alpha < self.ceiling for r in self.records)

    def constant(self, alpha: tuple) -> float:
        for r in self.records:
            if r.alpha == tuple(alpha):
                return r.c_alpha
        raise KeyError(alpha)


def _multi_indices(dim: int, max_order: int):
    for alpha in itertools.product(range(max_order + 1), repeat=dim):
        if sum(alpha) <= max_order:
            yield alpha


def _stencil(alpha: tuple) -> dict:
    """d^alpha as {offset: weight}: per coordinate the order-m central difference
    has leaves m-2i (in steps h) weighted (-1)^i C(m, i); coordinates compose by product."""
    axes = [[(m - 2 * i, (-1.0) ** i * math.comb(m, i)) for i in range(m + 1)] for m in alpha]
    return {tuple(o for o, _ in leaf): math.prod(w for _, w in leaf)
            for leaf in itertools.product(*axes)}


def _central_differences(symbol, xi, lam, alphas, h) -> list[np.ndarray]:
    """d^alpha at every row of xi for each alpha, one symbol call per stencil offset.

    Offsets are visited in descending lexicographic order, the order in which
    itertools.product yields one alpha's leaves, so each alpha's sum is formed
    in the same order as by a pass of its own.  Steps h are per point and per
    coordinate, frozen from the base point.  The stencil points and the
    weighted terms go through one buffer each, filled in the operand order of
    xi + offset*h and weight*value, so no sum changes; the symbol sees the
    point buffer read-only.  The point buffer is filled column by column,
    which is fastest when xi and h are column-major as in the sample grid.
    """
    tables = [_stencil(alpha) for alpha in alphas]
    accs = [np.zeros(xi.shape[0], dtype=complex) for _ in alphas]
    point = np.empty(xi.shape, order="F")
    term = np.empty(xi.shape[0], dtype=complex)
    for offset in sorted(set().union(*tables), reverse=True):
        point.flags.writeable = True
        for k, o in enumerate(offset):
            np.multiply(float(o), h[:, k], out=point[:, k])
            np.add(xi[:, k], point[:, k], out=point[:, k])
        point.flags.writeable = False
        vals = np.asarray(symbol(point, lam), dtype=complex)
        if not np.all(np.isfinite(vals)):
            idx = int(np.argmin(np.isfinite(vals)))
            raise NumericalError(f"non-finite symbol value at xi={point[idx]}, lambda={lam[idx]}")
        for table, acc in zip(tables, accs):
            if offset in table:
                acc += np.multiply(table[offset], vals, out=term)
    for alpha, acc in zip(alphas, accs):
        acc /= math.prod(((2.0 * h[:, k]) ** m for k, m in enumerate(alpha) if m),
                         start=np.ones(xi.shape[0]))
    return accs


@functools.lru_cache(maxsize=1)
def _sample_grid(sample: SectorSample) -> tuple[np.ndarray, ...]:
    """The full tensor sample, flattened: XI, LAM, |XI| and the steps H, read-only.

    XI and H are column-major, so each coordinate of a stencil point is one
    contiguous pass.  One entry suffices: the CLI scans one sample at a time,
    many symbols each.
    """
    xi = sample.xi_points()
    lams = sample.lambda_points()
    XI = np.repeat(xi, len(lams), axis=0)
    LAM = np.tile(lams, len(xi))
    norms = np.linalg.norm(XI, axis=1)
    H = STEP_FACTOR * np.maximum(np.abs(XI), norms[:, None])
    XI, H = np.asfortranarray(XI), np.asfortranarray(H)
    for arr in (XI, LAM, norms, H):
        arr.flags.writeable = False
    return XI, LAM, norms, H


def multiplier_order_scan(symbol, order_s: float, sample: SectorSample,
                          max_alpha: int | None = None,
                          symbol_id: str = "symbol") -> MultiplierReport:
    """Scan one symbol against the order-s derivative bounds.

    symbol must accept batched arguments: xi of shape (n, dim) and lam of
    shape (n,), returning n complex values; it must be pure.  Both arguments
    are read-only: lam is the sample grid shared by every scan of an equal
    sample, and xi a buffer that the next stencil offset overwrites, so the
    symbol must neither write to them nor keep them.
    """
    if max_alpha is None:
        max_alpha = sample.dim + 1
    if not 0 <= max_alpha <= 4:
        raise ValueError(f"max_alpha must lie in 0..4 (cost control above 4), got {max_alpha}")
    XI, LAM, norms, H = _sample_grid(sample)
    weight = (np.sqrt(np.abs(LAM)) + norms) ** order_s
    alphas = list(_multi_indices(sample.dim, max_alpha))
    records = []
    for alpha, deriv in zip(alphas, _central_differences(symbol, XI, LAM, alphas, H)):
        ratio = np.abs(deriv) * norms ** sum(alpha) / weight
        k = int(np.argmax(ratio))
        records.append(
            AlphaRecord(
                alpha=alpha,
                c_alpha=float(ratio[k]),
                argmax_xi=tuple(float(x) for x in XI[k]),
                argmax_lambda=complex(LAM[k]),
            )
        )
    return MultiplierReport(
        symbol_id=symbol_id,
        order_s=order_s,
        records=records,
        sample_points=XI.shape[0],
        max_alpha=max_alpha,
        ceiling=DEFAULT_CEILING,
    )


# ---------------------------------------------------------------------------
# built-in symbols

def _squared_norms(xi) -> np.ndarray:
    """|xi|^2 per row, the coordinates' squares added in order.

    Below 8 coordinates numpy's reduce adds in the same order, so this equals
    np.sum(xi * xi, axis=-1) bit for bit, without that reduce's per-row cost
    over a short last axis.
    """
    s = xi[..., 0] * xi[..., 0]
    for k in range(1, xi.shape[-1]):
        s = s + xi[..., k] * xi[..., k]
    return s


def sym_lambda(xi, lam):
    return np.asarray(lam, dtype=complex)


def sym_xi_sq(xi, lam):
    return _squared_norms(xi).astype(complex)


def sym_xi_4(xi, lam):
    s = _squared_norms(xi)
    return (s * s).astype(complex)


def sym_sqrt_lam_xi_sq(xi, lam):
    return np.sqrt(lam + _squared_norms(xi))


def sym_inv_sqrt_lam_xi_sq(xi, lam):
    return 1.0 / np.sqrt(lam + _squared_norms(xi))


def sym_xi_over_weight(xi, lam):
    s = _squared_norms(xi)
    return (np.sqrt(s) / np.sqrt(1.0 + s)).astype(complex)


def sym_one(xi, lam):
    return np.ones(xi.shape[0], dtype=complex)


def resolvent_entry_symbol(j: int, row: int, col: int):
    """Entry (row, col) of the scaled resolvent symbol M^{(j)} as a scannable symbol."""

    def symbol(xi, lam):
        return _scaled_resolvent_from_s(j, _squared_norms(xi), lam, row, col)

    symbol.__name__ = f"m{j}_{row + 1}{col + 1}"
    return symbol


EXAMPLE_CASES = (
    ("lambda", sym_lambda, 2.0),
    ("xi_squared", sym_xi_sq, 2.0),
    ("xi_fourth", sym_xi_4, 4.0),
    ("sqrt_lambda_plus_xi_sq", sym_sqrt_lam_xi_sq, 1.0),
    ("inv_sqrt_lambda_plus_xi_sq", sym_inv_sqrt_lam_xi_sq, -1.0),
    ("xi_over_sobolev_weight", sym_xi_over_weight, 0.0),
    ("one_on_shifted_sector", sym_one, 2.0),
)


def example_suite(sample: SectorSample | None = None) -> list[MultiplierReport]:
    """Scan the stock example symbols; all pass on a shifted-sector sample."""
    if sample is None:
        sample = SectorSample()
    return [
        multiplier_order_scan(fn, s, sample, symbol_id=name)
        for name, fn, s in EXAMPLE_CASES
    ]


def scaled_resolvent_entry_scans(j: int, sample: SectorSample | None = None
                                 ) -> dict[tuple, MultiplierReport]:
    """Scan all nine entries of M^{(j)} as order-0 multipliers."""
    if sample is None:
        sample = SectorSample()
    if not sample.lambda0 > 0.0:
        raise ValueError("entry scans need a shifted sector")
    out = {}
    for row in range(3):
        for col in range(3):
            fn = resolvent_entry_symbol(j, row, col)
            out[(row, col)] = multiplier_order_scan(
                fn, 0.0, sample, symbol_id=fn.__name__
            )
    return out


def constant_one_origin_growth() -> tuple[float, float]:
    """C_0 of the constant symbol on the unshifted sector, base vs extended.

    The constant is not an order-2 multiplier near the origin: extending the
    sample toward |lambda| = 1e-12, |xi| = 1e-6 blows C_0 up by many orders.
    Returns (base C_0, extended C_0).
    """
    base = SectorSample(lambda0=0.0)
    ext = SectorSample(
        lambda0=0.0,
        lambda_moduli=tuple(np.logspace(-12.0, 3.0, 32)),
        xi_moduli=tuple(np.logspace(-6.0, 3.0, 32)),
    )
    c_base = multiplier_order_scan(sym_one, 2.0, base, max_alpha=0).constant((0, 0))
    c_ext = multiplier_order_scan(sym_one, 2.0, ext, max_alpha=0).constant((0, 0))
    return c_base, c_ext


def nonsectoriality_witness(k: float) -> float:
    """|lambda (1+|xi|^2) |xi|^2 / prod(lambda + gamma_j |xi|^2)| at lambda = 1/k^2, |xi| = 1/k.

    Substituting lambda = |xi|^2 = 1/k^2 collapses the quotient to
    (k^2+1)/5, which grows without bound; no sector bound around the origin
    can hold.  The value is computed through the symbol quotient, not the
    closed form, so the identity is testable.
    """
    if not k > 0:
        raise ValueError(f"k must be positive, got {k}")
    with np.errstate(over="ignore", invalid="ignore"):
        lam = s = np.float64(k) ** -2.0
        det = np.prod(lam + GAMMAS * s)
    # a subnormal determinant overflows the reciprocal inside complex division
    if not np.finfo(float).tiny <= abs(det) < math.inf:
        raise ValueError(f"k={k:g} is outside the witness range: "
                         f"the determinant at lambda = |xi|^2 = 1/k^2 is {det}")
    return float(abs(lam * (1.0 + s) * s / det))


def witness_closed_form(k: float) -> float:
    return (k * k + 1.0) / 5.0
