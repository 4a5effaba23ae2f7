"""Empirical multiplier-class bounds for symbols on sampled sectors.

A symbol m(xi, lambda) has order s when every xi-derivative obeys

    |d^alpha m(xi, lambda)| <= C_alpha (|lambda|^{1/2} + |xi|)^s |xi|^{-|alpha|}

uniformly over the sector.  The scans here certify that empirically: they
sample a shifted sector, estimate the derivatives by iterated central
differences, and report the observed sup constants C_alpha per multi-index.
A pass is evidence over the sample, not a proof; report metadata says so.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .symbols import GAMMAS, ROOTS, _scaled_resolvent_from_s

EPS = np.finfo(float).eps
#: relative central-difference step; eps^(1/3) balances truncation against
#: cancellation for first and second differences
STEP_FACTOR = EPS ** (1.0 / 3.0)

DEFAULT_CEILING = 1e6


class EvaluationError(RuntimeError):
    """A symbol returned a non-finite value inside the sampled sector."""


@dataclass(frozen=True)
class SectorSample:
    """Sampling plan for a (possibly shifted) sector lambda0 + Sigma_theta.

    lambda values are lambda0 + r*exp(i*f*theta) over all moduli r and arg
    fractions f; frequency vectors run over xi_moduli along each coordinate
    axis and along the main diagonal.
    """

    lambda0: float = 1.0
    theta: float = 0.95 * ROOTS.theta0
    lambda_moduli: tuple = tuple(np.logspace(-3.0, 3.0, 32))
    arg_fractions: tuple = (0.0, 0.5, -0.5, 0.99, -0.99)
    xi_moduli: tuple = tuple(np.logspace(-3.0, 3.0, 32))
    dim: int = 2

    def __post_init__(self):
        if not self.lambda0 >= 0.0:
            raise ValueError(f"sector shift must be nonnegative, got {self.lambda0}")
        if not 0.0 < self.theta < math.pi:
            raise ValueError(f"sector angle must lie in (0, pi), got {self.theta}")
        if not (len(self.lambda_moduli) and len(self.xi_moduli) and len(self.arg_fractions)):
            raise ValueError("sample axes must be nonempty")
        if not (min(self.lambda_moduli) > 0.0 and min(self.xi_moduli) > 0.0):
            raise ValueError("sample moduli must be positive")
        if not all(-1.0 < f < 1.0 for f in self.arg_fractions):
            raise ValueError("arg fractions must lie in (-1, 1)")
        if not self.dim >= 1:
            raise ValueError(f"dimension must be at least 1, got {self.dim}")

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

    def to_json_dict(self) -> dict:
        return {
            "symbol_id": self.symbol_id,
            "order_s": self.order_s,
            "max_alpha": self.max_alpha,
            "sample_points": self.sample_points,
            "ceiling": self.ceiling,
            "passed": self.passed,
            "note": self.note,
            "records": [
                {
                    "alpha": list(r.alpha),
                    "c_alpha": r.c_alpha,
                    "argmax_xi": list(r.argmax_xi),
                    "argmax_lambda": [r.argmax_lambda.real, r.argmax_lambda.imag],
                }
                for r in self.records
            ],
        }

    def to_csv_rows(self) -> list[str]:
        rows = ["alpha,c_alpha,argmax_xi,argmax_lambda_re,argmax_lambda_im"]
        for r in self.records:
            rows.append(
                '"%s",%r,"%s",%r,%r'
                % (
                    " ".join(map(str, r.alpha)),
                    r.c_alpha,
                    " ".join(repr(v) for v in r.argmax_xi),
                    r.argmax_lambda.real,
                    r.argmax_lambda.imag,
                )
            )
        return rows


def _multi_indices(dim: int, max_order: int):
    for alpha in itertools.product(range(max_order + 1), repeat=dim):
        if sum(alpha) <= max_order:
            yield alpha


def _central_difference(symbol, xi: np.ndarray, lam: np.ndarray, alpha: tuple,
                        h: np.ndarray) -> np.ndarray:
    """Iterated central difference d^alpha at every row of xi.

    The order-m difference in one coordinate uses m+1 leaves at offsets
    (m-2i)*h with binomial weights; coordinates compose by product.  Steps h
    are per point and per coordinate, frozen from the base point.
    """
    acc = np.zeros(xi.shape[0], dtype=complex)
    denom = np.ones(xi.shape[0])
    leaf_iters = []
    for k, m in enumerate(alpha):
        if m:
            denom = denom * (2.0 * h[:, k]) ** m
        leaf_iters.append([(i, math.comb(m, i)) for i in range(m + 1)])
    for combo in itertools.product(*leaf_iters):
        weight = 1.0
        shift = np.zeros_like(xi)
        for k, (i, binom) in enumerate(combo):
            m = alpha[k]
            weight *= (-1.0) ** i * binom
            if m:
                shift[:, k] = (m - 2 * i) * h[:, k]
        vals = symbol(xi + shift, lam)
        vals = np.asarray(vals, dtype=complex)
        if not np.all(np.isfinite(vals)):
            idx = int(np.argmin(np.isfinite(vals)))
            raise EvaluationError(
                f"non-finite symbol value at xi={xi[idx] + shift[idx]}, lambda={lam[idx]}"
            )
        acc += weight * vals
    return acc / denom


def multiplier_order_scan(symbol, order_s: float, sample: SectorSample,
                          max_alpha: int | None = None,
                          ceiling: float = DEFAULT_CEILING,
                          symbol_id: str = "symbol") -> MultiplierReport:
    """Scan one symbol against the order-s derivative bounds.

    symbol must accept batched arguments: xi of shape (n, dim) and lam of
    shape (n,), returning n complex values; it must be pure.
    """
    if max_alpha is None:
        max_alpha = sample.dim + 1
    if max_alpha > 4:
        raise ValueError("max_alpha above 4 is not supported (cost control)")
    xi = sample.xi_points()
    lams = sample.lambda_points()
    # full tensor sample, flattened
    XI = np.repeat(xi, len(lams), axis=0)
    LAM = np.tile(lams, len(xi))
    norms = np.linalg.norm(XI, axis=1)
    H = STEP_FACTOR * np.maximum(np.abs(XI), norms[:, None])
    weight = (np.sqrt(np.abs(LAM)) + norms) ** order_s
    records = []
    for alpha in _multi_indices(sample.dim, max_alpha):
        deriv = _central_difference(symbol, XI, LAM, alpha, H)
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
        ceiling=ceiling,
    )


# ---------------------------------------------------------------------------
# built-in symbols

def sym_lambda(xi, lam):
    return np.asarray(lam, dtype=complex)


def sym_xi_sq(xi, lam):
    return np.sum(xi * xi, axis=-1).astype(complex)


def sym_xi_4(xi, lam):
    s = np.sum(xi * xi, axis=-1)
    return (s * s).astype(complex)


def sym_sqrt_lam_xi_sq(xi, lam):
    return np.sqrt(lam + np.sum(xi * xi, axis=-1))


def sym_inv_sqrt_lam_xi_sq(xi, lam):
    return 1.0 / np.sqrt(lam + np.sum(xi * xi, axis=-1))


def sym_xi_over_weight(xi, lam):
    s = np.sum(xi * xi, axis=-1)
    return (np.sqrt(s) / np.sqrt(1.0 + s)).astype(complex)


def sym_one(xi, lam):
    return np.ones(xi.shape[0], dtype=complex)


def resolvent_entry_symbol(j: int, row: int, col: int):
    """Entry (row, col) of the scaled resolvent symbol M^{(j)} as a scannable symbol."""

    def symbol(xi, lam):
        return _scaled_resolvent_from_s(j, np.sum(xi * xi, axis=-1), lam, row, col)

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
    if k <= 0:
        raise ValueError("k must be positive")
    lam = k ** -2.0
    s = k ** -2.0
    det = np.prod(lam + GAMMAS * s)
    return float(abs(lam * (1.0 + s) * s / det))


def witness_closed_form(k: float) -> float:
    return (k * k + 1.0) / 5.0
