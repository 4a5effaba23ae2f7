"""Empirical multiplier-class bounds for radial symbols on sampled sectors.

A symbol m(xi, lambda) has order s when every xi-derivative obeys

    |d^alpha m(xi, lambda)| <= C_alpha (|lambda|^{1/2} + |xi|)^s |xi|^{-|alpha|}

uniformly over the sector.  The scans here certify that empirically: they
sample a shifted sector, take every derivative exactly, and report the
observed sup constants C_alpha per multi-index.  A pass is evidence over the
sample, not a proof; report metadata says so.

A symbol must be radial, m = g(|xi|^2, lambda).  It is called once per scan
as symbol(s, lam, order) on the sample's distinct pairs (s, lambda) =
(|xi|^2, lambda), and returns the Taylor coefficients g_k = d^k g/ds^k / k!,
k = 0..order, as an (order + 1, n) array; symbols.Jet computes them.  Every
modulus r runs along the same unit directions u, so the chain rule reads

    d^alpha g(|xi|^2) |xi|^|alpha| = sum_k prod_i alpha_i! / (k_i! (alpha_i - 2 k_i)!)
                  (2 u_i)^(alpha_i - 2 k_i) m! s^m g_m = sum_m F[alpha, u, m] s^m g_m

at xi = r u, s = r^2, over 0 <= 2 k_i <= alpha_i with m = |alpha| - |k|.
The scan forms the last sum on the (modulus, lambda) pairs for each u with
a nonzero F row, elementwise, and keeps the first maximum in the sample's
(modulus, direction, lambda) order; a derivative that vanishes identically
reads exactly 0.  Scans of one sample share its read-only grid, which holds
no array per point.  A symbol therefore receives read-only arguments; it
must not write to them or keep them.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .symbols import ROOTS, Jet, NumericalError, _scaled_resolvent_from_s

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


def _directions(dim: int) -> tuple:
    """A sample's unit xi directions: the coordinate axes, then (dim > 1) the diagonal."""
    axes = tuple(tuple(float(i == d) for i in range(dim)) for d in range(dim))
    return axes + ((1.0 / math.sqrt(dim),) * dim,) * (dim > 1)


@functools.lru_cache(maxsize=1)
def _sample_grid(sample: SectorSample) -> tuple[np.ndarray, ...]:
    """Unit directions U, moduli r, lambdas in sample order, the distinct pairs S, LAMS
    of (|xi|^2, lambda) and each (modulus, lambda)'s pair index PAIRS, read-only.  One
    entry suffices: the CLI scans one sample at a time, many symbols each."""
    r = np.asarray(sample.xi_moduli)
    lams = sample.lambda_points()
    s, s_idx = np.unique(r * r, return_inverse=True)
    lam, lam_idx = np.unique(lams, return_inverse=True)
    grid = (np.array(_directions(sample.dim)), r, lams, np.repeat(s, len(lam)),
            np.tile(lam, len(s)), s_idx[:, None] * len(lam) + lam_idx)
    for arr in grid:
        arr.flags.writeable = False
    return grid


@functools.lru_cache
def _chain_table(dim: int, max_alpha: int) -> tuple:
    """(alpha, rows) for |alpha| <= max_alpha; row d holds the nonzero (m, F[alpha, u_d, m])
    of the module docstring, each weight written as C(alpha_i, 2 k_i) (2 k_i)! / k_i!."""
    table = []
    for alpha in itertools.product(range(max_alpha + 1), repeat=dim):
        if sum(alpha) > max_alpha:
            continue
        rows = []
        for u in _directions(dim):
            row = [0.0] * (sum(alpha) + 1)
            for k in itertools.product(*(range(a // 2 + 1) for a in alpha)):
                m = sum(alpha) - sum(k)
                row[m] += math.factorial(m) * math.prod(math.comb(a, 2 * i) * math.perm(2 * i, i)
                                                        * (2.0 * x) ** (a - 2 * i)
                                                        for x, a, i in zip(u, alpha, k))
            rows.append(tuple((m, f) for m, f in enumerate(row) if f))
        table.append((alpha, tuple(rows)))
    return tuple(table)


def multiplier_order_scan(symbol, order_s: float, sample: SectorSample,
                          max_alpha: int | None = None,
                          symbol_id: str = "symbol") -> MultiplierReport:
    """Scan one radial symbol against the order-s derivative bounds.

    symbol(s, lam, order) must be pure; it is called once, with order =
    max_alpha, on the distinct pairs (see the module docstring).
    """
    if max_alpha is None:
        max_alpha = sample.dim + 1
    if max_alpha < 0:
        raise ValueError(f"max_alpha must be nonnegative, got {max_alpha}")
    U, r, lams, S, LAMS, PAIRS = _sample_grid(sample)
    jet = np.asarray(symbol(S, LAMS, max_alpha), dtype=complex)
    if jet.shape != (max_alpha + 1, len(S)):
        raise ValueError(f"{symbol_id} returned Taylor coefficients of shape {jet.shape}, "
                         f"expected {(max_alpha + 1, len(S))}")
    finite = np.isfinite(jet).all(axis=0)
    if not np.all(finite):
        i, j = np.argwhere(PAIRS == np.argmin(finite))[0]
        raise NumericalError(f"non-finite Taylor coefficient at xi={r[i] * U[0]}, "
                             f"lambda={lams[j]}")
    h = (jet * S ** np.arange(max_alpha + 1.0)[:, None])[:, PAIRS]  # s^m g_m, (m, r, lambda)
    weight = (np.sqrt(np.abs(lams)) + r[:, None]) ** order_s
    n_d, n_l = len(U), len(lams)
    records = []
    for alpha, rows in _chain_table(sample.dim, max_alpha):
        # each direction's first maximum, at its index in (modulus, direction, lambda)
        # order; the first of the largest wins, as np.argmax over every point picks it
        best = []
        for d, row in enumerate(rows):
            ratio = (np.abs(functools.reduce(np.add, (h[m] * f for m, f in row))) / weight
                     if row else np.zeros((1, 1)))  # a zero row reads 0 everywhere
            i, j = divmod(int(np.argmax(ratio)), n_l)
            best.append(((i * n_d + d) * n_l + j, ratio[i, j], i, d, j))
        best.sort()
        _, c, i, d, j = best[int(np.argmax([b[1] for b in best]))]
        records.append(AlphaRecord(alpha, float(c), tuple(float(x) for x in r[i] * U[d]),
                                   complex(lams[j])))
    return MultiplierReport(symbol_id, order_s, records, len(r) * n_d * n_l, max_alpha,
                            DEFAULT_CEILING)


# ---------------------------------------------------------------------------
# built-in symbols

def _radial(name: str, g):
    """The scannable symbol `name` of g(x, lam), jet arithmetic in x = |xi|^2."""

    def symbol(s, lam, order):
        value = g(Jet.variable(s, order), lam)
        out = np.zeros((order + 1, len(s)), dtype=complex)
        for k, c in enumerate(value.c if isinstance(value, Jet) else [value]):
            out[k] = c
        return out

    symbol.__name__ = name
    return symbol


sym_lambda = _radial("sym_lambda", lambda x, lam: lam)
sym_xi_sq = _radial("sym_xi_sq", lambda x, lam: x)
sym_xi_4 = _radial("sym_xi_4", lambda x, lam: x * x)
sym_sqrt_lam_xi_sq = _radial("sym_sqrt_lam_xi_sq", lambda x, lam: (lam + x) ** 0.5)
sym_inv_sqrt_lam_xi_sq = _radial("sym_inv_sqrt_lam_xi_sq", lambda x, lam: (lam + x) ** -0.5)
sym_xi_over_weight = _radial("sym_xi_over_weight", lambda x, lam: x ** 0.5 / (1.0 + x) ** 0.5)
sym_one = _radial("sym_one", lambda x, lam: 1.0)


def resolvent_entry_symbol(j: int, row: int, col: int):
    """Entry (row, col) of the scaled resolvent symbol M^{(j)} as a scannable symbol."""

    def symbol(s, lam, order):
        return _scaled_resolvent_from_s(j, s, lam, row, col, order).reshape(order + 1, len(s))

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
    return [multiplier_order_scan(fn, s, sample, symbol_id=name) for name, fn, s in EXAMPLE_CASES]


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
            out[(row, col)] = multiplier_order_scan(fn, 0.0, sample, symbol_id=fn.__name__)
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
    """|M^{(2)}_13| = |lambda (1+|xi|^2) |xi|^2 / det(lambda - A(xi))| at lambda = |xi|^2 = 1/k^2.

    Substituting lambda = |xi|^2 = 1/k^2 collapses the quotient to
    (k^2+1)/5, which grows without bound; no sector bound around the origin
    can hold.  The value is read from the shared adjugate kernel, through
    its screen (a product of per-root factors in [0, 1]), not from the
    closed form, so the identity is testable.  A k whose 1/k^2 overflows, or
    at which the kernel rejects the determinant, raises ValueError naming k.
    """
    if not k > 0:
        raise ValueError(f"k must be positive, got {k}")
    try:
        s = float(k) ** -2.0
        return float(abs(_scaled_resolvent_from_s(2, s, s, 0, 2)))
    except (OverflowError, ValueError) as err:
        reason = err if isinstance(err, ValueError) else "1/k^2 overflows a double"
        raise ValueError(f"k={k:g} is outside the witness range: {reason}") from None


def witness_closed_form(k: float) -> float:
    return (k * k + 1.0) / 5.0
