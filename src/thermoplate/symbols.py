"""Closed-form symbol calculus for the linear thermoelastic plate system.

The system couples a fourth-order plate equation with a heat equation; the
state is U = (u, u_t, theta).  On the Fourier side every frequency xi sees
the 3x3 symbol matrix

    A(xi) = [[0,       1,       0     ],
             [-|xi|^4, 0,       |xi|^2],
             [0,       -|xi|^2, -|xi|^2]]

whose eigenvalues are -gamma_j * |xi|^2 with gamma_j the roots of the
characteristic cubic t^3 + t^2 + 2t + 1.  Everything in this module is an
exact rational (or principal-branch power) expression in s = |xi|^2 and the
spectral parameter lambda, so all functions canonicalize their frequency
argument to s first; rotational invariance is then exact by construction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# characteristic cubic p(t) = t^3 + t^2 + 2 t + 1, highest degree first
CHAR_POLY = (1.0, 1.0, 2.0, 1.0)

#: |det| below this multiple of its scale prod_j(|lambda| + |gamma_j| s),
#: screened as the product of the per-root factors, is treated as exactly
#: singular; double precision cannot represent a meaningful quotient past it.
SINGULAR_DET_FLOOR = 1e-300

ROOT_RESIDUAL_TOL = 1e-12


class SingularParameterError(ValueError):
    """lambda coincides (numerically) with an eigenvalue -gamma_j*|xi|^2."""


class NumericalError(RuntimeError):
    """A spectral computation left the accuracy envelope it promised."""


def poly_eval(t: complex) -> complex:
    """Evaluate the characteristic cubic by Horner's rule."""
    acc = 0.0 + 0.0j
    for c in CHAR_POLY:
        acc = acc * t + c
    return acc


def _poly_deriv(t: complex) -> complex:
    return 3.0 * t * t + 2.0 * t + 2.0


@dataclass(frozen=True)
class CharacteristicRoots:
    """Roots gamma_1, gamma_2, gamma_3 of the characteristic cubic.

    gamma1 is the real root; gamma2 and gamma3 = conj(gamma2) form the
    complex pair (Im gamma2 > 0).  theta0 = arg(-gamma3) is the largest
    sector half-angle for which the shifted resolvent bounds hold; the
    resolvent blows up along rays steeper than theta0.
    """

    gamma1: float
    gamma2: complex
    gamma3: complex
    theta0: float

    def as_array(self) -> np.ndarray:
        return np.array([self.gamma1, self.gamma2, self.gamma3])

    def validate(self) -> None:
        """Raise ValueError unless every structural invariant holds."""
        residual = max(abs(poly_eval(-g)) for g in self.as_array())
        prod = self.gamma1 * self.gamma2 * self.gamma3
        total = self.gamma1 + self.gamma2 + self.gamma3
        checks = (
            (residual <= ROOT_RESIDUAL_TOL, f"root residual {residual:.3e}"),
            (0.0 < self.gamma1 < 1.0, f"gamma1 = {self.gamma1!r} outside (0, 1)"),
            (self.gamma3 == self.gamma2.conjugate(), "gamma3 is not conj(gamma2)"),
            (self.gamma2.imag > 0.0, "Im gamma2 is not positive"),
            (0.0 < self.gamma2.real < 0.5, f"Re gamma2 = {self.gamma2.real!r} outside (0, 1/2)"),
            (abs(prod - 1.0) <= ROOT_RESIDUAL_TOL, f"Vieta product {prod}"),
            (abs(total - 1.0) <= ROOT_RESIDUAL_TOL, f"Vieta sum {total}"),
            (math.pi / 2 < self.theta0 < math.pi, f"theta0 = {self.theta0!r} outside (pi/2, pi)"),
        )
        for ok, message in checks:
            if not ok:
                raise ValueError(message)


def characteristic_roots() -> CharacteristicRoots:
    """Compute the characteristic roots once, deterministically.

    Companion-matrix eigenvalues seeded into one Newton step per root; the
    polish makes the residuals independent of LAPACK ordering details.
    """
    # monic cubic t^3 + a2 t^2 + a1 t + a0
    a2, a1, a0 = CHAR_POLY[1], CHAR_POLY[2], CHAR_POLY[3]
    companion = np.array(
        [
            [0.0, 0.0, -a0],
            [1.0, 0.0, -a1],
            [0.0, 1.0, -a2],
        ]
    )
    raw = np.linalg.eigvals(companion)
    polished = []
    for t in raw:
        for _ in range(3):
            ft = poly_eval(t)
            if ft == 0:
                break
            t = t - ft / _poly_deriv(t)
        polished.append(t)
    # roots of p are -gamma_j
    gammas = [-t for t in polished]
    real = [g for g in gammas if abs(g.imag) < 1e-8]
    cplx = [g for g in gammas if g.imag > 1e-8]
    if len(real) != 1 or len(cplx) != 1:
        raise RuntimeError(f"unexpected root structure: {gammas}")
    g1 = float(real[0].real)
    g2 = complex(cplx[0])
    g3 = g2.conjugate()
    roots = CharacteristicRoots(
        gamma1=g1, gamma2=g2, gamma3=g3, theta0=cmath.phase(-g3)
    )
    roots.validate()
    return roots


ROOTS = characteristic_roots()
GAMMAS = ROOTS.as_array()


def _squared_norm(xi) -> float:
    """Canonicalize a frequency argument to s = |xi|^2.

    Accepts a scalar |xi| or a frequency vector of any dimension.
    """
    arr = np.asarray(xi, dtype=float)
    if arr.ndim == 0:
        return float(arr) ** 2
    return float(np.dot(arr.ravel(), arr.ravel()))


def symbol_matrix(xi) -> np.ndarray:
    """The 3x3 Fourier symbol A(xi); depends on xi only through |xi|^2."""
    s = _squared_norm(xi)
    return np.array(
        [
            [0.0, 1.0, 0.0],
            [-s * s, 0.0, s],
            [0.0, -s, -s],
        ]
    )


def determinant_pair(xi, lam: complex) -> tuple[complex, complex]:
    """det(lambda - A(xi)) via both product factorizations.

    The two coincide because the gamma_j multiply to 1:
    prod(lambda/gamma_i + s) = prod(lambda + gamma_j s) / prod(gamma_j).
    """
    s = _squared_norm(xi)
    d_gamma = complex(np.prod(lam + GAMMAS * s))
    d_recip = complex(np.prod(lam / GAMMAS + s))
    return d_gamma, d_recip


class Jet:
    """Taylor coefficients c_0..c_order in s = |xi|^2, one array (or scalar) each.

    Arrays and scalars, lambda among them, are constants in s.  Products,
    quotients by jets and real powers run the recurrences of Taylor
    arithmetic (Griewank & Walther, Evaluating Derivatives, ch. 13)
    elementwise; each c_0 comes from the very operation on values, so at
    order 0 an expression gives bit for bit what it gives on arrays.
    """

    __array_ufunc__ = None  # numpy operands defer to the reflected methods

    def __init__(self, coeffs):
        self.c = list(coeffs)

    @classmethod
    def variable(cls, s, order: int) -> "Jet":
        """The jet of s itself: s, 1, 0, ..., 0."""
        return cls([s, 1.0, *[0.0] * (order - 1)][:order + 1])

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet([a + b for a, b in zip(self.c, other.c)])
        return Jet([self.c[0] + other, *self.c[1:]])

    def __neg__(self):
        return Jet([-a for a in self.c])

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet([a * other for a in self.c])
        a, b = self.c, other.c
        return Jet([sum((a[i] * b[k - i] for i in range(1, k + 1)), a[0] * b[k])
                    for k in range(len(a))])

    def __truediv__(self, other):
        b, q = other.c, []
        for k, a in enumerate(self.c):
            q.append(sum((-b[i] * q[k - i] for i in range(1, k + 1)), a) / b[0])
        return Jet(q)

    def __pow__(self, r: float):
        # (a^r)' a = r a' a^r, coefficient by coefficient; a real power above
        # order 0 divides by c_0, which must not vanish
        a, p = self.c, [self.c[0] ** r]
        for k in range(1, len(a)):
            p.append(sum((r * i - (k - i)) * a[i] * p[k - i] for i in range(1, k + 1))
                     / (k * a[0]))
        return Jet(p)

    __radd__, __rmul__ = __add__, __mul__


#: adj(lambda - A(xi)) entry by entry as polynomials in (s, lambda);
#: (lambda - A)^{-1} is this over det(lambda - A) = prod(lambda + gamma_j s)
_ADJUGATE = (
    (lambda s, lam: lam * (lam + s) + s * s, lambda s, lam: lam + s, lambda s, lam: s),
    (lambda s, lam: -s * s * (lam + s), lambda s, lam: lam * (lam + s), lambda s, lam: lam * s),
    (lambda s, lam: s ** 3, lambda s, lam: -lam * s, lambda s, lam: lam * lam + s * s),
)

#: (rows, cols) index arrays that select the whole 3x3 block
BLOCK = tuple(np.indices((3, 3)))


def _resolvent_entries(s, lam, rows, cols, order: int = 0, j: int | None = None) -> np.ndarray:
    """Entries (rows, cols) of (lambda - A(xi))^{-1} over broadcast arrays of s and lambda.

    rows and cols are integers or index arrays; the result has shape
    broadcast(s, lambda) + broadcast(rows, cols), behind a leading axis of
    the Taylor coefficients 0..order in s when order > 0.  Only the
    requested entries are formed, as adjugate jets over one determinant jet;
    with j set they are the entries of M^{(j)} (_scaled_resolvent_from_s).
    The screen is the product of the per-root factors
    |lambda + gamma_j s| / (|lambda| + |gamma_j| s), each in [0, 1].  Raises
    SingularParameterError naming the flat index into broadcast(s, lambda)
    where lambda hits the symbol spectrum (the product is below
    SINGULAR_DET_FLOOR, or NaN at lambda = s = 0, and det is finite), and
    ValueError naming the first index where the determinant overflows a
    double or its scale prod_j(|lambda| + |gamma_j| s) underflows.
    """
    s = np.asarray(s, dtype=float)
    lam = np.asarray(lam, dtype=complex)
    x = Jet.variable(s, order)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        det = (lam + GAMMAS[0] * x) * (lam + GAMMAS[1] * x) * (lam + GAMMAS[2] * x)
        d0 = det.c[0]
        mod, g = np.abs(lam), np.abs(GAMMAS)
        scale = (mod + g[0] * s) * (mod + g[1] * s) * (mod + g[2] * s)
        factors = [np.abs(lam + gj * s) / (mod + gj_mod * s) for gj, gj_mod in zip(GAMMAS, g)]
        ratio = factors[0] * factors[1] * factors[2]
        # NaN at lambda = s = 0 is singular; at lambda = s = inf det overflows instead
        singular = ~(ratio >= SINGULAR_DET_FLOOR) & np.isfinite(d0)
        tiny = scale < np.finfo(float).tiny
    bad = singular | tiny | ~np.isfinite(d0)
    if np.any(bad):
        idx = int(np.argmax(bad))
        s_at, lam_at = (np.broadcast_to(v, d0.shape).flat[idx] for v in (s, lam))
        if singular.flat[idx]:
            raise SingularParameterError(f"lambda={lam_at} singular at index {idx} "
                                         f"(|xi|^2={s_at})")
        what = ("underflows the scale prod(|lambda| + |gamma_j| |xi|^2) of"
                if tiny.flat[idx] else "overflows")
        raise ValueError(f"lambda={lam_at} at index {idx} (|xi|^2={s_at}) "
                         f"{what} the determinant det(lambda - A(xi))")
    if j is not None:
        a = 1.0 + x
        pref = lam ** (j / 2) * a ** ((2 - j) / 2)
    rows, cols = np.broadcast_arrays(rows, cols)
    out = np.empty((order + 1,) + d0.shape + rows.shape, dtype=complex)
    for pos in np.ndindex(rows.shape):
        row, col = rows[pos], cols[pos]
        entry = _ADJUGATE[row][col](x, lam) / det
        if j is not None:
            if row == 0 and col != 0:
                entry = entry * a
            elif col == 0 and row != 0:
                entry = entry / a
            entry = entry * pref
        for k, c in enumerate(entry.c):
            out[(k, Ellipsis) + pos] = c
    return out if order else out[0]


def resolvent_matrices(s, lam) -> np.ndarray:
    """Resolvent over broadcast arrays of s = |xi|^2 and lambda; shape (..., 3, 3)."""
    return _resolvent_entries(s, lam, *BLOCK)


def _scaled_resolvent_from_s(j: int, s, lam, rows, cols, order: int = 0) -> np.ndarray:
    """Entries (rows, cols) of M^{(j)} over broadcast arrays of s and lambda.

    M^{(j)} = lambda^{j/2} S_{2-j}(xi) (lambda - A(xi))^{-1} S_0(xi)^{-1} with
    S_j(xi) = (1+s)^{j/2} diag(1+s, 1, 1); lambda^{j/2} uses the principal
    branch, continuous on every sector sampled here (|arg lambda| < pi).
    Conjugation by the diagonal scaling matrices only multiplies the first
    row by a = 1+s and divides the first column by a; _resolvent_entries
    applies it to each entry's jet, behind its one screen, and the shape is
    that of _resolvent_entries.
    """
    if j not in (0, 1, 2):
        raise ValueError(f"scaling index must be 0, 1 or 2, got {j}")
    return _resolvent_entries(s, lam, rows, cols, order, j)
