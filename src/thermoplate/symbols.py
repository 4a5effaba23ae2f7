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

#: |det| below this is treated as exactly singular; double precision cannot
#: represent a meaningful quotient past it.
SINGULAR_DET_FLOOR = 1e-300

ROOT_RESIDUAL_TOL = 1e-12


class SingularParameterError(ValueError):
    """lambda coincides (numerically) with an eigenvalue -gamma_j*|xi|^2."""


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
        """Raise AssertionError unless every structural invariant holds."""
        residual = max(abs(poly_eval(-g)) for g in self.as_array())
        assert residual <= ROOT_RESIDUAL_TOL, f"root residual {residual:.3e}"
        assert 0.0 < self.gamma1 < 1.0
        assert self.gamma3 == self.gamma2.conjugate()
        assert self.gamma2.imag > 0.0
        assert 0.0 < self.gamma2.real < 0.5
        prod = self.gamma1 * self.gamma2 * self.gamma3
        total = self.gamma1 + self.gamma2 + self.gamma3
        assert abs(prod - 1.0) <= ROOT_RESIDUAL_TOL, f"Vieta product {prod}"
        assert abs(total - 1.0) <= ROOT_RESIDUAL_TOL, f"Vieta sum {total}"
        assert math.pi / 2 < self.theta0 < math.pi


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


#: adj(lambda - A(xi)) entry by entry as polynomials in (s, lambda);
#: (lambda - A)^{-1} is this over det(lambda - A) = prod(lambda + gamma_j s)
_ADJUGATE = (
    (lambda s, lam: lam * (lam + s) + s * s, lambda s, lam: lam + s, lambda s, lam: s),
    (lambda s, lam: -s * s * (lam + s), lambda s, lam: lam * (lam + s), lambda s, lam: lam * s),
    (lambda s, lam: s ** 3, lambda s, lam: -lam * s, lambda s, lam: lam * lam + s * s),
)

#: (rows, cols) index arrays that select the whole 3x3 block
BLOCK = tuple(np.indices((3, 3)))


def _resolvent_entries(s, lam, rows, cols) -> np.ndarray:
    """Entries (rows, cols) of (lambda - A(xi))^{-1} over broadcast arrays of s and lambda.

    rows and cols are integers or index arrays; the result has shape
    broadcast(s, lambda) + broadcast(rows, cols).  Only the requested entries
    are formed, over one determinant and one singularity check.  Raises
    SingularParameterError naming the flat index into broadcast(s, lambda)
    where lambda hits the symbol spectrum.
    """
    s = np.asarray(s, dtype=float)
    lam = np.asarray(lam, dtype=complex)
    det = (lam + GAMMAS[0] * s) * (lam + GAMMAS[1] * s) * (lam + GAMMAS[2] * s)
    bad = np.abs(det) < SINGULAR_DET_FLOOR
    if np.any(bad):
        idx = int(np.argmax(bad))
        s_at, lam_at = (np.broadcast_to(x, det.shape).flat[idx] for x in (s, lam))
        raise SingularParameterError(
            f"lambda={lam_at} singular at index {idx} (|xi|^2={s_at})"
        )
    rows, cols = np.broadcast_arrays(rows, cols)
    out = np.empty(det.shape + rows.shape, dtype=complex)
    for pos in np.ndindex(rows.shape):
        out[(Ellipsis,) + pos] = _ADJUGATE[rows[pos]][cols[pos]](s, lam) / det
    return out


def resolvent_matrix(xi, lam: complex) -> np.ndarray:
    """(lambda - A(xi))^{-1} from the explicit adjugate over the determinant."""
    return resolvent_matrices(_squared_norm(xi), lam)


def resolvent_matrices(s, lam) -> np.ndarray:
    """Resolvent over broadcast arrays of s = |xi|^2 and lambda; shape (..., 3, 3)."""
    return _resolvent_entries(s, lam, *BLOCK)


def scaling_matrix(j: int, xi) -> np.ndarray:
    """S_j(xi) = (1+|xi|^2)^{j/2} diag(1+|xi|^2, 1, 1)."""
    if j not in (0, 1, 2):
        raise ValueError(f"scaling index must be 0, 1 or 2, got {j}")
    s = _squared_norm(xi)
    a = 1.0 + s
    return a ** (j / 2) * np.diag([a, 1.0, 1.0])


def scaled_resolvent_symbol(j: int, xi, lam: complex) -> np.ndarray:
    """M^{(j)} = lambda^{j/2} S_{2-j}(xi) (lambda - A(xi))^{-1} S_0(xi)^{-1}.

    lambda^{j/2} uses the principal branch; every sector this library
    samples satisfies |arg lambda| < pi, where that branch is continuous.
    """
    return _scaled_resolvent_from_s(j, _squared_norm(xi), lam, *BLOCK)


def _scaled_resolvent_from_s(j: int, s, lam, rows, cols) -> np.ndarray:
    """Entries (rows, cols) of M^{(j)} over broadcast arrays of s and lambda.

    Conjugation by the diagonal scaling matrices only multiplies the first
    row by a = 1+s and divides the first column by a, so it is applied
    entry by entry to the resolvent entries.
    """
    if j not in (0, 1, 2):
        raise ValueError(f"scaling index must be 0, 1 or 2, got {j}")
    R = _resolvent_entries(s, lam, rows, cols)
    a = 1.0 + np.asarray(s, dtype=float)
    rows, cols = np.broadcast_arrays(rows, cols)
    for pos in np.ndindex(rows.shape):
        entry = R[(Ellipsis,) + pos]
        if rows[pos] == 0 and cols[pos] != 0:
            entry *= a
        elif cols[pos] == 0 and rows[pos] != 0:
            entry /= a
    pref = np.asarray(lam, dtype=complex) ** (j / 2) * a ** ((2 - j) / 2)
    R *= pref[(Ellipsis,) + (None,) * rows.ndim]
    return R
