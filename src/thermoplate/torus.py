"""Spectral evolution and resolvent application on periodic grids.

Everything runs in Fourier space with the unitary FFT convention, so
coefficient sums are Parseval-exact.  Frequencies on an M-point axis of
period L are xi_k = 2*pi*k/L with k in the standard FFT ordering.  The mode
matrix acting on the coefficient triple (u, v, theta)^ is

    A(xi) = [[0, 1, 0], [-s^2, 0, s], [0, -s, -s]],   s = |xi|^2,

whose eigenvalues are -gamma_j * s.  Its exponential goes through the
constant matrix A1 = A(s=1): A(xi) = D (s A1) D^{-1} with D = diag(1, s, s),
so exp(t A(xi)) = D exp(tau A1) D^{-1} with tau = s t.  Sylvester's formula
gives exp(tau A1) in real arithmetic from the spectral projectors of A1:
R_r for the real eigenvalue -gamma1 and P = 2 Re R_c, Q = 2 Im R_c for the
complex pair, exp(tau A1) = e^{-gamma1 tau} R_r + Re(e^{w tau}) P
- Im(e^{w tau}) Q with w = -gamma2.  Below tau = 0.25, where that sum would
cancel, a Horner-evaluated Taylor series of exp(tau A1) takes over, so every
entry keeps its relative accuracy as s t -> 0.  The nilpotent mode s = 0 is
exactly I + t A(0).  evolve_many transforms a state once and evaluates each
distinct s for a batch of times at once, applying it to every mode sharing it:
each propagator entry is gathered from one contiguous (batch, distinct s)
block, and each inverse-transformed batch is made C-contiguous before its
residue maxima and per-node copies.  The Laplace oracle reads those batches
directly, with no per-node state.

resolvent_bound_sweep screens each lambda's 3x3 matrices with a closed form
for the largest singular value (the top eigenvalue of M^H M by the
trigonometric formula) and confirms with LAPACK's SVD every matrix within
1e-6 of the screened maximum, so its bounds are the SVD's, bit for bit.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .symbols import (BLOCK, ROOTS, NumericalError, resolvent_matrices, symbol_matrix,
                      _scaled_resolvent_from_s)

MAGIC = b"TPLT"
FORMAT_VERSION = 1
IMAG_RESIDUE_TOL = 1e-10
#: largest |xi| whose s^3 = |xi|^6 is finite; the symbol determinant is cubic in s
_XI_LIMIT = sys.float_info.max ** (1.0 / 6.0)

_A1 = symbol_matrix(1.0)
_W_REAL, _W_PAIR = -ROOTS.gamma1, -ROOTS.gamma2


def _real_projectors() -> tuple:
    """R_r, P = 2 Re R_c, Q = 2 Im R_c from Sylvester's formula for A1."""
    eye = np.eye(3)
    wr, wc = _W_REAL, _W_PAIR
    r_real = (_A1 - wc * eye) @ (_A1 - wc.conjugate() * eye) / abs(wr - wc) ** 2
    r_pair = (_A1 - wr * eye) @ (_A1 - wc.conjugate() * eye) / ((wc - wr) * 2j * wc.imag)
    return r_real.real, 2.0 * r_pair.real, 2.0 * r_pair.imag


_R_REAL, _P_PAIR, _Q_PAIR = _real_projectors()
# Taylor coefficients A1^k / k! for k = 0..15.  At the cut the first dropped
# term is below 1e-21 and the smallest entry of exp(tau A1) is about 0.03;
# below the cut the dropped term shrinks like tau^16, the entries like tau^2.
_TAYLOR_CUT = 0.25
_TAYLOR = [np.linalg.matrix_power(_A1, k) / math.factorial(k) for k in range(16)]
#: mode-times per batch of evolve_many; bounds its working set, never its results
_BATCH_MODE_TIMES = 2 ** 14


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid; modes per axis must be powers of two >= 4."""

    modes: tuple
    lengths: tuple

    def __post_init__(self):
        if len(self.modes) != len(self.lengths) or not 1 <= len(self.modes) <= 2:
            raise ValueError("grids are one- or two-dimensional")
        for m in self.modes:
            if m < 4 or m & (m - 1):
                raise ValueError(f"modes per axis must be a power of two >= 4, got {m}")
        if not all(0.0 < length < math.inf for length in self.lengths):
            raise ValueError(f"axis lengths must be positive and finite, got {self.lengths!r}")
        # the Nyquist frequency pi*M/L is the largest |xi| along each axis
        xi_max = math.hypot(*(math.pi * m / length for m, length in zip(self.modes, self.lengths)))
        if not xi_max <= _XI_LIMIT:
            raise ValueError(f"grid too fine for double precision: |xi| reaches {xi_max:.3e}, "
                             f"and |xi|^6 overflows")

    @property
    def dim(self) -> int:
        return len(self.modes)

    @property
    def shape(self) -> tuple:
        return tuple(self.modes)

    def xi_axes(self) -> list:
        return [
            2.0 * np.pi * np.fft.fftfreq(m, d=1.0 / m) / length
            for m, length in zip(self.modes, self.lengths)
        ]

    def s_array(self) -> np.ndarray:
        """|xi|^2 per mode, in grid shape."""
        axes = self.xi_axes()
        if self.dim == 1:
            return axes[0] ** 2
        return axes[0][:, None] ** 2 + axes[1][None, :] ** 2

    def points(self) -> list:
        return [
            length * np.arange(m) / m
            for m, length in zip(self.modes, self.lengths)
        ]


@dataclass
class StateField:
    """Real sample triple (u, v, theta) on a torus grid."""

    grid: TorusGrid
    u: np.ndarray
    v: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        for f in (self.u, self.v, self.theta):
            if f.shape != self.grid.shape:
                raise ValueError("field shape does not match grid")
            if np.iscomplexobj(f):
                raise ValueError("state fields are real")

    def fields(self) -> tuple:
        return self.u, self.v, self.theta

    def e_norm(self, j: int = 0) -> float:
        return e_norm(self.grid, self.u, self.v, self.theta, j)


def cosine_mode_state(grid: TorusGrid, k, amplitudes=(1.0, 0.0, 0.0)) -> StateField:
    """State whose three fields are multiples of one cosine mode."""
    k = np.atleast_1d(np.asarray(k, dtype=int))
    if k.shape != (grid.dim,):
        raise ValueError("mode index must have one entry per axis")
    pts = grid.points()
    if grid.dim == 1:
        phase = 2.0 * np.pi * k[0] * pts[0] / grid.lengths[0]
    else:
        phase = (
            2.0 * np.pi * k[0] * pts[0][:, None] / grid.lengths[0]
            + 2.0 * np.pi * k[1] * pts[1][None, :] / grid.lengths[1]
        )
    c = np.cos(phase)
    au, av, at = amplitudes
    return StateField(grid, au * c, av * c, at * c)


def random_state(grid: TorusGrid, rng) -> StateField:
    """Random smooth state with coefficients damped by (1 + |xi|^2)^-2."""
    damp = (1.0 + grid.s_array()) ** -2.0
    fields = []
    for _ in range(3):
        coeff = np.fft.fftn(rng.standard_normal(grid.shape), norm="ortho")
        fields.append(np.fft.ifftn(coeff * damp, norm="ortho").real.copy())
    return StateField(grid, *fields)


# ---------------------------------------------------------------------------
# mode propagators

def _exp_tau_a1(tau: np.ndarray) -> np.ndarray:
    """exp(tau A1) for a flat array of tau >= 0; shape (n, 3, 3)."""
    out = np.empty(tau.shape + (3, 3))
    small = tau < _TAYLOR_CUT
    ts = tau[small][:, None, None]
    acc = np.broadcast_to(_TAYLOR[-1], ts.shape[:1] + (3, 3))
    for term in _TAYLOR[-2::-1]:
        acc = term + ts * acc
    out[small] = acc
    tl = tau[~small]
    mag = np.exp(_W_PAIR.real * tl)
    re = (mag * np.cos(_W_PAIR.imag * tl))[:, None, None]
    im = (mag * np.sin(_W_PAIR.imag * tl))[:, None, None]
    out[~small] = np.exp(_W_REAL * tl)[:, None, None] * _R_REAL + re * _P_PAIR - im * _Q_PAIR
    return out


def _distinct_propagators(s: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """exp(t A(xi)) for every t in ts and every s; real, shape (len(ts), len(s), 3, 3)."""
    out = _exp_tau_a1(np.multiply.outer(ts, s).ravel()).reshape(ts.shape + s.shape + (3, 3))
    zero = s == 0.0
    d = np.where(zero, 1.0, s)[:, None]
    out[..., 0, 1:] /= d
    out[..., 1:, 0] *= d
    # s = 0 is nilpotent: exp(t A(0)) = I + t A(0)
    out[:, zero] = np.eye(3)
    out[:, zero, 0, 1] = ts[:, None]
    return out


def _coefficients(state: StateField) -> np.ndarray:
    return np.stack([np.fft.fftn(f, norm="ortho") for f in state.fields()])


def _evolve_batches(state: StateField, ts):
    """Yield (fields, residues) for each batch of times in ts, in order.

    fields holds the three C-contiguous complex fields of shape
    (batch,) + grid shape; residues holds each node's relative imaginary
    residue.  A batch with a residue above IMAG_RESIDUE_TOL raises
    NumericalError before it is yielded.
    """
    ts = np.asarray(ts, dtype=float).ravel()
    g = state.grid
    s, inverse = np.unique(g.s_array().ravel(), return_inverse=True)
    bad = [t for t in ts.tolist() if not (t >= 0.0 and t * float(s[-1]) < math.inf)]
    if bad:
        raise ValueError(f"time must be >= 0 with t max|xi|^2 finite, got {bad[0]!r}")
    U = _coefficients(state).reshape(3, -1)
    step = max(1, _BATCH_MODE_TIMES // U.shape[1])
    axes = tuple(range(1, g.dim + 1))
    for lo in range(0, ts.size, step):
        # entry-major (3, 3, batch, distinct s): each entry gathers from one
        # contiguous block into a C-contiguous (batch, mode) array, a layout
        # the inverse FFT keeps; the residue maxima and per-node copies need it
        P = np.ascontiguousarray(np.moveaxis(_distinct_propagators(s, ts[lo:lo + step]),
                                             (2, 3), (0, 1)))
        fields = [np.ascontiguousarray(np.fft.ifftn(
            (np.take(P[i, 0], inverse, axis=1) * U[0] + np.take(P[i, 1], inverse, axis=1) * U[1]
             + np.take(P[i, 2], inverse, axis=1) * U[2]).reshape((-1,) + g.shape),
            axes=axes, norm="ortho")) for i in range(3)]
        real = np.max([np.abs(f.real).reshape(len(f), -1).max(axis=1) for f in fields], axis=0)
        imag = np.max([np.abs(f.imag).reshape(len(f), -1).max(axis=1) for f in fields], axis=0)
        residues = imag / np.maximum(real, 1.0)
        for residue in residues:
            if residue > IMAG_RESIDUE_TOL:
                raise NumericalError(f"imaginary residue {residue:.3e} exceeds {IMAG_RESIDUE_TOL}")
        yield fields, residues


def evolve_many(state: StateField, ts):
    """Yield (state, imaginary residue) for each time t >= 0 in ts, in order.

    One forward transform and one np.unique of s serve every time; batches of
    times share one propagator build and one inverse transform per field.  A
    real initial state gives a real result up to rounding: each node's relative
    imaginary residue is checked against IMAG_RESIDUE_TOL, then truncated.
    """
    for fields, residues in _evolve_batches(state, ts):
        for b, residue in enumerate(residues):
            yield StateField(state.grid, *[f[b].real.copy() for f in fields]), residue


def evolve(state: StateField, t: float) -> tuple:
    """Propagate a state by time t >= 0: the one node of evolve_many(state, [t])."""
    return next(evolve_many(state, [t]))


def apply_resolvent(state: StateField, lam: complex) -> tuple:
    """(lambda - A)^{-1} state, mode by mode, as three complex fields (u, v, theta).

    Raises SingularParameterError when lambda hits an eigenvalue of some
    grid mode (the message names the offending mode).
    """
    g = state.grid
    U = _coefficients(state).reshape(3, -1)
    R = resolvent_matrices(g.s_array().ravel(), lam)
    out = np.einsum("nij,jn->in", R, U)
    return tuple(np.fft.ifftn(row.reshape(g.shape), norm="ortho") for row in out)


def sobolev_norm(grid: TorusGrid, field, order: float) -> float:
    """H^order norm of one field: weights (1+|xi|^2)^order under unitary FFT."""
    coeff = np.fft.fftn(field, norm="ortho")
    w = 1.0 + grid.s_array()
    return float(np.sqrt(np.sum(w ** order * np.abs(coeff) ** 2)))


def e_norm(grid: TorusGrid, u, v, theta, j: int = 0) -> float:
    """Energy norm: H^{2+j} on u, H^j on v and theta, via Parseval.

    A norm that overflows a double raises NumericalError."""
    with np.errstate(over="ignore"):
        total = (
            sobolev_norm(grid, u, 2 + j) ** 2
            + sobolev_norm(grid, v, j) ** 2
            + sobolev_norm(grid, theta, j) ** 2
        )
    if not math.isfinite(total):
        raise NumericalError(f"energy norm is {total!r}, not a finite double")
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# resolvent bound sweeps

def _largest_singular_values(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of each 3x3 in a (n, 3, 3) stack, in closed form.

    Each matrix is scaled by its largest |entry| c, and the top eigenvalue of
    H = M^H M comes from the trigonometric formula for a Hermitian 3x3.  The
    result is within about 3e-15 relative of LAPACK's, except where the top
    two singular values (nearly) coincide: there r sits at -1, where acos has
    infinite slope, and the error reaches about 1e-8.  A screen, not a result.
    """
    c = np.abs(mats).max(axis=(1, 2))
    m = mats / np.where(c == 0.0, 1.0, c)[:, None, None]
    col = [m[:, :, k] for k in range(3)]
    h00, h11, h22 = (np.einsum("ni,ni->n", x.conj(), x).real for x in col)
    h01, h02, h12 = (np.einsum("ni,ni->n", col[a].conj(), col[b])
                     for a, b in ((0, 1), (0, 2), (1, 2)))
    q = (h00 + h11 + h22) / 3.0
    d0, d1, d2 = h00 - q, h11 - q, h22 - q
    off = np.abs(h01) ** 2 + np.abs(h02) ** 2 + np.abs(h12) ** 2
    p = np.sqrt((d0 ** 2 + d1 ** 2 + d2 ** 2 + 2.0 * off) / 6.0)
    inv = 1.0 / np.where(p == 0.0, 1.0, p)
    d0, d1, d2, h01, h02, h12 = (x * inv for x in (d0, d1, d2, h01, h02, h12))
    det = (d0 * d1 * d2 + 2.0 * (h01 * h12 * h02.conj()).real
           - d0 * np.abs(h12) ** 2 - d1 * np.abs(h02) ** 2 - d2 * np.abs(h01) ** 2)
    r = np.clip(det / 2.0, -1.0, 1.0)
    lam = np.where(p == 0.0, q, q + 2.0 * p * np.cos(np.arccos(r) / 3.0))
    return c * np.sqrt(lam)


#: screened values within this relative band of the top one go to LAPACK;
#: about 200 times the screen's worst measured error
_SCREEN_BAND = 1e-6


def _max_singular_value(mats: np.ndarray) -> float:
    """Largest singular value over a (n, 3, 3) stack, as LAPACK's SVD gives it.

    The closed form screens the stack; the SVD confirms every matrix within
    _SCREEN_BAND of the screened maximum, which holds LAPACK's argmax, so the
    result equals the SVD of the whole stack bit for bit.  A non-finite
    screen sends every matrix to the SVD.
    """
    screen = _largest_singular_values(mats)
    near = ~(screen < (1.0 - _SCREEN_BAND) * screen.max())
    return np.linalg.svd(mats[near], compute_uv=False).max()


def resolvent_bound_sweep(j: int, lams, grid: TorusGrid) -> np.ndarray:
    """B(lambda) = max over grid modes of the largest singular value of M^(j)."""
    s = np.unique(grid.s_array().ravel())
    out = np.empty(len(lams))
    for i, lam in enumerate(lams):
        out[i] = _max_singular_value(_scaled_resolvent_from_s(j, s, complex(lam), *BLOCK))
    return out


# ---------------------------------------------------------------------------
# oracles

def laplace_transform_error(state: StateField, lam: complex, steps: int = 4096) -> float:
    """Relative energy-norm gap between int_0^T e^{-lam t} U(t) dt and the resolvent.

    The integral is a composite trapezoid rule over the batches of evolve_many,
    which evaluate and residue-check the propagator at every node,
    independently of the resolvent.  Re(lam) must be positive; the horizon
    T = 40/Re(lam) makes the tail truncation error negligible against
    quadrature error.
    """
    lam = complex(lam)
    if lam.real <= 0:
        raise ValueError("Laplace check needs Re(lambda) > 0")
    ts = np.linspace(0.0, 40.0 / lam.real, steps + 1)
    dt = ts[1] - ts[0]
    acc = [np.zeros(state.grid.shape, dtype=complex) for _ in range(3)]
    nodes = enumerate(ts)
    for fields, _ in _evolve_batches(state, ts):
        # node by node, in order, so every sum is formed as with per-node states
        for node, (i, t) in zip(zip(*fields), nodes):
            wgt = dt * np.exp(-lam * t) * (0.5 if i in (0, steps) else 1.0)
            for a, f in zip(acc, node):
                a += f.real * wgt
    ref = apply_resolvent(state, lam)
    gap = e_norm(state.grid, *[a - r for a, r in zip(acc, ref)])
    return gap / e_norm(state.grid, *ref)


def modal_decay_fit(grid: TorusGrid, k) -> dict:
    """Fit per-eigencomponent decay rates of one cosine mode, unit amplitudes.

    The coefficient triple at the chosen mode is expanded in the eigenbasis
    of A(xi0); each component decays like exp(-gamma_j s0 t), so the slopes
    of log|c_j(t)| recover -Re(gamma_j) * s0.  Rates come back sorted slowest
    first together with the eigenvalues of A(xi0).
    """
    k = tuple(np.atleast_1d(np.asarray(k, dtype=int)))
    state = cosine_mode_state(grid, k, (1.0, 1.0, 1.0))
    axes = grid.xi_axes()
    xi0 = np.array([axes[a][k[a]] for a in range(grid.dim)])
    s0 = float(np.dot(xi0, xi0))
    if s0 == 0.0:
        raise ValueError("the zero mode does not decay")
    w, V = np.linalg.eig(symbol_matrix(xi0))
    ts = np.linspace(1.0, 5.0, 12) / s0
    logs = np.empty((ts.size, 3))
    for i, (st, _) in enumerate(evolve_many(state, ts)):
        triple = _coefficients(st)[(slice(None),) + k]
        c = np.linalg.solve(V, triple)
        logs[i] = np.log(np.abs(c))
    slopes = np.polyfit(ts, logs, 1)[0]
    order = np.argsort(-slopes)
    return {
        "rates": slopes[order],
        "eigenvalues": w[order],
        "s0": s0,
        "slowest_rate": float(slopes[order][0]),
    }


# ---------------------------------------------------------------------------
# serialization

def save_state(path, state: StateField) -> None:
    """Write a state to the versioned binary layout (magic TPLT)."""
    g = state.grid
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, g.dim))
        fh.write(struct.pack(f"<{g.dim}I", *g.modes))
        fh.write(struct.pack(f"<{g.dim}d", *g.lengths))
        for f in state.fields():
            fh.write(np.ascontiguousarray(f, dtype="<f8").tobytes())


def load_state(path) -> StateField:
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ValueError("not a state file (bad magic)")
        version, dim = struct.unpack("<II", fh.read(8))
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported state format version {version}")
        if not 1 <= dim <= 2:
            raise ValueError(f"bad dimension {dim}")
        modes = struct.unpack(f"<{dim}I", fh.read(4 * dim))
        lengths = struct.unpack(f"<{dim}d", fh.read(8 * dim))
        grid = TorusGrid(tuple(modes), tuple(lengths))
        count = int(np.prod(modes))
        fields = []
        for _ in range(3):
            buf = fh.read(8 * count)
            if len(buf) != 8 * count:
                raise ValueError("truncated state file")
            fields.append(np.frombuffer(buf, dtype="<f8").reshape(grid.shape).copy())
        if fh.read(1):
            raise ValueError("trailing bytes in state file")
    return StateField(grid, *fields)
