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
exactly I + t A(0).  The fields are real, so every forward transform is an
rfftn onto the half spectrum (modes 0..M/2 of the last axis), and the grid's
one mode table, distinct_s, gives each of its modes a distinct s.
evolve_many transforms each field once and applies each distinct s, for a
batch of times at once, to every half-spectrum mode sharing it, each
propagator entry gathered from one contiguous (batch, distinct s) block.
Exact Hermitian completion, X[-k] = conj(X[k]), fills the other half, and a
complex ifftn inverts each field in place in one buffer that every field and
batch reuses; its real part goes to a fresh real batch, whose nodes are views
of it.  The imaginary residue thus measures the rounding of the inverse
transform and of the self-conjugate columns 0 and M/2, which rfftn makes
Hermitian only to rounding; an irfftn would discard it unseen.  The Laplace
oracle reads those real batches directly, with no per-node state.  The
resolvent, the norms and random_state read the half spectrum too, the
weights cached per grid and order.

resolvent_bound_sweep sends to LAPACK's SVD only the 3x3 matrices whose
largest |entry| reaches a third of the stack's largest, since
max|m_ij| <= sigma_max <= 3 max|m_ij|; its bounds are the SVD's, bit for bit.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from functools import cached_property

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
#: mode-times per batch of evolve_many; bounds its working set, never its results:
#: 16 bytes per mode-time in the complex buffer, 24 in each yielded real batch
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

    @property
    def half_shape(self) -> tuple:
        """Shape of the rfftn half spectrum: the last axis keeps modes 0..M/2."""
        return self.shape[:-1] + (self.modes[-1] // 2 + 1,)

    @cached_property
    def half_s(self) -> np.ndarray:
        """|xi|^2 on the half spectrum, in half_shape, read-only, built once."""
        s = self.distinct_s[0][self.distinct_s[1]].reshape(self.half_shape)
        s.flags.writeable = False
        return s

    def sobolev_weights(self, order: float) -> np.ndarray:
        """(1+|xi|^2)^order on the half spectrum, inner last-axis columns doubled for
        their conjugates; read-only, built once per order."""
        w = self._sobolev_weights.get(order)
        if w is None:
            w = (1.0 + self.half_s) ** order
            w[..., 1:-1] *= 2.0
            w.flags.writeable = False
            self._sobolev_weights[order] = w
        return w

    @cached_property
    def _sobolev_weights(self) -> dict:
        return {}

    @cached_property
    def distinct_s(self) -> tuple:
        """(distinct s ascending, each half-spectrum mode's index into them), read-only."""
        # s is even in each xi_d and fftfreq's -k is exactly -(k): np.unique runs over the
        # modes of index <= M/2 per axis, the last axis's half; mode i of a first axis
        # reads index min(i, M - i)
        quarter = sum(np.ix_(*(a[: m // 2 + 1] ** 2 for a, m in zip(self.xi_axes(), self.modes))))
        s, inverse = np.unique(quarter.ravel(), return_inverse=True)
        fold = tuple(np.minimum(np.arange(m), m - np.arange(m)) for m in self.modes[:-1])
        inverse = inverse.reshape(quarter.shape)[fold].ravel()
        s.flags.writeable = inverse.flags.writeable = False
        return s, inverse

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
    # one phase per axis, broadcast over the grid and summed
    c = np.cos(sum(np.ix_(*[2.0 * np.pi * kk * x / length
                            for kk, x, length in zip(k, grid.points(), grid.lengths)])))
    au, av, at = amplitudes
    return StateField(grid, au * c, av * c, at * c)


def random_state(grid: TorusGrid, rng) -> StateField:
    """Random smooth real state, coefficients damped by (1 + |xi|^2)^-2 on the half spectrum."""
    damp = (1.0 + grid.half_s) ** -2.0
    return StateField(grid, *[
        np.fft.irfftn(np.fft.rfftn(rng.standard_normal(grid.shape), norm="ortho") * damp,
                      s=grid.shape, axes=tuple(range(grid.dim)), norm="ortho") for _ in range(3)])


# ---------------------------------------------------------------------------
# mode propagators

def _exp_tau_a1(tau: np.ndarray) -> np.ndarray:
    """exp(tau A1) for a flat array of tau >= 0; shape (n, 3, 3).

    The closed form fills every entry in place; the Taylor series then
    overwrites the tau below the cut."""
    col = tau[:, None, None]
    mag = np.exp(_W_PAIR.real * col)
    term = np.empty(tau.shape + (3, 3))
    out = np.multiply(np.exp(_W_REAL * col), _R_REAL, out=np.empty_like(term))
    out += np.multiply(mag * np.cos(_W_PAIR.imag * col), _P_PAIR, out=term)
    out -= np.multiply(mag * np.sin(_W_PAIR.imag * col), _Q_PAIR, out=term)
    small = tau < _TAYLOR_CUT
    ts = tau[small][:, None, None]
    acc = np.multiply(ts, _TAYLOR[-1])
    for coef in _TAYLOR[-2:0:-1]:
        acc += coef
        acc *= ts
    acc += _TAYLOR[0]
    out[small] = acc
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


def _half_spectrum(state: StateField) -> np.ndarray:
    """The unitary rfftn half spectra of the three fields, shape (3,) + half_shape."""
    out = np.empty((3,) + state.grid.half_shape, dtype=complex)
    for row, f in zip(out, state.fields()):
        np.fft.rfftn(f, norm="ortho", out=row)
    return out


def _complete_hermitian(full: np.ndarray) -> np.ndarray:
    """Fill a (batch,) + grid spectrum from its half spectrum, in place.

    The last axis holds modes 0..M/2; each mode k beyond is conj(X[-k]), with
    -k taken modulo M per axis, read through reversed slices (on the first
    axis of a 2-D grid, row 0 and then rows M-1..1).  The self-conjugate
    columns 0 and M/2 are left as they are.
    """
    h = full.shape[-1] // 2
    src, dst = full[..., h - 1:0:-1], full[..., h + 1:]
    if full.ndim == 2:
        np.conjugate(src, out=dst)
    else:
        np.conjugate(src[:, :1], out=dst[:, :1])
        np.conjugate(src[:, :0:-1], out=dst[:, 1:])
    return full


def _evolve_batches(state: StateField, ts):
    """Yield (batch, residues) for each batch of times in ts, in order.

    batch is a fresh real (3, n) + grid array, fields u, v, theta of n nodes,
    copied out of one complex (n,) + grid buffer that every field reuses;
    residues holds each node's relative imaginary residue, its maxima taken
    before the buffer is reused.  A batch with a residue above
    IMAG_RESIDUE_TOL raises NumericalError before it is yielded.
    """
    ts = np.asarray(ts, dtype=float).ravel()
    g = state.grid
    s, inverse = g.distinct_s
    bad = [t for t in ts.tolist() if not (t >= 0.0 and t * float(s[-1]) < math.inf)]
    if bad:
        raise ValueError(f"time must be >= 0 with t max|xi|^2 finite, got {bad[0]!r}")
    U = _half_spectrum(state)
    step = max(1, _BATCH_MODE_TIMES // math.prod(g.shape))
    axes = tuple(range(1, g.dim + 1))
    shape = (min(step, ts.size),) + g.half_shape
    entry = np.empty(shape)
    product, acc = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    for lo in range(0, ts.size, step):
        batch = None  # release the previous batch before building the next
        # entry-major (3, 3, batch, distinct s): each entry gathers from one
        # contiguous block into a C-contiguous (batch,) + half-shape array
        P = np.ascontiguousarray(np.moveaxis(_distinct_propagators(s, ts[lo:lo + step]),
                                             (2, 3), (0, 1)))
        n = P.shape[2]
        if lo == 0:  # after the first build, clear of its transient copy
            full = np.empty(shape[:1] + g.shape, dtype=complex)
        gathered, term, total, spectrum = entry[:n], product[:n], acc[:n], full[:n]
        flat = gathered.reshape(n, -1)
        batch = np.empty((3, n) + g.shape)
        real, imag = np.zeros(n), np.zeros(n)
        for i in range(3):
            # P[i, 0] U0 + P[i, 1] U1 + P[i, 2] U2, in that order ("clip": unbuffered),
            # summed in contiguous buffers (summing in the strided half of full made
            # the 16x16 Laplace oracle about 8 % slower); the last lands in the buffer
            np.take(P[i, 0], inverse, axis=1, out=flat, mode="clip")
            np.multiply(gathered, U[0], out=total)
            np.take(P[i, 1], inverse, axis=1, out=flat, mode="clip")
            total += np.multiply(gathered, U[1], out=term)
            np.take(P[i, 2], inverse, axis=1, out=flat, mode="clip")
            np.add(total, np.multiply(gathered, U[2], out=term), out=spectrum[..., :shape[-1]])
            np.fft.ifftn(_complete_hermitian(spectrum), axes=axes, norm="ortho", out=spectrum)
            np.copyto(batch[i], spectrum.real)
            np.maximum(real, np.abs(batch[i]).reshape(n, -1).max(axis=1), out=real)
            np.maximum(imag, np.abs(spectrum.imag).reshape(n, -1).max(axis=1), out=imag)
        residues = imag / np.maximum(real, 1.0)
        for residue in residues:
            if residue > IMAG_RESIDUE_TOL:
                raise NumericalError(f"imaginary residue {residue:.3e} exceeds {IMAG_RESIDUE_TOL}")
        yield batch, residues


def evolve_many(state: StateField, ts):
    """Yield (state, imaginary residue) for each time t >= 0 in ts, in order.

    One forward transform and the grid's distinct-s table serve every time; batches of
    times share one propagator build and one inverse transform per field.  A
    real initial state gives a real result up to rounding: each node's relative
    imaginary residue is checked against IMAG_RESIDUE_TOL, then truncated.  A held
    node views, and keeps alive, its whole batch: 24 bytes per mode-time, at most
    _BATCH_MODE_TIMES * 24 bytes, or a single node when one node exceeds that budget.
    """
    for batch, residues in _evolve_batches(state, ts):
        for b, residue in enumerate(residues):
            yield StateField(state.grid, *batch[:, b]), residue
        del batch  # release the batch before the next one is built


def evolve(state: StateField, t: float) -> tuple:
    """Propagate a state by time t >= 0: the one node of evolve_many(state, [t])."""
    return next(evolve_many(state, [t]))


def apply_resolvent(state: StateField, lam: complex) -> tuple:
    """(lambda - A)^{-1} state, mode by mode, as three complex fields (u, v, theta).

    R, formed per distinct |xi|^2 and gathered to the half spectrum U, is even in
    xi, so Re R U and Im R U are Hermitian: one batched irfftn inverts the six.
    Raises SingularParameterError when lambda hits an eigenvalue of some grid
    mode (the message names the offending |xi|^2).
    """
    g = state.grid
    R = resolvent_matrices(g.distinct_s[0], lam)
    RU = np.einsum("nkij,jn->kin", np.stack((R.real, R.imag), axis=1)[g.distinct_s[1]],
                   _half_spectrum(state).reshape(3, -1)).reshape((6,) + g.half_shape)
    out = np.fft.irfftn(RU, s=g.shape, axes=tuple(range(1, g.dim + 1)), norm="ortho")
    return tuple(out[:3] + 1j * out[3:])


def sobolev_norm(grid: TorusGrid, field, order: float) -> float:
    """H^order norm, weights (1+|xi|^2)^order over the unitary rfftn half spectrum, whose
    inner last-axis columns count twice; a complex field adds its real and imaginary parts."""
    w = grid.sobolev_weights(order)
    parts = (field.real, field.imag) if np.iscomplexobj(field) else (field,)
    return float(np.sqrt(sum(np.sum(w * np.abs(np.fft.rfftn(p, norm="ortho")) ** 2)
                             for p in parts)))


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

def _max_singular_value(mats: np.ndarray) -> float:
    """Largest singular value over a (n, 3, 3) stack, as LAPACK's SVD gives it.

    A 3x3 M has max|m_ij| <= sigma_max(M) <= ||M||_F <= 3 max|m_ij|, so a
    matrix whose largest |entry| is below a third of the stack's largest
    cannot hold the maximum; the SVD runs on the rest (1e-12 covers rounding),
    and the result equals the SVD of the whole stack bit for bit.  A NaN
    sends every matrix to the SVD.
    """
    top = np.abs(mats).max(axis=(1, 2))
    keep = ~(top < (1.0 - 1e-12) / 3.0 * top.max())
    return np.linalg.svd(mats[keep], compute_uv=False).max()


def resolvent_bound_sweep(j: int, lams, grid: TorusGrid) -> np.ndarray:
    """B(lambda) = max over grid modes of the largest singular value of M^(j)."""
    s = grid.distinct_s[0]
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
    if not (isinstance(steps, (int, np.integer)) and steps >= 1):
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise ValueError(f"Laplace check needs a finite lambda, got {lam!r}")
    if lam.real <= 0:
        raise ValueError("Laplace check needs Re(lambda) > 0")
    ts = np.linspace(0.0, 40.0 / lam.real, steps + 1)
    dt = ts[1] - ts[0]
    wgts = dt * np.exp(-lam * ts)
    wgts[[0, -1]] *= 0.5
    acc = [np.zeros(state.grid.shape, dtype=complex) for _ in range(3)]
    lo = 0
    for batch, residues in _evolve_batches(state, ts):
        w = wgts[lo:lo + len(residues)].reshape((-1,) + (1,) * state.grid.dim)
        lo += len(residues)
        # row 0 holds the running sum: reducing over axis 0 adds node by node, in
        # order, so every sum is formed as with per-node states
        stack = np.empty((len(w) + 1,) + state.grid.shape, dtype=complex)
        for a, f in zip(acc, batch):
            stack[0] = a
            np.multiply(f, w, out=stack[1:])
            np.add.reduce(stack, axis=0, out=a)
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
    # the half spectrum holds k, or else -k: a cosine mode's coefficients are even
    at = np.mod(k, grid.modes)
    at = tuple(at if at[-1] <= grid.modes[-1] // 2 else np.mod(-at, grid.modes))
    for i, (st, _) in enumerate(evolve_many(state, ts)):
        triple = _half_spectrum(st)[(slice(None),) + at]
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
            fh.write(memoryview(np.ascontiguousarray(f, dtype="<f8")))


def _read_exact(fh, size: int) -> bytes:
    buf = fh.read(size)
    if len(buf) != size:
        raise ValueError("truncated state file")
    return buf


def load_state(path) -> StateField:
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ValueError("not a state file (bad magic)")
        version, dim = struct.unpack("<II", _read_exact(fh, 8))
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported state format version {version}")
        if not 1 <= dim <= 2:
            raise ValueError(f"bad dimension {dim}")
        modes = struct.unpack(f"<{dim}I", _read_exact(fh, 4 * dim))
        lengths = struct.unpack(f"<{dim}d", _read_exact(fh, 8 * dim))
        grid = TorusGrid(tuple(modes), tuple(lengths))
        count = int(np.prod(modes))
        fields = []
        for _ in range(3):
            buf = _read_exact(fh, 8 * count)
            fields.append(np.frombuffer(buf, dtype="<f8").reshape(grid.shape).copy())
        if fh.read(1):
            raise ValueError("trailing bytes in state file")
    return StateField(grid, *fields)
