"""Spectral evolution and resolvent application on periodic grids.

Everything runs in Fourier space with the unitary FFT convention, so
coefficient sums are Parseval-exact.  Frequencies on an M-point axis of
period L are xi_k = 2*pi*k/L with k in the standard FFT ordering.  The mode
matrix acting on the coefficient triple (u, v, theta)^ is

    A(xi) = [[0, 1, 0], [-s^2, 0, s], [0, -s, -s]],   s = |xi|^2,

whose eigenvalues are -gamma_j * s.  Its exponential is computed through the
constant matrix A1 = A(s=1): A(xi) = D (s A1) D^{-1} with D = diag(1, s, s),
so one eigendecomposition serves every mode.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .symbols import BLOCK, resolvent_matrices, symbol_matrix, _scaled_resolvent_from_s

MAGIC = b"TPLT"
FORMAT_VERSION = 1
IMAG_RESIDUE_TOL = 1e-10

_A1 = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, -1.0]])
_W1, _V1 = np.linalg.eig(_A1)
_V1INV = np.linalg.inv(_V1)


class NumericalError(RuntimeError):
    """A spectral computation left the accuracy envelope it promised."""


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
        if min(self.lengths) <= 0.0:
            raise ValueError("axis lengths must be positive")

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


def zero_state(grid: TorusGrid) -> StateField:
    z = np.zeros(grid.shape)
    return StateField(grid, z, z.copy(), z.copy())


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


def random_state(grid: TorusGrid, rng, decay: float = 2.0) -> StateField:
    """Random smooth state with spectrally decaying coefficients."""
    damp = (1.0 + grid.s_array()) ** (-decay)
    fields = []
    for _ in range(3):
        coeff = np.fft.fftn(rng.standard_normal(grid.shape), norm="ortho")
        fields.append(np.fft.ifftn(coeff * damp, norm="ortho").real)
    return StateField(grid, *fields)


# ---------------------------------------------------------------------------
# mode propagators

def _mode_propagators(s_flat: np.ndarray, t: float) -> np.ndarray:
    """exp(t A(xi)) for every s in the flat array; shape (n, 3, 3)."""
    zero = s_flat == 0.0
    d = np.where(zero, 1.0, s_flat)
    E = np.exp(np.multiply.outer(s_flat * t, _W1))
    core = np.einsum("ij,nj,jk->nik", _V1, E, _V1INV)
    D = np.stack([np.ones_like(d), d, d], axis=1)
    out = core * D[:, :, None] / D[:, None, :]
    if np.any(zero):
        # s = 0 is nilpotent: exp(t A(0)) = I + t A(0)
        flat = np.broadcast_to(np.eye(3, dtype=complex), (int(zero.sum()), 3, 3)).copy()
        flat[:, 0, 1] = t
        out[zero] = flat
    return out


def mode_exponential(xi, t: float) -> np.ndarray:
    """exp(t A(xi)) for a single frequency (scalar modulus or vector)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    s = float(np.dot(xi, xi)) if xi.ndim == 1 else float(xi)
    return _mode_propagators(np.array([s]), t)[0]


def _coefficients(state: StateField) -> np.ndarray:
    return np.stack([np.fft.fftn(f, norm="ortho") for f in state.fields()])


def evolve(state: StateField, t: float) -> tuple:
    """Propagate a state by time t >= 0; returns (state, imaginary residue).

    The result of a real initial state is real up to rounding; the relative
    imaginary residue is measured, checked against 1e-10, and truncated.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    g = state.grid
    U = _coefficients(state).reshape(3, -1)
    P = _mode_propagators(g.s_array().ravel(), t)
    out = np.einsum("nij,jn->in", P, U)
    fields = [np.fft.ifftn(row.reshape(g.shape), norm="ortho") for row in out]
    scale = max(max(np.abs(f.real).max() for f in fields), 1.0)
    residue = max(np.abs(f.imag).max() for f in fields) / scale
    if residue > IMAG_RESIDUE_TOL:
        raise NumericalError(f"imaginary residue {residue:.3e} exceeds {IMAG_RESIDUE_TOL}")
    return StateField(g, *[f.real.copy() for f in fields]), residue


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
    """Energy norm: H^{2+j} on u, H^j on v and theta, via Parseval."""
    total = (
        sobolev_norm(grid, u, 2 + j) ** 2
        + sobolev_norm(grid, v, j) ** 2
        + sobolev_norm(grid, theta, j) ** 2
    )
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# resolvent bound sweeps

def resolvent_bound_sweep(j: int, lams, grid: TorusGrid) -> np.ndarray:
    """B(lambda) = max over grid modes of the largest singular value of M^(j)."""
    s = np.unique(grid.s_array().ravel())
    out = np.empty(len(lams))
    for i, lam in enumerate(lams):
        mats = _scaled_resolvent_from_s(j, s, complex(lam), *BLOCK)
        out[i] = np.linalg.svd(mats, compute_uv=False).max()
    return out


# ---------------------------------------------------------------------------
# oracles

def laplace_transform_error(state: StateField, lam: complex, steps: int = 4096,
                            horizon: float | None = None) -> float:
    """Relative energy-norm gap between int_0^T e^{-lam t} U(t) dt and the resolvent.

    The integral uses a composite trapezoid rule with honest evolve calls at
    every node, so the check exercises the propagator and the resolvent
    independently.  Re(lam) must be positive; the default horizon makes the
    tail truncation error negligible against quadrature error.
    """
    lam = complex(lam)
    if lam.real <= 0:
        raise ValueError("Laplace check needs Re(lambda) > 0")
    if horizon is None:
        horizon = 40.0 / lam.real
    ts = np.linspace(0.0, horizon, steps + 1)
    dt = ts[1] - ts[0]
    acc = [np.zeros(state.grid.shape, dtype=complex) for _ in range(3)]
    for i, t in enumerate(ts):
        st, _ = evolve(state, float(t))
        wgt = dt * np.exp(-lam * t) * (0.5 if i in (0, steps) else 1.0)
        for a, f in zip(acc, st.fields()):
            a += wgt * f
    ref = apply_resolvent(state, lam)
    gap = e_norm(state.grid, *[a - r for a, r in zip(acc, ref)])
    return gap / e_norm(state.grid, *ref)


def modal_decay_fit(grid: TorusGrid, k, amplitudes=(1.0, 1.0, 1.0),
                    samples: int = 12) -> dict:
    """Fit per-eigencomponent decay rates of one cosine mode.

    The coefficient triple at the chosen mode is expanded in the eigenbasis
    of A(xi0); each component decays like exp(-gamma_j s0 t), so the slopes
    of log|c_j(t)| recover -Re(gamma_j) * s0.  Rates come back sorted slowest
    first together with the eigenvalues of A(xi0).
    """
    k = tuple(np.atleast_1d(np.asarray(k, dtype=int)))
    state = cosine_mode_state(grid, k, amplitudes)
    axes = grid.xi_axes()
    xi0 = np.array([axes[a][k[a]] for a in range(grid.dim)])
    s0 = float(np.dot(xi0, xi0))
    if s0 == 0.0:
        raise ValueError("the zero mode does not decay")
    w, V = np.linalg.eig(symbol_matrix(xi0))
    ts = np.linspace(1.0, 5.0, samples) / s0
    logs = np.empty((samples, 3))
    for i, t in enumerate(ts):
        st, _ = evolve(state, float(t))
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
