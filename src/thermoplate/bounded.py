"""Finite-difference plate generators on an interval and a rectangle.

The block system is u' = v, v' = -lap^2 u - lap theta, theta' = lap theta
+ lap v on cell-centered grids (M cells per axis, centers at a + (i+1/2)h).
Boundary conditions sit on the faces and are eliminated through ghost
layers: two for u, one for theta.  Free edges impose

    (i)   u_nn + c u_tt + theta = 0
    (ii)  u_nnn + (2 - c) u_ntt = 0
    (iii) theta_n = 0

with c the flexural coupling coefficient (beta on intervals, mu on
rectangles; tangential terms vanish in 1D).  The damped variant keeps (i),
adds the boundary feedback u + b theta to (ii) through the theta-flux
substitution, and turns (iii) into the Robin condition theta_n + b theta = 0.
Rectangle corner ghosts are closed by second-order diagonal extrapolation in
the zero-cross-difference form u(gc) = u(gx) + u(gy) - u(cc), which is exact
on quadratics and keeps the assembled operator stable; corner cells sit
outside the smooth-boundary theory and results there carry that caveat.

Interior stencils are the centered five-point (1D) and thirteen-point (2D)
biharmonic and the centered three/five-point Laplacian; lap v falls back to
one-sided second-order rows at the first and last cell off each edge since
v carries no boundary condition of its own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .torus import NumericalError

MACHINE_EPS = np.finfo(float).eps
ZERO_TOL_FACTOR = 1e-6
#: singular values at most this multiple of sigma_max count as kernel
KERNEL_SV_FACTOR = 10.0
PAIRING_CONDITION_LIMIT = 1e10
IDEMPOTENCY_TOL = 1e-8
UNSTABLE_FACTOR = 10.0
MAX_DENSE_SIZE = 20000
MIN_CELLS = 8


class AssemblyError(ValueError):
    """The requested generator cannot be assembled as specified."""


@dataclass(frozen=True)
class DomainSpec:
    """Interval (a,b) or axis-aligned rectangle (ax,bx) x (ay,by)."""

    bounds: tuple

    def __post_init__(self):
        if not 1 <= len(self.bounds) <= 2:
            raise ValueError("domains are intervals or rectangles")
        for a, b in self.bounds:
            if not b > a:
                raise ValueError(f"degenerate extent ({a}, {b})")

    @property
    def dim(self) -> int:
        return len(self.bounds)


def interval(a: float = 0.0, b: float = 1.0) -> DomainSpec:
    return DomainSpec(((float(a), float(b)),))


def rectangle(ax: float = 0.0, bx: float = 1.0, ay: float = 0.0,
              by: float = 1.0) -> DomainSpec:
    return DomainSpec(((float(ax), float(bx)), (float(ay), float(by))))


@dataclass(frozen=True)
class BCVariant:
    """Free plate edges or the damped variant with boundary feedback."""

    tag: str = "free_beta"
    beta: float = 0.5
    mu: float = 0.3
    b: float = 1.0

    def __post_init__(self):
        if self.tag not in ("free_beta", "free_2d", "lt_variant"):
            raise ValueError(f"unknown boundary variant {self.tag!r}")
        if self.tag == "lt_variant" and not self.b > 0.0:
            raise ValueError("the damped variant requires b > 0")

    @property
    def coefficient(self) -> float:
        return self.beta if self.tag == "free_beta" else self.mu

    @property
    def damped(self) -> bool:
        return self.tag == "lt_variant"


def free_beta(beta: float = 0.5) -> BCVariant:
    return BCVariant("free_beta", beta=beta)


def free_2d(mu: float = 0.3) -> BCVariant:
    return BCVariant("free_2d", mu=mu)


def lt_variant(mu: float = 0.3, b: float = 1.0) -> BCVariant:
    return BCVariant("lt_variant", mu=mu, b=b)


STENCIL_NOTES = (
    "state ordering (u cells, v cells, theta cells), cells row-major; "
    "rows 0..M-1: u' = v; rows M..2M-1: v' = -lap^2 u - lap theta; "
    "rows 2M..3M-1: theta' = lap theta + lap v; centered 5/13-point lap^2, "
    "centered lap theta, one-sided lap v at edge cells; ghosts eliminated"
)


@dataclass
class DiscreteGenerator:
    domain: DomainSpec
    bc: BCVariant
    cells: tuple
    matrix: np.ndarray
    centers: tuple
    steps: tuple
    ghost_condition: float
    stencil_notes: str = STENCIL_NOTES

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.cells))

    @property
    def state_size(self) -> int:
        return 3 * self.n_cells

    def cell_mesh(self) -> tuple:
        """Raveled cell-center coordinate arrays, one per axis."""
        if self.domain.dim == 1:
            return (self.centers[0].copy(),)
        X, Y = np.meshgrid(self.centers[0], self.centers[1], indexing="ij")
        return X.ravel(), Y.ravel()

    def pack(self, u, v, theta) -> np.ndarray:
        return np.concatenate([np.ravel(u), np.ravel(v), np.ravel(theta)])

    def unpack(self, state: np.ndarray) -> tuple:
        m = self.n_cells
        return state[:m], state[m:2 * m], state[2 * m:]


# ---------------------------------------------------------------------------
# assembly

def assemble_generator(domain: DomainSpec, grid_points, bc: BCVariant) -> DiscreteGenerator:
    cells = tuple(int(m) for m in np.atleast_1d(grid_points))
    if len(cells) == 1 and domain.dim == 2:
        cells = (cells[0], cells[0])
    if len(cells) != domain.dim:
        raise AssemblyError("grid_points do not match the domain dimension")
    if min(cells) < MIN_CELLS:
        raise AssemblyError(f"need at least {MIN_CELLS} cells per axis")
    if domain.dim == 1 and bc.tag != "free_beta":
        raise AssemblyError(f"{bc.tag} requires a rectangle domain")
    if domain.dim == 1:
        matrix, centers, steps, cond = _assemble_1d(domain, cells, bc)
    else:
        matrix, centers, steps, cond = _assemble_2d(domain, cells, bc)
    if not np.all(np.isfinite(matrix)):
        raise AssemblyError("non-finite entries after ghost elimination")
    return DiscreteGenerator(domain, bc, cells, matrix, centers, steps, cond)


def _ghost_solve(Eg: np.ndarray, Ei: np.ndarray) -> tuple:
    """Express ghost values as linear maps of interior unknowns."""
    try:
        T = np.linalg.solve(Eg, -Ei)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError(f"singular ghost-elimination system: {exc}") from exc
    return T, float(np.linalg.cond(Eg))


def _assemble_1d(domain: DomainSpec, cells: tuple, bc: BCVariant) -> tuple:
    (a, b), = domain.bounds
    (M,) = cells
    h = (b - a) / M
    # ghost unknowns, lexicographic: u(-1), u(-2), u(M), u(M+1), th(-1), th(M)
    UL1, UL2, UR1, UR2, TL, TR = range(6)
    Eg = np.zeros((6, 6))
    Ei = np.zeros((6, 2 * M))
    # left face, row (i) scaled by 2h^2: u1 - u0 - u(-1) + u(-2) + h^2 (th0 + th(-1)) = 0
    Eg[0, UL1] = -1.0
    Eg[0, UL2] = 1.0
    Ei[0, 1] += 1.0
    Ei[0, 0] += -1.0
    Ei[0, M] += h * h
    Eg[0, TL] += h * h
    # left row (ii) scaled by h^3: u1 - 3 u0 + 3 u(-1) - u(-2) = 0
    Eg[1, UL1] = 3.0
    Eg[1, UL2] = -1.0
    Ei[1, 1] += 1.0
    Ei[1, 0] += -3.0
    # left row (iii): th(-1) = th0
    Eg[2, TL] = 1.0
    Ei[2, M] = -1.0
    # right face, mirrored
    Eg[3, UR1] = -1.0
    Eg[3, UR2] = 1.0
    Ei[3, M - 2] += 1.0
    Ei[3, M - 1] += -1.0
    Ei[3, 2 * M - 1] += h * h
    Eg[3, TR] += h * h
    Eg[4, UR1] = -3.0
    Eg[4, UR2] = 1.0
    Ei[4, M - 1] += 3.0
    Ei[4, M - 2] += -1.0
    Eg[5, TR] = 1.0
    Ei[5, 2 * M - 1] = -1.0
    T, cond = _ghost_solve(Eg, Ei)
    ghost_u = {-1: UL1, -2: UL2, M: UR1, M + 1: UR2}
    ghost_t = {-1: TL, M: TR}

    def urow(i):
        out = np.zeros(2 * M)
        if 0 <= i < M:
            out[i] = 1.0
        else:
            out[:] = T[ghost_u[i]]
        return out

    def trow(i):
        out = np.zeros(2 * M)
        if 0 <= i < M:
            out[M + i] = 1.0
        else:
            out[:] = T[ghost_t[i]]
        return out

    D4 = np.zeros((M, 2 * M))
    D2t = np.zeros((M, 2 * M))
    Lv = np.zeros((M, M))
    for i in range(M):
        for d, w in ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)):
            D4[i] += w / h ** 4 * urow(i + d)
        for d, w in ((-1, 1.0), (0, -2.0), (1, 1.0)):
            D2t[i] += w / h ** 2 * trow(i + d)
        if i == 0:
            for d, w in ((0, 2.0), (1, -5.0), (2, 4.0), (3, -1.0)):
                Lv[i, i + d] += w / h ** 2
        elif i == M - 1:
            for d, w in ((0, 2.0), (-1, -5.0), (-2, 4.0), (-3, -1.0)):
                Lv[i, i + d] += w / h ** 2
        else:
            for d, w in ((-1, 1.0), (0, -2.0), (1, 1.0)):
                Lv[i, i + d] += w / h ** 2
    matrix = _block_generator(D4, D2t, Lv, M)
    centers = (a + (np.arange(M) + 0.5) * h,)
    return matrix, centers, (h,), cond


def _assemble_2d(domain: DomainSpec, cells: tuple, bc: BCVariant) -> tuple:
    (ax, bx), (ay, by) = domain.bounds
    Mx, My = cells
    hx = (bx - ax) / Mx
    hy = (by - ay) / My
    M = Mx * My
    c = bc.coefficient
    damped = bc.damped
    rob = bc.b

    def iidx(i, j):
        return i * My + j

    # ghost enumerations: u gets two layers per edge plus the four corner
    # ghosts of the first layer; theta gets one layer per edge
    ug = {}
    for j in range(My):
        for i in (-1, -2, Mx, Mx + 1):
            ug[(i, j)] = len(ug)
    for i in range(Mx):
        for j in (-1, -2, My, My + 1):
            ug[(i, j)] = len(ug)
    for cidx in ((-1, -1), (Mx, -1), (-1, My), (Mx, My)):
        ug[cidx] = len(ug)
    tg = {}
    for j in range(My):
        tg[(-1, j)] = len(tg)
        tg[(Mx, j)] = len(tg)
    for i in range(Mx):
        tg[(i, -1)] = len(tg)
        tg[(i, My)] = len(tg)

    NU = len(ug)
    G = NU + len(tg)
    Eg = np.zeros((G, G))
    Ei = np.zeros((G, 2 * M))
    row = 0

    def add_u(r, i, j, w):
        if 0 <= i < Mx and 0 <= j < My:
            Ei[r, iidx(i, j)] += w
        else:
            Eg[r, ug[(i, j)]] += w

    def add_t(r, i, j, w):
        if 0 <= i < Mx and 0 <= j < My:
            Ei[r, M + iidx(i, j)] += w
        else:
            Eg[r, NU + tg[(i, j)]] += w

    # edges with normal along x; rows scaled by 2 hn^2, hn^3, hn to keep the
    # ghost system O(1)-conditioned
    for side in ("L", "R"):
        nu = -1.0 if side == "L" else 1.0
        for j in range(My):
            if side == "L":
                c1, c0, g1, g2 = (1, j), (0, j), (-1, j), (-2, j)
            else:
                c1, c0, g1, g2 = (Mx - 2, j), (Mx - 1, j), (Mx, j), (Mx + 1, j)
            # (i) u_nn + c u_tt + theta = 0 at the face
            r = row
            row += 1
            add_u(r, *c1, 1.0)
            add_u(r, *c0, -1.0)
            add_u(r, *g1, -1.0)
            add_u(r, *g2, 1.0)
            for dj, w in ((-1, 1.0), (0, -2.0), (1, 1.0)):
                cf = c * w * (hx * hx) / (hy * hy)
                add_u(r, c0[0], j + dj, cf)
                add_u(r, g1[0], j + dj, cf)
            add_t(r, *c0, hx * hx)
            add_t(r, *g1, hx * hx)
            # (ii) u_nnn + (2-c) u_ntt = 0, oriented along increasing x;
            # the damped variant moves nu*(u + b theta) to the left side
            r = row
            row += 1
            if side == "L":
                add_u(r, *c1, 1.0)
                add_u(r, *c0, -3.0)
                add_u(r, *g1, 3.0)
                add_u(r, *g2, -1.0)
                fpos, fneg = c0, g1
            else:
                add_u(r, *g2, 1.0)
                add_u(r, *g1, -3.0)
                add_u(r, *c0, 3.0)
                add_u(r, *c1, -1.0)
                fpos, fneg = g1, c0
            for (fi, fj), sgn in ((fpos, 1.0), (fneg, -1.0)):
                for dj, w in ((-1, 1.0), (0, -2.0), (1, 1.0)):
                    add_u(r, fi, fj + dj, (2.0 - c) * sgn * w * (hx * hx) / (hy * hy))
            if damped:
                for fi, fj in (c0, g1):
                    add_u(r, fi, fj, -nu * 0.5 * hx ** 3)
                    add_t(r, fi, fj, -nu * rob * 0.5 * hx ** 3)
            # (iii) theta flux
            r = row
            row += 1
            if damped:
                add_t(r, *g1, 1.0 + 0.5 * rob * hx)
                add_t(r, *c0, -(1.0 - 0.5 * rob * hx))
            else:
                add_t(r, *g1, 1.0)
                add_t(r, *c0, -1.0)

    for side in ("B", "T"):
        nu = -1.0 if side == "B" else 1.0
        for i in range(Mx):
            if side == "B":
                c1, c0, g1, g2 = (i, 1), (i, 0), (i, -1), (i, -2)
            else:
                c1, c0, g1, g2 = (i, My - 2), (i, My - 1), (i, My), (i, My + 1)
            r = row
            row += 1
            add_u(r, *c1, 1.0)
            add_u(r, *c0, -1.0)
            add_u(r, *g1, -1.0)
            add_u(r, *g2, 1.0)
            for di, w in ((-1, 1.0), (0, -2.0), (1, 1.0)):
                cf = c * w * (hy * hy) / (hx * hx)
                add_u(r, i + di, c0[1], cf)
                add_u(r, i + di, g1[1], cf)
            add_t(r, *c0, hy * hy)
            add_t(r, *g1, hy * hy)
            r = row
            row += 1
            if side == "B":
                add_u(r, *c1, 1.0)
                add_u(r, *c0, -3.0)
                add_u(r, *g1, 3.0)
                add_u(r, *g2, -1.0)
                fpos, fneg = c0, g1
            else:
                add_u(r, *g2, 1.0)
                add_u(r, *g1, -3.0)
                add_u(r, *c0, 3.0)
                add_u(r, *c1, -1.0)
                fpos, fneg = g1, c0
            for (fi, fj), sgn in ((fpos, 1.0), (fneg, -1.0)):
                for di, w in ((-1, 1.0), (0, -2.0), (1, 1.0)):
                    add_u(r, fi + di, fj, (2.0 - c) * sgn * w * (hy * hy) / (hx * hx))
            if damped:
                for fi, fj in (c0, g1):
                    add_u(r, fi, fj, -nu * 0.5 * hy ** 3)
                    add_t(r, fi, fj, -nu * rob * 0.5 * hy ** 3)
            r = row
            row += 1
            if damped:
                add_t(r, *g1, 1.0 + 0.5 * rob * hy)
                add_t(r, *c0, -(1.0 - 0.5 * rob * hy))
            else:
                add_t(r, *g1, 1.0)
                add_t(r, *c0, -1.0)

    # corner ghosts: zero cross-difference closure, exact on quadratics
    for gc, e1, e2, cc in (
        ((-1, -1), (-1, 0), (0, -1), (0, 0)),
        ((Mx, -1), (Mx, 0), (Mx - 1, -1), (Mx - 1, 0)),
        ((-1, My), (-1, My - 1), (0, My), (0, My - 1)),
        ((Mx, My), (Mx, My - 1), (Mx - 1, My), (Mx - 1, My - 1)),
    ):
        r = row
        row += 1
        add_u(r, *gc, 1.0)
        add_u(r, *e1, -1.0)
        add_u(r, *e2, -1.0)
        add_u(r, *cc, 1.0)

    assert row == G
    T, cond = _ghost_solve(Eg, Ei)

    def urow(i, j):
        out = np.zeros(2 * M)
        if 0 <= i < Mx and 0 <= j < My:
            out[iidx(i, j)] = 1.0
        else:
            out[:] = T[ug[(i, j)]]
        return out

    def trow(i, j):
        out = np.zeros(2 * M)
        if 0 <= i < Mx and 0 <= j < My:
            out[M + iidx(i, j)] = 1.0
        else:
            out[:] = T[NU + tg[(i, j)]]
        return out

    D4 = np.zeros((M, 2 * M))
    D2t = np.zeros((M, 2 * M))
    Lv = np.zeros((M, M))
    for i in range(Mx):
        for j in range(My):
            r = iidx(i, j)
            for d, w in ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)):
                D4[r] += w / hx ** 4 * urow(i + d, j)
                D4[r] += w / hy ** 4 * urow(i, j + d)
            for dx, wx in ((-1, 1.0), (0, -2.0), (1, 1.0)):
                for dy, wy in ((-1, 1.0), (0, -2.0), (1, 1.0)):
                    D4[r] += 2.0 * wx * wy / (hx * hx * hy * hy) * urow(i + dx, j + dy)
            for d, w in ((-1, 1.0), (0, -2.0), (1, 1.0)):
                D2t[r] += w / hx ** 2 * trow(i + d, j)
                D2t[r] += w / hy ** 2 * trow(i, j + d)
            if i == 0:
                for d, w in ((0, 2.0), (1, -5.0), (2, 4.0), (3, -1.0)):
                    Lv[r, iidx(i + d, j)] += w / hx ** 2
            elif i == Mx - 1:
                for d, w in ((0, 2.0), (-1, -5.0), (-2, 4.0), (-3, -1.0)):
                    Lv[r, iidx(i + d, j)] += w / hx ** 2
            else:
                for d, w in ((-1, 1.0), (0, -2.0), (1, 1.0)):
                    Lv[r, iidx(i + d, j)] += w / hx ** 2
            if j == 0:
                for d, w in ((0, 2.0), (1, -5.0), (2, 4.0), (3, -1.0)):
                    Lv[r, iidx(i, j + d)] += w / hy ** 2
            elif j == My - 1:
                for d, w in ((0, 2.0), (-1, -5.0), (-2, 4.0), (-3, -1.0)):
                    Lv[r, iidx(i, j + d)] += w / hy ** 2
            else:
                for d, w in ((-1, 1.0), (0, -2.0), (1, 1.0)):
                    Lv[r, iidx(i, j + d)] += w / hy ** 2

    matrix = _block_generator(D4, D2t, Lv, M)
    centers = (ax + (np.arange(Mx) + 0.5) * hx, ay + (np.arange(My) + 0.5) * hy)
    return matrix, centers, (hx, hy), cond


def _block_generator(D4, D2t, Lv, M):
    Z = np.zeros((M, M))
    return np.block([
        [Z, np.eye(M), Z],
        [-D4[:, :M] - D2t[:, :M], Z, -D4[:, M:] - D2t[:, M:]],
        [D2t[:, :M], Lv, D2t[:, M:]],
    ])


def continuum_kernel_fields(gen: DiscreteGenerator) -> list:
    """Analytic kernel elements of the free-BC operator, sampled on the grid.

    Each is a (name, state vector) pair with zero v; the damped variant has
    no kernel and returns an empty list.
    """
    if gen.bc.damped:
        return []
    m = gen.n_cells
    zeros = np.zeros(m)
    if gen.domain.dim == 1:
        (x,) = gen.cell_mesh()
        items = [
            ("constant", np.ones(m), zeros),
            ("linear_x", x, zeros),
            ("quadratic_theta", -0.5 * x * x, np.ones(m)),
        ]
    else:
        x, y = gen.cell_mesh()
        c = gen.bc.coefficient
        items = [
            ("constant", np.ones(m), zeros),
            ("linear_x", x, zeros),
            ("linear_y", y, zeros),
            ("quadratic_theta", -(x * x + y * y) / (2.0 * (1.0 + c)), np.ones(m)),
        ]
    return [(name, gen.pack(u, zeros, th)) for name, u, th in items]


# ---------------------------------------------------------------------------
# spectrum

@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    grid: tuple
    zero_tol: float
    kernel_dimension: int
    zero_cluster_count: int
    decay_margin: float
    max_real_part: float
    largest_modulus: float
    kernel_tolerance: float
    smallest_singular_values: np.ndarray

    def to_csv_rows(self) -> list:
        rows = ["re,im"]
        rows.extend(f"{float(lam.real)!r},{float(lam.imag)!r}" for lam in self.eigenvalues)
        return rows

    def to_json_dict(self) -> dict:
        return {
            "grid": list(self.grid),
            "zero_tol": self.zero_tol,
            "kernel_dimension": self.kernel_dimension,
            "zero_cluster_count": self.zero_cluster_count,
            "decay_margin": self.decay_margin,
            "max_real_part": self.max_real_part,
            "largest_modulus": self.largest_modulus,
            "kernel_tolerance": self.kernel_tolerance,
            "smallest_singular_values": [float(s) for s in self.smallest_singular_values],
            "eigenvalues": [[lam.real, lam.imag] for lam in self.eigenvalues],
        }


def spectrum(gen: DiscreteGenerator, zero_tol: float | None = None) -> SpectrumReport:
    """Dense eigensolve with zero-cluster bookkeeping.

    kernel_dimension counts singular values at the rounding floor (a fixed
    multiple of machine epsilon times sigma_max); that count matches the
    analytic kernel and is grid-stable, unlike counting against zero_tol,
    which a physical near-null pseudomode crosses on fine grids.
    zero_cluster_count counts eigenvalues with |lambda| <= zero_tol and so
    includes generalized (Jordan) directions.
    """
    if gen.state_size > MAX_DENSE_SIZE:
        raise ValueError("matrix too large for a dense eigensolve")
    try:
        ev = np.linalg.eigvals(gen.matrix)
        sv = np.linalg.svd(gen.matrix, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    largest = float(np.abs(ev).max())
    if zero_tol is None:
        zero_tol = ZERO_TOL_FACTOR * largest
    order = np.lexsort((-ev.imag, -ev.real))
    ev = ev[order]
    kernel_tol = KERNEL_SV_FACTOR * MACHINE_EPS * float(sv[0])
    nonzero = ev[np.abs(ev) > zero_tol]
    margin = float(-nonzero.real.max()) if len(nonzero) else float("inf")
    return SpectrumReport(
        eigenvalues=ev,
        grid=gen.cells,
        zero_tol=float(zero_tol),
        kernel_dimension=int((sv <= kernel_tol).sum()),
        zero_cluster_count=int((np.abs(ev) <= zero_tol).sum()),
        decay_margin=margin,
        max_real_part=float(ev.real.max()),
        largest_modulus=largest,
        kernel_tolerance=kernel_tol,
        smallest_singular_values=sv[-8:][::-1].copy(),
    )


# ---------------------------------------------------------------------------
# kernel and spectral projection

@dataclass
class KernelProjection:
    kernel_basis: np.ndarray
    algebraic_dimension: int
    projector: np.ndarray
    pairing_condition: float
    idempotency_residual: float


def kernel_and_projection(gen: DiscreteGenerator, zero_tol: float | None = None
                          ) -> KernelProjection:
    """Numerical kernel basis plus the oblique projection onto the zero cluster.

    The generalized-kernel invariant subspace comes from a sorted complex
    Schur form; the left subspace from the adjoint's.  P = V (W* V)^{-1} W*
    reproduces the Riesz projection for the cluster; an empty cluster gives
    P = 0.
    """
    if zero_tol is None:
        zero_tol = ZERO_TOL_FACTOR * spectrum(gen).largest_modulus
    n = gen.state_size
    A = gen.matrix.astype(complex)
    keep = lambda lam: abs(lam) <= zero_tol
    try:
        _, ZR, d_right = sla.schur(A, output="complex", sort=keep)
        _, ZL, d_left = sla.schur(A.conj().T, output="complex", sort=keep)
    except sla.LinAlgError as exc:
        raise NumericalError(f"Schur decomposition failed: {exc}") from exc
    if d_right != d_left:
        raise NumericalError(
            f"left/right zero-cluster dimensions disagree ({d_left} vs {d_right})"
        )
    _, svals, vh = np.linalg.svd(gen.matrix)
    kernel_tol = KERNEL_SV_FACTOR * MACHINE_EPS * float(svals[0])
    basis = vh[svals <= kernel_tol].conj().T.real
    if d_right == 0:
        return KernelProjection(basis, 0, np.zeros((n, n)), 1.0, 0.0)
    V = ZR[:, :d_right]
    W = ZL[:, :d_left]
    C = W.conj().T @ V
    cond = float(np.linalg.cond(C))
    if cond > PAIRING_CONDITION_LIMIT:
        raise NumericalError(f"ill-conditioned subspace pairing (cond {cond:.3e})")
    P = V @ np.linalg.solve(C, W.conj().T)
    # complex-Schur rounding leaves an imaginary dust amplified by the
    # pairing conditioning; anything above 1e-6 relative means trouble
    if np.abs(P.imag).max() > 1e-6 * max(np.abs(P.real).max(), 1.0):
        raise NumericalError("projection has a non-negligible imaginary part")
    P = P.real
    residual = float(np.abs(P @ P - P).max() / max(np.abs(P).max(), 1.0))
    if residual > IDEMPOTENCY_TOL:
        raise NumericalError(f"projection is not idempotent (residual {residual:.3e})")
    return KernelProjection(basis, int(d_right), P, cond, residual)


# ---------------------------------------------------------------------------
# evolution and decay

def evolve_bounded(gen: DiscreteGenerator, u0: np.ndarray, t: float,
                   project_off_kernel: bool = False,
                   zero_tol: float | None = None) -> np.ndarray:
    """exp(t gen) u0 by the dense matrix exponential; aborts on unstable assemblies."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (gen.state_size,):
        raise ValueError("state vector has the wrong size")
    lams = np.linalg.eigvals(gen.matrix)
    if zero_tol is None:
        zero_tol = ZERO_TOL_FACTOR * float(np.abs(lams).max())
    if float(lams.real.max()) > UNSTABLE_FACTOR * zero_tol:
        raise NumericalError(
            f"unstable discretization (max Re = {lams.real.max():.3e}); aborting"
        )
    if project_off_kernel:
        u0 = u0 - kernel_and_projection(gen, zero_tol).projector @ u0
    # expm on the real matrix directly: exponentiating a triangular Schur
    # factor is too ill-conditioned for stiff assemblies.
    return sla.expm(t * gen.matrix) @ u0


@dataclass
class DecayFit:
    fitted_rate: float
    spectral_rate: float
    relative_gap: float
    times: np.ndarray
    norms: np.ndarray
    window_start: float
    decaying: bool
    seed: int

    def to_csv_rows(self) -> list:
        rows = ["t,norm"]
        rows.extend(f"{float(t)!r},{float(n)!r}" for t, n in zip(self.times, self.norms))
        return rows

    def to_json_dict(self) -> dict:
        return {
            "fitted_rate": self.fitted_rate,
            "spectral_rate": self.spectral_rate,
            "relative_gap": self.relative_gap,
            "window_start": self.window_start,
            "decaying": self.decaying,
            "seed": self.seed,
        }


def decay_rate_experiment(gen: DiscreteGenerator, samples: int = 161,
                          horizon: float | None = None, seed: int = 0,
                          project_off_kernel: bool = True,
                          u0: np.ndarray | None = None,
                          zero_tol: float | None = None) -> DecayFit:
    """Fit exp(-eps t) to the norm history of a random trajectory.

    The fit window is the second half of the horizon, where the slowest
    surviving mode dominates; the spectral abscissa off the zero cluster is
    the reference value.
    """
    if samples < 8:
        raise ValueError("need at least 8 samples for a stable fit")
    rep = spectrum(gen, zero_tol)
    eps_spec = rep.decay_margin
    if not np.isfinite(eps_spec) or eps_spec <= 0:
        raise NumericalError(f"no positive spectral decay margin (got {eps_spec})")
    if horizon is None:
        horizon = 8.0 / eps_spec
    if u0 is None:
        rng = np.random.default_rng(seed)
        u0 = rng.standard_normal(gen.state_size)
    u0 = np.asarray(u0, dtype=float)
    if project_off_kernel:
        u0 = u0 - kernel_and_projection(gen, rep.zero_tol).projector @ u0
    dt = horizon / (samples - 1)
    try:
        step = sla.expm(gen.matrix * dt)
    except (ValueError, sla.LinAlgError) as exc:
        raise NumericalError(f"propagator construction failed: {exc}") from exc
    times = np.linspace(0.0, horizon, samples)
    norms = np.empty(samples)
    state = u0.copy()
    for i in range(samples):
        norms[i] = np.linalg.norm(state)
        state = step @ state
    if not np.all(np.isfinite(norms)) or np.any(norms == 0.0):
        raise NumericalError("norm history underflowed; shorten the horizon")
    mask = times >= 0.5 * horizon
    slope = np.polyfit(times[mask], np.log(norms[mask]), 1)[0]
    fitted = float(-slope)
    gap = abs(fitted - eps_spec) / eps_spec
    return DecayFit(
        fitted_rate=fitted,
        spectral_rate=eps_spec,
        relative_gap=float(gap),
        times=times,
        norms=norms,
        window_start=float(0.5 * horizon),
        decaying=fitted > 0.1 * eps_spec,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# convergence across grids

@dataclass
class ConvergenceReport:
    grids: tuple
    tracked: np.ndarray
    differences: np.ndarray
    orders: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "grids": [list(g) for g in self.grids],
            "tracked": [[[lam.real, lam.imag] for lam in row] for row in self.tracked],
            "differences": [[float(v) for v in row] for row in self.differences],
            "orders": [float(v) for v in self.orders],
        }

    def to_csv_rows(self) -> list:
        rows = ["mode," + ",".join(f"re_{g},im_{g}" for g in ["x".join(map(str, gr)) for gr in self.grids]) + ",order"]
        for k in range(self.tracked.shape[1]):
            vals = []
            for gi in range(len(self.grids)):
                lam = self.tracked[gi, k]
                vals.extend([repr(float(lam.real)), repr(float(lam.imag))])
            rows.append(f"{k}," + ",".join(vals) + f",{float(self.orders[k])!r}")
        return rows


def _slow_modes(gen: DiscreteGenerator, count: int) -> np.ndarray:
    rep = spectrum(gen)
    ev = rep.eigenvalues
    nz = ev[np.abs(ev) > rep.zero_tol]
    nz = nz[nz.imag >= -1e-9 * rep.largest_modulus]
    nz = nz[np.argsort(np.abs(nz))]
    if len(nz) < count:
        raise NumericalError("not enough nonzero eigenvalues to track")
    return nz[:count]


def _match_modes(ref: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Pair each reference eigenvalue with its nearest candidate."""
    out = np.empty(len(ref), dtype=complex)
    used = set()
    for i, lam in enumerate(ref):
        dist = np.abs(cand - lam)
        for k in used:
            dist[k] = np.inf
        k = int(np.argmin(dist))
        if dist[k] > 0.5 * max(abs(lam), 1.0):
            raise NumericalError(
                f"eigenvalue matching failed: {lam} has no partner "
                f"(nearest at distance {dist[k]:.3e})"
            )
        used.add(k)
        out[i] = cand[k]
    return out


def eigenvalue_differences(domain: DomainSpec, bc: BCVariant, grid_a, grid_b,
                           count: int = 5) -> np.ndarray:
    """Distances between the tracked slow modes of two grids (zero if equal)."""
    ga = assemble_generator(domain, grid_a, bc)
    gb = assemble_generator(domain, grid_b, bc)
    ref = _slow_modes(ga, count)
    matched = _match_modes(ref, _slow_modes(gb, count))
    return np.abs(matched - ref)


def convergence_study(domain: DomainSpec, bc: BCVariant, grids,
                      count: int = 5) -> ConvergenceReport:
    """Richardson order estimate for the slowest nonzero eigenvalues.

    Grids must each refine the previous by exactly 2x per axis; three grids
    give one order estimate per tracked mode.
    """
    norm_grids = []
    for g in grids:
        cells = tuple(int(m) for m in np.atleast_1d(g))
        if len(cells) == 1 and domain.dim == 2:
            cells = (cells[0], cells[0])
        norm_grids.append(cells)
    if len(norm_grids) < 3:
        raise ValueError("need at least 3 grids")
    for a, b in zip(norm_grids, norm_grids[1:]):
        if tuple(2 * m for m in a) != b:
            raise ValueError(f"non-nested grid list: {a} -> {b} is not a 2x refinement")
    tracked = []
    for cells in norm_grids:
        gen = assemble_generator(domain, cells, bc)
        modes = _slow_modes(gen, count)
        if tracked:
            modes = _match_modes(tracked[-1], modes)
        tracked.append(modes)
    tracked = np.array(tracked)
    diffs = np.abs(np.diff(tracked, axis=0))
    if np.any(diffs == 0.0):
        raise NumericalError("zero eigenvalue difference; cannot form order estimate")
    orders = np.log2(diffs[:-1] / diffs[1:]).mean(axis=0)
    return ConvergenceReport(tuple(norm_grids), tracked, diffs, orders)


# ---------------------------------------------------------------------------
# export

def save_triplets(path, gen: DiscreteGenerator) -> None:
    """Sparse triplet text export: header, then one 'row col value' per line."""
    rows, cols = np.nonzero(gen.matrix)
    with open(path, "w") as fh:
        fh.write(f"# generator {gen.state_size} {gen.state_size} {len(rows)}\n")
        fh.write(f"# cells {'x'.join(map(str, gen.cells))} bc {gen.bc.tag}\n")
        for r, cidx in zip(rows, cols):
            fh.write(f"{r} {cidx} {float(gen.matrix[r, cidx])!r}\n")
