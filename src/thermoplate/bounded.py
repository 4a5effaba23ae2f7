"""Finite-difference plate generators on an interval and a rectangle.

The block system is u' = v, v' = -lap^2 u - lap theta, theta' = lap theta
+ lap v on cell-centered grids (M cells per axis, centers at a + (i+1/2)h).
Boundary conditions sit on the faces and are eliminated through ghost
layers: two for u, one for theta.  Free edges impose

    (i)   u_nn + c u_tt + theta = 0
    (ii)  u_nnn + (2 - c) u_ntt = 0
    (iii) theta_n = 0

with c the flexural coupling coefficient (beta on intervals, mu on
rectangles).  The tangential terms vanish in 1D, so beta does not enter the
interval generator.  The damped variant keeps (i), adds the boundary
feedback u + b theta to (ii) through the theta-flux substitution, and turns
(iii) into the Robin condition theta_n + b theta = 0.
Rectangle corner ghosts are closed by second-order diagonal extrapolation in
the zero-cross-difference form u(gc) = u(gx) + u(gy) - u(cc), which is exact
on quadratics and keeps the assembled operator stable; corner cells sit
outside the smooth-boundary theory and results there carry that caveat.

Interior stencils are the centered five-point (1D) and thirteen-point (2D)
biharmonic and the centered three/five-point Laplacian; lap v falls back to
one-sided second-order rows at the first and last cell off each edge since
v carries no boundary condition of its own.

One assembly serves both domains; the interval is the rectangle code with no
tangential axis.  The state is (u cells, v cells, theta cells), cells
row-major.  Ghosts are numbered: along each axis and for each tangential
position the u ghosts at normal indices -1, -2, M, M+1; then the four corner
ghosts (-1,-1), (Mx,-1), (-1,My), (Mx,My); then along each axis and
tangential position the theta ghosts at -1, M.  The ghost system has, per
axis, per side (low, then high) and per tangential position, the rows (i),
(ii), (iii), and the corner closures last.  Its solve gives the extension
rows T: ghost g equals T[g] applied to the interior (u, theta) unknowns.  A
stencil point adds its weight to one entry when it is a cell and weight
times T[g] when it is ghost g.  These orders fix the floating-point
accumulation, so the generator is reproducible bit for bit.

Every generator commutes with the reflection x -> a + b - x along each axis:
it maps the cell grid onto itself, the stencils are symmetric, the one-sided
Lv rows are mirrored, and rows (i)-(iii) map to themselves (row (ii) and the
feedback term change sign with the normal, so they give the same equation).
In the orthonormal even/odd basis of the reflections, pairs
(e_i +- e_{M-1-i}) / sqrt 2 per axis with the middle cell of an odd count in
the even class only, the matrix is block diagonal: one block per parity
class, 2 on an interval and 4 on a rectangle.  A square box on a square grid
also commutes with the diagonal swap (x, y) -> (y, x), and the classes split
by the dihedral group D4: (+,+) and (-,-) each into a swap-even half
(diagonal cells and (x_ij + x_ji) / sqrt 2) and a swap-odd half
((x_ij - x_ji) / sqrt 2), while the swap maps (+,-) onto (-,+), so that one
block B_E of (+,-) serves both and counts twice.  Both splits are index
folds of the assembled matrix; no basis is formed.  The spectrum, kernel,
projection and decay computations run every eigensolve, SVD, Schur form and
exponential on these blocks (five on a square, with B_E's eigenvalues and
singular values counted twice and one exponential carrying both E states),
after checking each symmetry to SYMMETRY_TOL; the zero-cluster projector is
formed and applied block by block as well, and the assembled matrix stays
the dense oracle.

scipy.linalg is imported inside kernel_and_projection and
decay_rate_experiment, its only users: loading it takes about a quarter
second that every other command would pay at start-up, and calling
sla.schur and sla.expm through the module object keeps wrappers patched
onto those attributes (tracers, tests) in effect.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .symbols import NumericalError

MACHINE_EPS = np.finfo(float).eps
ZERO_TOL_FACTOR = 1e-6
#: singular values at most this multiple of sigma_max count as kernel
KERNEL_SV_FACTOR = 10.0
PAIRING_CONDITION_LIMIT = 1e10
IDEMPOTENCY_TOL = 1e-8
MAX_DENSE_SIZE = 20000
MIN_CELLS = 8
#: largest max|A[J][:, J] - A| / max|A| over the box reflections J
SYMMETRY_TOL = 1e-12
#: real parts are rounded to this multiple of max|lambda| before sorting
ORDER_QUANTUM = 1e-12
SQRT_HALF = math.sqrt(0.5)


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
        if self.tag != "free_beta" and not self.mu < 1.0:
            raise ValueError(f"mu must be below 1, where the free plate energy stops being "
                             f"coercive (got {self.mu:g})")

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


@dataclass
class DiscreteGenerator:
    domain: DomainSpec
    bc: BCVariant
    cells: tuple
    matrix: np.ndarray
    centers: tuple
    ghost_condition: float

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

    @functools.cached_property
    def reflection_blocks(self) -> ReflectionBlocks:
        """The matrix split by the symmetries of the box, checked and built once.

        The diagonal swap joins the reflections when the box and the grid
        are both square.
        """
        square = (self.domain.dim == 2 and self.cells[0] == self.cells[1]
                  and len({b - a for a, b in self.domain.bounds}) == 1)
        return _reflection_blocks(self.matrix, self.cells, square)


# ---------------------------------------------------------------------------
# assembly

# centered second and fourth differences, and the one-sided second difference
# at the first cell off a face (offsets point into the grid)
LAP3 = ((-1, 1.0), (0, -2.0), (1, 1.0))
BIHARM5 = ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0))
ONE_SIDED = ((0, 2.0), (1, -5.0), (2, 4.0), (3, -1.0))


def _grid_cells(domain: DomainSpec, grid_points) -> tuple:
    """Cells per axis (one count on a rectangle means a square grid).

    Checked against the domain dimension, MIN_CELLS and MAX_DENSE_SIZE
    before anything is allocated.
    """
    cells = tuple(int(m) for m in np.atleast_1d(grid_points))
    if len(cells) == 1 and domain.dim == 2:
        cells = (cells[0], cells[0])
    if len(cells) != domain.dim:
        raise AssemblyError("grid_points do not match the domain dimension")
    if min(cells) < MIN_CELLS:
        raise AssemblyError(f"need at least {MIN_CELLS} cells per axis")
    size = 3 * math.prod(cells)
    if size > MAX_DENSE_SIZE:
        raise AssemblyError(f"grid {'x'.join(map(str, cells))} gives state size {size}, "
                            f"above the dense limit {MAX_DENSE_SIZE}")
    return cells


def assemble_generator(domain: DomainSpec, grid_points, bc: BCVariant) -> DiscreteGenerator:
    cells = _grid_cells(domain, grid_points)
    if domain.dim == 1 and bc.tag != "free_beta":
        raise AssemblyError(f"{bc.tag} requires a rectangle domain")
    steps = tuple((b - a) / m for (a, b), m in zip(domain.bounds, cells))
    centers = tuple(a + (np.arange(m) + 0.5) * h
                    for (a, _), m, h in zip(domain.bounds, cells, steps))
    matrix, cond = _assemble(cells, steps, bc)
    if not np.all(np.isfinite(matrix)):
        raise AssemblyError("non-finite entries after ghost elimination")
    return DiscreteGenerator(domain, bc, cells, matrix, centers, cond)


def _ghost_solve(Eg: np.ndarray, Ei: np.ndarray) -> tuple:
    """Express ghost values as linear maps of interior unknowns."""
    try:
        T = np.linalg.solve(Eg, -Ei)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError(f"singular ghost-elimination system: {exc}") from exc
    return T, float(np.linalg.cond(Eg))


def _at(p: tuple, axis: int, k: int) -> tuple:
    """The point with index k along axis and tangential position p."""
    return p[:axis] + (k,) + p[axis:]


def _shift(pt: tuple, axis: int, d: int) -> tuple:
    return pt[:axis] + (pt[axis] + d,) + pt[axis + 1:]


def _tangential(cells: tuple, axis: int):
    return np.ndindex(*(cells[:axis] + cells[axis + 1:]))


def _assemble(cells: tuple, steps: tuple, bc: BCVariant) -> tuple:
    dim = len(cells)
    M = int(np.prod(cells))
    c = bc.coefficient
    robin = bc.b if bc.damped else 0.0
    # column of each (field, point), field 0 = u and 1 = theta: interior
    # cells row-major, then the ghosts in the order of the module docstring
    interior = list(np.ndindex(*cells))
    col = {(f, pt): f * M + k for f in (0, 1) for k, pt in enumerate(interior)}
    for a in range(dim):
        for p in _tangential(cells, a):
            for k in (-1, -2, cells[a], cells[a] + 1):
                col[0, _at(p, a, k)] = len(col)
    corners = []
    if dim == 2:
        # corner ghost, its two edge-ghost neighbours and the corner cell
        Mx, My = cells
        for gy, cy in ((-1, 0), (My, My - 1)):
            for gx, cx in ((-1, 0), (Mx, Mx - 1)):
                corners.append(((gx, gy), (gx, cy), (cx, gy), (cx, cy)))
                col[0, (gx, gy)] = len(col)
    for a in range(dim):
        for p in _tangential(cells, a):
            for k in (-1, cells[a]):
                col[1, _at(p, a, k)] = len(col)

    rows = []

    def equation(*terms):
        row = np.zeros(len(col))
        for f, pt, w in terms:
            row[col[f, pt]] += w
        rows.append(row)

    # rows (i), (ii), (iii) per face point, scaled by 2 h^2, h^3 and h to keep
    # the ghost system O(1)-conditioned; (ii) is oriented along the axis and
    # the damped variant moves nu (u + b theta) to its left side
    for a, h in enumerate(steps):
        tan = [(t, d, w, steps[t]) for t in range(dim) if t != a for d, w in LAP3]
        for nu in (-1.0, 1.0):
            first = 0 if nu < 0 else cells[a] - 1
            for p in _tangential(cells, a):
                c1, c0, g1, g2 = (_at(p, a, first + int(nu) * m) for m in (-1, 0, 1, 2))
                equation(
                    (0, c1, 1.0), (0, c0, -1.0), (0, g1, -1.0), (0, g2, 1.0),
                    *((0, _shift(pt, t, d), c * w * (h * h) / (ht * ht))
                      for t, d, w, ht in tan for pt in (c0, g1)),
                    (1, c0, h * h), (1, g1, h * h))
                feedback = [(f, pt, -nu * k * 0.5 * h ** 3) for pt in (c0, g1)
                            for f, k in ((0, 1.0), (1, robin))] if bc.damped else []
                equation(
                    (0, c1, -nu), (0, c0, 3.0 * nu), (0, g1, -3.0 * nu), (0, g2, nu),
                    *((0, _shift(pt, t, d), (2.0 - c) * sgn * w * (h * h) / (ht * ht))
                      for pt, sgn in ((c0, -nu), (g1, nu)) for t, d, w, ht in tan),
                    *feedback)
                equation((1, g1, 1.0 + 0.5 * robin * h), (1, c0, -(1.0 - 0.5 * robin * h)))
    for gc, e1, e2, cc in corners:
        equation((0, gc, 1.0), (0, e1, -1.0), (0, e2, -1.0), (0, cc, 1.0))
    E = np.array(rows)
    T, cond = _ghost_solve(E[:, 2 * M:], E[:, :2 * M])

    # the columns as an array over (field, point + 2), so that one stencil
    # term is looked up for every cell at once; a point with no column
    # indexes past the end of T
    lookup = np.full((2, *(m + 4 for m in cells)), len(col))
    for (f, pt), k in col.items():
        lookup[(f, *(i + 2 for i in pt))] = k
    grid = np.indices(cells).reshape(dim, M)
    rows = np.arange(M)

    def add(dst, f, offset, w):
        # each stencil term once over all cells, in the per-row order of the
        # module docstring: an interior point feeds one entry, a ghost its row of T
        k = lookup[(f, *(grid[a] + offset[a] + 2 for a in range(dim)))]
        cell = k < 2 * M
        dst[rows[cell], k[cell]] += w
        dst[rows[~cell]] += w * T[k[~cell] - 2 * M]

    def axis_offset(a, d):
        return tuple(d if t == a else 0 for t in range(dim))

    D4 = np.zeros((M, 2 * M))
    D2t = np.zeros((M, 2 * M))
    Lv = np.zeros((M, M))
    for d, w in BIHARM5:
        for a, h in enumerate(steps):
            add(D4, 0, axis_offset(a, d), w / h ** 4)
    if dim == 2:
        hx, hy = steps
        for dx, wx in LAP3:
            for dy, wy in LAP3:
                add(D4, 0, (dx, dy), 2.0 * wx * wy / (hx * hx * hy * hy))
    for d, w in LAP3:
        for a, h in enumerate(steps):
            add(D2t, 1, axis_offset(a, d), w / h ** 2)
    # v has no boundary condition: one-sided lap v on the first and last cell
    for a, h in enumerate(steps):
        stride = math.prod(cells[a + 1:])
        first, last = grid[a] == 0, grid[a] == cells[a] - 1
        for sel, stencil, sgn in ((~(first | last), LAP3, 1), (first, ONE_SIDED, 1),
                                  (last, ONE_SIDED, -1)):
            for d, w in stencil:
                Lv[rows[sel], rows[sel] + sgn * d * stride] += w / h ** 2
    return _block_generator(D4, D2t, Lv, M), cond


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
# reflection-parity blocks

def _fold(T: np.ndarray, axis: int, sign: int) -> np.ndarray:
    """C^T along one cell axis: (x_i + sign x_{M-1-i}) / sqrt 2 over mirrored pairs.

    With an odd count M the middle cell joins the even class unchanged.
    """
    T = np.moveaxis(T, axis, 0)
    h = len(T) // 2
    out = (np.add if sign > 0 else np.subtract)(T[:h], T[::-1][:h])
    out *= SQRT_HALF
    if len(T) % 2 and sign > 0:
        out = np.concatenate([out, T[h:h + 1]])
    return np.moveaxis(out, 0, axis)


def _parity_classes(T: np.ndarray, dim: int, starts: tuple) -> dict:
    """T folded into each parity class (a sign tuple, +1 first) on every
    group of dim cell axes that begins at one of starts."""
    out = {}
    for signs in itertools.product((1, -1), repeat=dim):
        F = T
        for a, sign in enumerate(signs):
            for start in starts:
                F = _fold(F, start + a, sign)
        out[signs] = F
    return out


def _swap_fold(T: np.ndarray, axis: int, sign: int) -> np.ndarray:
    """The diagonal swap's fold of the k x k half-grid on axes axis, axis + 1.

    Over the pairs i <= j (sign +1) or i < j (sign -1), row-major, the one
    axis that replaces the two holds (x_ij + sign x_ji) / sqrt 2, and x_ii
    itself on the diagonal.
    """
    T = np.moveaxis(T, (axis, axis + 1), (0, 1))
    i, j = np.triu_indices(len(T), 0 if sign > 0 else 1)
    out = (np.add if sign > 0 else np.subtract)(T[i, j], T[j, i])
    out *= np.where(i == j, 0.5, SQRT_HALF).reshape(-1, *(1,) * (out.ndim - 1))
    return np.moveaxis(out, 0, axis)


def _as_matrix(T: np.ndarray, row_axes: int) -> np.ndarray:
    """T as a contiguous matrix whose rows are its first row_axes axes."""
    return np.ascontiguousarray(T.reshape(math.prod(T.shape[:row_axes]), -1))


@dataclass(frozen=True)
class ReflectionBlocks:
    """The generator in the orthonormal symmetry basis of the box.

    The classes are the reflection parities, one sign per axis and +1 first;
    C_c maps class coordinates (field, half-grid cells row-major) to the
    state, and blocks[c] = C_c^T A C_c.  On a square box with a square grid
    (swap_residual not None) the diagonal swap splits further: (+,+) and
    (-,-) each into a swap-even and a swap-odd block, and the swap maps
    (+,-) onto (-,+), so the last block, B_E of (+,-), serves both (counts
    2).  residual and swap_residual are the checked symmetry defects.
    """

    cells: tuple
    blocks: tuple
    counts: tuple
    residual: float
    swap_residual: float | None

    @property
    def sizes(self) -> tuple:
        return tuple(B.shape[0] for B in self.blocks)

    def restrict(self, x: np.ndarray) -> list:
        """C_c^T x per block; the E block's is the (+,-), (-,+) column pair.

        The (-,+) column is handed over in (+,-) coordinates, where B_E acts
        on it.
        """
        parity = _parity_classes(x.reshape(3, *self.cells), len(self.cells), (1,))
        if self.swap_residual is None:
            return [T.ravel() for T in parity.values()]
        out = [_swap_fold(parity[signs], 1, swap).ravel()
               for signs in ((1, 1), (-1, -1)) for swap in (1, -1)]
        out.append(np.column_stack([parity[1, -1].ravel(),
                                    np.swapaxes(parity[-1, 1], 1, 2).ravel()]))
        return out


def _reflection_blocks(matrix: np.ndarray, cells: tuple, square: bool) -> ReflectionBlocks:
    """Check that A commutes with every axis reflection J, then form the blocks.

    A residual max|A[J][:, J] - A| / max|A| above SYMMETRY_TOL raises
    NumericalError, since the blocks drop every coupling between classes.
    On a square box and grid the swap P is checked on the parity blocks,
    max|B[P][:, P] - B| on (+,+), (-,-) and max|B_{+-}[P][:, P] - B_{-+}| on
    the E pair, scaled the same way.
    """
    dim = len(cells)
    A = matrix.reshape((3, *cells) * 2)
    scale = max(float(matrix.max()), -float(matrix.min()))
    residual = 0.0
    for a in range(dim):
        # the defect is odd under J, so the rows of one half bound it
        half = (slice(None),) * (1 + a) + (slice(0, (cells[a] + 1) // 2),)
        defect = np.flip(A, (1 + a, 2 + dim + a))[half] - A[half]
        residual = max(residual, float(np.abs(defect, out=defect).max()))
    residual /= scale
    if not residual <= SYMMETRY_TOL:
        raise NumericalError(f"generator is not reflection symmetric (residual "
                             f"{residual:.3e} above {SYMMETRY_TOL:g})")
    parity = _parity_classes(A, dim, (1, 2 + dim))
    if not square:
        blocks = tuple(_as_matrix(T, 1 + dim) for T in parity.values())
        return ReflectionBlocks(cells, blocks, (1,) * len(blocks), residual, None)
    # P transposes the half-grid of the rows and that of the columns
    swapped = (((1, 1), (1, 1)), ((-1, -1), (-1, -1)), ((1, -1), (-1, 1)))
    swap_residual = max(float(np.abs(parity[s].transpose(0, 2, 1, 3, 5, 4) - parity[t]).max())
                        for s, t in swapped) / scale
    if not swap_residual <= SYMMETRY_TOL:
        raise NumericalError(f"generator is not swap symmetric (residual "
                             f"{swap_residual:.3e} above {SYMMETRY_TOL:g})")
    blocks = tuple(_as_matrix(_swap_fold(_swap_fold(parity[signs], 4, swap), 1, swap), 2)
                   for signs in ((1, 1), (-1, -1)) for swap in (1, -1))
    return ReflectionBlocks(cells, blocks + (_as_matrix(parity[1, -1], 3),),
                            (1, 1, 1, 1, 2), residual, swap_residual)


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
    symmetry_residual: float
    swap_residual: float | None
    ghost_condition: float
    block_sizes: tuple


def _eigenvalues(gen: DiscreteGenerator) -> tuple:
    """The blocks' eigenvalues in report order and the default zero tolerance.

    The order is descending real part rounded to a multiple of ORDER_QUANTUM
    max|lambda|, then descending imaginary part: roundoff-level gaps between
    real parts do not reorder the rows.  The E block's eigenvalues count twice.
    """
    blocks = gen.reflection_blocks
    try:
        ev = np.concatenate([np.tile(np.linalg.eigvals(B), k)
                             for B, k in zip(blocks.blocks, blocks.counts)])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    top = float(np.abs(ev).max())
    ev = ev[np.lexsort((-ev.imag, -np.round(ev.real / (ORDER_QUANTUM * top))))]
    return ev, ZERO_TOL_FACTOR * top


def _decay_margin(ev: np.ndarray, zero_tol: float) -> float:
    """Minus the spectral abscissa off the zero cluster (inf if nothing is off it)."""
    nonzero = ev[np.abs(ev) > zero_tol]
    return float(-nonzero.real.max()) if len(nonzero) else float("inf")


def spectrum(gen: DiscreteGenerator) -> SpectrumReport:
    """Block eigensolves with zero-cluster bookkeeping.

    kernel_dimension counts singular values at the rounding floor (a fixed
    multiple of machine epsilon times sigma_max); that count matches the
    analytic kernel and is grid-stable, unlike counting against zero_tol,
    which a physical near-null pseudomode crosses on fine grids.
    zero_cluster_count counts eigenvalues with |lambda| <= zero_tol and so
    includes generalized (Jordan) directions.  The singular values are the
    union of the blocks' (the basis is orthonormal), the E block's twice, in
    descending order.
    """
    ev, zero_tol = _eigenvalues(gen)
    blocks = gen.reflection_blocks
    try:
        sv = np.concatenate([np.tile(np.linalg.svd(B, compute_uv=False), k)
                             for B, k in zip(blocks.blocks, blocks.counts)])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    sv = np.sort(sv)[::-1]
    kernel_tol = KERNEL_SV_FACTOR * MACHINE_EPS * float(sv[0])
    return SpectrumReport(
        eigenvalues=ev,
        grid=gen.cells,
        zero_tol=zero_tol,
        kernel_dimension=int((sv <= kernel_tol).sum()),
        zero_cluster_count=int((np.abs(ev) <= zero_tol).sum()),
        decay_margin=_decay_margin(ev, zero_tol),
        max_real_part=float(ev.real.max()),
        largest_modulus=float(np.abs(ev).max()),
        kernel_tolerance=kernel_tol,
        smallest_singular_values=sv[-8:][::-1].copy(),
        symmetry_residual=blocks.residual,
        swap_residual=blocks.swap_residual,
        ghost_condition=gen.ghost_condition,
        block_sizes=blocks.sizes,
    )


# ---------------------------------------------------------------------------
# kernel and spectral projection

@dataclass
class KernelProjection:
    """The zero-cluster projection as one n_c x n_c block P_c per block.

    P_c acts on the class coordinates of ReflectionBlocks.restrict, P_E on
    both columns of the E pair; the state projector, the sum of
    C_c P_c C_c^T over the classes, is never formed.
    """

    algebraic_dimension: int
    projectors: tuple
    pairing_condition: float
    idempotency_residual: float


def kernel_and_projection(gen: DiscreteGenerator, zero_tol: float | None = None
                          ) -> KernelProjection:
    """The oblique projection onto the zero cluster, block by block.

    The right invariant subspace V_c of the cluster comes from the real Schur
    form of block c sorted to put |lambda| <= zero_tol first, the left
    subspace W_c from that of its transpose; P_c = V_c (W_c^T V_c)^{-1} W_c^T
    is the real Riesz projection, zero where the class holds no part of the
    cluster; the E pair's dimension counts twice.  pairing_condition is the
    condition number of the block-diagonal W^T V, idempotency_residual
    max_c max|P_c^2 - P_c| / max(max_c max|P_c|, 1).
    """
    import scipy.linalg as sla

    if zero_tol is None:
        zero_tol = _eigenvalues(gen)[1]
    blocks = gen.reflection_blocks
    keep = lambda x, y: np.hypot(x, y) <= zero_tol
    pairs = []
    for c, B in enumerate(blocks.blocks):
        try:
            _, ZR, d_right = sla.schur(B, output="real", sort=keep)
            _, ZL, d_left = sla.schur(B.T, output="real", sort=keep)
        except sla.LinAlgError as exc:
            raise NumericalError(f"Schur decomposition failed: {exc}") from exc
        if d_right != d_left:
            raise NumericalError(f"left/right zero-cluster dimensions disagree in block "
                                 f"{c} ({d_left} vs {d_right})")
        pairs.append((ZR[:, :d_right], ZL[:, :d_left]))
    d = sum(k * V.shape[1] for (V, _), k in zip(pairs, blocks.counts))
    if d == 0:
        return KernelProjection(0, tuple(np.zeros_like(B) for B in blocks.blocks), 1.0, 0.0)
    sv = np.concatenate([np.linalg.svd(W.T @ V, compute_uv=False) for V, W in pairs])
    cond = float(sv.max() / sv.min())
    if not cond <= PAIRING_CONDITION_LIMIT:
        raise NumericalError(f"ill-conditioned subspace pairing (cond {cond:.3e})")
    P = tuple(V @ np.linalg.solve(W.T @ V, W.T) for V, W in pairs)
    residual = (max(float(np.abs(Pc @ Pc - Pc).max()) for Pc in P)
                / max(max(float(np.abs(Pc).max()) for Pc in P), 1.0))
    if not residual <= IDEMPOTENCY_TOL:
        raise NumericalError(f"projection is not idempotent (residual {residual:.3e})")
    return KernelProjection(d, P, cond, residual)


# ---------------------------------------------------------------------------
# decay

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
    symmetry_residual: float
    swap_residual: float | None
    ghost_condition: float
    block_sizes: tuple
    # projector diagnostics, None when the kernel was not projected out
    projector_dimension: int | None = None
    pairing_condition: float | None = None
    idempotency_residual: float | None = None


def decay_rate_experiment(gen: DiscreteGenerator, samples: int = 161,
                          horizon: float | None = None, seed: int = 0,
                          project_off_kernel: bool = True) -> DecayFit:
    """Fit exp(-eps t) to the norm history of a random trajectory.

    The fit window is the second half of the horizon, where the slowest
    surviving mode dominates; the spectral abscissa off the zero cluster is
    the reference value.  The initial state is restricted to the blocks once
    and projected there (y_c - P_c y_c); each block gets its own propagator,
    which carries both E states as one two-column product, and the stacked
    2-norm of the block states is the state norm.
    """
    import scipy.linalg as sla

    if samples < 8:
        raise ValueError("need at least 8 samples for a stable fit")
    if horizon is not None and not 0.0 < horizon < np.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    ev, zero_tol = _eigenvalues(gen)
    eps_spec = _decay_margin(ev, zero_tol)
    if not np.isfinite(eps_spec) or eps_spec <= 0:
        raise NumericalError(f"no positive spectral decay margin (got {eps_spec})")
    if horizon is None:
        horizon = 8.0 / eps_spec
    blocks = gen.reflection_blocks
    states = blocks.restrict(np.random.default_rng(seed).standard_normal(gen.state_size))
    diagnostics = {}
    if project_off_kernel:
        proj = kernel_and_projection(gen, zero_tol)
        states = [y - P @ y for P, y in zip(proj.projectors, states)]
        diagnostics = dict(projector_dimension=proj.algebraic_dimension,
                           pairing_condition=proj.pairing_condition,
                           idempotency_residual=proj.idempotency_residual)
    dt = horizon / (samples - 1)
    try:
        steps = [sla.expm(B * dt) for B in blocks.blocks]
    except (ValueError, sla.LinAlgError) as exc:
        raise NumericalError(f"propagator construction failed: {exc}") from exc
    times = np.linspace(0.0, horizon, samples)
    norms = np.empty(samples)
    for i in range(samples):
        norms[i] = np.linalg.norm(np.concatenate([y.ravel() for y in states]))
        states = [step @ y for step, y in zip(steps, states)]
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
        symmetry_residual=blocks.residual,
        swap_residual=blocks.swap_residual,
        ghost_condition=gen.ghost_condition,
        block_sizes=blocks.sizes,
        **diagnostics,
    )


# ---------------------------------------------------------------------------
# convergence across grids

@dataclass
class ConvergenceReport:
    grids: tuple
    tracked: np.ndarray
    differences: np.ndarray
    orders: np.ndarray


def _slow_modes(gen: DiscreteGenerator, count: int) -> np.ndarray:
    ev, zero_tol = _eigenvalues(gen)
    nz = ev[np.abs(ev) > zero_tol]
    nz = nz[nz.imag >= -1e-9 * float(np.abs(ev).max())]
    nz = nz[np.argsort(np.abs(nz))]
    if len(nz) < count:
        raise ValueError(f"count {count} exceeds the {len(nz)} modes that can be tracked "
                         f"on grid {'x'.join(map(str, gen.cells))}")
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


def convergence_study(domain: DomainSpec, bc: BCVariant, grids,
                      count: int = 5) -> ConvergenceReport:
    """Richardson order estimate for the slowest nonzero eigenvalues.

    Grids must each refine the previous by exactly 2x per axis; three grids
    give one order estimate per tracked mode.
    """
    if count < 1:
        raise ValueError(f"need at least one mode to track (count {count})")
    norm_grids = [_grid_cells(domain, g) for g in grids]
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
