"""Finite-difference plate generators on an interval and a rectangle.

The block system is u' = v, v' = -lap^2 u - lap theta, theta' = lap theta
+ lap v on cell-centered grids (M cells per axis, centers at a + (i+1/2)h).
Boundary conditions sit on the faces and are eliminated through ghost
layers: two for u, one for theta.  Free edges impose

    (i)   u_nn + c u_tt + theta = 0
    (ii)  u_nnn + (2 - c) u_ntt = 0
    (iii) theta_n = 0

with c = mu the flexural coupling coefficient.  mu multiplies only the
tangential terms, which vanish in 1D, so it does not enter the interval
generator and is checked (mu < 1) on rectangles only.  The damped variant
(rectangles only) keeps (i), adds the boundary feedback u + b theta to (ii)
through the theta-flux substitution, and turns (iii) into the Robin
condition theta_n + b theta = 0.
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
row-major.  The u ghosts are the points up to two off a face and the four
corners next to the box, the theta ghosts the points one off a face; with one
equation per ghost ((i) on the first u layer, (ii) on the second, (iii) on
theta, the closure on a corner) the ghost system gives the extension rows T:
ghost g is T[g] applied to the interior (u, theta) unknowns.  A stencil point
adds its weight to one entry when it is a cell and weight times T[g] when it
is ghost g.  These (row, column, value) triplets come from index arithmetic
over all cells at once and are summed by one bincount in emission order, only
exact zeros dropped; no n x n matrix is formed (DiscreteGenerator.matrix is a
dense oracle built on first use).  Given T the entries are bit for bit
reproducible; up to 32^2 T is bit-identical under 1 and 2 OpenBLAS threads.

Every generator commutes with the reflection x -> a + b - x along each axis,
ghost equations included once (ii) is oriented by the outward normal.  In the
orthonormal even/odd basis of the reflections, pairs (e_i +- e_{M-1-i}) /
sqrt 2 per axis with the middle cell of an odd count in the even class only,
the matrix is block diagonal: one block per parity class, 2 on an interval
and 4 on a rectangle.  A square box on a square grid also commutes with the
diagonal swap (x, y) -> (y, x), and the classes split by the dihedral group
D4: (+,+) and (-,-) each into a swap-even half (diagonal cells and
(x_ij + x_ji) / sqrt 2) and a swap-odd half ((x_ij - x_ji) / sqrt 2), while
the swap maps (+,-) onto (-,+), so that one block B_E of (+,-) serves both
and counts twice.  Both splits are index folds: every block, parity or
dihedral, is one bincount of the entries over its class map, and the ghost
system is solved and conditioned per parity class through the same maps.
Each symmetry S (a reflection, or the swap) is checked on the entries as
max|A[S][:, S] - A| / max|A| <= SYMMETRY_TOL before any block is formed.
Every Schur form, exponential and zero-cluster projection runs on these blocks
(B_E's eigenvalues counted twice, one trajectory carrying both E states), each
on the exactly balanced S_c B_c S_c^-1 (a power of two sigma on the u
coordinates) that DiscreteGenerator.balanced_block folds from the entries anew
for every factorization; no block is kept.  One real Schur form per block
(_schur_forms) is the only eigenvalue source, read off T by one bookkeeping
(_bookkept: zero_tol, the cluster-gap refusal, the margin, the report order).
spectrum and converge ask for T alone: converge keeps the eigenvalues
(block_spectrum), spectrum (spectral_record) also the singular values of
each zero-cluster block T11, on which it counts the kernel.  decay and the
projection take T and Z (block_schur), which _split reorders cluster first on
a copy (cluster_projection), then slow first in place (decay_rate_experiment);
decay holds only the Schur factors: at 64^2 that is 302 MB.

scipy.linalg is imported inside its only users: loading it takes about a
quarter second that roots, multscan, sweep and evolve would pay at start-up,
and calling sla.lapack.dgees, dtrsen, dtrsyl and sla.expm through the module
objects keeps wrappers patched onto those attributes (tracers, tests) in effect.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .symbols import NumericalError

ZERO_TOL_FACTOR = 1e-6
#: every modulus off a nonempty zero cluster is at least this multiple of every one in it
CLUSTER_GAP = 10.0
#: T11 singular values at most this multiple of |T_c|_F count as kernel (_cluster_values)
KERNEL_FLOOR = math.sqrt(np.finfo(float).eps)
PAIRING_CONDITION_LIMIT = 1e10
IDEMPOTENCY_TOL = 1e-8
#: largest dense symmetry block, 3 ceil(Mx/2) ceil(My/2) unknowns (88^2 on a rectangle)
MAX_DENSE_SIZE = 6000
MIN_CELLS = 8
#: largest max|A[S][:, S] - A| / max|A| over the box reflections S and, on a
#: square box and grid, the diagonal swap S
SYMMETRY_TOL = 1e-12
#: real parts are rounded to this multiple of max|lambda| before sorting
ORDER_QUANTUM = 1e-12
#: ln of the smallest subnormal double (-744.4): a mode with dt Re(lambda) below it
#: has underflowed one decay sample step in
LOG_TINY = math.log(np.finfo(float).smallest_subnormal)
#: decay forms the block states of at most this many samples at once
NORM_CHUNK = 256
#: 2^(-k/2), a product of k factors sqrt(1/2) rounded once
HALF_POWERS = 0.5 ** (np.arange(7) / 2)


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

    tag: str = "free"
    mu: float = 0.3
    b: float = 1.0

    def __post_init__(self):
        if self.tag not in ("free", "lt_variant"):
            raise ValueError(f"unknown boundary variant {self.tag!r}")
        if self.tag == "lt_variant" and not self.b > 0.0:
            raise ValueError("the damped variant requires b > 0")

    @property
    def damped(self) -> bool:
        return self.tag == "lt_variant"


def free(mu: float = 0.3) -> BCVariant:
    return BCVariant("free", mu=mu)


def lt_variant(mu: float = 0.3, b: float = 1.0) -> BCVariant:
    return BCVariant("lt_variant", mu=mu, b=b)


@dataclass
class DiscreteGenerator:
    """A generator as its nonzero entries: (rows, columns, values), row-major."""

    domain: DomainSpec
    bc: BCVariant
    cells: tuple
    entries: tuple
    ghost_condition: float

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.cells))

    @property
    def state_size(self) -> int:
        return 3 * self.n_cells

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense n x n oracle, formed from entries on first use; no kernel reads it."""
        out = np.zeros((self.state_size, self.state_size))
        out[self.entries[:2]] = self.entries[2]
        return out

    @property
    def sigma(self) -> float:
        """2^round(log2 h_min^-2): S = diag(sigma on u, 1 on v and theta), S A S^-1 exact."""
        h = min((b - a) / m for (a, b), m in zip(self.domain.bounds, self.cells))
        return 2.0 ** round(math.log2(h ** -2))

    @functools.cached_property
    def reflection_blocks(self) -> ReflectionBlocks:
        """The entries split by the symmetries of the box, checked and built
        once; the diagonal swap joins when the box and the grid are square."""
        square = (self.domain.dim == 2 and self.cells[0] == self.cells[1]
                  and len({b - a for a, b in self.domain.bounds}) == 1)
        return _reflection_blocks(self.entries, self.cells, square)

    def balanced_block(self, c: int) -> np.ndarray:
        """S_c B_c S_c^-1 of class c, formed anew on every call; the caller owns it
        and may overwrite it.

        The transposed entries fold by one bincount over the class map into B_c^T
        row-major, which is B_c column-major, as LAPACK takes it, and S_c scales it
        in place, exactly: sigma is a power of two.
        """
        rows, cols, values = self.entries
        B = _class_block((cols, rows, values), self.reflection_blocks.maps[c]).T
        s = _scaling(self, len(B))
        B *= s[:, None]
        B /= s
        return B

    @functools.cached_property
    def spectral_record(self) -> tuple:
        """(eigenvalues, zero_tol, decay margin, cluster singular values) of one T-only
        Schur form per block.  No |lambda| exceeds S A S^-1's largest row sum, so
        zero_tol is below near, and a T with no eigenvalue under near goes at once."""
        (rows, cols, a), s = self.entries, _scaling(self, self.state_size)
        near = 2.0 * ZERO_TOL_FACTOR * float(np.bincount(rows, np.abs(a * s[rows] / s[cols])).max())
        forms = _schur_forms(self, vectors=False, near=near)
        ev, zero_tol, margin = _bookkept([e for *_, e in forms], self.reflection_blocks.counts)
        values = [np.tile(_cluster_values(T, np.abs(e) <= zero_tol, c), k)
                  for c, ((T, _, e), k) in enumerate(zip(forms, self.reflection_blocks.counts))]
        return ev, zero_tol, margin, np.sort(np.concatenate(values))[::-1]

    @functools.cached_property
    def block_spectrum(self) -> tuple:
        """(eigenvalues, zero_tol, decay margin): spectral_record without the kernel
        count, so every T goes as soon as its eigenvalues are read (converge)."""
        return _bookkept([e for *_, e in _schur_forms(self, vectors=False, near=-math.inf)],
                         self.reflection_blocks.counts)

    @functools.cached_property
    def block_schur(self) -> tuple:
        """(T, Z, eigenvalues) per block: _schur_forms with Z, for decay and the projection."""
        return tuple(_schur_forms(self, vectors=True))

    @functools.cached_property
    def schur_spectrum(self) -> tuple:
        """(eigenvalues, zero_tol, decay margin) of block_schur (_bookkept)."""
        return _bookkept([ev for *_, ev in self.block_schur], self.reflection_blocks.counts)

    @functools.cached_property
    def cluster_projection(self) -> KernelProjection:
        """The oblique projection onto the zero cluster, block by block, formed
        once: it outlives block_schur, which decay reorders in place and drops.

        The cluster is |lambda| <= zero_tol of schur_spectrum.  A block with no
        eigenvalue in it (every damped one) gets empty factors and no more work.  Any
        other has its Schur form S_c B_c S_c^-1 = Z T Z^T (block_schur, shared with
        decay) reordered cluster first by _split, with its one dtrsyl for
        T11 Y - Y T22 = -T12 (a failed or rescaled solve means an unseparated cluster:
        NumericalError): V_c = S_c^-1 Z1, W_c = (Z1^T - Y Z2^T) S_c, the E pair's
        dimension counting twice.  pairing_condition is max_c sqrt(1 + |Y|_2^2) (1 with no
        cluster), idempotency_residual max_c max|P_c^2 - P_c| / max(max_c max|P_c|, 1), from
        P_c^2 - P_c = V_c (W_c V_c - I) W_c.  P_c is idempotent for every Y, so the residual
        sees rounding and Z, never Y; Y rests on dtrsyl's info and scale checks.
        """
        zero_tol = self.schur_spectrum[1]
        factors, cond, d, defect, top = [], 1.0, 0, 0.0, 0.0
        for c, ((T, Z, ev), k) in enumerate(zip(self.block_schur, self.reflection_blocks.counts)):
            cluster = np.abs(ev) <= zero_tol
            if not cluster.any():
                factors.append((np.zeros((len(T), 0)), np.zeros((0, len(T)))))
                continue
            s = _scaling(self, len(T))
            _, Z1, W, Y = _split(T, Z, cluster, f"zero cluster in block {c}")
            V, W = Z1 / s[:, None], W * s
            defect = max(defect, float(np.abs(V @ ((W @ V - np.eye(len(W))) @ W)).max()))
            top = max(top, float(np.abs(V @ W).max()))
            factors.append((V, W))
            cond, d = max(cond, float(np.hypot(1.0, np.linalg.norm(Y, 2)))), d + k * len(W)
        if not cond <= PAIRING_CONDITION_LIMIT:
            raise NumericalError(f"ill-conditioned subspace pairing (cond {cond:.3e})")
        residual = defect / max(top, 1.0)
        if not residual <= IDEMPOTENCY_TOL:
            raise NumericalError(f"projection is not idempotent (residual {residual:.3e})")
        return KernelProjection(d, tuple(factors), cond, residual)


def _bookkept(eigenvalues, counts) -> tuple:
    """(eigenvalues, zero_tol, decay margin) of the blocks' eigenvalues, E's twice.

    Report order: descending real part rounded to a multiple of ORDER_QUANTUM
    max|lambda| (roundoff-level gaps do not reorder rows), then descending
    imaginary part.  The zero cluster is |lambda| <= zero_tol = ZERO_TOL_FACTOR
    max|lambda|, the margin minus the spectral abscissa off it (inf if nothing is).
    zero_tol grows like h^-2, the physical modes do not: a cluster not
    CLUSTER_GAP times below every other modulus raises NumericalError.
    """
    ev = np.concatenate([np.tile(e, k) for e, k in zip(eigenvalues, counts)])
    top = float(np.abs(ev).max())
    ev = ev[np.lexsort((-ev.imag, -np.round(ev.real / (ORDER_QUANTUM * top))))]
    zero_tol = ZERO_TOL_FACTOR * top
    cluster = np.abs(ev) <= zero_tol
    inside, off = float(np.abs(ev[cluster]).max(initial=0.0)), ev[~cluster]
    if len(off) and not np.abs(off).min() >= CLUSTER_GAP * inside:
        raise NumericalError(f"zero cluster takes in physical modes: min |lambda| "
                             f"{np.abs(off).min():.4g} off it is below {CLUSTER_GAP:g} x "
                             f"max |lambda| {inside:.4g} in it (zero_tol {zero_tol:.4g})")
    return ev, zero_tol, float(-off.real.max()) if len(off) else math.inf


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
    block = 3 * math.prod((m + 1) // 2 for m in cells)
    if block > MAX_DENSE_SIZE:
        raise AssemblyError(f"grid {'x'.join(map(str, cells))}: largest symmetry block {block} "
                            f"above the dense limit {MAX_DENSE_SIZE} "
                            f"({2 * (MAX_DENSE_SIZE // 3)} cells on an interval)")
    return cells


def assemble_generator(domain: DomainSpec, grid_points, bc: BCVariant) -> DiscreteGenerator:
    if domain.dim == 2 and not bc.mu < 1.0:
        raise AssemblyError(f"mu must be below 1, where the free plate energy stops being "
                            f"coercive (got {bc.mu:g})")
    cells = _grid_cells(domain, grid_points)
    if domain.dim == 1 and bc.damped:
        raise AssemblyError("the damped variant requires a rectangle domain")
    steps = tuple((b - a) / m for (a, b), m in zip(domain.bounds, cells))
    triplets, cond = _assemble(cells, steps, bc)
    entries = _summed(*triplets, 3 * math.prod(cells))
    if not np.all(np.isfinite(entries[2])):
        raise AssemblyError("non-finite entries after ghost elimination")
    return DiscreteGenerator(domain, bc, cells, entries, cond)


def _summed(rows, cols, values, width: int) -> tuple:
    """Each (row, col) once, row-major: duplicates summed in order, exact zeros dropped."""
    keys, where = np.unique(rows * width + cols, return_inverse=True)
    values = np.bincount(where, values)
    return keys[values != 0] // width, keys[values != 0] % width, values[values != 0]


def _assemble(cells: tuple, steps: tuple, bc: BCVariant) -> tuple:
    """The generator as unsummed (row, column, value) triplets, and the ghost condition."""
    dim, M = len(cells), math.prod(cells)
    c, robin, feedback = bc.mu, (bc.b if bc.damped else 0.0), 0.5 * bc.damped
    # the grid padded by two layers, a flat index per point; columns: interior u,
    # theta cells, then u, theta ghosts, row-major (no column: past every array)
    ext = tuple(m + 4 for m in cells)
    strides = np.array([math.prod(ext[a + 1:]) for a in range(dim)])
    X = np.indices(ext).reshape(dim, -1) - 2
    outside = ((X < 0) | (X >= np.array(cells)[:, None])).sum(axis=0)
    first = (X == -1) | (X == np.array(cells)[:, None])
    corner = (outside == 2) & first.all(axis=0)
    ghost = np.stack([(outside == 1) | corner, (outside == 1) & first.any(axis=0)])
    lookup = np.full((2, X.shape[1]), 2 * X.shape[1])
    lookup[:, outside == 0] = np.arange(2 * M).reshape(2, M)
    lookup[ghost] = 2 * M + np.arange(np.count_nonzero(ghost))
    triplets = []

    def term(ghost_column, f, points, w):
        triplets.append((ghost_column - 2 * M, lookup[f, points], np.full(len(points), w)))

    # one equation per ghost, scaled by 2 h^2, h^3, h (O(1)-conditioned): (i) on the first u
    # layer g1, (ii) on the second, oriented by the outward normal nu so that reflections map
    # equations onto equations, (iii) on theta; at(k, d, t): k steps outward, then d along t
    for a, h in enumerate(steps):
        for nu in (-1, 1):
            g1 = np.flatnonzero((outside == 1) & (X[a] == (-1 if nu < 0 else cells[a])))
            at = lambda k, d=0, t=a: g1 + nu * k * strides[a] + d * strides[t]
            e1, e2, e3 = lookup[0, g1], lookup[0, at(1)], lookup[1, g1]
            for k, w1, w2 in ((-2, 1.0, -1.0), (-1, -1.0, 3.0), (0, -1.0, -3.0), (1, 1.0, 1.0)):
                term(e1, 0, at(k), w1)
                term(e2, 0, at(k), w2)
            for k, sgn in ((-1, -1.0), (0, 1.0)):
                for t, (d, w) in itertools.product(set(range(dim)) - {a}, LAP3):
                    w *= h * h / (steps[t] * steps[t])
                    term(e1, 0, at(k, d, t), c * w)
                    term(e2, 0, at(k, d, t), sgn * (2.0 - c) * w)
                term(e1, 1, at(k), h * h)
                term(e2, 0, at(k), -feedback * h ** 3)
                term(e2, 1, at(k), -feedback * robin * h ** 3)
            term(e3, 1, at(0), 1.0 + 0.5 * robin * h)
            term(e3, 1, at(-1), -(1.0 - 0.5 * robin * h))
    if dim == 2:
        corners = np.flatnonzero(corner)
        ix, iy = np.where(X[:, corners] < 0, 1, -1) * strides[:, None]
        for shift, w in ((0, 1.0), (iy, -1.0), (ix, -1.0), (ix + iy, 1.0)):
            term(lookup[0, corners], 0, corners + shift, w)
    # equations fold by their ghosts' maps: solve and take singular values per class
    er, ec, ev = (np.concatenate(z) for z in zip(*triplets))
    grid = np.indices(cells).reshape(dim, M)
    ghosts, touched, on = np.nonzero(ghost), np.unique(ec[ec < 2 * M]), ec >= 2 * M
    (gr, gc, gv), (tr, tc, tv) = ((er[on], ec[on] - 2 * M, ev[on]),
                                  (er[~on], np.searchsorted(touched, ec[~on]), ev[~on]))
    T, top, low = np.zeros((len(ghosts[0]), len(touched))), 0.0, math.inf
    for signs in itertools.product((1, -1), repeat=dim):
        g, ng = _class_map(ghosts[0], X[:, ghosts[1]], cells, signs)
        t, nt = _class_map(touched // M, grid[:, touched % M], cells, signs)
        Eg = np.bincount(g[0][gr] * ng + g[0][gc], _coefficients(g, gr, g, gc) * gv, ng * ng)
        Ei = np.bincount(g[0][tr] * nt + t[0][tc], _coefficients(g, tr, t, tc) * tv, ng * nt)
        sv = np.linalg.svdvals(Eg.reshape(ng, ng))
        try:
            if not sv[-1] > 0.0:
                raise np.linalg.LinAlgError(f"smallest singular value {sv[-1]:g}")
            Tc = np.linalg.solve(Eg.reshape(ng, ng), -Ei.reshape(ng, nt))
        except np.linalg.LinAlgError as exc:
            raise AssemblyError(f"singular ghost-elimination system: {exc}") from exc
        top, low = max(top, float(sv[0])), min(low, float(sv[-1]))
        gi, ti = np.ix_(np.arange(len(g[0])), np.arange(len(t[0])))
        T += _coefficients(g, gi, t, ti) * Tc[g[0][gi], t[0][ti]]

    # u' = v, v' = -(D4 + D2t)(u, theta), theta' = D2t(u, theta) + Lv v: a stencil
    # point adds its weight to one entry when it is a cell and weight times T[g]
    # to the touched columns of its row when it is ghost g
    cell, points = np.arange(M), np.flatnonzero(outside == 0)
    column = np.concatenate([cell, 2 * M + cell])
    ghost_part = np.zeros((2, M, len(touched)))
    triplets = [(cell, M + cell, np.ones(M))]

    def stencil(f, shift, w, parts):
        k = lookup[f, points + shift]
        on, off = k < 2 * M, k >= 2 * M
        for part, sign in parts:
            triplets.append(((1 + part) * M + cell[on], column[k[on]],
                             np.full(on.sum(), sign * w)))
            ghost_part[part, off] += (sign * w) * T[k[off] - 2 * M]

    for d, w in BIHARM5:
        for a, h in enumerate(steps):
            stencil(0, d * strides[a], w / h ** 4, ((0, -1.0),))
    if dim == 2:
        hx, hy = steps
        for (dx, wx), (dy, wy) in itertools.product(LAP3, LAP3):
            stencil(0, dx * strides[0] + dy * strides[1], 2.0 * wx * wy / (hx * hx * hy * hy),
                    ((0, -1.0),))
    for d, w in LAP3:
        for a, h in enumerate(steps):
            stencil(1, d * strides[a], w / h ** 2, ((0, -1.0), (1, 1.0)))
    for part in (0, 1):
        r, j = np.nonzero(ghost_part[part])
        triplets.append(((1 + part) * M + r, column[touched[j]], ghost_part[part, r, j]))
    # v has no boundary condition: one-sided lap v on the first and last cell
    for a, h in enumerate(steps):
        stride = math.prod(cells[a + 1:])
        lo, hi = grid[a] == 0, grid[a] == cells[a] - 1
        for sel, lv, sgn in ((~(lo | hi), LAP3, 1), (lo, ONE_SIDED, 1), (hi, ONE_SIDED, -1)):
            for d, w in lv:
                triplets.append((2 * M + cell[sel], M + cell[sel] + sgn * d * stride,
                                 np.full(sel.sum(), w / h ** 2)))
    return tuple(np.concatenate(z) for z in zip(*triplets)), top / low


# ---------------------------------------------------------------------------
# symmetry blocks

def _class_map(fields, X, cells: tuple, signs: tuple, swap: int = 0) -> tuple:
    """((coordinate, sign, number of sqrt(1/2) factors), number of coordinates)
    of each (field, point) in class (signs, swap); X (a row per axis) may reach
    into the ghost layers.  x and m - 1 - x fold onto min(x, m - 1 - x), the sign
    on the far side, an odd m's middle cell even only; a swap class then folds
    (i, j) and (j, i) onto i <= j, the sign times swap below the diagonal, the
    diagonal swap-even only.  Ranks are row-major.
    """
    folded, sign, pairs = [], np.ones(len(fields)), 0
    for x, m, s in zip(X, cells, signs):
        far, middle = 2 * x > m - 1, 2 * x == m - 1
        folded.append(np.where(far, m - 1 - x, x))
        sign = sign * np.where(far, s, 1) * (~middle | (s > 0))
        pairs = pairs + ~middle
    if swap:
        below, diagonal = folded[0] > folded[1], folded[0] == folded[1]
        folded = [np.minimum(*folded), np.maximum(*folded)]
        sign = sign * np.where(below, swap, 1) * (~diagonal | (swap > 0))
        pairs = pairs + ~diagonal
    key = np.array(fields)
    for x, m in zip(folded, cells):
        key = key * (m + 4) + x + 2
    index = np.zeros(len(key), dtype=np.intp)
    kept, index[sign != 0] = np.unique(key[sign != 0], return_inverse=True)
    return (index, sign, pairs), len(kept)


def _coefficients(a: tuple, i, b: tuple, j) -> np.ndarray:
    """C_c coefficient products of entries i of map a and j of map b (exact when even)."""
    return a[1][i] * b[1][j] * HALF_POWERS[a[2][i] + b[2][j]]


def _class_block(entries: tuple, fold: tuple) -> np.ndarray:
    """C_c^T A C_c by one bincount of A's entries over the class map."""
    rows, cols, values = entries
    n = int(fold[0].max()) + 1
    flat = fold[0][rows] * n + fold[0][cols]
    return np.bincount(flat, _coefficients(fold, rows, fold, cols) * values, n * n).reshape(n, n)


def _fold(fold: tuple, x: np.ndarray) -> np.ndarray:
    """C_c^T x by one bincount over the class map."""
    return np.bincount(fold[0], fold[1] * HALF_POWERS[fold[2]] * x)


@dataclass(frozen=True)
class ReflectionBlocks:
    """The generator in the orthonormal symmetry basis of the box.

    C_c maps class coordinates (field, half-grid cells row-major) to the state,
    and maps[c] is the state's _class_map: the block B_c = C_c^T A C_c is one
    bincount of the entries over it, which DiscreteGenerator.balanced_block forms,
    balanced, when a factorization needs it; no block is kept here.  The classes
    are the reflection parities, one sign per axis and +1 first; on a square box
    and grid (swap_residual not None) they are the D4 classes instead: (+,+) and
    (-,-) each swap-even then swap-odd, and last B_E of (+,-), which serves (-,+) too.
    """

    counts: tuple
    residual: float
    swap_residual: float | None
    maps: tuple

    @property
    def sizes(self) -> tuple:
        return tuple(int(m[0].max()) + 1 for m in self.maps)

    def restrict(self, x: np.ndarray) -> list:
        """C_c^T x per block; the E block's is the (+,-), (-,+) column pair, the
        (-,+) column in (+,-) coordinates, where B_E acts on it: the (+,-) fold
        of the swapped state x[P]."""
        out = [_fold(m, x) for m in self.maps]
        if self.swap_residual is not None:
            k = math.isqrt(len(x) // 3)
            out[-1] = np.column_stack(
                [out[-1], _fold(self.maps[-1], x.reshape(3, k, k).transpose(0, 2, 1).ravel())])
        return out


def _reflection_blocks(entries: tuple, cells: tuple, square: bool) -> ReflectionBlocks:
    """Check that A (its summed triplets) commutes with every axis reflection J,
    and on a square box and grid with the diagonal swap P, then map the classes.

    Each defect is max|A[S][:, S] - A| / max|A| over the entries; one above
    SYMMETRY_TOL raises NumericalError, since the blocks drop every coupling
    between classes.  A block is one bincount over its _class_map.
    """
    (rows, cols, values), n = entries, 3 * math.prod(cells)
    keys, scale = rows * n + cols, float(np.abs(values).max())
    state = np.arange(n).reshape(3, *cells)

    def defect(perm):
        image = perm[rows] * n + perm[cols]
        at = np.minimum(np.searchsorted(keys, image), len(keys) - 1)
        return float(np.abs(np.where(keys[at] == image, values[at], 0.0) - values).max()) / scale

    residual = max(defect(np.flip(state, 1 + a).ravel()) for a in range(len(cells)))
    if not residual <= SYMMETRY_TOL:
        raise NumericalError(f"generator is not reflection symmetric (residual "
                             f"{residual:.3e} above {SYMMETRY_TOL:g})")
    swap_residual = defect(state.transpose(0, 2, 1).ravel()) if square else None
    if square and not swap_residual <= SYMMETRY_TOL:
        raise NumericalError(f"generator is not swap symmetric (residual "
                             f"{swap_residual:.3e} above {SYMMETRY_TOL:g})")
    classes = ([((1, 1), 1), ((1, 1), -1), ((-1, -1), 1), ((-1, -1), -1), ((1, -1), 0)]
               if square else [(s, 0) for s in itertools.product((1, -1), repeat=len(cells))])
    fields = np.repeat(np.arange(3), n // 3)
    points = np.tile(np.indices(cells).reshape(len(cells), -1), 3)
    maps = tuple(_class_map(fields, points, cells, s, w)[0] for s, w in classes)
    return ReflectionBlocks((1, 1, 1, 1, 2) if square else (1,) * len(maps),
                            residual, swap_residual, maps)


def _scaling(gen: DiscreteGenerator, n: int) -> np.ndarray:
    """diag S_c of a block of order n; coordinates are field-major, a third each."""
    return np.repeat([gen.sigma, 1.0, 1.0], n // 3)


def _schur_forms(gen: DiscreteGenerator, vectors: bool, near: float = math.inf) -> list:
    """[(T, Z, eigenvalues)] per block (E's once): one dgees, sla.schur's call, of the
    balanced block in place (its workspace query too), S_c B_c S_c^-1 = Z T Z^T
    unsorted, Z None without vectors, T None if no |lambda| is at most near.  The
    eigenvalues are dgees's, read off T's diagonal blocks in order.  The largest
    block goes first; a dropped T goes before the next block is folded."""
    import scipy.linalg as sla

    sizes = gen.reflection_blocks.sizes
    out = [None] * len(sizes)
    for c in sorted(range(len(sizes)), key=lambda c: -sizes[c]):
        gees = functools.partial(sla.lapack.dgees, lambda *a: None, gen.balanced_block(c),
                                 compute_v=int(vectors), overwrite_a=True)
        T, _, wr, wi, Z, _, info = gees(lwork=int(gees(lwork=-1)[-2][0]))
        if info != 0:
            raise NumericalError(f"Schur decomposition of block {c} failed (dgees info {info})")
        ev = wr + 1j * wi
        out[c] = (T if np.abs(ev).min() <= near else None, Z if vectors else None, ev)
        del gees, T, Z
    return out


def _cluster_values(T: np.ndarray, cluster: np.ndarray, c: int) -> np.ndarray:
    """T11's singular values over |T|_F, T reordered cluster first in place by one
    dtrsen (job N; Q an untouched np.empty).  T22 is nonsingular (CLUSTER_GAP), so
    block c's nullity is T11's (d_c <= 3).  KERNEL_FLOOR = sqrt(eps) = 2^26 eps:
    dgees and dtrsen are backward stable, so a kernel direction keeps a value of
    p(n) eps, at most 7.8e-15 (35 eps) up to 800 cells and 32^2 on the free plates
    under 1 or 2 BLAS threads; the others, the rigid motions' Jordan couplings
    (u' = v), are at least 2.4e-3 there, falling like h^(1/2).  sqrt(eps) = 1.5e-8
    sits 1.9e6 above the first, 1.6e5 below the second and 3.5 from the gap's
    log-midpoint 4.3e-9."""
    if not cluster.any():
        return np.zeros(0)
    import scipy.linalg as sla

    norm = float(np.linalg.norm(T))
    T, _, _, _, m, _, _, info = sla.lapack.dtrsen(cluster, T, np.empty_like(T), job="N",
                                                  wantq=0, overwrite_t=True, overwrite_q=True)
    if info != 0:
        raise NumericalError(f"zero cluster in block {c} not separated (dtrsen info {info})")
    return np.linalg.svdvals(T[:m, :m]) / norm


def _split(T: np.ndarray, Z: np.ndarray, select: np.ndarray, what: str,
           overwrite: bool = False) -> tuple:
    """(T11, Z1, Z1^T - Y Z2^T, Y) for the selected eigenvalues of Z T Z^T.

    One dtrsen moves them to the front (reordering T and Z in place with
    overwrite), one dtrsyl solves T11 Y - Y T22 = -T12; Z1 (Z1^T - Y Z2^T) is
    then the spectral projector onto their invariant subspace.  A failed
    reorder, a failed or rescaled solve (eigenvalues on both sides too close)
    raises NumericalError naming what was split off.
    """
    import scipy.linalg as sla

    T, Z, *_, m, _, _, info = sla.lapack.dtrsen(select, T, Z, job="N", overwrite_t=overwrite,
                                                 overwrite_q=overwrite)
    if info != 0:
        raise NumericalError(f"{what} not separated (dtrsen info {info})")
    Y, scale, info = (sla.lapack.dtrsyl(T[:m, :m], T[m:, m:], -T[:m, m:], isgn=-1)
                      if m < len(T) else (np.zeros((m, 0)), 1.0, 0))
    if info != 0 or scale != 1.0 or not np.all(np.isfinite(Y)):
        raise NumericalError(f"{what} not separated (dtrsyl info {info})")
    return T[:m, :m], Z[:, :m], Z[:, :m].T - Y @ Z[:, m:].T, Y


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
    kernel_floor: float
    cluster_singular_values: np.ndarray


def spectrum(gen: DiscreteGenerator) -> SpectrumReport:
    """gen.spectral_record as a report: zero_cluster_count counts |lambda| <= zero_tol
    (Jordan directions too), kernel_dimension the cluster_singular_values (T11's over
    |T_c|_F, E's twice, descending) at most kernel_floor: rigid motions, theta field."""
    ev, zero_tol, margin, values = gen.spectral_record
    return SpectrumReport(
        eigenvalues=ev,
        grid=gen.cells,
        zero_tol=zero_tol,
        kernel_dimension=int((values <= KERNEL_FLOOR).sum()),
        zero_cluster_count=int((np.abs(ev) <= zero_tol).sum()),
        decay_margin=margin,
        max_real_part=float(ev.real.max()),
        largest_modulus=float(np.abs(ev).max()),
        kernel_floor=KERNEL_FLOOR,
        cluster_singular_values=values,
    )


# ---------------------------------------------------------------------------
# kernel and spectral projection

@dataclass
class KernelProjection:
    """The zero-cluster projection P_c = V_c W_c per block as factors (V_c, W_c).

    V_c is n_c x d_c, W_c d_c x n_c (d_c = 0 off the cluster); they act on the
    class coordinates of ReflectionBlocks.restrict, W_E on both E columns.  P_c is
    formed only to read max|P_c|, and the state projector sum C_c P_c C_c^T never.
    """

    algebraic_dimension: int
    factors: tuple
    pairing_condition: float
    idempotency_residual: float


def kernel_and_projection(gen: DiscreteGenerator) -> KernelProjection:
    """The oblique projection onto the zero cluster, formed once per generator
    (gen.cluster_projection)."""
    return gen.cluster_projection


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
    # the zero-cluster projection's diagnostics (0, 1.0, 0.0 with no cluster)
    projector_dimension: int
    pairing_condition: float
    idempotency_residual: float


def _scaled_norms(rows: np.ndarray) -> np.ndarray:
    """The 2-norm of each row, taken on the row divided by a power of two above
    its largest entry: zero only for a zero row, where a sum of squares
    underflows from about 1e-162."""
    scale = np.ldexp(1.0, np.frexp(np.abs(rows).max(axis=1))[1])
    return scale * np.linalg.norm(rows / scale[:, None], axis=1)


def decay_rate_experiment(gen: DiscreteGenerator, samples: int = 161,
                          horizon: float | None = None, seed: int = 0) -> DecayFit:
    """Fit exp(-eps t) to the norm history of a random trajectory.

    The fit window is the second half of the samples (index samples // 2 on),
    where the slowest surviving mode dominates; the margin off the zero cluster
    (gen.schur_spectrum) is the reference value.  Each block is factored once,
    by gen.block_schur (S_c B_c S_c^-1 = Z T Z^T), and _split reorders T twice.
    Cluster first (kernel_and_projection; empty when damped) projects the
    cluster off the restricted start, y_c - V_c W_c y_c.  Slow first keeps the
    eigenvalues off the cluster with dt Re(lambda) >= LOG_TINY (c = 744.4 / dt):
    for t >= dt the state is S_c^-1 Z1 e^{t T11} w_c, w_c = (Z1^T - Y Z2^T) S_c y_c,
    stepped by one k x k e^{dt T11} per block (the E pair as one two-column product).

    The dropped modes have underflowed one step in, e^{dt Re(lambda)} below every
    double; that their departure from normality keeps them there is assumed, not
    bounded (a Henrici-type bound overflows on these blocks), and the tests' dense
    expm oracles pin it.  The state norm is the 2-norm of the block states' norms,
    each through _scaled_norms, so the history reaches zero only when the states do.
    """
    import scipy.linalg as sla

    if samples < 8:
        raise ValueError("need at least 8 samples for a stable fit")
    if horizon is not None and not 0.0 < horizon < np.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    _, zero_tol, eps_spec = gen.schur_spectrum
    if not np.isfinite(eps_spec) or eps_spec <= 0:
        raise NumericalError(f"no positive spectral decay margin (got {eps_spec})")
    if horizon is None:
        # six significant digits: the margin's last digits move with the Schur
        # form's rounding (another BLAS thread count), the sample times must not
        horizon = float(f"{8.0 / eps_spec:.6g}")
    blocks, proj = gen.reflection_blocks, kernel_and_projection(gen)
    starts = [y - V @ (W @ y) for (V, W), y in zip(proj.factors, blocks.restrict(
        np.random.default_rng(seed).standard_normal(gen.state_size)))]
    dt = horizon / (samples - 1)
    forms = gen.block_schur
    del gen.block_schur  # the slow splits reorder the forms in place: decay takes them
    with np.errstate(over="ignore"):
        slow = [(np.abs(ev) > zero_tol) & (dt * ev.real >= LOG_TINY) for *_, ev in forms]
    parts = []
    try:
        for c, ((T, Z, _), sel, y) in enumerate(zip(forms, slow, starts)):
            part = np.zeros(samples)
            part[0] = _scaled_norms(y.reshape(1, -1))[0]
            if sel.any():
                s = _scaling(gen, len(T))
                T11, Z1, W, _ = _split(T, Z, sel, f"slow modes in block {c}", overwrite=True)
                V = Z1 / s[:, None]
                with np.errstate(over="raise", invalid="raise"):
                    step = sla.expm(dt * T11)
                    z = W @ (s[:, None] * y.reshape(len(T), -1))
                    # the states of NORM_CHUNK samples at a time: memory stays flat in samples
                    for i in range(1, samples, NORM_CHUNK):
                        path = np.empty((min(NORM_CHUNK, samples - i), *z.shape))
                        for j in range(len(path)):
                            z = path[j] = step @ z
                        part[i:i + len(path)] = _scaled_norms((V @ path).reshape(len(path), -1))
            parts.append(part)
    except (FloatingPointError, sla.LinAlgError) as exc:
        raise NumericalError(f"slow propagator over one sample step of the horizon "
                             f"{horizon:g} failed: {exc}") from exc
    norms = _scaled_norms(np.column_stack(parts))
    if not np.all(np.isfinite(norms)) or np.any(norms == 0.0):
        raise NumericalError(f"norm history is not finite or reached zero within the horizon "
                             f"{horizon:g}; shorten the horizon")
    times = np.linspace(0.0, horizon, samples)
    window = slice(samples // 2, None)
    try:
        # a window whose squared times underflow zeroes polyfit's column scale;
        # raise there, before LAPACK sees the NaNs
        with np.errstate(divide="raise", invalid="raise"):
            slope = np.polyfit(times[window], np.log(norms[window]), 1)[0]
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise NumericalError(f"decay fit over the window [{times[window][0]:g}, {horizon:g}] "
                             f"failed: {exc}") from exc
    fitted = float(-slope)
    if fitted <= 0.0:
        raise NumericalError(f"fitted decay rate {fitted:.3g} is not positive against the margin "
                             f"{eps_spec:.6g}: the norm does not fall over the fit window of the "
                             f"horizon {horizon:g} (default 8/margin = {8.0 / eps_spec:.3g})")
    gap = abs(fitted - eps_spec) / eps_spec
    return DecayFit(
        fitted_rate=fitted,
        spectral_rate=eps_spec,
        relative_gap=float(gap),
        times=times,
        norms=norms,
        window_start=float(times[window][0]),
        decaying=fitted > 0.1 * eps_spec,
        seed=seed,
        projector_dimension=proj.algebraic_dimension,
        pairing_condition=proj.pairing_condition,
        idempotency_residual=proj.idempotency_residual,
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
    ev, zero_tol, _ = gen.block_spectrum
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
    used = np.zeros(len(cand), dtype=bool)
    for i, lam in enumerate(ref):
        dist = np.where(used, np.inf, np.abs(cand - lam))
        k = int(np.argmin(dist))
        if dist[k] > 0.5 * max(abs(lam), 1.0):
            raise NumericalError(
                f"eigenvalue matching failed: {lam} has no partner "
                f"(nearest at distance {dist[k]:.3e})"
            )
        used[k] = True
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
