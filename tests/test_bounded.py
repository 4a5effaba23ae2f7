"""Discrete generators on intervals and rectangles: spectra, kernels, decay."""

import dataclasses
import functools
import itertools
import json
import math

import numpy as np
import pytest
import scipy.linalg as sla

from thermoplate import bounded, cli


def continuum_kernel_fields(gen):
    """Analytic kernel elements of the free operator sampled at the cell centers:
    (name, state vector) pairs with zero v; the damped variant has none."""
    if gen.bc.damped:
        return []
    centers = [a + (np.arange(m) + 0.5) * ((b - a) / m)
               for (a, b), m in zip(gen.domain.bounds, gen.cells)]
    mesh = [x.ravel() for x in np.meshgrid(*centers, indexing="ij")]
    ones, zeros = np.ones(gen.n_cells), np.zeros(gen.n_cells)
    linear = [(f"linear_{axis}", x, zeros) for axis, x in zip("xy", mesh)]
    # theta = 1 pairs with u = -|x|^2 / (2 (1 + mu)) on the rectangle and -x^2 / 2 on
    # the interval, where mu drops out with the tangential terms
    quadratic = -sum(x * x for x in mesh) / (2.0 * (1.0 + gen.bc.mu) if gen.domain.dim == 2
                                             else 2.0)
    items = [("constant", ones, zeros), *linear, ("quadratic_theta", quadratic, ones)]
    return [(name, np.concatenate([u, zeros, th])) for name, u, th in items]


@pytest.fixture(scope="module")
def gen1d():
    return bounded.assemble_generator(
        bounded.interval(0.0, 1.0), 100, bounded.free()
    )


@pytest.fixture(scope="module")
def spec1d(gen1d):
    return bounded.spectrum(gen1d)


@pytest.fixture(scope="module")
def gen2d():
    return bounded.assemble_generator(
        bounded.rectangle(0.0, 1.0, 0.0, 1.0), 12, bounded.free(0.3)
    )


class TestValidation:
    def test_domain_shapes(self):
        assert bounded.interval(0.0, 2.0).dim == 1
        assert bounded.rectangle().dim == 2
        with pytest.raises(ValueError):
            bounded.DomainSpec(bounds=((1.0, 1.0),))

    def test_variant_domain_pairing(self):
        with pytest.raises(bounded.AssemblyError, match="damped variant requires a rectangle"):
            bounded.assemble_generator(bounded.interval(), 50, bounded.lt_variant())

    def test_minimum_cells(self):
        with pytest.raises(bounded.AssemblyError):
            bounded.assemble_generator(bounded.interval(), 4, bounded.free())

    def test_dense_size_limit_before_assembly(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("assembled a grid above the dense limit")

        monkeypatch.setattr(bounded, "_assemble", refuse)
        # the bound is on the largest symmetry block, 3 ceil(M/2) on an interval
        cells = 2 * (bounded.MAX_DENSE_SIZE // 3) + 1
        assert bounded._grid_cells(bounded.interval(), cells - 1) == (cells - 1,)
        assert bounded._grid_cells(bounded.rectangle(), 64) == (64, 64)
        with pytest.raises(bounded.AssemblyError, match="dense limit"):
            bounded.assemble_generator(bounded.interval(), cells, bounded.free())
        with pytest.raises(bounded.AssemblyError, match="dense limit"):
            bounded.assemble_generator(bounded.rectangle(), 10**10, bounded.lt_variant())
        with pytest.raises(bounded.AssemblyError, match="dense limit"):
            bounded.convergence_study(bounded.rectangle(), bounded.lt_variant(),
                                      (25, 50, 100))

    def test_lt_requires_positive_robin_coefficient(self):
        with pytest.raises(ValueError):
            bounded.lt_variant(0.3, 0.0)

    @pytest.mark.parametrize("mu", [1.0, 1.5, np.nan])
    def test_rectangle_mu_below_one(self, mu):
        # the ghost system is singular at mu = 1 and the spectrum leaves the
        # left half plane beyond it; mu does not enter the interval
        for variant in (bounded.free, bounded.lt_variant):
            with pytest.raises(bounded.AssemblyError, match="mu must be below 1"):
                bounded.assemble_generator(bounded.rectangle(), 8, variant(mu))
        assert bounded.assemble_generator(bounded.rectangle(), 8, bounded.free(0.99)).bc.mu == 0.99
        assert bounded.assemble_generator(bounded.interval(), 20, bounded.free(mu)).state_size == 60
        assert bounded.free().mu == 0.3

    def test_damped_flag(self):
        assert bounded.lt_variant().damped
        assert not bounded.free().damped


class TestInterval:
    def test_matrix_shape_and_reality(self, gen1d):
        assert gen1d.matrix.shape == (300, 300)
        assert gen1d.matrix.dtype == np.float64
        assert np.all(np.isfinite(gen1d.matrix))

    def test_spectral_enclosure(self, spec1d):
        assert spec1d.max_real_part <= spec1d.zero_tol

    def test_conjugate_symmetry(self, spec1d):
        ev = spec1d.eigenvalues
        paired = np.sort_complex(ev.conj())
        assert np.allclose(np.sort_complex(ev), paired, rtol=0, atol=1e-9)

    def test_zero_cluster_and_kernel(self, spec1d):
        assert spec1d.zero_cluster_count == 5
        assert spec1d.kernel_dimension == 3
        assert len(spec1d.smallest_singular_values) == 8
        sv = np.asarray(spec1d.smallest_singular_values)
        assert np.all(np.diff(sv) >= 0)

    def test_kernel_count_on_fine_grid(self):
        # on the unbalanced blocks the fourth-smallest singular value (7.8e-5)
        # fell under the floor (9.1e-4) here; balanced, the third is 1.1e-10,
        # the floor 7.1e-9 and the fourth 4.6e-3
        gen = bounded.assemble_generator(bounded.interval(), 400, bounded.free())
        rep = bounded.spectrum(gen)
        assert rep.kernel_dimension == 3
        assert rep.zero_cluster_count == 5

    def test_slowest_oscillatory_pair(self, spec1d):
        # physical oracle for the unit interval: about -2.09 +/- 30.11i
        ev = spec1d.eigenvalues
        nz = ev[(np.abs(ev) > spec1d.zero_tol) & (ev.imag > 1.0)]
        slow = nz[np.argmax(nz.real)]
        assert slow.real == pytest.approx(-2.09, abs=0.03)
        assert slow.imag == pytest.approx(30.11, abs=0.05)

    def test_kernel_fields_annihilated(self, gen1d):
        fields = continuum_kernel_fields(gen1d)
        assert [name for name, _ in fields] == [
            "constant",
            "linear_x",
            "quadratic_theta",
        ]
        for _, vec in fields:
            r = np.linalg.norm(gen1d.matrix @ vec) / np.linalg.norm(vec)
            assert r <= 1e-6

    def test_kernel_residual_is_roundoff_level(self):
        # polynomials up to degree 2 are reproduced exactly by the stencils,
        # so the defect is machine noise amplified by the h^-4 matrix scale
        dom = bounded.interval(0.0, 1.0)
        bc = bounded.free()
        for m in (50, 100):
            gen = bounded.assemble_generator(dom, m, bc)
            floor = 100.0 * np.finfo(float).eps * np.abs(gen.matrix).max()
            for _, v in continuum_kernel_fields(gen):
                r = np.linalg.norm(gen.matrix @ v) / np.linalg.norm(v)
                assert r <= floor

    def test_jordan_action_on_velocity_block(self, gen1d):
        m = gen1d.n_cells
        z = np.zeros(m)
        u, v, t = np.split(gen1d.matrix @ np.concatenate([z, np.ones(m), z]), 3)
        assert np.abs(u - 1.0).max() <= 1e-9
        assert np.abs(v).max() <= 1e-9
        assert np.abs(t).max() <= 1e-6


def _assert_commutes(gen, projectors, tol):
    """P_c B_c = B_c P_c in every parity block, entrywise to tol."""
    for p, b in zip(projectors, gen.reflection_blocks.blocks, strict=True):
        assert np.abs(p @ b - b @ p).max() <= tol


class TestProjection:
    def test_dimensions_and_quality(self, gen1d):
        proj = bounded.kernel_and_projection(gen1d)
        assert proj.algebraic_dimension == 5
        assert proj.idempotency_residual <= bounded.IDEMPOTENCY_TOL
        assert proj.pairing_condition < bounded.PAIRING_CONDITION_LIMIT

    def test_commutes_with_generator(self, gen1d):
        proj = bounded.kernel_and_projection(gen1d)
        _assert_commutes(gen1d, proj.projectors, 1e-6 * np.abs(gen1d.matrix).max())

    def test_rank_matches_trace(self, gen1d):
        projectors = bounded.kernel_and_projection(gen1d).projectors
        assert sum(np.trace(p) for p in projectors) == pytest.approx(5.0, abs=1e-6)

    def test_real_projector_on_fine_grid(self):
        # n = 600: a projector built in complex arithmetic leaves an
        # imaginary part above 1e-6 here, so the real path must hold
        gen = bounded.assemble_generator(
            bounded.interval(0.0, 1.0), 200, bounded.free()
        )
        proj = bounded.kernel_and_projection(gen)
        assert all(p.dtype == np.float64 for p in proj.projectors)
        assert proj.algebraic_dimension == 5
        assert sum(np.trace(p) for p in proj.projectors) == pytest.approx(5.0, abs=1e-6)
        assert proj.idempotency_residual <= bounded.IDEMPOTENCY_TOL
        _assert_commutes(gen, proj.projectors, 1e-6 * np.abs(gen.matrix).max())

    def test_matches_contour_integral_projector(self):
        # the trapezoid rule for (2 pi i)^-1 of the resolvent on |z| = 1/2, 64 nodes:
        # the cluster sits at |lambda| <= 2e-5, the next eigenvalue at 4.9, and the
        # rule on the balanced blocks agrees with it to 1.5e-12.  Measured, relative
        # to |P_c|_2: 2.7e-13 on the even block and 3.4e-10 on the odd one (the
        # two-Schur projector was 4.7e-9 and 1.1e-8 off)
        gen = bounded.assemble_generator(*PARITY_CASES["interval25"])
        proj = bounded.kernel_and_projection(gen)
        z = 0.5 * np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
        for p, b in zip(proj.projectors, gen.reflection_blocks.blocks, strict=True):
            eye = np.eye(len(b))
            contour = sum(zk * np.linalg.inv(zk * eye - b) for zk in z) / len(z)
            assert np.abs(contour.imag).max() <= 1e-12
            assert np.linalg.norm(p - contour.real, 2) <= 3e-9 * np.linalg.norm(p, 2)

    @pytest.mark.parametrize("scale, info", [(1.0, 1), (0.5, 0)])
    def test_unseparated_cluster_is_rejected(self, monkeypatch, scale, info):
        # dtrsyl reports info = 1 when T11 and T22 share (nearly) an eigenvalue,
        # and scales the solution down when it would overflow
        monkeypatch.setattr(sla.lapack, "dtrsyl", lambda a, b, c, **kw: (0.0 * c, scale, info))
        gen = bounded.assemble_generator(*PARITY_CASES["interval25"])
        with pytest.raises(bounded.NumericalError, match="not separated"):
            bounded.kernel_and_projection(gen)

    def test_unseparated_cluster_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sla.lapack, "dtrsyl", lambda a, b, c, **kw: (0.0 * c, 1.0, 1))
        rc = cli.main(["decay", "--grid", "20", "--out", str(tmp_path / "never")])
        assert rc == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "not separated" in err[0]
        assert not (tmp_path / "never").exists()

    def test_empty_cluster_for_damped_variant(self):
        gen = bounded.assemble_generator(
            bounded.rectangle(), 12, bounded.lt_variant(0.3, 1.0)
        )
        proj = bounded.kernel_and_projection(gen)
        assert proj.algebraic_dimension == 0
        assert all(np.abs(p).max() == 0.0 for p in proj.projectors)


class TestZeroCluster:
    def test_cluster_swallowing_physical_modes_is_refused(self, spec1d, tmp_path, monkeypatch,
                                                          capsys):
        # zero_tol 20 at 100 cells takes in the real mode -4.94 (as zero_tol does
        # by itself from about 1200 cells), only 4.4 times below the next modulus 21.8
        monkeypatch.setattr(bounded, "ZERO_TOL_FACTOR", 20.0 / spec1d.largest_modulus)
        gen = bounded.assemble_generator(bounded.interval(), 100, bounded.free())
        for run in (bounded.spectrum, bounded.kernel_and_projection,
                    bounded.decay_rate_experiment):
            with pytest.raises(bounded.NumericalError, match="takes in physical modes"):
                run(gen)
        rc = cli.main(["spectrum", "--grid", "100", "--out", str(tmp_path / "never")])
        assert rc == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: zero cluster")
        assert "4.94" in err[0] and "zero_tol 20" in err[0]
        assert not (tmp_path / "never").exists()

    def test_default_cluster_sits_far_below_the_physical_modes(self, gen1d):
        ev, zero_tol, _ = gen1d.block_spectrum
        cluster = np.abs(ev) <= zero_tol
        assert cluster.sum() == 5
        assert np.abs(ev[~cluster]).min() >= 270 * np.abs(ev[cluster]).max()


class TestDecayRate:
    def test_projected_fit_matches_abscissa(self, gen1d):
        fit = bounded.decay_rate_experiment(gen1d)
        assert fit.decaying
        assert fit.relative_gap <= 0.10
        assert fit.spectral_rate == pytest.approx(2.09, abs=0.03)

    def test_projection_follows_the_zero_cluster(self, gen1d, monkeypatch):
        # the free fit projects its cluster off; the damped cluster is empty,
        # so that fit carries no diagnostics and takes no Schur form
        fit = bounded.decay_rate_experiment(gen1d)
        assert fit.projector_dimension == 5
        assert fit.pairing_condition < bounded.PAIRING_CONDITION_LIMIT
        assert fit.idempotency_residual <= bounded.IDEMPOTENCY_TOL
        damped = bounded.assemble_generator(bounded.rectangle(), 12, bounded.lt_variant())
        monkeypatch.setattr(sla, "schur", lambda *a, **k: pytest.fail("schur on a damped fit"))
        bare = bounded.decay_rate_experiment(damped)
        assert bounded.spectrum(damped).zero_cluster_count == 0
        assert [bare.projector_dimension, bare.pairing_condition,
                bare.idempotency_residual] == [None, None, None]

    def test_deterministic_given_seed(self, gen1d):
        a = bounded.decay_rate_experiment(gen1d, seed=4)
        b = bounded.decay_rate_experiment(gen1d, seed=4)
        assert a.fitted_rate == b.fitted_rate
        assert np.array_equal(a.norms, b.norms)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.nan, np.inf])
    def test_horizon_must_be_positive_and_finite(self, gen1d, horizon):
        with pytest.raises(ValueError, match="horizon"):
            bounded.decay_rate_experiment(gen1d, horizon=horizon)

    def test_balanced_projector_keeps_the_fine_grid_fit(self):
        # decay --grid 200 --seed 3: the gap is 0.0018 with the balanced blocks;
        # one Schur form of the unbalanced blocks reads 0.111 here (0.977 at 400)
        gen = bounded.assemble_generator(*PARITY_CASES["interval200"])
        fit = bounded.decay_rate_experiment(gen, seed=3)
        assert fit.relative_gap <= 0.01

    def test_csv_rows(self, gen1d):
        fit = bounded.decay_rate_experiment(gen1d)
        rows = cli._csv("t,norm", zip(fit.times, fit.norms)).splitlines()
        assert rows[0] == "t,norm"
        assert len(rows) == len(fit.times) + 1


class TestConvergence:
    def test_orders_in_second_order_window(self):
        rep = bounded.convergence_study(
            bounded.interval(), bounded.free(), (50, 100, 200), count=4
        )
        assert np.all(rep.orders >= 1.5)
        assert np.all(rep.orders <= 2.5)

    def test_non_nested_rejected(self):
        with pytest.raises(ValueError, match="non-nested"):
            bounded.convergence_study(
                bounded.interval(), bounded.free(), (50, 75, 100)
            )

    @pytest.mark.parametrize("count", [0, -1])
    def test_needs_a_mode_to_track(self, count):
        with pytest.raises(ValueError, match="at least one mode"):
            bounded.convergence_study(
                bounded.interval(), bounded.free(), (8, 16, 32), count=count
            )

    def test_needs_three_grids(self):
        with pytest.raises(ValueError):
            bounded.convergence_study(
                bounded.interval(), bounded.free(), (50, 100)
            )


class TestRectangle:
    def test_free_spectrum_oracles(self, gen2d):
        rep = bounded.spectrum(gen2d)
        assert rep.max_real_part <= rep.zero_tol
        assert rep.zero_cluster_count == 7
        assert rep.kernel_dimension == 4

    def test_free_kernel_fields(self, gen2d):
        fields = continuum_kernel_fields(gen2d)
        names = [name for name, _ in fields]
        assert names == ["constant", "linear_x", "linear_y", "quadratic_theta"]
        for _, vec in fields:
            r = np.linalg.norm(gen2d.matrix @ vec) / np.linalg.norm(vec)
            assert r <= 1e-6

    def test_ghost_elimination_well_conditioned(self, gen2d):
        assert gen2d.ghost_condition < 1e3

    def test_lt_spectrum_strictly_decaying(self):
        gen = bounded.assemble_generator(
            bounded.rectangle(), 16, bounded.lt_variant(0.3, 1.0)
        )
        rep = bounded.spectrum(gen)
        assert rep.zero_cluster_count == 0
        assert rep.max_real_part < 0.0
        assert continuum_kernel_fields(gen) == []

    def test_lt_robin_coefficient_shifts_spectrum(self):
        # stronger boundary cooling must not create growing modes
        for b in (0.5, 2.0):
            gen = bounded.assemble_generator(
                bounded.rectangle(), 12, bounded.lt_variant(0.3, b)
            )
            rep = bounded.spectrum(gen)
            assert rep.max_real_part < 0.0


class TestNonSquareRectangle:
    @pytest.mark.parametrize("variant", [bounded.free(0.3), bounded.lt_variant(0.3, 1.0)])
    def test_transposed_domain_is_permuted_generator(self, variant):
        wide = bounded.assemble_generator(bounded.rectangle(0.0, 2.0, 0.0, 1.0), (12, 10), variant)
        tall = bounded.assemble_generator(bounded.rectangle(0.0, 1.0, 0.0, 2.0), (10, 12), variant)
        # tall cell (j, i) is wide cell (i, j), in each of the three fields
        cells = np.arange(120).reshape(12, 10).T.ravel()
        perm = np.concatenate([cells + k * 120 for k in range(3)])
        a = wide.matrix
        assert np.abs(tall.matrix - a[np.ix_(perm, perm)]).max() <= 1e-13 * np.abs(a).max()

    def test_free_kernel_residual_is_roundoff_level(self):
        gen = bounded.assemble_generator(
            bounded.rectangle(0.0, 2.0, 0.0, 1.0), (12, 10), bounded.free(0.3)
        )
        floor = 100.0 * np.finfo(float).eps * np.abs(gen.matrix).max()
        fields = continuum_kernel_fields(gen)
        assert len(fields) == 4
        for _, v in fields:
            assert np.linalg.norm(gen.matrix @ v) / np.linalg.norm(v) <= floor


PARITY_CASES = {
    "interval25": (bounded.interval(), 25, bounded.free()),
    "interval200": (bounded.interval(), 200, bounded.free()),
    "damped16": (bounded.rectangle(), 16, bounded.lt_variant(0.3, 1.0)),
    "free12": (bounded.rectangle(), 12, bounded.free(0.3)),
    "damped9x13": (bounded.rectangle(), (9, 13), bounded.lt_variant(0.3, 1.0)),
    "damped9": (bounded.rectangle(), 9, bounded.lt_variant(0.3, 1.0)),
    "box2x1": (bounded.rectangle(0.0, 2.0, 0.0, 1.0), 16, bounded.lt_variant(0.3, 1.0)),
}


@pytest.fixture(scope="module", params=list(PARITY_CASES))
def parity_gen(request):
    return bounded.assemble_generator(*PARITY_CASES[request.param])


def _report_order(ev):
    top = np.abs(ev).max()
    return ev[np.lexsort((-ev.imag, -np.round(ev.real / (bounded.ORDER_QUANTUM * top))))]


def _dense_projector(a, zero_tol, d=None):
    # with d, the projector of diag(d) a diag(d)^-1, mapped back: the same
    # projector, computed where the Schur form is better conditioned
    if d is not None:
        return _dense_projector(a * d[:, None] / d, zero_tol) / d[:, None] * d
    keep = lambda x, y: np.hypot(x, y) <= zero_tol
    _, zr, d = sla.schur(a, output="real", sort=keep)
    _, zl, _ = sla.schur(a.T, output="real", sort=keep)
    v, w = zr[:, :d], zl[:, :d]
    return v @ np.linalg.solve(w.T @ v, w.T)


def _balancing(gen):
    """diag S: sigma on the u cells, 1 on v and theta."""
    return np.repeat([gen.sigma, 1.0, 1.0], gen.n_cells)


def _balanced_matrix(gen):
    """S A S^-1 for the generator's balancing S: dense LAPACK oracles stay at
    roundoff on it, where the h^-4-scaled A puts them off their bars."""
    s = _balancing(gen)
    return gen.matrix * s[:, None] / s


def _balanced_blocks(gen):
    """S_c B_c S_c^-1 per block; its coordinates run field by field, a third each."""
    return [b * s[:, None] / s for b in gen.reflection_blocks.blocks
            for s in [np.repeat([gen.sigma, 1.0, 1.0], len(b) // 3)]]


def _appended(triplets, rows, cols, values):
    """(row, col, value) triplets with more triplets after them."""
    return tuple(np.concatenate(z) for z in zip(triplets, (rows, cols, values)))


def _swap_defect(values, cells):
    """1e-8 max|A| times a diagonal even in x and constant in y, as triplets.

    It commutes with both reflections but not with the diagonal swap.
    """
    x = (np.arange(cells[0]) - 0.5 * (cells[0] - 1)) ** 2
    diag = np.arange(3 * math.prod(cells))
    return diag, diag, 1e-8 * np.abs(values).max() * np.tile(np.repeat(x, cells[1]), 3)


def _restrict_columns(blocks, m):
    """Q m, where Q stacks the C_c^T: every column of m restricted to the classes.

    The E pair's two columns follow each other.
    """
    return np.column_stack([np.concatenate([y.ravel(order="F") for y in blocks.restrict(col)])
                            for col in m.T])


def _per_class(blocks, mats):
    """One matrix per class: the E block's counts twice, in restrict order."""
    return [m for m, k in zip(mats, blocks.counts, strict=True) for _ in range(k)]


def _restricted_dense_projector(gen, d=None):
    """Q P Q^T for the dense Schur projector P: restrict its columns, then its rows."""
    dense = _dense_projector(gen.matrix, gen.block_spectrum[1], d)
    blocks = gen.reflection_blocks
    return dense, _restrict_columns(blocks, _restrict_columns(blocks, dense).T).T


class TestReflectionBlocks:
    """The block path against dense LAPACK on the whole matrix."""

    def test_blocks_split_the_state(self, parity_gen):
        blocks = parity_gen.reflection_blocks
        assert blocks.residual <= bounded.SYMMETRY_TOL
        # the square grids split by the swap as well: five blocks, E counted twice
        dihedral = parity_gen.domain.bounds == bounded.rectangle().bounds and len(
            set(parity_gen.cells)) == 1
        assert len(blocks.sizes) == (5 if dihedral else 2 ** parity_gen.domain.dim)
        assert (blocks.swap_residual is not None) == dihedral
        assert sum(k * m for k, m in zip(blocks.counts, blocks.sizes)) == parity_gen.state_size
        x = np.random.default_rng(1).standard_normal(parity_gen.state_size)
        parts = blocks.restrict(x)
        assert [y.shape for y in parts] == [(m, k) if k > 1 else (m,)
                                            for m, k in zip(blocks.sizes, blocks.counts)]
        flat = np.concatenate([y.ravel() for y in parts])
        assert np.linalg.norm(flat) == pytest.approx(np.linalg.norm(x))
        q = _restrict_columns(blocks, np.eye(parity_gen.state_size))
        assert np.abs(q.T @ q - np.eye(parity_gen.state_size)).max() <= 1e-14

    def test_eigenvalues_match_dense_row_by_row(self, parity_gen):
        ev, zero_tol, _ = parity_gen.block_spectrum
        dense = _report_order(np.linalg.eigvals(parity_gen.matrix))
        top = np.abs(dense).max()
        off = np.abs(dense) > zero_tol
        assert np.array_equal(off, np.abs(ev) > zero_tol)
        assert np.abs(ev - dense)[off].max() <= 1e-10 * top

    def test_singular_values_and_counts_match_dense(self, parity_gen):
        # the singular values are the balanced generator's, S A S^-1
        rep = bounded.spectrum(parity_gen)
        sv = np.linalg.svd(_balanced_matrix(parity_gen), compute_uv=False)
        dense_ev = np.linalg.eigvals(parity_gen.matrix)
        blocks = parity_gen.reflection_blocks
        balanced = _per_class(blocks, _balanced_blocks(parity_gen))
        sv_blocks = np.sort(np.concatenate([np.linalg.svd(b, compute_uv=False) for b in balanced]))
        assert np.abs(sv_blocks[::-1] - sv).max() <= 1e-13 * sv[0]
        assert np.abs(rep.smallest_singular_values - sv[-8:][::-1]).max() <= 1e-13 * sv[0]
        kernel_tol = bounded.KERNEL_SV_FACTOR * bounded.MACHINE_EPS * sv[0]
        assert rep.kernel_tolerance == pytest.approx(kernel_tol, rel=1e-13)
        assert rep.kernel_dimension == int((sv <= kernel_tol).sum())
        assert rep.zero_cluster_count == int((np.abs(dense_ev) <= rep.zero_tol).sum())
        assert rep.symmetry_residual == blocks.residual
        assert rep.swap_residual == blocks.swap_residual
        assert rep.block_sizes == blocks.sizes
        assert rep.ghost_condition == parity_gen.ghost_condition

    def test_projectors_have_block_shapes(self, parity_gen):
        projectors = bounded.kernel_and_projection(parity_gen).projectors
        sizes = parity_gen.reflection_blocks.sizes
        assert [p.shape for p in projectors] == [(m, m) for m in sizes]

    @pytest.mark.parametrize("case", ["interval25", "free12"])
    def test_block_projector_matches_dense_schur(self, case):
        # the off-diagonal class pairs of the restricted dense projector must
        # vanish; unbalanced, the dense oracle is off by 1.8e-5 and 6.2e-4 on
        # the 100- and 200-cell intervals' Jordan clusters (see below)
        gen = bounded.assemble_generator(*PARITY_CASES[case])
        proj = bounded.kernel_and_projection(gen)
        # the dense oracle runs on the balanced generator too; against a 64-point
        # contour-integral projector it sits at 9.7e-13 and 9.4e-13 |P|, the blocks
        # at 5.0e-13 and 1.7e-13
        dense, restricted = _restricted_dense_projector(gen, _balancing(gen))
        scale = max(np.linalg.norm(dense, 2), 1.0)
        diff = restricted - sla.block_diag(*_per_class(gen.reflection_blocks, proj.projectors))
        assert np.linalg.norm(diff, 2) <= 1e-8 * scale

    def test_fine_grid_projector_is_a_spectral_projector(self):
        gen = bounded.assemble_generator(*PARITY_CASES["interval200"])
        a = gen.matrix
        projectors = bounded.kernel_and_projection(gen).projectors
        # balanced, the dense oracle agrees with the blocks to 2.6e-9 |P|
        dense, restricted = _restricted_dense_projector(gen, _balancing(gen))
        norm = np.linalg.norm
        scale = 1e-12 * norm(a, 2) * max(norm(p, 2) for p in projectors)
        for p, b in zip(projectors, gen.reflection_blocks.blocks, strict=True):
            assert norm(b @ p - p @ b, 2) <= scale
        assert norm(a @ dense - dense @ a, 2) <= 1e-12 * norm(a, 2) * norm(dense, 2)
        diff = restricted - sla.block_diag(*projectors)
        assert norm(diff, 2) <= 1e-2 * norm(dense, 2)

    def test_decay_norms_match_dense_expm(self):
        gen = bounded.assemble_generator(*PARITY_CASES["damped16"])
        fit = bounded.decay_rate_experiment(gen, seed=3)
        step = sla.expm(gen.matrix * (fit.times[1] - fit.times[0]))
        state = np.random.default_rng(3).standard_normal(gen.state_size)
        norms = []
        for _ in fit.times:
            norms.append(np.linalg.norm(state))
            state = step @ state
        norms = np.array(norms)
        assert (np.abs(fit.norms - norms) / norms).max() <= 1e-6
        # the swap-even and swap-odd halves of (+,+) and (-,-), then the E pair
        assert fit.block_sizes == (108, 84, 108, 84, 192)
        assert fit.symmetry_residual == gen.reflection_blocks.residual
        assert fit.swap_residual == gen.reflection_blocks.swap_residual
        assert fit.ghost_condition == gen.ghost_condition

    def test_structure_is_built_once(self, monkeypatch):
        gen = bounded.assemble_generator(*PARITY_CASES["interval25"])
        calls = []
        build = bounded._reflection_blocks
        monkeypatch.setattr(bounded, "_reflection_blocks",
                            lambda *args: calls.append(1) or build(*args))
        bounded.decay_rate_experiment(gen)
        bounded.spectrum(gen)
        assert len(calls) == 1

    def test_asymmetric_perturbation_is_rejected(self):
        gen = bounded.assemble_generator(*PARITY_CASES["damped16"])
        skew = 1e-8 * np.abs(gen.entries[2]).max()
        entries = bounded._summed(*_appended(gen.entries, [0], [1], [skew]), gen.state_size)
        bad = dataclasses.replace(gen, entries=entries)
        for run in (bounded.spectrum, bounded.decay_rate_experiment,
                    bounded.kernel_and_projection):
            with pytest.raises(bounded.NumericalError, match="reflection symmetric"):
                run(bad)

    def test_asymmetric_generator_exits_3(self, tmp_path, monkeypatch, capsys):
        assemble = bounded._assemble

        def skewed(cells, *rest):
            triplets, cond = assemble(cells, *rest)
            top = np.abs(bounded._summed(*triplets, 3 * math.prod(cells))[2]).max()
            return _appended(triplets, [0], [1], [1e-8 * top]), cond

        monkeypatch.setattr(bounded, "_assemble", skewed)
        rc = cli.main(["spectrum", "--grid", "16", "--out", str(tmp_path)])
        assert rc == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "reflection symmetric" in err[0]

    def test_no_dense_call_on_the_whole_matrix(self, monkeypatch):
        shapes = []
        seen = []

        def record(owner, name, operands=1):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                shapes.extend((np.shape(a), seen[-1]) for a in args[:operands])
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in ((np.linalg, "eigvals"), (np.linalg, "svd"),
                            (sla, "schur"), (sla, "expm")):
            record(owner, name)
        assemble, solve = bounded.assemble_generator, np.linalg.solve

        def assembled(*args):
            # the ghost solve belongs to assembly, so it runs unrecorded
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "solve", solve)
                gen = assemble(*args)
            seen.append(gen.state_size)
            return gen

        monkeypatch.setattr(bounded, "assemble_generator", assembled)
        free = bounded.assemble_generator(bounded.interval(), 40, bounded.free())
        damped = bounded.assemble_generator(bounded.rectangle(), 12, bounded.lt_variant())
        record(np.linalg, "solve", operands=2)
        bounded.spectrum(damped)
        bounded.decay_rate_experiment(damped)
        seen.append(free.state_size)
        bounded.spectrum(free)
        bounded.kernel_and_projection(free)
        bounded.decay_rate_experiment(free)
        bounded.convergence_study(bounded.interval(), bounded.free(), (16, 32, 64))
        assert len(shapes) >= 16
        for shape, n in shapes:
            assert max(shape) <= n // 2, (shape, n)


class TestFactorizationBudget:
    @pytest.mark.parametrize("case", [(bounded.interval(), 100, bounded.free()),
                                      PARITY_CASES["free12"]], ids=["interval100", "free12"])
    def test_decay_factors_each_block_once(self, case, monkeypatch):
        gen = bounded.assemble_generator(*case)
        blocks = gen.reflection_blocks
        calls = {}
        for owner, name in ((np.linalg, "eigvals"), (sla, "schur"), (sla, "expm")):
            def wrapper(a, *args, _fn=getattr(owner, name), _name=name, **kwargs):
                calls.setdefault(_name, []).append(np.array(a))
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)
        fit = bounded.decay_rate_experiment(gen)
        dt = fit.times[1] - fit.times[0]
        # eigvals on the blocks, one Schur form of each balanced block (never of
        # a transpose: no block is symmetric) and one exponential of B_c dt
        for name, expected in (
                ("eigvals", blocks.blocks),
                ("schur", _balanced_blocks(gen)),
                ("expm", [b * dt for b in blocks.blocks])):
            assert len(calls[name]) == len(expected), name
            for a, b in zip(calls[name], expected):
                assert np.array_equal(a, b), name
        # spectrum and the projector read the same eigenvalues: one eigvals per
        # block over all three calls, and one more Schur form per block
        bounded.spectrum(gen)
        bounded.kernel_and_projection(gen)
        assert len(calls["eigvals"]) == len(blocks.blocks)
        assert len(calls["schur"]) == 2 * len(blocks.blocks)


class TestExport:
    def test_spectrum_report_serialization(self, spec1d):
        d = json.loads(cli._bounded_json(spec1d))
        assert d["zero_cluster_count"] == 5
        assert d["block_sizes"] == [150, 150]
        assert 0.0 <= d["symmetry_residual"] <= bounded.SYMMETRY_TOL
        # an interval has no diagonal swap, so no swap_residual either
        assert "swap_residual" not in d
        assert 1.0 <= d["ghost_condition"] < 1e3
        assert len(d["eigenvalues"]) == len(spec1d.eigenvalues)
        rows = cli._csv("re,im", zip(spec1d.eigenvalues.real,
                                     spec1d.eigenvalues.imag)).splitlines()
        assert rows[0] == "re,im"
        assert len(rows) == len(spec1d.eigenvalues) + 1


D4_CASES = {
    "damped16": PARITY_CASES["damped16"],
    "free12": PARITY_CASES["free12"],
    # the grid of acceptance criterion 7
    "damped24": (bounded.rectangle(), 24, bounded.lt_variant(0.3, 1.0)),
}


class TestDihedralBlocks:
    """The swap split on square grids, against dense LAPACK and the parity blocks."""

    @pytest.mark.parametrize("case", list(D4_CASES))
    def test_eigenvalues_match_dense_and_parity_blocks(self, case):
        gen = bounded.assemble_generator(*D4_CASES[case])
        assert gen.reflection_blocks.counts == (1, 1, 1, 1, 2)
        ev, zero_tol, _ = gen.block_spectrum
        parity = bounded._reflection_blocks(gen.entries, gen.cells, False)
        assert parity.counts == (1, 1, 1, 1) and parity.swap_residual is None
        # the dense oracle runs on the balanced generator, an exact similarity
        for oracle in (np.linalg.eigvals(_balanced_matrix(gen)),
                       np.concatenate([np.linalg.eigvals(b) for b in parity.blocks])):
            oracle = _report_order(oracle)
            off = np.abs(oracle) > zero_tol
            assert np.array_equal(off, np.abs(ev) > zero_tol)
            assert np.abs(ev - oracle)[off].max() <= 1e-13 * np.abs(oracle).max()

    def test_e_pair_blocks_are_one_block(self):
        # B_{-+} is B_{+-} with both half-grids transposed
        gen = bounded.assemble_generator(*PARITY_CASES["damped9"])
        blocks = gen.reflection_blocks
        parity = bounded._reflection_blocks(gen.entries, gen.cells, False)
        assert blocks.sizes == (45, 30, 30, 18, 60)
        assert blocks.swap_residual <= bounded.SYMMETRY_TOL
        pm, mp = parity.blocks[1], parity.blocks[2]
        perm = np.arange(60).reshape(3, 5, 4).transpose(0, 2, 1).ravel()
        assert np.array_equal(blocks.blocks[-1], pm)
        assert np.abs(pm[np.ix_(perm, perm)] - mp).max() <= (
            blocks.swap_residual * np.abs(gen.matrix).max())

    @pytest.mark.parametrize("case", ["damped9x13", "box2x1"])
    def test_non_square_keeps_the_parity_blocks(self, case):
        gen = bounded.assemble_generator(*PARITY_CASES[case])
        blocks = gen.reflection_blocks
        parity = bounded._reflection_blocks(gen.entries, gen.cells, False)
        assert blocks.swap_residual is None and blocks.counts == (1, 1, 1, 1)
        for a, b in zip(blocks.blocks, parity.blocks, strict=True):
            assert np.array_equal(a, b)
        assert bounded.spectrum(gen).swap_residual is None

    def test_swap_breaking_perturbation_is_rejected(self):
        gen = bounded.assemble_generator(*PARITY_CASES["damped16"])
        defect = _swap_defect(gen.entries[2], gen.cells)
        entries = bounded._summed(*_appended(gen.entries, *defect), gen.state_size)
        bad = dataclasses.replace(gen, entries=entries)
        # both reflections still hold
        parity = bounded._reflection_blocks(bad.entries, bad.cells, False)
        assert parity.residual <= 1e-15
        for run in (bounded.spectrum, bounded.decay_rate_experiment,
                    bounded.kernel_and_projection):
            with pytest.raises(bounded.NumericalError, match="swap symmetric"):
                run(bad)

    def test_swap_asymmetric_generator_exits_3(self, tmp_path, monkeypatch, capsys):
        assemble = bounded._assemble

        def skewed(cells, *rest):
            triplets, cond = assemble(cells, *rest)
            values = bounded._summed(*triplets, 3 * math.prod(cells))[2]
            return _appended(triplets, *_swap_defect(values, cells)), cond

        monkeypatch.setattr(bounded, "_assemble", skewed)
        argv = ["spectrum", "--domain", "rectangle", "--bc", "lt", "--grid", "16"]
        assert cli.main([*argv, "--out", str(tmp_path / "never")]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "swap symmetric" in err[0]
        assert not (tmp_path / "never").exists()

    def test_projected_decay_norms_match_dense_expm(self):
        # the E pair's kernel part is projected out of both columns by P_E
        gen = bounded.assemble_generator(*PARITY_CASES["free12"])
        fit = bounded.decay_rate_experiment(gen, seed=5)
        assert fit.projector_dimension == 7
        a = gen.matrix
        state = np.random.default_rng(5).standard_normal(gen.state_size)
        state -= _dense_projector(a, gen.block_spectrum[1], _balancing(gen)) @ state
        step = sla.expm(a * (fit.times[1] - fit.times[0]))
        norms = []
        for _ in fit.times:
            norms.append(np.linalg.norm(state))
            state = step @ state
        norms = np.array(norms)
        assert (np.abs(fit.norms - norms) / norms).max() <= 1e-6


def _parity_basis(cells, signs):
    """C_c of a parity class from its definition: (x_i + s x_{M-1-i}) / sqrt 2 per
    axis, the middle cell of an odd count alone in the even class; columns
    (field, half-grid cells row-major)."""
    axes = []
    for m, s in zip(cells, signs):
        fold = np.zeros((m, (m + (s > 0)) // 2))
        for i in range(fold.shape[1]):
            if 2 * i == m - 1:
                fold[i, i] = 1.0
            else:
                fold[i, i], fold[m - 1 - i, i] = math.sqrt(0.5), s * math.sqrt(0.5)
        axes.append(fold)
    return np.kron(np.eye(3), functools.reduce(np.kron, axes))


def _swap_basis(k, sign):
    """The swap fold of a (3, k, k) half-grid from its definition: x_ii, and
    (x_ij + sign x_ji) / sqrt 2 over i < j."""
    pairs = [(i, j) for i in range(k) for j in range(i if sign > 0 else i + 1, k)]
    fold = np.zeros((k * k, len(pairs)))
    for col, (i, j) in enumerate(pairs):
        if i == j:
            fold[i * k + i, col] = 1.0
        else:
            fold[i * k + j, col], fold[j * k + i, col] = math.sqrt(0.5), sign * math.sqrt(0.5)
    return np.kron(np.eye(3), fold)


class TestClassMaps:
    """The bincount folds against C_c built densely from its definition."""

    @pytest.mark.parametrize("case", list({**PARITY_CASES, **D4_CASES}))
    def test_blocks_and_restrict_follow_the_definition(self, case):
        gen = bounded.assemble_generator(*{**PARITY_CASES, **D4_CASES}[case])
        rows, cols, values = gen.entries
        # summed: no explicit zero, and every (row, col) once, row-major
        assert np.all(values != 0)
        assert np.all(np.diff(rows * gen.state_size + cols) > 0)
        blocks = gen.reflection_blocks
        signs = list(itertools.product((1, -1), repeat=gen.domain.dim))
        parity = {s: _parity_basis(gen.cells, s) for s in signs}
        if blocks.swap_residual is None:
            bases = [parity[s] for s in signs]
        else:
            bases = [parity[s] @ _swap_basis((gen.cells[0] + (s[0] > 0)) // 2, swap)
                     for s in ((1, 1), (-1, -1)) for swap in (1, -1)] + [parity[1, -1]]
        a = gen.matrix
        for b, c in zip(blocks.blocks, bases, strict=True):
            assert np.abs(b - c.T @ a @ c).max() <= 1e-14 * np.abs(values).max()
        x = np.random.default_rng(7).standard_normal(gen.state_size)
        for y, c in zip(blocks.restrict(x), bases, strict=True):
            expected = c.T @ x
            if y.ndim == 2:
                # the (-,+) column in (+,-) coordinates
                mp = parity[-1, 1].T @ x
                half = ((gen.cells[0] + 1) // 2, gen.cells[0] // 2)
                expected = np.column_stack(
                    [expected, mp.reshape(3, half[1], half[0]).swapaxes(1, 2).ravel()])
            assert np.abs(y - expected).max() <= 1e-14 * np.abs(x).max()

    @pytest.mark.parametrize("case", list({**PARITY_CASES, **D4_CASES}))
    def test_residuals_follow_the_dense_definition(self, case):
        # max|A[J][:, J] - A| / max|A|, over the reflections J and for the swap P
        gen = bounded.assemble_generator(*{**PARITY_CASES, **D4_CASES}[case])
        blocks, a = gen.reflection_blocks, gen.matrix
        defect = lambda p: np.abs(a[np.ix_(p, p)] - a).max() / np.abs(a).max()
        state = np.arange(gen.state_size).reshape(3, *gen.cells)
        assert blocks.residual == max(defect(np.flip(state, 1 + axis).ravel())
                                      for axis in range(gen.domain.dim))
        if blocks.swap_residual is not None:
            assert blocks.swap_residual == defect(state.transpose(0, 2, 1).ravel())
