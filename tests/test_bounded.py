"""Discrete generators on intervals and rectangles: spectra, kernels, decay."""

import json

import numpy as np
import pytest

from thermoplate import bounded, cli


@pytest.fixture(scope="module")
def gen1d():
    return bounded.assemble_generator(
        bounded.interval(0.0, 1.0), 100, bounded.free_beta(0.5)
    )


@pytest.fixture(scope="module")
def spec1d(gen1d):
    return bounded.spectrum(gen1d)


@pytest.fixture(scope="module")
def gen2d():
    return bounded.assemble_generator(
        bounded.rectangle(0.0, 1.0, 0.0, 1.0), 12, bounded.free_2d(0.3)
    )


class TestValidation:
    def test_domain_shapes(self):
        assert bounded.interval(0.0, 2.0).dim == 1
        assert bounded.rectangle().dim == 2
        with pytest.raises(ValueError):
            bounded.DomainSpec(bounds=((1.0, 1.0),))

    def test_variant_domain_pairing(self):
        with pytest.raises(bounded.AssemblyError):
            bounded.assemble_generator(bounded.interval(), 50, bounded.lt_variant())
        with pytest.raises(bounded.AssemblyError):
            bounded.assemble_generator(bounded.interval(), 50, bounded.free_2d())

    def test_minimum_cells(self):
        with pytest.raises(bounded.AssemblyError):
            bounded.assemble_generator(bounded.interval(), 4, bounded.free_beta())

    def test_dense_size_limit_before_assembly(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("assembled a grid above the dense limit")

        monkeypatch.setattr(bounded, "_assemble", refuse)
        cells = bounded.MAX_DENSE_SIZE // 3 + 1
        with pytest.raises(bounded.AssemblyError, match="dense limit"):
            bounded.assemble_generator(bounded.interval(), cells, bounded.free_beta())
        with pytest.raises(bounded.AssemblyError, match="dense limit"):
            bounded.assemble_generator(bounded.rectangle(), 10**10, bounded.lt_variant())
        with pytest.raises(bounded.AssemblyError, match="dense limit"):
            bounded.convergence_study(bounded.rectangle(), bounded.lt_variant(),
                                      (25, 50, 100))

    def test_lt_requires_positive_robin_coefficient(self):
        with pytest.raises(ValueError):
            bounded.lt_variant(0.3, 0.0)

    def test_damped_flag(self):
        assert bounded.lt_variant().damped
        assert not bounded.free_beta().damped
        assert not bounded.free_2d().damped


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

    def test_slowest_oscillatory_pair(self, spec1d):
        # physical oracle for the unit interval: about -2.09 +/- 30.11i
        ev = spec1d.eigenvalues
        nz = ev[(np.abs(ev) > spec1d.zero_tol) & (ev.imag > 1.0)]
        slow = nz[np.argmax(nz.real)]
        assert slow.real == pytest.approx(-2.09, abs=0.03)
        assert slow.imag == pytest.approx(30.11, abs=0.05)

    def test_kernel_fields_annihilated(self, gen1d):
        fields = bounded.continuum_kernel_fields(gen1d)
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
        bc = bounded.free_beta(0.5)
        for m in (50, 100):
            gen = bounded.assemble_generator(dom, m, bc)
            floor = 100.0 * np.finfo(float).eps * np.abs(gen.matrix).max()
            for _, v in bounded.continuum_kernel_fields(gen):
                r = np.linalg.norm(gen.matrix @ v) / np.linalg.norm(v)
                assert r <= floor

    def test_beta_does_not_enter(self):
        # no tangential direction in 1D, so the coupling coefficient drops out
        dom = bounded.interval(0.0, 1.0)
        a, b = (bounded.assemble_generator(dom, 60, bounded.free_beta(beta)).matrix
                for beta in (0.1, 0.9))
        assert np.array_equal(a, b)

    def test_jordan_action_on_velocity_block(self, gen1d):
        m = gen1d.n_cells
        z = np.zeros(m)
        u, v, t = gen1d.unpack(gen1d.matrix @ gen1d.pack(z, np.ones(m), z))
        assert np.abs(u - 1.0).max() <= 1e-9
        assert np.abs(v).max() <= 1e-9
        assert np.abs(t).max() <= 1e-6


class TestProjection:
    def test_dimensions_and_quality(self, gen1d):
        proj = bounded.kernel_and_projection(gen1d)
        assert proj.algebraic_dimension == 5
        assert proj.idempotency_residual <= bounded.IDEMPOTENCY_TOL
        assert proj.pairing_condition < bounded.PAIRING_CONDITION_LIMIT

    def test_commutes_with_generator(self, gen1d):
        p = bounded.kernel_and_projection(gen1d).projector
        a = gen1d.matrix
        assert np.abs(p @ a - a @ p).max() <= 1e-6 * np.abs(a).max()

    def test_rank_matches_trace(self, gen1d):
        p = bounded.kernel_and_projection(gen1d).projector
        assert np.trace(p) == pytest.approx(5.0, abs=1e-6)

    def test_real_projector_on_fine_grid(self):
        # n = 600: a projector built in complex arithmetic leaves an
        # imaginary part above 1e-6 here, so the real path must hold
        gen = bounded.assemble_generator(
            bounded.interval(0.0, 1.0), 200, bounded.free_beta(0.5)
        )
        proj = bounded.kernel_and_projection(gen)
        p, a = proj.projector, gen.matrix
        assert p.dtype == np.float64
        assert proj.algebraic_dimension == 5
        assert np.trace(p) == pytest.approx(5.0, abs=1e-6)
        assert proj.idempotency_residual <= bounded.IDEMPOTENCY_TOL
        assert np.abs(p @ a - a @ p).max() <= 1e-6 * np.abs(a).max()

    def test_empty_cluster_for_damped_variant(self):
        gen = bounded.assemble_generator(
            bounded.rectangle(), 12, bounded.lt_variant(0.3, 1.0)
        )
        proj = bounded.kernel_and_projection(gen)
        assert proj.algebraic_dimension == 0
        assert np.abs(proj.projector).max() == 0.0


class TestEvolution:
    def test_projection_follows_zero_tol(self, gen1d):
        # a wider zero tolerance takes in a sixth eigenvalue; the projector
        # must follow it rather than reuse the one built for the default
        wide = bounded.kernel_and_projection(gen1d, 20.0)
        p, a = wide.projector, gen1d.matrix
        assert wide.algebraic_dimension == 6
        assert np.abs(p @ p - p).max() <= bounded.IDEMPOTENCY_TOL
        assert np.abs(p @ a - a @ p).max() <= 1e-6 * np.abs(a).max()


class TestDecayRate:
    def test_projected_fit_matches_abscissa(self, gen1d):
        fit = bounded.decay_rate_experiment(gen1d)
        assert fit.decaying
        assert fit.relative_gap <= 0.10
        assert fit.spectral_rate == pytest.approx(2.09, abs=0.03)

    def test_unprojected_fit_stalls_on_kernel(self, gen1d):
        fit = bounded.decay_rate_experiment(gen1d, project_off_kernel=False)
        # the generalized kernel freezes the norm, so no decay is seen
        assert not fit.decaying

    def test_projector_diagnostics(self, gen1d):
        fit = bounded.decay_rate_experiment(gen1d)
        assert fit.projector_dimension == 5
        assert fit.pairing_condition < bounded.PAIRING_CONDITION_LIMIT
        assert fit.idempotency_residual <= bounded.IDEMPOTENCY_TOL
        bare = bounded.decay_rate_experiment(gen1d, project_off_kernel=False)
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

    def test_csv_rows(self, gen1d):
        fit = bounded.decay_rate_experiment(gen1d)
        rows = cli._csv("t,norm", zip(fit.times, fit.norms)).splitlines()
        assert rows[0] == "t,norm"
        assert len(rows) == len(fit.times) + 1


class TestConvergence:
    def test_orders_in_second_order_window(self):
        rep = bounded.convergence_study(
            bounded.interval(), bounded.free_beta(0.5), (50, 100, 200), count=4
        )
        assert np.all(rep.orders >= 1.5)
        assert np.all(rep.orders <= 2.5)

    def test_non_nested_rejected(self):
        with pytest.raises(ValueError, match="non-nested"):
            bounded.convergence_study(
                bounded.interval(), bounded.free_beta(0.5), (50, 75, 100)
            )

    @pytest.mark.parametrize("count", [0, -1])
    def test_needs_a_mode_to_track(self, count):
        with pytest.raises(ValueError, match="at least one mode"):
            bounded.convergence_study(
                bounded.interval(), bounded.free_beta(0.5), (8, 16, 32), count=count
            )

    def test_needs_three_grids(self):
        with pytest.raises(ValueError):
            bounded.convergence_study(
                bounded.interval(), bounded.free_beta(0.5), (50, 100)
            )


class TestRectangle:
    def test_free_spectrum_oracles(self, gen2d):
        rep = bounded.spectrum(gen2d)
        assert rep.max_real_part <= rep.zero_tol
        assert rep.zero_cluster_count == 7
        assert rep.kernel_dimension == 4

    def test_free_kernel_fields(self, gen2d):
        fields = bounded.continuum_kernel_fields(gen2d)
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
        assert bounded.continuum_kernel_fields(gen) == []

    def test_lt_robin_coefficient_shifts_spectrum(self):
        # stronger boundary cooling must not create growing modes
        for b in (0.5, 2.0):
            gen = bounded.assemble_generator(
                bounded.rectangle(), 12, bounded.lt_variant(0.3, b)
            )
            rep = bounded.spectrum(gen)
            assert rep.max_real_part < 0.0


class TestNonSquareRectangle:
    @pytest.mark.parametrize("variant", [bounded.free_2d(0.3), bounded.lt_variant(0.3, 1.0)])
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
            bounded.rectangle(0.0, 2.0, 0.0, 1.0), (12, 10), bounded.free_2d(0.3)
        )
        floor = 100.0 * np.finfo(float).eps * np.abs(gen.matrix).max()
        fields = bounded.continuum_kernel_fields(gen)
        assert len(fields) == 4
        for _, v in fields:
            assert np.linalg.norm(gen.matrix @ v) / np.linalg.norm(v) <= floor


class TestExport:
    def test_spectrum_report_serialization(self, spec1d):
        d = json.loads(cli._json_text(spec1d))
        assert d["zero_cluster_count"] == 5
        assert len(d["eigenvalues"]) == len(spec1d.eigenvalues)
        rows = cli._csv("re,im", zip(spec1d.eigenvalues.real,
                                     spec1d.eigenvalues.imag)).splitlines()
        assert rows[0] == "re,im"
        assert len(rows) == len(spec1d.eigenvalues) + 1
