"""Order scans on shifted-sector samples, witness values, origin growth."""

import math

import numpy as np
import pytest

from thermoplate import multipliers as mp, symbols
from thermoplate.symbols import ROOTS


@pytest.fixture(scope="module")
def default_sample():
    return mp.SectorSample()


@pytest.fixture(scope="module")
def suite(default_sample):
    return mp.example_suite(default_sample)


class TestSectorSample:
    def test_defaults(self, default_sample):
        s = default_sample
        assert s.lambda0 == 1.0
        assert s.theta == pytest.approx(0.95 * ROOTS.theta0)
        assert s.dim == 2
        assert len(s.lambda_moduli) == 32
        assert len(s.xi_moduli) == 32

    def test_lambda_points_live_in_shifted_sector(self, default_sample):
        pts = default_sample.lambda_points()
        args = np.angle(pts - default_sample.lambda0)
        assert np.all(np.abs(args) <= default_sample.theta + 1e-12)

    def test_xi_points_shape(self, default_sample):
        pts = default_sample.xi_points()
        assert pts.shape[1] == 2
        # axes plus one diagonal direction per modulus
        assert pts.shape[0] == 32 * 3

    def test_rejects_nonpositive_shift_angle(self):
        with pytest.raises(ValueError):
            mp.SectorSample(theta=0.0)

    def test_rejects_negative_shift_and_wide_angle(self):
        # raised, not asserted, so the check survives python -O
        with pytest.raises(ValueError):
            mp.SectorSample(theta=4.0, lambda0=-1.0)


class TestExampleSuite:
    def test_all_positive_cases_pass(self, suite):
        for report in suite:
            assert report.passed, f"{report.symbol_id} failed the order scan"

    def test_declared_orders(self, suite):
        declared = {case[0]: case[2] for case in mp.EXAMPLE_CASES}
        for report in suite:
            assert report.order_s == declared[report.symbol_id]

    def test_alpha_coverage(self, suite):
        # dim 2, derivatives up to total order 3: 10 multi-indices
        for report in suite:
            assert report.max_alpha == 3
            assert len(report.records) == 10

    def test_constants_finite_and_positive(self, suite):
        for report in suite:
            for rec in report.records:
                assert np.isfinite(rec.c_alpha)
                assert rec.c_alpha >= 0.0

    def test_json_and_csv_round_trip(self, suite):
        report = suite[0]
        d = report.to_json_dict()
        assert d["symbol_id"] == report.symbol_id
        assert "not a proof" in d["note"]
        rows = report.to_csv_rows()
        assert rows[0].startswith("alpha,")
        assert len(rows) == len(report.records) + 1


class TestScanMechanics:
    def test_sample_monotonicity(self, default_sample):
        # scanning a sub-sample can only lower the sup
        sub = mp.SectorSample(
            lambda_moduli=tuple(np.asarray(default_sample.lambda_moduli)[::2]),
            xi_moduli=tuple(np.asarray(default_sample.xi_moduli)[::2]),
        )
        full = mp.multiplier_order_scan(mp.sym_xi_sq, 2.0, default_sample)
        part = mp.multiplier_order_scan(mp.sym_xi_sq, 2.0, sub)
        for rec_full, rec_part in zip(full.records, part.records):
            assert rec_part.c_alpha <= rec_full.c_alpha * (1 + 1e-12)

    def test_zeroth_constant_product_bound(self, default_sample):
        # |m1 m2| w^-(s1+s2) factorizes, so C_0 multiplies
        def product(xi, lam):
            return mp.sym_xi_sq(xi, lam) * mp.sym_inv_sqrt_lam_xi_sq(xi, lam)

        a = mp.multiplier_order_scan(mp.sym_xi_sq, 2.0, default_sample, max_alpha=0)
        b = mp.multiplier_order_scan(
            mp.sym_inv_sqrt_lam_xi_sq, -1.0, default_sample, max_alpha=0
        )
        c = mp.multiplier_order_scan(product, 1.0, default_sample, max_alpha=0)
        c0 = c.constant((0, 0))
        assert c0 <= a.constant((0, 0)) * b.constant((0, 0)) * (1 + 1e-12)
        assert c.passed

    def test_max_alpha_cap(self, default_sample):
        with pytest.raises(ValueError):
            mp.multiplier_order_scan(mp.sym_one, 0.0, default_sample, max_alpha=5)

    def test_ceiling_marks_failure(self, default_sample):
        report = mp.multiplier_order_scan(
            mp.sym_xi_4, 4.0, default_sample, ceiling=1.0
        )
        assert not report.passed

    def test_derivatives_of_squared_norm(self, default_sample):
        # first and second finite differences against the exact gradient/Hessian
        xi = default_sample.xi_points()
        keep = np.linalg.norm(xi, axis=1) >= 1e-2
        xi = xi[keep]
        lam = np.full(xi.shape[0], 2.0 + 0.5j)
        h = mp.STEP_FACTOR * np.maximum(
            np.abs(xi), np.linalg.norm(xi, axis=1, keepdims=True)
        )
        d1 = mp._central_difference(mp.sym_xi_sq, xi, lam, (1, 0), h)
        rel1 = np.abs(d1 - 2 * xi[:, 0]) / np.maximum(np.abs(2 * xi[:, 0]), 1e-30)
        assert rel1.max() <= 1e-6
        d2 = mp._central_difference(mp.sym_xi_sq, xi, lam, (2, 0), h)
        assert np.abs(d2 - 2.0).max() <= 1e-6 * 2.0
        d11 = mp._central_difference(mp.sym_xi_sq, xi, lam, (1, 1), h)
        # the cross derivative vanishes; the iterated difference leaves
        # cancellation noise at the cube-root-of-eps level
        scale = np.maximum(np.sum(xi * xi, axis=1), 1.0)
        assert (np.abs(d11) / scale).max() <= 1e-5

    def test_derivatives_of_root_weight(self, default_sample):
        # d/dxi_k sqrt(lam + |xi|^2) = xi_k / sqrt(lam + |xi|^2); the finite
        # difference is only trustworthy while |lam| does not dwarf |xi|^2
        xi_all = default_sample.xi_points()
        lam_all = default_sample.lambda_points()
        XI = np.repeat(xi_all, lam_all.size, axis=0)
        LAM = np.tile(lam_all, xi_all.shape[0])
        s = np.sum(XI * XI, axis=1)
        keep = np.abs(LAM) <= 1e4 * s
        XI, LAM = XI[keep], LAM[keep]
        h = mp.STEP_FACTOR * np.maximum(
            np.abs(XI), np.linalg.norm(XI, axis=1, keepdims=True)
        )
        d1 = mp._central_difference(mp.sym_sqrt_lam_xi_sq, XI, LAM, (1, 0), h)
        exact = XI[:, 0] / np.sqrt(LAM + np.sum(XI * XI, axis=1))
        rel = np.abs(d1 - exact) / np.maximum(np.abs(exact), 1e-12)
        assert rel.max() <= 1e-6


class TestResolventEntryScans:
    @pytest.mark.parametrize("j", [0, 2])
    def test_all_entries_pass(self, j, default_sample):
        scans = mp.scaled_resolvent_entry_scans(j, default_sample)
        assert len(scans) == 9
        for (row, col), report in scans.items():
            assert report.passed, f"entry ({row},{col}) of order-{j} symbol failed"

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_entry_symbol_matches_scaled_symbol(self, j):
        # one mixed-lambda batch through each entry symbol, against the 3x3
        # symbol at every point; array and scalar arithmetic may round apart
        rng = np.random.default_rng(4)
        xi = 10.0 ** rng.uniform(-1.5, 1.5, size=(40, 2))
        lam = 1.0 + 10.0 ** rng.uniform(-2, 2, 40) * np.exp(1j * rng.uniform(-1.6, 1.6, 40))
        blocks = [symbols.scaled_resolvent_symbol(j, x, l) for x, l in zip(xi, lam)]
        for row in range(3):
            for col in range(3):
                got = mp.resolvent_entry_symbol(j, row, col)(xi, lam)
                want = [m[row, col] for m in blocks]
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_requires_shifted_sample(self):
        bad = mp.SectorSample(lambda0=0.0)
        with pytest.raises(ValueError):
            mp.scaled_resolvent_entry_scans(0, bad)


class TestOriginBehavior:
    def test_constant_one_origin_growth(self):
        base, extended = mp.constant_one_origin_growth()
        assert extended / base >= 1e3

    def test_witness_matches_closed_form(self):
        for k in (1.0, 10.0, 100.0):
            w = mp.nonsectoriality_witness(k)
            c = mp.witness_closed_form(k)
            assert abs(w - c) <= 1e-12 * c

    def test_witness_value_at_ten(self):
        assert mp.witness_closed_form(10.0) == pytest.approx(20.2, abs=1e-12)

    def test_witness_requires_positive_k(self):
        with pytest.raises(ValueError):
            mp.nonsectoriality_witness(0.0)
