"""Order scans on shifted-sector samples, witness values, origin growth."""

import dataclasses
import itertools
import math
import warnings

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

    @pytest.mark.parametrize(
        "bad",
        [
            {"lambda_moduli": (1.0, math.nan)},
            {"lambda_moduli": (math.nan, 1.0)},
            {"lambda_moduli": (1.0, math.inf)},
            {"xi_moduli": (0.5, math.nan)},
            {"xi_moduli": (-1.0, 2.0)},
            {"lambda0": math.inf},
            {"lambda0": math.nan},
            {"arg_fractions": (0.0, math.nan)},
            {"arg_fractions": (math.inf,)},
        ],
    )
    def test_rejects_non_finite_axes(self, bad):
        # min() skips a NaN after the first element, so each entry is checked
        with pytest.raises(ValueError):
            mp.SectorSample(**bad)

    def test_axes_are_stored_as_float_tuples(self):
        s = mp.SectorSample(lambda_moduli=np.array([1.0, 2.0]), xi_moduli=[1, 3],
                            arg_fractions=np.array([-0.0, 0.5]), dim=np.int64(1))
        for axis in (s.lambda_moduli, s.xi_moduli, s.arg_fractions):
            assert type(axis) is tuple
            assert all(type(v) is float for v in axis)
        assert type(s.dim) is int
        # -0.0 == 0.0, so equal samples must not sample different points
        assert math.copysign(1.0, s.arg_fractions[0]) == 1.0
        twin = mp.SectorSample(lambda_moduli=(1.0, 2.0), xi_moduli=(1.0, 3.0),
                               arg_fractions=(0.0, 0.5), dim=1)
        assert s == twin and hash(s) == hash(twin)

    @pytest.mark.parametrize("dim", [2.5, 2.0, True, False, 0, -1, "2", None])
    def test_rejects_non_integer_dim(self, dim):
        with pytest.raises(ValueError, match="dimension"):
            mp.SectorSample(dim=dim)

    def test_rejects_axis_that_is_not_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            mp.SectorSample(xi_moduli=np.ones((2, 2)))
        with pytest.raises(ValueError, match="1-D"):
            mp.SectorSample(lambda_moduli=1.0)

    def test_array_valued_sample_scans_equal_to_tuple_twin(self):
        grid, fractions = np.logspace(-2.0, 2.0, 8), np.array([0.0, 0.5, -0.9])
        arrays = mp.SectorSample(lambda_moduli=grid, xi_moduli=grid, arg_fractions=fractions)
        twin = mp.SectorSample(lambda_moduli=tuple(grid), xi_moduli=tuple(grid),
                               arg_fractions=tuple(fractions))
        got = mp.multiplier_order_scan(mp.sym_sqrt_lam_xi_sq, 1.0, arrays).records
        mp._sample_grid.cache_clear()
        assert mp.multiplier_order_scan(mp.sym_sqrt_lam_xi_sq, 1.0, twin).records == got


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

    def test_negative_max_alpha_rejected(self, default_sample):
        # a scan over no multi-index would pass vacuously
        with pytest.raises(ValueError, match="max_alpha"):
            mp.multiplier_order_scan(mp.sym_xi_4, 4.0, default_sample, max_alpha=-1)

    def test_non_finite_symbol_names_the_point(self, default_sample):
        def nan_symbol(xi, lam):
            return np.full(xi.shape[0], np.nan, dtype=complex)

        with pytest.raises(symbols.NumericalError, match=r"at xi=\[.*\], lambda=\("):
            mp.multiplier_order_scan(nan_symbol, 0.0, default_sample)

    @pytest.mark.parametrize("arg", [0, 1], ids=["xi", "lambda"])
    def test_symbol_must_not_write_its_arguments(self, arg, default_sample):
        # lambda is the shared sample grid and xi the reused point buffer;
        # both are read-only, so a writing symbol fails instead of
        # corrupting the next scan
        def writer(xi, lam):
            (xi, lam)[arg][0] = 0.0
            return mp.sym_one(xi, lam)

        with pytest.raises(ValueError, match="read-only"):
            mp.multiplier_order_scan(writer, 2.0, default_sample)
        after = mp.multiplier_order_scan(mp.sym_sqrt_lam_xi_sq, 1.0, default_sample).records
        mp._sample_grid.cache_clear()
        fresh = mp.multiplier_order_scan(mp.sym_sqrt_lam_xi_sq, 1.0, default_sample).records
        assert after == fresh

    def test_ceiling_marks_failure(self, default_sample):
        report = mp.multiplier_order_scan(mp.sym_xi_4, 4.0, default_sample)
        assert report.ceiling == mp.DEFAULT_CEILING
        assert dataclasses.replace(report, ceiling=1.0).passed is False

    def test_derivatives_of_squared_norm(self, default_sample):
        # first and second finite differences against the exact gradient/Hessian
        xi = default_sample.xi_points()
        keep = np.linalg.norm(xi, axis=1) >= 1e-2
        xi = xi[keep]
        lam = np.full(xi.shape[0], 2.0 + 0.5j)
        h = mp.STEP_FACTOR * np.maximum(
            np.abs(xi), np.linalg.norm(xi, axis=1, keepdims=True)
        )
        d1, d2, d11 = mp._central_differences(
            mp.sym_xi_sq, xi, lam, [(1, 0), (2, 0), (1, 1)], h
        )
        rel1 = np.abs(d1 - 2 * xi[:, 0]) / np.maximum(np.abs(2 * xi[:, 0]), 1e-30)
        assert rel1.max() <= 1e-6
        assert np.abs(d2 - 2.0).max() <= 1e-6 * 2.0
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
        (d1,) = mp._central_differences(mp.sym_sqrt_lam_xi_sq, XI, LAM, [(1, 0)], h)
        exact = XI[:, 0] / np.sqrt(LAM + np.sum(XI * XI, axis=1))
        rel = np.abs(d1 - exact) / np.maximum(np.abs(exact), 1e-12)
        assert rel.max() <= 1e-6


def _reference_central_difference(symbol, xi, lam, alpha, h):
    """The per-alpha iterated central difference: one symbol call per stencil leaf."""
    acc = np.zeros(xi.shape[0], dtype=complex)
    denom = np.ones(xi.shape[0])
    leaf_iters = []
    for k, m in enumerate(alpha):
        if m:
            denom = denom * (2.0 * h[:, k]) ** m
        leaf_iters.append([(i, math.comb(m, i)) for i in range(m + 1)])
    for combo in itertools.product(*leaf_iters):
        weight = 1.0
        shift = np.zeros_like(xi)
        for k, (i, binom) in enumerate(combo):
            m = alpha[k]
            weight *= (-1.0) ** i * binom
            if m:
                shift[:, k] = (m - 2 * i) * h[:, k]
        acc += weight * np.asarray(symbol(xi + shift, lam), dtype=complex)
    return acc / denom


# (dim, max_alpha, symbol calls of one shared-stencil scan)
STENCIL_CASES = [(2, 3, 25), (2, 4, 41), (2, 0, 1), (1, 2, 5), (1, 4, 9)]


# every stock example symbol and one entry of each scaled resolvent symbol
REFERENCE_SYMBOLS = [case[1] for case in mp.EXAMPLE_CASES] + [
    mp.resolvent_entry_symbol(j, row, col) for j, row, col in ((0, 0, 1), (1, 2, 0), (2, 1, 2))]


class TestSharedStencil:
    @pytest.mark.parametrize("symbol", REFERENCE_SYMBOLS, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("dim,max_alpha", [c[:2] for c in STENCIL_CASES])
    def test_records_equal_per_alpha_reference(self, symbol, dim, max_alpha, monkeypatch):
        # visiting the offsets in descending lexicographic order forms every
        # sum in the per-alpha leaf order, and the shared buffers keep each
        # operation's operand order, so the records agree bit for bit with a
        # pass that allocates every leaf afresh
        sample = mp.SectorSample(dim=dim)
        got = mp.multiplier_order_scan(symbol, 0.0, sample, max_alpha=max_alpha).records

        def per_alpha(symbol, xi, lam, alphas, h):
            return [_reference_central_difference(symbol, xi, lam, a, h) for a in alphas]

        monkeypatch.setattr(mp, "_central_differences", per_alpha)
        want = mp.multiplier_order_scan(symbol, 0.0, sample, max_alpha=max_alpha).records
        assert got == want

    @pytest.mark.parametrize("dim,max_alpha,calls", STENCIL_CASES)
    def test_one_symbol_call_per_distinct_offset(self, dim, max_alpha, calls):
        seen = []

        def counting(xi, lam):
            seen.append(xi.copy())
            return mp.sym_xi_sq(xi, lam)

        sample = mp.SectorSample(dim=dim, lambda_moduli=(1.0,), xi_moduli=(0.5, 2.0))
        mp.multiplier_order_scan(counting, 2.0, sample, max_alpha=max_alpha)
        assert len(seen) == calls
        assert len({x.tobytes() for x in seen}) == calls

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_squared_norms_equal_numpy_sum(self, dim):
        # the symbols' |xi|^2 must round exactly as np.sum(xi * xi, axis=-1),
        # which the scan reports were computed with
        rng = np.random.default_rng(dim)
        xi = rng.standard_normal((500, dim)) * 10.0 ** rng.uniform(-3, 3, (500, dim))
        assert np.array_equal(mp._squared_norms(xi), np.sum(xi * xi, axis=-1))

    def test_stencil_table(self):
        assert mp._stencil((2,)) == {(2,): 1.0, (0,): -2.0, (-2,): 1.0}
        assert mp._stencil((1, 1)) == {(1, 1): 1.0, (1, -1): -1.0, (-1, 1): -1.0,
                                       (-1, -1): 1.0}
        assert mp._stencil((0, 0)) == {(0, 0): 1.0}


class TestSampleGrid:
    def test_grid_is_read_only(self, default_sample):
        for arr in mp._sample_grid(default_sample):
            assert not arr.flags.writeable

    def test_entry_scans_build_the_grid_once(self, monkeypatch):
        calls = []
        xi_points = mp.SectorSample.xi_points

        def counting(sample):
            calls.append(sample)
            return xi_points(sample)

        monkeypatch.setattr(mp.SectorSample, "xi_points", counting)
        mp._sample_grid.cache_clear()
        sample = mp.SectorSample(lambda_moduli=(0.5, 2.0), xi_moduli=(0.1, 1.0, 10.0))
        assert len(mp.scaled_resolvent_entry_scans(1, sample)) == 9
        assert calls == [sample]

    def test_other_sample_between_scans_leaves_records_unchanged(self):
        a = mp.SectorSample(lambda_moduli=(0.5, 2.0), xi_moduli=(0.1, 1.0, 10.0))
        b = mp.SectorSample(lambda_moduli=(3.0,), xi_moduli=(0.2, 5.0), dim=1)
        symbol = mp.resolvent_entry_symbol(1, 0, 2)
        first = mp.multiplier_order_scan(symbol, 0.0, a).records
        mp.multiplier_order_scan(symbol, 0.0, b)
        assert mp.multiplier_order_scan(symbol, 0.0, a).records == first


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
        blocks = [symbols._scaled_resolvent_from_s(j, float(x @ x), l, *symbols.BLOCK)
                  for x, l in zip(xi, lam)]
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

    @pytest.mark.parametrize("k", [5.4e-52, 1e-60, 1e-150, 1e-200, 2.5e51, 1e100, 1e160,
                                   math.inf, math.nan])
    def test_witness_rejects_k_out_of_range(self, k):
        # the determinant overflows (small k) or goes subnormal or zero (large k)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError):
                mp.nonsectoriality_witness(k)

    @pytest.mark.parametrize("k", [5.6e-52, 1e-30, 1e30, 2.4e51])
    def test_witness_matches_closed_form_near_range_ends(self, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = mp.nonsectoriality_witness(k)
        c = mp.witness_closed_form(k)
        assert abs(w - c) <= 1e-12 * c
