"""Order scans on shifted-sector samples, witness values, origin growth."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from thermoplate import cli, multipliers as mp, symbols
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
        # axes plus one diagonal direction per modulus, each with every lambda
        directions = mp._sample_grid(default_sample)[0]
        assert directions.shape == (3, 2)
        assert np.array_equal(directions, [[1.0, 0.0], [0.0, 1.0], [1 / math.sqrt(2)] * 2])
        report = mp.multiplier_order_scan(mp.sym_one, 2.0, default_sample, max_alpha=0)
        assert report.sample_points == 32 * 3 * 160 == len(_points(default_sample)[0])

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
        def product(s, lam, order):
            # the product of values is the product of the order-0 jets, all this scan asks for
            return mp.sym_xi_sq(s, lam, order) * mp.sym_inv_sqrt_lam_xi_sq(s, lam, order)

        a = mp.multiplier_order_scan(mp.sym_xi_sq, 2.0, default_sample, max_alpha=0)
        b = mp.multiplier_order_scan(
            mp.sym_inv_sqrt_lam_xi_sq, -1.0, default_sample, max_alpha=0
        )
        c = mp.multiplier_order_scan(product, 1.0, default_sample, max_alpha=0)
        c0 = c.constant((0, 0))
        assert c0 <= a.constant((0, 0)) * b.constant((0, 0)) * (1 + 1e-12)
        assert c.passed

    @pytest.mark.parametrize("dim", [3, 4])
    def test_default_order_scans_in_higher_dimensions(self, dim):
        # dim + 1 is the default order; the closed-form derivatives of |xi|^2
        # and |xi|^4 at every point give the constants
        sample = mp.SectorSample(dim=dim)
        xi, lam = _points(sample)
        s = np.sum(xi * xi, axis=1)
        for symbol, order_s, power in ((mp.sym_xi_sq, 2.0, 1), (mp.sym_xi_4, 4.0, 2)):
            report = mp.multiplier_order_scan(symbol, order_s, sample)
            assert report.max_alpha == dim + 1
            assert len(report.records) == math.comb(2 * dim + 1, dim)
            for rec in report.records:
                want = _sup(_norm_power_derivative(xi, s, power, rec.alpha), rec.alpha,
                            order_s, xi, lam)
                assert rec.c_alpha == pytest.approx(want, rel=1e-12, abs=0.0), rec.alpha

    def test_negative_max_alpha_rejected(self, default_sample):
        # a scan over no multi-index would pass vacuously
        with pytest.raises(ValueError, match="max_alpha"):
            mp.multiplier_order_scan(mp.sym_xi_4, 4.0, default_sample, max_alpha=-1)

    def test_non_finite_symbol_names_the_point(self, default_sample):
        def nan_symbol(s, lam, order):
            return np.full((order + 1, len(s)), np.nan, dtype=complex)

        with pytest.raises(symbols.NumericalError, match=r"at xi=\[.*\], lambda=\("):
            mp.multiplier_order_scan(nan_symbol, 0.0, default_sample)

    @pytest.mark.parametrize("arg", [0, 1], ids=["xi", "lambda"])
    def test_symbol_must_not_write_its_arguments(self, arg, default_sample):
        # s = |xi|^2 and lambda are the sample's shared distinct pairs; both
        # are read-only, so a writing symbol fails instead of corrupting the
        # next scan
        def writer(s, lam, order):
            (s, lam)[arg][0] = 0.0
            return mp.sym_one(s, lam, order)

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
        # d_k |xi|^2 = 2 xi_k, d_k^2 = 2; every other derivative vanishes
        # identically and reads exactly 0
        report = mp.multiplier_order_scan(mp.sym_xi_sq, 2.0, default_sample)
        xi, lam = _points(default_sample)
        s = np.sum(xi * xi, axis=1)
        for rec in report.records:
            want = _sup(_norm_power_derivative(xi, s, 1, rec.alpha), rec.alpha, 2.0, xi, lam)
            assert rec.c_alpha == pytest.approx(want, rel=1e-12, abs=0.0), rec.alpha

    def test_derivatives_of_root_weight(self, default_sample):
        # (lambda + |xi|^2)^(+-1/2) against its hand-derived derivative tensors
        xi, lam = _points(default_sample)
        for symbol, power in ((mp.sym_sqrt_lam_xi_sq, 0.5), (mp.sym_inv_sqrt_lam_xi_sq, -0.5)):
            report = mp.multiplier_order_scan(symbol, 2.0 * power, default_sample)
            for rec in report.records:
                want = _sup(_root_weight_derivative(xi, lam, power, rec.alpha), rec.alpha,
                            2.0 * power, xi, lam)
                assert rec.c_alpha == pytest.approx(want, rel=1e-12, abs=0.0), (power, rec.alpha)

    def test_third_derivative_of_sobolev_quotient(self, default_sample):
        # on an axis |xi| (1+|xi|^2)^(-1/2) is x (1+x^2)^(-1/2), whose third
        # derivative is (12 x^2 - 3)(1+x^2)^(-7/2); its order-0 supremum over
        # the default sample (mpmath, 40 digits) is 1.301869458963767
        c = mp.multiplier_order_scan(mp.sym_xi_over_weight, 0.0, default_sample).constant((3, 0))
        x = np.asarray(default_sample.xi_moduli)
        on_axis = np.max(np.abs(12.0 * x * x - 3.0) * (1.0 + x * x) ** -3.5 * x ** 3)
        assert on_axis == pytest.approx(1.301869458963767, rel=1e-14)
        assert c == pytest.approx(1.301869458963767, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("symbol", [mp.sym_lambda, mp.sym_xi_sq, mp.sym_one],
                             ids=lambda fn: fn.__name__)
    def test_vanishing_derivatives_read_exactly_zero(self, symbol, default_sample):
        # lambda and the constant are constant in xi; |xi|^2 has no third derivative
        report = mp.multiplier_order_scan(symbol, 2.0, default_sample)
        top = 2 if symbol is mp.sym_xi_sq else 0
        for rec in report.records:
            if sum(rec.alpha) > top or rec.alpha == (1, 1):
                assert rec.c_alpha == 0.0, rec.alpha

    @pytest.mark.parametrize("name, symbol, order_s", mp.EXAMPLE_CASES,
                             ids=[c[0] for c in mp.EXAMPLE_CASES])
    def test_examples_agree_with_central_differences(self, name, symbol, order_s,
                                                     default_sample):
        # first and second differences are trustworthy where the derivative
        # does not vanish; at |alpha| = 3 they are rounding
        report = mp.multiplier_order_scan(symbol, order_s, default_sample, max_alpha=2)
        for rec in report.records:
            if rec.c_alpha != 0.0:
                fd = _fd_constant(symbol, rec.alpha, order_s, default_sample)
                assert rec.c_alpha == pytest.approx(fd, rel=1e-5, abs=0.0), rec.alpha

    @pytest.mark.parametrize("j, row, col", list(itertools.product(range(3), repeat=3)))
    def test_entries_agree_with_central_differences(self, j, row, col, default_sample):
        symbol = mp.resolvent_entry_symbol(j, row, col)
        report = mp.multiplier_order_scan(symbol, 0.0, default_sample)
        for rec in report.records:
            fd = _fd_constant(symbol, rec.alpha, 0.0, default_sample)
            assert rec.c_alpha == pytest.approx(fd, rel=1e-3, abs=0.0), rec.alpha


def _points(sample):
    """Every sample point as (xi, lambda) in (modulus, direction, lambda) order,
    independently of the scan's grid: each modulus along the coordinate axes,
    then (dim > 1) along the normalized diagonal."""
    dirs = np.eye(sample.dim)
    if sample.dim > 1:
        dirs = np.vstack([dirs, np.ones(sample.dim) / math.sqrt(sample.dim)])
    xi = (np.asarray(sample.xi_moduli)[:, None, None] * dirs[None, :, :]).reshape(-1, sample.dim)
    lams = sample.lambda_points()
    return np.repeat(xi, lams.size, axis=0), np.tile(lams, xi.shape[0])


def _ratios(deriv, alpha, order_s, xi, lam, norms=None):
    """|d^alpha m| |xi|^|alpha| (|lambda|^(1/2) + |xi|)^-s at every point, |xi| the
    norm of xi unless given."""
    if norms is None:
        norms = np.linalg.norm(xi, axis=1)
    return np.abs(deriv) * norms ** sum(alpha) / (np.sqrt(np.abs(lam)) + norms) ** order_s


def _sup(deriv, alpha, order_s, xi, lam):
    """The scan's constant: the largest of _ratios."""
    return float(np.max(_ratios(deriv, alpha, order_s, xi, lam)))


def _indices(alpha):
    """alpha as the list of coordinates differentiated, e.g. (2, 1) -> [0, 0, 1]."""
    return [k for k, a in enumerate(alpha) for _ in range(a)]


def _norm_power_derivative(xi, s, power, alpha):
    """d^alpha |xi|^(2 power) for power 1 or 2, by hand."""
    idx, n = _indices(alpha), sum(alpha)
    d = lambda a, b: float(idx[a] == idx[b])  # noqa: E731
    x = lambda a: xi[:, idx[a]]  # noqa: E731
    zero = np.zeros(len(s))
    if power == 1:
        # |xi|^2: 2 x_i; 2 d_ij; then 0
        return s if n == 0 else 2.0 * x(0) if n == 1 else zero + 2.0 * d(0, 1) if n == 2 else zero
    # |xi|^4 = s^2: 4 s x_i; 4 s d_ij + 8 x_i x_j; 8 (d_ij x_k + d_ik x_j + d_jk x_i); ...
    if n == 0:
        return s * s
    if n == 1:
        return 4.0 * s * x(0)
    if n == 2:
        return 4.0 * s * d(0, 1) + 8.0 * x(0) * x(1)
    if n == 3:
        return 8.0 * (d(0, 1) * x(2) + d(0, 2) * x(1) + d(1, 2) * x(0))
    if n == 4:
        return zero + 8.0 * (d(0, 1) * d(2, 3) + d(0, 2) * d(1, 3) + d(0, 3) * d(1, 2))
    return zero


def _root_weight_derivative(xi, lam, p, alpha):
    """d^alpha (lambda + |xi|^2)^p for |alpha| <= 3, by hand."""
    u = lam + np.sum(xi * xi, axis=1)
    idx, n = _indices(alpha), sum(alpha)
    d = lambda a, b: float(idx[a] == idx[b])  # noqa: E731
    x = lambda a: xi[:, idx[a]]  # noqa: E731
    if n == 0:
        return u ** p
    if n == 1:
        return 2 * p * x(0) * u ** (p - 1)
    if n == 2:
        return 2 * p * d(0, 1) * u ** (p - 1) + 4 * p * (p - 1) * x(0) * x(1) * u ** (p - 2)
    return (4 * p * (p - 1) * (d(0, 1) * x(2) + d(0, 2) * x(1) + d(1, 2) * x(0)) * u ** (p - 2)
            + 8 * p * (p - 1) * (p - 2) * x(0) * x(1) * x(2) * u ** (p - 3))


def _central_difference(symbol, xi, lam, alpha):
    """The per-alpha iterated central difference of m(xi) = symbol(|xi|^2, lam, 0)[0].

    Steps h = eps^(1/3) max(|xi_k|, |xi|) per point and coordinate; one symbol
    call per stencil leaf.
    """
    h = np.finfo(float).eps ** (1.0 / 3.0) * np.maximum(
        np.abs(xi), np.linalg.norm(xi, axis=1, keepdims=True))
    acc = np.zeros(xi.shape[0], dtype=complex)
    for leaf in itertools.product(*([(m - 2 * i, (-1.0) ** i * math.comb(m, i))
                                     for i in range(m + 1)] for m in alpha)):
        point = xi + np.array([o for o, _ in leaf]) * h
        acc += math.prod(w for _, w in leaf) * symbol(np.sum(point * point, axis=1), lam, 0)[0]
    return acc / np.prod((2.0 * h) ** np.array(alpha), axis=1)


def _fd_constant(symbol, alpha, order_s, sample):
    xi, lam = _points(sample)
    return _sup(_central_difference(symbol, xi, lam, alpha), alpha, order_s, xi, lam)


def _derivative_terms(alpha):
    """d^alpha g(|xi|^2) as {(m, e): c}, the terms c xi^e g^(m), by repeated
    product rules: d_i (xi^e g^(m)) = e_i xi^(e - 1_i) g^(m) + 2 xi^(e + 1_i) g^(m+1)."""
    terms = {(0, (0,) * len(alpha)): 1}
    for i in _indices(alpha):
        out = {}
        for (m, e), c in terms.items():
            if e[i]:
                key = (m, e[:i] + (e[i] - 1,) + e[i + 1:])
                out[key] = out.get(key, 0) + c * e[i]
            key = (m + 1, e[:i] + (e[i] + 1,) + e[i + 1:])
            out[key] = out.get(key, 0) + 2 * c
        terms = out
    return terms


def _reference_derivative(symbol, xi, lam, alpha, s=None):
    """d^alpha at every point from one symbol call of its own, at the point's own
    |xi|^2 unless s is given."""
    jet = symbol(np.sum(xi * xi, axis=1) if s is None else s, lam, sum(alpha))
    return sum(c * math.factorial(m) * jet[m] * np.prod(xi ** np.array(e), axis=1)
               for (m, e), c in _derivative_terms(alpha).items())


# every stock example symbol and one entry of each scaled resolvent symbol
REFERENCE_SYMBOLS = [case[1] for case in mp.EXAMPLE_CASES] + [
    mp.resolvent_entry_symbol(j, row, col) for j, row, col in ((0, 0, 1), (1, 2, 0), (2, 1, 2))]


class TestSharedStencil:
    """One symbol call per scan serves every multi-index."""

    @pytest.mark.parametrize("symbol", REFERENCE_SYMBOLS, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("dim,max_alpha", [(2, 3), (2, 4), (2, 0), (1, 2), (1, 4)])
    def test_records_equal_per_alpha_reference(self, symbol, dim, max_alpha):
        # the scan reads every multi-index off one jet at the distinct pairs;
        # the reference calls the symbol once per multi-index at every point
        # and applies the product rule term by term
        sample = mp.SectorSample(dim=dim)
        xi, lam = _points(sample)
        records = mp.multiplier_order_scan(symbol, 0.0, sample, max_alpha=max_alpha).records
        assert len(records) == math.comb(max_alpha + dim, dim)
        for rec in records:
            want = _sup(_reference_derivative(symbol, xi, lam, rec.alpha), rec.alpha, 0.0, xi, lam)
            assert rec.c_alpha == pytest.approx(want, rel=1e-12, abs=0.0), rec.alpha


def _cli_scans():
    """(symbol, report) of every scan behind multscan's examples and entries' 18 entry scans."""
    sample = mp.SectorSample()
    scans = list(zip([fn for _, fn, _ in mp.EXAMPLE_CASES], mp.example_suite(sample)))
    for j in (0, 2):
        scans += [(mp.resolvent_entry_symbol(j, row, col), report)
                  for (row, col), report in mp.scaled_resolvent_entry_scans(j, sample).items()]
    return scans


class TestArgmax:
    """Each record reports the first sample point that attains its constant."""

    @pytest.fixture(scope="class")
    def scans(self):
        return _cli_scans()

    def test_argmax_is_the_first_point_of_the_maximum(self, scans):
        # the per-point reference ratio at the reported point equals c_alpha,
        # and no earlier point in (modulus, direction, lambda) order exceeds it,
        # each to 4 ulp.  The reference sums xi^e g^(m) term by term, at the
        # sample point r u: |xi| = r, s = r^2.  At the rounded diagonal point's
        # own |xi|^2, an ulp or two from r^2, the entry jets move by up to 40 ulp
        sample = mp.SectorSample()
        xi, lam = _points(sample)
        r = np.repeat(sample.xi_moduli, len(xi) // len(sample.xi_moduli))
        assert len(scans) == 7 + 18
        for symbol, report in scans:
            for rec in report.records:
                ratio = _ratios(_reference_derivative(symbol, xi, lam, rec.alpha, r * r),
                                rec.alpha, report.order_s, xi, lam, r)
                at = np.flatnonzero(np.all(xi == rec.argmax_xi, axis=1)
                                    & (lam == rec.argmax_lambda))[0]
                ulps = 4.0 * np.spacing(rec.c_alpha)
                assert abs(ratio[at] - rec.c_alpha) <= ulps, (report.symbol_id, rec.alpha)
                assert np.all(ratio[:at] <= rec.c_alpha + ulps), (report.symbol_id, rec.alpha)

    def test_tie_across_directions_keeps_the_earliest_point(self):
        # d_1^2 g |xi|^2 = 2 s g_1 + 8 u_1^2 s^2 g_2 (the u_1^2 term vanishes on the
        # second axis): at |xi| = 1 the axes read 0 and 2, the diagonal 1; at |xi| = 2
        # every direction reads 2.  The first axis peaks at the later modulus, the
        # second axis ties it earlier, and wins as np.argmax over every point picks it
        def symbol(s, lam, order):
            out = np.zeros((order + 1, len(s)), dtype=complex)
            out[1] = 1.0 / s
            out[2] = np.where(s == 1.0, -0.25, 0.0)
            return out

        sample = mp.SectorSample(lambda_moduli=(1.0,), arg_fractions=(0.0,), xi_moduli=(1.0, 2.0))
        xi, lam = _points(sample)
        rec = dict((r.alpha, r) for r in mp.multiplier_order_scan(symbol, 0.0, sample, 2).records)
        s = np.repeat([1.0, 4.0], 3)
        ratio = _ratios(_reference_derivative(symbol, xi, lam, (2, 0), s), (2, 0), 0.0, xi, lam,
                        np.sqrt(s))
        np.testing.assert_allclose(ratio, [0.0, 2.0, 1.0, 2.0, 2.0, 2.0], rtol=1e-15)
        assert np.argmax(ratio) == 1 and ratio[1] == ratio[3] == 2.0
        assert (rec[(2, 0)].c_alpha, rec[(2, 0)].argmax_xi) == (2.0, (0.0, 1.0))

    def test_identically_zero_derivatives_report_the_first_point(self, scans):
        first = tuple(float(x) for x in _points(mp.SectorSample())[0][0])
        lam0 = complex(mp.SectorSample().lambda_points()[0])
        zeros = [(report.symbol_id, rec) for _, report in scans for rec in report.records
                 if rec.c_alpha == 0.0]
        assert zeros
        for name, rec in zeros:
            assert (rec.argmax_xi, rec.argmax_lambda) == (first, lam0), (name, rec.alpha)


class TestCallBudget:
    @pytest.mark.parametrize("symbol", REFERENCE_SYMBOLS, ids=lambda fn: fn.__name__)
    def test_one_symbol_call_per_scan(self, symbol, default_sample):
        # the three directions share each modulus: 32 moduli x 160 lambdas
        calls = []

        def counting(s, lam, order):
            calls.append((len(s), order))
            return symbol(s, lam, order)

        mp.multiplier_order_scan(counting, 0.0, default_sample)
        assert calls == [(5120, 3)]

    def test_multscan_and_entries_budgets(self, tmp_path, monkeypatch):
        # multscan: the 7 examples and the 2 origin-growth scans, one symbol
        # call each; entries: 18 scans, one adjugate call each
        symbol_calls, adjugate_calls = [], []
        scan, adjugate = mp.multiplier_order_scan, mp._scaled_resolvent_from_s

        def counted_scan(symbol, *args, **kwargs):
            def counted(*a):
                symbol_calls.append(len(a[0]))
                return symbol(*a)
            return scan(counted, *args, **kwargs)

        def counted_adjugate(*args):
            adjugate_calls.append(len(args[1]))
            return adjugate(*args)

        monkeypatch.setattr(mp, "multiplier_order_scan", counted_scan)
        monkeypatch.setattr(mp, "_scaled_resolvent_from_s", counted_adjugate)
        assert cli.main(["multscan", "--out", str(tmp_path / "m")]) == 0
        assert symbol_calls == [5120] * 9
        symbol_calls.clear()
        assert cli.main(["entries", "--out", str(tmp_path / "e")]) == 0
        assert adjugate_calls == [5120] * 18
        assert symbol_calls == [5120] * 18


class TestSampleGrid:
    def test_grid_is_read_only(self, default_sample):
        for arr in mp._sample_grid(default_sample):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_grid_holds_no_per_point_array(self, dim):
        # |xi|^2 depends on the modulus only, so the grid is at most as large
        # as the distinct (|xi|^2, lambda) pairs, not the sample points
        grid = mp._sample_grid(mp.SectorSample(dim=dim))
        S = grid[3]
        assert len(S) == 32 * 160
        assert max(arr.size for arr in grid) <= len(S)

    def test_entry_scans_build_the_grid_once(self, monkeypatch):
        # the grid is the one caller of lambda_points
        calls = []
        lambda_points = mp.SectorSample.lambda_points

        def counting(sample):
            calls.append(sample)
            return lambda_points(sample)

        monkeypatch.setattr(mp.SectorSample, "lambda_points", counting)
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
        # one mixed-lambda batch through each entry symbol at order 0, against the 3x3
        # symbol at every point; array and scalar arithmetic may round apart
        rng = np.random.default_rng(4)
        xi = 10.0 ** rng.uniform(-1.5, 1.5, size=(40, 2))
        lam = 1.0 + 10.0 ** rng.uniform(-2, 2, 40) * np.exp(1j * rng.uniform(-1.6, 1.6, 40))
        blocks = [symbols._scaled_resolvent_from_s(j, float(x @ x), l, *symbols.BLOCK)
                  for x, l in zip(xi, lam)]
        for row in range(3):
            for col in range(3):
                got = mp.resolvent_entry_symbol(j, row, col)(np.sum(xi * xi, axis=1), lam, 0)[0]
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

    @pytest.mark.parametrize("k", [1.0, 10.0, 100.0, *np.logspace(-51, 51, 41)])
    def test_witness_reads_the_shared_kernel(self, k):
        # entry (1, 3) of M^(2) at lambda = |xi|^2 = 1/k^2, bit for bit
        s = float(k) ** -2.0
        expected = abs(symbols._scaled_resolvent_from_s(2, s, s, 0, 2))
        assert mp.nonsectoriality_witness(k) == expected

    @pytest.mark.parametrize("k", [5.4e-52, 1e-60, 1e-150, 1e-200, 2.7e51, 1e100, 1e160,
                                   math.inf, math.nan])
    def test_witness_rejects_k_out_of_range(self, k):
        # the determinant overflows (small k), its scale underflows (large k),
        # 1/k^2 overflows (1e-200) or is zero (inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError):
                mp.nonsectoriality_witness(k)

    @pytest.mark.parametrize("k", [5.6e-52, 1e-30, 1e30, 2.4e51, 2.6e51])
    def test_witness_matches_closed_form_near_range_ends(self, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = mp.nonsectoriality_witness(k)
        c = mp.witness_closed_form(k)
        assert abs(w - c) <= 1e-12 * c
