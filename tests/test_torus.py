"""Per-mode exponential evolution on the torus, resolvent action, I/O."""

import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from thermoplate import bounded, cli, torus
from thermoplate.symbols import (BLOCK, GAMMAS, ROOTS, NumericalError, SingularParameterError,
                                 _scaled_resolvent_from_s, symbol_matrix)


TWO_PI = 2.0 * math.pi


@pytest.fixture
def grid128():
    return torus.TorusGrid((128,), (TWO_PI,))


@pytest.fixture
def grid2d():
    return torus.TorusGrid((32, 32), (TWO_PI, TWO_PI))


def bump_state(grid):
    if len(grid.modes) == 1:
        x = grid.points()[0]
        u = np.exp(-4.0 * (1.0 - np.cos(x)))
    else:
        x, y = np.meshgrid(*grid.points(), indexing="ij")
        u = np.exp(-3.0 * (2.0 - np.cos(x) - np.cos(y)))
    return torus.StateField(grid, u, np.zeros_like(u), np.zeros_like(u))


def evolve_reference(state, t):
    """One time at a time: a gathered (n, 3, 3) propagator, einsum, one ifftn per row."""
    g = state.grid
    U = np.stack([np.fft.fftn(f, norm="ortho") for f in state.fields()]).reshape(3, -1)
    s, inverse = np.unique(g.s_array().ravel(), return_inverse=True)
    gathered = torus._distinct_propagators(s, np.array([t]))[0, inverse]
    out = np.einsum("nij,jn->in", gathered, U)
    fields = [np.fft.ifftn(row.reshape(g.shape), norm="ortho") for row in out]
    scale = max(max(np.abs(f.real).max() for f in fields), 1.0)
    return [f.real for f in fields], max(np.abs(f.imag).max() for f in fields) / scale


def laplace_reference(state, lam, steps):
    """The trapezoid oracle node by node: one StateField per node of evolve_many."""
    lam = complex(lam)
    ts = np.linspace(0.0, 40.0 / lam.real, steps + 1)
    dt = ts[1] - ts[0]
    acc = [np.zeros(state.grid.shape, dtype=complex) for _ in range(3)]
    for i, (t, (st, _)) in enumerate(zip(ts, torus.evolve_many(state, ts))):
        wgt = dt * np.exp(-lam * t) * (0.5 if i in (0, steps) else 1.0)
        for a, f in zip(acc, st.fields()):
            a += wgt * f
    ref = torus.apply_resolvent(state, lam)
    gap = torus.e_norm(state.grid, *[a - r for a, r in zip(acc, ref)])
    return gap / torus.e_norm(state.grid, *ref)


def sweep_reference(j, lams, grid):
    """The SVD of every distinct mode, then the max: the sweep without its screen."""
    s = np.unique(grid.s_array().ravel())
    return np.array([
        np.linalg.svd(_scaled_resolvent_from_s(j, s, complex(lam), *BLOCK),
                      compute_uv=False).max()
        for lam in lams
    ])


def random_unitaries(rng, n):
    z = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
    return np.linalg.qr(z)[0]


def propagator(s, t):
    """exp(t A(xi)) for one s = |xi|^2 and one time t; real, shape (3, 3)."""
    return torus._distinct_propagators(np.array([s]), np.array([t]))[0, 0]


ORACLE_GRIDS = [(4,), (128,), (16, 16), (8, 32)]


def oracle_grid(modes):
    return torus.TorusGrid(modes, (TWO_PI,) * len(modes))


def sobolev_reference(grid, field, order):
    """The Parseval sum over the full complex fftn spectrum."""
    coeff = np.fft.fftn(field, norm="ortho")
    return float(np.sqrt(np.sum((1.0 + grid.s_array()) ** order * np.abs(coeff) ** 2)))


def random_state_reference(grid, rng):
    """Complex transforms both ways, the imaginary part dropped."""
    damp = (1.0 + grid.s_array()) ** -2.0
    return [np.fft.ifftn(np.fft.fftn(rng.standard_normal(grid.shape), norm="ortho") * damp,
                         norm="ortho").real for _ in range(3)]


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGrid:
    def test_axes_and_s(self, grid128):
        xi = grid128.xi_axes()[0]
        assert xi[0] == 0.0
        assert xi[1] == pytest.approx(1.0)
        s = grid128.s_array()
        assert s.shape == (128,)
        assert s[1] == pytest.approx(1.0)

    @pytest.mark.parametrize("modes", [(3,), (12,), (2,), (8, 8, 8)])
    def test_rejects_bad_modes(self, modes):
        with pytest.raises(ValueError):
            torus.TorusGrid(modes, (TWO_PI,) * len(modes))

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            torus.TorusGrid((8,), (0.0,))

    @pytest.mark.parametrize("length", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_length(self, length):
        with pytest.raises(ValueError):
            torus.TorusGrid((8, 8), (TWO_PI, length))

    def test_rejects_grid_whose_s_cubed_overflows(self):
        # s = |xi|^2 reaches (pi M / L)^2; its cube must stay a finite double
        torus.TorusGrid((8,), (2e-50,))
        for lengths in ((1e-50,), (1e-160,), (TWO_PI, 1e-100)):
            with pytest.raises(ValueError, match="overflows"):
                torus.TorusGrid((8,) * len(lengths), lengths)

    def test_state_shape_checked(self, grid128):
        with pytest.raises(ValueError):
            torus.StateField(grid128, np.zeros(64), np.zeros(128), np.zeros(128))

    @pytest.mark.parametrize("modes", ORACLE_GRIDS)
    def test_distinct_s_is_cached_and_read_only(self, modes):
        grid = oracle_grid(modes)
        s, inverse = grid.distinct_s
        want_s, want_inverse = np.unique(grid.s_array().ravel(), return_inverse=True)
        assert np.array_equal(s, want_s) and np.array_equal(inverse, want_inverse)
        assert grid.distinct_s is grid.distinct_s
        assert not s.flags.writeable and not inverse.flags.writeable


class TestEnergyNorm:
    def test_single_cosine_oracle(self, grid128):
        # cos(x) on 128 points, |xi| = 1: weight (1+1)^2 on u, Parseval gives 16
        st = torus.cosine_mode_state(grid128, (1,), (1.0, 0.0, 0.0))
        assert st.e_norm(0) == pytest.approx(16.0, rel=1e-12)

    def test_order_shift(self, grid128):
        st = torus.cosine_mode_state(grid128, (1,), (1.0, 0.0, 0.0))
        # each +1 in j multiplies the u weight by (1+s) = 2, the norm by sqrt(2)
        assert st.e_norm(1) == pytest.approx(16.0 * math.sqrt(2.0), rel=1e-12)

    def test_sobolev_norm_single_mode(self, grid128):
        # cos(x): squared coefficient mass 64, weight (1+1)^s
        x = grid128.points()[0]
        for s in (0.0, 1.0, 2.0):
            val = torus.sobolev_norm(grid128, np.cos(x), s)
            assert val == pytest.approx(8.0 * 2.0 ** (s / 2.0), rel=1e-12)

    def test_overflowing_norm_raises_without_warning(self, grid128):
        # finite fields whose squared coefficients overflow a double
        huge = np.full(128, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="not a finite double"):
                torus.e_norm(grid128, huge, huge, huge)

    @pytest.mark.parametrize("modes", ORACLE_GRIDS)
    @pytest.mark.parametrize("order", [-1, 0, 2, 3])
    def test_sobolev_norm_matches_the_full_spectrum(self, modes, order):
        # generic fields, whose coefficients are not at roundoff level: for a
        # smooth field the H^3 weights amplify the roundoff of the tiny high
        # coefficients, and both transforms then agree only to about 1e-13
        grid = oracle_grid(modes)
        rng = np.random.default_rng(order + 7)
        real = rng.standard_normal(grid.shape)
        complex_ = real + 1j * rng.standard_normal(grid.shape)
        for field in (real, complex_):
            want = sobolev_reference(grid, field, order)
            assert abs(torus.sobolev_norm(grid, field, order) - want) <= 1e-14 * want

    @pytest.mark.parametrize("modes", ORACLE_GRIDS)
    def test_random_state_matches_the_complex_path(self, modes):
        grid = oracle_grid(modes)
        st = torus.random_state(grid, np.random.default_rng(5))
        want = random_state_reference(grid, np.random.default_rng(5))
        for got, ref in zip(st.fields(), want):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_e_norm_composes_field_norms(self, grid128):
        rng = np.random.default_rng(2)
        st = torus.random_state(grid128, rng)
        direct = torus.e_norm(grid128, st.u, st.v, st.theta, 1)
        parts = (
            torus.sobolev_norm(grid128, st.u, 3) ** 2
            + torus.sobolev_norm(grid128, st.v, 1) ** 2
            + torus.sobolev_norm(grid128, st.theta, 1) ** 2
        )
        assert direct == pytest.approx(math.sqrt(parts), rel=1e-14)


class TestEvolution:
    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_rejects_bad_time(self, grid128, t):
        with pytest.raises(ValueError):
            torus.evolve(bump_state(grid128), t)
        # anywhere in the list, before the first node is yielded
        nodes = torus.evolve_many(bump_state(grid128), [0.0, 0.5, t, 1.0])
        with pytest.raises(ValueError):
            next(nodes)

    @pytest.mark.parametrize("modes", [(128,), (32, 32)])
    def test_evolve_many_matches_one_time_at_a_time(self, modes):
        # more nodes than one batch holds, t = 0 among them; s = 0 is mode 0
        grid = torus.TorusGrid(modes, (TWO_PI,) * len(modes))
        st = torus.random_state(grid, np.random.default_rng(4))
        per_batch = torus._BATCH_MODE_TIMES // math.prod(modes)
        ts = np.linspace(0.0, 3.0, 2 * per_batch + 3)
        nodes = list(torus.evolve_many(st, ts))
        assert len(nodes) == ts.size
        for t, (out, residue) in zip(ts, nodes):
            alone, alone_residue = torus.evolve(st, t)
            want, want_residue = evolve_reference(st, t)
            assert residue == alone_residue == want_residue
            for a, b, c in zip(out.fields(), alone.fields(), want):
                assert np.array_equal(a, b) and np.array_equal(a, c)

    @pytest.mark.parametrize("modes, nodes", [((512, 512), 2), ((16, 16), 64)])
    def test_batches_are_c_contiguous(self, modes, nodes):
        # 64 nodes fill one 16x16 batch; at 512^2 each batch holds one node
        grid = torus.TorusGrid(modes, (TWO_PI,) * len(modes))
        st = torus.random_state(grid, np.random.default_rng(6))
        ts = np.linspace(0.0, 1.0, nodes)
        sizes = []
        for fields, residues in torus._evolve_batches(st, ts):
            assert all(f.flags.c_contiguous and f.shape[1:] == modes for f in fields)
            sizes.append(len(residues))
        assert sizes == [max(1, torus._BATCH_MODE_TIMES // math.prod(modes))] * len(sizes)
        assert sum(sizes) == nodes
        for out, _ in torus.evolve_many(st, ts):
            assert all(f.flags.c_contiguous for f in out.fields())

    def test_residue_check_on_the_batched_path(self, grid128, monkeypatch):
        monkeypatch.setattr(torus, "IMAG_RESIDUE_TOL", -1.0)
        with pytest.raises(NumericalError, match="imaginary residue"):
            next(torus.evolve_many(bump_state(grid128), [0.0, 1.0]))

    def test_zero_time_identity(self, grid128):
        st = bump_state(grid128)
        out, residue = torus.evolve(st, 0.0)
        assert residue <= 1e-12
        assert np.allclose(out.u, st.u, rtol=0, atol=1e-12)

    def test_semigroup_property(self, grid128):
        rng = np.random.default_rng(5)
        st = torus.random_state(grid128, rng)
        one, _ = torus.evolve(st, 0.7)
        two, _ = torus.evolve(one, 0.4)
        direct, _ = torus.evolve(st, 1.1)
        gap = torus.e_norm(
            grid128,
            two.u - direct.u,
            two.v - direct.v,
            two.theta - direct.theta,
        )
        assert gap <= 1e-9 * direct.e_norm(0)

    def test_single_eigenmode_decay(self, grid128):
        # data along the real eigenvector of the mode matrix decays at
        # exactly -gamma1 * s0
        s0 = 1.0
        a = symbol_matrix(math.sqrt(s0))
        w, vecs = np.linalg.eig(a)
        k = int(np.argmin(np.abs(w + ROOTS.gamma1 * s0)))
        vec = vecs[:, k].real
        vec /= np.abs(vec).max()
        st = torus.cosine_mode_state(grid128, (1,), tuple(vec))
        t = 0.8
        out, _ = torus.evolve(st, t)
        decay = math.exp(-ROOTS.gamma1 * s0 * t)
        assert np.allclose(out.u, st.u * decay, rtol=0, atol=1e-8 * abs(decay))
        assert np.allclose(out.v, st.v * decay, rtol=0, atol=1e-8)
        assert np.allclose(out.theta, st.theta * decay, rtol=0, atol=1e-8)

    def test_constant_velocity_drifts_linearly(self, grid128):
        # mean velocity rides the zero-mode Jordan block: u gains t * v
        c = 0.7
        st = torus.StateField(
            grid128, np.zeros(128), np.full(128, c), np.zeros(128)
        )
        out, _ = torus.evolve(st, 3.0)
        assert np.allclose(out.u, 3.0 * c, rtol=0, atol=1e-10)
        assert np.allclose(out.v, c, rtol=0, atol=1e-10)

    def test_mean_free_data_decays(self, grid128):
        rng = np.random.default_rng(9)
        st = torus.random_state(grid128, rng)
        fields = [f - f.mean() for f in st.fields()]
        st = torus.StateField(grid128, *fields)
        # slowest nonzero mode decays at Re(gamma2), about 0.215
        late, _ = torus.evolve(st, 30.0)
        assert late.e_norm(0) < 1e-2 * st.e_norm(0)

    def test_zero_mode_jordan_block(self):
        # the constant mode drifts linearly: exp(tA(0)) = I + tA(0), exactly
        for t in (0.0, 1e-8, 2.5, 7.0):
            p = propagator(0.0, t)
            assert np.array_equal(p, np.eye(3) + t * symbol_matrix(0.0))

    def test_modal_decay_fit(self, grid128):
        fit = torus.modal_decay_fit(grid128, (1,))
        s0 = fit["s0"]
        assert s0 == pytest.approx(1.0)
        target = sorted(-g.real * s0 for g in GAMMAS)
        got = sorted(fit["rates"])
        for a, b in zip(got, target):
            assert a == pytest.approx(b, rel=1e-6)
        # slopes are negative; the slowest sits closest to zero
        assert fit["slowest_rate"] == pytest.approx(
            -ROOTS.gamma2.real * s0, rel=1e-6
        )


def mode_matrix(s):
    """A(xi) built from s = |xi|^2 itself, with no square root in between."""
    return np.array([[0.0, 1.0, 0.0], [-s * s, 0.0, s], [0.0, -s, -s]])


def entry_error(got, want):
    """Largest relative error over the entries of want above 1e-300."""
    mask = np.abs(want) > 1e-300
    return float(np.max(np.abs(got - want)[mask] / np.abs(want)[mask]))


class TestPropagator:
    CUT = torus._TAYLOR_CUT

    @pytest.mark.parametrize(
        "s, t",
        [
            (1e-6, 1.0),  # s t -> 0 through s
            (1.0, 1e-8),  # s t -> 0 through t
            (1.0, 0.999 * CUT),  # just below the Taylor cut
            (1.0, 1.001 * CUT),  # just above it
            (2.0, 0.999 * CUT / 2.0),
            (2.0, 1.001 * CUT / 2.0),
        ],
    )
    def test_entries_match_expm_near_small_tau(self, s, t):
        got = propagator(s, t)
        assert got.dtype == np.float64
        assert entry_error(got, expm(t * mode_matrix(s))) <= 1e-14

    @pytest.mark.parametrize("s", [1e-4, 1.0, 50.0, 3e4])
    def test_entries_match_expm_up_to_large_tau(self, s):
        for tau in np.logspace(-8, 3, 23):
            got = propagator(s, tau / s)
            want = expm(tau / s * mode_matrix(s))
            assert entry_error(got, want) <= 1e-10, tau

    def test_grid_gather_matches_single_modes(self):
        # t = 0.1 puts s = 0, Taylor (s = 1, 2) and projector modes on one grid
        s = torus.TorusGrid((64, 64), (TWO_PI, TWO_PI)).s_array().ravel()
        distinct, inverse = np.unique(s, return_inverse=True)
        full = torus._distinct_propagators(distinct, np.array([0.1]))[0, inverse]
        assert full.shape == (s.size, 3, 3) and full.dtype == np.float64
        alone = {v: propagator(v, 0.1) for v in distinct}
        assert all(np.array_equal(p, alone[v]) for p, v in zip(full, s))


class TestResolvent:
    def test_apply_resolvent_inverts(self, grid128):
        st = bump_state(grid128)
        lam = 2.0
        r = torus.apply_resolvent(st, lam)
        # apply (lam - A) in coefficient space and compare with the data
        coeffs = [np.fft.fftn(f, norm="ortho") for f in r]
        s = grid128.s_array()
        back_u = lam * coeffs[0] - coeffs[1]
        back_v = lam * coeffs[1] + s**2 * coeffs[0] - s * coeffs[2]
        back_t = lam * coeffs[2] + s * coeffs[1] + s * coeffs[2]
        orig = [np.fft.fftn(f, norm="ortho") for f in st.fields()]
        scale = max(np.abs(o).max() for o in orig)
        for got, want in zip((back_u, back_v, back_t), orig):
            assert np.abs(got - want).max() <= 1e-9 * scale

    def test_resolvent_identity(self, grid128):
        rng = np.random.default_rng(11)
        st = torus.random_state(grid128, rng)
        l1, l2 = 1.5 + 0.3j, 2.5 - 0.2j
        r1 = torus.apply_resolvent(st, l1)
        r2 = torus.apply_resolvent(st, l2)
        # R(l1) applied to the complex field R(l2)x, split into real and
        # imaginary parts to stay on the public interface
        parts = []
        for take in (np.real, np.imag):
            comp = torus.StateField(
                grid128, *[np.ascontiguousarray(take(f)) for f in r2]
            )
            parts.append(torus.apply_resolvent(comp, l1))
        chained = [pr + 1j * pi for pr, pi in zip(*parts)]
        scale = max(np.abs(a - b).max() for a, b in zip(r1, r2))
        for a, b, c in zip(r1, r2, chained):
            assert np.abs((a - b) - (l2 - l1) * c).max() <= 1e-8 * max(scale, 1e-30)

    def test_singular_lambda_names_mode(self, grid128):
        lam = -ROOTS.gamma1 * 1.0  # spectrum of the |xi| = 1 mode
        with pytest.raises(SingularParameterError):
            torus.apply_resolvent(bump_state(grid128), lam)

    def test_laplace_transform_oracle_1d(self, grid128):
        rel = torus.laplace_transform_error(bump_state(grid128), 2.0)
        assert rel <= 1e-3

    @pytest.mark.parametrize("modes", [(128,), (16, 16)])
    def test_laplace_oracle_matches_the_node_by_node_sum(self, modes):
        # the batched accumulation adds node by node, in the same order
        st = bump_state(torus.TorusGrid(modes, (TWO_PI,) * len(modes)))
        steps = 2048 if len(modes) == 2 else 4096
        assert (torus.laplace_transform_error(st, 2.0, steps=steps)
                == laplace_reference(st, 2.0, steps))

    def test_resolvent_bound_sweep_shapes(self, grid128):
        lams = np.array([1.0 + 1.0, 1.0 + 0.01])
        vals = torus.resolvent_bound_sweep(2, lams, grid128)
        assert vals.shape == (2,)
        assert np.all(np.isfinite(vals))
        assert np.all(vals > 0)

    def test_ray_sweep_bounded_on_shifted_sector(self, grid128):
        # lambda on rays of the shifted sector 1 + Sigma_theta, theta < theta0
        fractions = np.array([0.0, 0.5, -0.5, 0.99, -0.99])
        lams = (1.0 + np.multiply.outer(
            np.logspace(-2, 2, 9), np.exp(0.9j * ROOTS.theta0 * fractions))).ravel()
        bounds = torus.resolvent_bound_sweep(0, lams, grid128)
        assert bounds.shape == lams.shape
        assert np.all(np.isfinite(bounds))
        assert bounds.max() < 10.0


class TestSingularValueScreen:
    @staticmethod
    def worst(mats):
        want = np.linalg.svd(mats, compute_uv=False)[:, 0]
        got = torus._largest_singular_values(mats)
        return np.max(np.abs(got - want) / np.where(want == 0.0, 1.0, want))

    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
    def test_closed_form_on_random_matrices(self, scale):
        rng = np.random.default_rng(11)
        mats = rng.standard_normal((5000, 3, 3)) + 1j * rng.standard_normal((5000, 3, 3))
        assert self.worst(scale * mats) <= 1e-14

    def test_closed_form_on_special_matrices(self):
        rng = np.random.default_rng(12)
        a, b = (rng.standard_normal((500, 3)) + 1j * rng.standard_normal((500, 3))
                for _ in range(2))
        rank_one = np.einsum("ni,nj->nij", a, b.conj())
        assert self.worst(rank_one) <= 1e-14
        assert self.worst(random_unitaries(rng, 500)) <= 1e-14
        # scaled permutations with entries in {1, -1, 1j, -1j}; a power-of-two
        # scale divides out exactly, so H = I and the p = 0 branch gives c
        units = rng.choice(np.array([1.0, -1.0, 1j, -1j]), size=(500, 3))
        perms = np.eye(3)[np.array([rng.permutation(3) for _ in range(500)])]
        monomial = units[:, :, None] * perms
        assert self.worst(rng.uniform(0.5, 5.0, 500)[:, None, None] * monomial) <= 1e-14
        scale = 2.0 ** rng.integers(-60, 60, 500)
        assert np.array_equal(
            torus._largest_singular_values(scale[:, None, None] * monomial), scale)
        assert np.array_equal(torus._largest_singular_values(np.zeros((4, 3, 3))), np.zeros(4))

    def test_double_top_singular_value(self):
        # U diag(1, 1, 0.3) V puts r at -1, where acos has infinite slope: the
        # screen may be off by up to 1e-8 relative there, and it may misorder
        # matrices closer than that; the SVD over its band still finds the max
        rng = np.random.default_rng(13)
        n = 5000
        scale = 1.0 + 1e-9 * rng.random(n)
        mats = (random_unitaries(rng, n) * np.array([1.0, 1.0, 0.3])) @ random_unitaries(rng, n)
        mats *= scale[:, None, None]
        assert self.worst(mats) <= 1e-8
        assert torus._max_singular_value(mats) == np.linalg.svd(mats, compute_uv=False).max()

    def test_non_finite_screen_sends_every_matrix_to_the_svd(self):
        mats = np.ones((3, 3, 3), dtype=complex)
        mats[1, 0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.svd(mats, compute_uv=False)
        with pytest.raises(np.linalg.LinAlgError), np.errstate(invalid="ignore"):
            torus._max_singular_value(mats)

    @pytest.mark.parametrize("j", [0, 1, 2])
    @pytest.mark.parametrize("length", [TWO_PI, 100.0 * TWO_PI])
    def test_sweep_equals_the_svd_of_every_mode(self, j, length):
        # on the longer grid the band holds a few matrices, on 2 pi thousands
        grid = torus.TorusGrid((16384,), (length,))
        lams = [1.0, 1e-2, 1e-4, 2.0, 1.01, 1.0001]
        assert np.array_equal(torus.resolvent_bound_sweep(j, lams, grid),
                              sweep_reference(j, lams, grid))

    @pytest.mark.parametrize("k, modes, length", [(1e50, 128, TWO_PI), (5e-52, 4, 1e-50)])
    def test_sweep_at_extreme_k(self, k, modes, length):
        grid = torus.TorusGrid((modes,), (length,))
        lams = [k ** -2.0, 1.0 + k ** -2.0]
        for j in (0, 2):
            assert np.array_equal(torus.resolvent_bound_sweep(j, lams, grid),
                                  sweep_reference(j, lams, grid))


class TestTwoDimensional:
    def test_semigroup_2d(self, grid2d):
        rng = np.random.default_rng(21)
        st = torus.random_state(grid2d, rng)
        one, _ = torus.evolve(st, 0.3)
        two, _ = torus.evolve(one, 0.2)
        direct, _ = torus.evolve(st, 0.5)
        gap = torus.e_norm(
            grid2d, two.u - direct.u, two.v - direct.v, two.theta - direct.theta
        )
        assert gap <= 1e-9 * direct.e_norm(0)

    def test_laplace_transform_oracle_2d(self, grid2d):
        rel = torus.laplace_transform_error(bump_state(grid2d), 2.0, steps=2048)
        assert rel <= 1e-3

    def test_modal_fit_2d(self, grid2d):
        fit = torus.modal_decay_fit(grid2d, (1, 1))
        assert fit["s0"] == pytest.approx(2.0)
        assert fit["slowest_rate"] == pytest.approx(
            -ROOTS.gamma2.real * 2.0, rel=1e-6
        )


class TestWorkingSet:
    def test_evolve_peak_at_512(self):
        grid = torus.TorusGrid((512, 512), (TWO_PI, TWO_PI))
        st = torus.random_state(grid, np.random.default_rng(1))
        assert traced_peak(lambda: torus.evolve(st, 0.5)) <= 45 * 2 ** 20

    def test_laplace_oracle_peak(self):
        st = bump_state(torus.TorusGrid((16, 16), (TWO_PI, TWO_PI)))
        peak = traced_peak(lambda: torus.laplace_transform_error(st, 2.0, steps=2048))
        assert peak <= 4 * 2 ** 20

    def test_bounded_blocks_peak_at_64(self):
        # the damped rectangle at 64^2 (n = 12288), whose dense generator alone
        # would take 1.2 GB: assembly and the five blocks stay block-first, and
        # no dense parity block (75 MB at this size) is formed on the way
        gen = lambda: bounded.assemble_generator(bounded.rectangle(), 64, bounded.lt_variant())
        assert traced_peak(lambda: gen().reflection_blocks) <= 200 * 2 ** 20


class TestSerialization:
    def test_round_trip(self, tmp_path, grid128, grid2d):
        for grid in (grid128, grid2d):
            rng = np.random.default_rng(3)
            st = torus.random_state(grid, rng)
            path = tmp_path / f"state_{len(grid.modes)}d.bin"
            torus.save_state(path, st)
            back = torus.load_state(path)
            assert back.grid == st.grid
            for a, b in zip(st.fields(), back.fields()):
                assert np.array_equal(a, b)

    def test_bad_magic(self, tmp_path, grid128):
        path = tmp_path / "state.bin"
        torus.save_state(path, bump_state(grid128))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            torus.load_state(path)

    def test_truncation_detected(self, tmp_path, grid128):
        path = tmp_path / "state.bin"
        torus.save_state(path, bump_state(grid128))
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError):
            torus.load_state(path)

    @pytest.mark.parametrize("modes", [(16,), (8, 16)])
    def test_truncated_header_detected(self, tmp_path, modes):
        # magic, version and dim, then modes and lengths per axis
        path = tmp_path / "state.bin"
        torus.save_state(path, bump_state(oracle_grid(modes)))
        raw = path.read_bytes()
        header = 12 + 12 * len(modes)
        for cut in range(header + 1):
            path.write_bytes(raw[:cut])
            match = "bad magic" if cut < 4 else "truncated state file"
            with pytest.raises(ValueError, match=match):
                torus.load_state(path)

    def test_trailing_bytes_detected(self, tmp_path, grid128):
        path = tmp_path / "state.bin"
        torus.save_state(path, bump_state(grid128))
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ValueError):
            torus.load_state(path)


class TestTransformBudget:
    @pytest.mark.parametrize("modes, batches", [(64, 1), (128, 2)])
    def test_evolve_command_transforms(self, modes, batches, tmp_path, monkeypatch):
        # random_state: 3 rfftn and 3 irfftn; evolve_many over (t, t/2) and the
        # second half step: 3 fftn each, 3 ifftn per batch; the three e_norm
        # calls: 9 rfftn.  128^2 modes fill a batch with one time.
        calls = {}
        for owner, name in ((np.fft, "fftn"), (np.fft, "ifftn"), (np.fft, "rfftn"),
                            (np.fft, "irfftn"), (np, "unique")):
            def wrapper(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)
        argv = ["evolve", "--dim", "2", "--modes", str(modes), "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
        assert calls == {"fftn": 6, "ifftn": 3 + 3 * batches, "rfftn": 12, "irfftn": 3,
                         "unique": 1}
