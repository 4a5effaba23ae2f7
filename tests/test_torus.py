"""Per-mode exponential evolution on the torus, resolvent action, I/O."""

import math
import os

import numpy as np
import pytest

from thermoplate import torus
from thermoplate.symbols import GAMMAS, ROOTS, SingularParameterError, symbol_matrix


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

    def test_state_shape_checked(self, grid128):
        with pytest.raises(ValueError):
            torus.StateField(grid128, np.zeros(64), np.zeros(128), np.zeros(128))


class TestEnergyNorm:
    def test_single_cosine_oracle(self, grid128):
        # cos(x) on 128 points, |xi| = 1: weight (1+1)^2 on u, Parseval gives 16
        st = torus.cosine_mode_state(grid128, (1,), (1.0, 0.0, 0.0))
        assert st.e_norm(0) == pytest.approx(16.0, rel=1e-12)

    def test_order_shift(self, grid128):
        st = torus.cosine_mode_state(grid128, (1,), (1.0, 0.0, 0.0))
        # each +1 in j multiplies the u weight by (1+s) = 2, the norm by sqrt(2)
        assert st.e_norm(1) == pytest.approx(16.0 * math.sqrt(2.0), rel=1e-12)

    def test_zero_state(self, grid128):
        assert torus.zero_state(grid128).e_norm(0) == 0.0

    def test_sobolev_norm_single_mode(self, grid128):
        # cos(x): squared coefficient mass 64, weight (1+1)^s
        x = grid128.points()[0]
        for s in (0.0, 1.0, 2.0):
            val = torus.sobolev_norm(grid128, np.cos(x), s)
            assert val == pytest.approx(8.0 * 2.0 ** (s / 2.0), rel=1e-12)

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
        # the constant mode drifts linearly: exp(tA(0)) = I + tA(0)
        p = torus.mode_exponential(0.0, 2.5)
        assert np.allclose(p, np.eye(3) + 2.5 * symbol_matrix(0.0), atol=1e-14)

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

    def test_trailing_bytes_detected(self, tmp_path, grid128):
        path = tmp_path / "state.bin"
        torus.save_state(path, bump_state(grid128))
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ValueError):
            torus.load_state(path)
