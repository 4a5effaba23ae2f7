"""Characteristic roots, symbol matrices, and resolvent algebra."""

import cmath
import math

import numpy as np
import pytest

from thermoplate import symbols


# Frozen reference values, computed independently (high-precision root
# isolation of t^3 + t^2 + 2t + 1 followed by Newton refinement).
GAMMA1 = 0.5698402909980533
GAMMA2 = 0.21507985450097336 + 1.3071412786820455j
THETA0 = 1.7338772109868401


class TestRoots:
    def test_frozen_values(self):
        r = symbols.ROOTS
        assert r.gamma1 == pytest.approx(GAMMA1, abs=1e-15)
        assert r.gamma2 == pytest.approx(GAMMA2, abs=1e-15)
        assert r.gamma3 == pytest.approx(GAMMA2.conjugate(), abs=1e-15)
        assert r.theta0 == pytest.approx(THETA0, abs=1e-15)

    def test_structure(self):
        r = symbols.ROOTS
        assert 0.0 < r.gamma1 < 1.0
        assert 0.0 < r.gamma2.real < 0.5
        assert r.gamma3 == r.gamma2.conjugate()
        assert math.pi / 2 < r.theta0 < math.pi

    def test_residuals(self):
        for g in symbols.GAMMAS:
            assert abs(symbols.poly_eval(-g)) <= 1e-12

    def test_vieta(self):
        g1, g2, g3 = symbols.GAMMAS
        assert abs((g1 + g2 + g3) - 1.0) <= 1e-12
        assert abs((g1 * g2 + g1 * g3 + g2 * g3) - 2.0) <= 1e-12
        assert abs((g1 * g2 * g3) - 1.0) <= 1e-12

    def test_theta0_is_arg_of_negated_conjugate_root(self):
        r = symbols.ROOTS
        assert r.theta0 == pytest.approx(cmath.phase(-r.gamma3), abs=1e-15)

    def test_scalar_types(self):
        r = symbols.ROOTS
        assert type(r.gamma1) is float
        assert type(r.gamma2) is complex

    def test_recompute_is_deterministic(self):
        a = symbols.characteristic_roots()
        b = symbols.characteristic_roots()
        assert a == b

    def test_validate_rejects_perturbation(self):
        from dataclasses import replace

        bad = replace(symbols.ROOTS, gamma1=symbols.ROOTS.gamma1 + 1e-6)
        with pytest.raises(AssertionError):
            bad.validate()


class TestSymbolMatrix:
    def test_entries(self):
        s = 2.5
        a = symbols.symbol_matrix(math.sqrt(s))
        expected = np.array(
            [[0.0, 1.0, 0.0], [-(s**2), 0.0, s], [0.0, -s, -s]]
        )
        assert np.allclose(a, expected, rtol=0, atol=1e-14)

    def test_frequency_vector_argument(self):
        xi = np.array([1.2, -0.7])
        s = float(xi @ xi)
        assert np.allclose(
            symbols.symbol_matrix(xi), symbols.symbol_matrix(math.sqrt(s))
        )

    @pytest.mark.parametrize("s", [0.25, 1.0, 7.0, 144.0])
    def test_eigenvalues_scale_with_s(self, s):
        eig = np.linalg.eigvals(symbols.symbol_matrix(math.sqrt(s)))
        target = sorted((-g * s for g in symbols.GAMMAS), key=lambda z: (z.real, z.imag))
        got = sorted(eig, key=lambda z: (z.real, z.imag))
        for a, b in zip(got, target):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))

    def test_zero_frequency_is_nilpotent_jordan_block(self):
        a = symbols.symbol_matrix(0.0)
        assert np.allclose(a, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        assert np.allclose(a @ a, 0.0)


class TestResolvent:
    def test_inverse_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = 10.0 ** rng.uniform(-3, 2)
            lam = 10.0 ** rng.uniform(-2, 2) * cmath.exp(1j * rng.uniform(-1.5, 1.5))
            a = symbols.symbol_matrix(math.sqrt(s))
            r = symbols.resolvent_matrix(math.sqrt(s), lam)
            res = np.abs((lam * np.eye(3) - a) @ r - np.eye(3)).max()
            assert res <= 1e-12

    def test_determinant_factorizations_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            s = 10.0 ** rng.uniform(-3, 2)
            lam = 10.0 ** rng.uniform(-2, 2) * cmath.exp(1j * rng.uniform(-3.0, 3.0))
            da, db = symbols.determinant_pair(math.sqrt(s), lam)
            assert abs(da - db) <= 1e-10 * max(abs(da), abs(db))

    def test_batched_matches_scalar(self):
        # one call over a broadcast (s, lambda) grid, s = 0 included, against
        # a dense inverse at every grid point
        svals = np.array([0.0, 0.5, 1.0, 9.0])
        lams = np.array([0.3 + 0.9j, 2.0, 1.0 - 4.0j])
        batch = symbols.resolvent_matrices(svals[None, :], lams[:, None])
        assert batch.shape == (3, 4, 3, 3)
        for i, lam in enumerate(lams):
            for k, s in enumerate(svals):
                dense = np.linalg.inv(lam * np.eye(3) - symbols.symbol_matrix(math.sqrt(s)))
                assert np.allclose(batch[i, k], dense, rtol=1e-13, atol=1e-15)

    def test_singular_parameter_rejected(self):
        # lambda on the spectrum of one mode
        lam = -symbols.ROOTS.gamma1 * 4.0
        with pytest.raises(symbols.SingularParameterError):
            symbols.resolvent_matrix(2.0, lam)

    def test_batched_singular_names_offending_mode(self):
        lam = -symbols.ROOTS.gamma1 * 4.0
        with pytest.raises(symbols.SingularParameterError, match="4"):
            symbols.resolvent_matrices(np.array([1.0, 4.0]), lam)

    def test_singular_lambda_in_lambda_array_names_index(self):
        lams = np.array([1.0, 2.0 + 1.0j, -symbols.ROOTS.gamma1 * 4.0, 3.0])
        with pytest.raises(symbols.SingularParameterError, match="index 2 "):
            symbols.resolvent_matrices(4.0, lams)

    def test_lambda_zero_rejected_at_zero_frequency(self):
        with pytest.raises(symbols.SingularParameterError):
            symbols.resolvent_matrix(0.0, 0.0)


class TestScaledResolvent:
    # Hand-checked at s = 1, lambda = 1: det = (1+gamma1)(1+gamma2)(1+gamma3) = 5.
    M0_ORACLE = np.array(
        [
            [1.2, 1.6, 0.8],
            [-0.4, 0.8, 0.4],
            [0.2, -0.4, 0.8],
        ]
    )

    def test_j0_oracle(self):
        m0 = symbols.scaled_resolvent_symbol(0, 1.0, 1.0)
        assert np.allclose(m0, self.M0_ORACLE, rtol=0, atol=1e-12)

    def test_j1_mixed_entry_oracle(self):
        m1 = symbols.scaled_resolvent_symbol(1, 1.0, 1.0)
        assert m1[1, 0] == pytest.approx(-0.2 * math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_matches_dense_construction(self, j):
        rng = np.random.default_rng(2)
        for _ in range(25):
            xi = 10.0 ** rng.uniform(-1.5, 1.5)
            lam = 10.0 ** rng.uniform(-1, 1) * cmath.exp(1j * rng.uniform(-1.5, 1.5))
            a = symbols.symbol_matrix(xi)
            res = np.linalg.inv(lam * np.eye(3) - a)
            dense = (
                lam ** (j / 2.0)
                * symbols.scaling_matrix(2 - j, xi)
                @ res
                @ np.linalg.inv(symbols.scaling_matrix(0, xi))
            )
            got = symbols.scaled_resolvent_symbol(j, xi, lam)
            assert np.allclose(got, dense, rtol=1e-10, atol=1e-13)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            symbols.scaled_resolvent_symbol(3, 1.0, 1.0)
