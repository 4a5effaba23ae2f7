"""End-to-end acceptance: eight numbered criteria, one verdict line each.

Each test prints exactly one `criterion N: PASS/FAIL` line (visible with -s,
or in the failure report) and enforces the stated tolerances and runtime
budget.  Tolerances are pinned here on purpose; loosening them is a red flag.
"""

import json
import math
import time

import numpy as np
import pytest

from thermoplate import bounded, cli, multipliers as mp, symbols, torus

TWO_PI = 2.0 * math.pi


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_root_structure():
    t0 = time.perf_counter()
    r = symbols.ROOTS
    checks = [
        0.0 < r.gamma1 < 1.0,
        0.0 < r.gamma2.real < 0.5,
        r.gamma2.real == r.gamma3.real,
        math.pi / 2 < r.theta0 < math.pi,
    ]
    residuals = [abs(symbols.poly_eval(-g)) for g in symbols.GAMMAS]
    checks.append(max(residuals) <= 1e-12)
    g1, g2, g3 = symbols.GAMMAS
    vieta = max(
        abs(g1 + g2 + g3 - 1.0),
        abs(g1 * g2 + g1 * g3 + g2 * g3 - 2.0),
        abs(g1 * g2 * g3 - 1.0),
    )
    checks.append(vieta <= 1e-12)
    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 1.0)
    verdict(
        1,
        all(checks),
        f"gamma1={r.gamma1:.6f}, max residual {max(residuals):.2e}, "
        f"vieta {vieta:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_resolvent_correctness():
    # 100 moduli x 100 sector points = 1e4 (xi, lambda) pairs; |xi| is capped
    # at 3e2 so that the s^2 entry stays within double-precision headroom of
    # the 1e-10 residual target
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    xi_mod = 10.0 ** rng.uniform(-3, math.log10(3e2), 100)
    svals = xi_mod**2
    lam_mod = 10.0 ** rng.uniform(-3, 3, 100)
    lam_arg = rng.uniform(-0.95, 0.95, 100) * symbols.ROOTS.theta0
    lams = 1.0 + lam_mod * np.exp(1j * lam_arg)

    worst_res = 0.0
    worst_det = 0.0
    eye = np.eye(3)
    for lam in lams:
        rs = symbols.resolvent_matrices(svals, lam)
        mats = np.empty((len(svals), 3, 3), dtype=complex)
        mats[:, 0, 0] = lam
        mats[:, 0, 1] = -1.0
        mats[:, 0, 2] = 0.0
        mats[:, 1, 0] = svals**2
        mats[:, 1, 1] = lam
        mats[:, 1, 2] = -svals
        mats[:, 2, 0] = 0.0
        mats[:, 2, 1] = svals
        mats[:, 2, 2] = lam + svals
        res = np.abs(np.einsum("nij,njk->nik", mats, rs) - eye).max()
        worst_res = max(worst_res, float(res))
        for s in svals[:: 20]:
            da, db = symbols.determinant_pair(math.sqrt(s), lam)
            worst_det = max(worst_det, abs(da - db) / max(abs(da), abs(db)))
    elapsed = time.perf_counter() - t0
    ok = worst_res <= 1e-10 and worst_det <= 1e-10 and elapsed < 5.0
    verdict(
        2,
        ok,
        f"10^4 samples, max inverse residual {worst_res:.2e}, "
        f"max det mismatch {worst_det:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_multiplier_suite():
    t0 = time.perf_counter()
    sample = mp.SectorSample()
    suite = mp.example_suite(sample)
    suite_ok = all(rep.passed for rep in suite)
    entries_ok = True
    for j in (0, 2):
        scans = mp.scaled_resolvent_entry_scans(j, sample)
        entries_ok = entries_ok and len(scans) == 9
        entries_ok = entries_ok and all(rep.passed for rep in scans.values())
    base, extended = mp.constant_one_origin_growth()
    growth = extended / base
    elapsed = time.perf_counter() - t0
    ok = suite_ok and entries_ok and growth >= 1e3 and elapsed < 120.0
    verdict(
        3,
        ok,
        f"examples {'ok' if suite_ok else 'FAIL'}, 18 entry scans "
        f"{'ok' if entries_ok else 'FAIL'}, origin growth {growth:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_non_sectoriality():
    t0 = time.perf_counter()
    ks = (1.0, 10.0, 100.0)
    wit_rel = max(
        abs(mp.nonsectoriality_witness(k) - mp.witness_closed_form(k))
        / mp.witness_closed_form(k)
        for k in ks
    )
    # grid with frequency spacing 1/100 holds the matched modes s = k^-2
    grid = torus.TorusGrid((8192,), (200.0 * TWO_PI / 2.0,))
    lam_origin = np.array([k**-2 for k in ks])
    b_origin = torus.resolvent_bound_sweep(2, lam_origin, grid)
    grows = bool(np.all(np.diff(b_origin) > 0) and b_origin[-1] / b_origin[0] >= 1e3)

    lam_shift = 1.0 + lam_origin
    b_shift = torus.resolvent_bound_sweep(2, lam_shift, grid)
    fine = torus.TorusGrid((16384,), (200.0 * TWO_PI / 2.0,))
    b_shift_fine = torus.resolvent_bound_sweep(2, lam_shift, fine)
    bounded_ok = bool(np.all(b_shift <= 10.0))
    stable = float(np.abs(b_shift - b_shift_fine).max() / np.abs(b_shift).max())
    elapsed = time.perf_counter() - t0
    ok = (
        wit_rel <= 1e-12
        and grows
        and bounded_ok
        and stable <= 1e-6
        and elapsed < 60.0
    )
    verdict(
        4,
        ok,
        f"witness rel {wit_rel:.2e}, origin sweep {b_origin.round(2).tolist()}, "
        f"shifted max {b_shift.max():.3f}, grid drift {stable:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_semigroup_evolution():
    t0 = time.perf_counter()
    details = []
    ok = True
    for modes, lengths in (((128,), (TWO_PI,)), ((64, 64), (TWO_PI, TWO_PI))):
        grid = torus.TorusGrid(modes, lengths)
        rng = np.random.default_rng(7)
        st = torus.random_state(grid, rng)

        one, _ = torus.evolve(st, 0.6)
        two, _ = torus.evolve(one, 0.9)
        direct, _ = torus.evolve(st, 1.5)
        semi = torus.e_norm(
            grid, two.u - direct.u, two.v - direct.v, two.theta - direct.theta
        ) / direct.e_norm(0)
        ok = ok and semi <= 1e-9

        # data along the real eigenvector of the slowest real eigenvalue
        k0 = (1,) * len(modes)
        xi0 = np.ones(len(modes))
        s0 = float(xi0 @ xi0)
        w, vecs = np.linalg.eig(symbols.symbol_matrix(xi0))
        idx = int(np.argmin(np.abs(w + symbols.ROOTS.gamma1 * s0)))
        vec = vecs[:, idx].real
        vec /= np.abs(vec).max()
        mono = torus.cosine_mode_state(grid, k0, tuple(vec))
        tt = 0.75
        out, _ = torus.evolve(mono, tt)
        decay = math.exp(-symbols.ROOTS.gamma1 * s0 * tt)
        eig_err = max(
            np.abs(o - f * decay).max() for o, f in zip(out.fields(), mono.fields())
        )
        ok = ok and eig_err <= 1e-8

        fit = torus.modal_decay_fit(grid, k0)
        slow_rel = abs(
            abs(fit["slowest_rate"]) - symbols.ROOTS.gamma2.real * s0
        ) / (symbols.ROOTS.gamma2.real * s0)
        ok = ok and slow_rel <= 0.01

        if len(modes) == 1:
            x = grid.points()[0]
            bump = np.exp(-4.0 * (1.0 - np.cos(x)))
        else:
            x, y = np.meshgrid(*grid.points(), indexing="ij")
            bump = np.exp(-3.0 * (2.0 - np.cos(x) - np.cos(y)))
        state = torus.StateField(grid, bump, np.zeros_like(bump), np.zeros_like(bump))
        lap = torus.laplace_transform_error(state, 2.0)
        ok = ok and lap <= 1e-3
        details.append(
            f"{'x'.join(map(str, modes))}: semi {semi:.1e}, eig {eig_err:.1e}, "
            f"fit {slow_rel:.1e}, laplace {lap:.1e}"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    verdict(5, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_6_bounded_spectrum():
    t0 = time.perf_counter()
    dom = bounded.interval(0.0, 1.0)
    bc = bounded.free()
    ok = True
    parts = []
    for m in (50, 100, 200):
        rep = bounded.spectrum(bounded.assemble_generator(dom, m, bc))
        enclosed = rep.max_real_part <= rep.zero_tol
        ok = ok and enclosed
        ok = ok and rep.kernel_dimension == 3
        ok = ok and rep.zero_cluster_count >= 5
        parts.append(
            f"M={m} maxRe {rep.max_real_part:.1e} kdim {rep.kernel_dimension} "
            f"cluster {rep.zero_cluster_count}"
        )
    study = bounded.convergence_study(dom, bc, (50, 100, 200), count=4)
    orders_ok = bool(np.all(study.orders >= 1.5) and np.all(study.orders <= 2.5))
    ok = ok and orders_ok
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    verdict(
        6,
        ok,
        "; ".join(parts)
        + f"; orders {np.round(study.orders, 2).tolist()}, {elapsed:.1f}s",
    )


def test_criterion_7_exponential_stability():
    t0 = time.perf_counter()
    gen1 = bounded.assemble_generator(
        bounded.interval(0.0, 1.0), 100, bounded.free()
    )
    fit1 = bounded.decay_rate_experiment(gen1)
    ok = fit1.decaying and fit1.relative_gap <= 0.10

    gen2 = bounded.assemble_generator(
        bounded.rectangle(0.0, 1.0, 0.0, 1.0), 24, bounded.lt_variant(0.3, 1.0)
    )
    rep = bounded.spectrum(gen2)
    # every eigenvalue sits strictly in the left half plane and none is in
    # the zero cluster; the margin to the axis is resolution limited but
    # resolvable, and the closest eigenvalue to 0 is far outside zero_tol
    min_mod = float(np.abs(rep.eigenvalues).min())
    neutral_free = (
        rep.zero_cluster_count == 0
        and rep.max_real_part < 0.0
        and min_mod > rep.zero_tol
    )
    ok = ok and neutral_free
    fit2 = bounded.decay_rate_experiment(gen2)
    ok = ok and fit2.decaying and fit2.relative_gap <= 0.10
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    verdict(
        7,
        ok,
        f"1D gap {fit1.relative_gap:.3f}; lt axis margin "
        f"{-rep.max_real_part:.2e} (zero_tol {rep.zero_tol:.1e}, "
        f"min |eig| {min_mod:.2f}), 2D gap {fit2.relative_gap:.3f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_reproducibility(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    monkeypatch.setenv(cli.ENV_OUT, str(tmp_path))
    commands = [
        ["roots"],
        ["witness", "1", "10", "100"],
        ["multscan"],
        ["entries"],
        ["sweep", "--modes", "256"],
        ["evolve", "--modes", "32", "--t", "0.5"],
        ["spectrum", "--grid", "50"],
        ["decay", "--grid", "60"],
        ["converge", "--grids", "50,100,200"],
    ]
    ok = True
    for argv in commands:
        sub = tmp_path / argv[0]
        sub.mkdir()
        args = argv + ["--out", str(sub)]
        rc1 = cli.main(args)
        first = {p.name: p.read_bytes() for p in sub.iterdir()}
        rc2 = cli.main(args)
        second = {p.name: p.read_bytes() for p in sub.iterdir()}
        same = rc1 == rc2 == 0 and sorted(first) == sorted(second)
        if same:
            for name, payload in first.items():
                if name == "manifest.json":
                    ma, mb = json.loads(payload), json.loads(second[name])
                    ma.pop("wall_time_s")
                    mb.pop("wall_time_s")
                    same = same and ma == mb
                else:
                    same = same and payload == second[name]
        ok = ok and same
        assert same, f"command {argv[0]} is not reproducible"
    elapsed = time.perf_counter() - t0
    verdict(8, ok, f"9 commands byte-identical on rerun, {elapsed:.1f}s")
