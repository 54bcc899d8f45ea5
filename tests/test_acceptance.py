"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Each test computes its checks, prints a single summary line, then
asserts.  Run with -s (or read captured output on failure) to see the
lines; the pytest verdict per test mirrors them.
"""
import math
import time

import numpy as np

from outlier_testing.detectors import (
    NULL,
    Coordinate,
    DetectorKind,
    HypothesisFamily,
    Subset,
)
from outlier_testing.exponents import (
    SolverOptions,
    exponent_both_known,
    exponent_univ_single,
    grid_exponent_univ_single,
    thm_single_lower_bound,
    typical_floor_log,
)
from outlier_testing.oracle import (
    brute_force_error,
    enumerate_types,
    exact_error,
    exponent_fit,
    type_log_prob,
)
from outlier_testing.sim import SimConfig, estimate_error, exponent_sweep
from outlier_testing.simplex import (
    Pmf,
    TypeVector,
    bhattacharyya,
    chernoff,
    geometric_midpoint,
)

PAIRS = [
    (Pmf(np.array([0.3, 0.7])), Pmf(np.array([0.7, 0.3]))),
    (Pmf(np.array([0.35, 0.65])), Pmf(np.array([0.65, 0.35]))),
    (Pmf(np.array([0.4, 0.6])), Pmf(np.array([0.6, 0.4]))),
]
MU, PI = PAIRS[0]
TWO_B1 = 0.17435338714477777
FAM3 = HypothesisFamily.single_outlier(3)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_known_law_exponent():
    t0 = time.monotonic()
    ns = list(range(20, 161, 20))
    slopes = {}
    for kind in (DetectorKind.ML_SINGLE, DetectorKind.TYP_SINGLE):
        errs = [
            exact_error(kind, FAM3, Coordinate(1), n, 2, MU, PI).log_prob for n in ns
        ]
        slopes[kind] = exponent_fit(ns, errs).slope
    ml, typ = slopes[DetectorKind.ML_SINGLE], slopes[DetectorKind.TYP_SINGLE]
    elapsed = time.monotonic() - t0
    ok = abs(ml / TWO_B1 - 1) <= 0.10 and abs(typ / TWO_B1 - 1) <= 0.10
    ok &= elapsed <= 60.0
    _report(1, ok, f"ml slope {ml:.5f}, typ slope {typ:.5f}, target {TWO_B1:.5f}, "
                   f"{elapsed:.1f}s")


TIGHT_NS = list(range(400, 2001, 200))  # exact errors by the per-coordinate route


def _tight_slope(kind, fam, truth, mus):
    errs = [exact_error(kind, fam, truth, n, 2, mus, PI) for n in TIGHT_NS]
    assert {e.route for e in errs} == {"per-coordinate"}
    return exponent_fit(TIGHT_NS, [e.log_prob for e in errs]).slope


def test_criterion_1_tight_from_exact_errors():
    # beside criterion 1: at n = 400..2000 the fitted slopes lie within 3e-5 of 2B
    gaps = {kind.value: _tight_slope(kind, FAM3, Coordinate(1), MU) / TWO_B1 - 1
            for kind in (DetectorKind.ML_SINGLE, DetectorKind.TYP_SINGLE)}
    ok = all(abs(gap) <= 1e-3 for gap in gaps.values())
    _report(1, ok, "tight, n 400..2000: " + ", ".join(f"{k} {g:+.2e}" for k, g in gaps.items())
            + " relative to 2B")


def test_criterion_2_universal_exponent_positivity():
    details = []
    ok = True
    solver1 = None
    for mu, pi in PAIRS:
        solver = exponent_univ_single(mu, pi, m=3)
        grid = grid_exponent_univ_single(mu, pi, steps=400)
        if solver1 is None:
            solver1 = solver.value
        ok &= solver.value > 0.005
        ok &= abs(solver.value - grid.value) <= 2e-3
        details.append(f"{solver.value:.5f}/{grid.value:.5f}")
    ns = [40, 60, 80, 100, 120]
    errs = [
        exact_error(DetectorKind.UNIV_SINGLE, FAM3, Coordinate(1), n, 2, MU, PI).log_prob
        for n in ns
    ]
    slope = exponent_fit(ns, errs).slope
    ok &= abs(slope / solver1 - 1) <= 0.15
    _report(2, ok, f"solver/grid {details}, oracle slope {slope:.5f} vs {solver1:.5f}")


def test_criterion_3_lower_bound_convergence():
    ok = True
    gaps = []
    for (mu, pi), idx in zip(PAIRS, range(3)):
        two_b = 2 * bhattacharyya(mu, pi)
        vals = [thm_single_lower_bound(mu, pi, m).value for m in range(3, 201)]
        ok &= bool(np.all(np.diff(vals) >= -1e-9))
        ok &= all(v <= two_b + 1e-9 for v in vals)
        # smallest M putting the ball radius at or below 1e-4
        numer = two_b + typical_floor_log(pi)
        m_big = math.ceil(numer / 1e-4) + 1
        big = thm_single_lower_bound(mu, pi, m_big).value
        rel = 1 - big / two_b
        gaps.append(f"M={m_big} gap {rel:.3%}")
        ok &= rel <= 0.01
    lower3 = thm_single_lower_bound(MU, PI, 3).value
    univ3 = exponent_univ_single(MU, PI, 3).value
    ok &= lower3 <= univ3 + 2e-3 <= TWO_B1 + 4e-3
    _report(3, ok, f"monotone/bounded over M 3..200; small-radius {gaps}; "
                   f"sandwich {lower3:.4f} <= {univ3:.4f} <= {TWO_B1:.4f}")


def test_criterion_4_divergence_property_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(44)
    ok = True
    worst_val, worst_cell = 0.0, 0.0
    grids = {}
    for k, step in ((2, 1e-3), (3, 2e-3)):
        if k == 2:
            a = np.arange(step, 1.0, step)
            grids[k] = np.stack([a, 1 - a], axis=1)
        else:
            a = np.arange(step, 1.0, step)
            aa, bb = np.meshgrid(a, a)
            mask = aa + bb < 1.0 - step / 2
            grids[k] = np.stack([aa[mask], bb[mask], 1 - aa[mask] - bb[mask]], axis=1)
    steps = {2: 1e-3, 3: 2e-3}
    for i in range(1000):
        k = 2 if i < 500 else 3
        p = Pmf.normalize(rng.dirichlet(np.ones(k)) + 0.05)
        q = Pmf.normalize(rng.dirichlet(np.ones(k)) + 0.05)
        grid = grids[k]
        log_grid = np.log(grid)
        obj = (grid * (2 * log_grid - np.log(p.probs) - np.log(q.probs))).sum(axis=1)
        j = int(np.argmin(obj))
        two_b = 2 * bhattacharyya(p, q)
        worst_val = max(worst_val, abs(obj[j] - two_b))
        cell = np.max(np.abs(grid[j] - geometric_midpoint(p, q).probs))
        worst_cell = max(worst_cell, cell)
        ok &= abs(obj[j] - two_b) <= 1e-3
        ok &= cell <= steps[k] + 1e-12
        ok &= chernoff(p, q) <= two_b + 1e-10
    # s-search Chernoff vs the min-max characterization on a binary grid
    worst_mm = 0.0
    xs = np.arange(1e-5, 1.0, 1e-5)
    qgrid = np.stack([xs, 1 - xs], axis=1)
    log_q = np.log(qgrid)
    for _ in range(50):
        p = Pmf.normalize(rng.dirichlet(np.ones(2)) + 0.05)
        q = Pmf.normalize(rng.dirichlet(np.ones(2)) + 0.05)
        d_p = (qgrid * (log_q - np.log(p.probs))).sum(axis=1)
        d_q = (qgrid * (log_q - np.log(q.probs))).sum(axis=1)
        minmax = float(np.maximum(d_p, d_q).min())
        worst_mm = max(worst_mm, abs(chernoff(p, q) - minmax))
        ok &= abs(chernoff(p, q) - minmax) <= 1e-4
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 120.0
    _report(4, ok, f"grid-vs-2B worst {worst_val:.2e}, cell worst {worst_cell:.2e}, "
                   f"minmax worst {worst_mm:.2e} over 1000+50 pairs, {elapsed:.1f}s")


def test_criterion_5_null_aware_consistency():
    fam = HypothesisFamily.single_outlier(3, include_null=True)
    ns = [10, 20, 30, 40, 50, 60]
    p0 = [
        exact_error(DetectorKind.NULL_SINGLE, fam, NULL, n, 2, MU, PI).prob
        for n in ns
    ]
    # the default threshold drives P0 to numerical zero almost immediately,
    # so "decreasing" is read as nonincreasing within absolute 1e-12
    ok = all(b <= a + 1e-12 for a, b in zip(p0, p0[1:]))
    ok &= p0[-1] < 0.05
    slopes = []
    for i in (1, 2, 3):
        errs = [
            exact_error(DetectorKind.NULL_SINGLE, fam, Coordinate(i), n, 2, MU, PI).log_prob
            for n in ns
        ]
        pts = [(n, e) for n, e in zip(ns, errs) if -math.inf < e < 0.0]
        slope = exponent_fit([p[0] for p in pts], [p[1] for p in pts]).slope
        slopes.append(slope)
        ok &= slope > 0.0
    _report(5, ok, f"P0 {p0[0]:.1e}->{p0[-1]:.1e} nonincreasing, "
                   f"non-null slopes {[f'{s:.1e}' for s in slopes]}")


def test_criterion_6_multi_outlier_exponent():
    t0 = time.monotonic()
    fam = HypothesisFamily.fixed_size(5, 2)
    ns = [10, 15, 20, 25, 30]
    errs = [
        exact_error(DetectorKind.TYP_MULTI, fam, Subset((1, 2)), n, 2, MU, PI).log_prob
        for n in ns
    ]
    slope_same = exponent_fit(ns, errs).slope
    ok = abs(slope_same / TWO_B1 - 1) <= 0.20

    vals = [0.30, 0.31, 0.32, 0.31, 0.30]
    mus = [Pmf(np.array([v, 1 - v])) for v in vals]
    errs = [
        exact_error(DetectorKind.TYP_MULTI, fam, Subset((3, 4)), n, 2, mus, PI).log_prob
        for n in ns
    ]
    slope_mixed = exponent_fit(ns, errs).slope
    target = min(2 * bhattacharyya(m, PI) for m in mus)
    elapsed = time.monotonic() - t0
    ok &= abs(slope_mixed / target - 1) <= 0.20
    ok &= elapsed <= 600.0
    _report(6, ok, f"identical slope {slope_same:.4f} vs {TWO_B1:.4f}, "
                   f"distinct slope {slope_mixed:.4f} vs {target:.4f}, {elapsed:.1f}s")


def test_criterion_6_tight_from_exact_errors():
    # beside criterion 6: at n = 400..2000 the fitted slopes lie within 2e-4 of
    # 2B, and of min_i 2B(mu_i, pi) for the distinct laws
    fam = HypothesisFamily.fixed_size(5, 2)
    same = _tight_slope(DetectorKind.TYP_MULTI, fam, Subset((1, 2)), MU) / TWO_B1 - 1
    mus = [Pmf(np.array([v, 1 - v])) for v in (0.30, 0.31, 0.32, 0.31, 0.30)]
    target = min(2 * bhattacharyya(m, PI) for m in mus)
    mixed = _tight_slope(DetectorKind.TYP_MULTI, fam, Subset((3, 4)), mus) / target - 1
    ok = abs(same) <= 1e-3 and abs(mixed) <= 1e-3
    _report(6, ok, f"tight, n 400..2000: identical {same:+.2e}, distinct {mixed:+.2e} relative")


def test_criterion_6_distinct_laws_at_m100():
    # beside criterion 6: criterion 6's distinct laws, cycled over M=100, give
    # the paper's known-law limit min_i 2B(mu_i, pi) at n = 400..2000
    fam = HypothesisFamily.fixed_size(100, 2)
    mus = [Pmf(np.array([v, 1 - v])) for v in (0.30, 0.31, 0.32, 0.31, 0.30) * 20]
    target = min(2 * bhattacharyya(m, PI) for m in mus)
    gap = _tight_slope(DetectorKind.TYP_MULTI, fam, Subset((3, 4)), mus) / target - 1
    _report(6, abs(gap) <= 1e-3, f"distinct laws at M=100, n 400..2000: {gap:+.2e} relative")


def test_criterion_7_identical_outlier_unknown_count():
    fam = HypothesisFamily.sized(5, [1, 2])
    cfg = SimConfig(
        kind=DetectorKind.IDENTICAL_UNIV, family=fam, k=2,
        n_grid=(10, 20, 30, 40), trials=500, seed=5, mus=MU, pi=PI,
    )
    ok = True
    lows = []
    for truth in fam.hypotheses:
        sweep = exponent_sweep(cfg, truth)
        lows.append(sweep.slope_lo)
        ok &= sweep.slope_lo > 0.0
    fam_null = HypothesisFamily.sized(5, [1, 2], include_null=True)
    cfg_null = SimConfig(
        kind=DetectorKind.NULL_IDENTICAL, family=fam_null, k=2,
        n_grid=(10, 20, 40, 80), trials=300, seed=5, mus=MU, pi=PI,
    )
    p0 = [estimate_error(cfg_null, NULL, n).estimate for n in cfg_null.n_grid]
    ok &= all(b <= a + 1e-12 for a, b in zip(p0, p0[1:])) and p0[-1] <= 0.05
    _report(7, ok, f"min slope_lo {min(lows):.4f} over 15 truths, null errors {p0}")


def test_criterion_8_oracle_integrity():
    ok = True
    worst = 0.0
    single_kinds = (
        DetectorKind.ML_SINGLE,
        DetectorKind.TYP_SINGLE,
        DetectorKind.UNIV_SINGLE,
        DetectorKind.MU_ONLY,
        DetectorKind.NULL_SINGLE,
        DetectorKind.IDENTICAL_UNIV,
        DetectorKind.NULL_IDENTICAL,
    )
    for kind in single_kinds:
        null_aware = kind in (DetectorKind.NULL_SINGLE, DetectorKind.NULL_IDENTICAL)
        identical = kind in (DetectorKind.IDENTICAL_UNIV, DetectorKind.NULL_IDENTICAL)
        fam = (
            HypothesisFamily.sized(3, [1], include_null=null_aware)
            if identical
            else HypothesisFamily.single_outlier(3, include_null=null_aware)
        )
        for truth in fam.hypotheses:
            for n in (1, 2, 3):
                exact = exact_error(kind, fam, truth, n, 2, MU, PI).prob
                brute = brute_force_error(kind, fam, truth, n, 2, MU, PI)
                worst = max(worst, abs(exact - brute))
                ok &= abs(exact - brute) <= 1e-12
    # subset detectors need 1 < T < M/2, impossible at M=3; checked at M=5
    fam5 = HypothesisFamily.fixed_size(5, 2)
    for kind in (DetectorKind.TYP_MULTI, DetectorKind.UNIV_MULTI):
        for n in (1, 2):
            exact = exact_error(kind, fam5, Subset((1, 3)), n, 2, MU, PI).prob
            brute = brute_force_error(kind, fam5, Subset((1, 3)), n, 2, MU, PI)
            worst = max(worst, abs(exact - brute))
            ok &= abs(exact - brute) <= 1e-12

    rng = np.random.default_rng(88)
    worst_norm = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 9))
        law = Pmf.normalize(rng.dirichlet(np.ones(k)) + 1e-6)
        table = enumerate_types(n, k)
        total = sum(math.exp(type_log_prob(TypeVector(c), law)) for c in table.counts)
        worst_norm = max(worst_norm, abs(total - 1.0))
        ok &= abs(total - 1.0) <= 1e-9
    _report(8, ok, f"brute-force gap {worst:.2e}, normalization gap {worst_norm:.2e}")
