"""Exponent formulas, the nonconvex pair programs, and KL-ball bounds."""
from itertools import combinations

import numpy as np
import pytest
from scipy.special import rel_entr

from outlier_testing.errors import ValidationError
from outlier_testing.exponents import (
    KlBallSpec,
    SolverOptions,
    _tilt_to_radius,
    exponent_both_known,
    exponent_multi_known,
    exponent_multi_typ_known,
    exponent_univ_multi,
    exponent_univ_single,
    grid_exponent_univ_single,
    min_over_kl_ball,
    thm_multi_lower_bound,
    thm_single_lower_bound,
    typical_floor_log,
)
from outlier_testing.simplex import (
    Pmf,
    bhattacharyya,
    chernoff_pair_product,
    geometric_midpoint,
    kl,
)

PAIRS = [
    (Pmf(np.array([0.3, 0.7])), Pmf(np.array([0.7, 0.3]))),
    (Pmf(np.array([0.35, 0.65])), Pmf(np.array([0.65, 0.35]))),
    (Pmf(np.array([0.4, 0.6])), Pmf(np.array([0.6, 0.4]))),
]
TWO_B = [0.17435338714477777, 0.0943106794712413, 0.040821994520255214]
# laws so close that the constrained minimum lies between 1e-4 and 1e-3
CLOSE_PAIRS = [
    (Pmf(np.array([0.356, 0.644])), Pmf(np.array([0.317, 0.683]))),
    (Pmf(np.array([0.48, 0.52])), Pmf(np.array([0.5, 0.5]))),
]

K3_PAIR = (Pmf(np.array([0.2, 0.3, 0.5])), Pmf(np.array([0.5, 0.3, 0.2])))

FAST_OPTS = SolverOptions(restarts=4)

# exponent_univ_single as the former solver gave it, which ran the pair
# program over all M rows: one row per pair of PAIRS, CLOSE_PAIRS and
# K3_PAIR, at M = PINNED_MS with 4 restarts
PINNED_MS = (3, 4, 5, 6, 8, 10, 20)
PINNED_SINGLE = [
    [0.05739111536522061, 0.08616835205391679, 0.10357043011000822, 0.11523678150498032,
     0.12989513887144416, 0.1387302288379509, 0.15648761671902622],
    [0.03122094846636196, 0.046853698388726966, 0.05627413249969096, 0.06257402956067847,
     0.07047167180321504, 0.07522235700876466, 0.0847500805914088],
    [0.013566476985951287, 0.020353704771748776, 0.024433826797236068, 0.027157657010275407,
     0.030566792323835662, 0.032614579609022, 0.03671516600299698],
    [0.0005691441908883283, 0.0008537206188885434, 0.001024316586423447, 0.0011379630011605826,
     0.0012799119082287248, 0.0013650178553075822, 0.0015350753526130623],
    [0.00013340351565565688, 0.00020010564436735712, 0.00024012874891111372,
     0.00026681177777438097, 0.00030016675024873655, 0.0003201803987713421, 0.000360209248405588],
    [0.04617165198189706, 0.0693126517210177, 0.0832807855788428, 0.09263239741877938,
     0.10436761988872681, 0.11143304092403719, 0.12561696364944053],
]
# the same for CLOSE_PAIRS with 20 restarts, at M = 3, 4, 6, 10
PINNED_CLOSE_20 = [
    [0.0005691441908376154, 0.0008537206187322378, 0.0011379630011605826, 0.0013650178549649444],
    [0.00013340351565547474, 0.0002001056443551967, 0.00026681177777438097,
     0.00032018039871156484],
]
# coordinate laws and pi for univ-multi at M=5, T=2
MULTI_LAWS = {
    "identical": ([(0.3, 0.7)] * 5, (0.7, 0.3)),
    "distinct_k2": ([(0.3, 0.7), (0.25, 0.75), (0.2, 0.8), (0.35, 0.65), (0.15, 0.85)],
                    (0.7, 0.3)),
    "distinct_k3": ([(0.2, 0.3, 0.5), (0.1, 0.3, 0.6), (0.25, 0.25, 0.5), (0.2, 0.2, 0.6),
                     (0.15, 0.35, 0.5)], (0.5, 0.3, 0.2)),
}
# exponent_univ_multi as the former solver gave it, which solved an M-row
# pair program for every ordered pair of outlier sets, by restarts
PINNED_MULTI = {
    ("identical", 1): 0.06899279460339752,
    ("identical", 20): 0.06899279460292693,
    ("distinct_k2", 1): 0.061325240310197385,
    ("distinct_k2", 4): 0.06132524031001352,
    ("distinct_k3", 1): 0.0523561362912188,
    ("distinct_k3", 4): 0.0523561362912188,
}


def _multi_laws(name):
    mus, pi = MULTI_LAWS[name]
    return [Pmf(np.array(mu)) for mu in mus], Pmf(np.array(pi))


def _mix_term(q, outside):
    """sum over rows i of an outside set of D(q_i || mean of those rows)."""
    mix = q[outside].mean(axis=0)
    return float(rel_entr(q[outside], mix[None, :]).sum())


def _program_value(q, refs):
    """The pair program's objective over all M rows."""
    return float(rel_entr(q, refs).sum())


def _constraint(q, out_s, out_sp):
    """The pair program's constraint over all M rows: feasible where >= 0."""
    return _mix_term(q, out_s) - _mix_term(q, out_sp)


def _binary_kl(x, ref):
    return rel_entr(x, ref) + rel_entr(1.0 - x, 1.0 - ref)


def _replicated_error_point(mu, pi, m, steps=200, shifts=40):
    """Cheapest point found of the single-outlier error region of the form (q1, q2, p, ..., p).

    Binary alphabet, parameterized by first components.  q1 runs over a
    uniform grid, the shared pmf p of coordinates 3..M over a grid within
    0.5/(M-2) of pi, and q2 is placed by bisection just inside the error
    boundary S_1 - S_2 >= 0 on the far side of p, where that difference
    grows with q2.  Returns the full M x 2 array.
    """
    x1 = (np.arange(1, steps) / steps)[:, None]
    p = pi[0] + 0.5 / (m - 2) * np.linspace(-1.0, 1.0, shifts + 1)[None, :]
    a = (x1 + (m - 2) * p) / (m - 1)

    def s1_minus_s2(x2):
        # compensation identity for the replicated point
        b = (x2 + (m - 2) * p) / (m - 1)
        return (_binary_kl(x2, p) - _binary_kl(x1, p)
                + (m - 1) * (_binary_kl(a, p) - _binary_kl(b, p)))

    lo, hi = np.broadcast_to(p, a.shape), np.full(a.shape, 1.0 - 1e-12)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        outside = s1_minus_s2(mid) < 1e-12
        lo, hi = np.where(outside, mid, lo), np.where(outside, hi, mid)
    cost = _binary_kl(x1, mu[0]) + _binary_kl(hi, pi[0]) + (m - 2) * _binary_kl(p, pi[0])
    cost = np.where(s1_minus_s2(hi) >= 1e-12, cost, np.inf)
    i, j = np.unravel_index(np.argmin(cost), cost.shape)
    first = np.array([x1[i, 0], hi[i, j]] + [p[0, j]] * (m - 2))
    return np.stack([first, 1.0 - first], axis=1)


class TestClosedForms:
    def test_both_known_is_two_bhattacharyya(self):
        for (mu, pi), target in zip(PAIRS, TWO_B):
            res = exponent_both_known(mu, pi)
            assert res.value == pytest.approx(target, abs=1e-12)
            assert res.solver == "closed_form"

    def test_both_known_rejects_equal_laws(self):
        mu, _ = PAIRS[0]
        with pytest.raises(ValidationError):
            exponent_both_known(mu, mu)

    def test_equal_laws_up_to_relative_1e5(self):
        # np.allclose's test: |mu - pi| <= 1e-15 + 1e-5 |pi| in every letter
        pi = Pmf(np.array([0.5, 0.5]))
        within = Pmf(np.array([0.5 + 4.9e-6, 0.5 - 4.9e-6]))
        apart = Pmf(np.array([0.5 + 5e-5, 0.5 - 5e-5]))
        for check in (exponent_both_known, lambda mu, pi: thm_single_lower_bound(mu, pi, 10)):
            with pytest.raises(ValidationError):
                check(within, pi)
            assert check(apart, pi).value >= 0.0
        assert exponent_both_known(apart, pi).value > 0.0

    def test_multi_known_is_min_pairwise_product_chernoff(self):
        mus = [PAIRS[0][0], PAIRS[1][0], PAIRS[2][0]]
        pi = PAIRS[0][1]
        res = exponent_multi_known(mus, pi)
        pairs = [
            chernoff_pair_product(mus[i], mus[j], pi)
            for i in range(3)
            for j in range(3)
            if i != j
        ]
        assert res.value == pytest.approx(min(pairs), abs=1e-10)

    def test_multi_known_dominates_typ_known(self):
        mus = [PAIRS[0][0], PAIRS[1][0], PAIRS[2][0]]
        pi = PAIRS[0][1]
        assert (
            exponent_multi_known(mus, pi).value
            >= exponent_multi_typ_known(mus, pi).value - 1e-10
        )

    def test_multi_typ_known_is_min_two_b(self):
        mus = [p[0] for p in PAIRS]
        pi = PAIRS[0][1]
        res = exponent_multi_typ_known(mus, pi)
        expected = min(2 * bhattacharyya(m, pi) for m in mus)
        assert res.value == pytest.approx(expected, abs=1e-12)


class TestUnivSingle:
    def test_matches_grid_oracle(self):
        mu, pi = PAIRS[0]
        solver = exponent_univ_single(mu, pi, m=3, opts=FAST_OPTS)
        grid = grid_exponent_univ_single(mu, pi, steps=400)
        assert solver.value == pytest.approx(grid.value, abs=2e-3)
        assert solver.feasibility_gap <= 1e-8

    def test_capped_by_both_known(self):
        for (mu, pi), target in zip(PAIRS, TWO_B):
            res = exponent_univ_single(mu, pi, m=3, opts=FAST_OPTS)
            assert 0.0 < res.value <= target + 1e-10

    @pytest.mark.parametrize("m", [3, 4, 6, 10])
    def test_close_laws_feasible(self, m):
        for mu, pi in CLOSE_PAIRS:
            res = exponent_univ_single(mu, pi, m, opts=SolverOptions(restarts=20))
            assert res.solver == "multistart_slsqp"
            assert res.feasibility_gap <= 1e-8
            q = np.stack([row.probs for row in res.minimizer])
            out_s, out_sp = np.arange(1, m), np.array([0, *range(2, m)])
            assert _constraint(q, out_s, out_sp) >= -1e-8
            assert 0.0 < res.value <= 2 * bhattacharyya(mu, pi) + 1e-10
            if m == 3:
                grid = grid_exponent_univ_single(mu, pi, steps=400)
                assert res.value == pytest.approx(grid.value, abs=2e-3)

    @pytest.mark.parametrize("m", [4, 5, 8, 20])
    def test_beats_replicated_point_above_m3(self, m):
        # beyond the grid oracle's reach: the solver must do at least as well
        # as the replicated feasible point, and its coordinates 3..M share a pmf
        for mu, pi in PAIRS:
            res = exponent_univ_single(mu, pi, m, opts=FAST_OPTS)
            refs = np.tile(pi.probs, (m, 1))
            refs[0] = mu.probs
            cost = _program_value(_replicated_error_point(mu.probs, pi.probs, m), refs)
            assert res.value <= cost + 1e-9
            rows = np.stack([row.probs for row in res.minimizer])
            assert np.ptp(rows[2:], axis=0).max() <= 1e-6

    def test_fine_grid_cross_check(self):
        # an independent 1e-4-step sweep over the free binary coordinate
        # of the grid oracle's own minimizer landscape
        mu, pi = PAIRS[2]
        coarse = grid_exponent_univ_single(mu, pi, steps=200)
        fine = grid_exponent_univ_single(mu, pi, steps=1000)
        assert fine.value == pytest.approx(coarse.value, abs=5e-4)
        assert fine.value <= coarse.value + 1e-12


class TestUnivMulti:
    def test_positive_below_known_exponent(self):
        mu, pi = PAIRS[0]
        small = SolverOptions(restarts=1)
        res = exponent_univ_multi([mu] * 5, pi, t=2, opts=small)
        assert 0.0 < res.value <= exponent_multi_typ_known([mu] * 5, pi).value + 1e-9

    def test_t_range(self):
        mu, pi = PAIRS[0]
        for t in (0, 3):  # 1 <= T < M/2
            with pytest.raises(ValidationError):
                exponent_univ_multi([mu] * 5, pi, t=t)

    def test_identical_laws_approach_two_b(self):
        # the paper's limiting exponent of the universal fixed-size test: for
        # identical outliers it rises with M towards 2B(mu, pi)
        mu, pi = PAIRS[0]
        opts = SolverOptions(restarts=2)
        vals = [exponent_univ_multi([mu] * m, pi, 2, opts).value for m in (20, 100, 1000)]
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[-1] <= TWO_B[0] + 1e-10
        assert vals[-1] >= 0.99 * TWO_B[0]


class TestPinnedValues:
    """The reduced program returns the former M-row solver's values."""

    @pytest.mark.parametrize("row", range(len(PINNED_SINGLE)))
    def test_univ_single(self, row):
        mu, pi = [*PAIRS, *CLOSE_PAIRS, K3_PAIR][row]
        for m, want in zip(PINNED_MS, PINNED_SINGLE[row]):
            assert exponent_univ_single(mu, pi, m, FAST_OPTS).value == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("row", range(len(CLOSE_PAIRS)))
    def test_univ_single_close_laws(self, row):
        mu, pi = CLOSE_PAIRS[row]
        opts = SolverOptions(restarts=20)
        for m, want in zip((3, 4, 6, 10), PINNED_CLOSE_20[row]):
            assert exponent_univ_single(mu, pi, m, opts).value == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("name,restarts", sorted(PINNED_MULTI))
    def test_univ_multi(self, name, restarts):
        mus, pi = _multi_laws(name)
        res = exponent_univ_multi(mus, pi, 2, SolverOptions(restarts=restarts))
        assert res.value == pytest.approx(PINNED_MULTI[name, restarts], abs=1e-9)


def _full_program(minimizer, mus, pi, s, s_prime):
    """(constraint, cost) of a minimizer in the M-row pair program for S and S'."""
    m = len(mus)
    q = np.stack([row.probs for row in minimizer])
    refs = np.stack([mus[i].probs if i in s else pi.probs for i in range(m)])
    out_s = np.array([i for i in range(m) if i not in s])
    out_sp = np.array([i for i in range(m) if i not in s_prime])
    return _constraint(q, out_s, out_sp), _program_value(q, refs)


class TestReduction:
    """The reduced program's minimizer, expanded to M rows, solves the full program."""

    @pytest.mark.parametrize("m", [3, 4, 10, 20])
    def test_univ_single_minimizer(self, m):
        for mu, pi in (PAIRS[0], CLOSE_PAIRS[0], K3_PAIR):
            res = exponent_univ_single(mu, pi, m, FAST_OPTS)
            assert len(res.minimizer) == m
            gap, cost = _full_program(res.minimizer, [mu] * m, pi, (0,), (1,))
            assert gap >= -1e-8
            assert cost == pytest.approx(res.value, abs=1e-9)

    @pytest.mark.parametrize("name,m", [(name, 5) for name in sorted(MULTI_LAWS)]
                             + [("identical", 20)])
    def test_univ_multi_minimizer(self, name, m):
        mus, pi = _multi_laws(name)
        if m > len(mus):  # the identical laws on more coordinates
            mus = mus[:1] * m
        res = exponent_univ_multi(mus, pi, 2, FAST_OPTS)
        assert len(res.minimizer) == m
        # the pair of one documented layout takes the minimizer as a
        # feasible point of cost `value`: S \ S' = A, S' \ S the next d
        # coordinates, then the T - d coordinates S and S' share
        points = []
        for d in (1, 2):
            for a in combinations(range(m), d):
                rest = [i for i in range(m) if i not in a][:2]
                s, s_prime = set(a) | set(rest[d:]), set(rest)
                points.append(_full_program(res.minimizer, mus, pi, s, s_prime))
        assert any(gap >= -1e-8 and abs(cost - res.value) <= 1e-9 for gap, cost in points)

    @pytest.mark.parametrize("m,t", [(5, 1), (5, 2), (7, 3), (20, 2), (20, 3)])
    def test_multi_at_most_single_at_m_minus_t_plus_1(self, m, t):
        # the d = 1 program is univ-single's at M - T + 1 (at T = 1, univ-single's own)
        mu, pi = PAIRS[0]
        multi = exponent_univ_multi([mu] * m, pi, t, FAST_OPTS).value
        single = exponent_univ_single(mu, pi, m - t + 1, FAST_OPTS).value
        assert multi <= single + 1e-9
        if (m, t) == (5, 2):
            # the full swap d = T binds at small M
            assert multi < single - 1e-3
        if (m, t) == (20, 2):
            # and d = 1 at larger M
            assert multi == pytest.approx(single, abs=1e-9)


class TestKlBall:
    def test_radius_zero_returns_center_value(self):
        mu, pi = PAIRS[0]
        res = min_over_kl_ball(mu, KlBallSpec(pi, 0.0))
        assert res.value == pytest.approx(2 * bhattacharyya(mu, pi), abs=1e-12)

    def test_mu_inside_ball_gives_zero(self):
        mu, pi = PAIRS[0]
        res = min_over_kl_ball(mu, KlBallSpec(pi, kl(mu, pi) + 1e-6))
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_mid_radius_against_grid(self):
        mu, pi = PAIRS[0]
        radius = 0.25 * kl(mu, pi)
        res = min_over_kl_ball(mu, KlBallSpec(pi, radius))
        xs = np.linspace(1e-9, 1 - 1e-9, 200001)
        grid = np.stack([xs, 1 - xs], axis=1)
        d = (grid * (np.log(grid) - np.log(pi.probs))).sum(axis=1)
        obj = -2 * np.log(np.sqrt(grid * mu.probs).sum(axis=1))
        target = obj[d <= radius].min()
        assert res.value == pytest.approx(target, abs=1e-6)
        assert res.value - res.feasibility_gap <= target
        assert 0.0 < res.value < 2 * bhattacharyya(mu, pi)

    def test_mid_radius_against_grid_k3(self):
        mu, pi = Pmf(np.array([0.2, 0.3, 0.5])), Pmf(np.array([0.5, 0.3, 0.2]))
        radius = 0.25 * kl(mu, pi)
        res = min_over_kl_ball(mu, KlBallSpec(pi, radius))
        steps = 1000
        i, j = np.triu_indices(steps + 1)  # i <= j
        grid = np.stack([i, j - i, steps - j], axis=1) / steps
        d = rel_entr(grid, pi.probs).sum(axis=1)
        obj = -2 * np.log(np.sqrt(grid * mu.probs).sum(axis=1))
        target = obj[d <= radius].min()
        assert res.value == pytest.approx(target, abs=1e-4)
        assert res.value - res.feasibility_gap <= target
        assert 0.0 < res.value < 2 * bhattacharyya(mu, pi)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_tilt_hits_radius(self, k):
        rng = np.random.default_rng(k)
        centers, directions, radii, tilts = [], [], [], []
        for _ in range(20):
            center = rng.dirichlet(np.ones(k))
            direction = rng.normal(size=k)
            # the tilt tends to the vertex where direction is smallest
            vertex_div = -np.log(center[np.argmin(direction)])
            radius = rng.uniform(0.01, 0.99) * vertex_div
            x = _tilt_to_radius(np.log(center), direction, radius)
            assert abs(rel_entr(x, center).sum() - radius) <= 1e-12 * radius
            for stack, item in zip((centers, directions, radii, tilts), (center, direction, radius, x)):
                stack.append(item)
        # the same balls stacked as the rows of one batch give the same bits
        rows = _tilt_to_radius(np.log(centers), np.array(directions), np.array(radii))
        assert rows.shape == (20, k)
        assert (rows == np.array(tilts)).all()
        radii = np.array(radii)
        assert (np.abs(rel_entr(rows, centers).sum(axis=1) - radii) <= 1e-12 * radii).all()

    @pytest.mark.parametrize("fraction", [0.1, 0.25, 0.5, 0.9])
    def test_binary_ball_solved_in_one_step(self, fraction):
        # at K=2 the first tilt is the ball minimizer and the exact line
        # search steps onto it, so the second iteration certifies a zero gap
        for mu, pi in PAIRS:
            res = min_over_kl_ball(mu, KlBallSpec(pi, fraction * kl(mu, pi)))
            assert res.iterations == 2
            assert res.feasibility_gap <= 1e-12

    def test_step_stops_short_of_an_empty_letter(self, monkeypatch):
        # near the edge of these balls the tilt leaves a letter of mu's support
        # almost no mass, so S' is singular at the full step and the exact
        # step lies inside (a full step there sends Frank-Wolfe round a cycle);
        # values as the per-M solver (Brent's method) gave them
        monkeypatch.setattr("outlier_testing.exponents.FW_MAX_ITERS", 100)
        mu, pi = Pmf(np.array([0.01, 0.01, 0.98])), Pmf(np.array([0.98, 0.01, 0.01]))
        for fraction, want in ((0.9, 0.024129424333774383), (0.99, 0.0004262839963942929)):
            res = min_over_kl_ball(mu, KlBallSpec(pi, fraction * kl(mu, pi)))
            assert res.value == pytest.approx(want, abs=1e-9)

    def test_constant_direction_returns_center(self):
        # every point of the ball minimizes a constant linear objective
        center = np.array([0.2, 0.3, 0.5])
        x = _tilt_to_radius(np.log(center), np.full(3, -1.7), 0.1)
        np.testing.assert_allclose(x, center, rtol=0, atol=1e-15)

    def test_negative_radius_rejected(self):
        _, pi = PAIRS[0]
        with pytest.raises(ValidationError):
            KlBallSpec(pi, -0.1)

    def test_typical_floor_log(self):
        _, pi = PAIRS[0]
        assert typical_floor_log(pi) == pytest.approx(-np.log(0.3), abs=1e-12)


# thm_single_lower_bound of each pair of PAIRS on the bound ladder of the
# exponent-solvers benchmark, and thm_multi_lower_bound of MULTI_BOUND_SETS at
# T=2, M = 5, 8, 12, 20, as the per-M solver gave them (one scalar
# Frank-Wolfe solve per M, with Brent's method in the tilt and line search)
BOUND_LADDER = (3, 4, 5, 6, 8, 10, 13, 17, 22, 30, 40, 55, 75, 100, 140, 200, 300, 450, 700,
                1000, 1600, 2500, 4000, 6500, 9000, 13785)
PINNED_SINGLE_BOUNDS = [
    [0.0, 0.0, 0.0, 0.0017922468222302812, 0.010246923831249461, 0.019210082105943712,
     0.030874818465826404, 0.04314977628122896, 0.05475865906705113, 0.06808107773334059,
     0.0795993519776018, 0.09129079580147725, 0.10768110639473279, 0.1253559877979686,
     0.13993156424885464, 0.15054179488474834, 0.15861557072202617, 0.16391589277336055,
     0.167663754584737, 0.16967529546792293, 0.17142911464071028, 0.17247923848059943,
     0.1731788867122495, 0.1736276918829453, 0.17382744338300546, 0.17400807260682521],
    [0.0, 0.0, 0.0, 0.0, 0.00037545904213781594, 0.0028889583863542416, 0.007711906521696659,
     0.013722275273583048, 0.019927363462269206, 0.027461272910321934, 0.03423073991104169,
     0.0412846585855595, 0.051203945489781855, 0.0625124448716248, 0.0719059989498365,
     0.07878040725240285, 0.08403108157290401, 0.08748689732482146, 0.08993459633195548,
     0.09124966366799424, 0.09239695451432785, 0.09308418387648526, 0.09354219133516418,
     0.09383599035573106, 0.09396672837727824, 0.09408494446942921],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.8393946529943523e-06, 0.0008239585491531116,
     0.002580471186013379, 0.005378062967748815, 0.008284745695661467, 0.011586644586005189,
     0.014726149002853415, 0.02072784471327062, 0.026643218712778464, 0.03098392391027544,
     0.0343056143036877, 0.03649466817409733, 0.038046393395471376, 0.03888046501282122,
     0.039608312894415944, 0.040044344004935055, 0.04033492022186037, 0.04052128738368669,
     0.04060421158288639, 0.040679173316801216],
]
MULTI_BOUND_SETS = [
    ([(0.3, 0.7), (0.2, 0.8)], (0.7, 0.3)),
    ([(0.3, 0.7), (0.35, 0.65)], (0.7, 0.3)),
    ([(0.2, 0.3, 0.5), (0.3, 0.2, 0.5)], (0.5, 0.3, 0.2)),
]
PINNED_MULTI_BOUNDS = [
    [0.0, 0.0, 0.0025463587031625628, 0.020872890102920316],
    [0.0, 0.0, 7.845322825167221e-06, 0.009032095719127631],
    [0.0, 0.0, 0.0, 0.0008243462676179259],
]


class TestBatchedBounds:
    """One Frank-Wolfe batch for many M or many branches gives each one's own value."""

    @pytest.mark.parametrize("pair", range(len(PAIRS)))
    def test_rows_equal_batch_of_one(self, pair):
        mu, pi = PAIRS[pair]
        ms = np.array(sorted({*range(3, 61), *BOUND_LADDER}))
        batch = thm_single_lower_bound(mu, pi, ms)
        assert len(batch) == ms.size
        for m, res in zip(ms, batch):
            one = thm_single_lower_bound(mu, pi, int(m))
            assert res == one
            # a binary ball certifies in two iterations (none when mu lies inside it)
            assert res.iterations in (0, 2) and res.feasibility_gap <= 1e-12

    @pytest.mark.parametrize("pair", range(len(PAIRS)))
    def test_ladder_equals_per_m_solver(self, pair):
        mu, pi = PAIRS[pair]
        got = [res.value for res in thm_single_lower_bound(mu, pi, np.array(BOUND_LADDER))]
        np.testing.assert_allclose(got, PINNED_SINGLE_BOUNDS[pair], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("row", range(len(MULTI_BOUND_SETS)))
    def test_multi_equals_per_branch_solver(self, row):
        mus, pi = MULTI_BOUND_SETS[row]
        mus, pi = [Pmf(np.array(mu)) for mu in mus], Pmf(np.array(pi))
        got = [thm_multi_lower_bound(mus, pi, 2, m).value for m in (5, 8, 12, 20)]
        np.testing.assert_allclose(got, PINNED_MULTI_BOUNDS[row], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    def test_branches_equal_single_branch_calls(self, fraction):
        for mus, pi in MULTI_BOUND_SETS + [([(0.1, 0.2, 0.7), (0.3, 0.3, 0.4), (0.2, 0.3, 0.5)],
                                            (0.5, 0.3, 0.2))]:
            mus, pi = [Pmf(np.array(mu)) for mu in mus], Pmf(np.array(pi))
            ball = KlBallSpec(pi, fraction * min(kl(mu, pi) for mu in mus))
            res = min_over_kl_ball(mus, ball)
            singles = [min_over_kl_ball(mu, ball) for mu in mus]
            best = min(singles, key=lambda one: one.value)
            assert res.value == best.value
            assert res.minimizer == best.minimizer
            assert res.iterations == sum(one.iterations for one in singles)
            assert res.feasibility_gap == max(one.feasibility_gap for one in singles)

    def test_penalty_blocks_give_the_same_bits(self, monkeypatch):
        # blocks of three M give the bits of the default blocks
        mu, pi = PAIRS[0]
        ms = np.arange(3, 400)
        whole = [res.value for res in thm_single_lower_bound(mu, pi, ms)]
        monkeypatch.setattr("outlier_testing.exponents.PENALTY_BLOCK", 3 * 2 * 1024)
        assert [res.value for res in thm_single_lower_bound(mu, pi, ms)] == whole


class TestLowerBounds:
    def test_nondecreasing_in_m(self):
        mu, pi = PAIRS[1]
        vals = [thm_single_lower_bound(mu, pi, m).value for m in range(3, 40)]
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-9)

    @pytest.mark.parametrize("m", [20, 200, 1000])
    def test_single_bound_below_feasible_point(self, m):
        for (mu, pi), two_b in zip(PAIRS, TWO_B):
            q = _replicated_error_point(mu.probs, pi.probs, m)
            refs = np.tile(pi.probs, (m, 1))
            refs[0] = mu.probs
            out_s, out_sp = np.arange(1, m), np.array([0, *range(2, m)])
            assert _constraint(q, out_s, out_sp) >= 0.0
            cost = _program_value(q, refs)
            # the point beats the trivial cap, so the check has teeth near 2B
            assert cost < two_b
            assert thm_single_lower_bound(mu, pi, m).value <= cost

    @pytest.mark.parametrize("m", [3, 10, 60])
    def test_single_bound_ball_part_against_grid(self, m):
        # the grid minimum over the ball's feasible points is at least the
        # ball minimum, and on a grid of step h = 1e-6 within h |slope| of
        # it, the objectives' slope at the ball minimum being below 0.65 here
        xs = np.linspace(0.0, 1.0, 1_000_001)[1:-1]
        for mu, pi in PAIRS:
            radius = (2 * bhattacharyya(mu, pi) + typical_floor_log(pi)) / (m - 1)
            ball = min_over_kl_ball(mu, KlBallSpec(pi, radius))
            part = ball.value - ball.feasibility_gap
            inside = _binary_kl(xs, pi.probs[0]) <= radius
            grid = (-2 * np.log(np.sqrt(mu.probs[0] * xs) + np.sqrt(mu.probs[1] * (1 - xs))))[inside].min()
            assert grid - 1e-6 <= part <= grid
            assert thm_single_lower_bound(mu, pi, m).value >= max(part, 0.0)

    def test_single_bound_names_winning_part(self):
        mu, pi = PAIRS[0]
        assert thm_single_lower_bound(mu, pi, 10).solver == "kl_ball_convex"
        assert thm_single_lower_bound(mu, pi, 1000).solver == "penalized_closed_form"

    def test_sandwich_at_m3(self):
        for (mu, pi), target in zip(PAIRS, TWO_B):
            lower = thm_single_lower_bound(mu, pi, 3).value
            univ = exponent_univ_single(mu, pi, 3, opts=FAST_OPTS).value
            assert lower <= univ + 2e-3
            assert univ <= target + 1e-9

    def test_multi_bound_below_known_exponent(self):
        mu, pi = PAIRS[0]
        bound = thm_multi_lower_bound([mu] * 5, pi, t=2, m=5).value
        known = exponent_multi_known([mu] * 5, pi).value
        assert 0.0 <= bound <= known + 1e-9

    def test_multi_bound_grows_with_m(self):
        mu, pi = PAIRS[0]
        vals = [thm_multi_lower_bound([mu] * m, pi, t=2, m=m).value for m in (5, 8, 12, 20)]
        assert np.all(np.diff(vals) >= -1e-9)

    def test_multi_bound_is_certified_ball_minimum(self):
        # the Frank-Wolfe value sits up to its duality gap above the ball
        # minimum, so the bound is that value less the gap
        pi = Pmf(np.array([0.7, 0.3]))
        mus = [Pmf(np.array([0.3, 0.7])), Pmf(np.array([0.2, 0.8]))]
        for m in (5, 8, 20):
            res = thm_multi_lower_bound(mus, pi, t=2, m=m)
            radius = (exponent_multi_known(mus, pi).value + 2 * typical_floor_log(pi)) / (m - 2)
            ball = min_over_kl_ball(mus, KlBallSpec(pi, radius))
            assert res.value == max(ball.value - ball.feasibility_gap, 0.0)
            assert res.feasibility_gap == ball.feasibility_gap
