"""Exponent formulas, the nonconvex pair programs, and KL-ball bounds."""
import numpy as np
import pytest
from scipy.special import rel_entr

from outlier_testing.errors import ValidationError
from outlier_testing.exponents import (
    KlBallSpec,
    SolverOptions,
    _constraint,
    _program_value,
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

FAST_OPTS = SolverOptions(restarts=4)


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
        with pytest.raises(ValidationError):
            exponent_univ_multi([mu] * 5, pi, t=1)


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
        for _ in range(20):
            center = rng.dirichlet(np.ones(k))
            direction = rng.normal(size=k)
            # the tilt tends to the vertex where direction is smallest
            vertex_div = -np.log(center[np.argmin(direction)])
            radius = rng.uniform(0.01, 0.99) * vertex_div
            x = _tilt_to_radius(np.log(center), direction, radius)
            assert abs(rel_entr(x, center).sum() - radius) <= 1e-12 * radius

    @pytest.mark.parametrize("fraction", [0.1, 0.25, 0.5, 0.9])
    def test_binary_ball_solved_in_one_step(self, fraction):
        # at K=2 the first tilt is the ball minimizer and the exact line
        # search steps onto it, so the second iteration certifies a zero gap
        for mu, pi in PAIRS:
            res = min_over_kl_ball(mu, KlBallSpec(pi, fraction * kl(mu, pi)))
            assert res.iterations == 2
            assert res.feasibility_gap <= 1e-12

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
