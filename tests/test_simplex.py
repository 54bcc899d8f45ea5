"""Divergence primitives: frozen values, identities, and property suites."""
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

from outlier_testing.errors import SupportError, ValidationError
from outlier_testing.simplex import (
    FULL_SUPPORT_MIN,
    Pmf,
    bhattacharyya,
    chernoff,
    chernoff_pair_product,
    chernoff_with_optimizer,
    entropy,
    geometric_midpoint,
    kl,
    mixture,
    _log_sum_exp,
)

P37 = Pmf(np.array([0.3, 0.7]))
P73 = Pmf(np.array([0.7, 0.3]))


def random_pmf(rng, k):
    return Pmf.normalize(rng.dirichlet(np.ones(k)) + 1e-6)


# three-law K=3 outlier sets over one typical law: each set's multi-outlier
# exponent takes the Chernoff information of three product-law pairs
K3_LAWS = [Pmf(np.array(p)) for p in ([0.2, 0.3, 0.5], [0.25, 0.25, 0.5], [0.1, 0.4, 0.5],
                                      [0.3, 0.2, 0.5], [0.2, 0.2, 0.6], [0.15, 0.35, 0.5],
                                      [0.35, 0.15, 0.5])]
K3_PI = Pmf(np.array([0.5, 0.3, 0.2]))
K3_SETS = list(combinations(range(len(K3_LAWS)), 3))[:16]


def floor_pmf(rng, k, at):
    """A random pmf on k letters whose letter ``at`` holds just above FULL_SUPPORT_MIN."""
    tiny = 1.5 * FULL_SUPPORT_MIN
    w = rng.dirichlet(np.ones(k))
    w[at] = 0.0
    w *= (1.0 - tiny) / w.sum()
    w[at] = tiny
    return Pmf(w)


def floor_pairs(k):
    """Law pairs with a mass near the support floor: against a random law, at the
    same letter, and at opposite letters (where the Chernoff information is large)."""
    rng = np.random.default_rng(100 + k)
    return [(floor_pmf(rng, k, 0), random_pmf(rng, k)),
            (floor_pmf(rng, k, 0), floor_pmf(rng, k, 0)),
            (floor_pmf(rng, k, 0), floor_pmf(rng, k, k - 1))]


def fine_chernoff(p, q):
    """Chernoff information by a bounded search at xatol=1e-12 on scipy's logsumexp."""
    log_p, log_q = np.log(p.probs), np.log(q.probs)
    res = minimize_scalar(lambda s: logsumexp(s * log_p + (1.0 - s) * log_q), bounds=(0.0, 1.0),
                          method="bounded", options={"xatol": 1e-12})
    return -float(res.fun)


def tilted_log_ratio_mean(p, q, s):
    """E_w[ln p - ln q] for w proportional to p^s q^(1-s): the objective's slope at s."""
    log_ratio = np.log(p.probs) - np.log(q.probs)
    w = p.probs**s * q.probs ** (1.0 - s)
    return float(w @ log_ratio / w.sum())


# weights in [0.05, 1] keep every pmf comfortably full-support
pmf_weights = st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5)


def pair_strategy(k_min=2, k_max=5):
    return st.integers(k_min, k_max).flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k),
            st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k),
        )
    )


class TestPmf:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            Pmf(np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            Pmf(np.array([-0.1, 1.1]))

    ENTRIES = "pmf entries must be finite and nonnegative"
    WEIGHTS = "weights must be nonnegative with a positive sum"

    @pytest.mark.parametrize("build,vector,message", [
        (Pmf, [-0.1, 1.1], ENTRIES),
        (Pmf, [math.nan, 1.0], ENTRIES),
        (Pmf, [math.inf, 0.0], ENTRIES),
        (Pmf, [0.0, 0.0], "pmf entries sum to .*0.0.*, not 1 within"),
        (Pmf.normalize, [-1.0, 3.0], WEIGHTS),
        (Pmf.normalize, [math.nan, 1.0], WEIGHTS),
        (Pmf.normalize, [math.inf, 1.0], WEIGHTS),
        (Pmf.normalize, [0.0, 0.0], WEIGHTS),
        (Pmf.normalize, [], WEIGHTS),
    ])
    def test_rejection_messages(self, build, vector, message):
        with pytest.raises(ValidationError, match=message):
            build(np.array(vector))

    def test_rejects_scalar_alphabet(self):
        with pytest.raises(ValidationError):
            Pmf(np.array([1.0]))

    def test_normalize(self):
        p = Pmf.normalize([2, 3, 5])
        assert np.allclose(p.probs, [0.2, 0.3, 0.5])

    def test_immutable(self):
        p = Pmf(np.array([0.4, 0.6]))
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_hashable(self):
        assert len({P37, Pmf(np.array([0.3, 0.7]))}) == 1

    def test_signed_zeros_hash_alike(self):
        plus, minus = Pmf(np.array([0.0, 1.0])), Pmf(np.array([-0.0, 1.0]))
        assert plus == minus and hash(plus) == hash(minus) and len({plus, minus}) == 1


class TestKl:
    def test_frozen_value(self):
        # 0.3 ln(3/7) + 0.7 ln(7/3) = 0.4 ln(7/3)
        assert kl(P37, P73) == pytest.approx(0.33891914415488145, abs=1e-12)
        assert kl(P37, P73) == pytest.approx(0.4 * math.log(7.0 / 3.0), abs=1e-12)

    def test_zero_iff_equal(self):
        assert kl(P37, P37) == 0.0

    def test_support_violation(self):
        p = Pmf(np.array([0.5, 0.5]))
        q = Pmf(np.array([1.0, 0.0]))
        with pytest.raises(SupportError):
            kl(p, q)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValidationError):
            kl(P37, Pmf(np.array([0.2, 0.3, 0.5])))

    @given(pair_strategy())
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, pair):
        p, q = Pmf.normalize(pair[0]), Pmf.normalize(pair[1])
        assert kl(p, q) >= 0.0


class TestEntropy:
    def test_uniform_is_log_k(self):
        assert entropy(Pmf(np.array([0.25] * 4))) == pytest.approx(math.log(4), abs=1e-12)

    def test_point_mass_is_zero(self):
        assert entropy(Pmf(np.array([1.0, 0.0]))) == 0.0


class TestBhattacharyya:
    def test_frozen_values(self):
        # the three binary pairs used throughout, times two
        assert 2 * bhattacharyya(P37, P73) == pytest.approx(0.17435338714477777, abs=1e-12)
        p, q = Pmf(np.array([0.35, 0.65])), Pmf(np.array([0.65, 0.35]))
        assert 2 * bhattacharyya(p, q) == pytest.approx(0.0943106794712413, abs=1e-12)
        p, q = Pmf(np.array([0.4, 0.6])), Pmf(np.array([0.6, 0.4]))
        assert 2 * bhattacharyya(p, q) == pytest.approx(0.040821994520255214, abs=1e-12)

    def test_zero_at_equal(self):
        assert bhattacharyya(P37, P37) == pytest.approx(0.0, abs=1e-15)

    @given(pair_strategy())
    @settings(max_examples=200, deadline=None)
    def test_symmetric_nonnegative(self, pair):
        p, q = Pmf.normalize(pair[0]), Pmf.normalize(pair[1])
        b = bhattacharyya(p, q)
        assert b >= 0.0
        assert b == pytest.approx(bhattacharyya(q, p), abs=1e-12)

    @given(pair_strategy())
    @settings(max_examples=100, deadline=None)
    def test_midpoint_identity(self, pair):
        # min_q D(q||p) + D(q||p') = 2B(p,p'), attained at the geometric midpoint
        p, q = Pmf.normalize(pair[0]), Pmf.normalize(pair[1])
        mid = geometric_midpoint(p, q)
        assert kl(mid, p) + kl(mid, q) == pytest.approx(2 * bhattacharyya(p, q), abs=1e-10)

    @given(pair_strategy())
    @settings(max_examples=100, deadline=None)
    def test_upper_bounds_nothing_below_kl(self, pair):
        # 2B <= min(D(p||q), D(q||p)) since the midpoint is feasible at p or q
        p, q = Pmf.normalize(pair[0]), Pmf.normalize(pair[1])
        assert 2 * bhattacharyya(p, q) <= min(kl(p, q), kl(q, p)) + 1e-12


class TestLogSumExp:
    """`_log_sum_exp` has scipy's algorithm and bits: the oracle's pinned errors rest on it."""

    @staticmethod
    def arrays():
        rng = np.random.default_rng(11)
        for length in (1, 2, 3, 7, 8, 9, 16, 17, 128, 1000, 4097, 70000):
            for scale in (1.0, 1.0, 10.0, 10.0, 300.0, 300.0):
                x = scale * rng.standard_normal(length)
                yield x
                if length > 1:
                    tied = x.copy()
                    tied[rng.integers(length, size=2)] = x.max()
                    yield tied
                    holes = x.copy()
                    holes[rng.integers(length, size=max(1, length // 4))] = -np.inf
                    yield holes
        yield np.full(5, -np.inf)

    def test_equals_scipy_bit_for_bit(self):
        for x in self.arrays():
            assert _log_sum_exp(x) == logsumexp(x)

    def test_rows_equal_scipy_bit_for_bit(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((5, 1000)) * 10.0
        x[1] = -np.inf
        x[2, :300] = -np.inf
        x[3, rng.integers(1000, size=3)] = x[3].max()
        got = _log_sum_exp(x)
        assert got.shape == (5,)
        for row, value in zip(x, got):
            assert value == logsumexp(row)


class TestChernoff:
    def test_le_two_bhattacharyya(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = rng.integers(2, 5)
            p, q = random_pmf(rng, k), random_pmf(rng, k)
            assert chernoff(p, q) <= 2 * bhattacharyya(p, q) + 1e-10

    def test_symmetric(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p, q = random_pmf(rng, 3), random_pmf(rng, 3)
            assert chernoff(p, q) == pytest.approx(chernoff(q, p), abs=1e-8)

    def test_symmetric_pair_optimizer_is_half(self):
        # mirror-image binary pair: concavity puts s* at 1/2, where the
        # objective is exactly the Bhattacharyya distance
        val, s_star = chernoff_with_optimizer(P37, P73)
        assert s_star == pytest.approx(0.5, abs=1e-6)
        assert val == pytest.approx(bhattacharyya(P37, P73), abs=1e-10)

    def test_minmax_characterization(self):
        # C(p,q) = min_q' max(D(q'||p), D(q'||q)), checked on a binary grid
        rng = np.random.default_rng(9)
        for _ in range(20):
            p, q = random_pmf(rng, 2), random_pmf(rng, 2)
            xs = np.linspace(1e-9, 1 - 1e-9, 20001)
            grid = np.stack([xs, 1 - xs], axis=1)
            d_p = (grid * (np.log(grid) - np.log(p.probs))).sum(axis=1)
            d_q = (grid * (np.log(grid) - np.log(q.probs))).sum(axis=1)
            minmax = np.maximum(d_p, d_q).min()
            assert chernoff(p, q) == pytest.approx(minmax, abs=1e-4)

    @pytest.mark.parametrize("k", [2, 3, 4, 16, 64])
    def test_matches_fine_search(self, k):
        # the objective is flat at s*, so the value agrees to 1e-12 while s*
        # is only as close as the float objective can resolve: the slope
        # there stays below 1e-6 (about 1e-7 seen over 4500 random pairs).
        # Laws with a mass at the support floor check that the objective's
        # unshifted sum of p^s q^(1-s) stays as accurate as scipy's logsumexp.
        rng = np.random.default_rng(20 + k)
        pairs = [(random_pmf(rng, k), random_pmf(rng, k)) for _ in range(30)]
        for p, q in pairs + floor_pairs(k):
            val, s_star = chernoff_with_optimizer(p, q)
            assert abs(val - fine_chernoff(p, q)) <= 1e-12
            assert abs(tilted_log_ratio_mean(p, q, s_star)) <= 1e-6

    def test_three_law_product_sets_match_fine_search(self):
        for members in K3_SETS:
            for i, j in combinations(members, 2):
                left = Pmf(np.outer(K3_LAWS[i].probs, K3_PI.probs).ravel())
                right = Pmf(np.outer(K3_PI.probs, K3_LAWS[j].probs).ravel())
                want = fine_chernoff(left, right)
                assert abs(chernoff_pair_product(K3_LAWS[i], K3_LAWS[j], K3_PI) - want) <= 1e-12
                val, s_star = chernoff_with_optimizer(left, right)
                assert abs(val - want) <= 1e-12
                assert abs(tilted_log_ratio_mean(left, right, s_star)) <= 1e-6

    def test_requires_full_support(self):
        with pytest.raises(SupportError):
            chernoff(Pmf(np.array([1.0, 0.0])), P37)

    def test_pair_product_matches_manual_outer(self):
        mu = Pmf(np.array([0.2, 0.8]))
        left = Pmf(np.outer(mu.probs, P73.probs).ravel())
        right = Pmf(np.outer(P73.probs, mu.probs).ravel())
        assert chernoff_pair_product(mu, mu, P73) == pytest.approx(
            chernoff(left, right), abs=1e-12
        )


class TestMixture:
    def test_uniform_mixture(self):
        m = mixture([P37, P73], [0.5, 0.5])
        assert np.allclose(m.probs, [0.5, 0.5])

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            mixture([P37, P73], [0.7, 0.7])

    def test_dominates_components(self):
        # every component's support is inside the mixture's, so kl is finite
        p = Pmf(np.array([1.0, 0.0]))
        q = Pmf(np.array([0.0, 1.0]))
        m = mixture([p, q], [0.5, 0.5])
        assert kl(p, m) == pytest.approx(math.log(2), abs=1e-12)
