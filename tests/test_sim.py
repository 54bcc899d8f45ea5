"""Monte Carlo estimator: determinism, interval validity, oracle agreement."""
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import beta

from outlier_testing import sim
from outlier_testing.detectors import (
    NULL,
    Coordinate,
    DetectorKind,
    HypothesisFamily,
    Subset,
    outlier_set,
    run_detector,
)
from outlier_testing.errors import ValidationError
from outlier_testing import oracle
from outlier_testing.oracle import exact_error
from outlier_testing.sim import (
    MC_CHUNK,
    SimConfig,
    clopper_pearson,
    estimate_error,
    estimate_max_error,
    exponent_sweep,
    generate,
    sample_counts,
)
from outlier_testing.simplex import Pmf

MU = Pmf(np.array([0.3, 0.7]))
PI = Pmf(np.array([0.7, 0.3]))
FAM3 = HypothesisFamily.single_outlier(3)


def refuse_law_lists(*args):
    raise AssertionError("the generating laws are resolved once per call, not per truth")


def cfg3(**kw):
    base = dict(
        kind=DetectorKind.UNIV_SINGLE, family=FAM3, k=2,
        n_grid=(10, 20, 30, 40), trials=200, seed=0, mus=MU, pi=PI,
    )
    base.update(kw)
    return SimConfig(**base)


class TestSimConfig:
    def test_rejects_small_trial_budget(self):
        with pytest.raises(ValidationError):
            cfg3(trials=50)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValidationError):
            cfg3(n_grid=())

    def test_rejects_partial_support_law(self):
        with pytest.raises(ValidationError):
            cfg3(pi=Pmf(np.array([1.0, 0.0])))

    def test_rejects_missing_typical_law(self):
        with pytest.raises(ValidationError, match="pi"):
            cfg3(pi=None)

    @pytest.mark.parametrize("field", [{"n_grid": (5.5,)}, {"n_grid": (10, 20.0)},
                                       {"trials": 100.5}, {"trials": 200.0}])
    def test_rejects_sizes_and_counts_that_are_not_whole_numbers(self, field):
        with pytest.raises(ValidationError, match="whole"):
            cfg3(**field)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValidationError):
            cfg3(seed=seed)


class TestClopperPearson:
    def test_rule_of_three(self):
        # zero errors: upper bound close to the ln(1/alpha2)/n rule
        lo, hi = clopper_pearson(0, 1000)
        assert lo == 0.0
        assert hi == pytest.approx(1 - 0.025 ** (1 / 1000), abs=1e-12)
        assert hi < 3.8 / 1000

    def test_all_errors(self):
        lo, hi = clopper_pearson(1000, 1000)
        assert hi == 1.0 and lo > 0.99

    def test_contains_point_estimate(self):
        for e, t in [(1, 100), (17, 200), (99, 100)]:
            lo, hi = clopper_pearson(e, t)
            assert lo <= e / t <= hi

    def test_equals_beta_quantiles(self):
        # bit for bit the quantiles beta.ppf gives, though sim does not import scipy.stats
        for trials in (100, 101, 997, 1000, 4096, 10_000):
            grid = {*range(6), *np.linspace(0, trials, 40, dtype=int).tolist(),
                    *range(trials - 5, trials + 1)}
            for errors in grid:
                for alpha in (0.05, 0.01):
                    lo, hi = clopper_pearson(errors, trials, alpha)
                    assert lo == (0.0 if errors == 0
                                  else beta.ppf(alpha / 2, errors, trials - errors + 1))
                    assert hi == (1.0 if errors == trials
                                  else beta.ppf(1 - alpha / 2, errors + 1, trials - errors))

    def test_nominal_coverage_on_synthetic_bernoulli(self):
        rng = np.random.default_rng(21)
        p, trials, reps = 0.07, 400, 300
        covered = 0
        for _ in range(reps):
            e = rng.binomial(trials, p)
            lo, hi = clopper_pearson(e, trials)
            covered += lo <= p <= hi
        # exact intervals are conservative: coverage >= 95% up to binomial noise
        assert covered / reps >= 0.93


class TestGenerate:
    def test_deterministic_given_seed(self):
        a = generate(Coordinate(2), MU, PI, m=3, n=50, k=2, seed=(7, 1, 50, 0))
        b = generate(Coordinate(2), MU, PI, m=3, n=50, k=2, seed=(7, 1, 50, 0))
        assert np.array_equal(a.data, b.data)

    def test_null_truth_uses_pi_everywhere(self):
        near_zero = Pmf(np.array([1 - 1e-10, 1e-10]))
        o = generate(NULL, MU, near_zero, m=3, n=200, k=2, seed=3)
        assert np.all(o.data == 0)

    def test_outlier_row_has_shifted_frequency(self):
        o = generate(Coordinate(1), MU, PI, m=3, n=4000, k=2, seed=5)
        freqs = o.data.mean(axis=1)  # mean symbol = P(symbol 1)
        assert abs(freqs[0] - 0.7) < 0.05
        assert abs(freqs[1] - 0.3) < 0.05 and abs(freqs[2] - 0.3) < 0.05


class TestEstimates:
    def test_bit_for_bit_determinism(self):
        cfg = cfg3()
        a = estimate_error(cfg, Coordinate(1), 20)
        b = estimate_error(cfg, Coordinate(1), 20)
        assert a == b

    def test_seed_changes_stream(self):
        cfg_a, cfg_b = cfg3(), replace(cfg3(), seed=1)
        a = generate(Coordinate(1), MU, PI, 3, 20, 2, (cfg_a.seed, 0, 20, 0))
        b = generate(Coordinate(1), MU, PI, 3, 20, 2, (cfg_b.seed, 0, 20, 0))
        assert not np.array_equal(a.data, b.data)

    def test_ci_brackets_estimate(self):
        est = estimate_error(cfg3(), Coordinate(2), 15)
        assert est.lo <= est.estimate <= est.hi

    def test_max_error_covers_family(self):
        per = estimate_max_error(cfg3(trials=100), 10)
        assert set(per) == set(FAM3.hypotheses)

    def test_oracle_agreement_randomized(self):
        # the 95% interval should cover the exact error in nearly all of
        # 100 randomized configurations
        rng = np.random.default_rng(33)
        covered = 0
        for i in range(100):
            mu = Pmf.normalize(rng.dirichlet(np.ones(2)) + 0.05)
            pi = Pmf.normalize(rng.dirichlet(np.ones(2)) + 0.05)
            n = int(rng.integers(4, 13))
            kinds = [DetectorKind.ML_SINGLE, DetectorKind.TYP_SINGLE,
                     DetectorKind.UNIV_SINGLE]
            kind = kinds[int(rng.integers(0, 3))]
            truth = Coordinate(int(rng.integers(1, 4)))
            cfg = cfg3(kind=kind, mus=mu, pi=pi, trials=100,
                       seed=1000 + i, n_grid=(n,))
            est = estimate_error(cfg, truth, n)
            exact = exact_error(kind, FAM3, truth, n, 2, mu, pi).prob
            covered += est.lo <= exact <= est.hi
        assert covered >= 93


MU3 = Pmf(np.array([0.2, 0.3, 0.5]))
PI3 = Pmf(np.array([0.5, 0.3, 0.2]))
BATCH_CASES = [
    # (kind, family, truth, extra config)
    *((kind, FAM3, Coordinate(2), {}) for kind in (
        DetectorKind.ML_SINGLE, DetectorKind.TYP_SINGLE, DetectorKind.UNIV_SINGLE,
        DetectorKind.MU_ONLY)),
    (DetectorKind.NULL_SINGLE, HypothesisFamily.single_outlier(3, include_null=True), NULL,
     {"lam": 0.5}),
    (DetectorKind.TYP_MULTI, HypothesisFamily.fixed_size(5, 2), Subset((2, 4)), {}),
    (DetectorKind.UNIV_MULTI, HypothesisFamily.fixed_size(5, 2), Subset((1, 5)), {}),
    (DetectorKind.IDENTICAL_UNIV, HypothesisFamily.sized(5, [1, 2]), Subset((3, 4)), {}),
    (DetectorKind.NULL_IDENTICAL, HypothesisFamily.sized(5, [1, 2], include_null=True),
     Coordinate(1), {"lam": 0.5}),
]


class TestBatchedMonteCarlo:
    """The count-batch simulator against a per-trial loop of generate + run_detector."""

    TRIALS = MC_CHUNK + 44  # not a multiple of the batch size

    @pytest.mark.parametrize("kind,family,truth,extra", BATCH_CASES,
                             ids=[case[0].value for case in BATCH_CASES])
    def test_equals_per_trial_loop(self, monkeypatch, kind, family, truth, extra):
        n = 6
        for module in (oracle, sim):  # the simulator resolves its laws without per-truth lists
            monkeypatch.setattr(module, "coordinate_laws", refuse_law_lists, raising=False)
        cfg = SimConfig(kind=kind, family=family, k=3, n_grid=(n,), trials=self.TRIALS,
                        seed=11, mus=MU3, pi=PI3, **extra)
        truth_index = family.index_of(truth)
        errors = 0
        for trial in range(cfg.trials):
            obs = generate(truth, MU3, PI3, family.m, n, 3, (cfg.seed, truth_index, n, trial))
            decision = run_detector(kind, obs, mu=MU3, pi=PI3, family=family, lam=cfg.lam)
            errors += outlier_set(decision) != outlier_set(truth) or (decision is NULL) != (
                truth is NULL)
        est = estimate_error(cfg, truth, n)
        assert est.errors == errors and est.trials == self.TRIALS
        assert 0 < errors < self.TRIALS  # both outcomes occur, so the check has teeth

    def test_counts_are_bincounts_of_generate(self):
        # a law whose cumulative sum rounds below 1 exercises the cap at K-1
        skewed = Pmf(np.array([0.1, 0.2, 0.7 - 1e-10, 1e-10]))
        batches = [
            [(3, 1, 9, trial) for trial in range(50)],
            [(2**64 + 7, 1, 9, trial) for trial in range(20)],  # a three-word master
            [(0, 0, 1, 0), (2**40, 0, 1, 1)],  # entropy of four and of five words
        ]
        for seeds in batches:
            counts = sample_counts(Coordinate(2), skewed, Pmf(np.full(4, 0.25)), 4, 9, 4, seeds)
            assert counts.shape == (len(seeds), 4, 4)
            for seed, c in zip(seeds, counts):
                data = generate(Coordinate(2), skewed, Pmf(np.full(4, 0.25)), 4, 9, 4, seed).data
                assert np.array_equal(c, [np.bincount(row, minlength=4) for row in data])

    def test_batch_size_changes_nothing(self, monkeypatch):
        cfg = cfg3(kind=DetectorKind.UNIV_SINGLE, trials=300)
        whole = estimate_error(cfg, Coordinate(3), 7)
        monkeypatch.setattr(sim, "MC_CHUNK", 7)
        assert estimate_error(cfg, Coordinate(3), 7) == whole


def expanded(seeds):
    """The batch seed expansion, reassembled in the order of `seeds`."""
    states = np.zeros((len(seeds), 4), dtype=np.uint64)
    for rows, group in sim._seed_states(seeds):
        states[rows] = group
    return states


def numpy_states(seeds):
    return np.stack([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds])


class TestSeedExpansion:
    """The batch expansion of trial seeds against numpy's own SeedSequence, seed by seed."""

    @pytest.mark.parametrize("master", [0, 2**32 - 1, 2**32, 2**64 + 1, 10**23])
    def test_edge_masters(self, master):
        # 2**64 + 1 and 10**23 give entropy longer than the 4-word pool
        seeds = [(master, truth, n, trial) for truth in (0, 2) for n in (1, 40)
                 for trial in (0, 1, 99)]
        assert np.array_equal(expanded(seeds), numpy_states(seeds))

    def test_random_tuples_in_one_batch(self):
        # one batch of mixed entropy lengths: the expansion groups them, never pads
        rng = np.random.default_rng(404)
        seeds = []
        for _ in range(200):
            master = int(rng.integers(0, 2**32)) << int(rng.choice([0, 0, 16, 40, 70]))
            seeds.append((master, int(rng.integers(0, 20)), int(rng.integers(1, 500)),
                          int(rng.integers(0, 2**33))))
        entropy_words = {sum(max(1, -(-v.bit_length() // 32)) for v in s) for s in seeds}
        assert len(entropy_words) > 2
        assert np.array_equal(expanded(seeds), numpy_states(seeds))

    def test_plain_integer_seeds(self):
        seeds = [0, 5, 2**32, 2**200]
        assert np.array_equal(expanded(seeds), numpy_states(seeds))

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError):
            expanded([(1, 0, 5, 0), (1, 0, 5, -1)])


class TestExponentSweep:
    def test_positive_slope_on_separated_pair(self):
        cfg = cfg3(n_grid=(10, 20, 30, 40, 50), trials=600)
        sweep = exponent_sweep(cfg, Coordinate(1))
        assert sweep.slope_lo > 0.0
        assert sweep.fit is not None and sweep.fit.slope > 0.0
        assert sweep.slope_lo <= sweep.fit.slope <= sweep.slope_hi

    def test_needs_four_points(self):
        with pytest.raises(ValidationError):
            exponent_sweep(cfg3(n_grid=(10, 20, 30)), Coordinate(1))

    def test_sweep_deterministic(self):
        cfg = cfg3(trials=100)
        a = exponent_sweep(cfg, Coordinate(3))
        b = exponent_sweep(cfg, Coordinate(3))
        assert a == b
