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

    @pytest.mark.parametrize("errors,trials,alpha", [
        (5, 100, 1.5), (5, 100, -0.1), (5, 100, float("nan")), (5, 100, 0.0), (5, 100, 1.0),
        (5, 100, "0.05"), (2.5, 100, 0.05), (5, 100.5, 0.05), (5.0, 100, 0.05),
    ])
    def test_rejects_bad_inputs(self, errors, trials, alpha):
        with pytest.raises(ValidationError):
            clopper_pearson(errors, trials, alpha)

    def test_numpy_integers_are_whole_numbers(self):
        assert clopper_pearson(np.int64(5), np.int64(100), np.float64(0.05)) == \
            clopper_pearson(5, 100)

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
        a = generate(Coordinate(1), MU, PI, 3, 20, 2, (cfg_a.seed, 0, 20))
        b = generate(Coordinate(1), MU, PI, 3, 20, 2, (cfg_b.seed, 0, 20))
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


def force_batches(monkeypatch, m, n, batch):
    """Make `estimate_error` batch `batch` trials at a time at this M and n, by MC_MAX_DRAWS."""
    monkeypatch.setattr(sim, "MC_MAX_DRAWS", batch * m * n + m * n - 1)


class TestBatchedMonteCarlo:
    """The count-batch simulator against a per-trial loop of generate + run_detector."""

    TRIALS = 300
    BATCH = 63  # five batches of 300 trials, the last one short

    @pytest.mark.parametrize("kind,family,truth,extra", BATCH_CASES,
                             ids=[case[0].value for case in BATCH_CASES])
    def test_equals_per_trial_loop(self, monkeypatch, kind, family, truth, extra):
        n = 6
        for module in (oracle, sim):  # the simulator resolves its laws without per-truth lists
            monkeypatch.setattr(module, "coordinate_laws", refuse_law_lists, raising=False)
        force_batches(monkeypatch, family.m, n, self.BATCH)
        cfg = SimConfig(kind=kind, family=family, k=3, n_grid=(n,), trials=self.TRIALS,
                        seed=11, mus=MU3, pi=PI3, **extra)
        truth_index = family.index_of(truth)
        errors = 0
        for trial in range(cfg.trials):
            obs = generate(truth, MU3, PI3, family.m, n, 3, (cfg.seed, truth_index, n), trial)
            decision = run_detector(kind, obs, mu=MU3, pi=PI3, family=family, lam=cfg.lam)
            errors += outlier_set(decision) != outlier_set(truth) or (decision is NULL) != (
                truth is NULL)
        est = estimate_error(cfg, truth, n)
        assert est.errors == errors and est.trials == self.TRIALS
        assert 0 < errors < self.TRIALS  # both outcomes occur, so the check has teeth

    def test_counts_are_bincounts_of_generate(self):
        # a law whose cumulative sum rounds below 1 exercises the cap at K-1
        skewed = Pmf(np.array([0.1, 0.2, 0.7 - 1e-10, 1e-10]))
        runs = [
            ((3, 1, 9), range(0, 50)),
            ((2**64 + 7, 1, 9), range(5, 25)),  # a three-word master
            (2**40, range(7, 9)),  # a plain two-word integer
        ]
        for seed, trials in runs:
            counts = sample_counts(Coordinate(2), skewed, Pmf(np.full(4, 0.25)), 4, 9, 4, seed,
                                   trials)
            assert counts.shape == (len(trials), 4, 4)
            for trial, c in zip(trials, counts):
                data = generate(Coordinate(2), skewed, Pmf(np.full(4, 0.25)), 4, 9, 4, seed,
                                trial).data
                assert np.array_equal(c, [np.bincount(row, minlength=4) for row in data])

    def test_trial_depends_only_on_seed_truth_n_and_index(self):
        # trial t's counts are the same whichever range of trials draws them
        seed = (5, 2, 8)
        whole = sample_counts(Coordinate(3), MU3, PI3, 5, 8, 3, seed, range(0, 40))
        for trials in (range(17, 18), range(3, 40), range(39, 40), range(20, 33)):
            part = sample_counts(Coordinate(3), MU3, PI3, 5, 8, 3, seed, trials)
            assert np.array_equal(part, whole[trials.start:trials.stop])

    def test_batch_size_changes_nothing(self, monkeypatch):
        cfg = cfg3(kind=DetectorKind.UNIV_SINGLE, trials=300)
        whole = estimate_error(cfg, Coordinate(3), 7)  # one batch
        for batch in (1, 7, 64, 299):  # uneven batches: 300 is no multiple of these
            force_batches(monkeypatch, 3, 7, batch)
            assert estimate_error(cfg, Coordinate(3), 7) == whole, batch

    @pytest.mark.parametrize("kind,family,truth,extra", BATCH_CASES,
                             ids=[case[0].value for case in BATCH_CASES])
    def test_setup_is_paid_once_per_call(self, monkeypatch, kind, family, truth, extra):
        # the laws come from the config's table and every batch reads one PCG64 stream
        n = 6
        cfg = SimConfig(kind=kind, family=family, k=3, n_grid=(n,), trials=self.TRIALS,
                        seed=11, mus=MU3, pi=PI3, **extra)
        calls = {"laws": 0, "pcg64": 0, "batches": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (oracle, sim):
            for name in ("_law_table", "_law_row"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted("laws", getattr(module, name)))
        monkeypatch.setattr(sim, "_count_batch", counted("batches", sim._count_batch))

        class CountedPCG64(np.random.PCG64):
            def __init__(self, *args, **kwargs):
                calls["pcg64"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "PCG64", CountedPCG64)
        force_batches(monkeypatch, family.m, n, self.BATCH)
        estimate_error(cfg, truth, n)
        assert calls == {"laws": 0, "pcg64": 1, "batches": 5}

    def test_batches_fit_the_score_budget(self, monkeypatch):
        # univ-multi at M=300, T=2 scores 44,850 members: KEY_BUDGET sets the batch, not the draws
        family = HypothesisFamily.fixed_size(300, 2)
        cfg = SimConfig(kind=DetectorKind.UNIV_MULTI, family=family, k=2, n_grid=(2,),
                        trials=100, seed=3, mus=MU, pi=PI)
        sizes = []
        count_batch = sim._count_batch
        monkeypatch.setattr(sim, "_count_batch",
                            lambda *args: sizes.append(args[3]) or count_batch(*args))
        estimate_error(cfg, Subset((1, 2)), 2)
        batch = oracle.KEY_BUDGET // 44_850
        assert batch * 600 < sim.MC_MAX_DRAWS and sizes == [batch, 100 - batch]

    def test_outlier_truth_without_outlier_laws_rejected(self):
        cfg = cfg3(mus=None)
        with pytest.raises(ValidationError, match="outlier laws"):
            estimate_error(cfg, Coordinate(1), 10)

    def test_truth_outside_the_family_rejected(self):
        with pytest.raises(ValidationError, match="not in the family"):
            estimate_error(cfg3(), Coordinate(4), 10)

    def test_sample_size_off_the_grid_obeys_the_stream_rule(self):
        cfg = cfg3()
        assert estimate_error(cfg, Coordinate(1), 13).trials == cfg.trials  # 13 is off the grid
        for n in (0, -1, 1.5):
            with pytest.raises(ValidationError, match="sample sizes"):
                estimate_error(cfg, Coordinate(1), n)


def symbols(u, laws):
    """Cut uniforms (..., M, n) into symbols by each coordinate's law, by searchsorted."""
    cuts = [np.cumsum(law.probs)[:-1] for law in laws]
    return np.stack([np.searchsorted(c, u[..., i, :], side="right")
                     for i, c in enumerate(cuts)], axis=-2)


class TestStreamReference:
    """The stream layout against one plain numpy draw per seed, with no jumping ahead.

    Trial t is block t of `default_rng(SeedSequence(seed)).random((T, M, n))`,
    so its counts are that block's bincounts under the coordinates' laws.
    """

    LAWS = {
        2: (Pmf(np.array([0.3, 0.7])), Pmf(np.array([0.7, 0.3]))),
        3: (MU3, PI3),
        4: (Pmf(np.array([0.1, 0.2, 0.3, 0.4])), Pmf(np.array([0.4, 0.3, 0.2, 0.1]))),
    }

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("seed", [
        (7, 1, 6),  # a one-word master
        (2**64 + 3, 0, 6),  # a three-word master
        (10**23, 2, 6),  # a three-word master, every word in use
        11,  # a plain integer
        2**70,  # a plain three-word integer
    ])
    def test_trials_are_blocks_of_one_draw(self, k, seed):
        mu, pi = self.LAWS[k]
        m, n, trials = 4, 6, range(3, 21)
        truth = Coordinate(2)
        u = np.random.default_rng(np.random.SeedSequence(seed)).random((trials.stop, m, n))
        ref = symbols(u, [pi, mu, pi, pi])
        want = np.stack([[np.bincount(row, minlength=k) for row in block] for block in ref])
        counts = sample_counts(truth, mu, pi, m, n, k, seed, trials)
        assert np.array_equal(counts, want[trials.start:])
        for t in (trials.start, 11, trials.stop - 1):
            assert np.array_equal(generate(truth, mu, pi, m, n, k, seed, t).data, ref[t])


class TestStreamRule:
    """Whole n >= 1, whole trial indices >= 0 and non-negative integer seed entropy.

    Every entry point raises ValidationError on a breach, before drawing.
    """

    BAD = [
        ({"n": 0}, "sample sizes"),
        ({"n": -1}, "sample sizes"),
        ({"n": 1.5}, "sample sizes"),
        ({"seed": -1}, "seed entropy"),
        ({"seed": 1.5}, "seed entropy"),
        ({"seed": (1, 0, 5, -1)}, "seed entropy"),
        ({"seed": ()}, "seed entropy"),
        ({"seed": ((1, 2), 3)}, "seed entropy"),
        ({"trial": -1}, "trial indices"),
        ({"trial": 1.5}, "trial indices"),
        ({"trial": 2**128}, "period"),
    ]

    @pytest.mark.parametrize("bad,message", BAD)
    def test_generate(self, bad, message):
        args = {"n": 5, "seed": 3, "trial": 0, **bad}
        with pytest.raises(ValidationError, match=message):
            generate(Coordinate(1), MU, PI, 3, args["n"], 2, args["seed"], args["trial"])

    @pytest.mark.parametrize("bad,message", [
        *((bad, message) for bad, message in BAD if "trial" not in bad),
        ({"trials": range(-1, 3)}, "trial indices"),
        ({"trials": range(0, 6, 2)}, "range of consecutive"),
        ({"trials": [0, 1, 2]}, "range of consecutive"),
        ({"trials": range(2**126, 2**126 + 1)}, "period"),
    ])
    def test_sample_counts(self, bad, message):
        args = {"n": 5, "seed": 3, "trials": range(4), **bad}
        with pytest.raises(ValidationError, match=message):
            sample_counts(Coordinate(1), MU, PI, 3, args["n"], 2, args["seed"], args["trials"])

    @pytest.mark.parametrize("bad,message", [
        ({"n_grid": (0,)}, "sample sizes"),
        ({"n_grid": (10, -1)}, "sample sizes"),
        ({"seed": -1}, "seed entropy"),
        ({"seed": 1.5}, "seed entropy"),
        ({"seed": (1, 2)}, "seed entropy"),
    ])
    def test_sim_config(self, bad, message):
        with pytest.raises(ValidationError, match=message):
            cfg3(**bad)

    def test_empty_range_draws_nothing(self):
        counts = sample_counts(Coordinate(1), MU, PI, 3, 5, 2, 3, range(9, 9))
        assert counts.shape == (0, 3, 2)


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
