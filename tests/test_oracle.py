"""Exact error oracle: type tables, probabilities, brute-force agreement."""
import math
import tracemalloc
from decimal import Decimal, localcontext
from itertools import product

import numpy as np
import pytest

from outlier_testing.detectors import (
    NULL,
    Coordinate,
    DetectorKind,
    HypothesisFamily,
    ObservationMatrix,
    Scorer,
    Subset,
    decide_batch,
    null_threshold,
    outlier_set,
    run_detector,
)
from outlier_testing import cli, oracle
from outlier_testing.errors import EnumerationCapError, ValidationError
from outlier_testing.oracle import (
    TypeClassTable,
    brute_force_error,
    coordinate_laws,
    enumerate_types,
    exact_error,
    exponent_fit,
    max_error,
    tuple_decisions,
    type_log_prob,
    type_log_prob_via_divergence,
)
from outlier_testing.sim import SimConfig, generate, sample_counts
from outlier_testing.simplex import Pmf, TypeVector, bhattacharyya

MU = Pmf(np.array([0.3, 0.7]))
PI = Pmf(np.array([0.7, 0.3]))
FAM3 = HypothesisFamily.single_outlier(3)


def refuse_law_lists(*args):
    raise AssertionError("the generating laws are resolved once per call, not per truth")


def decimal_errors(kind, fam, truths, n, k, mu, pi):
    """Each truth's error at the per-coordinate route's ranking, in 50-digit `decimal`.

    Every outlier has law ``mu``; the laws are the floats given, normalized
    in decimal.  D = S exactly when every non-member comes after S's last
    member in (key, index) order, so the error sums, over every tuple of
    member keys, its probability times 1 - P(every non-member comes after
    the last member).
    """
    scorer = Scorer(kind, fam, k, mu=mu, pi=pi)
    table = enumerate_types(n, k)
    order, starts, _ = oracle._ranking(scorer, scorer.row_stats(table.counts, n))
    key_of = np.empty(table.size, dtype=np.int64)
    key_of[order] = np.cumsum(np.isin(np.arange(table.size), starts)) - 1
    keys = range(len(starts))
    with localcontext() as ctx:
        ctx.prec = 50

        def at(law):  # P(key = v) for each v
            p = [Decimal(float(x)) for x in law.probs]
            p = [x / sum(p) for x in p]
            out = [Decimal(0)] * len(starts)
            for counts, v in zip(table.counts.tolist(), key_of.tolist()):
                term = Decimal(math.factorial(n) // math.prod(map(math.factorial, counts)))
                out[v] += math.prod((q**c for q, c in zip(p, counts)), start=term)
            return out

        mu_at, pi_at = at(mu), at(pi)
        pi_ge = [sum(pi_at[v:]) for v in keys]
        pi_gt = pi_ge[1:] + [Decimal(0)]
        errs = []
        for truth in truths:
            members = sorted(i - 1 for i in outlier_set(truth))
            err = Decimal(0)
            for vs in product(keys, repeat=len(members)):
                weight = math.prod((mu_at[v] for v in vs), start=Decimal(1))
                v, last = max(zip(vs, members))
                below = last - sum(j < last for j in members)
                above = fam.m - len(members) - below
                after = (pi_gt[v] ** below if below else 1) * pi_ge[v] ** above
                err += weight * (1 - after)
            errs.append(err)
    return errs


def radix_indices(flat, n_types, m):
    """Type indices (b, m) of the m-tuples at radix-order positions ``flat``."""
    return np.stack(np.unravel_index(flat, (n_types,) * m), axis=1)


class TestTypeEnumeration:
    @pytest.mark.parametrize("n,k", [(3, 2), (5, 3), (10, 2), (4, 4)])
    def test_counts(self, n, k):
        table = enumerate_types(n, k)
        assert table.size == math.comb(n + k - 1, k - 1)
        assert np.all(table.counts.sum(axis=1) == n)

    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapError):
            enumerate_types(100, 4, cap=1000)

    def test_multiplicities_sum_to_sequence_count(self):
        table = enumerate_types(6, 3)
        assert np.exp(table.log_multiplicity).sum() == pytest.approx(3**6, rel=1e-12)

    def test_normalization_random_laws(self):
        # sum of type-class probabilities is 1 for any generating law
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(1, 9))
            law = Pmf.normalize(rng.dirichlet(np.ones(k)) + 1e-6)
            table = enumerate_types(n, k)
            total = sum(
                math.exp(type_log_prob(TypeVector(c), law)) for c in table.counts
            )
            assert total == pytest.approx(1.0, abs=1e-9)


class TestTypeLogProb:
    def test_two_routes_agree(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(1, 12))
            counts = rng.multinomial(n, np.ones(k) / k)
            if counts.sum() == 0:
                continue
            t = TypeVector(counts)
            law = Pmf.normalize(rng.dirichlet(np.ones(k)) + 1e-6)
            assert type_log_prob(t, law) == pytest.approx(
                type_log_prob_via_divergence(t, law), abs=1e-9
            )

    def test_hand_value(self):
        # P(type (1,1)) under p = (0.3, 0.7) is 2 * 0.3 * 0.7
        t = TypeVector(np.array([1, 1]))
        assert math.exp(type_log_prob(t, MU)) == pytest.approx(0.42, abs=1e-12)

    def test_support_violation(self):
        t = TypeVector(np.array([1, 1]))
        with pytest.raises(ValidationError):
            type_log_prob(t, Pmf(np.array([1.0, 0.0])))


class TestExactError:
    def test_matches_brute_force_single_kinds(self):
        for kind in (
            DetectorKind.ML_SINGLE,
            DetectorKind.TYP_SINGLE,
            DetectorKind.UNIV_SINGLE,
            DetectorKind.MU_ONLY,
        ):
            for n in (1, 2, 3):
                exact = exact_error(kind, FAM3, Coordinate(2), n, 2, MU, PI)
                brute = brute_force_error(kind, FAM3, Coordinate(2), n, 2, MU, PI)
                assert exact.prob == pytest.approx(brute, abs=1e-12), (kind, n)

    def test_matches_brute_force_null_aware(self):
        fam = HypothesisFamily.single_outlier(3, include_null=True)
        for truth in (NULL, Coordinate(1)):
            exact = exact_error(DetectorKind.NULL_SINGLE, fam, truth, 3, 2, MU, PI)
            brute = brute_force_error(DetectorKind.NULL_SINGLE, fam, truth, 3, 2, MU, PI)
            assert exact.prob == pytest.approx(brute, abs=1e-12)

    def test_matches_brute_force_k3(self):
        # K >= 3 breaks the symmetries a binary alphabet hides
        mu, pi = Pmf(np.array([0.2, 0.3, 0.5])), Pmf(np.array([0.5, 0.3, 0.2]))
        fam3, fam3n = FAM3, HypothesisFamily.single_outlier(3, include_null=True)
        cases = [(kind, fam3, (1, 2)) for kind in (
            DetectorKind.ML_SINGLE, DetectorKind.TYP_SINGLE,
            DetectorKind.UNIV_SINGLE, DetectorKind.MU_ONLY)]
        cases += [
            (DetectorKind.NULL_SINGLE, fam3n, (1, 2)),
            (DetectorKind.IDENTICAL_UNIV, HypothesisFamily.sized(3, [1]), (1, 2)),
            (DetectorKind.NULL_IDENTICAL, HypothesisFamily.sized(3, [1], True), (1, 2)),
            (DetectorKind.TYP_MULTI, HypothesisFamily.fixed_size(5, 2), (1,)),
            (DetectorKind.UNIV_MULTI, HypothesisFamily.fixed_size(5, 2), (1,)),
            (DetectorKind.IDENTICAL_UNIV, HypothesisFamily.sized(5, [1, 2]), (1,)),
        ]
        for kind, fam, ns in cases:
            for truth in fam.hypotheses:
                for n in ns:
                    exact = exact_error(kind, fam, truth, n, 3, mu, pi).prob
                    brute = brute_force_error(kind, fam, truth, n, 3, mu, pi)
                    assert exact == pytest.approx(brute, abs=1e-12), (kind, truth, n)

    def test_null_in_family_needs_null_aware_kind(self):
        fam = HypothesisFamily.single_outlier(3, include_null=True)
        with pytest.raises(ValidationError):
            exact_error(DetectorKind.UNIV_SINGLE, fam, Coordinate(1), 2, 2, MU, PI)

    def test_degenerate_mu_equals_pi(self):
        # with identical laws the conditional correctness probabilities sum
        # to one across truths, so the worst case cannot beat guessing
        worst, _ = max_error(DetectorKind.UNIV_SINGLE, FAM3, 4, 2, PI, PI)
        assert worst.prob >= 1 - 1 / 3 - 1e-12

    def test_truth_outside_family_rejected(self):
        with pytest.raises(ValidationError):
            exact_error(DetectorKind.UNIV_SINGLE, FAM3, NULL, 2, 2, MU, PI)

    def test_tuple_cap(self):
        with pytest.raises(EnumerationCapError):
            exact_error(DetectorKind.UNIV_SINGLE, FAM3, Coordinate(1), 40, 2, MU, PI, cap=10**4)

    WRONG_SIZED = [
        ([MU, MU], PI),  # fewer outlier laws than coordinates
        ([MU, MU, MU, MU], PI),  # more
        (MU, Pmf(np.array([0.5, 0.3, 0.2]))),  # pi on another alphabet
        (Pmf(np.array([0.2, 0.3, 0.5])), PI),  # mu on another alphabet
    ]

    @pytest.mark.parametrize("mus,pi", WRONG_SIZED)
    def test_wrong_sized_laws_rejected(self, mus, pi):
        with pytest.raises(ValidationError):
            exact_error(DetectorKind.UNIV_SINGLE, FAM3, Coordinate(1), 2, 2, mus, pi)
        with pytest.raises(ValidationError):
            max_error(DetectorKind.UNIV_SINGLE, FAM3, 2, 2, mus, pi)

    @pytest.mark.parametrize("kind,fam", [
        (DetectorKind.UNIV_SINGLE, FAM3),
        (DetectorKind.NULL_SINGLE, HypothesisFamily.single_outlier(3, include_null=True)),
        (DetectorKind.UNIV_MULTI, HypothesisFamily.fixed_size(5, 2)),
        (DetectorKind.IDENTICAL_UNIV, HypothesisFamily.sized(5, [1, 2])),
        (DetectorKind.MU_ONLY, FAM3),
    ], ids=lambda c: getattr(c, "value", None))
    def test_missing_typical_law_rejected(self, kind, fam):
        truth = fam.hypotheses[-1]
        with pytest.raises(ValidationError, match="pi"):
            exact_error(kind, fam, truth, 2, 2, MU, None)
        with pytest.raises(ValidationError, match="pi"):
            max_error(kind, fam, 2, 2, MU, None)
        with pytest.raises(ValidationError, match="pi"):
            coordinate_laws(truth, fam.m, MU, None)

    def test_coordinate_laws_needs_one_law_per_coordinate(self):
        assert coordinate_laws(Coordinate(2), 3, [MU, PI, MU], PI)[1] is PI
        for mus in ([MU, MU], [MU] * 4):
            with pytest.raises(ValidationError):
                coordinate_laws(NULL, 3, mus, PI)

    TINY = "0.9999999999999,0.0000000000001"  # a mass of 1e-13, below FULL_SUPPORT_MIN

    @pytest.mark.parametrize("entry", ["exact_error", "max_error", "SimConfig", "generate",
                                       "sample_counts", "oracle", "simulate"])
    @pytest.mark.parametrize("place", ["mus", "pi", "one-of-M-mus", "pi-on-3-letters"])
    def test_laws_without_full_support_rejected_everywhere(self, capsys, place, entry):
        laws = {"mus": "0.3,0.7", "pi": "0.7,0.3"}
        if place == "one-of-M-mus":
            laws["mus"] = f"0.3,0.7;{self.TINY};0.3,0.7"
        elif place == "pi-on-3-letters":  # full support, but not on the K=2 alphabet
            laws["pi"] = "0.5,0.3,0.2"
        else:
            laws[place] = self.TINY
        if entry in ("oracle", "simulate"):
            extra = ["--trials", "100", "--truth", "2"] if entry == "simulate" else []
            code = cli.main([entry, "--kind", "univ-single", "--m", "3", "--k", "2",
                             "--n-grid", "3", "--mus", laws["mus"], "--pi", laws["pi"], *extra])
            out, err = capsys.readouterr()
            assert (code, out) == (2, "") and "full-support" in err
            return
        mus, pi = cli._parse_pmfs(laws["mus"]), cli._parse_pmf(laws["pi"])
        mus = mus[0] if len(mus) == 1 else mus
        kind = DetectorKind.UNIV_SINGLE
        with pytest.raises(ValidationError, match="full-support"):
            if entry == "exact_error":
                exact_error(kind, FAM3, Coordinate(2), 3, 2, mus, pi)
            elif entry == "max_error":
                max_error(kind, FAM3, 3, 2, mus, pi)
            elif entry == "generate":
                generate(Coordinate(1), mus, pi, 3, 8, 2, 1)
            elif entry == "sample_counts":
                sample_counts(Coordinate(1), mus, pi, 3, 8, 2, [1])
            else:
                SimConfig(kind=kind, family=FAM3, k=2, n_grid=(3,), trials=100, seed=0,
                          mus=mus, pi=pi)

    def test_error_decreases_with_n(self):
        errs = [
            exact_error(DetectorKind.ML_SINGLE, FAM3, Coordinate(1), n, 2, MU, PI).prob
            for n in (5, 10, 20, 40)
        ]
        assert all(a > b for a, b in zip(errs, errs[1:]))


class TestRouteAgreement:
    """run_detector on a matrix with given types decides as exact_error's enumeration does."""

    MU3 = Pmf(np.array([0.2, 0.3, 0.5]))
    PI3 = Pmf(np.array([0.5, 0.3, 0.2]))

    def check_every_tuple(self, kind, m, n, k=3):
        table = enumerate_types(n, k)
        scorer = Scorer(kind, HypothesisFamily.single_outlier(m), k, mu=self.MU3, pi=self.PI3)
        column = {h: col for col, h in enumerate(scorer.hypotheses)}
        rows = np.stack([np.repeat(np.arange(k), c) for c in table.counts])  # (T, n) symbols
        seen = 0
        for tidx, cols in tuple_decisions(scorer, table, chunk=1 << 14):
            got = [column[run_detector(kind, ObservationMatrix(data, k), mu=self.MU3, pi=self.PI3)]
                   for data in rows[tidx]]
            assert np.array_equal(got, cols), f"{kind.value}: decisions differ in tuples {seen}.."
            seen += len(cols)
        assert seen == table.size**m

    def test_ml_single_every_tuple(self):
        self.check_every_tuple(DetectorKind.ML_SINGLE, 3, 8)  # 91,125 tuples

    def test_univ_single_every_tuple(self):
        self.check_every_tuple(DetectorKind.UNIV_SINGLE, 4, 6)  # 614,656 tuples


class TestPooledKeys:
    """Universal kinds decide from pooled-count keys; every decision is the kernel's."""

    U, N = DetectorKind.UNIV_SINGLE, DetectorKind.NULL_SINGLE
    GRID = [
        (U, HypothesisFamily.single_outlier(3), 3, 9),
        (U, HypothesisFamily.single_outlier(4), 3, 4),
        (U, HypothesisFamily.single_outlier(6), 2, 5),
        (U, HypothesisFamily.single_outlier(8), 2, 2),
        (N, HypothesisFamily.single_outlier(3, include_null=True), 2, 12),
        (N, HypothesisFamily.single_outlier(4, include_null=True), 3, 3),
        (DetectorKind.UNIV_MULTI, HypothesisFamily.fixed_size(5, 2), 2, 5),
        (DetectorKind.UNIV_MULTI, HypothesisFamily.fixed_size(5, 2), 3, 2),
        (DetectorKind.IDENTICAL_UNIV, HypothesisFamily.sized(5, [1, 2]), 2, 6),
        (DetectorKind.IDENTICAL_UNIV, HypothesisFamily.sized(5, [1, 2]), 3, 2),
        (DetectorKind.NULL_IDENTICAL, HypothesisFamily.sized(5, [1, 2], True), 2, 5),
        (DetectorKind.NULL_IDENTICAL, HypothesisFamily.sized(5, [1, 2], True), 3, 2),
    ]

    def check_every_tuple(self, monkeypatch, kind, fam, k, n, lam=None) -> int:
        """Assert tuple_decisions equals the kernel on every tuple; return the rows it re-decided."""
        table = enumerate_types(n, k)
        scorer = Scorer(kind, fam, k)
        lam = null_threshold(kind, lam, fam.m, n, k)
        stats = scorer.row_stats(table.counts, n)
        redecided = []

        def counting(scores, lam=None):
            redecided.append(len(scores))
            return decide_batch(scores, lam)

        monkeypatch.setattr(oracle, "decide_batch", counting)
        seen = 0
        for tidx, cols in tuple_decisions(scorer, table, lam, chunk=1 << 14):
            want = decide_batch(scorer.combine(stats.take(np.ascontiguousarray(tidx))), lam)
            assert np.array_equal(cols, want), f"{kind.value}: decisions differ in tuples {seen}.."
            seen += len(cols)
        assert seen == table.size**fam.m
        return sum(redecided)

    @pytest.mark.parametrize("kind,fam,k,n", GRID,
                             ids=[f"{c[0].value}-M{c[1].m}-K{c[2]}" for c in GRID])
    def test_every_tuple_decided_as_the_kernel(self, monkeypatch, kind, fam, k, n):
        redecided = self.check_every_tuple(monkeypatch, kind, fam, k, n)
        # every grid holds exact ties (all M types equal), which the kernel decides;
        # the keys decide the rest
        assert 0 < redecided < enumerate_types(n, k).size**fam.m

    def test_lambda_at_an_attained_spread(self, monkeypatch):
        kind, fam, k, n = self.N, HypothesisFamily.single_outlier(3, include_null=True), 2, 6
        scorer = Scorer(kind, fam, k)
        counts = enumerate_types(n, k).counts[[0, 0, 1]]
        scores = scorer.scores(counts[None], n)[0]
        lam = float(scores.max() - scores.min())  # the spread of types (6,0), (6,0), (5,1)
        at_lam = self.check_every_tuple(monkeypatch, kind, fam, k, n, lam)
        assert at_lam > self.check_every_tuple(monkeypatch, kind, fam, k, n, math.inf)

    @pytest.mark.parametrize("kind,fam", [(DetectorKind.UNIV_SINGLE, FAM3),
                                          (DetectorKind.IDENTICAL_UNIV,
                                           HypothesisFamily.sized(5, [1, 2]))])
    def test_tables_over_the_limit_use_the_kernel(self, monkeypatch, kind, fam):
        n, truth = (12, Coordinate(2)) if fam.m == 3 else (4, Subset((2, 4)))
        keyed = exact_error(kind, fam, truth, n, 2, MU, PI)
        redecided = []

        def counting(scores, lam=None):
            redecided.append(len(scores))
            return decide_batch(scores, lam)

        monkeypatch.setattr(oracle, "ROUTE_MAX_TERMS", 0)
        monkeypatch.setattr(oracle, "decide_batch", counting)
        kernel = exact_error(kind, fam, truth, n, 2, MU, PI)
        assert sum(redecided) == enumerate_types(n, 2).size**fam.m  # no tuple was keyed
        assert (kernel.prob.hex(), kernel.log_prob.hex()) == (keyed.prob.hex(),
                                                              keyed.log_prob.hex())
        assert kernel.route == keyed.route == "enumeration"


class TestBlockRoute:
    """Chunks are decided on radix blocks by broadcasting, as the kernel decides each tuple."""

    MU3, PI3 = TestRouteAgreement.MU3, TestRouteAgreement.PI3
    KNOWN = [  # known-law kinds that enumerate
        (DetectorKind.TYP_MULTI, HypothesisFamily.fixed_size(8, 3), 2, 2),
        (DetectorKind.TYP_MULTI, HypothesisFamily.fixed_size(9, 3), 2, 2),
        (DetectorKind.TYP_MULTI, HypothesisFamily.fixed_size(9, 3), 2, 1),
        (DetectorKind.TYP_MULTI, HypothesisFamily.fixed_size(11, 5), 2, 1),  # 462 members
        (DetectorKind.ML_SINGLE, FAM3, 3, 9),
        (DetectorKind.MU_ONLY, HypothesisFamily.single_outlier(4), 3, 3),
    ]

    def laws(self, k):
        return (MU, PI) if k == 2 else (self.MU3, self.PI3)

    def check_every_tuple(self, kind, fam, k, n, chunk, lam=None):
        mu, pi = self.laws(k)
        table = enumerate_types(n, k)
        scorer = Scorer(kind, fam, k, mu=mu, pi=pi)
        lam = null_threshold(kind, lam, fam.m, n, k)
        stats = scorer.row_stats(table.counts, n)
        seen = 0
        for tidx, cols in tuple_decisions(scorer, table, lam, chunk=chunk):
            assert np.array_equal(tidx, radix_indices(seen + np.arange(len(cols)), table.size,
                                                      fam.m))
            want = decide_batch(scorer.combine(stats.take(tidx)), lam)
            assert np.array_equal(cols, want), f"{kind.value}: tuples {seen}.."
            seen += len(cols)
        assert seen == table.size**fam.m

    @pytest.mark.parametrize("kind,fam,k,n", KNOWN,
                             ids=[f"{c[0].value}-M{c[1].m}-K{c[2]}-n{c[3]}" for c in KNOWN])
    def test_known_law_kinds_decide_as_the_kernel(self, kind, fam, k, n):
        self.check_every_tuple(kind, fam, k, n, oracle.DEFAULT_CHUNK)

    @pytest.mark.parametrize("kind,fam,k,n", KNOWN,
                             ids=[f"{c[0].value}-M{c[1].m}-K{c[2]}-n{c[3]}" for c in KNOWN])
    def test_kernel_ties_are_near(self, kind, fam, k, n):
        # key sums bit-equal to the smallest decide some bit-equal kernel ties, so
        # the kernel re-decides fewer tuples than have two keys within the slack,
        # and every tuple decided by its key sums is decided as the kernel does
        mu, pi = self.laws(k)
        table = enumerate_types(n, k)
        scorer = Scorer(kind, fam, k, mu=mu, pi=pi)
        stats = scorer.row_stats(table.counts, n)
        heads = oracle._type_indices(np.arange(table.size**2), table.size, 2)
        keys = oracle._block_keys(scorer, table, stats, fam.m - 2)(heads)
        slack = oracle._sum_slack(scorer, stats)
        decision, near = oracle._key_decisions(keys, slack, None, exact=True)
        scores = scorer.combine(stats.take(radix_indices(np.arange(table.size**fam.m),
                                                         table.size, fam.m)))
        best = np.partition(scores, 1, axis=1)
        assert (~near[best[:, 0] == best[:, 1]]).any()
        assert near.sum() < ((keys <= keys.min(axis=0) + slack).sum(axis=0) > 1).sum()
        assert np.array_equal(decision[~near], decide_batch(scores)[~near])

    # chunk 777 holds 77.7 blocks of 10 tuples; at lam 0.5, null-single decides
    # 75% of the tuples non-NULL
    CUT = [
        (DetectorKind.UNIV_SINGLE, HypothesisFamily.single_outlier(4), 3, 3, None),
        (DetectorKind.NULL_SINGLE, HypothesisFamily.single_outlier(4, True), 3, 3, 0.5),
        (DetectorKind.ML_SINGLE, HypothesisFamily.single_outlier(4), 3, 3, None),
        (DetectorKind.IDENTICAL_UNIV, HypothesisFamily.sized(5, [1, 2]), 2, 9, None),
    ]
    UNIVERSAL_CUT = [c for c in CUT if c[0] is not DetectorKind.ML_SINGLE]

    @pytest.mark.parametrize("kind,fam,k,n,lam", CUT, ids=[c[0].value for c in CUT])
    def test_chunk_cutting_blocks(self, kind, fam, k, n, lam):
        self.check_every_tuple(kind, fam, k, n, 777, lam)

    @pytest.mark.parametrize("kind,fam,k,n,lam", UNIVERSAL_CUT,
                             ids=[c[0].value for c in UNIVERSAL_CUT])
    def test_kernel_fallback(self, monkeypatch, kind, fam, k, n, lam):
        monkeypatch.setattr(oracle, "ROUTE_MAX_TERMS", 0)
        monkeypatch.setattr(oracle, "_key_decisions", None)  # no tuple may be keyed
        self.check_every_tuple(kind, fam, k, n, 777, lam)
        self.check_every_tuple(kind, fam, k, n, oracle.DEFAULT_CHUNK, lam)

    def test_rejects_bad_lambda_before_building_tables(self, monkeypatch):
        scorer = Scorer(DetectorKind.NULL_SINGLE,
                        HypothesisFamily.single_outlier(3, include_null=True), 2)
        built = []
        monkeypatch.setattr(oracle, "_block_keys", lambda *args: built.append(args))
        for lam in (math.nan, -1.0):
            with pytest.raises(ValidationError, match="lambda"):
                next(tuple_decisions(scorer, enumerate_types(4, 2), lam))
        assert built == []

    # per-truth log_prob hex of max_error, recorded before the block route
    PINNED = [
        (DetectorKind.UNIV_SINGLE, FAM3, 80, 2,
         ["-0x1.811c6b39c4f87p+2", "-0x1.80f5fb4e8341fp+2", "-0x1.80cfa27d51a30p+2"]),
        (DetectorKind.ML_SINGLE, FAM3, 9, 3,
         ["-0x1.4a8697976455ap+1", "-0x1.26f98aa1d3e2ep+1", "-0x1.0d980f3c26c98p+1"]),
        (DetectorKind.IDENTICAL_UNIV, HypothesisFamily.sized(5, [1, 2]), 5, 2,
         ["-0x1.4fb0e516df540p-2"] + ["-0x1.4d2bcfd0a87e0p-2"] * 4
         + ["-0x1.8a226ca5d0ea0p-2"] * 3 + ["-0x1.8a226ca5d0eb0p-2"]
         + ["-0x1.8a226ca5d0ea0p-2"] * 6),
    ]

    @pytest.mark.parametrize("kind,fam,n,k,hexes", PINNED, ids=[c[0].value for c in PINNED])
    def test_max_error_bits_unchanged(self, kind, fam, n, k, hexes):
        _, per = max_error(kind, fam, n, k, *self.laws(k))
        assert {e.route for e in per.values()} == {"enumeration"}
        assert [e.log_prob.hex() for e in per.values()] == hexes

    def test_peak_memory(self):
        # tracemalloc peak of one call: 22.7 MB on radix blocks, 38.3 MB with
        # per-tuple index columns and gathers
        args = (DetectorKind.UNIV_SINGLE, FAM3, 80, 2, MU, PI)
        max_error(*args)  # fill the family's cached members
        tracemalloc.start()
        try:
            max_error(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 28e6

    def test_key_budget_caps_chunks(self, monkeypatch):
        kind, fam, k, n = self.KNOWN[3]  # 2,048 tuples of 462 keys each
        monkeypatch.setattr(oracle, "KEY_BUDGET", 100 * 462)
        mu, pi = self.laws(k)
        scorer = Scorer(kind, fam, k, mu=mu, pi=pi)
        sizes = [len(cols) for _, cols in tuple_decisions(scorer, enumerate_types(n, k))]
        assert sizes == [100] * 20 + [48]
        self.check_every_tuple(kind, fam, k, n, oracle.DEFAULT_CHUNK)

    def test_peak_memory_within_key_budget(self):
        # typ-multi M=14, T=4 holds 1,001 keys per tuple: tracemalloc peak 75 MB
        # in chunks of KEY_BUDGET keys, 279 MB with all 16,384 tuples in one chunk
        args = (DetectorKind.TYP_MULTI, HypothesisFamily.fixed_size(14, 4), Subset((1, 2, 3, 4)),
                1, 2, MU, PI)
        exact_error(*args)  # fill the family's cached members
        tracemalloc.start()
        try:
            exact_error(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150e6


class TestPerCoordinateRoute:
    """Known-law kinds rank one per-type key; the route equals the enumeration."""

    MU3 = Pmf(np.array([0.2, 0.3, 0.5]))
    PI3 = Pmf(np.array([0.55, 0.3, 0.15]))  # with MU3, keys are certified at these n
    MIXED = [Pmf(np.array([v, 1 - v])) for v in (0.30, 0.31, 0.32, 0.31, 0.30)]  # criterion 6
    MIXED8 = [Pmf(np.array([v, 1 - v])) for v in (0.30, 0.34, 0.28, 0.31, 0.36, 0.30, 0.33, 0.29)]
    SINGLE = (DetectorKind.ML_SINGLE, DetectorKind.TYP_SINGLE, DetectorKind.MU_ONLY)
    DECISION_GRID = (
        [(kind, m, 2, n, {}) for kind in SINGLE for m, n in ((3, 12), (4, 8), (5, 5))]
        + [(kind, m, 3, n, {}) for kind in SINGLE for m, n in ((3, 8), (4, 4), (5, 3))]
        + [(DetectorKind.TYP_MULTI, 5, 2, 8, {"t": 2}), (DetectorKind.TYP_MULTI, 5, 3, 3, {"t": 2})]
    )

    def laws(self, k):
        return (MU, PI) if k == 2 else (self.MU3, self.PI3)

    @pytest.mark.parametrize("kind,m,k,n,extra", DECISION_GRID,
                             ids=[f"{c[0].value}-M{c[1]}-K{c[2]}" for c in DECISION_GRID])
    def test_top_t_by_key_decides_every_tuple(self, kind, m, k, n, extra):
        mu, pi = self.laws(k)
        fam = HypothesisFamily.fixed_size(m, **extra) if extra \
            else HypothesisFamily.single_outlier(m)
        scorer = Scorer(kind, fam, k, mu=mu, pi=pi)
        table = enumerate_types(n, k)
        ranking = oracle._ranking(scorer, scorer.row_stats(table.counts, n))
        assert ranking is not None, "keys not certified"
        order, starts, t_size = ranking
        rank = np.empty(table.size, dtype=np.int64)  # position of each type's key value
        rank[order] = np.cumsum(np.isin(np.arange(table.size), starts)) - 1
        column = {tuple(i - 1 for i in sorted(outlier_set(h))): col
                  for col, h in enumerate(scorer.hypotheses)}
        seen = 0
        for tidx, cols in tuple_decisions(scorer, table, chunk=1 << 14):
            top = np.sort(np.argsort(rank[tidx], axis=1, kind="stable")[:, :t_size], axis=1)
            assert np.array_equal([column[tuple(row)] for row in top], cols), seen
            seen += len(cols)
        assert seen == table.size**m

    VALUE_GRID = (
        [(kind, 3, 2, (2, 9, 20, 30), MU, {}) for kind in SINGLE]
        + [(kind, m, 2, (3, 6), MU, {}) for kind in SINGLE for m in (4, 5)]
        + [(kind, 3, 3, (2, 5, 8), None, {}) for kind in SINGLE]
        + [(DetectorKind.TYP_MULTI, 5, 2, (2, 5, 8), mus, {"t": 2}) for mus in (MU, MIXED)]
        # members on distinct law rows, and typ-multi past M=5 and at K=3
        + [(kind, 5, 2, (3, 6), mus, {}) for kind, mus in zip(SINGLE, [MIXED] * 3)]
        + [(DetectorKind.TYP_MULTI, 7, 3, (2,), None, {"t": 2}),
           (DetectorKind.TYP_MULTI, 8, 2, (2, 3), MIXED8, {"t": 2})]
    )

    @pytest.mark.parametrize("kind,m,k,ns,mus,extra", VALUE_GRID)
    def test_equals_enumeration(self, monkeypatch, kind, m, k, ns, mus, extra):
        mu, pi = self.laws(k)
        mus = mu if mus is None else mus
        fam = HypothesisFamily.fixed_size(m, extra["t"]) if "t" in extra \
            else HypothesisFamily.single_outlier(m)
        for n in ns:
            _, route = max_error(kind, fam, n, k, mus, pi, mu=mu)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_ranking", lambda *args: None)
                _, enum = max_error(kind, fam, n, k, mus, pi, mu=mu)
            for truth in fam.hypotheses:
                got, want = route[truth], enum[truth]
                assert (got.route, want.route) == ("per-coordinate", "enumeration")
                assert got.prob == pytest.approx(want.prob, rel=1e-12, abs=0), (n, truth)
                assert got.log_prob == pytest.approx(want.log_prob, rel=1e-12, abs=0), (n, truth)

    @pytest.mark.parametrize("kind,fam,mus", [
        (DetectorKind.ML_SINGLE, HypothesisFamily.single_outlier(9), MU),
        (DetectorKind.TYP_MULTI, HypothesisFamily.fixed_size(8, 2), MIXED8),
    ], ids=["ml-single-M9", "typ-multi-M8"])
    def test_batches_of_one_truth_keep_the_bits(self, monkeypatch, kind, fam, mus):
        n, t = 3, fam.sizes[0]
        # by default every truth shares one batch: n + 1 types bound the distinct keys
        assert oracle.KEY_BUDGET // (t * (n + 1)) >= len(fam.hypotheses)
        _, batched = max_error(kind, fam, n, 2, mus, PI, mu=MU)
        scorer = Scorer(kind, fam, 2, mu=MU, pi=PI)
        _, starts, _ = oracle._ranking(scorer, scorer.row_stats(enumerate_types(n, 2).counts, n))
        monkeypatch.setattr(oracle, "KEY_BUDGET", t * starts.size)  # t V terms: one truth a batch
        _, alone = max_error(kind, fam, n, 2, mus, PI, mu=MU)
        assert {e.route for e in alone.values()} == {"per-coordinate"}
        assert [e.log_prob.hex() for e in alone.values()] == \
            [e.log_prob.hex() for e in batched.values()]

    @pytest.mark.parametrize("route", ["per-coordinate", "enumeration"])
    def test_equal_laws_keep_the_bits(self, monkeypatch, route):
        # a sequence repeating one Pmf object and holding equal-valued copies of it
        # decides and weighs as the one shared pmf
        fam = HypothesisFamily.single_outlier(4)
        copies = [MU, Pmf(MU.probs.copy()), MU, Pmf(np.array([0.3, 0.7]))]
        if route == "enumeration":
            monkeypatch.setattr(oracle, "_ranking", lambda *args: None)
        _, shared = max_error(DetectorKind.ML_SINGLE, fam, 5, 2, MU, PI)
        _, given = max_error(DetectorKind.ML_SINGLE, fam, 5, 2, copies, PI, mu=MU)
        assert {e.route for e in given.values()} == {route}
        assert [e.log_prob.hex() for e in given.values()] == \
            [e.log_prob.hex() for e in shared.values()]

    def test_max_error_routes_every_truth(self):
        worst, per = max_error(DetectorKind.TYP_MULTI, HypothesisFamily.fixed_size(5, 2),
                               6, 2, self.MIXED, PI)
        assert {e.route for e in per.values()} == {"per-coordinate"}
        assert worst.log_prob == max(e.log_prob for e in per.values())

    # log_prob and prob hex of the enumeration before the per-coordinate route existed
    UNCERTIFIED = [
        # ml-single keys on these laws tie in exact arithmetic but come out an ulp apart
        ((DetectorKind.ML_SINGLE, 3, Coordinate(2), 4, 3, TestRouteAgreement.MU3,
          TestRouteAgreement.PI3), {}, "-0x1.6ac284eb54214p+0", "0x1.f0809ea03a84cp-3"),
        ((DetectorKind.ML_SINGLE, 4, Coordinate(4), 3, 3, TestRouteAgreement.MU3,
          TestRouteAgreement.PI3), {"chunk": 97}, "-0x1.9518c91da262cp-1", "0x1.d02d72712415ep-2"),
        # typ-multi at T=3 adds members in index order
        ((DetectorKind.TYP_MULTI, 7, Subset((2, 5, 6)), 2, 2, MU, PI), {"t": 3},
         "-0x1.ac32cbafddc00p-4", "0x1.cd2d8eab9d6fap-1"),
        # universal kinds always enumerate
        ((DetectorKind.UNIV_SINGLE, 4, Coordinate(3), 5, 2, MU, PI), {"chunk": 97},
         "-0x1.7838b1ccfc690p-1", "0x1.eb1bac40bc0fcp-2"),
    ]

    @pytest.mark.parametrize("args,extra,log_hex,prob_hex", UNCERTIFIED)
    def test_uncertified_cases_enumerate_unchanged(self, monkeypatch, args, extra, log_hex,
                                                   prob_hex):
        kind, m, truth, n, k, mu, pi = args
        fam = HypothesisFamily.fixed_size(m, extra["t"]) if "t" in extra \
            else HypothesisFamily.single_outlier(m)
        if "chunk" in extra:
            monkeypatch.setattr(oracle, "DEFAULT_CHUNK", extra["chunk"])
        got = exact_error(kind, fam, truth, n, k, mu, pi)
        assert got.route == "enumeration"
        assert (got.log_prob.hex(), got.prob.hex()) == (log_hex, prob_hex)

    @pytest.mark.parametrize("kind", SINGLE)
    def test_reach_m1000_n1000(self, kind):
        got = exact_error(kind, HypothesisFamily.single_outlier(1000), Coordinate(500),
                          1000, 2, MU, PI)
        assert got.route == "per-coordinate"
        assert math.isfinite(got.log_prob) and 0 < got.prob < 1e-70

    @pytest.mark.parametrize("truth,log_hex", [
        (Subset((1, 2)), "-0x1.1cbd05d253db0p-3"),
        (Subset((7, 999)), "-0x1.20c5edee898f0p-4"),
    ])
    def test_truth_members_without_the_family_table(self, truth, log_hex):
        # the family's members would be C(1000, 2) = 499,500 pairs; values recorded
        # from the last-member sum, within 5e-16 of the decimal reference in prob
        fam = HypothesisFamily.fixed_size(1000, 2)
        got = exact_error(DetectorKind.TYP_MULTI, fam, truth, 10, 2, MU, PI)
        assert got.route == "per-coordinate" and got.log_prob.hex() == log_hex
        assert "members" not in fam.__dict__
        [want] = decimal_errors(DetectorKind.TYP_MULTI, fam, [truth], 10, 2, MU, PI)
        assert abs(Decimal(got.prob) / want - 1) < Decimal("1e-13")

    def test_every_truth_within_1e_13_of_decimal(self):
        # ml-single at M=200, n=200: the error is about 4e-15, and the type
        # log-probabilities themselves are off by up to 3e-13 (absolute)
        fam = HypothesisFamily.single_outlier(200)
        _, per = max_error(DetectorKind.ML_SINGLE, fam, 200, 2, MU, PI)
        wants = decimal_errors(DetectorKind.ML_SINGLE, fam, fam.hypotheses, 200, 2, MU, PI)
        for truth, want in zip(fam.hypotheses, wants):
            assert per[truth].route == "per-coordinate"
            assert abs(Decimal(per[truth].prob) / want - 1) < Decimal("1e-13"), truth

    @pytest.mark.parametrize("kind,fam,truth", [
        (DetectorKind.ML_SINGLE, HypothesisFamily.single_outlier(10**4), Coordinate(5000)),
        (DetectorKind.TYP_MULTI, HypothesisFamily.fixed_size(10**4, 2), Subset((1, 9999))),
    ], ids=["ml-single", "typ-multi"])
    def test_reach_m10000_n1000(self, kind, fam, truth):
        # the route holds no (M, keys) array, so M=10^4 takes milliseconds
        got = exact_error(kind, fam, truth, 1000, 2, MU, PI)
        assert got.route == "per-coordinate"
        assert math.isfinite(got.log_prob) and 0 < got.prob < 1e-70

    def test_enumeration_past_the_cap_at_m10000(self):
        # 3^10000 tuples: the message names the count without spelling it out
        fam = HypothesisFamily.single_outlier(10**4)
        with pytest.raises(EnumerationCapError, match=r"3\^10000 type tuples"):
            exact_error(DetectorKind.UNIV_SINGLE, fam, Coordinate(1), 2, 2, MU, PI)

    def test_peak_memory(self):
        # tracemalloc peak 0.24 MB: a truth holds O(t x distinct keys) terms, none per coordinate
        args = (DetectorKind.TYP_MULTI, HypothesisFamily.fixed_size(2000, 2), Subset((3, 1500)),
                1000, 2, MU, PI)
        exact_error(*args)  # fill the family's cached members
        tracemalloc.start()
        try:
            got = exact_error(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.route == "per-coordinate" and peak < 16e6

    def test_max_error_peak_memory(self):
        # tracemalloc peak 26 MB: each truth's laws are read at its member rows'
        # coordinates, where an (H, M) table of law rows alone would be 800 MB
        args = (DetectorKind.ML_SINGLE, HypothesisFamily.single_outlier(10**4), 100, 2, MU, PI)
        max_error(*args)  # fill the family's cached members and hypotheses
        tracemalloc.start()
        try:
            _, per = max_error(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert {e.route for e in per.values()} == {"per-coordinate"} and peak < 48e6

    @pytest.mark.parametrize("kind", SINGLE)
    def test_validation_still_raised(self, kind):
        with pytest.raises(ValidationError):  # a generating law without full support
            exact_error(kind, FAM3, Coordinate(1), 3, 2, Pmf(np.array([1.0, 0.0])), PI, mu=MU)
        for mus, pi in TestExactError.WRONG_SIZED:
            with pytest.raises(ValidationError):
                exact_error(kind, FAM3, Coordinate(1), 3, 2, mus, pi, mu=MU)
        with pytest.raises(ValidationError):  # NULL in the family of an argmin kind
            exact_error(kind, HypothesisFamily.single_outlier(3, include_null=True),
                        Coordinate(1), 3, 2, MU, PI)


class TestMaxError:
    def test_max_dominates_each(self):
        worst, per = max_error(DetectorKind.TYP_SINGLE, FAM3, 6, 2, MU, PI)
        assert all(worst.prob >= e.prob - 1e-15 for e in per.values())
        assert worst.prob == max(e.prob for e in per.values())

    def test_truths_are_member_rows(self, monkeypatch):
        # the truths are the family's member rows: no hypothesis is looked up per truth
        calls = []
        index_of = HypothesisFamily.index_of
        monkeypatch.setattr(HypothesisFamily, "index_of",
                            lambda fam, h: calls.append(h) or index_of(fam, h))
        _, per = max_error(DetectorKind.TYP_MULTI, HypothesisFamily.fixed_size(40, 2), 10, 2, MU, PI)
        assert len(per) == 780 and calls == []

    def test_later_coordinates_lose_ties(self):
        # the earliest-index tie policy shifts tied mass toward low indices,
        # so conditional errors are ordered by truth index
        _, per = max_error(DetectorKind.ML_SINGLE, FAM3, 6, 2, MU, PI)
        probs = [per[Coordinate(i)].prob for i in (1, 2, 3)]
        assert probs[0] <= probs[1] <= probs[2]


class TestOnePass:
    """max_error's one pass over the tuples equals exact_error per truth, bit for bit."""

    LAWS = {2: (MU, PI), 3: (Pmf(np.array([0.2, 0.3, 0.5])), Pmf(np.array([0.5, 0.3, 0.2])))}
    CASES = [
        (DetectorKind.ML_SINGLE, FAM3),
        (DetectorKind.TYP_SINGLE, FAM3),
        (DetectorKind.UNIV_SINGLE, FAM3),
        (DetectorKind.MU_ONLY, FAM3),
        (DetectorKind.NULL_SINGLE, HypothesisFamily.single_outlier(3, include_null=True)),
        (DetectorKind.IDENTICAL_UNIV, HypothesisFamily.sized(5, [1, 2])),
        (DetectorKind.NULL_IDENTICAL, HypothesisFamily.sized(5, [1, 2], True)),
        (DetectorKind.TYP_MULTI, HypothesisFamily.fixed_size(5, 2)),
        (DetectorKind.UNIV_MULTI, HypothesisFamily.fixed_size(5, 2)),
    ]
    CHUNK = 100

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("kind,fam", CASES, ids=[c[0].value for c in CASES])
    def test_equals_exact_error_per_truth(self, monkeypatch, kind, fam, k):
        mu, pi = self.LAWS[k]
        n = 6 if fam.m == 3 else 2
        assert enumerate_types(n, k).size ** fam.m > 2 * self.CHUNK  # several chunks
        monkeypatch.setattr(oracle, "DEFAULT_CHUNK", self.CHUNK)
        monkeypatch.setattr(oracle, "coordinate_laws", refuse_law_lists)  # laws resolve once
        worst, per = max_error(kind, fam, n, k, mu, pi)
        assert list(per) == list(fam.hypotheses)
        for truth in fam.hypotheses:
            single = exact_error(kind, fam, truth, n, k, mu, pi)
            assert per[truth].log_prob == single.log_prob, truth
            assert per[truth].prob == single.prob, truth
        assert worst.log_prob == max(e.log_prob for e in per.values())

    def test_decides_once_per_call(self, monkeypatch):
        calls = []
        original = oracle._block_decisions

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(oracle, "_block_decisions", counting)
        monkeypatch.setattr(oracle, "DEFAULT_CHUNK", self.CHUNK)
        fam = HypothesisFamily.sized(5, [1, 2])
        _, per = max_error(DetectorKind.IDENTICAL_UNIV, fam, 2, 2, MU, PI)
        assert len(calls) == 1 and len(per) == 15


class TestExponentFit:
    def test_pure_exponential(self):
        ns = np.arange(5, 45, 5)
        assert exponent_fit(ns, -0.2 * ns).slope == pytest.approx(0.2, abs=1e-9)

    def test_polynomial_prefactor_absorbed(self):
        # n^3 is absorbed exactly by the ln(n) regressor; (n+1)^3 only up
        # to an O(1/n) bias on the slope
        ns = np.arange(10, 90, 10)
        errs = ns**3 * np.exp(-0.2 * ns)
        errs = errs / (errs.max() * 1.01)  # keep inside (0,1)
        assert exponent_fit(ns, np.log(errs)).slope == pytest.approx(0.2, abs=1e-9)
        shifted = (ns + 1.0) ** 3 * np.exp(-0.2 * ns)
        shifted = shifted / (shifted.max() * 1.01)
        assert exponent_fit(ns, np.log(shifted)).slope == pytest.approx(0.2, abs=1e-2)

    def test_rejects_degenerate(self):
        with pytest.raises(ValidationError):
            exponent_fit([1, 2, 3, 4], [-0.5, -math.inf, -1.0, -1.0])
        with pytest.raises(ValidationError):
            exponent_fit([1, 2, 3, 4], [-0.5, 0.0, -1.0, -1.0])
        with pytest.raises(ValidationError):
            exponent_fit([1, 2, 3, 4], [-0.5, math.nan, -1.0, -1.0])
        with pytest.raises(ValidationError):
            exponent_fit([1, 2, 3], [-0.5, -0.6, -0.7])

    def test_fits_errors_below_the_smallest_float(self):
        # at n = 4300 the exact error is about exp(-754): prob 0.0, log_prob finite
        ns = list(range(4300, 5001, 100))
        errs = [exact_error(DetectorKind.ML_SINGLE, FAM3, Coordinate(1), n, 2, MU, PI)
                for n in ns]
        assert errs[0].prob == 0.0 and errs[0].log_prob == pytest.approx(-754.07, abs=0.01)
        slope = exponent_fit(ns, [e.log_prob for e in errs]).slope
        assert slope == pytest.approx(2 * bhattacharyya(MU, PI), rel=1e-3)
