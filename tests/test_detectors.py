"""Decision rules: hand-checked examples, tie policy, families, I/O."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import rel_entr

from outlier_testing.detectors import (
    NULL,
    Coordinate,
    DetectorKind,
    HypothesisFamily,
    ObservationMatrix,
    Scorer,
    ScoreTable,
    Subset,
    decide,
    default_lambda,
    outlier_set,
    run_detector,
    score_table,
)
from outlier_testing.errors import ValidationError
from outlier_testing.simplex import Pmf, kl

MU = Pmf(np.array([0.5, 0.5]))
PI = Pmf(np.array([0.9, 0.1]))


def obs(rows, k=2):
    return ObservationMatrix(np.array(rows), k)


class TestHypotheses:
    def test_outlier_sets(self):
        assert outlier_set(NULL) == frozenset()
        assert outlier_set(Coordinate(2)) == frozenset({2})
        assert outlier_set(Subset((3, 1))) == frozenset({1, 3})

    def test_subset_sorts_members(self):
        assert Subset((3, 1)).members == (1, 3)

    def test_coordinate_is_one_based(self):
        with pytest.raises(ValidationError):
            Coordinate(0)

    def test_null_is_singleton(self):
        assert type(NULL)() is NULL


class TestHypothesisFamily:
    def test_single_outlier_order(self):
        fam = HypothesisFamily.single_outlier(3, include_null=True)
        assert fam.hypotheses[0] is NULL
        assert [outlier_set(h) for h in fam.hypotheses[1:]] == [
            frozenset({1}), frozenset({2}), frozenset({3})
        ]

    def test_sized_orders_by_size_then_lex(self):
        fam = HypothesisFamily.sized(5, [2, 1])
        sets = [tuple(sorted(outlier_set(h))) for h in fam.hypotheses]
        assert sets[:5] == [(1,), (2,), (3,), (4,), (5,)]
        assert sets[5] == (1, 2) and sets[-1] == (4, 5)

    def test_all_or_none_per_size(self):
        with pytest.raises(ValidationError):
            HypothesisFamily((Coordinate(1), Coordinate(2)), 3)

    def test_subset_size_limit(self):
        # |S| < M/2 rules out size-2 subsets at M=4
        with pytest.raises(ValidationError):
            HypothesisFamily.fixed_size(4, 2)
        assert len(HypothesisFamily.fixed_size(5, 2).hypotheses) == 10

    def test_index_of_missing(self):
        fam = HypothesisFamily.single_outlier(3)
        with pytest.raises(ValidationError):
            fam.index_of(NULL)


class TestObservationMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            obs([[0, 1], [0, 0]])  # M=2 < 3

    def test_symbol_range(self):
        with pytest.raises(ValidationError):
            obs([[0, 2], [0, 0], [0, 0]], k=2)

    def test_row_pmfs(self):
        o = obs([[0, 1], [0, 0], [1, 1]])
        assert np.allclose(o.row_pmfs[0].probs, [0.5, 0.5])
        assert np.allclose(o.row_pmfs[2].probs, [0.0, 1.0])

    def test_csv_round_trip(self, tmp_path):
        o = obs([[0, 1, 1], [0, 0, 1], [1, 0, 0]])
        path = tmp_path / "obs.csv"
        o.to_csv(path)
        back = ObservationMatrix.from_csv(path, k=2)
        assert np.array_equal(back.data, o.data) and back.k == 2

    def test_binary_round_trip(self, tmp_path):
        o = obs([[0, 1, 2], [2, 0, 1], [1, 1, 1]], k=3)
        path = tmp_path / "obs.bin"
        o.to_binary(path)
        back = ObservationMatrix.from_binary(path)
        assert np.array_equal(back.data, o.data) and back.k == 3

    def test_binary_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"nope")
        with pytest.raises(ValidationError):
            ObservationMatrix.from_binary(path)

    def test_binary_rejects_alphabet_beyond_one_byte(self, tmp_path):
        # one byte per symbol: symbol 300 would come back as 44
        o = obs([[0, 300], [1, 2], [299, 0]], k=301)
        with pytest.raises(ValidationError):
            o.to_binary(tmp_path / "wide.bin")
        edge = obs([[0, 255], [1, 2], [254, 0]], k=256)
        edge.to_binary(tmp_path / "edge.bin")
        assert np.array_equal(ObservationMatrix.from_binary(tmp_path / "edge.bin").data, edge.data)

    def test_counts_are_row_bincounts(self):
        data = np.random.default_rng(4).integers(0, 4, size=(6, 9))
        o = ObservationMatrix(data, 5)
        assert o.counts.shape == (6, 5)
        for row, c in zip(data, o.counts):
            assert np.array_equal(c, np.bincount(row, minlength=5))


class TestSingleOutlierScores:
    def test_ml_hand_example(self):
        # row 1 is the only row whose type differs from (1, 0); with mu
        # uniform and pi peaked at symbol 0, coordinate 1 must win
        o = obs([[0, 1], [0, 0], [0, 0]])
        table = score_table(DetectorKind.ML_SINGLE, o, mu=MU, pi=PI)
        assert decide(table) == Coordinate(1)
        # direct recomputation of the winning score
        g1, g_typ = o.row_pmfs[0], o.row_pmfs[1]
        expected = kl(g1, MU) + 2 * kl(g_typ, PI)
        assert table.entries[0][1] == pytest.approx(expected, abs=1e-12)

    def test_typ_matches_ml_minus_mu_term(self):
        o = obs([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
        ml = score_table(DetectorKind.ML_SINGLE, o, mu=MU, pi=PI).scores
        typ = score_table(DetectorKind.TYP_SINGLE, o, pi=PI).scores
        d_mu = np.array([kl(g, MU) for g in o.row_pmfs])
        assert np.allclose(ml - typ, d_mu)

    def test_univ_all_identical_rows_ties_to_first(self):
        o = obs([[0, 1], [0, 1], [0, 1]])
        table = score_table(DetectorKind.UNIV_SINGLE, o)
        assert np.allclose(table.scores, table.scores[0])
        assert decide(table) == Coordinate(1)

    def test_univ_prefers_odd_row_out(self):
        o = obs([[1, 1, 1, 1], [0, 0, 0, 1], [0, 0, 0, 1]])
        assert decide(score_table(DetectorKind.UNIV_SINGLE, o)) == Coordinate(1)

    def test_mu_only(self):
        o = obs([[0, 1], [0, 0], [0, 0]])
        table = score_table(DetectorKind.MU_ONLY, o, mu=MU)
        assert decide(table) == Coordinate(1)
        assert table.entries[1][1] == pytest.approx(kl(o.row_pmfs[1], MU), abs=1e-12)

    def test_law_alphabet_mismatch(self):
        o = obs([[0, 1], [0, 0], [0, 0]])
        with pytest.raises(ValidationError):
            score_table(DetectorKind.TYP_SINGLE, o, pi=Pmf(np.array([0.2, 0.3, 0.5])))


class TestMultiOutlierScores:
    def test_typ_multi_counts_subsets(self):
        o = ObservationMatrix(np.zeros((5, 4), dtype=int), 2)
        table = score_table(DetectorKind.TYP_MULTI, o, pi=PI, t=2)
        assert len(table.entries) == 10

    def test_typ_multi_finds_planted_pair(self):
        rows = np.zeros((5, 6), dtype=int)
        rows[1] = 1
        rows[3] = 1
        table = score_table(DetectorKind.TYP_MULTI, ObservationMatrix(rows, 2), pi=PI, t=2)
        assert decide(table) == Subset((2, 4))

    def test_univ_multi_finds_planted_pair(self):
        rows = np.zeros((5, 6), dtype=int)
        rows[0] = 1
        rows[4] = 1
        table = score_table(DetectorKind.UNIV_MULTI, ObservationMatrix(rows, 2), t=2)
        assert decide(table) == Subset((1, 5))

    def test_t_range_enforced(self):
        o = ObservationMatrix(np.zeros((5, 2), dtype=int), 2)
        with pytest.raises(ValidationError):
            score_table(DetectorKind.TYP_MULTI, o, pi=PI, t=1)
        with pytest.raises(ValidationError):
            score_table(DetectorKind.UNIV_MULTI, o, t=3)


class TestIdenticalOutlierScores:
    def test_planted_identical_pair(self):
        rows = np.zeros((5, 8), dtype=int)
        rows[1] = 1
        rows[2] = 1
        fam = HypothesisFamily.sized(5, [1, 2])
        o = ObservationMatrix(rows, 2)
        assert run_detector(DetectorKind.IDENTICAL_UNIV, o, family=fam) == Subset((2, 3))

    def test_single_outlier_size_included(self):
        rows = np.zeros((5, 8), dtype=int)
        rows[4] = 1
        fam = HypothesisFamily.sized(5, [1, 2])
        o = ObservationMatrix(rows, 2)
        assert run_detector(DetectorKind.IDENTICAL_UNIV, o, family=fam) == Subset((5,))

    def test_rejects_null_in_family(self):
        fam = HypothesisFamily.sized(5, [1], include_null=True)
        o = ObservationMatrix(np.zeros((5, 2), dtype=int), 2)
        with pytest.raises(ValidationError):
            score_table(DetectorKind.IDENTICAL_UNIV, o, family=fam)


class TestNullAware:
    def test_default_lambda_value(self):
        assert default_lambda(3, 10, 2) == pytest.approx(
            2 * 2 * 2 * np.log(11) / 10, abs=1e-12
        )

    def test_below_threshold_returns_null(self):
        table = ScoreTable(((Coordinate(1), 0.10), (Coordinate(2), 0.11)))
        assert decide(table, lam=0.5) is NULL

    def test_above_threshold_picks_argmin(self):
        table = ScoreTable(((Coordinate(1), 0.9), (Coordinate(2), 0.1)))
        assert decide(table, lam=0.5) == Coordinate(2)

    def test_run_detector_null_single(self):
        o = obs([[0, 1], [1, 0], [0, 1]])
        assert run_detector(DetectorKind.NULL_SINGLE, o, lam=100.0) is NULL

    def test_negative_lambda_rejected(self):
        table = ScoreTable(((Coordinate(1), 0.0),))
        with pytest.raises(ValidationError):
            decide(table, lam=-1.0)


class TestDispatch:
    def test_missing_params(self):
        o = obs([[0, 1], [0, 0], [0, 0]])
        with pytest.raises(ValidationError):
            score_table(DetectorKind.ML_SINGLE, o, mu=MU)  # no pi
        with pytest.raises(ValidationError):
            score_table(DetectorKind.TYP_MULTI, o, pi=PI)  # no t

    def test_kind_coercion_from_string(self):
        o = obs([[0, 1], [0, 0], [0, 0]])
        assert run_detector("typ-single", o, pi=PI) == Coordinate(1)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 5),
        st.integers(2, 8),
        st.permutations(list(range(5))),
    )
    @settings(max_examples=60, deadline=None)
    def test_univ_permutation_equivariance(self, seed, m, n, perm5):
        # relabeling coordinates relabels the decision the same way,
        # provided no scores tie
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, size=(m, n))
        o = ObservationMatrix(data, 2)
        table = score_table(DetectorKind.UNIV_SINGLE, o)
        scores = np.sort(table.scores)
        if np.min(np.diff(scores)) < 1e-9:
            return  # tied instance, tie policy is index-based by design
        perm = [p for p in perm5 if p < m]
        o_perm = ObservationMatrix(data[perm], 2)
        before = decide(table)
        after = decide(score_table(DetectorKind.UNIV_SINGLE, o_perm))
        assert perm[after.index - 1] + 1 == before.index


def reference_scores(kind, data, k, hypotheses, mu=None, pi=None):
    """The naive definition: KL of each row to its law, or to the mixture of its pool."""
    gam = np.stack([np.bincount(row, minlength=k) for row in data]) / data.shape[1]

    def kl(j, q):
        return float(rel_entr(gam[j], q).sum())

    def dispersion(rows):
        mix = gam[rows].mean(axis=0)
        return sum(kl(j, mix) for j in rows)

    scores = []
    for h in hypotheses:
        inside = sorted(i - 1 for i in outlier_set(h))
        outside = [j for j in range(len(gam)) if j not in inside]
        if kind in ("ml-single", "typ-single", "mu-only", "typ-multi"):
            to_mu = sum(kl(i, mu.probs) for i in inside) if kind in ("ml-single", "mu-only") else 0.0
            to_pi = sum(kl(j, pi.probs) for j in outside) if kind != "mu-only" else 0.0
            scores.append(to_mu + to_pi)
        else:
            inner = dispersion(inside) if "identical" in kind else 0.0
            scores.append(inner + dispersion(outside))
    return np.array(scores)


def _kernel_cases():
    """(kind, M, keyword arguments) for every kind at M in {3, 5, 50} where it is defined."""
    for m in (3, 5, 50):
        for kind in ("ml-single", "typ-single", "univ-single", "mu-only", "null-single"):
            yield kind, m, {}
        if m > 4:  # 1 < T < M/2
            yield "typ-multi", m, {"t": 2}
            yield "univ-multi", m, {"t": 2}
        sizes = [1] if m == 3 else [1, 2]
        yield "identical-univ", m, {"family": HypothesisFamily.sized(m, sizes)}
        yield "null-identical", m, {"family": HypothesisFamily.sized(m, sizes, include_null=True)}


class TestScoreKernel:
    MU3 = Pmf(np.array([0.2, 0.3, 0.5]))
    PI3 = Pmf(np.array([0.5, 0.3, 0.2]))

    @pytest.mark.parametrize("kind,m,extra", list(_kernel_cases()))
    def test_matches_reference_definition(self, kind, m, extra):
        rng = np.random.default_rng(m)
        laws = rng.dirichlet(np.ones(3), size=m)
        data = np.stack([rng.choice(3, size=30, p=p) for p in laws])
        o = ObservationMatrix(data, 3)
        table = score_table(kind, o, mu=self.MU3, pi=self.PI3, **extra)
        want = reference_scores(kind, data, 3, table.hypotheses, mu=self.MU3, pi=self.PI3)
        np.testing.assert_allclose(table.scores, want, rtol=1e-12, atol=0)
        if kind in ("typ-multi", "univ-multi"):
            assert len(table.entries) == math.comb(m, extra["t"])
        elif "family" in extra:
            assert table.hypotheses == tuple(h for h in extra["family"].hypotheses if h is not NULL)
        else:
            assert table.hypotheses == tuple(Coordinate(i) for i in range(1, m + 1))

    @pytest.mark.parametrize("kind,m,extra", [c for c in _kernel_cases() if c[1] == 5])
    def test_batch_entries_match_single_matrices(self, kind, m, extra):
        # the batch size changes no entry's floating-point result
        rng = np.random.default_rng(7)
        counts = np.stack([rng.multinomial(12, rng.dirichlet(np.ones(3)), size=m)
                           for _ in range(40)])
        scorer = Scorer(kind, m, 3, mu=self.MU3, pi=self.PI3, **extra)
        batched = scorer.scores(counts, 12)
        for b in range(len(counts)):
            assert np.array_equal(batched[b], scorer.scores(counts[b:b + 1], 12)[0])
