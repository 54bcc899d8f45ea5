"""Decision rules: hand-checked examples, tie policy, families, I/O."""
import math
import re
import tempfile
import tracemalloc
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import rel_entr, xlogy

from outlier_testing import detectors
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
    null_threshold,
    outlier_set,
    run_detector,
    score_table,
)
from outlier_testing.errors import ValidationError
from outlier_testing.oracle import exact_error
from outlier_testing.sim import SimConfig, estimate_error
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

    @pytest.mark.parametrize("m,sizes,include_null", [
        (5, (2,), False), (7, (1, 3), True), (12, (3,), False), (9, (1, 2, 4), False),
    ])
    def test_subsets_equal_the_checked_construction(self, m, sizes, include_null):
        fam = HypothesisFamily.sized(m, sizes, include_null)
        want = (NULL,) * include_null + tuple(
            Subset(tuple(reversed(c))) for k in sizes for c in combinations(range(1, m + 1), k))
        assert fam.hypotheses == want
        assert list(map(hash, fam.hypotheses)) == list(map(hash, want))
        assert all(type(h.members) is tuple and all(type(c) is int for c in h.members)
                   for h in fam.hypotheses[include_null:])

    @pytest.mark.parametrize("members", [(), (2, 2), (0, 3), (-1, 2)])
    def test_public_subset_still_checks(self, members):
        with pytest.raises(ValidationError):
            Subset(members)

    def test_sized_orders_by_size_then_lex(self):
        fam = HypothesisFamily.sized(5, [2, 1])
        sets = [tuple(sorted(outlier_set(h))) for h in fam.hypotheses]
        assert sets[:5] == [(1,), (2,), (3,), (4,), (5,)]
        assert sets[5] == (1, 2) and sets[-1] == (4, 5)

    def test_all_or_none_per_size(self):
        # a family is (M, sizes, include_null): each size brings all its subsets
        for sizes in ([], [0, 1], [1, 3], [3]):
            with pytest.raises(ValidationError):
                HypothesisFamily.sized(6, sizes)  # sizes must satisfy 1 <= k < M/2
        for m, sizes, null in ((5, [1, 2], True), (9, [2, 4], False), (12, [5], False)):
            fam = HypothesisFamily.sized(m, sizes, include_null=null)
            held = [h for h in fam.hypotheses if h is not NULL]
            assert len(held) == sum(math.comb(m, k) for k in sizes)
            assert len(fam.hypotheses) == len(held) + null

    def test_subset_size_limit(self):
        # |S| < M/2 rules out size-2 subsets at M=4
        with pytest.raises(ValidationError):
            HypothesisFamily.fixed_size(4, 2)
        assert len(HypothesisFamily.fixed_size(5, 2).hypotheses) == 10

    @pytest.mark.parametrize("m,sizes", [(7, (1.5,)), (7, (1.0,)), (7, (1, 2.0)), (7.0, (1,))])
    def test_rejects_sizes_that_are_not_whole_numbers(self, m, sizes):
        with pytest.raises(ValidationError, match="whole numbers"):
            HypothesisFamily(m, sizes)

    def test_index_of_missing(self):
        fam = HypothesisFamily.single_outlier(3)
        with pytest.raises(ValidationError):
            fam.index_of(NULL)

    def test_duplicate_member_rejected(self):
        # a size named twice is one size: no member can appear twice
        assert HypothesisFamily.sized(5, [2, 1, 2]) == HypothesisFamily.sized(5, [1, 2])
        fam = HypothesisFamily.sized(5, [2, 1, 2])
        assert len(set(map(outlier_set, fam.hypotheses))) == len(fam.hypotheses) == 15

    def test_single_outlier_family_is_shared(self):
        assert HypothesisFamily.single_outlier(4) is HypothesisFamily.single_outlier(4)
        assert HypothesisFamily.single_outlier(4, True).hypotheses[0] is NULL

    @pytest.mark.parametrize("m,int_first", [(23, True), (29, False)],
                             ids=["int-first", "float-first"])
    def test_single_outlier_rejects_a_float_m_in_either_order(self, m, int_first):
        # M values no other test asks for, so this test decides which call the cache sees first
        before = HypothesisFamily.single_outlier(m) if int_first else None
        with pytest.raises(ValidationError):
            HypothesisFamily.single_outlier(float(m))
        fam = HypothesisFamily.single_outlier(m)
        assert fam.m == m and fam is HypothesisFamily.single_outlier(m)
        assert before is None or before is fam

    LOOKUP_CASES = [
        (DetectorKind.NULL_SINGLE, HypothesisFamily.single_outlier(5, include_null=True)),
        (DetectorKind.UNIV_MULTI, HypothesisFamily.fixed_size(7, 3)),
        (DetectorKind.NULL_IDENTICAL, HypothesisFamily.sized(5, [1, 2], include_null=True)),
        (DetectorKind.UNIV_MULTI, HypothesisFamily.fixed_size(9, 4)),
        (DetectorKind.NULL_IDENTICAL, HypothesisFamily.sized(9, [1, 2, 3, 4], include_null=True)),
    ]
    LOOKUP_IDS = ["null-single", "univ-multi", "null-identical", "univ-multi-m9", "null-identical-m9"]

    @pytest.mark.parametrize("kind,fam", LOOKUP_CASES, ids=LOOKUP_IDS)
    def test_lookups_equal_linear_scan(self, kind, fam):
        def scan(hyps, h):  # the first member with h's outlier set
            return next(i for i, c in enumerate(hyps) if outlier_set(c) == outlier_set(h))

        scorer = Scorer(kind, fam, 2)
        # Coordinate(i) and Subset((i,)) stand for each other
        swapped = [Subset((h.index,)) if isinstance(h, Coordinate) else Coordinate(h.members[0])
                   for h in fam.hypotheses if len(outlier_set(h)) == 1]
        for h in (*fam.hypotheses, *swapped):
            assert fam.index_of(h) == scan(fam.hypotheses, h), h
            assert scorer.column(h) == (-1 if h is NULL else scan(scorer.hypotheses, h)), h
        assert scorer.hypotheses == tuple(h for h in fam.hypotheses if h is not NULL)

    @pytest.mark.parametrize("kind,fam", LOOKUP_CASES, ids=LOOKUP_IDS)
    def test_non_members_raise(self, kind, fam):
        lacking = next(k for k in range(1, fam.m) if k not in fam.sizes)
        k = fam.sizes[0]
        outside = [
            Subset(tuple(range(1, lacking + 1))),  # a size the family lacks
            Subset((*range(1, k), fam.m + 1)),  # coordinate M+1
        ]
        if not fam.include_null:
            outside.append(NULL)
        for h in outside:
            with pytest.raises(ValidationError):
                fam.index_of(h)


class TestObservationMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            obs([[0, 1], [0, 0]])  # M=2 < 3

    def test_symbol_range(self):
        with pytest.raises(ValidationError):
            obs([[0, 2], [0, 0], [0, 0]], k=2)

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

    def test_binary_counts_are_row_bincounts(self, tmp_path):
        data = np.random.default_rng(5).integers(0, 256, size=(7, 300)).astype(np.uint8)
        path = tmp_path / "obs.bin"
        ObservationMatrix(data, 256).to_binary(path)
        o = ObservationMatrix.from_binary(path)
        assert o.counts.shape == (7, 256) and o.counts.dtype == np.int64
        for row, c in zip(data, o.counts):
            assert np.array_equal(c, np.bincount(row, minlength=256))
        assert o.data.dtype == np.int64 and np.array_equal(o.data, data)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint32, np.int64, np.float32,
                                       np.float64, np.bool_])
    def test_any_numeric_dtype_of_whole_numbers(self, dtype, tmp_path):
        data = np.array([[0, 1, 1], [1, 0, 0], [0, 0, 1]])
        o = ObservationMatrix(data.astype(dtype), 2)
        assert o.data.dtype == np.int64 and np.array_equal(o.data, data)
        assert np.array_equal(o.counts, [[1, 2], [2, 1], [2, 1]])
        o.to_csv(tmp_path / "obs.csv")
        o.to_binary(tmp_path / "obs.bin")
        assert (tmp_path / "obs.csv").read_text() == "0,1,1\n1,0,0\n0,0,1\n"
        assert np.array_equal(ObservationMatrix.from_binary(tmp_path / "obs.bin").data, data)

    @pytest.mark.parametrize("data", [
        [[0.5, 1.7], [1, 0], [0, 1]],  # fractions were truncated to [[0, 1], ...]
        [[0, 1], [1, np.nan], [0, 1]],
        [[0, 1], [1, np.inf], [0, 1]],
        [[0, 1], [1, -np.inf], [0, 1]],
    ])
    def test_rejects_symbols_that_are_not_whole_numbers(self, data):
        with pytest.raises(ValidationError):
            ObservationMatrix(data, 2)

    @pytest.mark.parametrize("data", [
        [["0", "1"], ["1", "0"], ["0", "1"]],
        [["a", "b"], ["b", "a"], ["a", "b"]],
        np.array([[0, 1], [1, 0], [0, None]], dtype=object),
        np.array([[0, 1j], [1, 0], [0, 1]]),
    ])
    def test_rejects_non_numeric_arrays(self, data):
        with pytest.raises(ValidationError, match="numbers"):
            ObservationMatrix(data, 2)

    def test_data_is_a_read_only_copy(self):
        data = np.array([[0, 1], [1, 0], [0, 1]], dtype=np.uint8)
        o = ObservationMatrix(data, 2)
        data[0, 0] = 1
        assert o.data[0, 0] == 0 and o.counts[0, 0] == 1
        with pytest.raises(ValueError):
            o.data[0, 0] = 1
        with pytest.raises(ValueError):
            o.counts[0, 0] = 2

    def test_rejects_count_tables_beyond_the_cap(self, monkeypatch):
        k = detectors.MAX_COUNT_CELLS // 3 + 1
        with pytest.raises(ValidationError, match=f"M=3, K={k}"):
            ObservationMatrix(np.zeros((3, 2), dtype=np.int64), k)
        monkeypatch.setattr(detectors, "MAX_COUNT_CELLS", 12)
        assert ObservationMatrix(np.zeros((3, 2), dtype=np.int64), 4).counts.shape == (3, 4)
        with pytest.raises(ValidationError, match="M=3, K=5"):
            ObservationMatrix(np.zeros((3, 2), dtype=np.int64), 5)


def loadtxt_reader(path, k=None):
    """`from_csv` with `np.loadtxt` as its only reader, as it read every file before."""
    try:
        a = np.loadtxt(path, dtype=np.int64, delimiter=",", ndmin=2)
    except (ValueError, OSError) as exc:
        raise ValidationError(f"cannot read observation CSV: {exc}") from exc
    return ObservationMatrix(a, k if k is not None else max(int(a.max()) + 1 if a.size else 0, 2))


def outcome(read, path, k):
    """What a reader makes of a file: (k, counts, data), or its ValidationError message."""
    try:
        o = read(path, k)
    except ValidationError as exc:
        return str(exc)
    return o.k, o.counts.tolist(), o.data.tolist()


@st.composite
def small_matrices(draw):
    m, n, k = draw(st.integers(3, 7)), draw(st.integers(1, 7)), draw(st.integers(2, 10))
    cells = draw(st.lists(st.integers(0, k - 1), min_size=m * n, max_size=m * n))
    return np.array(cells).reshape(m, n), k


class TestCsvReader:
    """`to_csv`'s one-digit layout is read without `np.loadtxt`, to the matrix it gives."""

    NEAR_MISSES = {
        "crlf": lambda b: b.replace(b"\n", b"\r\n"),
        "spaces": lambda b: re.sub(rb"(\d)", rb" \1 ", b),
        "comment": lambda b: b"# written by hand\n" + b,
        "blank-line": lambda b: b.replace(b"\n", b"\n\n", 1),
        "no-final-newline": lambda b: b[:-1],
        "two-digit-symbol": lambda b: b"1" + b,
        "ragged-row": lambda b: b.replace(b"\n", b",0\n", 1),
        "empty-field": lambda b: b"," + b[1:],  # same length as the layout
        "leading-plus": lambda b: b"+" + b,
        "utf8-bom": lambda b: b"\xef\xbb\xbf" + b,
    }

    @given(small_matrices())
    @settings(max_examples=80, deadline=None)
    def test_layout_reads_without_loadtxt(self, case):
        data, k = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "obs.csv"
            ObservationMatrix(data, k).to_csv(path)
            for k_arg in (None, k):
                want = outcome(loadtxt_reader, path, k_arg)
                with mock.patch.object(np, "loadtxt", side_effect=AssertionError("np.loadtxt")):
                    assert outcome(ObservationMatrix.from_csv, path, k_arg) == want
                    assert ObservationMatrix.from_csv(path, k_arg)._symbols.dtype == np.uint8

    @given(small_matrices(), st.sampled_from(sorted(NEAR_MISSES)))
    @settings(max_examples=120, deadline=None)
    def test_near_misses_read_as_before(self, case, miss):
        data, k = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "obs.csv"
            ObservationMatrix(data, k).to_csv(path)
            path.write_bytes(self.NEAR_MISSES[miss](path.read_bytes()))
            for k_arg in (None, k):
                want = outcome(loadtxt_reader, path, k_arg)
                with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
                    assert outcome(ObservationMatrix.from_csv, path, k_arg) == want
                assert spy.called

    @pytest.mark.parametrize("text,in_layout", [
        (b"5\n", True),  # fewer than three rows: the constructor's error
        (b"0,1\n1,0\n", True),
        (b"1\n2\n3\n", True),
        (b"0;1\n1;0\n0;1\n", False),  # digits where the layout has them
        (b"0,0\n1\n1,1\n0\n", False),  # ragged rows that fill whole layout rows
        (b"", False),
        (b"\n0,1\n1,0\n0,1\n", False),  # a blank first line: rows one byte wide
    ])
    @pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
    def test_small_files(self, tmp_path, text, in_layout):
        path = tmp_path / "obs.csv"
        path.write_bytes(text)
        want = outcome(loadtxt_reader, path, None)
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
            assert outcome(ObservationMatrix.from_csv, path, None) == want
        assert spy.called != in_layout


class TestSingleOutlierScores:
    def test_ml_hand_example(self):
        # row 1 is the only row whose type differs from (1, 0); with mu
        # uniform and pi peaked at symbol 0, coordinate 1 must win
        o = obs([[0, 1], [0, 0], [0, 0]])
        table = score_table(DetectorKind.ML_SINGLE, o, mu=MU, pi=PI)
        assert decide(table) == Coordinate(1)
        # direct recomputation of the winning score
        g1, g_typ = (Pmf(c / o.n) for c in o.counts[:2])
        expected = kl(g1, MU) + 2 * kl(g_typ, PI)
        assert table.entries[0][1] == pytest.approx(expected, abs=1e-12)

    def test_typ_matches_ml_minus_mu_term(self):
        o = obs([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
        ml = score_table(DetectorKind.ML_SINGLE, o, mu=MU, pi=PI).scores
        typ = score_table(DetectorKind.TYP_SINGLE, o, pi=PI).scores
        d_mu = np.array([kl(Pmf(c / o.n), MU) for c in o.counts])
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
        assert table.entries[1][1] == pytest.approx(kl(Pmf(o.counts[1] / o.n), MU), abs=1e-12)

    def test_law_alphabet_mismatch(self):
        o = obs([[0, 1], [0, 0], [0, 0]])
        with pytest.raises(ValidationError):
            score_table(DetectorKind.TYP_SINGLE, o, pi=Pmf(np.array([0.2, 0.3, 0.5])))


class TestMultiOutlierScores:
    def test_typ_multi_counts_subsets(self):
        o = ObservationMatrix(np.zeros((5, 4), dtype=int), 2)
        table = score_table(DetectorKind.TYP_MULTI, o, pi=PI,
                            family=HypothesisFamily.fixed_size(5, 2))
        assert len(table.entries) == 10

    def test_typ_multi_finds_planted_pair(self):
        rows = np.zeros((5, 6), dtype=int)
        rows[1] = 1
        rows[3] = 1
        table = score_table(DetectorKind.TYP_MULTI, ObservationMatrix(rows, 2), pi=PI,
                            family=HypothesisFamily.fixed_size(5, 2))
        assert decide(table) == Subset((2, 4))

    def test_univ_multi_finds_planted_pair(self):
        rows = np.zeros((5, 6), dtype=int)
        rows[0] = 1
        rows[4] = 1
        table = score_table(DetectorKind.UNIV_MULTI, ObservationMatrix(rows, 2),
                            family=HypothesisFamily.fixed_size(5, 2))
        assert decide(table) == Subset((1, 5))

    def test_t_range_enforced(self):
        o = ObservationMatrix(np.zeros((5, 2), dtype=int), 2)
        with pytest.raises(ValidationError):
            score_table(DetectorKind.TYP_MULTI, o, pi=PI, family=HypothesisFamily.fixed_size(5, 1))
        with pytest.raises(ValidationError):
            score_table(DetectorKind.UNIV_MULTI, o, family=HypothesisFamily.fixed_size(5, 3))


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
        table = ScoreTable((Coordinate(1), Coordinate(2)), [0.10, 0.11])
        assert decide(table, lam=0.5) is NULL

    def test_above_threshold_picks_argmin(self):
        table = ScoreTable((Coordinate(1), Coordinate(2)), [0.9, 0.1])
        assert decide(table, lam=0.5) == Coordinate(2)

    def test_run_detector_null_single(self):
        o = obs([[0, 1], [1, 0], [0, 1]])
        assert run_detector(DetectorKind.NULL_SINGLE, o, lam=100.0) is NULL

    def test_family_without_null_rejected(self):
        # NULL would be a decision outside the family
        o = obs([[0, 1], [1, 0], [0, 1]])
        with pytest.raises(ValidationError, match="add it to the family"):
            run_detector(DetectorKind.NULL_SINGLE, o, family=HypothesisFamily.single_outlier(3))

    def test_negative_lambda_rejected(self):
        table = ScoreTable((Coordinate(1),), [0.0])
        with pytest.raises(ValidationError):
            decide(table, lam=-1.0)

    @pytest.mark.parametrize("lam", [math.nan, -1.0, -math.inf])
    def test_nan_and_negative_lambda_rejected_for_every_kind(self, lam):
        table = ScoreTable((Coordinate(1),), [0.0])
        with pytest.raises(ValidationError):
            decide(table, lam=lam)
        for kind in (DetectorKind.NULL_SINGLE, DetectorKind.UNIV_SINGLE):
            with pytest.raises(ValidationError):
                null_threshold(kind, lam, 3, 10, 2)

    def test_infinite_lambda_decides_null(self):
        table = ScoreTable((Coordinate(1), Coordinate(2)), [0.9, 0.1])
        assert decide(table, lam=math.inf) is NULL


class TestScoreTable:
    HYPS = (Coordinate(1), Coordinate(2), Coordinate(3))

    def test_scores_are_a_read_only_float64_copy(self):
        given = np.array([0.3, 0.1, 0.2])
        table = ScoreTable(self.HYPS, given)
        given[1] = 5.0
        assert table.scores.dtype == np.float64 and table.scores.tolist() == [0.3, 0.1, 0.2]
        with pytest.raises(ValueError):
            table.scores[0] = 0.0
        assert table.entries == tuple(zip(self.HYPS, [0.3, 0.1, 0.2]))
        assert table.spread() == 0.3 - 0.1 and decide(table) == Coordinate(2)

    def test_kernel_row_is_read_only(self):
        table = score_table(DetectorKind.UNIV_SINGLE, obs([[0, 1], [0, 0], [1, 1]]))
        assert not table.scores.flags.writeable and table.hypotheses == self.HYPS

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_scores_that_are_not_finite(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            ScoreTable(self.HYPS, [0.1, bad, 0.2])

    def test_rejects_empty_and_mismatched_tables(self):
        for hyps, scores in (((), []), (self.HYPS, [0.1, 0.2]), (self.HYPS, [0.1, 0.2, 0.3, 0.4]),
                             (self.HYPS, [[0.1, 0.2, 0.3]])):
            with pytest.raises(ValidationError, match="one score per hypothesis, and one at least"):
                ScoreTable(hyps, scores)

    def test_equal_scores_go_to_the_earliest_hypothesis(self):
        assert decide(ScoreTable(self.HYPS, [0.2, 0.1, 0.1])) == Coordinate(2)
        assert decide(ScoreTable(self.HYPS, [0.1, 0.1, 0.1])) == Coordinate(1)
        assert decide(ScoreTable(self.HYPS, [0.1, 0.1, 0.1]), lam=0.0) is NULL


MISFITS = [
    (DetectorKind.ML_SINGLE, HypothesisFamily.fixed_size(5, 2), Subset((1, 2))),
    (DetectorKind.TYP_MULTI, HypothesisFamily.single_outlier(5), Coordinate(1)),
    (DetectorKind.UNIV_SINGLE, HypothesisFamily.single_outlier(5, include_null=True), NULL),
    # a null-aware kind may decide NULL, so its family must hold it
    (DetectorKind.NULL_SINGLE, HypothesisFamily.single_outlier(5), Coordinate(1)),
    (DetectorKind.NULL_IDENTICAL, HypothesisFamily.sized(5, [1, 2]), Subset((1, 2))),
]


@pytest.mark.parametrize("kind,fam,truth", MISFITS, ids=[c[0].value for c in MISFITS])
def test_family_must_fit_kind(kind, fam, truth):
    with pytest.raises(ValidationError, match="family"):
        Scorer(kind, fam, 2, mu=MU, pi=PI)
    with pytest.raises(ValidationError, match="family"):
        exact_error(kind, fam, truth, 2, 2, MU, PI)
    cfg = SimConfig(kind=kind, family=fam, k=2, n_grid=(4,), trials=100, seed=0, mus=MU, pi=PI)
    with pytest.raises(ValidationError, match="family"):
        estimate_error(cfg, truth, 4)


SCORER_FAULTS = [
    (DetectorKind.ML_SINGLE, HypothesisFamily.single_outlier(3), None, PI, "ml-single needs mu"),
    (DetectorKind.MU_ONLY, HypothesisFamily.single_outlier(3), None, None, "mu-only needs mu"),
    (DetectorKind.TYP_SINGLE, HypothesisFamily.single_outlier(3), MU, None, "typ-single needs pi"),
    (DetectorKind.TYP_MULTI, HypothesisFamily.fixed_size(5, 2), MU, None, "typ-multi needs pi"),
    (DetectorKind.UNIV_SINGLE, HypothesisFamily.single_outlier(3, include_null=True), None, None,
     "univ-single never decides the null hypothesis; drop it from the family"),
    (DetectorKind.NULL_SINGLE, HypothesisFamily.single_outlier(3), None, None,
     "null-single decides the null hypothesis; add it to the family"),
    (DetectorKind.TYP_MULTI, HypothesisFamily.single_outlier(5), MU, PI,
     "typ-multi needs a family of one outlier-set size T > 1"),
    (DetectorKind.ML_SINGLE, HypothesisFamily.fixed_size(5, 2), MU, PI,
     "ml-single needs a family of single coordinates"),
    # no family: score_table's default names the missing value and its flag
    (DetectorKind.TYP_MULTI, None, MU, PI, "typ-multi needs the outlier-set size T (--t)"),
    (DetectorKind.IDENTICAL_UNIV, None, None, None,
     "identical-univ needs the outlier-set sizes (--sizes)"),
]


@pytest.mark.parametrize("kind,fam,mu,pi,message", SCORER_FAULTS,
                         ids=[c[-1] for c in SCORER_FAULTS])
def test_scorer_fault_messages(kind, fam, mu, pi, message):
    with pytest.raises(ValidationError) as err:
        if fam is None:
            score_table(kind, obs([[0, 1]] * 5), mu=mu, pi=pi)
        else:
            Scorer(kind, fam, 2, mu=mu, pi=pi)
    assert str(err.value) == message


class TestDispatch:
    def test_missing_params(self):
        o = obs([[0, 1], [0, 0], [0, 0]])
        with pytest.raises(ValidationError):
            score_table(DetectorKind.ML_SINGLE, o, mu=MU)  # no pi
        with pytest.raises(ValidationError):
            score_table(DetectorKind.TYP_MULTI, o, pi=PI)  # no family

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
            yield "typ-multi", m, {"family": HypothesisFamily.fixed_size(m, 2)}
            yield "univ-multi", m, {"family": HypothesisFamily.fixed_size(m, 2)}
        sizes = [1] if m == 3 else [1, 2]
        yield "identical-univ", m, {"family": HypothesisFamily.sized(m, sizes)}
        yield "null-identical", m, {"family": HypothesisFamily.sized(m, sizes, include_null=True)}
    # numpy sums 8 or more terms pairwise, fewer left to right
    for t in (3, 8):
        yield "typ-multi", 17, {"family": HypothesisFamily.fixed_size(17, t)}
        yield "univ-multi", 17, {"family": HypothesisFamily.fixed_size(17, t)}
    yield "identical-univ", 9, {"family": HypothesisFamily.sized(9, [1, 2, 3])}
    yield "null-identical", 9, {"family": HypothesisFamily.sized(9, [1, 2, 3], include_null=True)}


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
            assert len(table.entries) == math.comb(m, extra["family"].sizes[0])
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
        family = extra.get("family") or HypothesisFamily.single_outlier(m, kind == "null-single")
        scorer = Scorer(kind, family, 3, mu=self.MU3, pi=self.PI3)
        batched = scorer.scores(counts, 12)
        for b in range(len(counts)):
            assert np.array_equal(batched[b], scorer.scores(counts[b:b + 1], 12)[0])

    # the single-outlier cases come last so that the others keep their ids
    @pytest.mark.parametrize("kind,m,extra", [c for c in _kernel_cases() if "family" in c[2]]
                             + [c for c in _kernel_cases() if "family" not in c[2]])
    def test_combine_matches_per_column_loop(self, kind, m, extra, monkeypatch):
        # a loop over columns, with each kind's formula written out, gives
        # the kernel's bits, and neither the batch size nor the member
        # blocks change any of them
        rng = np.random.default_rng(m)
        counts = np.stack([rng.multinomial(12, rng.dirichlet(np.ones(3)), size=m)
                           for _ in range(20)])
        family = extra.get("family") or HypothesisFamily.single_outlier(m, kind == "null-single")
        scorer = Scorer(kind, family, 3, mu=self.MU3, pi=self.PI3)
        stats = scorer.row_stats(counts, 12)
        got = scorer.combine(stats)
        monkeypatch.setattr(detectors, "COMBINE_BLOCK", 7 * 20 * 3)  # 7 members a block
        assert np.array_equal(scorer.combine(stats), got)

        def entropies(p):
            return -xlogy(p, p).sum(axis=-1)

        rows = counts / 12
        ent = entropies(rows)
        d_mu = rel_entr(rows, self.MU3.probs).sum(axis=-1)
        d_pi = rel_entr(rows, self.PI3.probs).sum(axis=-1)
        total_pmf, total_ent, total_pi = rows.sum(axis=1), ent.sum(axis=1), d_pi.sum(axis=1)
        want = np.empty_like(got)
        for col, h in enumerate(scorer.hypotheses):
            inside = sorted(i - 1 for i in outlier_set(h))
            i, n_in, n_out = inside[0], len(inside), m - len(inside)
            if kind == "ml-single":
                want[:, col] = (d_mu[:, i] - d_pi[:, i]) + total_pi
            elif kind == "typ-single":
                want[:, col] = total_pi - d_pi[:, i]
            elif kind == "mu-only":
                want[:, col] = d_mu[:, i]
            elif kind == "typ-multi":
                want[:, col] = total_pi - d_pi[:, inside].sum(axis=1)
            elif kind in ("univ-single", "null-single"):
                want[:, col] = n_out * entropies((total_pmf - rows[:, i]) / n_out) - (
                    total_ent - ent[:, i])
            else:
                in_pmf, in_ent = rows[:, inside, :].sum(axis=1), ent[:, inside].sum(axis=1)
                score = n_out * entropies((total_pmf - in_pmf) / n_out) - (total_ent - in_ent)
                if "identical" in kind:
                    score = n_in * entropies(in_pmf / n_in) - in_ent + score
                want[:, col] = score
        assert np.array_equal(got, want)
        for b in (0, 7):
            assert np.array_equal(got[b], scorer.scores(counts[b:b + 1], 12)[0])


def _laws(k):
    """Full-support mu and pi on K letters, fixed per K."""
    rng = np.random.default_rng(100 + k)
    return Pmf(rng.dirichlet(np.ones(k))), Pmf(rng.dirichlet(np.ones(k)))


def _family(kind, m):
    """The family `_kernel_cases` gives a kind at M: T=2 subsets, sizes {1, 2}, or coordinates."""
    if kind in ("typ-multi", "univ-multi"):
        return HypothesisFamily.fixed_size(m, 2)
    if kind in ("identical-univ", "null-identical"):
        return HypothesisFamily.sized(m, [1, 2], include_null=kind == "null-identical")
    return HypothesisFamily.single_outlier(m, kind == "null-single")


KINDS = [kind.value for kind in DetectorKind]


class TestLetterMajorKernel:
    """The kernel's (K, M, batch) planes: sums over letters and members and the row totals."""

    # M=17 and M=50 put 8 or more rows in every row total; K=10 sums 8 or more letters
    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("m", [17, 50])
    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_entries_match_single_matrices(self, kind, m, k):
        rng = np.random.default_rng(m * k)
        counts = np.stack([rng.multinomial(12, rng.dirichlet(np.ones(k)), size=m)
                           for _ in range(6)])
        mu, pi = _laws(k)
        scorer = Scorer(kind, _family(kind, m), k, mu=mu, pi=pi)
        batched = scorer.scores(counts, 12)
        for b in range(len(counts)):
            assert np.array_equal(batched[b], scorer.scores(counts[b:b + 1], 12)[0])

    @pytest.mark.parametrize("m", [5, 9])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_reference_definition_at_k10(self, kind, m):
        rng = np.random.default_rng(m)
        data = np.stack([rng.choice(10, size=30, p=p) for p in rng.dirichlet(np.ones(10), size=m)])
        mu, pi = _laws(10)
        table = score_table(kind, ObservationMatrix(data, 10), mu=mu, pi=pi,
                            family=_family(kind, m))
        want = reference_scores(kind, data, 10, table.hypotheses, mu=mu, pi=pi)
        np.testing.assert_allclose(table.scores, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_non_contiguous_views_score_bit_equal(self, kind):
        rng = np.random.default_rng(5)
        counts = rng.multinomial(20, [0.2, 0.5, 0.3], size=(30, 9))
        mu, pi = _laws(3)
        scorer = Scorer(kind, _family(kind, 9), 3, mu=mu, pi=pi)
        want = scorer.scores(counts, 20)
        strided = np.zeros((30, 9, 6), dtype=np.int64)
        strided[..., ::2] = counts
        letter_major = np.ascontiguousarray(counts.T).T
        every_other_trial = np.repeat(counts, 2, axis=0)[::2]
        for view in (strided[..., ::2], letter_major, np.asfortranarray(counts), every_other_trial):
            assert not view.flags.c_contiguous
            assert np.array_equal(scorer.scores(view, 20), want)

    @pytest.mark.parametrize("counts", [
        np.array([[[1.5, 0.5], [2.0, 0.0], [0.0, 2.0]]]),
        np.array([[[1.0, 1.0], [2.0, 0.0], [0.0, 2.0]]]),  # whole values, float dtype
        np.array([[[True, True], [True, True], [True, True]]]),
    ])
    def test_refuses_counts_that_are_not_integers(self, counts):
        scorer = Scorer(DetectorKind.UNIV_SINGLE, HypothesisFamily.single_outlier(3), 2)
        with pytest.raises(ValidationError, match="counts must be integers"):
            scorer.scores(counts, 2)

    def test_member_sums_peak_is_result_plus_one_gather(self):
        rng = np.random.default_rng(3)
        rows = rng.random((2, 12, 200))  # (K, M, batch) planes
        cols = HypothesisFamily.fixed_size(12, 3).members[0]  # 220 members of 3 coordinates
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            got = detectors._member_sums(rows, cols, axis=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert got.shape == (2, 220, 200)
        assert peak <= 2 * got.nbytes + cols.nbytes
        want = rows[:, cols[:, 0]] + rows[:, cols[:, 1]]
        want += rows[:, cols[:, 2]]
        assert np.array_equal(got, want)
