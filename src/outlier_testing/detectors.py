"""Test statistics and decision rules for outlier coordinate identification.

Every statistic is a deterministic function of the per-coordinate
empirical distributions (gamma_1, ..., gamma_M).  Hypotheses name either
a single outlier coordinate, a subset of outlier coordinates, or the
null (no outlier).  Coordinates are numbered 1..M in hypothesis labels.

Every detector scores through one kernel (`Scorer`) that maps symbol
counts of shape (batch, M, K) to scores of shape (batch, H), so a detector
run on one matrix, the Monte Carlo simulator and the exact oracle compute
the same floating-point numbers for the same types.  Ties go to the
earliest hypothesis on equal kernel scores, where families are ordered by
outlier-set size and then lexicographically.
"""
from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np
from scipy.special import rel_entr, xlogy

from .errors import ValidationError, require, whole
from .simplex import Pmf

# ---------------------------------------------------------------------------
# Hypothesis identifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Coordinate:
    """Hypothesis: coordinate `index` (1-based) is the single outlier."""

    index: int

    def __post_init__(self):
        whole(self.index, "coordinate indices (1-based)", 1)

    def __str__(self):
        return f"coordinate {self.index}"


@dataclass(frozen=True)
class Subset:
    """Hypothesis: the coordinates in `members` (1-based) are the outliers."""

    members: tuple[int, ...]

    def __post_init__(self):
        m = tuple(sorted(whole(c, "subset members (1-based)", 1) for c in self.members))
        if not m or len(set(m)) != len(m):
            raise ValidationError("subset must be a nonempty set of 1-based coordinates")
        object.__setattr__(self, "members", m)

    @classmethod
    def _of_sorted(cls, members: tuple[int, ...]) -> "Subset":
        """The Subset of members already sorted, distinct and >= 1, built without re-checking."""
        h = object.__new__(cls)
        object.__setattr__(h, "members", members)
        return h

    def __str__(self):
        return "subset {" + ",".join(map(str, self.members)) + "}"


class _NullHypothesis:
    """Hypothesis: no outlier is present."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NULL"

    def __str__(self):
        return "null"


NULL = _NullHypothesis()

HypothesisId = Union[Coordinate, Subset, _NullHypothesis]


def outlier_set(h: HypothesisId) -> frozenset[int]:
    """The set of outlier coordinates named by a hypothesis."""
    if h is NULL:
        return frozenset()
    if isinstance(h, Coordinate):
        return frozenset((h.index,))
    return frozenset(h.members)


@dataclass(frozen=True)
class HypothesisFamily:
    """The hypotheses a test decides over: every size-k subset of {1..M} for each k in ``sizes``.

    Each size holds all of its subsets or none, so (M, sizes, include_null)
    describes the family completely; every size k satisfies 1 <= k < M/2.
    Ordering is size-ascending, then lexicographic, with the null hypothesis
    (if present) first, so the non-null members are
    ``hypotheses[include_null:]``.  ``members`` holds, per size, the (H_k, k)
    zero-based coordinates of that size's members in family order.
    ``hypotheses`` builds the hypothesis objects on first read: size-1
    members are ``Coordinate``s when 1 is the only size, ``Subset``s
    otherwise.  ``index_of`` ranks an outlier set, so ``Coordinate(i)`` and
    ``Subset((i,))`` name the same member.
    """

    m: int
    sizes: tuple[int, ...]
    include_null: bool = False

    def __post_init__(self):
        whole(self.m, "coordinate counts M")
        sizes = tuple(sorted({whole(t, "outlier-set sizes") for t in self.sizes}))
        if not sizes or sizes[0] < 1 or sizes[-1] >= self.m / 2:
            raise ValidationError(
                f"outlier-set sizes must be nonempty with 1 <= |S| < M/2, got {sizes} at M={self.m}")
        object.__setattr__(self, "sizes", sizes)

    @functools.cached_property
    def members(self) -> tuple[np.ndarray, ...]:
        out = []
        for k in self.sizes:
            h = math.comb(self.m, k)
            cols = np.fromiter(chain.from_iterable(combinations(range(self.m), k)),
                               dtype=np.int64, count=h * k).reshape(h, k)
            cols.setflags(write=False)
            out.append(cols)
        return tuple(out)

    @functools.cached_property
    def hypotheses(self) -> tuple[HypothesisId, ...]:
        if self.sizes == (1,):
            hyps = [Coordinate(i) for i in range(1, self.m + 1)]
        else:  # member rows come from `combinations`: sorted, distinct and in range
            hyps = [Subset._of_sorted(s) for cols in self.members
                    for s in map(tuple, (cols + 1).tolist())]
        return (NULL,) * self.include_null + tuple(hyps)

    def index_of(self, h: HypothesisId) -> int:
        """The position of h in family order, from O(|S|) binomials.

        Among the size-k subsets of {1..M}, c_1 < ... < c_k has
        sum_i C(M - c_i, k - i + 1) successors in lexicographic order (the
        combinatorial number system).
        """
        if h is NULL and self.include_null:
            return 0
        s = sorted(outlier_set(h))
        k = len(s)
        if k not in self.sizes or s[-1] > self.m:
            raise ValidationError(f"{h} is not in the family")
        before = self.include_null + sum(math.comb(self.m, j) for j in self.sizes if j < k)
        after = sum(math.comb(self.m - c, k - i) for i, c in enumerate(s))
        return before + math.comb(self.m, k) - 1 - after

    @classmethod
    @functools.lru_cache(maxsize=None, typed=True)  # typed: 7.0 is not the M=7 family
    def single_outlier(cls, m: int, include_null: bool = False) -> "HypothesisFamily":
        """Every single coordinate, NULL first when included; shared per (M, include_null)."""
        return cls(m, (1,), include_null)

    @classmethod
    def fixed_size(cls, m: int, t: int) -> "HypothesisFamily":
        if not 1 < t < m / 2:
            raise ValidationError(f"need 1 < T < M/2, got T={t}, M={m}")
        return cls(m, (t,))

    @classmethod
    def sized(cls, m: int, sizes, include_null: bool = False) -> "HypothesisFamily":
        return cls(m, tuple(sizes), include_null)


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------

#: the largest alphabet the one-byte-per-symbol binary format can hold
BINARY_MAX_K = 256
#: the most cells of the dense (M, K) count table an observation matrix may ask for
MAX_COUNT_CELLS = 1 << 24


def _one_digit_rows(blob: bytes) -> Optional[np.ndarray]:
    """The uint8 symbols of a file in the layout `to_csv` writes for K <= 10, else None.

    There every row is "d,d,...,d\\n", one ASCII digit per field and the same
    field count in every row, so the bytes reshape to (rows, 2 * fields):
    digits in the even columns, ',' in the odd ones and '\\n' in the last.
    """
    width = blob.find(b"\n") + 1
    if not width or len(blob) % width:
        return None
    b = np.frombuffer(blob, dtype=np.uint8).reshape(-1, width)
    symbols = b[:, ::2] - np.uint8(ord("0"))  # any byte below '0', '\n' too, wraps above 9
    seps = np.frombuffer(b"," * (width // 2 - 1) + b"\n", dtype=np.uint8)
    if (symbols > 9).any() or (b[:, 1::2] != seps).any():
        return None
    return symbols


class ObservationMatrix:
    """M coordinates by n samples of integer symbols in {0..K-1}.

    Symbols are whole numbers of any numeric dtype, checked on that dtype.
    ``counts`` holds the (M, K) symbol counts of the rows, which is all a
    detector reads; ``data`` is built from a copy of the input on first read.
    """

    def __init__(self, data, k: int):
        a = np.asarray(data)
        if a.dtype.kind not in "biuf":
            raise ValidationError(f"observation symbols must be numbers, got dtype {a.dtype}")
        if a.ndim != 2:
            raise ValidationError("observation data must be a 2-D array")
        m, n = a.shape
        if m < 3:
            raise ValidationError(f"need M >= 3 coordinates, got {m}")
        if n < 1:
            raise ValidationError("need at least one sample per coordinate")
        whole(k, "alphabet sizes K", 2)
        if m * k > MAX_COUNT_CELLS:
            raise ValidationError(f"M={m}, K={k} needs an (M, K) count table of {m * k} cells, "
                                  f"more than {MAX_COUNT_CELLS}")
        if a.dtype.kind == "f" and not (a == np.trunc(a)).all():
            raise ValidationError("symbols must be whole numbers")
        if a.min() < 0 or a.max() >= k:
            raise ValidationError(f"symbols must lie in 0..{k - 1}")
        self._symbols, self.k = a.copy(), k  # in the input dtype: `data` widens it when read
        # the one widening copy: each symbol's flat (row, symbol) cell, for one bincount
        cells = np.add(a, k * np.arange(m)[:, None], dtype=np.int64, casting="unsafe")
        self.counts = np.bincount(cells.ravel(), minlength=m * k).reshape(m, k)
        self.counts.setflags(write=False)

    @functools.cached_property
    def data(self) -> np.ndarray:
        """The (M, n) symbols, read-only int64."""
        a = self._symbols.astype(np.int64)
        a.setflags(write=False)
        return a

    @property
    def m(self) -> int:
        return self._symbols.shape[0]

    @property
    def n(self) -> int:
        return self._symbols.shape[1]

    # -- serialization ------------------------------------------------------

    def to_csv(self, path) -> None:
        np.savetxt(path, self._symbols, fmt="%d", delimiter=",")

    @classmethod
    def from_csv(cls, path, k: Optional[int] = None) -> "ObservationMatrix":
        """Comma-separated integers as `np.loadtxt` reads them; `to_csv`'s layout directly."""
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except (OSError, TypeError):  # np.loadtxt reports it, as it always has
            blob = b""
        a = _one_digit_rows(blob)
        if a is None:
            try:
                a = np.loadtxt(path, dtype=np.int64, delimiter=",", ndmin=2)
            except (ValueError, OSError) as exc:
                raise ValidationError(f"cannot read observation CSV: {exc}") from exc
        if k is None:
            k = int(a.max()) + 1 if a.size else 0
            k = max(k, 2)
        return cls(a, k)

    _BIN_MAGIC = b"OBSM"

    def to_binary(self, path) -> None:
        """Write the one-byte-per-symbol format; it holds alphabets up to BINARY_MAX_K."""
        if self.k > BINARY_MAX_K:
            raise ValidationError(
                f"the binary format stores one byte per symbol, so K <= {BINARY_MAX_K}; "
                f"got K={self.k}"
            )
        with open(path, "wb") as fh:
            fh.write(self._BIN_MAGIC)
            fh.write(struct.pack("<III", self.m, self.n, self.k))
            fh.write(self._symbols.astype(np.uint8).tobytes())

    @classmethod
    def from_binary(cls, path) -> "ObservationMatrix":
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read observation binary file: {exc}") from exc
        if len(blob) < 16 or blob[:4] != cls._BIN_MAGIC:
            raise ValidationError("not an observation binary file")
        m, n, k = struct.unpack("<III", blob[4:16])
        if k > BINARY_MAX_K:
            raise ValidationError(f"binary header declares K={k} > {BINARY_MAX_K}")
        body = np.frombuffer(blob[16:], dtype=np.uint8)
        if body.size != m * n:
            raise ValidationError("observation binary payload has wrong length")
        return cls(body.reshape(m, n), k)


# ---------------------------------------------------------------------------
# Score tables and decisions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Per-hypothesis test statistics in family order (smaller is better), read-only float64."""

    hypotheses: tuple[HypothesisId, ...]
    scores: np.ndarray

    def __post_init__(self):
        s = np.array(self.scores, dtype=np.float64)
        if s.ndim != 1 or not len(s) or len(s) != len(self.hypotheses):
            raise ValidationError("a score table needs one score per hypothesis, and one at least")
        if not np.isfinite(s).all():
            raise ValidationError("scores must be finite")
        s.setflags(write=False)
        object.__setattr__(self, "scores", s)

    @property
    def entries(self) -> tuple[tuple[HypothesisId, float], ...]:
        return tuple(zip(self.hypotheses, self.scores.tolist()))

    def spread(self) -> float:
        s = self.scores
        return float(s.max() - s.min())


def decide_batch(scores: np.ndarray, lam: Optional[float] = None) -> np.ndarray:
    """The decided column of each row of scores (..., H); -1 stands for NULL.

    The smallest score wins, and ties go to the earliest column.  With a
    threshold ``lam`` (the null-aware rule), a row whose spread (largest
    minus smallest score) does not exceed lam decides NULL.
    """
    best = scores.argmin(axis=-1)
    if lam is None:
        return best
    if not lam >= 0:
        raise ValidationError("lambda must be >= 0 and not NaN")
    spread = scores.max(axis=-1) - scores.min(axis=-1)
    return np.where(spread > lam, best, -1)


def decide(table: ScoreTable, lam: Optional[float] = None) -> HypothesisId:
    """The hypothesis with the smallest score; ties go to the earliest entry.

    With ``lam``, NULL unless the score spread exceeds lam.
    """
    col = int(decide_batch(table.scores, lam))
    return NULL if col < 0 else table.hypotheses[col]


def default_lambda(m: int, n: int, k: int) -> float:
    """Vanishing threshold 2(M-1) K ln(n+1)/n for the null-aware rules."""
    whole(m, "coordinate counts M", 3)
    whole(n, "sample sizes", 1)
    whole(k, "alphabet sizes K", 2)
    return 2.0 * (m - 1) * k * math.log(n + 1) / n


# ---------------------------------------------------------------------------
# Score kernel
# ---------------------------------------------------------------------------


class DetectorKind(str, Enum):
    ML_SINGLE = "ml-single"
    TYP_SINGLE = "typ-single"
    UNIV_SINGLE = "univ-single"
    MU_ONLY = "mu-only"
    NULL_SINGLE = "null-single"
    TYP_MULTI = "typ-multi"
    UNIV_MULTI = "univ-multi"
    IDENTICAL_UNIV = "identical-univ"
    NULL_IDENTICAL = "null-identical"


#: kinds that decide NULL when the score spread does not exceed lambda
NULL_AWARE_KINDS = frozenset({DetectorKind.NULL_SINGLE, DetectorKind.NULL_IDENTICAL})
_MU_KINDS = frozenset({DetectorKind.ML_SINGLE, DetectorKind.MU_ONLY})
_PI_KINDS = frozenset({DetectorKind.ML_SINGLE, DetectorKind.TYP_SINGLE, DetectorKind.TYP_MULTI})
_MULTI_KINDS = frozenset({DetectorKind.TYP_MULTI, DetectorKind.UNIV_MULTI})
_IDENTICAL_KINDS = frozenset({DetectorKind.IDENTICAL_UNIV, DetectorKind.NULL_IDENTICAL})


def null_threshold(
    kind: DetectorKind, lam: Optional[float], m: int, n: int, k: int
) -> Optional[float]:
    """The lambda a kind decides with: None for argmin kinds, else lam or the default."""
    if lam is not None and not lam >= 0:
        raise ValidationError("lambda must be >= 0 and not NaN")
    if DetectorKind(kind) not in NULL_AWARE_KINDS:
        return None
    return default_lambda(m, n, k) if lam is None else lam


class RowStats(NamedTuple):
    """Per-row statistics of count rows, letter-major: the rows' leading shape reversed.

    Rows (b, M, K) give ``pmf`` planes (K, M, b) and (M, b) arrays; types (T, K), (K, T) and (T,).
    Universal kinds fill ``pmf`` and ``ent``, known-law kinds ``key`` and
    ``d_pi`` (None when the kind holds no pi).  ``key`` is a row's own term
    in the scores of the members holding it: D(gamma||mu) - D(gamma||pi)
    for ml-single, -D(gamma||pi) for typ-single and typ-multi, and
    D(gamma||mu) for mu-only.
    """

    pmf: Optional[np.ndarray]  # (K, ...) empirical distributions gamma, one plane per letter
    ent: Optional[np.ndarray]  # H(gamma)
    key: Optional[np.ndarray]  # the row's own term, smaller is better
    d_pi: Optional[np.ndarray]  # D(gamma || pi)

    def take(self, idx: np.ndarray) -> "RowStats":
        """From per-type statistics, those of type tuples ``idx`` (b, M), laid out as (b, M) rows'."""
        return RowStats._make(None if a is None else a.take(idx.T, axis=-1) for a in self)


def _add_left(terms):
    """The sum of ``terms`` (a list, or letter planes (K, ...)), added left to right with broadcasting."""
    return sum(terms[1:], terms[0])


def _entropies(p: np.ndarray, out: Optional[np.ndarray] = None, weight: int = 1) -> np.ndarray:
    """weight times the entropies of the pmfs in letter planes p (K, ...); ``out=p`` overwrites p.

    The letter sum times -weight rounds as its negation times weight would.
    """
    return np.multiply(_add_left(xlogy(p, p, out=out)), -weight)


def _row_totals(a: np.ndarray) -> np.ndarray:
    """a (M, b) summed over M as numpy sums the rows of a (b, M): pairwise from 8 terms."""
    return a.sum(axis=0) if len(a) < 8 else np.ascontiguousarray(a.T).sum(axis=1)


def _check_law(law: Optional[Pmf], k: int, name: str, kind: DetectorKind) -> np.ndarray:
    if law is None:
        raise ValidationError(f"{kind.value} needs {name}")
    if law.size != k:
        raise ValidationError(f"{name} has alphabet size {law.size}, observations have K={k}")
    if not law.full_support():
        raise ValidationError(f"{name} must have full support")
    return law.probs


#: floats in one block of gathered member pmfs (batch x members x K) in the
#: combine step.  It bounds that block, not the step's memory: the block's
#: working set (the gathered pmfs, a gather temporary, their mixture, the
#: entropy sums and the score rows) is four to five times as large, about
#: 75 MB beside the output at univ-multi M=300, T=2, K=2, batch 174.
COMBINE_BLOCK = 1 << 21


def _member_sums(a: np.ndarray, cols: np.ndarray, axis: int = 0) -> np.ndarray:
    """Each member's sum of a over its coordinates cols (H, k) along ``axis``, in index order."""
    acc = a.take(cols[:, 0], axis=axis)
    gather = np.empty_like(acc) if cols.shape[1] > 1 else None
    for j in range(1, cols.shape[1]):
        acc += a.take(cols[:, j], axis=axis, out=gather, mode="clip")  # "raise" copies to out
    return acc


class Scorer:
    """The score kernel of one detector over a hypothesis family.

    Maps symbol counts (batch, M, K) of n samples per row to scores
    (batch, H), one column per non-null member of ``family`` in family
    order; smaller is better.  It runs in two stages: per-row statistics
    (`row_stats`), then a combine step over hypotheses (`combine`), so that
    a caller holding the statistics of every type can gather them by index.
    The family must fit the kind: single coordinates for the single-outlier
    kinds, one size T > 1 for the multi kinds, any sizes for the
    identical kinds, and NULL exactly for the null-aware kinds.

    * ml-single: D(gamma_i||mu) + sum_{j!=i} D(gamma_j||pi)
    * typ-single: sum_{j!=i} D(gamma_j||pi);  mu-only: D(gamma_i||mu)
    * typ-multi: sum_{j not in S} D(gamma_j||pi)
    * univ-single, null-single, univ-multi: the dispersion of the rows
      outside S, sum_{j not in S} D(gamma_j||mix), mix their mean
    * identical-univ, null-identical: the dispersion inside S plus the
      dispersion outside S

    The combine step has one formula per law family.  A kind that holds a
    law (mu or pi) scores S as the sum of its members' `RowStats` keys plus
    the row's sum_j D(gamma_j||pi) when it holds pi.  A kind that holds
    neither scores dispersions by the entropy identity sum_{j in J}
    D(gamma_j||mix_J) = |J| H(mix_J) - sum_{j in J} H(gamma_j).  Members
    are summed in index order.  Statistics are letter-major (`RowStats`),
    (K, M, batch) planes, so sums over letters and members are vector adds
    over a leading axis, left to right like each letter's M-sum of pmfs;
    the row totals keep numpy's (batch, M) row rule (`_row_totals`).  So
    every batch entry goes through the same floating-point operations
    whatever the batch size.
    """

    def __init__(
        self,
        kind: DetectorKind,
        family: HypothesisFamily,
        k: int,
        *,
        mu: Optional[Pmf] = None,
        pi: Optional[Pmf] = None,
    ):
        kind = DetectorKind(kind)
        whole(k, "alphabet sizes K", 2)
        self.mu = _check_law(mu, k, "mu", kind) if kind in _MU_KINDS else None
        self.pi = _check_law(pi, k, "pi", kind) if kind in _PI_KINDS else None
        if family.include_null and kind not in NULL_AWARE_KINDS:
            raise ValidationError(
                f"{kind.value} never decides the null hypothesis; drop it from the family")
        if kind in NULL_AWARE_KINDS and not family.include_null:
            raise ValidationError(f"{kind.value} decides the null hypothesis; add it to the family")
        if kind in _MULTI_KINDS and (len(family.sizes) != 1 or family.sizes[0] < 2):
            raise ValidationError(f"{kind.value} needs a family of one outlier-set size T > 1")
        if kind not in _MULTI_KINDS and kind not in _IDENTICAL_KINDS and family.sizes != (1,):
            raise ValidationError(f"{kind.value} needs a family of single coordinates")
        self.kind = kind
        self.family = family
        self.m = family.m
        self.identical = kind in _IDENTICAL_KINDS

    @functools.cached_property
    def hypotheses(self) -> tuple[HypothesisId, ...]:
        """The hypothesis of each score column."""
        return self.family.hypotheses[self.family.include_null:]

    def column(self, h: HypothesisId) -> int:
        """The score column of family member h, or -1 for NULL."""
        return self.family.index_of(h) - self.family.include_null  # NULL's index is 0

    def row_stats(self, counts: np.ndarray, n: int) -> RowStats:
        """Letter-major statistics (`RowStats`) of count rows (..., K) of n samples each."""
        p = np.divide(counts.T, n, order="C")
        if self.mu is None and self.pi is None:
            return RowStats(p, _entropies(p), None, None)
        planes = (-1,) + (1,) * (p.ndim - 1)
        d_pi = None if self.pi is None else _add_left(rel_entr(p, self.pi.reshape(planes)))
        if self.mu is None:
            return RowStats(None, None, -d_pi, d_pi)
        key = _add_left(rel_entr(p, self.mu.reshape(planes)))
        return RowStats(None, None, key if d_pi is None else key - d_pi, d_pi)

    def combine(self, stats: RowStats) -> np.ndarray:
        """Scores (batch, H) from the statistics of rows (batch, M): (K, M, batch) planes."""
        if stats.key is not None:
            score = _member_sums(stats.key, self.family.members[0])
            if stats.d_pi is not None:
                score += _row_totals(stats.d_pi)
            return np.ascontiguousarray(score.T)
        rows, ent = stats.pmf, stats.ent
        # each letter's M-sum runs left to right on a coordinate-major copy, even at batch 1
        total_pmf = np.ascontiguousarray(rows.transpose(1, 0, 2)).sum(axis=0)[:, None, :]
        total_ent = _row_totals(ent)
        step = max(1, COMBINE_BLOCK // (rows.shape[0] * rows.shape[2]))
        out = np.empty((rows.shape[2], sum(map(len, self.family.members))))
        col = 0
        for members in self.family.members:
            n_in, n_out = members.shape[1], self.m - members.shape[1]
            for lo in range(0, len(members), step):
                cols = members[lo:lo + step]
                in_pmf, in_ent = _member_sums(rows, cols, axis=1), _member_sums(ent, cols)
                mix = total_pmf - in_pmf
                mix /= n_out
                score = out[:, col:col + len(cols)].T
                np.subtract(_entropies(mix, out=mix, weight=n_out), total_ent - in_ent, out=score)
                if self.identical:
                    in_pmf /= n_in
                    score += _entropies(in_pmf, out=in_pmf, weight=n_in) - in_ent
                col += len(cols)
        return out

    def scores(self, counts: np.ndarray, n: int) -> np.ndarray:
        """Scores (batch, H) of integer count tensors (batch, M, K) of n samples per row."""
        counts = np.asarray(counts)
        require(counts.dtype.kind in "iu", "symbol counts must be integers")
        return self.combine(self.row_stats(counts, whole(n, "sample sizes", 1)))


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def family_for(
    kind: DetectorKind,
    m: int,
    t: Optional[int] = None,
    sizes: Optional[Sequence[int]] = None,
) -> HypothesisFamily:
    """The hypothesis family a kind decides over on M coordinates.

    Multi-outlier kinds take the size-T subsets and identical-outlier kinds
    the subsets of the given sizes; the others take every coordinate.  The
    null-aware kinds put NULL first.  A missing T or sizes is named with
    its command-line flag.
    """
    kind = DetectorKind(kind)
    if kind in _MULTI_KINDS:
        require(t is not None, f"{kind.value} needs the outlier-set size T (--t)")
        return HypothesisFamily.fixed_size(m, t)
    if kind in _IDENTICAL_KINDS:
        require(sizes is not None, f"{kind.value} needs the outlier-set sizes (--sizes)")
        return HypothesisFamily.sized(m, sizes, include_null=kind is DetectorKind.NULL_IDENTICAL)
    return HypothesisFamily.single_outlier(m, include_null=kind is DetectorKind.NULL_SINGLE)


def score_table(
    kind: DetectorKind,
    obs: ObservationMatrix,
    *,
    mu: Optional[Pmf] = None,
    pi: Optional[Pmf] = None,
    family: Optional[HypothesisFamily] = None,
) -> ScoreTable:
    """The score table of any detector kind on one observation matrix.

    Null-aware kinds score the non-null hypotheses; ``family`` may include
    NULL for them.  ``family`` defaults to `family_for` the kind, which the
    multi-outlier and identical-outlier kinds cannot do without T or sizes.
    """
    kind = DetectorKind(kind)
    if family is None:
        family = family_for(kind, obs.m)
    require(family.m == obs.m, "family and observations disagree on M")
    scorer = Scorer(kind, family, obs.k, mu=mu, pi=pi)
    return ScoreTable(scorer.hypotheses, scorer.scores(obs.counts[None], obs.n)[0])


def run_detector(
    kind: DetectorKind,
    obs: ObservationMatrix,
    *,
    mu: Optional[Pmf] = None,
    pi: Optional[Pmf] = None,
    family: Optional[HypothesisFamily] = None,
    lam: Optional[float] = None,
) -> HypothesisId:
    """Score and decide in one step; null-aware kinds use the lambda threshold."""
    table = score_table(kind, obs, mu=mu, pi=pi, family=family)
    return decide(table, null_threshold(kind, lam, obs.m, obs.n, obs.k))
