"""Exact error probabilities from per-coordinate type classes.

Because every detector is a function of the per-coordinate empirical
distributions alone, the exact finite-sample error probability is a sum
over M-tuples of types, weighted by exact type-class probabilities.
This replaces asymptotic claims with ground-truth finite-n numbers.

Two routes compute it, and each result names the one it took.  Known-law
kinds that rank the kernel's per-type `RowStats.key` (ml-single,
typ-single, mu-only, and typ-multi at T=2) decide the T coordinates of best
key when a floating-point certificate shows that the kernel does too.  The
error is then one order-statistics sum over the last decided coordinate and
its key of binomial and Poisson-binomial counts of the coordinates ranked
before it (`_order_errors`), in O(M T^2 x distinct keys) per truth.  Every
other case enumerates the type tuples in chunks and decides every tuple
exactly as the detector run on a matrix with those types does.  A chunk is
a run of radix blocks (a few leading types, times every type of the
others), and keys are broadcast over them (`_block_keys`) with no per-tuple
indices: each is the kernel's score up to a term every hypothesis shares,
for known-law kinds the members' key sums, for universal kinds read from
entropy tables of pooled integer counts.  Rounding certificates
(`_sum_slack`, `_key_slack`) show that keys farther apart than a slack rank
as the scores do; tuples whose best two keys, or whose key spread and
lambda, lie within it go to the kernel, so ties are the kernel's too.
Probabilities accumulate in log space.  A full-sequence brute force (all
K^(Mn) raw sequences, each run through `run_detector`) cross-checks both
routes and the type-class weights at tiny sizes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations, product
from typing import Iterator, Optional, Sequence, Union

import numpy as np
from scipy.special import comb, entr, gammaln

from .detectors import (
    NULL,
    DetectorKind,
    HypothesisFamily,
    HypothesisId,
    ObservationMatrix,
    Scorer,
    decide_batch,
    null_threshold,
    outlier_set,
    run_detector,
)
from .errors import EnumerationCapError, ValidationError, require
from .simplex import Pmf, TypeVector, _log_sum_exp, entropy, kl

DEFAULT_TUPLE_CAP = 10**8
DEFAULT_CHUNK = 1 << 18  # type tuples scored per kernel call
KEY_BUDGET = 1 << 22  # keys (H x tuples) in one chunk: 32 MB, about twice that at peak

LawSpec = Union[Pmf, Sequence[Pmf], None]


# ---------------------------------------------------------------------------
# Type classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeClassTable:
    """All compositions of n into K parts, with log multinomial multiplicities."""

    n: int
    k: int
    counts: np.ndarray  # (T, K) integers
    log_multiplicity: np.ndarray  # (T,)

    @property
    def size(self) -> int:
        return self.counts.shape[0]


def enumerate_types(n: int, k: int, cap: int = DEFAULT_TUPLE_CAP) -> TypeClassTable:
    """Enumerate the C(n+K-1, K-1) empirical types of length-n sequences."""
    if n < 1 or k < 2:
        raise ValidationError("need n >= 1 and K >= 2")
    require(cap >= 1, f"the cap must be at least 1, got {cap}")
    total = math.comb(n + k - 1, k - 1)
    if total > cap:
        raise EnumerationCapError(f"{total} types exceeds cap {cap}")
    # stars and bars: K-1 bar positions among n+K-1 slots, reversed so that
    # the first count runs from n down to 0
    slots = n + k - 1
    bars = np.fromiter(chain.from_iterable(combinations(range(slots), k - 1)),
                       dtype=np.int64, count=total * (k - 1)).reshape(total, k - 1)[::-1]
    rows = np.diff(bars, axis=1, prepend=-1, append=slots) - 1
    log_mult = gammaln(n + 1) - gammaln(rows + 1).sum(axis=1)
    return TypeClassTable(n, k, rows, log_mult)


def type_log_prob(t: TypeVector, p: Pmf) -> float:
    """Exact log probability that an i.i.d. p-sequence lands in t's type class."""
    if t.counts.size != p.size:
        raise ValidationError("type and pmf alphabets differ")
    with np.errstate(divide="ignore"):
        terms = np.where(t.counts > 0, t.counts * np.log(p.probs), 0.0)
    if np.any(np.isneginf(terms)):
        raise ValidationError("type puts mass outside the support of p")
    log_mult = float(gammaln(t.n + 1) - gammaln(t.counts + 1).sum())
    return log_mult + float(terms.sum())


def type_log_prob_via_divergence(t: TypeVector, p: Pmf) -> float:
    """The same quantity via the exponent identity -n (D(gamma||p) + H(gamma))."""
    gamma = t.to_pmf()
    log_mult = float(gammaln(t.n + 1) - gammaln(t.counts + 1).sum())
    return log_mult - t.n * (kl(gamma, p) + entropy(gamma))


# ---------------------------------------------------------------------------
# Laws per coordinate
# ---------------------------------------------------------------------------


def coordinate_laws(truth: HypothesisId, m: int, mus: LawSpec, pi: Pmf) -> list[Pmf]:
    """The generating law of each coordinate under a truth hypothesis.

    ``mus`` is a single pmf (identically distributed outliers), a
    sequence of M per-coordinate outlier laws, or None when the truth is
    the null hypothesis.
    """
    require(pi is not None, "the typical law pi is required")
    if mus is not None and not isinstance(mus, Pmf):
        require(len(mus) == m, f"need one outlier law per coordinate: got {len(mus)}, M={m}")
    outliers = outlier_set(truth)
    if outliers and max(outliers) > m:
        raise ValidationError("truth names a coordinate beyond M")
    laws = []
    for i in range(1, m + 1):
        if i in outliers:
            if mus is None:
                raise ValidationError("outlier truth requires outlier laws")
            laws.append(mus if isinstance(mus, Pmf) else mus[i - 1])
        else:
            laws.append(pi)
    return laws


# ---------------------------------------------------------------------------
# Decisions over tuples of types
# ---------------------------------------------------------------------------


def tuple_decisions(
    scorer: Scorer,
    table: TypeClassTable,
    lam: Optional[float] = None,
    chunk: int = DEFAULT_CHUNK,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Decide every ordered M-tuple of types, in radix order, a chunk at a time.

    Yields (type indices (b, M), decided score columns (b,), -1 for NULL):
    `_block_decisions` with every tuple's indices spelled out.  ``lam`` is
    the null-aware threshold, None for argmin kinds.
    """
    stats = scorer.row_stats(table.counts, table.n)
    start = 0
    for _, _, decision in _block_decisions(scorer, table, stats, lam, chunk):
        yield _type_indices(start + np.arange(decision.size), table.size, scorer.m), decision
        start += decision.size


def _type_indices(flat: np.ndarray, n_types: int, m: int) -> np.ndarray:
    """Type indices (b, m), C-ordered like count rows, of the tuples at radix positions ``flat``."""
    return flat[:, None] // n_types ** np.arange(m - 1, -1, -1, dtype=np.int64) % n_types


def _block_decisions(scorer: Scorer, table: TypeClassTable, stats, lam: Optional[float],
                     chunk: int) -> Iterator[tuple[np.ndarray, int, np.ndarray]]:
    """Decide every tuple of types, a chunk at a time, on radix blocks.

    A chunk holds ``chunk`` tuples, or fewer when H keys per tuple would
    pass KEY_BUDGET.  In radix order a block of T^tail consecutive tuples
    shares its first M - tail coordinates (its head); tail < M is the
    largest with T^(tail+1) <= chunk / 8.  A chunk starts ``lo`` tuples
    into the blocks of heads ``head_idx`` (rows, M - tail); each yield is
    (head_idx, lo, decided columns (b,), -1 for NULL).  ``stats`` are the
    kernel's statistics of every type.  Only near tuples get type indices
    and go to the kernel (`_key_decisions`): those with a close key that is
    not a bit-equal known-law minimum, or a key spread close to lam, and
    every tuple when `_block_keys` has no keys.
    """
    if lam is not None and not lam >= 0:
        raise ValidationError("lambda must be >= 0 and not NaN")
    m, n_types = scorer.m, table.size
    chunk = max(1, min(chunk, KEY_BUDGET // sum(map(len, scorer.family.members))))
    tail = 0
    while tail < m - 1 and n_types ** (tail + 1) <= chunk // 8:
        tail += 1
    block = n_types**tail
    keys = _block_keys(scorer, table, stats, tail)
    exact = stats.key is not None
    slack = _sum_slack(scorer, stats) if exact else _key_slack(m, table.n, table.k)

    total = n_types**m
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        heads = np.arange(start // block, (stop - 1) // block + 1, dtype=np.int64)
        head_idx = _type_indices(heads, n_types, m - tail)
        lo = start - heads[0] * block
        if keys is None:
            decision, near = np.empty(stop - start, dtype=np.int64), np.ones(stop - start, bool)
        else:
            decision, near = _key_decisions(keys(head_idx)[:, lo:lo + stop - start], slack, lam,
                                            exact)
        if near.any():
            idx = _type_indices(start + np.flatnonzero(near), n_types, m)
            decision[near] = decide_batch(scorer.combine(stats.take(idx)), lam)
        yield head_idx, lo, decision


def _key_decisions(key: np.ndarray, slack: float, lam: Optional[float], exact: bool):
    """Decisions (b,) from keys (H, b), and which of them the kernel must make instead.

    Those are the tuples with two keys within ``slack`` of the smallest or,
    with a threshold ``lam``, whose key spread lies within it of lam.
    ``exact`` keys (known-law sums) that are bit-equal score bit-equal, so
    there only a close key that differs from the smallest makes a tuple near.
    """
    low = key.min(axis=0)
    close = key <= low + slack
    near = (close & (key != low)).any(axis=0) if exact else close.sum(axis=0) > 1
    # the first close column, by a reduce over axis 0: the decision wherever not near
    first = np.arange(len(key), 0, -1, dtype=np.int32)[:, None] * close
    decision = len(key) - first.max(axis=0)
    if lam is not None:
        spread = key.max(axis=0) - low
        near |= np.abs(spread - lam) <= slack
        decision = np.where(spread > lam, decision, -1)
    return decision, near


def _add_left(terms: list):
    """The sum of ``terms``, added left to right with broadcasting."""
    return sum(terms[1:], terms[0])


def _on_block(values: Sequence[np.ndarray], head_idx: np.ndarray) -> list[np.ndarray]:
    """Per-type arrays ``values`` (T,), one per coordinate, laid over radix blocks.

    The blocks of heads ``head_idx`` (rows, p) span (rows, T, ..., T), with
    M - p tail axes: a head coordinate's values are gathered per head, a
    tail coordinate's are its array along its own axis.  So a sum over some
    coordinates varies only along their axes, and no tuple's indices are
    formed.
    """
    m, p = len(values), head_idx.shape[1]
    heads = [a[idx].reshape((-1,) + (1,) * (m - p)) for a, idx in zip(values, head_idx.T)]
    return heads + [values[j].reshape((-1,) + (1,) * (m - 1 - j)) for j in range(p, m)]


def _block_keys(scorer: Scorer, table: TypeClassTable, stats, tail: int):
    """Keys of the tuples in radix blocks, or None to score every tuple with the kernel.

    ``keys(head_idx)`` gives keys (H, rows x T^tail) of the blocks of heads
    ``head_idx`` (rows, M - tail), summed from per-type arrays `_on_block` lays.

    Known-law kinds get each member's sum of `RowStats.key` in index
    order, bit for bit the kernel's score before it adds the row's d_pi
    sum, which every hypothesis shares: the kernel re-decides only tuples
    with a close key that differs from the smallest.  Universal kinds get
    pooled-count keys, which may tie where kernel scores do not, so it
    re-decides every tuple with two close keys.  A pool of s coordinates
    with n samples each has integer counts c summing to n s, and the
    kernel's mixture of the pool is c / (n s).  With per-type codes sum_k
    c_k B^k over the first K-1 counts, B = n (M-1) + 1, a pool's code is the
    integer sum of its members' codes (codes are linear, and no pooled count
    reaches B), and ``tab[s][code]`` holds s H(c / (n s)), built once per
    pool size from ``enumerate_types(n s, K)``.  Against the kernel's
    dispersions these keys drop sum_j H(gamma_j), which every hypothesis
    shares:

    * univ-single, null-single, univ-multi: tab[M-|S|][Sigma - c_S] + sum_{j in S} H(gamma_j)
    * identical-univ, null-identical: tab[M-|S|][Sigma - c_S] + tab[|S|][c_S]

    Sigma - c_S sums the codes outside S, so its table term is gathered on
    a grid with S's axes collapsed; the member terms vary along S's axes
    alone.  Members add in index order, then the table term.  Returns None
    when a table would pass ROUTE_MAX_TERMS entries.
    """
    m, n, k, grid = scorer.m, table.n, table.k, (table.size,) * tail
    members = [cols for group in scorer.family.members for cols in group.tolist()]

    if stats.key is not None:
        def keys(head_idx: np.ndarray) -> np.ndarray:
            out = np.empty((len(members), len(head_idx)) + grid)
            key = _on_block([stats.key] * m, head_idx)
            for score, cols in zip(out, members):
                score[...] = _add_left([key[j] for j in cols])
            return out.reshape(len(members), -1)

        return keys

    identical = scorer.identical
    base = n * (m - 1) + 1
    sizes = scorer.family.sizes
    pools = {m - t for t in sizes} | (set(sizes) if identical else set())
    lengths = {s: 1 + n * s * sum(base**j for j in range(k - 1)) for s in pools}
    if max(lengths.values()) > ROUTE_MAX_TERMS:
        return None
    powers = base ** np.arange(k - 1, dtype=np.int64)
    code = table.counts[:, :-1] @ powers
    tab = {}
    for s in pools:
        pooled = enumerate_types(n * s, k).counts
        tab[s] = np.zeros(lengths[s])
        tab[s][pooled[:, :-1] @ powers] = s * entr(pooled / (n * s)).sum(axis=1)

    def keys(head_idx: np.ndarray) -> np.ndarray:
        out = np.empty((len(members), len(head_idx)) + grid)
        codes = _on_block([code] * m, head_idx)
        ents = None if identical else _on_block([stats.ent] * m, head_idx)
        for key, cols in zip(out, members):
            outside = tab[m - len(cols)][_add_left([codes[j] for j in range(m) if j not in cols])]
            inside = _add_left([(codes if identical else ents)[j] for j in cols])
            np.add(outside, tab[len(cols)][inside] if identical else inside, out=key)
        return out.reshape(len(members), -1)

    return keys


def _sum_slack(scorer: Scorer, stats) -> float:
    """How far apart known-law key sums must be for the kernel to order them alike.

    The kernel scores S as fl(a_S + R): a_S is its members' `RowStats.key`
    summed in index order, R the row's float d_pi sum, which every column
    shares.  Rounding is monotone, so adding R never reverses sums a < b;
    it merges them only if b - a <= u (|a + R| + |b + R|), u = eps/2.  With
    T the largest member size, |a| <= T max|key| (1 + T u) and |R| <= M max
    d_pi (1 + M u), so that is about eps (T max|key| + M max d_pi).  Four
    times it also covers rounding the comparison.  mu-only holds no pi:
    its scores are the sums, and its slack is 0.
    """
    if stats.d_pi is None:
        return 0.0
    key = np.abs(stats.key).max()
    return 4 * np.finfo(float).eps * (max(scorer.family.sizes) * key + scorer.m * stats.d_pi.max())


def _key_slack(m: int, n: int, k: int) -> float:
    """How far apart pooled keys must be for the kernel to order them alike.

    Write u = eps/2 and L = 2 + ln(n M K).  The kernel's score of S is its
    key minus the row-entropy sum (one float shared by every column of a
    row) plus a rounding error e_S, and |e_S| <= B = eps M (2M + K + 8) L:

    * Pool mixtures.  Each row pmf entry c/n is off by at most u of itself,
      and the kernel sums the M rows in index order, so a pool's float
      mixture q' differs from c / (n s) by sum_k |q'_k - q_k| <= (2M + 3) u
      M / s.  A zero pooled count stays exactly 0: adding zeros is exact,
      so the total and the in-pool sum are the same float.  A nonzero q_k
      is at least 1/(n s), where -x ln x has slope at most 1 + ln(2 n M)
      (for n M^2 far below 1/eps), so s |H(q') - H(q)| <= (2M + 3) u M
      (1 + ln(2 n M)).
    * Evaluating xlogy and its K-term sum costs at most (K + 1) u of
      H <= ln K, in the kernel and in the tables, times s <= M.
    * At most M + 10 further roundings (sums of row entropies inside S,
      products by s, the combine step's adds, the key's own adds) each
      cost u of a magnitude <= M ln K.  A key sums its |S| member entropies
      and adds the table term: |S| roundings, as when added one at a time.

    So when the best two keys are more than 2B apart the kernel's argmin
    is the key's, and when a null-aware kind's key spread is more than 3B
    from lam (the spreads differ by 2B plus a rounding of each
    subtraction) the kernel's spread lies on the same side.  The slack is
    3B, or 1e-9 M ln K (no key exceeds M ln K) when that is larger; keys
    that tie in exact arithmetic differ by far less, so the kernel decides
    every tie.
    """
    bound = np.finfo(float).eps * m * (2 * m + k + 8) * (2 + math.log(n * m * k))
    return max(3 * bound, 1e-9 * max(1.0, m * math.log(k)))


# ---------------------------------------------------------------------------
# Exact error probabilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorProbability:
    prob: float
    log_prob: float
    route: str  # "per-coordinate" or "enumeration"


def _log_type_probs(table: TypeClassTable, law: Pmf) -> np.ndarray:
    """Log probability (T,) of each type class under an i.i.d. law."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(table.counts > 0, table.counts * np.log(law.probs)[None, :], 0.0)
    return table.log_multiplicity + terms.sum(axis=1)


def _errors(kind, family, truths, n, k, mus, pi, *, mu=None, lam=None,
            cap=DEFAULT_TUPLE_CAP) -> dict[HypothesisId, ErrorProbability]:
    """Exact error of each truth, by the per-coordinate route when it is certified.

    Otherwise one pass over the type tuples serves every truth: a tuple's
    decision does not depend on the truth, only its weight does, so every
    chunk is scored and decided once and then weighted per truth.
    """
    m = family.m
    if mu is None and isinstance(mus, Pmf):
        mu = mus
    scorer = Scorer(kind, family, k, mu=mu, pi=pi)
    truth_cols = [scorer.column(truth) for truth in truths]  # validates membership
    laws = [coordinate_laws(truth, m, mus, pi) for truth in truths]
    require(all(law.size == k for row in laws for law in row),
            "generating laws must be pmfs on the K-letter alphabet")
    table = enumerate_types(n, k, cap=cap)
    lam = null_threshold(kind, lam, m, n, k)
    stats = scorer.row_stats(table.counts, n)
    ranking = _ranking(scorer, stats)
    if ranking is None and table.size**m > cap:
        raise EnumerationCapError(f"{table.size**m} type tuples exceeds cap {cap}")

    # the log probability of each type under each distinct generating law,
    # and for each truth the law row of every coordinate
    distinct = {id(law): law for row in laws for law in row}
    row_of = {key: i for i, key in enumerate(distinct)}
    law_idx = np.array([[row_of[id(law)] for law in row] for row in laws])
    log_rows = np.stack([_log_type_probs(table, law) for law in distinct.values()])
    if not np.all(np.isfinite(log_rows)):
        raise ValidationError("a generating law lacks support for some type")

    if ranking is not None:
        route = "per-coordinate"
        members = np.array([sorted(outlier_set(truth)) for truth in truths]) - 1
        log_errs = _order_errors(*ranking, log_rows, law_idx, members)
    else:
        route = "enumeration"
        log_errs = _enumerated_errors(scorer, table, stats, lam, log_rows, law_idx, truth_cols)
    return {truth: ErrorProbability(min(math.exp(e), 1.0), e, route)
            for truth, e in zip(truths, log_errs)}


# ---------------------------------------------------------------------------
# Enumeration route
# ---------------------------------------------------------------------------


def _enumerated_errors(scorer, table, stats, lam, log_rows, law_idx, truth_cols) -> list[float]:
    """Log error of each truth: log-sum-exp of wrong-decision tuple weights, chunk by chunk.

    Chunks of DEFAULT_CHUNK tuples are decided on radix blocks (`_block_decisions`).
    A tuple's log weight sums its types' log probabilities left to right at
    every M, laid over each block like its keys (`_on_block`).
    """
    pieces: list[list[float]] = [[] for _ in truth_cols]
    for head_idx, lo, decision in _block_decisions(scorer, table, stats, lam, DEFAULT_CHUNK):
        for rows, col, acc in zip(law_idx, truth_cols, pieces):
            wrong = decision != col
            if wrong.any():
                weights = _add_left(_on_block(log_rows[rows], head_idx)).ravel()
                acc.append(_log_sum_exp(weights[lo:lo + decision.size][wrong]))
    return [float(_log_sum_exp(np.array(acc))) if acc else -math.inf for acc in pieces]


# ---------------------------------------------------------------------------
# Per-coordinate route
# ---------------------------------------------------------------------------

#: the per-coordinate route holds about a dozen (M, distinct keys) float arrays
#: (100 MB at T=1, 230 MB at T=2 at this limit); above it the oracle enumerates
ROUTE_MAX_TERMS = 1 << 21


def _ranking(scorer: Scorer, stats) -> Optional[tuple[np.ndarray, np.ndarray, int]]:
    """How a known-law kind ranks types, when its exact error factors over coordinates.

    ``stats`` are the kernel's statistics of every type.  A known-law kind
    whose members have T <= 2 coordinates (ml-single, typ-single, mu-only,
    typ-multi at T=2) decides the T coordinates of best `RowStats.key`, the
    earliest index first among equal keys; smaller is better.  Returns
    (types sorted by key, stably; start of each run of equal keys; T), or
    None for the enumeration: universal kinds hold no key.

    Certificate that the kernel decides as the keys do, tie for tie.  The
    kernel scores a member by its key (at T=2, fl(key_a + key_b)) plus the
    row's d_pi sum, with monotone roundings, so equal keys (at T=2, equal
    key pairs) score bit-equal and a better key never scores worse.  Only
    comparisons with the winner matter.  If g is the smallest gap between
    distinct keys, every other coordinate (at T=2, every pair but the top
    two) has a key (key sum) at least g worse, because such a pair holds a
    key at least g worse than its rank counterpart; at T=2 the float pair
    sums are off by at most eps max|key| each.  The route asks g >
    `_sum_slack`, so those scores stay strictly in order.  Keys that tie in
    exact arithmetic but come out an ulp apart fail it.  T >= 3 never takes
    the route: the kernel adds members in index order, so subsets holding
    the same keys can score an ulp apart.
    """
    key, t_size = stats.key, scorer.family.sizes[0]
    if key is None or t_size > 2:
        return None
    slack = _sum_slack(scorer, stats)
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    if starts.size > 1 and np.diff(ranked[starts]).min() <= slack:
        return None
    if scorer.m * starts.size > ROUTE_MAX_TERMS:
        return None
    return order, starts, t_size


#: elements of each (t, truths, M, keys) array `_order_errors` holds at once
SCAN_BLOCK = 1 << 16


def _order_errors(order, starts, t, log_rows, law_idx, truth_members) -> list[float]:
    """Log error of each truth whose decision D is the first t coordinates in (key, index) order.

    ``order``/``starts`` rank the types by key (`_ranking`), ``law_idx`` (H, M)
    holds each truth's law row per coordinate, ``truth_members`` (H, t) its
    members S, zero-based.  j comes before (v, w) when key_j < v, or key_j = v
    and j < w; D ends at w with key v when exactly t - 1 others do, and D != S
    unless w is in S and no non-member does.  Given (v, w) those counts are
    independent: binomial for the non-members (i.i.d. pi) below w and above
    it, Poisson-binomial for the members.  So log P(D != S) is a logsumexp
    over (w, v) of log P(key_w = v) plus a log convolution of the counts, cut
    at t - 1: nothing is subtracted.
    """
    at = np.logaddexp.reduceat(log_rows[:, order], starts, axis=1)  # log P(key = v)
    le = np.logaddexp.accumulate(at, axis=1)
    ge = np.logaddexp.accumulate(at[:, ::-1], axis=1)[:, ::-1]
    ninf = np.full((len(at), 1), -np.inf)
    lt, gt = np.hstack([ninf, le[:, :-1]]), np.hstack([ge[:, 1:], ninf])
    m = law_idx.shape[1]
    coords, i = np.arange(m), np.arange(t)[:, None, None]

    def binomial(count, p, q):
        """log P(X = i), i < t, of X ~ Bin(count, P), from p = log P and q = log (1 - P)."""
        with np.errstate(divide="ignore", invalid="ignore"):  # log 0 is -inf, 0 x -inf is 0
            return (np.log(comb(count, i)) + np.where(i > 0, i * p, 0.0)
                    + np.where(count > i, (count - i) * q, 0.0))

    def convolve(x, y):
        """log P(X + Y = s), s < t, of independent X and Y, from their log pmfs."""
        return [reduce(np.logaddexp, [x[c] + y[s - c] for c in range(s + 1) if s - c < len(y)])
                for s in range(t)]

    # log P(s non-members before (v, w)), s < t, by how many of them lie below (above) w
    pi = law_idx[0, next(j for j in coords if j not in truth_members[0])]  # pi's law row
    below, above = (binomial(coords[:, None], p[pi], q[pi]) for p, q in ((le, gt), (lt, ge)))
    # a member's (log P(not before), log P(before)) when above w, at w and below w
    member = (np.stack([ge, np.zeros_like(ge), gt]), np.stack([lt, np.full_like(lt, -np.inf), le]))
    out, batch = [], max(1, SCAN_BLOCK // (t * m * at.shape[1]))
    for lo in range(0, len(law_idx), batch):
        rows, members = law_idx[lo:lo + batch], truth_members[lo:lo + batch]
        outside = ~(members[..., None] == coords).any(axis=1)
        a = np.cumsum(outside, axis=1) - outside
        y = convolve(below[:, a], above[:, m - t - outside - a])
        y[0] = np.where(outside[..., None], y[0], -np.inf)  # w in S: a non-member must come before
        for j, r in zip(members.T, np.take_along_axis(rows, members, 1).T):
            side = np.sign(coords - j[:, None]) + 1
            y = convolve(y, [tab[side, r[:, None]] for tab in member[:t]])
        out.extend(_log_sum_exp((y[-1] + at[rows]).reshape(len(rows), -1)).tolist())
    return out


def exact_error(
    kind: DetectorKind,
    family: HypothesisFamily,
    truth: HypothesisId,
    n: int,
    k: int,
    mus: LawSpec,
    pi: Pmf,
    *,
    mu: Optional[Pmf] = None,
    lam: Optional[float] = None,
    cap: int = DEFAULT_TUPLE_CAP,
) -> ErrorProbability:
    """Exact probability that the detector misses the truth hypothesis.

    ``mus``/``pi`` are the generating laws; ``mu`` is the detector-side
    outlier law for detectors that use one (defaults to ``mus`` when it
    is a single pmf).
    """
    return _errors(kind, family, [truth], n, k, mus, pi, mu=mu, lam=lam, cap=cap)[truth]


def max_error(
    kind: DetectorKind,
    family: HypothesisFamily,
    n: int,
    k: int,
    mus: LawSpec,
    pi: Pmf,
    **kwargs,
) -> tuple[ErrorProbability, dict[HypothesisId, ErrorProbability]]:
    """Worst-case error over all truth hypotheses in the family.

    One pass over the type tuples serves every truth; keyword arguments
    are those of `exact_error`.
    """
    per = _errors(kind, family, family.hypotheses, n, k, mus, pi, **kwargs)
    worst = max(per.values(), key=lambda e: e.log_prob)
    return worst, per


# ---------------------------------------------------------------------------
# Exponent regression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentFit:
    """Fit of -ln(err) = slope*n + log_coeff*ln(n) + intercept."""

    slope: float
    log_coeff: float
    intercept: float
    residual: float


def exponent_fit(ns: Sequence[int], errs: Sequence[float]) -> ExponentFit:
    """Least-squares exponent estimate; the ln(n) term absorbs type-counting prefactors."""
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if ns.size < 4 or ns.size != errs.size:
        raise ValidationError("need at least 4 (n, err) points")
    if np.any(errs <= 0) or np.any(errs >= 1):
        raise ValidationError("errors must lie strictly in (0, 1) for an exponent fit")
    y = -np.log(errs)
    design = np.column_stack([ns, np.log(ns), np.ones_like(ns)])
    coef, res, _, _ = np.linalg.lstsq(design, y, rcond=None)
    residual = float(np.sqrt(res[0])) if res.size else 0.0
    return ExponentFit(float(coef[0]), float(coef[1]), float(coef[2]), residual)


# ---------------------------------------------------------------------------
# Independent full-sequence brute force (tiny sizes only)
# ---------------------------------------------------------------------------


def brute_force_error(
    kind: DetectorKind,
    family: HypothesisFamily,
    truth: HypothesisId,
    n: int,
    k: int,
    mus: LawSpec,
    pi: Pmf,
    *,
    mu: Optional[Pmf] = None,
    lam: Optional[float] = None,
    max_sequences: int = 2_000_000,
) -> float:
    """Sum over every raw observation matrix, run through the real detectors."""
    m = family.m
    family.index_of(truth)
    laws = coordinate_laws(truth, m, mus, pi)
    if mu is None and isinstance(mus, Pmf):
        mu = mus
    total_seqs = k ** (m * n)
    if total_seqs > max_sequences:
        raise EnumerationCapError(f"{total_seqs} sequences exceeds brute-force cap")
    prob = 0.0
    for seq in product(range(k), repeat=m * n):
        data = np.array(seq, dtype=np.int64).reshape(m, n)
        obs = ObservationMatrix(data, k)
        decision = run_detector(kind, obs, mu=mu, pi=pi, family=family, lam=lam)
        if outlier_set(decision) != outlier_set(truth) or (decision is NULL) != (truth is NULL):
            p = 1.0
            for i, law in enumerate(laws):
                for y in data[i]:
                    p *= law.probs[y]
            prob += p
    return prob
