"""Exact error probabilities from per-coordinate type classes.

Because every detector is a function of the per-coordinate empirical
distributions alone, the exact finite-sample error probability is a sum
over M-tuples of types, weighted by exact type-class probabilities.
This replaces asymptotic claims with ground-truth finite-n numbers.

Two routes compute it, and each result names the one it took.  Known-law
kinds that rank one per-type key (ml-single, typ-single, mu-only, and
typ-multi at T=2) factor over coordinates: when a floating-point
certificate shows that the kernel orders tuples as the keys do, the error
is a sum over key values of products of per-coordinate masses
(`_ranked_errors`), in O(M x distinct keys) per truth.  Every other
case enumerates the type tuples in chunks, fully vectorized, and decides
every tuple exactly as the detector run on a matrix with those types
does.  Known-law kinds are scored by the detectors' kernel from each
type's row statistics, computed once and gathered per tuple.  The
universal kinds decide from pooled-count keys: the kernel's score up to a
shared term, read from entropy tables of pooled integer counts
(`_pooled_keys`).  A rounding certificate (`_key_slack`) shows that keys
farther apart than a slack rank as the kernel's scores do; tuples whose
best two keys, or whose key spread and lambda, lie within it go to the
kernel, so ties are the kernel's too.  Probabilities accumulate in log
space.  A full-sequence brute force (all K^(Mn) raw sequences, each run
through `run_detector`) cross-checks both routes and the type-class
weights at tiny sizes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, product
from typing import Iterator, Optional, Sequence, Union

import numpy as np
from scipy.special import entr, gammaln

from .detectors import (
    NULL,
    DetectorKind,
    HypothesisFamily,
    HypothesisId,
    ObservationMatrix,
    Scorer,
    _member_sums,
    decide_batch,
    null_threshold,
    outlier_set,
    run_detector,
)
from .errors import EnumerationCapError, ValidationError, require
from .simplex import Pmf, TypeVector, _log_sum_exp, entropy, kl

DEFAULT_TUPLE_CAP = 10**8
DEFAULT_CHUNK = 1 << 18  # type tuples scored per kernel call

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

    Yields (type indices (b, M), decided score columns (b,), -1 for NULL).
    Row statistics are computed once per type and gathered by index, so
    known-law kinds never build a (b, M, K) tensor.  ``lam`` is the
    null-aware threshold, None for argmin kinds.

    The universal kinds decide from pooled-count keys (`_pooled_keys`):
    each key is the kernel's score up to a term every hypothesis shares,
    read from entropy tables of pooled integer counts, with no logarithm
    and no (b, M, K) tensor.  A tuple whose best two keys lie within the
    slack of `_key_slack`, or (null-aware kinds) whose key spread lies
    within it of lam, is decided by the kernel instead, so every decision,
    ties included, is the kernel's.
    """
    m, n_types = scorer.m, table.size
    total = n_types**m
    stats = scorer.row_stats(table.counts, table.n)
    keys = _pooled_keys(scorer, table, stats.ent)
    slack = _key_slack(m, table.n, table.k)
    if lam is not None and lam < 0:
        raise ValidationError("lambda must be >= 0")
    for start in range(0, total, chunk):
        cols = _tuple_columns(n_types, m, start, min(start + chunk, total))
        if keys is None:
            # C-ordered like a detector's own count rows: numpy's summation
            # order, and so the kernel's bits, can follow the memory layout
            tidx = np.ascontiguousarray(cols.T)
            yield tidx, decide_batch(scorer.combine(stats.take(tidx)), lam)
            continue
        decision, near = _key_decisions(keys(cols), slack, lam)
        if near.any():
            near_idx = np.ascontiguousarray(cols[:, near].T)
            decision[near] = decide_batch(scorer.combine(stats.take(near_idx)), lam)
        yield cols.T, decision


def _key_decisions(key: np.ndarray, slack: float, lam: Optional[float]):
    """Decisions (b,) from keys (H, b), and which of them the kernel must make instead.

    Those are the tuples whose best two keys lie within ``slack`` of each
    other or, with a threshold ``lam``, whose key spread lies within it of
    lam.
    """
    low = key.min(axis=0)
    close = key <= low + slack
    near = close.sum(axis=0) > 1
    # where no other key is close, the column of the one close key
    decision = (np.arange(len(key))[:, None] * close).sum(axis=0)
    if lam is not None:
        spread = key.max(axis=0) - low
        near |= np.abs(spread - lam) <= slack
        decision = np.where(spread > lam, decision, -1)
    return decision, near


def _tuple_columns(n_types: int, m: int, start: int, stop: int) -> np.ndarray:
    """Type indices (M, b) of tuples start..stop-1 in radix order, without division.

    Coordinate j holds runs of n_types**(M-1-j) equal indices that cycle
    through 0..n_types-1, so each row is a repeat (or, for the last
    coordinate, a tile) of a short arange.
    """
    width = stop - start
    out = np.empty((m, width), dtype=np.int64)
    for j in range(m - 1):
        run = n_types ** (m - 1 - j)
        first = start // run
        heads = np.arange(first, (stop - 1) // run + 1, dtype=np.int64) % n_types
        skip = start - first * run
        out[j] = np.repeat(heads, run)[skip:skip + width]
    skip = start % n_types
    out[m - 1] = np.tile(np.arange(n_types), (skip + width) // n_types + 1)[skip:skip + width]
    return out


def _pooled_keys(scorer: Scorer, table: TypeClassTable, ent: Optional[np.ndarray]):
    """Per-tuple keys of a universal kind, or None to score with the kernel.

    A pool of s coordinates with n samples each has integer counts c
    summing to n s, and the kernel's mixture of the pool is c / (n s).
    With per-type codes sum_k c_k B^k over the first K-1 counts, B = n (M-1)
    + 1, a pool's code is the integer sum of its members' codes (codes are
    linear, and no pooled count reaches B), and ``tab[s][code]`` holds
    s H(c / (n s)), built once per pool size from ``enumerate_types(n s, K)``.
    Against the kernel's dispersions these keys drop sum_j H(gamma_j),
    which every hypothesis shares:

    * univ-single, null-single, univ-multi: tab[M-|S|][Sigma - c_S] + sum_{j in S} H(gamma_j)
    * identical-univ, null-identical: tab[|S|][c_S] + tab[M-|S|][Sigma - c_S]

    Each key is a few gathers and adds per hypothesis.  ``keys(cols)``
    maps type indices (M, b) to keys (H, b).  Returns None for
    known-law kinds and when a table would pass ROUTE_MAX_TERMS entries.
    """
    if ent is None:
        return None
    m, n, k = scorer.m, table.n, table.k
    identical = scorer.kind in (DetectorKind.IDENTICAL_UNIV, DetectorKind.NULL_IDENTICAL)
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

    def keys(cols: np.ndarray) -> np.ndarray:
        """Keys (H, b) of the tuples with type indices ``cols`` (M, b)."""
        codes = code[cols]
        ents = None if identical else ent[cols]
        whole = codes.sum(axis=0)
        out = []
        for members in scorer.family.members:
            t = members.shape[1]
            c_in = _member_sums(codes, members, axis=0)
            key = tab[m - t][whole - c_in]
            key += tab[t][c_in] if identical else _member_sums(ents, members, axis=0)
            out.append(key)
        return np.concatenate(out)

    return keys


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
            cap=DEFAULT_TUPLE_CAP, per_coordinate=True) -> dict[HypothesisId, ErrorProbability]:
    """Exact error of each truth, by the per-coordinate route when it is certified.

    Otherwise one pass over the type tuples serves every truth: a tuple's
    decision does not depend on the truth, only its weight does, so every
    chunk is scored and decided once and then weighted per truth.
    ``per_coordinate=False`` forces the enumeration.
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
    ranking = _ranking(scorer, scorer.row_stats(table.counts, n)) if per_coordinate else None
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
        log_errs = _ranked_errors(*ranking, log_rows, law_idx, family.members[0][truth_cols])
    else:
        route = "enumeration"
        log_errs = _enumerated_errors(scorer, table, lam, log_rows, law_idx, truth_cols)
    return {truth: ErrorProbability(min(math.exp(e), 1.0), e, route)
            for truth, e in zip(truths, log_errs)}


# ---------------------------------------------------------------------------
# Enumeration route
# ---------------------------------------------------------------------------


def _enumerated_errors(scorer, table, lam, log_rows, law_idx, truth_cols) -> list[float]:
    """Log error of each truth: log-sum-exp of wrong-decision tuple weights, chunk by chunk.

    Chunks hold DEFAULT_CHUNK tuples.  Tuples come in radix order, so a
    block of n_types**tail consecutive tuples shares its leading
    coordinates.  A tuple's log weight is built as the left-to-right sum
    over coordinates of its types' log probabilities: the head of each
    block is gathered once, and the tail coordinates are added by
    broadcasting.  numpy sums fewer than 8 terms left to right too, so for
    M <= 7 these are the bits of ``w[arange(M), tidx].sum(axis=1)``.
    """
    m, n_types, chunk = scorer.m, table.size, DEFAULT_CHUNK
    tail = 0
    while tail < m - 1 and n_types ** (tail + 1) <= chunk // 8:
        tail += 1
    block = n_types**tail
    head_radix = n_types ** np.arange(m - tail - 1, -1, -1, dtype=np.int64)
    pieces: list[list[float]] = [[] for _ in truth_cols]
    for c, (_, decision) in enumerate(tuple_decisions(scorer, table, lam, chunk)):
        start = c * chunk
        heads = np.arange(start // block, (start + decision.size - 1) // block + 1, dtype=np.int64)
        head_idx = (heads[:, None] // head_radix) % n_types
        lo = start - heads[0] * block
        for rows, col, acc in zip(law_idx, truth_cols, pieces):
            wrong = decision != col
            if np.any(wrong):
                weights = _tuple_log_weights(log_rows[rows], head_idx)[lo:lo + decision.size]
                acc.append(_log_sum_exp(weights[wrong]))
    return [float(_log_sum_exp(np.array(acc))) if acc else -math.inf for acc in pieces]


def _tuple_log_weights(w: np.ndarray, head_idx: np.ndarray) -> np.ndarray:
    """Sums w[0, t_0] + ... + w[M-1, t_(M-1)], left to right, in radix order.

    Tuples run over the heads ``head_idx`` (rows, p), each followed by every
    type of the last M-p coordinates.
    """
    p = head_idx.shape[1]
    acc = w[0, head_idx[:, 0]]
    for j in range(1, p):
        acc = acc + w[j, head_idx[:, j]]
    for j in range(p, len(w)):
        acc = (acc[:, None] + w[j]).ravel()
    return acc


# ---------------------------------------------------------------------------
# Per-coordinate route
# ---------------------------------------------------------------------------

#: the per-coordinate route holds about a dozen (M, distinct keys) float
#: arrays (some 200 MB at this limit); above it the oracle enumerates instead
ROUTE_MAX_TERMS = 1 << 21


def _ranking(scorer: Scorer, stats) -> Optional[tuple[np.ndarray, np.ndarray, int]]:
    """How a known-law kind ranks types, when its exact error factors over coordinates.

    ml-single, typ-single, mu-only and typ-multi at T=2 decide the T
    coordinates of best per-type key, the earliest index first among equal
    keys.  The key is d_mu - d_pi (as `Scorer.combine` computes it), -d_pi,
    d_mu and -d_pi; smaller is better.  Returns (types sorted by key,
    stably; start of each run of equal keys; T), or None for the enumeration.

    Certificate that the kernel decides as the keys do, tie for tie.  The
    kernel turns keys into scores with one or two more roundings, each off
    by at most u = eps/2 of its result: fl(key_i + S) for ml-single,
    fl(S - d_i) for typ-single and fl(S - fl(d_a + d_b)) for typ-multi,
    where S is the row's float sum of d_pi, so |S| <= M max d_pi (1 + M u).
    mu-only scores the key itself.  Rounding is monotone, so equal keys (at
    T=2, equal key pairs) score bit-equal and a better key never scores
    worse.  Only comparisons with the winner matter.  If g is the smallest
    gap between distinct keys, every other coordinate (at T=2, every pair
    but the top two) has a key (key sum) at least g worse, because such a
    pair holds a key at least g worse than its rank counterpart.  The
    roundings move two such scores by at most eps (4 max|key| + |S|)
    together, so they stay strictly in order when g exceeds that; the route
    asks g > 4 eps (max|key| + M max d_pi), which implies it.  Keys that tie
    in exact arithmetic but come out an ulp apart fail it.  T >= 3 never
    takes the route: the kernel adds members in index order, so subsets
    holding the same keys can score an ulp apart.
    """
    kind, t_size = scorer.kind, scorer.family.sizes[0]
    if kind is DetectorKind.MU_ONLY:
        key = stats.d_mu
    elif kind is DetectorKind.ML_SINGLE:
        key = stats.d_mu - stats.d_pi
    elif kind is DetectorKind.TYP_SINGLE or (kind is DetectorKind.TYP_MULTI and t_size == 2):
        key = -stats.d_pi
    else:
        return None
    slack = 0.0 if stats.d_pi is None else (
        4 * np.finfo(float).eps * (np.abs(key).max() + scorer.m * stats.d_pi.max()))
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    if starts.size > 1 and np.diff(ranked[starts]).min() <= slack:
        return None
    if scorer.m * starts.size > ROUTE_MAX_TERMS:
        return None
    return order, starts, t_size


def _ranked_errors(order, starts, t_size, log_rows, law_idx, truth_members) -> list[float]:
    """Log error of each truth from per-coordinate key laws, summed over wrong decisions.

    For decision D and its worst member w (by key, then index), D wins iff
    every other member ranks before w and every other coordinate after it.
    Given w's key value v, those are independent per-coordinate events:
    key better than v (or equal, for a lower index) inside D, key worse than
    v (or equal, for a higher index) outside D.  So log P(D) is a
    logsumexp over v of sums of per-coordinate log masses.
    ``truth_members`` (truths, T) holds each truth's zero-based coordinates.
    """
    ninf = np.full((len(log_rows), 1), -np.inf)
    at = np.logaddexp.reduceat(log_rows[:, order], starts, axis=1)  # log P(key = v)
    at_or_better = np.logaddexp.accumulate(at, axis=1)
    at_or_worse = np.logaddexp.accumulate(at[:, ::-1], axis=1)[:, ::-1]
    better = np.hstack([ninf, at_or_better[:, :-1]])
    worse = np.hstack([at_or_worse[:, 1:], ninf])
    if t_size == 2:
        return _pair_errors(at, better, at_or_better, worse, at_or_worse, law_idx, truth_members)

    out = []
    for rows, (col,) in zip(law_idx, truth_members):
        a, w, we = (x[rows] for x in (at, worse, at_or_worse))
        # before[i]: coordinates j < i all worse; after[i]: j > i all worse or equal
        before = np.zeros_like(w)
        np.cumsum(w[:-1], axis=0, out=before[1:])
        after = np.zeros_like(we)
        after[:-1] = np.cumsum(we[:0:-1], axis=0)[::-1]
        log_dec = _log_sum_exp(a + before + after)
        out.append(float(_log_sum_exp(np.delete(log_dec, col))))
    return out


#: elements of each (truths, 2, keys) array `_pair_errors` holds at once
SCAN_BLOCK = 1 << 16


def _pair_errors(at, better, at_or_better, worse, at_or_worse, law_idx, truths) -> list[float]:
    """Log error of each truth {t1 < t2} of a T=2 family, in one scan over the coordinates.

    The arguments are `_ranked_errors`' (law row, key value) arrays, the law
    row of each truth's coordinates (H, M), and the truths' pairs (H, 2).
    Pair {i < j} wins with key value v when j is its worst member (i at v
    or better, every other coordinate before j worse than v, every one
    after j worse or equal) or when i is (j strictly better than v, every
    other coordinate before i worse, every one after i worse or equal).
    Its log mass is a sum along the coordinates, so every pair's is a path
    through one left-to-right scan whose log states per (truth, v) are:

    * lead: every coordinate so far worse than v, no member chosen;
    * open (term j-worst, term i-worst): first member i chosen, its
      followers worse (resp. worse or equal), split by whether i = t1;
    * done: both members chosen, every coordinate since j worse or equal.

    Pairs that open at t1 cannot close at t2, so done sums every pair but
    the truth, and the error is its logsumexp over v.  Each step costs
    O(truths x keys): no (M, M) array is formed.  Truths run in batches of
    SCAN_BLOCK / (2 x keys).
    """
    stay_rows = np.stack([worse, at_or_worse], axis=1)  # (law rows, 2, keys)
    enter_rows = np.stack([at_or_better, at], axis=1)
    leave_rows = np.stack([at, better], axis=1)
    m, v = law_idx.shape[1], at.shape[1]
    batch = max(1, SCAN_BLOCK // (2 * v))
    out = []
    for lo in range(0, len(law_idx), batch):
        rows, (t1, t2) = law_idx[lo:lo + batch], truths[lo:lo + batch].T
        h = len(rows)
        lead = np.zeros((h, 1, v))
        open_other = np.full((h, 2, v), -np.inf)
        open_first = open_other.copy()
        done = np.full((h, v), -np.inf)
        for c in range(m):
            r = rows[:, c]
            closing = np.where((t2 == c)[:, None, None], open_other,
                               np.logaddexp(open_other, open_first))
            done = np.logaddexp(done + at_or_worse[r],
                                np.logaddexp.reduce(closing + leave_rows[r], axis=1))
            start = lead + enter_rows[r]
            first = (t1 == c)[:, None, None]
            open_other = np.logaddexp(open_other + stay_rows[r], np.where(first, -np.inf, start))
            open_first = np.logaddexp(open_first + stay_rows[r], np.where(first, start, -np.inf))
            lead = lead + worse[r][:, None]
        out.extend(_log_sum_exp(done).tolist())
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
