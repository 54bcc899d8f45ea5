"""Exact error probabilities from per-coordinate type classes.

Because every detector is a function of the per-coordinate empirical
distributions alone, the exact finite-sample error probability is a sum
over M-tuples of types, weighted by exact type-class probabilities.
This replaces asymptotic claims with ground-truth finite-n numbers.

Two routes compute it, and each result names the one it took.  Known-law
kinds that rank the kernel's per-type `RowStats.key` (ml-single,
typ-single, mu-only, and typ-multi at T=2) decide the T coordinates of best
key when a floating-point certificate shows that the kernel does too.  The
decision is then the truth exactly when every non-member ranks after the
truth's last member, so the error is one sum, over which member is last
and its key v, of the members' key probabilities times 1 - P_pi(> v)^a
P_pi(>= v)^b, a and b the non-members below and above that member
(`_order_errors`).  That is O(H T^2 V) work for H truths and V distinct
keys, in O(T V) memory per truth and nothing of size M, so M = 10^4 takes
milliseconds.  Every other case enumerates the type tuples in chunks and
decides every tuple exactly as the detector run on a matrix with those
types does.  A chunk is a run of radix blocks (a few leading types, times
every type of the others), and keys are broadcast over them (`_block_keys`)
with no per-tuple indices: each is the kernel's score up to a term every
hypothesis shares, for known-law kinds the members' key sums, for universal
kinds read from entropy tables of pooled integer counts.  Rounding certificates
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
from itertools import chain, combinations, count, product
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
    decide_batch,
    null_threshold,
    outlier_set,
    run_detector,
)
from .errors import EnumerationCapError, ValidationError, require
from .simplex import Pmf, TypeVector, _log_sum_exp, entropy, kl

DEFAULT_TUPLE_CAP = 10**8
DEFAULT_CHUNK = 1 << 18  # type tuples scored per kernel call
#: keys (H x tuples) in an enumeration chunk, terms (truths x t x V) in a route batch, or
#: scores (H x trials) in a Monte Carlo batch: 32 MB, traced peaks 58 MB (typ-multi M=14,
#: T=4) and 105 MB (`max_error` ml-single M=10^4, n=1000)
KEY_BUDGET = 1 << 22
#: entries in one of `_block_keys`' pooled-entropy tables; past it the kernel scores every tuple
ROUTE_MAX_TERMS = 1 << 21
_LOG_HALF = -math.log(2)

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


def _law_table(mus: LawSpec, pi: Pmf, m: int, k: Optional[int] = None):
    """pi, then each distinct outlier law, and the row (M,) of each coordinate's outlier law.

    ``mus``/``pi`` are as in `coordinate_laws`; `Pmf`s compare by value.  The
    rule every generating law obeys is checked here, once: pi is given, and
    every law is a full-support pmf on the K-letter alphabet (pi's when
    ``k`` is None), as the paper assumes; a mass below
    `simplex.FULL_SUPPORT_MIN` counts as none.
    """
    require(pi is not None, "the typical law pi is required")
    if mus is None or isinstance(mus, Pmf):
        outliers, outlier_row = ({} if mus is None else {mus: 1}), np.ones(m, dtype=np.int64)
    else:
        require(len(mus) == m, f"need one outlier law per coordinate: got {len(mus)}, M={m}")
        outliers = {}
        outlier_row = np.array([outliers.setdefault(law, len(outliers) + 1) for law in mus])
    laws = (pi, *outliers)
    require(all(law.size == (pi.size if k is None else k) and law.full_support() for law in laws),
            "generating laws must be full-support pmfs on the K-letter alphabet")
    return laws, outlier_row


def _outlier_coords(truth: HypothesisId, m: int, laws) -> np.ndarray:
    """A truth's outlier coordinates, zero-based and ascending, checked against M and the laws."""
    coord = np.array(sorted(outlier_set(truth)), dtype=np.int64) - 1
    require(not coord.size or coord[-1] < m, "truth names a coordinate beyond M")
    require(not coord.size or len(laws) > 1, "outlier truth requires outlier laws")
    return coord


def _law_row(truth: HypothesisId, mus: LawSpec, pi: Pmf, m: int,
             k: Optional[int] = None) -> tuple[list[Pmf], np.ndarray]:
    """The laws in use under a truth, pi first, and each coordinate's row (M,) in them.

    A coordinate takes its outlier law inside the truth's outlier set, pi outside it.
    """
    laws, outlier_row = _law_table(mus, pi, m, k)
    coord = _outlier_coords(truth, m, laws)
    used, rank = np.unique(outlier_row[coord], return_inverse=True)
    row = np.zeros(m, dtype=np.int64)
    row[coord] = rank + 1  # row 0 is pi's
    return [pi, *(laws[r] for r in used)], row


def coordinate_laws(truth: HypothesisId, m: int, mus: LawSpec, pi: Pmf) -> list[Pmf]:
    """The generating law of each coordinate under a truth hypothesis, by `_law_table`'s rule.

    ``mus`` is a single pmf (identically distributed outliers), a
    sequence of M per-coordinate outlier laws, or None when the truth is
    the null hypothesis.
    """
    laws, row = _law_row(truth, mus, pi, m)
    return [laws[r] for r in row]


def _detector_mu(mu: Optional[Pmf], mus: LawSpec) -> Optional[Pmf]:
    """The detector-side outlier law: ``mu``, or ``mus`` when it is None and ``mus`` one pmf."""
    return mus if mu is None and isinstance(mus, Pmf) else mu


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
    """Log probability (T,) of each type class under an i.i.d. full-support law."""
    return table.log_multiplicity + (table.counts * np.log(law.probs)).sum(axis=1)


def _errors(kind, family, truth, n, k, mus, pi, *, mu=None, lam=None,
            cap=DEFAULT_TUPLE_CAP) -> list[ErrorProbability]:
    """Exact error of ``truth``, or of every family member in family order when it is None.

    Truths are member rows ``groups``, per size (H_t, t) zero-based (NULL's empty), whose
    coordinates read their row of the laws from ``law_row`` (M,); no hypothesis is read per truth.
    """
    m = family.m
    if truth is None:
        laws, law_row = _law_table(mus, pi, m, k)  # every coordinate is some member's outlier
        require(len(laws) > 1, "outlier truth requires outlier laws")
        groups = [np.empty((1, 0), dtype=np.int64)] * family.include_null + list(family.members)
    else:
        laws, law_row = _law_row(truth, mus, pi, m, k)
        groups = [np.flatnonzero(law_row)[None]]
    scorer = Scorer(kind, family, k, mu=_detector_mu(mu, mus), pi=pi)
    first = -family.include_null if truth is None else scorer.column(truth)  # NULL's is -1
    table = enumerate_types(n, k, cap=cap)
    lam = null_threshold(kind, lam, m, n, k)
    stats = scorer.row_stats(table.counts, n)
    ranking = _ranking(scorer, stats)
    if ranking is None and table.size**m > cap:
        raise EnumerationCapError(f"{table.size}^{m} type tuples exceeds cap {cap}")
    log_rows = np.stack([_log_type_probs(table, law) for law in laws])

    if ranking is not None:
        route = "per-coordinate"
        log_errs = _order_errors(*ranking, log_rows, groups[0], law_row)  # one size, no NULL
    else:
        route = "enumeration"
        log_errs = _enumerated_errors(scorer, table, stats, lam, log_rows, law_row, groups, first)
    return [ErrorProbability(min(math.exp(e), 1.0), e, route) for e in log_errs]


# ---------------------------------------------------------------------------
# Enumeration route
# ---------------------------------------------------------------------------


def _enumerated_errors(scorer, table, stats, lam, log_rows, law_row, groups, first) -> list[float]:
    """Log error of each truth: log-sum-exp of wrong-decision tuple weights, chunk by chunk.

    The truths are `_errors`' ``groups``, deciding columns ``first``, ``first`` + 1, ...; at
    the small M enumerated, their (H, M) law table is one member mask of ``law_row`` per size.
    Chunks of DEFAULT_CHUNK tuples are decided on radix blocks (`_block_decisions`).
    A tuple's log weight sums its types' log probabilities left to right at
    every M, laid over each block like its keys (`_on_block`).
    """
    law_idx = np.vstack([law_row * (np.arange(scorer.m) == g[..., None]).any(1) for g in groups])
    pieces: list[list[float]] = [[] for _ in law_idx]
    for head_idx, lo, decision in _block_decisions(scorer, table, stats, lam, DEFAULT_CHUNK):
        for col, rows, acc in zip(count(first), law_idx, pieces):
            wrong = decision != col
            if wrong.any():
                weights = _add_left(_on_block(log_rows[rows], head_idx)).ravel()
                acc.append(_log_sum_exp(weights[lo:lo + decision.size][wrong]))
    return [float(_log_sum_exp(np.array(acc))) if acc else -math.inf for acc in pieces]


# ---------------------------------------------------------------------------
# Per-coordinate route
# ---------------------------------------------------------------------------

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
    return order, starts, t_size


def _order_errors(order, starts, t, log_rows, members, law_row) -> list[float]:
    """Log error of each truth whose decision D is the first t coordinates in (key, index) order.

    ``order``/``starts`` rank the types by key (`_ranking`), ``members`` (H, t)
    holds each truth's members s_0 < ... < s_{t-1}, zero-based, and ``law_row``
    (M,) each member's row of ``log_rows`` (pi's row 0 is read for none).
    D = S exactly when no non-member comes before S's last member, s_r with
    key v when the members below it have key <= v and those above it key < v.
    So log P(D != S) is a logsumexp over (r, v) of log P_{s_r}(v)
    + sum_{r'<r} log P_{s_r'}(<= v) + sum_{r'>r} log P_{s_r'}(< v)
    + log(1 - P_pi(> v)^(s_r - r) P_pi(>= v)^(M - t - s_r + r)), with 1 - x
    as -expm1(log x).  A truth costs O(t^2 V) in O(t V) memory, V distinct
    keys; a batch holds at most KEY_BUDGET terms.
    """
    at = np.logaddexp.reduceat(log_rows[:, order], starts, axis=1)  # log P(key = v)
    ninf = np.full((len(at), 1), -np.inf)
    le = np.logaddexp.accumulate(at, axis=1)
    ge = np.logaddexp.accumulate(at[:, ::-1], axis=1)[:, ::-1]
    lt, ge = _complement(np.hstack([ninf, le[:, :-1]]), ge)  # log P(< v), log P(>= v)
    le, gt = _complement(le, np.hstack([ge[:, 1:], ninf]))  # log P(<= v), log P(> v)
    m, ranks = law_row.size, np.arange(t)
    out, batch = [], max(1, KEY_BUDGET // (t * at.shape[1]))
    for cols in np.split(members, range(batch, len(members), batch)):
        rows = law_row[cols]
        below, above = (cols - ranks)[..., None], (m - t - cols + ranks)[..., None]
        terms = above * ge[0]  # log P(every non-member comes after (v, s_r)); P(> v)^0 is 1
        terms += np.multiply(below, gt[0], out=np.zeros_like(terms), where=below > 0)
        with np.errstate(divide="ignore"):  # log 0: D = S surely
            np.log(np.negative(np.expm1(terms, out=terms), out=terms), out=terms)
        terms += at[rows]
        for r in range(t):
            for j in range(t):
                if j != r:
                    terms[:, r] += (le if j < r else lt)[rows[:, j]]
        out.extend(_log_sum_exp(terms.reshape(len(rows), -1)).tolist())
    return out


def _complement(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complementary log probabilities, each above 1/2 recomputed as log1p(-exp(the other)):
    a log-space sum near 1 keeps its absolute, not its relative, accuracy."""
    return (np.log1p(-np.exp(b), out=a.copy(), where=b < _LOG_HALF),
            np.log1p(-np.exp(a), out=b.copy(), where=a < _LOG_HALF))


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
    return _errors(kind, family, truth, n, k, mus, pi, mu=mu, lam=lam, cap=cap)[0]


def max_error(
    kind: DetectorKind,
    family: HypothesisFamily,
    n: int,
    k: int,
    mus: LawSpec,
    pi: Pmf,
    **kwargs,
) -> tuple[ErrorProbability, dict[HypothesisId, ErrorProbability]]:
    """Worst-case error over all truth hypotheses in the family, read as its member rows.

    One pass over the type tuples, or the per-coordinate route, which holds nothing of
    size H x M, serves every truth (`_errors`); keyword arguments are those of `exact_error`.
    """
    per = dict(zip(family.hypotheses, _errors(kind, family, None, n, k, mus, pi, **kwargs)))
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


def exponent_fit(ns: Sequence[int], log_errs: Sequence[float]) -> ExponentFit:
    """Least-squares exponent estimate from log errors (they pass the float range of errors)."""
    ns = np.asarray(ns, dtype=float)
    log_errs = np.asarray(log_errs, dtype=float)
    if ns.size < 4 or ns.size != log_errs.size:
        raise ValidationError("need at least 4 (n, log err) points")
    if not np.all(np.isfinite(log_errs) & (log_errs < 0)):
        raise ValidationError("log errors must be finite and below 0 for an exponent fit")
    y = -log_errs
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
    total_seqs = k ** (m * n)
    if total_seqs > max_sequences:
        raise EnumerationCapError(f"{total_seqs} sequences exceeds brute-force cap")
    prob = 0.0
    for seq in product(range(k), repeat=m * n):
        data = np.array(seq, dtype=np.int64).reshape(m, n)
        obs = ObservationMatrix(data, k)
        decision = run_detector(kind, obs, mu=_detector_mu(mu, mus), pi=pi, family=family, lam=lam)
        if outlier_set(decision) != outlier_set(truth) or (decision is NULL) != (truth is NULL):
            p = 1.0
            for i, law in enumerate(laws):
                for y in data[i]:
                    p *= law.probs[y]
            prob += p
    return prob
