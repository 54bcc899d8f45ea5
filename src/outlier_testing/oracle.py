"""Exact error probabilities by enumerating per-coordinate type classes.

Because every detector is a function of the per-coordinate empirical
distributions alone, the exact finite-sample error probability is a sum
over M-tuples of types, weighted by exact type-class probabilities.
This replaces asymptotic claims with ground-truth finite-n numbers.

Enumeration is chunked and fully vectorized: the detectors' score kernel
computes each type's row statistics once and gathers them per tuple, so
the oracle decides every tuple exactly as the detector run on a matrix
with those types does.  Probabilities accumulate in log space.  A
full-sequence brute force (all K^(Mn) raw sequences, each run through
`run_detector`) cross-checks the enumeration and the type-class weights
at tiny sizes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, product
from typing import Iterator, Optional, Sequence, Union

import numpy as np
from scipy.special import gammaln, logsumexp

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
from .simplex import Pmf, TypeVector, entropy, kl

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
    """
    m, n_types = scorer.m, table.size
    total = n_types**m
    stats = scorer.row_stats(table.counts, table.n)
    radix = n_types ** np.arange(m - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total), dtype=np.int64)
        tidx = (flat[:, None] // radix[None, :]) % n_types
        yield tidx, decide_batch(scorer.combine(stats.take(tidx)), lam)


# ---------------------------------------------------------------------------
# Exact error probabilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorProbability:
    prob: float
    log_prob: float


def _log_type_probs(table: TypeClassTable, law: Pmf) -> np.ndarray:
    """Log probability (T,) of each type class under an i.i.d. law."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(table.counts > 0, table.counts * np.log(law.probs)[None, :], 0.0)
    return table.log_multiplicity + terms.sum(axis=1)


def _errors(kind, family, truths, n, k, mus, pi, *, mu=None, t=None, lam=None,
            cap=DEFAULT_TUPLE_CAP, chunk=DEFAULT_CHUNK) -> dict[HypothesisId, ErrorProbability]:
    """Exact error of each truth from one pass over the type tuples.

    A tuple's decision does not depend on the truth, only its weight does,
    so every chunk is scored and decided once and then weighted per truth.
    """
    m = family.m
    for truth in truths:
        family.index_of(truth)  # validates membership
    laws = [coordinate_laws(truth, m, mus, pi) for truth in truths]
    require(all(law.size == k for row in laws for law in row),
            "generating laws must be pmfs on the K-letter alphabet")
    if mu is None and isinstance(mus, Pmf):
        mu = mus
    scorer = Scorer(kind, m, k, mu=mu, pi=pi, t=t, family=family)
    truth_cols = [scorer.column(truth) for truth in truths]
    table = enumerate_types(n, k, cap=cap)
    total_tuples = table.size**m
    if total_tuples > cap:
        raise EnumerationCapError(f"{total_tuples} type tuples exceeds cap {cap}")

    # per truth, the log probability of each type under each coordinate's law
    log_laws = [np.stack([_log_type_probs(table, law) for law in row]) for row in laws]
    if not all(np.all(np.isfinite(w)) for w in log_laws):
        raise ValidationError("a generating law lacks support for some type")

    lam = null_threshold(kind, lam, m, n, k)
    coords = np.arange(m)[None, :]
    pieces: list[list[float]] = [[] for _ in truths]
    for tidx, decision in tuple_decisions(scorer, table, lam, chunk):
        for col, weights, acc in zip(truth_cols, log_laws, pieces):
            wrong = decision != col
            if np.any(wrong):
                acc.append(logsumexp(weights[coords, tidx].sum(axis=1)[wrong]))
    out = {}
    for truth, acc in zip(truths, pieces):
        log_err = float(logsumexp(acc)) if acc else -math.inf
        out[truth] = ErrorProbability(min(math.exp(log_err), 1.0), log_err)
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
    t: Optional[int] = None,
    lam: Optional[float] = None,
    cap: int = DEFAULT_TUPLE_CAP,
    chunk: int = DEFAULT_CHUNK,
) -> ErrorProbability:
    """Exact probability that the detector misses the truth hypothesis.

    ``mus``/``pi`` are the generating laws; ``mu`` is the detector-side
    outlier law for detectors that use one (defaults to ``mus`` when it
    is a single pmf).
    """
    return _errors(kind, family, [truth], n, k, mus, pi,
                   mu=mu, t=t, lam=lam, cap=cap, chunk=chunk)[truth]


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
    t: Optional[int] = None,
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
        decision = run_detector(kind, obs, mu=mu, pi=pi, t=t, family=family, lam=lam)
        if outlier_set(decision) != outlier_set(truth) or (decision is NULL) != (truth is NULL):
            p = 1.0
            for i, law in enumerate(laws):
                for y in data[i]:
                    p *= law.probs[y]
            prob += p
    return prob
