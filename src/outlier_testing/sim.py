"""Seeded Monte Carlo estimation of detector error probabilities.

Covers sample sizes beyond exact enumeration.  Each (truth, n) has one
PCG64 stream, seeded by SeedSequence((master seed, truth index, n)), and
trial t reads block t of it; an estimate reads the blocks batch after
batch, and a single trial is reached by jumping ahead.  So trials are
order-independent and results are bit-stable regardless of scheduling
and batch size.  Every detector reads only the rows' symbol counts, so trials
are kept as a (trials, M, K) count tensor and scored in batches by the
detectors' kernel.  Confidence intervals are exact Clopper-Pearson, which
behaves sensibly at the near-zero error rates this package lives in.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import betaincinv

from .detectors import (
    DetectorKind,
    HypothesisFamily,
    HypothesisId,
    ObservationMatrix,
    Scorer,
    decide_batch,
    null_threshold,
)
from .errors import ValidationError, require, whole
from .oracle import (
    KEY_BUDGET,
    ExponentFit,
    LawSpec,
    _detector_mu,
    _law_table,
    _outlier_coords,
    exponent_fit,
)
from .simplex import Pmf

RNG_ALGORITHM = "numpy-pcg64-trial-blocks"

#: the most uniforms one batch of trials draws
MC_MAX_DRAWS = 1 << 20


@dataclass(frozen=True)
class SimConfig:
    """A reproducible experiment: detector, generating laws, grid, budget, seed."""

    kind: DetectorKind
    family: HypothesisFamily
    k: int
    n_grid: tuple[int, ...]
    trials: int
    seed: int
    mus: LawSpec = None
    pi: Pmf = None  # required: None is rejected
    mu: Optional[Pmf] = None  # detector-side outlier law, when the kind uses one
    lam: Optional[float] = None  # None = the vanishing default threshold
    #: `_law_table`'s (laws, outlier_row) of mus and pi, resolved once here
    law_table: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        whole(self.trials, "trial counts", 100)
        if not self.n_grid:
            raise ValidationError("n grid must hold positive whole sample sizes")
        object.__setattr__(self, "law_table", _law_table(self.mus, self.pi, self.family.m, self.k))
        for n in self.n_grid:  # each stream's entropy, n and trial range pass the sampler's rule
            _stream_rule((self.seed, 0, n), self.family.m, n, 0, self.trials)
            null_threshold(self.kind, self.lam, self.family.m, n, self.k)  # and lambda its rule


@dataclass(frozen=True)
class ErrorEstimate:
    """Monte Carlo error estimate with a two-sided 95% Clopper-Pearson interval."""

    estimate: float
    lo: float
    hi: float
    trials: int
    errors: int


def clopper_pearson(errors: int, trials: int, alpha: float = 0.05) -> tuple[float, float]:
    """Exact binomial confidence interval for an error count: beta quantiles, by betaincinv."""
    whole(errors, "error counts")
    whole(trials, "trial counts", 1)
    require(errors <= trials, "need 0 <= errors <= trials")
    require(isinstance(alpha, numbers.Real) and 0 < alpha < 1, "alpha must lie in (0, 1)")
    lo = 0.0 if errors == 0 else float(betaincinv(errors, trials - errors + 1, alpha / 2))
    hi = 1.0 if errors == trials else float(betaincinv(errors + 1, trials - errors, 1 - alpha / 2))
    return lo, hi


def _cut_points(truth: HypothesisId, table, m: int, k: int) -> np.ndarray:
    """The first K-1 cumulative sums (M, K-1) of each coordinate's law under a truth.

    ``table`` is `_law_table`'s (laws, outlier_row): a coordinate takes its
    outlier law inside the truth's outlier set, pi outside it.  A uniform u
    becomes the symbol #{j < K-1 : u >= cut_j}.
    """
    laws, outlier_row = table
    coord = _outlier_coords(truth, m, laws)
    row = np.zeros(m, dtype=np.int64)
    row[coord] = outlier_row[coord]
    return np.cumsum([law.probs for law in laws], axis=1)[row, : k - 1]


def _stream_rule(seed, m: int, n, first, count: int = 1) -> int:
    """The sampler's one input rule, for trials first .. first+count-1 of seed's stream.

    n is a whole number >= 1; seed entropy is a non-negative integer or a
    non-empty list or tuple of them; trial indices are whole numbers >= 0
    whose blocks end inside the stream's period, so no trial reads
    another's draws.  Returns trial `first`'s offset first·M·n in the
    stream, as a Python int (numpy integers overflow `PCG64.advance`).
    """
    block = int(m) * whole(n, "sample sizes", 1)
    words = seed if isinstance(seed, (tuple, list)) else (seed,)
    require(bool(words), "seed entropy must be a non-negative integer or a sequence of them")
    for w in words:
        whole(w, "seed entropy")
    first = whole(first, "trial indices")
    require((first + count) * block <= 1 << 128,  # PCG64's period
            "trials past the stream's period would repeat earlier draws")
    return first * block


def _stream(seed, m: int, n: int, first: int, count: int = 1) -> np.random.Generator:
    """seed's PCG64 stream at trial `first`, for trials first .. first+count-1.

    Trial t is block t of the stream, its M·n draws [t·M·n, (t+1)·M·n) in
    (coordinate, sample) order: `random` takes one 64-bit output per
    float64, so `PCG64.advance` reaches a trial and consecutive `random`
    calls read consecutive blocks.
    """
    offset = _stream_rule(seed, m, n, first, count)
    bits = np.random.PCG64(np.random.SeedSequence(seed))
    bits.advance(offset)
    return np.random.Generator(bits)


def _count_batch(stream: np.random.Generator, cuts: np.ndarray, n: int,
                 count: int) -> np.ndarray:
    """Symbol counts (count, M, K) of the stream's next `count` trials, cut by `cuts` (M, K-1).

    A symbol is at least j+1 exactly when u >= cut_j; only the counts are
    kept, in the kernel's (K, M, count) planes, which the result views.
    """
    m, k = cuts.shape[0], cuts.shape[1] + 1
    u = stream.random((count, m, n))
    counts = np.empty((k, m, count), dtype=np.int64)
    counts[0] = n
    for j in range(k - 1):  # counts[j] holds the samples >= j until those >= j+1 leave it
        at_least = np.count_nonzero(u >= cuts[None, :, j, None], axis=2).T
        counts[j] -= at_least
        counts[j + 1] = at_least
    return counts.T


def generate(truth: HypothesisId, mus: LawSpec, pi: Pmf, m: int, n: int, k: int, seed,
             trial: int = 0) -> ObservationMatrix:
    """Draw trial `trial`'s observation matrix: outlier rows from their laws, the rest from pi.

    At trial 0 the matrix is `default_rng(SeedSequence(seed)).random((m, n))`
    cut into symbols.
    """
    cuts = _cut_points(truth, _law_table(mus, pi, m, k), m, k)
    u = _stream(seed, m, n, trial).random((m, n))
    return ObservationMatrix((u[:, :, None] >= cuts[:, None, :]).sum(axis=2), k)


def sample_counts(truth: HypothesisId, mus: LawSpec, pi: Pmf, m: int, n: int, k: int, seed,
                  trials: range) -> np.ndarray:
    """Symbol counts (len(trials), M, K) of the matrices `generate` draws for these trials.

    `trials` is a range of consecutive trial indices: one batch, read from
    seed's stream at trial `trials.start` and cut by `generate`'s cut points.
    """
    cuts = _cut_points(truth, _law_table(mus, pi, m, k), m, k)
    require(isinstance(trials, range) and trials.step == 1,
            "trials must be a range of consecutive trial indices")
    return _count_batch(_stream(seed, m, n, trials.start, len(trials)), cuts, n, len(trials))


def estimate_error(cfg: SimConfig, truth: HypothesisId, n: int) -> ErrorEstimate:
    """Fraction of seeded trials on which the detector misses the truth.

    Trial i draws its matrix as `generate(..., (seed, truth index, n), i)`
    does.  The laws come from `cfg.law_table` and the stream is set up
    once; trials are then counted and scored batch after batch, one kernel
    call per batch.  A batch is the largest run of trials whose uniforms
    fit in MC_MAX_DRAWS and whose (trials, H) scores fit in KEY_BUDGET; its
    size changes no trial's decision.
    """
    m, k = cfg.family.m, cfg.k
    truth_index = cfg.family.index_of(truth)
    scorer = Scorer(cfg.kind, cfg.family, k, mu=_detector_mu(cfg.mu, cfg.mus), pi=cfg.pi)
    truth_col = truth_index - cfg.family.include_null  # as Scorer.column: NULL's is -1
    cuts = _cut_points(truth, cfg.law_table, m, k)
    stream = _stream((cfg.seed, truth_index, n), m, n, 0, cfg.trials)
    lam = null_threshold(cfg.kind, cfg.lam, m, n, k)
    width = sum(map(len, cfg.family.members))  # H score columns
    batch = max(1, min(MC_MAX_DRAWS // (m * n), KEY_BUDGET // width))
    errors = 0
    for start in range(0, cfg.trials, batch):
        counts = _count_batch(stream, cuts, n, min(batch, cfg.trials - start))
        decisions = decide_batch(scorer.scores(counts, n), lam)
        errors += int(np.count_nonzero(decisions != truth_col))
    lo, hi = clopper_pearson(errors, cfg.trials)
    return ErrorEstimate(errors / cfg.trials, lo, hi, cfg.trials, errors)


def estimate_max_error(cfg: SimConfig, n: int) -> dict[HypothesisId, ErrorEstimate]:
    """Per-truth estimates for every hypothesis in the family."""
    return {truth: estimate_error(cfg, truth, n) for truth in cfg.family.hypotheses}


@dataclass(frozen=True)
class SweepResult:
    """Exponent regression over an n grid, with CI-propagated slope bounds.

    slope_lo comes from fitting the CI upper error bounds (conservative),
    slope_hi from the lower bounds; fit is None when fewer than 4 points, or
    fewer than 3 distinct n, saw any errors, in which case slope_lo still
    provides the "exponent at least this" reading.
    """

    ns: tuple[int, ...]
    estimates: tuple[ErrorEstimate, ...]
    fit: Optional[ExponentFit]
    slope_lo: float
    slope_hi: float


def exponent_sweep(cfg: SimConfig, truth: HypothesisId) -> SweepResult:
    """Estimate errors along the n grid and regress the error exponent."""
    if len(cfg.n_grid) < 4:
        raise ValidationError("need at least 4 grid points for an exponent sweep")
    ests = [estimate_error(cfg, truth, n) for n in cfg.n_grid]

    nonzero = [i for i, e in enumerate(ests) if 0 < e.errors < e.trials]
    fit = None
    if len(nonzero) >= 4 and len({cfg.n_grid[i] for i in nonzero}) >= 3:
        fit = exponent_fit([cfg.n_grid[i] for i in nonzero],
                           np.log([ests[i].estimate for i in nonzero]))

    slope_lo = exponent_fit(cfg.n_grid, np.log([min(e.hi, 1.0 - 1e-12) for e in ests])).slope
    if all(e.lo > 0 for e in ests):
        slope_hi = exponent_fit(cfg.n_grid, np.log([e.lo for e in ests])).slope
    else:
        slope_hi = float("inf")
    return SweepResult(tuple(cfg.n_grid), tuple(ests), fit, slope_lo, slope_hi)
