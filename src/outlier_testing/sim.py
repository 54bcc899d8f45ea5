"""Seeded Monte Carlo estimation of detector error probabilities.

Covers sample sizes beyond exact enumeration.  Each (truth, n) has one
PCG64 stream, seeded by SeedSequence((master seed, truth index, n)), and
trial t reads block t of it, reached by jumping ahead; so trials are
order-independent and results are bit-stable regardless of scheduling
and batch size.  Every detector reads only the rows' symbol counts, so trials
are kept as a (trials, M, K) count tensor and scored in batches by the
detectors' kernel.  Confidence intervals are exact Clopper-Pearson, which
behaves sensibly at the near-zero error rates this package lives in.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
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
from .errors import ValidationError, require
from .oracle import ExponentFit, LawSpec, _detector_mu, _law_row, _law_table, exponent_fit
from .simplex import Pmf

RNG_ALGORITHM = "numpy-pcg64-trial-blocks"

#: trials drawn and scored per kernel call, and the most uniforms one call draws
MC_CHUNK = 256
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

    def __post_init__(self):
        if not isinstance(self.trials, numbers.Integral) or self.trials < 100:
            raise ValidationError("need a whole number of at least 100 trials per point")
        if not self.n_grid:
            raise ValidationError("n grid must hold positive whole sample sizes")
        _law_table(self.mus, self.pi, self.family.m, self.k)
        for n in self.n_grid:  # each stream's entropy, n and trial range pass the sampler's rule
            _stream_rule((self.seed, 0, n), self.family.m, n, 0, self.trials)


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
    if not 0 <= errors <= trials or trials < 1:
        raise ValidationError("need 0 <= errors <= trials")
    lo = 0.0 if errors == 0 else float(betaincinv(errors, trials - errors + 1, alpha / 2))
    hi = 1.0 if errors == trials else float(betaincinv(errors + 1, trials - errors, 1 - alpha / 2))
    return lo, hi


def _cut_points(truth: HypothesisId, mus: LawSpec, pi: Pmf, m: int, k: int) -> np.ndarray:
    """The first K-1 cumulative sums (M, K-1) of each coordinate's law under a truth.

    A uniform u becomes the symbol #{j < K-1 : u >= cut_j}.
    """
    laws, row = _law_row(truth, mus, pi, m, k)
    return np.cumsum([law.probs for law in laws], axis=1)[row, : k - 1]


def _stream_rule(seed, m: int, n, first, count: int = 1) -> None:
    """The sampler's one input rule, for trials first .. first+count-1 of seed's stream.

    n is a whole number >= 1; seed entropy is a non-negative integer or a
    non-empty list or tuple of them; trial indices are whole numbers >= 0
    whose blocks end inside the stream's period, so no trial reads
    another's draws.
    """
    require(isinstance(n, numbers.Integral) and n >= 1,
            "sample sizes must be whole numbers of at least 1")
    words = seed if isinstance(seed, (tuple, list)) else (seed,)
    require(bool(words) and all(isinstance(w, numbers.Integral) and w >= 0 for w in words),
            "seed entropy must be a non-negative integer or a sequence of them")
    require(isinstance(first, numbers.Integral) and first >= 0,
            "trial indices must be whole numbers of at least 0")
    require((first + count) * m * n <= 1 << 128,  # PCG64's period
            "trials past the stream's period would repeat earlier draws")


def _uniforms(seed, m: int, n: int, first: int, count: int = 1) -> np.ndarray:
    """Draws [first·M·n, (first+count)·M·n) of seed's PCG64 stream, as (count, M, n).

    Trial t is block t of the stream, its M·n draws in (coordinate, sample)
    order, reached by `PCG64.advance`: `random` takes one 64-bit output per
    float64.
    """
    _stream_rule(seed, m, n, first, count)
    bits = np.random.PCG64(np.random.SeedSequence(seed))
    bits.advance(first * m * n)
    return np.random.Generator(bits).random((count, m, n))


def generate(truth: HypothesisId, mus: LawSpec, pi: Pmf, m: int, n: int, k: int, seed,
             trial: int = 0) -> ObservationMatrix:
    """Draw trial `trial`'s observation matrix: outlier rows from their laws, the rest from pi.

    At trial 0 the matrix is `default_rng(SeedSequence(seed)).random((m, n))`
    cut into symbols.
    """
    cuts = _cut_points(truth, mus, pi, m, k)
    u = _uniforms(seed, m, n, trial)[0]
    return ObservationMatrix((u[:, :, None] >= cuts[:, None, :]).sum(axis=2), k)


def sample_counts(truth: HypothesisId, mus: LawSpec, pi: Pmf, m: int, n: int, k: int, seed,
                  trials: range) -> np.ndarray:
    """Symbol counts (len(trials), M, K) of the matrices `generate` draws for these trials.

    `trials` is a range of consecutive trial indices; their uniforms are one
    `random` call on seed's stream, and they map to symbols by `generate`'s
    cut points: a symbol is at least j+1 exactly when u >= cut_j.  Only the
    counts are kept.
    """
    cuts = _cut_points(truth, mus, pi, m, k)
    require(isinstance(trials, range) and trials.step == 1,
            "trials must be a range of consecutive trial indices")
    u = _uniforms(seed, m, n, trials.start, len(trials))
    # at_least[..., j]: samples of each row with symbol >= j
    at_least = np.zeros((len(trials), m, k + 1), dtype=np.int64)
    at_least[..., 0] = n
    for j in range(k - 1):
        at_least[..., j + 1] = np.count_nonzero(u >= cuts[None, :, j, None], axis=2)
    return at_least[..., :-1] - at_least[..., 1:]


def estimate_error(cfg: SimConfig, truth: HypothesisId, n: int) -> ErrorEstimate:
    """Fraction of seeded trials on which the detector misses the truth.

    Trial i draws its matrix as `generate(..., (seed, truth index, n), i)`
    does.  Trials are counted and scored in batches of up to MC_CHUNK, one
    kernel call per batch; a batch's size changes no trial's decision.
    """
    m = cfg.family.m
    truth_index = cfg.family.index_of(truth)
    scorer = Scorer(cfg.kind, cfg.family, cfg.k, mu=_detector_mu(cfg.mu, cfg.mus), pi=cfg.pi)
    truth_col = truth_index - cfg.family.include_null  # as Scorer.column: NULL's is -1
    lam = null_threshold(cfg.kind, cfg.lam, m, n, cfg.k)
    batch = max(1, min(MC_CHUNK, MC_MAX_DRAWS // (m * n)))
    seed = (cfg.seed, truth_index, n)
    errors = 0
    for start in range(0, cfg.trials, batch):
        trials = range(start, min(start + batch, cfg.trials))
        counts = sample_counts(truth, cfg.mus, cfg.pi, m, n, cfg.k, seed, trials)
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
    slope_hi from the lower bounds; fit is None when fewer than 4 points
    saw any errors, in which case slope_lo still provides the
    "exponent at least this" reading.
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
    if len(nonzero) >= 4:
        fit = exponent_fit([cfg.n_grid[i] for i in nonzero],
                           np.log([ests[i].estimate for i in nonzero]))

    slope_lo = exponent_fit(cfg.n_grid, np.log([min(e.hi, 1.0 - 1e-12) for e in ests])).slope
    if all(e.lo > 0 for e in ests):
        slope_hi = exponent_fit(cfg.n_grid, np.log([e.lo for e in ests])).slope
    else:
        slope_hi = float("inf")
    return SweepResult(tuple(cfg.n_grid), tuple(ests), fit, slope_lo, slope_hi)
