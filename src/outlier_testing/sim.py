"""Seeded Monte Carlo estimation of detector error probabilities.

Covers sample sizes beyond exact enumeration.  Per-trial seeds are
derived from the master seed and the (truth, n, trial) indices, so
trials are order-independent and results are bit-stable regardless of
scheduling.  Every detector reads only the rows' symbol counts, so trials
are kept as a (trials, M, K) count tensor and scored in batches by the
detectors' kernel.  Confidence intervals are exact Clopper-Pearson, which
behaves sensibly at the near-zero error rates this package lives in.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.stats import beta

from .detectors import (
    DetectorKind,
    HypothesisFamily,
    HypothesisId,
    ObservationMatrix,
    Scorer,
    decide_batch,
    null_threshold,
)
from .errors import ValidationError
from .oracle import ExponentFit, LawSpec, coordinate_laws, exponent_fit
from .simplex import Pmf

RNG_ALGORITHM = "numpy-pcg64-seedsequence"

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
    pi: Optional[Pmf] = None
    mu: Optional[Pmf] = None  # detector-side outlier law, when the kind uses one
    t: Optional[int] = None
    lam: Optional[float] = None  # None = the vanishing default threshold

    def __post_init__(self):
        if self.trials < 100:
            raise ValidationError("need at least 100 trials per point")
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            raise ValidationError("n grid must hold positive sample sizes")
        for law in self._all_laws():
            if law.size != self.k or not law.full_support():
                raise ValidationError("laws must be full-support pmfs on the declared alphabet")
        if self.mus is not None and not isinstance(self.mus, Pmf) \
                and len(self.mus) != self.family.m:
            raise ValidationError(f"need one outlier law per coordinate: got {len(self.mus)}, "
                                  f"M={self.family.m}")

    def _all_laws(self):
        laws = []
        if self.pi is not None:
            laws.append(self.pi)
        if isinstance(self.mus, Pmf):
            laws.append(self.mus)
        elif self.mus is not None:
            laws.extend(self.mus)
        return laws


@dataclass(frozen=True)
class ErrorEstimate:
    """Monte Carlo error estimate with a two-sided 95% Clopper-Pearson interval."""

    estimate: float
    lo: float
    hi: float
    trials: int
    errors: int


def clopper_pearson(errors: int, trials: int, alpha: float = 0.05) -> tuple[float, float]:
    """Exact binomial confidence interval for an error count."""
    if not 0 <= errors <= trials or trials < 1:
        raise ValidationError("need 0 <= errors <= trials")
    lo = 0.0 if errors == 0 else float(beta.ppf(alpha / 2, errors, trials - errors + 1))
    hi = 1.0 if errors == trials else float(beta.ppf(1 - alpha / 2, errors + 1, trials - errors))
    return lo, hi


def generate(
    truth: HypothesisId,
    mus: LawSpec,
    pi: Pmf,
    m: int,
    n: int,
    k: int,
    seed,
) -> ObservationMatrix:
    """Draw an observation matrix: outlier rows from their laws, the rest from pi."""
    laws = coordinate_laws(truth, m, mus, pi)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    u = rng.random((m, n))
    data = np.empty((m, n), dtype=np.int64)
    for i, law in enumerate(laws):
        data[i] = np.searchsorted(np.cumsum(law.probs), u[i], side="right")
    np.clip(data, 0, k - 1, out=data)
    return ObservationMatrix(data, k)


def sample_counts(
    truth: HypothesisId,
    mus: LawSpec,
    pi: Pmf,
    m: int,
    n: int,
    k: int,
    seeds,
) -> np.ndarray:
    """Symbol counts (len(seeds), M, K) of the matrices `generate` draws from these seeds.

    Each seed's uniforms map to symbols as in `generate`: the symbol of u
    is the number of entries of the law's cumulative sum at most u, capped
    at K-1, so it is at least j+1 exactly when u >= cumsum[j], j < K-1.
    Only the counts are kept.
    """
    laws = coordinate_laws(truth, m, mus, pi)
    cuts = np.stack([np.cumsum(law.probs) for law in laws])[:, : k - 1]
    u = np.stack([np.random.default_rng(np.random.SeedSequence(s)).random((m, n)) for s in seeds])
    # at_least[..., j]: samples of each row with symbol >= j
    at_least = np.zeros((len(seeds), m, k + 1), dtype=np.int64)
    at_least[..., 0] = n
    for j in range(k - 1):
        at_least[..., j + 1] = np.count_nonzero(u >= cuts[None, :, j, None], axis=2)
    return at_least[..., :-1] - at_least[..., 1:]


def _trial_seed(master: int, truth_index: int, n: int, trial: int):
    return (master, truth_index, n, trial)


def estimate_error(cfg: SimConfig, truth: HypothesisId, n: int) -> ErrorEstimate:
    """Fraction of seeded trials on which the detector misses the truth.

    Trial i draws its matrix from its own stream, seeded by (seed, truth
    index, n, i) as `generate` is.  Trials are counted and scored in
    batches of up to MC_CHUNK, one kernel call per batch; a batch's size
    changes no trial's decision.
    """
    m = cfg.family.m
    truth_index = cfg.family.index_of(truth)
    mu = cfg.mu if cfg.mu is not None else (cfg.mus if isinstance(cfg.mus, Pmf) else None)
    scorer = Scorer(cfg.kind, m, cfg.k, mu=mu, pi=cfg.pi, t=cfg.t, family=cfg.family)
    truth_col = scorer.column(truth)
    lam = null_threshold(cfg.kind, cfg.lam, m, n, cfg.k)
    batch = max(1, min(MC_CHUNK, MC_MAX_DRAWS // (m * n)))
    errors = 0
    for start in range(0, cfg.trials, batch):
        seeds = [_trial_seed(cfg.seed, truth_index, n, trial)
                 for trial in range(start, min(start + batch, cfg.trials))]
        counts = sample_counts(truth, cfg.mus, cfg.pi, m, n, cfg.k, seeds)
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
        fit = exponent_fit([cfg.n_grid[i] for i in nonzero], [ests[i].estimate for i in nonzero])

    slope_lo = exponent_fit(cfg.n_grid, [min(e.hi, 1.0 - 1e-12) for e in ests]).slope
    if all(e.lo > 0 for e in ests):
        slope_hi = exponent_fit(cfg.n_grid, [e.lo for e in ests]).slope
    else:
        slope_hi = float("inf")
    return SweepResult(tuple(cfg.n_grid), tuple(ests), fit, slope_lo, slope_hi)
