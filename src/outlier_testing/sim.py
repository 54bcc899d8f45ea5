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

import functools
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
from .errors import ValidationError
from .oracle import ExponentFit, LawSpec, _detector_mu, _law_rows, check_laws, exponent_fit
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
    pi: Pmf = None  # required: None is rejected
    mu: Optional[Pmf] = None  # detector-side outlier law, when the kind uses one
    lam: Optional[float] = None  # None = the vanishing default threshold

    def __post_init__(self):
        if not isinstance(self.trials, numbers.Integral) or self.trials < 100:
            raise ValidationError("need a whole number of at least 100 trials per point")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")
        if not self.n_grid or any(not isinstance(n, numbers.Integral) or n < 1
                                  for n in self.n_grid):
            raise ValidationError("n grid must hold positive whole sample sizes")
        check_laws(self.mus, self.pi, self.family.m, self.k)


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
    laws, rows = _law_rows([truth], mus, pi, m, k)
    return np.cumsum([law.probs for law in laws], axis=1)[rows[0], : k - 1]


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
    cuts = _cut_points(truth, mus, pi, m, k)
    u = np.random.default_rng(np.random.SeedSequence(seed)).random((m, n))
    return ObservationMatrix((u[:, :, None] >= cuts[:, None, :]).sum(axis=2), k)


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

    Seeds are non-negative integers or equal-length tuples of them.  The
    batch's seeds are expanded together (`_seed_states`), bit-identical to
    `default_rng(SeedSequence(seed))` for each seed, so every trial draws
    the uniforms `generate` draws, and they map to symbols by the same cut
    points: a symbol is at least j+1 exactly when u >= cut_j.  Only the
    counts are kept.
    """
    cuts = _cut_points(truth, mus, pi, m, k)
    u = np.empty((len(seeds), m, n))
    for rows, states in _seed_states(seeds):
        for row, state in zip(rows, states):
            np.random.Generator(np.random.PCG64(_SeedWords(state))).random(out=u[row])
    # at_least[..., j]: samples of each row with symbol >= j
    at_least = np.zeros((len(seeds), m, k + 1), dtype=np.int64)
    at_least[..., 0] = n
    for j in range(k - 1):
        at_least[..., j + 1] = np.count_nonzero(u >= cuts[None, :, j, None], axis=2)
    return at_least[..., :-1] - at_least[..., 1:]


# numpy's SeedSequence hashing (numpy/random/bit_generator.pyx) at the
# default pool size, run on uint32 vectors with one entry per seed
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


@functools.cache
def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The multipliers `calls` successive hashmix steps use, as a (calls+1, 1) uint32 column."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    table = np.array(consts, dtype=np.uint32)[:, None]
    table.flags.writeable = False  # shared by every call
    return table


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's hashmix; step j (row j of the result) xors consts[j], multiplies by consts[j+1]."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> 16)


def _pool_words(words: np.ndarray) -> np.ndarray:
    """`SeedSequence(entropy).generate_state(4, np.uint64)` for every column of `words`.

    `words` is (L, B) uint32, column b holding seed b's entropy words.
    Every step of numpy's pool hashing runs once on the whole row of B
    seeds; the hash constants depend on no seed, so they are tabled.
    """
    length, batch = words.shape
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL * max(length, _POOL))
    pool = np.zeros((_POOL, batch), dtype=np.uint32)
    pool[: min(length, _POOL)] = words[:_POOL]
    pool = _hashmix(pool, consts[: _POOL + 1])
    step = _POOL
    for src in range(_POOL):
        # mix a hash of this pool word into each of the others
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[step : step + _POOL]))
        step += _POOL - 1
    for word in words[_POOL:]:
        # entropy past the pool size: mix a hash of each word into every pool word
        pool = _mix(pool, _hashmix(word, consts[step : step + _POOL + 1]))
        step += _POOL
    # generate_state reads the pool twice round for 8 uint32 words, pairs little-endian
    state = _hashmix(np.tile(pool, (2, 1)), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def _seed_states(seeds):
    """Each seed's PCG64 state words, as `SeedSequence(seed).generate_state(4, np.uint64)`.

    Yields (rows, states) per group of seeds whose entropy words have one
    layout: their positions in `seeds` and a (rows, 4) uint64 array.  Each
    integer splits into little-endian 32-bit words as SeedSequence splits
    it (0 is one word), the whole batch at once.  Seeds whose integers
    split into different word counts are hashed apart: padding them to one
    length would change the hash.
    """
    table = np.array(seeds, dtype=object).reshape(len(seeds), -1)
    if table.min() < 0:
        raise ValidationError("seeds must be non-negative integers")
    if table.max() <= _MASK32:  # every integer is one word: the batch has one layout
        yield np.arange(len(seeds)), _pool_words(table.T.astype(np.uint32))
        return
    # words[w][b, c]: word w of integer c of seed b; counts[b, c]: how many it has
    words = [(table & _MASK32).astype(np.uint32)]
    counts = np.ones(table.shape, dtype=np.int64)
    rest = table >> 32
    while rest.any():
        counts += rest != 0
        words.append((rest & _MASK32).astype(np.uint32))
        rest = rest >> 32
    for layout in np.unique(counts, axis=0):
        rows = np.flatnonzero((counts == layout).all(axis=1))
        entropy = np.stack([words[w][rows, c] for c, used in enumerate(layout)
                            for w in range(used)])
        yield rows, _pool_words(entropy)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands a bit generator its precomputed `generate_state(4, np.uint64)` words.

    PCG64 seeds itself from these exactly as from the SeedSequence they
    were computed for; it asks for nothing else.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("precomputed seed words serve generate_state(4, np.uint64) only")
        return self.words


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
    scorer = Scorer(cfg.kind, cfg.family, cfg.k, mu=_detector_mu(cfg.mu, cfg.mus), pi=cfg.pi)
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
        fit = exponent_fit([cfg.n_grid[i] for i in nonzero],
                           np.log([ests[i].estimate for i in nonzero]))

    slope_lo = exponent_fit(cfg.n_grid, np.log([min(e.hi, 1.0 - 1e-12) for e in ests])).slope
    if all(e.lo > 0 for e in ests):
        slope_hi = exponent_fit(cfg.n_grid, np.log([e.lo for e in ests])).slope
    else:
        slope_hi = float("inf")
    return SweepResult(tuple(cfg.n_grid), tuple(ests), fit, slope_lo, slope_hi)
