"""Finite-alphabet probability primitives.

Probability mass functions over an alphabet {0, ..., K-1}, entropy, and the
three divergences everything else is built on: relative entropy (KL),
Bhattacharyya distance, and Chernoff information.
All logarithms are natural; the 0*ln(0) = 0 convention is applied by
skipping zero-mass terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import rel_entr, xlogy

from .errors import SupportError, ValidationError

#: entries below this are treated as structural zeros for support checks
FULL_SUPPORT_MIN = 1e-12

#: tolerance on sum(probs) == 1 at construction
NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class Pmf:
    """A probability mass function on {0, ..., K-1}, K >= 2.

    Construction rejects vectors that are not normalized to within
    NORMALIZATION_TOL; use :meth:`normalize` to renormalize explicitly.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise ValidationError(f"pmf must be a vector of length >= 2, got shape {p.shape}")
        if not 0 <= p.min() <= p.max() < math.inf:  # False on a NaN too
            raise ValidationError("pmf entries must be finite and nonnegative")
        if abs(p.sum() - 1.0) > NORMALIZATION_TOL:
            raise ValidationError(f"pmf entries sum to {p.sum()!r}, not 1 within {NORMALIZATION_TOL}")
        p = p + 0.0  # a copy, with -0.0 as +0.0: equal pmfs hash alike
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def normalize(cls, weights) -> "Pmf":
        """Build a Pmf from nonnegative weights, dividing by their sum."""
        w = np.asarray(weights, dtype=float)
        s = w.sum()
        if not (0 < s < math.inf and w.min() >= 0):  # False on a NaN too
            raise ValidationError("weights must be nonnegative with a positive sum")
        return cls(w / s)

    @property
    def size(self) -> int:
        return self.probs.size

    def full_support(self) -> bool:
        return bool(self.probs.min() >= FULL_SUPPORT_MIN)

    def __eq__(self, other):
        if not isinstance(other, Pmf):
            return NotImplemented
        return self.probs.shape == other.probs.shape and bool(np.all(self.probs == other.probs))

    def __hash__(self):
        return hash(self.probs.tobytes())


def _check_same_length(p: Pmf, q: Pmf) -> None:
    if p.size != q.size:
        raise ValidationError(f"alphabet sizes differ: {p.size} vs {q.size}")


def kl(p: Pmf, q: Pmf) -> float:
    """Relative entropy D(p || q) in nats.

    Raises SupportError when p puts mass where q has none (the divergence
    would be infinite).
    """
    _check_same_length(p, q)
    terms = rel_entr(p.probs, q.probs)
    if np.any(np.isinf(terms)):
        raise SupportError("D(p||q) infinite: support(p) not contained in support(q)")
    return float(max(terms.sum(), 0.0))


def entropy(p: Pmf) -> float:
    """Shannon entropy H(p) in nats."""
    return float(max(-xlogy(p.probs, p.probs).sum(), 0.0))


def bhattacharyya(p: Pmf, q: Pmf) -> float:
    """Bhattacharyya distance -ln sum_y sqrt(p(y) q(y))."""
    _check_same_length(p, q)
    s = np.sqrt(p.probs * q.probs).sum()
    if s <= 0:
        raise SupportError("supports of p and q are disjoint")
    return float(max(-math.log(min(s, 1.0)), 0.0))


def _log_sum_exp(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) over the last axis, with scipy's algorithm and bits.

    Like scipy's ``logsumexp`` it sums the maximal terms apart (Blanchard,
    Higham and Higham, IMA J. Numer. Anal. 41(4), 2021,
    doi:10.1093/imanum/draa038), without scipy's argument handling (about
    70 us a call, more than the oracle's small rows).  One reduction sums
    the shifted terms, 0 at the maxima, and the maxima's count.  Rows of -inf give -inf.
    """
    top = x.max(axis=-1, keepdims=True)
    below = x < top
    parts = np.zeros((2,) + x.shape)
    np.exp(np.subtract(x, top, out=parts[0], where=below), out=parts[0], where=below)
    np.equal(x, top, out=parts[1])
    terms, count = parts.sum(axis=-1)
    return np.log1p(terms / count) + np.log(count) + top[..., 0]


def _chernoff_objective(log_p: np.ndarray, log_q: np.ndarray, s: float) -> float:
    # -ln sum p^s q^(1-s): each term lies between min(p, q) >= FULL_SUPPORT_MIN
    # and 1, so the direct sum neither underflows nor overflows
    return -math.log(np.exp(s * log_p + (1.0 - s) * log_q).sum())


def chernoff(p: Pmf, q: Pmf) -> float:
    """Chernoff information max_{s in [0,1]} -ln sum p^s q^(1-s).

    The inner objective is concave in s; scipy's bounded scalar search
    (xatol 1e-10) finds the maximizer s*.  The objective is flat there, so
    the value agrees with a search at xatol 1e-12 to within 1e-12, while
    s* is only as close as the float objective resolves its flat top.
    """
    value, _ = chernoff_with_optimizer(p, q)
    return value


def chernoff_with_optimizer(p: Pmf, q: Pmf) -> tuple[float, float]:
    """Chernoff information together with the maximizing exponent s*."""
    _check_same_length(p, q)
    if not (p.full_support() and q.full_support()):
        raise SupportError("chernoff requires full-support pmfs")
    # imported here, not at module scope: the CLI's oracle, detect and
    # simulate import this module but never search
    from scipy.optimize import minimize_scalar

    log_p = np.log(p.probs)
    log_q = np.log(q.probs)
    res = minimize_scalar(lambda s: -_chernoff_objective(log_p, log_q, s), bounds=(0.0, 1.0),
                          method="bounded", options={"xatol": 1e-10})
    s_star = float(res.x)
    return max(_chernoff_objective(log_p, log_q, s_star), 0.0), s_star


def chernoff_pair_product(mu_i: Pmf, mu_j: Pmf, pi: Pmf) -> float:
    """Chernoff information between mu_i x pi and pi x mu_j on the product alphabet."""
    _check_same_length(mu_i, pi)
    _check_same_length(mu_j, pi)
    left = Pmf(np.outer(mu_i.probs, pi.probs).ravel())
    right = Pmf(np.outer(pi.probs, mu_j.probs).ravel())
    return chernoff(left, right)


def geometric_midpoint(p: Pmf, q: Pmf) -> Pmf:
    """The pmf proportional to sqrt(p q), minimizing D(.||p) + D(.||q)."""
    _check_same_length(p, q)
    w = np.sqrt(p.probs * q.probs)
    if w.sum() <= 0:
        raise SupportError("supports of p and q are disjoint")
    return Pmf.normalize(w)


def mixture(pmfs: list[Pmf], weights) -> Pmf:
    """Pointwise convex combination of pmfs."""
    if not pmfs:
        raise ValidationError("mixture of zero pmfs")
    w = np.asarray(weights, dtype=float)
    if w.size != len(pmfs) or np.any(w < 0) or abs(w.sum() - 1.0) > NORMALIZATION_TOL:
        raise ValidationError("weights must be nonnegative and sum to 1")
    k = pmfs[0].size
    for p in pmfs:
        if p.size != k:
            raise ValidationError("mixture components have differing alphabet sizes")
    stacked = np.stack([p.probs for p in pmfs])
    return Pmf.normalize(w @ stacked)

