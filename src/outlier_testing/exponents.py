"""Error-exponent formulas, bound optimizations, and their numerical solvers.

Closed forms cover the known-law settings.  The fully universal settings
require two kinds of optimization:

* a nonconvex pair program with a difference-of-divergences constraint,
  which over M coordinates reduces to a weighted program over at most
  2T + 1 simplices whatever M is (one row per class of equal rows),
  solved from several starts by SLSQP in per-row softmax coordinates with
  analytic gradients; each start's end point is re-checked against the
  constraint in probability space, and the best feasible one is kept
  (certified for K=2, M=3 by an exhaustive grid oracle);
* a convex minimization of a Bhattacharyya objective over relative
  entropy balls, solved by Frank-Wolfe for a batch of balls at once: the
  linear subproblem over a ball is a one-dimensional exponential tilt,
  and the exact step length a root of the objective's derivative along
  the segment (or the full step), both found by bracketed Newton steps;
  the strong convexity of the ball yields fast convergence of the gap.

The single-outlier lower bound pairs that ball with a penalized closed
form, evaluated on a fixed grid, whose gap to the both-known optimum
shrinks like 1/M.

`scipy.optimize` is imported inside the pair-program solve, so that
importing this module (as the CLI does for every subcommand) does not
load the optimizer; only the subcommands that run it pay for it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations, combinations_with_replacement
from typing import Optional, Sequence

import numpy as np
from scipy.special import rel_entr, xlogy

from .errors import SolverError, ValidationError, require, whole
from .simplex import FULL_SUPPORT_MIN, Pmf, bhattacharyya, chernoff_pair_product

FEASIBILITY_TOL = 1e-8
FW_GAP_TOL = 1e-8
FW_MAX_ITERS = 50000
PENALTY_GRID = 1024  # cells of the TV-radius grid in the penalized closed form
PENALTY_BLOCK = 2 ** 14  # (M, grid, K) cells of the penalized closed form per block
NEWTON_TOL = 1e-7  # Newton stops after a step this small relative to its iterate
THETA_MAX = 2.0 ** 40  # tilt at which an out-of-reach radius takes the vertex
SLSQP_OPTIONS = {"ftol": 1e-12, "maxiter": 500}


@dataclass(frozen=True)
class ExponentResult:
    """Value of an exponent formula or optimization plus solver diagnostics."""

    value: float
    solver: str
    iterations: int = 0
    feasibility_gap: float = 0.0
    minimizer: Optional[tuple[Pmf, ...]] = None

    def __post_init__(self):
        if self.value < 0:
            raise ValidationError("exponent values are nonnegative")


@dataclass(frozen=True)
class KlBallSpec:
    """The constraint set {q : D(q||center) <= radius}."""

    center: Pmf
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValidationError("radius must be >= 0")
        if not self.center.full_support():
            raise ValidationError("ball center must have full support")


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the multistart pair-program solver: random starts and their seed."""

    restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        whole(self.restarts, "solver restarts")
        whole(self.seed, "solver seeds")


def _check_model(mu: Pmf, pi: Pmf) -> None:
    if mu.size != pi.size:
        raise ValidationError("mu and pi live on different alphabets")
    if not (mu.full_support() and pi.full_support()):
        raise ValidationError("laws must have full support")
    if (np.abs(mu.probs - pi.probs) <= 1e-15 + 1e-5 * np.abs(pi.probs)).all():
        raise ValidationError("mu must differ from pi")


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def exponent_both_known(mu: Pmf, pi: Pmf) -> ExponentResult:
    """Optimal single-outlier exponent with both laws known: twice the Bhattacharyya distance."""
    _check_model(mu, pi)
    return ExponentResult(2.0 * bhattacharyya(mu, pi), "closed_form")


def exponent_multi_known(mus: Sequence[Pmf], pi: Pmf) -> ExponentResult:
    """Optimal fixed-size multi-outlier exponent with all laws known.

    The minimum over coordinate pairs of the Chernoff information
    between the two swapped product laws on the squared alphabet.
    """
    mus = list(mus)
    if len(mus) < 2:
        raise ValidationError("need at least two outlier laws")
    for mu in mus:
        _check_model(mu, pi)
    best = min(chernoff_pair_product(a, b, pi) for a, b in combinations(mus, 2))
    return ExponentResult(best, "one_dim_search")


def exponent_multi_typ_known(mus: Sequence[Pmf], pi: Pmf) -> ExponentResult:
    """Fixed-size multi-outlier exponent achievable knowing only the typical law."""
    mus = list(mus)
    if not mus:
        raise ValidationError("need at least one outlier law")
    for mu in mus:
        _check_model(mu, pi)
    return ExponentResult(min(2.0 * bhattacharyya(mu, pi) for mu in mus), "closed_form")


# ---------------------------------------------------------------------------
# The nonconvex constrained program (fully universal settings)
# ---------------------------------------------------------------------------


def _dispersion(q: np.ndarray, w: np.ndarray, outside: np.ndarray) -> float:
    """sum over rows r of an outside set of w_r D(q_r || their w-weighted mean)."""
    w_out = w[outside, None]
    mix = (w_out * q[outside]).sum(axis=0) / w_out.sum()
    return float((w_out * rel_entr(q[outside], mix[None, :])).sum())


def _grad_dispersion(log_q: np.ndarray, w: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """Gradient of _dispersion in q, from log q: w_r log(q_r / mix) on the outside rows."""
    g = np.zeros_like(log_q)
    w_out = w[outside, None]
    # the mixture stays in log space: a linear-space mix underflows on far starts
    log_mix = np.logaddexp.reduce(log_q[outside] + np.log(w_out), axis=0) - math.log(w_out.sum())
    g[outside] = w_out * (log_q[outside] - log_mix[None, :])
    return g


def _solve_pair_program(
    laws: np.ndarray, counts: np.ndarray, pooled: int, pi: np.ndarray,
    key: tuple[int, ...], opts: SolverOptions,
) -> tuple[float, float, int, np.ndarray]:
    """The pair program of a truth S and a rival S', d = |S \\ S'|, on weighted rows.

    Over M rows it minimizes sum_i D(q_i || ref_i) subject to the dispersion
    outside S being at least that outside S'.  Rows in both S and S' sit at
    their laws at no cost.  Rows of S \\ S' are outside S' only, so by convexity
    and the concavity of entropy those of one law pool into one row; rows
    outside S and S' are outside both, where only their mean counts, so
    they pool too.  The rows are one per distinct law of S \\ S' (weights
    ``counts``), the d rows of S' \\ S and the pool (reference pi, weights 1
    and ``pooled``); a row of weight w counts as w equal rows.  Each start
    runs one SLSQP solve over the row logits z of q = softmax(z) and counts
    only if its end point, polished onto the constraint, violates it by at
    most FEASIBILITY_TOL.  Returns (value, gap, iterations, rows) of the best.
    """
    from scipy.optimize import minimize

    n, k = laws.shape
    d = int(counts.sum())
    rows = n + d + 1
    refs = np.vstack([laws, np.tile(pi, (d + 1, 1))])
    w = np.array([*counts, *[1] * d, pooled], dtype=float)
    out_s = np.arange(n, rows)
    out_sp = np.array([*range(n), rows - 1])
    # the law of S \ S' that each row of S' \ S swaps with
    partners = np.repeat(np.arange(n), counts)

    # strictly feasible anchor: typical everywhere except the rows of S' \ S,
    # at their partners' laws, which keeps the S'-side dispersion at zero
    anchor = np.vstack([np.tile(pi, (n, 1)), laws[partners], pi])

    # boundary start: each swapped pair at the geometric midpoint of its law and pi
    gm = np.sqrt(laws * pi)
    gm = gm / gm.sum(axis=1, keepdims=True)
    boundary = np.vstack([gm, gm[partners], pi])

    rng = np.random.default_rng(np.random.SeedSequence((opts.seed, *key)))
    starts = [refs, anchor, boundary]
    starts += [rng.dirichlet(np.ones(k), size=rows) for _ in range(opts.restarts)]

    log_refs = np.log(refs)

    def unpack(z):
        # log q as a log-softmax: log(softmax(z)) underflows to -inf on far starts
        z = z.reshape(rows, k)
        log_q = z - np.logaddexp.reduce(z, axis=1, keepdims=True)
        return np.exp(log_q), log_q

    def through_softmax(q, g):
        """The q-gradient g chained through the row softmax to the logits."""
        return (q * (g - (q * g).sum(axis=1, keepdims=True))).ravel()

    def objective(z):
        q, log_q = unpack(z)
        return (float((w[:, None] * q * (log_q - log_refs)).sum()),
                through_softmax(q, w[:, None] * (log_q - log_refs + 1.0)))

    def dispersion_gap(q):
        return _dispersion(q, w, out_s) - _dispersion(q, w, out_sp)

    def dispersion_gap_grad(z):
        q, log_q = unpack(z)
        return through_softmax(
            q, _grad_dispersion(log_q, w, out_s) - _grad_dispersion(log_q, w, out_sp))

    constraint = {"type": "ineq", "fun": lambda z: dispersion_gap(unpack(z)[0]),
                  "jac": dispersion_gap_grad}
    best_val, best_gap, best_q = math.inf, math.inf, None
    total_iters = 0
    for q0 in starts:
        res = minimize(objective, np.log(q0).ravel(), jac=True, method="SLSQP",
                       constraints=constraint, options=SLSQP_OPTIONS)
        total_iters += res.nit
        # one Newton step along the constraint's gradient polishes an end outside it
        z, excess = res.x, dispersion_gap(unpack(res.x)[0])
        if excess < 0.0:
            grad = dispersion_gap_grad(z)
            z = z - excess * grad / (grad * grad).sum()
        # the certificate is checked on the pmfs themselves, not on SLSQP's report
        q = unpack(z)[0]
        gap = max(0.0, -dispersion_gap(q))
        if gap > FEASIBILITY_TOL:
            continue
        val = float((w[:, None] * rel_entr(q, refs)).sum())
        if val < best_val:
            best_val, best_gap, best_q = val, gap, q
    if best_q is None:
        raise SolverError("no start reached the feasibility tolerance")
    return best_val, best_gap, total_iters, best_q


def exponent_univ_single(
    mu: Pmf, pi: Pmf, m: int, opts: Optional[SolverOptions] = None
) -> ExponentResult:
    """Exponent achieved by the fully universal single-outlier test.

    `exponent_univ_multi` at T=1 on M copies of mu (three rows: mu's, the
    rival's and M - 2 pooled), capped at 2B(mu, pi).  The value is an upper
    bound on the true minimum (global optimality is certified only for K=2,
    via the grid oracle).
    """
    whole(m, "coordinate counts M", 3)
    res = exponent_univ_multi([mu] * m, pi, 1, opts)
    return replace(res, value=min(res.value, 2.0 * bhattacharyya(mu, pi)))


def exponent_univ_multi(
    mus: Sequence[Pmf], pi: Pmf, t: int, opts: Optional[SolverOptions] = None
) -> ExponentResult:
    """Exponent achieved by the fully universal fixed-size multi-outlier test.

    The minimum of the pair program over ordered pairs of distinct size-T
    outlier sets.  A pair enters it only through d = |S \\ S'|, the laws of
    S \\ S' and M - T - d, so the minimum runs over d = 1..T and the distinct
    multisets of d coordinate laws (equal laws have equal probabilities):
    T programs when all laws are equal.  The minimizer is laid out for one
    pair: S \\ S' holds the first coordinates of each law of the multiset,
    S' \\ S the next d coordinates, S and S' share the next T - d, at their
    own laws, and every other coordinate holds the pool.
    """
    mus = list(mus)
    m = len(mus)
    if not 1 <= whole(t, "outlier-set sizes T") < m / 2:
        raise ValidationError(f"need 1 <= T < M/2, got T={t}, M={m}")
    coords_of: dict[Pmf, list[int]] = {}
    for i, mu in enumerate(mus):
        coords_of.setdefault(mu, []).append(i)
    for mu in coords_of:
        _check_model(mu, pi)
    opts = opts or SolverOptions()
    classes = list(coords_of.values())
    best, total_iters = None, 0
    for d in range(1, t + 1):
        for pick in combinations_with_replacement(range(len(classes)), d):
            law_ids, counts = np.unique(pick, return_counts=True)
            if any(c > len(classes[j]) for j, c in zip(law_ids, counts)):
                continue
            a = [i for j, c in zip(law_ids, counts) for i in classes[j][:c]]
            # S' \ S, then the coordinates S and S' share
            rest = [i for i in range(t + d) if i not in a][:t]
            laws = np.stack([mus[classes[j][0]].probs for j in law_ids])
            val, gap, iters, q = _solve_pair_program(
                laws, counts, m - t - d, np.asarray(pi.probs), (d, *a, *rest[:d]), opts
            )
            total_iters += iters
            if best is None or val < best[0]:
                best = (val, gap, q, a, rest, counts)
    val, gap, q, a, rest, counts = best
    # table rows: the laws of S \ S', S' \ S, the coordinates S and S' share, the pool
    table = np.vstack([q[:-1], *(mus[i].probs for i in rest[len(a):]), q[-1]])
    rows = np.full(m, counts.size + t)
    rows[a] = np.repeat(np.arange(counts.size), counts)
    rows[rest] = np.arange(counts.size, counts.size + t)
    pmfs = [Pmf.normalize(row) for row in table]
    return ExponentResult(max(val, 0.0), "multistart_slsqp", iterations=total_iters,
                          feasibility_gap=gap, minimizer=tuple(pmfs[r] for r in rows))


# ---------------------------------------------------------------------------
# Exhaustive grid oracle (binary alphabet, M = 3)
# ---------------------------------------------------------------------------


def _binary_entropy(x: np.ndarray) -> np.ndarray:
    return -(xlogy(x, x) + xlogy(1.0 - x, 1.0 - x))


def _binary_kl(x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    return rel_entr(x, ref[0]) + rel_entr(1.0 - x, ref[1])


def grid_exponent_univ_single(mu: Pmf, pi: Pmf, steps: int = 400) -> ExponentResult:
    """Brute-force grid minimization of the universal single-outlier program.

    Binary alphabet, M = 3 only: each pmf is parameterized by its first
    component on a uniform grid, and the constraint is evaluated exactly
    at every feasible triple.
    """
    _check_model(mu, pi)
    if mu.size != 2:
        raise ValidationError("the grid oracle supports K = 2 only")
    whole(steps, "grid steps", 1)
    xs = np.arange(steps + 1) / steps
    h = _binary_entropy(xs)
    d_mu = _binary_kl(xs, np.asarray(mu.probs))
    d_pi = _binary_kl(xs, np.asarray(pi.probs))
    # b runs along axis 0 and c along axis 1
    side_a = 2.0 * _binary_entropy(0.5 * (xs[:, None] + xs[None, :])) - h[:, None] - h[None, :]
    obj_bc = d_pi[:, None] + d_pi[None, :]
    best = math.inf
    arg = None
    for i, a in enumerate(xs):
        side_b = 2.0 * _binary_entropy(0.5 * (a + xs)) - h[i] - h  # depends on c only
        feasible = side_a - side_b >= 0.0
        obj = np.where(feasible, d_mu[i] + obj_bc, math.inf)
        j = int(np.argmin(obj))
        if obj.flat[j] < best:
            best = float(obj.flat[j])
            jb, jc = divmod(j, steps + 1)
            arg = (a, float(xs[jb]), float(xs[jc]))
    assert arg is not None
    minimizer = tuple(Pmf(np.array([x, 1.0 - x])) for x in arg)
    return ExponentResult(best, "grid_oracle", iterations=(steps + 1) ** 3, minimizer=minimizer)


# ---------------------------------------------------------------------------
# Convex minimization over relative entropy balls (Frank-Wolfe), row by row
# ---------------------------------------------------------------------------


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _newton(fun, t: np.ndarray, hi, *data: np.ndarray) -> np.ndarray:
    """Per row, the root of an increasing function by Newton steps kept in a bracket.

    ``fun(t, *data)`` gives each row's value and Newton step at t as (rows, 1)
    columns.  The bracket starts as [0, hi]; a step leaving it (or NaN) gives
    way to the smaller of its midpoint and 2t.  A row leaves the batch once
    its step is at most NEWTON_TOL t, so its root does not depend on the others.
    """
    lo, hi, out, rows = np.zeros(t.shape), np.full(t.shape, hi), np.empty_like(t), np.arange(t.size)
    while True:
        f, step = fun(t, *data)
        np.copyto(lo, t, where=f < 0.0)
        np.copyto(hi, t, where=f >= 0.0)
        new = t + step
        ok = (new >= lo) & (new <= hi)
        if np.count_nonzero(ok) < len(ok):
            new = np.where(ok, new, np.minimum(0.5 * (lo + hi), 2.0 * t))
        done = (np.abs(new - t) <= NEWTON_TOL * t).ravel()
        n_done = np.count_nonzero(done)
        if n_done == len(done):
            out[rows] = new
            return out
        if n_done:
            out[rows[done]], keep = new[done], ~done
            rows, lo, hi, new, *data = (a[keep] for a in (rows, lo, hi, new, *data))
        t = new


def _tilt_to_radius(log_center: np.ndarray, direction: np.ndarray, radius, tau=None) -> np.ndarray:
    """argmin <direction, x> over D(x||center) <= radius, per row of (rows, K) directions.

    With d = direction - min direction, the tilt x = center exp(-theta d)/Z
    has D(theta) = -theta <d, x> - ln Z, dD/dtheta = theta Var_x(d) and D ~
    (theta sd)^2/2 near 0 (sd: of d under the center).  Newton on sqrt(D) -
    sqrt(radius) starts at theta sd = sqrt(2 radius) or at the column ``tau``
    of a previous call's theta sd, which it overwrites (at K=2 the tilt
    depends on theta sd alone).  Out of reach by THETA_MAX, it stops there.
    """
    def excess(theta, log_c, d, r):
        # D(theta) - r and the Newton step of sqrt(D) - sqrt(r)
        w = np.exp(log_c - theta * d)
        z = w.sum(axis=-1, keepdims=True)
        x = w / z
        mean = (x * d).sum(axis=-1, keepdims=True)
        div = -theta * mean - np.log(z)
        root = np.sqrt(div)
        var = (x * (d - mean) ** 2).sum(axis=-1, keepdims=True)
        return div - r, 2.0 * root * (np.sqrt(r) - root) / (theta * var)

    d = np.atleast_2d(direction) - np.min(direction, axis=-1, keepdims=True)
    log_c, r = np.atleast_2d(log_center), np.reshape(radius, (-1, 1))
    c = np.exp(log_c)
    sd = np.sqrt((c * (d - (c * d).sum(axis=-1, keepdims=True)) ** 2).sum(axis=-1, keepdims=True))
    tau = np.sqrt(2.0 * r) if tau is None else tau
    theta = _newton(excess, np.minimum(tau / (sd + 1e-300), THETA_MAX), THETA_MAX, log_c, d, r)
    tau[:] = theta * sd
    w = np.exp(log_c - theta * d)
    return (w / w.sum(axis=-1, keepdims=True)).reshape(np.shape(direction))


def _ball_minima(mu: np.ndarray, center: np.ndarray, radius: np.ndarray):
    """Per row r, min 2B(mu_r, q) over D(q||center) <= radius_r by Frank-Wolfe.

    mu is one pmf or one per row; a row whose mu lies in its ball has value 0
    at q = mu, the others step from the center toward the tilt along the
    gradient.  S(g) = sum sqrt(mu (q + g d)) is concave, so the exact step is 1
    if S'(1) >= 0, else the root of S' in [0, 1], by Newton with S'' from g = 1.
    Rows leave once their gap is at most FW_GAP_TOL.  Returns per row value,
    iterations, gap (>= 0) and q.
    """
    def slope(g, q, d, ad, reach):
        # -2 S'(g) and the Newton step on S'.  The floor keeps S', S'' finite; no
        # step goes halfway to where q + g d reaches 0 and S' is singular
        v = np.maximum(q + g * d, 1e-200)
        t = ad / np.sqrt(v)
        s = t.sum(axis=-1, keepdims=True)
        step = 2.0 * s / (t * d / v).sum(axis=-1, keepdims=True)
        near = (v * reach).min(axis=-1, keepdims=True)
        return -s, np.where(np.abs(step) <= near, step, np.nan)

    n = radius.size
    mu = np.zeros((n, 1)) + mu
    value, gaps, iters, qs = np.zeros(n), np.zeros(n), np.zeros(n, dtype=int), mu.copy()
    rows = np.nonzero((rel_entr(mu, center).sum(-1) > radius) | (mu < FULL_SUPPORT_MIN).any(-1))[0]
    q = np.zeros((rows.size, 1)) + center
    log_c, sqrt_mu, radius = np.log(q), np.sqrt(mu[rows]), radius[rows, None]
    tau = np.sqrt(2.0 * radius)
    for it in range(1, FW_MAX_ITERS + 1):
        if not rows.size:
            return value, iters, np.maximum(gaps, 0.0), qs
        sqrt_q = np.sqrt(q)
        s = (sqrt_mu * sqrt_q).sum(axis=-1, keepdims=True)
        grad = -sqrt_mu / np.maximum(sqrt_q, 1e-150) / s
        x = _tilt_to_radius(log_c, grad, radius, tau)
        gap = (grad * (q - x)).sum(axis=-1)
        done = gap <= FW_GAP_TOL
        if np.count_nonzero(done):
            at, keep = rows[done], ~done
            value[at], gaps[at], iters[at], qs[at] = -2 * np.log(s[done, 0]), gap[done], it, q[done]
            rows, log_c, sqrt_mu, radius, tau, q, x = (
                a[keep] for a in (rows, log_c, sqrt_mu, radius, tau, q, x))
        if rows.size:
            d = x - q
            q = q + _newton(slope, np.ones_like(radius), 1.0, q, d, sqrt_mu * d, 0.5 / abs(d)) * d
    raise SolverError(f"Frank-Wolfe did not reach duality gap {FW_GAP_TOL} (gap={gap.max():.3e})")


def min_over_kl_ball(mus: Sequence[Pmf] | Pmf, ball: KlBallSpec) -> ExponentResult:
    """Minimize min_i 2B(mu_i, q) over the relative entropy ball: the convex
    branches are one batch of rows, and the value is the smallest optimum."""
    mus = [mus] if isinstance(mus, Pmf) else list(mus)
    require(len(mus) > 0, "need at least one objective pmf")
    require(all(mu.size == ball.center.size for mu in mus),
            "objective and ball center alphabets differ")
    value, iters, gap, q = _ball_minima(np.stack([mu.probs for mu in mus]), ball.center.probs,
                                        np.full(len(mus), float(ball.radius)))
    best = int(np.argmin(value))
    return ExponentResult(max(float(value[best]), 0.0), "kl_ball_convex",
                          iterations=int(iters.sum()), feasibility_gap=float(gap.max()),
                          minimizer=(Pmf.normalize(q[best]),))


def typical_floor_log(pi: Pmf) -> float:
    """-ln of the smallest mass of pi; finite because pi has full support."""
    if not pi.full_support():
        raise ValidationError("pi must have full support")
    return float(-np.log(pi.probs.min()))


def _penalized_single_bound(
    mu: np.ndarray, pi: np.ndarray, bhat: float, ms: np.ndarray
) -> np.ndarray:
    """The penalized closed form of thm_single_lower_bound, for each M of ms.

    The minimum over t in [0, t_max], t_max = sqrt(B/(M-2)), is taken on a
    fixed grid of u = t/t_max: each cell pays the penalty at its left end
    and the bracket, which is nonincreasing in t, at its right end, so the
    grid value never exceeds the exact minimum.  At fixed u the penalty
    2(M-2)t^2 = 2B u^2 does not depend on M and the bracket grows with M,
    so the value is nondecreasing in M.  Blocks of M bound the temporaries.
    """
    g = -np.sqrt(mu / pi) / np.sqrt(mu * pi).sum()
    spread, pi_min = g.max() - g.min(), pi.min()
    u = np.linspace(0.0, 1.0, PENALTY_GRID + 1)
    penalty = 2.0 * bhat * u[:-1] ** 2
    # letters lead, so the max over them is an elementwise maximum of cells
    top, pi_k = np.minimum(mu + math.sqrt(bhat), 1.0)[:, None, None], pi[:, None, None]
    out = np.empty(ms.size)
    block = max(1, PENALTY_BLOCK // (PENALTY_GRID * pi.size))
    for start in range(0, ms.size, block):
        m = ms[start:start + block, None]
        t = u[1:] * np.sqrt(bhat / (m - 2))
        # past t = pi_min the reference change is unbounded and the bracket is 0
        reach = t < pi_min
        t = np.where(reach, t, 0.0)
        c = (top / (pi_k - t)).max(axis=0) - 1.0
        bracket = np.where(reach, np.maximum(
            0.0, 2.0 * bhat - spread * t + np.log1p(-t / pi_min) - c / (m - 1)), 0.0)
        out[start:start + block] = (penalty + bracket).min(axis=-1)
    return np.minimum(2.0 * bhat, out)


def thm_single_lower_bound(mu: Pmf, pi: Pmf, m):
    """Lower bound on the universal single-outlier exponent for given M.

    ``m`` is one M, or an array of M giving a list of results, solved as one
    batch in which no result depends on the other M.  Each is the larger of
    two lower bounds, each within [0, 2B] and nondecreasing in M; ``solver``
    names the one that gave the value.

    * ``kl_ball_convex``: the minimum of 2B(mu, q) over the KL ball
      D(q||pi) <= r, r = (2B + ln 1/pi_min)/(M-1), taken as the Frank-Wolfe
      value minus its duality gap, so that it certifies the ball minimum
      from below.  It never charges for moving q away from pi, so its gap
      to 2B shrinks like sqrt(r), i.e. O(1/sqrt(M)).
    * ``penalized_closed_form``: the bound below, whose gap is O(1/M).

    Derivation, for the error of hypothesis 1 against hypothesis 2.  Let p
    be the mean of q_3..q_M, t = TV(p, pi), and a (b) the mean of q_1 (q_2)
    and M-2 copies of p.  By the compensation identity
    S_2 - S_1 = D(q_1||p) - D(q_2||p) - (M-1)[D(a||p) - D(b||p)], so an error
    needs D(q_1||p) <= D(q_2||p) + chi2(q_1||p)/(M-1).  Only points of cost
    <= 2B can lower the minimum; for them sum_{j>=3} D(q_j||pi) >=
    (M-2) D(p||pi) >= 2(M-2)t^2, so t <= sqrt(B/(M-2)), and Pinsker keeps q_1
    within sqrt(B) of mu, so chi2(q_1||p) <= c(t).  Changing the reference
    of D(q_2||.) from p to pi costs at most log(1 - t/pi_min), and
    D(q_1||mu) + D(q_1||p) >= 2B(mu, p) >= 2B - R_g t by convexity.  Hence

        alpha(M) >= min{2B, min_{0 <= t <= sqrt(B/(M-2))} [2(M-2)t^2
                    + max(0, 2B - R_g t + log(1 - t/pi_min) - c(t)/(M-1))]}

    with g = -sqrt(mu/pi)/sum sqrt(mu pi) the gradient of 2B(mu, .) at pi,
    R_g = max g - min g, and c(t) = max_x min(mu_x + sqrt(B), 1)/(pi_x - t) - 1.
    Against the penalty, the terms linear in t cost at most O(1/(M-2)), as
    2(M-2)t^2 - R_g t >= -R_g^2/(8(M-2)), and c(t)/(M-1) is O(1/M), so the
    gap to 2B is O(1/M).
    """
    _check_model(mu, pi)
    ms = np.array([whole(v, "coordinate counts M", 3) for v in np.atleast_1d(m)], dtype=np.int64)
    bhat = bhattacharyya(mu, pi)
    radius = (2.0 * bhat + typical_floor_log(pi)) / (ms - 1)
    value, iters, gap, q = _ball_minima(mu.probs, pi.probs, radius)
    ball = np.maximum(np.maximum(value, 0.0) - gap, 0.0)
    closed = _penalized_single_bound(mu.probs, pi.probs, bhat, ms)
    out = [ExponentResult(float(c), "penalized_closed_form", iterations=int(it)) if c > b else
           ExponentResult(float(b), "kl_ball_convex", iterations=int(it), feasibility_gap=float(g),
                          minimizer=(Pmf.normalize(row),))
           for c, b, it, g, row in zip(closed, ball, iters, gap, q)]
    return out if np.ndim(m) else out[0]


def thm_multi_lower_bound(mus: Sequence[Pmf], pi: Pmf, t: int, m: int) -> ExponentResult:
    """Lower bound on the universal fixed-size multi-outlier exponent for given M.

    The minimum over the KL ball D(q||pi) <= r, r = (pair minimum + T ln
    1/pi_min)/(M-T), taken as the Frank-Wolfe value minus its duality gap so
    that it certifies the ball minimum from below.
    """
    mus = list(mus)
    whole(t, "outlier-set sizes T")
    whole(m, "coordinate counts M")
    require(1 < t < m / 2, f"need 1 < T < M/2, got T={t}, M={m}")
    pair_min = exponent_multi_known(mus, pi).value  # checks the laws too
    radius = (pair_min + t * typical_floor_log(pi)) / (m - t)
    ball = min_over_kl_ball(mus, KlBallSpec(pi, radius))
    return replace(ball, value=max(ball.value - ball.feasibility_gap, 0.0))
