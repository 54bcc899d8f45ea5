"""Error-exponent formulas, bound optimizations, and their numerical solvers.

Closed forms cover the known-law settings.  The fully universal settings
require two kinds of optimization:

* a nonconvex program over an M-fold product of simplices with a
  difference-of-divergences constraint, solved from several starts by
  SLSQP in per-row softmax coordinates with analytic gradients; each
  start's end point is re-checked against the constraint in probability
  space, and the best feasible one is kept (certified for K=2, M=3 by an
  exhaustive grid oracle);
* a convex minimization of a Bhattacharyya objective over a relative
  entropy ball, solved by Frank-Wolfe: the linear subproblem over the
  ball is a one-dimensional exponential tilt whose parameter is a root
  found by Brent's method, the exact step length is a root of the
  objective's derivative along the segment (or the full step), and the
  strong convexity of the ball yields fast convergence of the duality gap.

The single-outlier lower bound pairs that ball with a penalized closed
form, evaluated on a fixed grid, whose gap to the both-known optimum
shrinks like 1/M.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import brentq, minimize
from scipy.special import rel_entr, xlogy

from .errors import SolverError, ValidationError
from .simplex import Pmf, bhattacharyya, chernoff_pair_product, kl

FEASIBILITY_TOL = 1e-8
FW_GAP_TOL = 1e-8
FW_MAX_ITERS = 50000
PENALTY_GRID = 1024  # cells of the TV-radius grid in the penalized closed form
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
        if self.restarts < 0:
            raise ValidationError("restarts must be >= 0")
        if self.seed < 0:
            raise ValidationError("solver seed must be >= 0")


def _check_model(mu: Pmf, pi: Pmf) -> None:
    if mu.size != pi.size:
        raise ValidationError("mu and pi live on different alphabets")
    if not (mu.full_support() and pi.full_support()):
        raise ValidationError("laws must have full support")
    if np.allclose(mu.probs, pi.probs, atol=1e-15):
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
    best = min(
        chernoff_pair_product(mus[i], mus[j], pi)
        for i in range(len(mus))
        for j in range(len(mus))
        if i < j
    )
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


def _mix_term(q: np.ndarray, outside: np.ndarray) -> float:
    """sum over i outside S of D(q_i || mean of outside rows)."""
    mix = q[outside].mean(axis=0)
    return float(rel_entr(q[outside], mix[None, :]).sum())


def _program_value(q: np.ndarray, refs: np.ndarray) -> float:
    return float(rel_entr(q, refs).sum())


def _constraint(q: np.ndarray, out_s: np.ndarray, out_sp: np.ndarray) -> float:
    return _mix_term(q, out_s) - _mix_term(q, out_sp)


def _grad_mix_term(log_q: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """Gradient of _mix_term in q, from log q: log(q_i / mix) on the outside rows."""
    g = np.zeros_like(log_q)
    log_mix = np.logaddexp.reduce(log_q[outside], axis=0) - math.log(outside.size)
    g[outside] = log_q[outside] - log_mix[None, :]
    return g


def _solve_pair_program(
    refs: np.ndarray,
    s: tuple[int, ...],
    s_prime: tuple[int, ...],
    mus_by_coord: np.ndarray,
    pi: np.ndarray,
    opts: SolverOptions,
) -> tuple[float, float, int, np.ndarray]:
    """Inner exponent program for one ordered pair of outlier sets.

    Minimizes sum_i D(q_i || refs_i) subject to the outside-S dispersion
    being at least the outside-S' dispersion.  Each start runs one SLSQP
    solve over the logits z of q = softmax(z) row by row; a start counts
    only if its end point violates the constraint by at most
    FEASIBILITY_TOL.  Returns (value, gap, iterations, minimizer) of the
    best such start.
    """
    m, k = refs.shape
    out_s = np.array([i for i in range(m) if i not in s])
    out_sp = np.array([i for i in range(m) if i not in s_prime])

    # strictly feasible anchor: typical everywhere except the coordinates
    # entering S' anew, which keeps the S'-side dispersion at zero
    anchor = np.tile(pi, (m, 1))
    for i in s_prime:
        if i not in s:
            anchor[i] = mus_by_coord[i]

    # boundary start: pair the swapped coordinates at geometric midpoints
    boundary = np.tile(pi, (m, 1))
    enter = [i for i in s if i not in s_prime]
    leave = [i for i in s_prime if i not in s]
    for i in s:
        boundary[i] = mus_by_coord[i]
    for i, j in zip(enter, leave):
        gm = np.sqrt(mus_by_coord[i] * pi)
        gm = gm / gm.sum()
        boundary[i] = gm
        boundary[j] = gm

    rng = np.random.default_rng(np.random.SeedSequence((opts.seed, len(s), *s, *s_prime)))
    starts = [refs.copy(), anchor.copy(), boundary]
    for _ in range(opts.restarts):
        starts.append(rng.dirichlet(np.ones(k), size=m))

    log_refs = np.log(refs)

    def unpack(z):
        # log q as a log-softmax: log(softmax(z)) underflows to -inf on far starts
        z = z.reshape(m, k)
        log_q = z - np.logaddexp.reduce(z, axis=1, keepdims=True)
        return np.exp(log_q), log_q

    def through_softmax(q, g):
        """The q-gradient g chained through the row softmax to the logits."""
        return (q * (g - (q * g).sum(axis=1, keepdims=True))).ravel()

    def objective(z):
        q, log_q = unpack(z)
        return float((q * (log_q - log_refs)).sum()), through_softmax(q, log_q - log_refs + 1.0)

    def dispersion_gap(z):
        return _constraint(unpack(z)[0], out_s, out_sp)

    def dispersion_gap_grad(z):
        q, log_q = unpack(z)
        return through_softmax(q, _grad_mix_term(log_q, out_s) - _grad_mix_term(log_q, out_sp))

    constraint = {"type": "ineq", "fun": dispersion_gap, "jac": dispersion_gap_grad}
    best_val, best_gap, best_q = math.inf, math.inf, None
    total_iters = 0
    for q0 in starts:
        res = minimize(objective, np.log(q0).ravel(), jac=True, method="SLSQP",
                       constraints=constraint, options=SLSQP_OPTIONS)
        total_iters += res.nit
        # the certificate is checked on the pmfs themselves, not on SLSQP's report
        q = unpack(res.x)[0]
        gap = max(0.0, -_constraint(q, out_s, out_sp))
        if gap > FEASIBILITY_TOL:
            continue
        val = _program_value(q, refs)
        if val < best_val:
            best_val, best_gap, best_q = val, gap, q
    if best_q is None:
        raise SolverError("no start reached the feasibility tolerance")
    return best_val, best_gap, total_iters, best_q


def exponent_univ_single(
    mu: Pmf, pi: Pmf, m: int, opts: Optional[SolverOptions] = None
) -> ExponentResult:
    """Exponent achieved by the fully universal single-outlier test.

    Solved as the constrained program over M pmfs; the returned value is
    an upper bound on the true minimum (global optimality is certified
    only for K=2, via the grid oracle).
    """
    _check_model(mu, pi)
    if m < 3:
        raise ValidationError("need M >= 3")
    opts = opts or SolverOptions()
    refs = np.tile(pi.probs, (m, 1))
    refs[0] = mu.probs
    mus_by_coord = np.tile(mu.probs, (m, 1))
    val, gap, iters, q = _solve_pair_program(
        refs, (0,), (1,), mus_by_coord, np.asarray(pi.probs), opts
    )
    cap = 2.0 * bhattacharyya(mu, pi)
    val = min(val, cap)
    return ExponentResult(
        max(val, 0.0),
        "multistart_slsqp",
        iterations=iters,
        feasibility_gap=gap,
        minimizer=tuple(Pmf.normalize(row) for row in q),
    )


def exponent_univ_multi(
    mus: Sequence[Pmf], pi: Pmf, t: int, opts: Optional[SolverOptions] = None
) -> ExponentResult:
    """Exponent achieved by the fully universal fixed-size multi-outlier test.

    Outer minimum over ordered pairs of distinct size-T outlier sets of
    the inner pair program.
    """
    mus = list(mus)
    m = len(mus)
    if not 1 < t < m / 2:
        raise ValidationError(f"need 1 < T < M/2, got T={t}, M={m}")
    for mu in mus:
        _check_model(mu, pi)
    opts = opts or SolverOptions()
    pi_arr = np.asarray(pi.probs)
    mus_by_coord = np.stack([mu.probs for mu in mus])
    best_val, best_gap, best_q = math.inf, math.inf, None
    total_iters = 0
    subsets = list(combinations(range(m), t))
    for s in subsets:
        refs = np.tile(pi_arr, (m, 1))
        for i in s:
            refs[i] = mus_by_coord[i]
        for sp in subsets:
            if sp == s:
                continue
            val, gap, iters, q = _solve_pair_program(refs, s, sp, mus_by_coord, pi_arr, opts)
            total_iters += iters
            if val < best_val:
                best_val, best_gap, best_q = val, gap, q
    assert best_q is not None
    return ExponentResult(
        max(best_val, 0.0),
        "multistart_slsqp",
        iterations=total_iters,
        feasibility_gap=best_gap,
        minimizer=tuple(Pmf.normalize(row) for row in best_q),
    )


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
# Convex minimization over a relative entropy ball (Frank-Wolfe)
# ---------------------------------------------------------------------------


def _tilt_to_radius(log_center: np.ndarray, direction: np.ndarray, radius: float) -> np.ndarray:
    """The exponential tilt of the center along -direction hitting the ball boundary.

    Returns argmin of <direction, x> over D(x||center) <= radius.  With the
    direction shifted to d >= 0, min d = 0, the tilt x_theta = center
    exp(-theta d)/Z(theta) has Z <= 1 and D(x_theta||center) =
    -theta <d, x_theta> - ln Z(theta), both from one pass over the weights.
    """
    center = np.exp(log_center)
    d = direction - direction.min()
    if not d.any():
        # every point of the ball is a minimizer
        return center / center.sum()

    def point(theta: float) -> tuple[np.ndarray, float]:
        w = center * np.exp(-theta * d)
        z = w.sum()
        x = w / z
        return x, -theta * float(d @ x) - math.log(z)

    def excess(theta: float) -> float:
        return point(theta)[1] - radius

    hi = 1.0
    while excess(hi) < 0.0:
        if hi > 1e12:
            return point(hi)[0]
        hi *= 2.0
    return point(brentq(excess, 0.0, hi, xtol=1e-15))[0]


def _fw_min_bhattacharyya(
    mu: np.ndarray, center: np.ndarray, radius: float
) -> tuple[float, int, float, np.ndarray]:
    """Minimize 2B(mu, q) over the KL ball around center via Frank-Wolfe.

    Along a step q + g d the sum S(g) = sum sqrt(mu (q + g d)) is concave, so
    the exact step is 1 when S'(1) >= 0 and otherwise the root of S' in
    [0, 1], where S'(0) > 0 whenever the duality gap is positive.
    """
    log_center = np.log(center)
    sqrt_mu = np.sqrt(mu)
    q = center.copy()
    gap = math.inf
    for it in range(1, FW_MAX_ITERS + 1):
        sqrt_q = np.sqrt(q)
        s = float(sqrt_mu @ sqrt_q)
        grad = -sqrt_mu / np.maximum(sqrt_q, 1e-150) / s
        x = _tilt_to_radius(log_center, grad, radius)
        gap = float(grad @ (q - x))
        if gap <= FW_GAP_TOL:
            return -2.0 * math.log(s), it, gap, q
        d = x - q

        def slope(g: float) -> float:
            # 2 S'(g); the floor keeps it finite where the tilt has zero mass
            return float(sqrt_mu @ (d / np.sqrt(np.maximum(q + g * d, 1e-300))))

        step = 1.0 if slope(1.0) >= 0.0 else brentq(slope, 0.0, 1.0, xtol=1e-12)
        q = q + step * d
    raise SolverError(f"Frank-Wolfe did not reach duality gap {FW_GAP_TOL} (gap={gap:.3e})")


def min_over_kl_ball(mus: Sequence[Pmf] | Pmf, ball: KlBallSpec) -> ExponentResult:
    """Minimize min_i 2B(mu_i, q) over the relative entropy ball.

    Each branch of the pointwise minimum is convex and solved on its own;
    the reported value is the smallest branch optimum.
    """
    if isinstance(mus, Pmf):
        mus = [mus]
    mus = list(mus)
    if not mus:
        raise ValidationError("need at least one objective pmf")
    center = np.asarray(ball.center.probs)
    best_val, best_q, iters, worst_gap = math.inf, None, 0, 0.0
    for mu in mus:
        if mu.size != ball.center.size:
            raise ValidationError("objective and ball center alphabets differ")
        if ball.radius == 0.0:
            val, it, gap, q = 2.0 * bhattacharyya(mu, ball.center), 0, 0.0, center
        elif mu.full_support() and kl(mu, ball.center) <= ball.radius:
            # the unconstrained minimizer q = mu lies inside the ball
            val, it, gap, q = 0.0, 0, 0.0, np.asarray(mu.probs)
        else:
            val, it, gap, q = _fw_min_bhattacharyya(
                np.asarray(mu.probs), center, ball.radius
            )
        iters += it
        worst_gap = max(worst_gap, gap)
        if val < best_val:
            best_val, best_q = val, q
    assert best_q is not None
    return ExponentResult(
        max(best_val, 0.0),
        "kl_ball_convex",
        iterations=iters,
        feasibility_gap=worst_gap,
        minimizer=(Pmf.normalize(best_q),),
    )


def typical_floor_log(pi: Pmf) -> float:
    """-ln of the smallest mass of pi; finite because pi has full support."""
    if not pi.full_support():
        raise ValidationError("pi must have full support")
    return float(-np.log(pi.probs.min()))


def _penalized_single_bound(mu: Pmf, pi: Pmf, m: int) -> float:
    """The penalized closed form of thm_single_lower_bound.

    The minimum over t in [0, t_max], t_max = sqrt(B/(M-2)), is taken on a
    fixed grid of u = t/t_max: each cell pays the penalty at its left end
    and the bracket, which is nonincreasing in t, at its right end, so the
    grid value never exceeds the exact minimum.  At fixed u the penalty
    2(M-2)t^2 = 2B u^2 does not depend on M and the bracket grows with M,
    so the value is nondecreasing in M.
    """
    bhat = bhattacharyya(mu, pi)
    mu_p, pi_p = np.asarray(mu.probs), np.asarray(pi.probs)
    g = -np.sqrt(mu_p / pi_p) / np.sqrt(mu_p * pi_p).sum()
    u = np.linspace(0.0, 1.0, PENALTY_GRID + 1)
    t = u[1:] * math.sqrt(bhat / (m - 2))
    # past t = pi_min the reference change is unbounded and the bracket is 0
    t = t[t < pi_p.min()]
    c = (np.minimum(mu_p + math.sqrt(bhat), 1.0) / (pi_p - t[:, None])).max(axis=1) - 1.0
    bracket = np.zeros(PENALTY_GRID)
    bracket[: t.size] = np.maximum(
        0.0, 2.0 * bhat - np.ptp(g) * t + np.log1p(-t / pi_p.min()) - c / (m - 1)
    )
    return min(2.0 * bhat, float((2.0 * bhat * u[:-1] ** 2 + bracket).min()))


def thm_single_lower_bound(mu: Pmf, pi: Pmf, m: int) -> ExponentResult:
    """Lower bound on the universal single-outlier exponent for given M.

    The larger of two lower bounds, each within [0, 2B] and nondecreasing
    in M; ``solver`` names the one that gave the value.

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
    if m < 3:
        raise ValidationError("need M >= 3")
    radius = (2.0 * bhattacharyya(mu, pi) + typical_floor_log(pi)) / (m - 1)
    ball = min_over_kl_ball(mu, KlBallSpec(pi, radius))
    ball_value = max(ball.value - ball.feasibility_gap, 0.0)
    closed = _penalized_single_bound(mu, pi, m)
    if closed > ball_value:
        return ExponentResult(closed, "penalized_closed_form", iterations=ball.iterations)
    return replace(ball, value=ball_value)


def thm_multi_lower_bound(mus: Sequence[Pmf], pi: Pmf, t: int, m: int) -> ExponentResult:
    """Lower bound on the universal fixed-size multi-outlier exponent for given M.

    The minimum over the KL ball D(q||pi) <= r, r = (pair minimum + T ln
    1/pi_min)/(M-T), taken as the Frank-Wolfe value minus its duality gap so
    that it certifies the ball minimum from below.
    """
    mus = list(mus)
    if len(mus) < 2:
        raise ValidationError("need at least two outlier laws")
    if not 1 < t < m / 2:
        raise ValidationError(f"need 1 < T < M/2, got T={t}, M={m}")
    for mu in mus:
        _check_model(mu, pi)
    pair_min = exponent_multi_known(mus, pi).value
    radius = (pair_min + t * typical_floor_log(pi)) / (m - t)
    ball = min_over_kl_ball(mus, KlBallSpec(pi, radius))
    return replace(ball, value=max(ball.value - ball.feasibility_gap, 0.0))
