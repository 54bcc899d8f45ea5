"""Output checks for every job, and the perturbations that must fail them.

`Checker.check(i, outs)` returns None when job i's stdout is correct and a
one-line reason otherwise.  `Checker.perturbations(i, outs)` returns altered
copies of that stdout which the same check must reject; running them is the
negative control that shows each check is live.

References come from three places:
- references.json, for values that cost too much to recompute per run
  (exact oracle errors, Monte Carlo error probabilities, grid exponents);
- closed forms recomputed here with numpy and scipy;
- a naive scorer here that recomputes every detect score from the symbol
  matrix the benchmark wrote: each row's KL divergence to its law or to
  the mixture of the rows left out.
"""
from __future__ import annotations

import csv
import io
import json
import math
from itertools import combinations
from typing import Optional

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import rel_entr
from scipy.stats import beta

from workloads import Job

ORACLE_RTOL_K2 = 1e-9
# ROADMAP item 1 (one tie rule for detector and oracle) legitimately moves
# K >= 3 exact errors by up to 1.3% relative; stay looser than that.
ORACLE_RTOL_K3 = 2e-2
MC_ALPHA = 1e-6  # two-sided Clopper-Pearson level for "consistent with the reference"
UNIV_GRID_TOL = 2e-3  # solver vs exhaustive grid, as in acceptance criterion 2
CLOSED_FORM_TOL = 1e-12
BOUND_TOL = 1e-9
SCORE_RTOL = 1e-9
TIE_TOL = 1e-9
FMT_RTOL = 1e-11  # the CLI prints CSV numbers with 12 significant digits


def _pmf(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split(",")])


def _pmfs(text: str) -> list[np.ndarray]:
    return [_pmf(part) for part in text.split(";") if part]


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    return float(rel_entr(p, q).sum())


def two_b(mu: np.ndarray, pi: np.ndarray) -> float:
    return -2.0 * math.log(np.sqrt(mu * pi).sum())


def chernoff(p: np.ndarray, q: np.ndarray) -> float:
    res = minimize_scalar(lambda s: math.log(np.sum(p**s * q ** (1.0 - s))),
                          bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12})
    return max(-float(res.fun), 0.0)


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * abs(b) + atol


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def naive_scores(job: Job) -> tuple[list[str], np.ndarray]:
    """Hypothesis labels and scores of a detect job, from its symbol matrix."""
    kind = job.opt("--kind")
    m, n = job.data.shape
    k = len(_pmf(job.opt("--pi")))
    gam = np.stack([np.bincount(row, minlength=k) for row in job.data]) / n
    mu, pi = _pmf(job.opt("--mu")), _pmf(job.opt("--pi"))

    def dispersion(rows: list[int]) -> float:
        mix = gam[rows].mean(axis=0)
        return sum(_kl(gam[j], mix) for j in rows)

    everyone = set(range(m))
    if kind in ("ml-single", "typ-single", "mu-only"):
        d_mu = np.array([_kl(g, mu) for g in gam])
        d_pi = np.array([_kl(g, pi) for g in gam])
        rest = d_pi.sum() - d_pi
        score = {"ml-single": d_mu + rest, "typ-single": rest, "mu-only": d_mu}[kind]
        return [f"coordinate {i + 1}" for i in range(m)], score
    if kind in ("univ-single", "null-single"):
        return ([f"coordinate {i + 1}" for i in range(m)],
                np.array([dispersion(sorted(everyone - {i})) for i in range(m)]))
    if kind in ("typ-multi", "univ-multi"):
        subsets = list(combinations(range(m), int(job.opt("--t"))))
        if kind == "typ-multi":
            d_pi = np.array([_kl(g, pi) for g in gam])
            score = [d_pi.sum() - d_pi[list(s)].sum() for s in subsets]
        else:
            score = [dispersion(sorted(everyone - set(s))) for s in subsets]
    elif kind == "identical-univ":
        sizes = sorted({int(x) for x in job.opt("--sizes").split(",")})
        subsets = [s for size in sizes for s in combinations(range(m), size)]
        score = [(dispersion(list(s)) if len(s) > 1 else 0.0) + dispersion(sorted(everyone - set(s)))
                 for s in subsets]
    else:
        raise ValueError(f"no naive scorer for {kind}")
    labels = ["subset {" + ",".join(str(i + 1) for i in s) + "}" for s in subsets]
    return labels, np.array(score)


class Checker:
    def __init__(self, jobs: list[Job], refs: dict):
        self.jobs = jobs
        self.refs = refs
        self._naive: dict[int, tuple[list[str], np.ndarray]] = {}

    # -- verdicts --------------------------------------------------------------

    def check(self, i: int, outs: list[str]) -> Optional[str]:
        job = self.jobs[i]
        if job.key and job.key not in self.refs:
            return f"references.json has no entry {job.key}"
        try:
            return getattr(self, "_check_" + job.check)(i, job, outs[i], outs)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparseable output: {type(exc).__name__}: {exc}"

    def _check_oracle(self, i, job, out, outs):
        rows = _csv_rows(out)
        ref = self.refs[job.key]
        if len(rows) != 2 or rows[0][0] != "n" or len(rows[1]) != len(ref) + 1:
            return f"expected a header and one row of {len(ref)} values"
        if int(rows[1][0]) != int(job.opt("--n-grid")):
            return "row is for another n"
        rtol = ORACLE_RTOL_K2 if job.opt("--k") == "2" else ORACLE_RTOL_K3
        got = [float(x) for x in rows[1][1:]]
        for col, (g, r) in enumerate(zip(got, ref)):
            if not _close(g, r, rtol + FMT_RTOL, 1e-300):
                return f"value {col + 1} of the row is {g!r}, reference {r!r} (rtol {rtol})"
        return None

    def _check_simulate(self, i, job, out, outs):
        rows = _csv_rows(out)
        if len(rows) != 2 or rows[0] != ["n", "estimate", "ci_lo", "ci_hi", "errors", "trials"]:
            return "expected the simulate header and one row"
        n, est, lo, hi = int(rows[1][0]), *map(float, rows[1][1:4])
        errors, trials = int(rows[1][4]), int(rows[1][5])
        if n != int(job.opt("--n-grid")) or trials != int(job.opt("--trials")):
            return "row is for another n or trial count"
        if not 0 <= errors <= trials or not _close(est, errors / trials, FMT_RTOL):
            return f"estimate {est} disagrees with {errors}/{trials}"
        cp = clopper_pearson(errors, trials, 0.05)
        if not (_close(lo, cp[0], 1e-9, 1e-15) and _close(hi, cp[1], 1e-9, 1e-15)):
            return f"95% interval [{lo}, {hi}] is not Clopper-Pearson {cp}"
        ref_lo, ref_hi = self._reference_interval(job)
        lo, hi = clopper_pearson(errors, trials, MC_ALPHA)
        if hi < ref_lo or lo > ref_hi:
            return (f"{errors}/{trials} errors inconsistent with the reference "
                    f"[{ref_lo:.4g}, {ref_hi:.4g}]")
        return None

    def _reference_interval(self, job) -> tuple[float, float]:
        """The exact reference probability, or the interval of a Monte Carlo reference."""
        ref = self.refs[job.key]
        if ref["method"] == "exact":
            return ref["p"], ref["p"]
        return clopper_pearson(ref["errors"], ref["trials"], MC_ALPHA)

    def _check_exponent(self, i, job, out, outs):
        rec = json.loads(out)
        kind, value = job.opt("--kind"), float(rec["value"])
        if rec.get("kind") != kind:
            return "record is for another kind"
        if kind == "univ-single":
            ref = self.refs[job.key]
            if abs(value - ref) > UNIV_GRID_TOL:
                return f"solver value {value} is {abs(value - ref):.2e} from grid {ref}"
            return None
        if kind == "both-known":
            want = two_b(_pmf(job.opt("--mu")), _pmf(job.opt("--pi")))
        else:
            mus, pi = _pmfs(job.opt("--mus")), _pmf(job.opt("--pi"))
            if kind == "multi-typ-known":
                want = min(two_b(mu, pi) for mu in mus)
            else:
                want = min(chernoff(np.outer(a, pi).ravel(), np.outer(pi, b).ravel())
                           for a, b in combinations(mus, 2))
        if abs(value - want) > CLOSED_FORM_TOL:
            return f"{kind} = {value!r}, closed form {want!r}"
        return None

    def _check_bound(self, i, job, out, outs):
        rec = json.loads(out)
        value, pi = float(rec["value"]), _pmf(job.opt("--pi"))
        if rec.get("m") != int(job.opt("--m")):
            return "record is for another M"
        mus = _pmfs(job.opt("--mus")) if job.opt("--mus") else [_pmf(job.opt("--mu"))]
        cap = min(two_b(mu, pi) for mu in mus)
        if not 0.0 <= value <= cap + BOUND_TOL:
            return f"bound {value} outside [0, 2B={cap}]"
        if job.prev >= 0:
            before = float(json.loads(outs[job.prev])["value"])
            if value < before - BOUND_TOL:
                return f"bound fell from {before} to {value} along the M ladder"
        return None

    def _check_figure(self, i, job, out, outs):
        rows = _csv_rows(out)
        m_min, m_max = int(job.opt("--m-min")), int(job.opt("--m-max"))
        if rows[0] != ["pair", "mu", "pi", "m", "lower_bound", "two_b"]:
            return "wrong figure header"
        if len(rows) != 1 + 3 * (m_max - m_min + 1):
            return f"expected {3 * (m_max - m_min + 1)} rows, got {len(rows) - 1}"
        last: dict[str, float] = {}
        for pair, mu, pi, m, lb, tb in rows[1:]:
            want = two_b(_pmf(mu.replace(" ", ",")), _pmf(pi.replace(" ", ",")))
            lb, tb = float(lb), float(tb)
            if not _close(tb, want, FMT_RTOL):
                return f"pair {pair}: two_b {tb} != {want}"
            if not 0.0 <= lb <= tb + BOUND_TOL or lb < last.get(pair, 0.0) - BOUND_TOL:
                return f"pair {pair} M={m}: bound {lb} not monotone within [0, 2B]"
            last[pair] = lb
        return None

    def _check_detect(self, i, job, out, outs):
        rec = json.loads(out)
        m, n = job.data.shape
        k = len(_pmf(job.opt("--pi")))
        if (rec["m"], rec["n"], rec["k"], rec["kind"]) != (m, n, k, job.opt("--kind")):
            return "record has the wrong shape or kind"
        if i not in self._naive:
            self._naive[i] = naive_scores(job)
        labels, want = self._naive[i]
        got_labels = [lbl for lbl, _ in rec["scores"]]
        got = np.array([v for _, v in rec["scores"]], dtype=float)
        if got_labels != labels:
            return "score table lists other hypotheses or another order"
        bad = np.abs(got - want) > SCORE_RTOL * np.abs(want) + 1e-12
        if bad.any():
            j = int(np.argmax(bad))
            return f"score of {labels[j]} is {float(got[j])!r}, naive {float(want[j])!r}"
        best = want.min()
        tie = TIE_TOL * max(1.0, abs(best))
        spread = float(want.max() - best)
        if not _close(rec["spread"], spread, SCORE_RTOL, 1e-12):
            return f"spread {rec['spread']} != {spread}"
        decision = rec["decision"]
        if job.opt("--kind") == "null-single":
            lam = 2.0 * (m - 1) * k * math.log(n + 1) / n
            if not _close(rec["lambda"], lam, 1e-12):
                return f"lambda {rec['lambda']} != {lam}"
            if decision == "null":
                return None if spread <= lam + tie else f"null decided with spread {spread} > {lam}"
            if spread < lam - tie:
                return f"{decision} decided with spread {spread} < {lam}"
        if decision not in labels or want[labels.index(decision)] > best + tie:
            return f"decision {decision} is not an argmin"
        return None

    # -- negative controls ----------------------------------------------------

    def perturbations(self, i: int, outs: list[str]) -> list[str]:
        """Altered copies of job i's (correct) stdout that its check must reject."""
        job, out = self.jobs[i], outs[i]
        return getattr(self, "_perturb_" + job.check)(i, job, out, outs)

    def rerun_controls(self) -> list[tuple[int, list[tuple[str, ...]]]]:
        """(job index, argv under other master seeds) for the byte-identity check.

        A rerun under any of the other seeds must print other bytes, or
        "same seed, same bytes" would hold vacuously.  The job is the Monte
        Carlo job whose exact error probability is nearest 1/2, so that five
        other seeds all repeating its error count has odds near 1e-6.
        """
        exact = [i for i, job in enumerate(self.jobs)
                 if job.check == "simulate" and self.refs[job.key]["method"] == "exact"]
        if not exact:
            return []
        i = min(exact, key=lambda i: abs(self.refs[self.jobs[i].key]["p"] - 0.5))
        argv = list(self.jobs[i].argv)
        at = argv.index("--seed") + 1
        return [(i, [tuple(argv[:at] + [str(int(argv[at]) + d)] + argv[at + 1:])
                     for d in range(1, 6)])]

    def _perturb_oracle(self, i, job, out, outs):
        rows = _csv_rows(out)
        rtol = ORACLE_RTOL_K2 if job.opt("--k") == "2" else ORACLE_RTOL_K3
        v = float(rows[1][1])
        rows[1][1] = repr(v * (1 + 10 * rtol) + 1e-200)
        return ["\n".join(",".join(r) for r in rows) + "\n"]

    def _perturb_simulate(self, i, job, out, outs):
        rows = _csv_rows(out)
        trials = int(rows[1][5])
        _, ref_hi = self._reference_interval(job)
        errors = trials if ref_hi < 0.5 else 0
        lo, hi = clopper_pearson(errors, trials, 0.05)
        row = [rows[1][0], "%.12g" % (errors / trials), "%.12g" % lo, "%.12g" % hi,
               str(errors), str(trials)]
        return ["\n".join([",".join(rows[0]), ",".join(row)]) + "\n"]

    def _perturb_exponent(self, i, job, out, outs):
        rec = json.loads(out)
        tol = UNIV_GRID_TOL if job.opt("--kind") == "univ-single" else CLOSED_FORM_TOL
        rec["value"] += 10 * tol
        return [json.dumps(rec, sort_keys=True) + "\n"]

    def _perturb_bound(self, i, job, out, outs):
        rec = json.loads(out)
        pi = _pmf(job.opt("--pi"))
        mus = _pmfs(job.opt("--mus")) if job.opt("--mus") else [_pmf(job.opt("--mu"))]
        above = dict(rec, value=min(two_b(mu, pi) for mu in mus) + 1e-6)
        variants = [json.dumps(above, sort_keys=True) + "\n"]
        if job.prev >= 0:
            before = float(json.loads(outs[job.prev])["value"])
            if before > 1e-6:
                below = dict(rec, value=before - 1e-6)
                variants.append(json.dumps(below, sort_keys=True) + "\n")
        return variants

    def _perturb_figure(self, i, job, out, outs):
        rows = _csv_rows(out)
        rows[-1][4] = repr(float(rows[-1][5]) * 1.001)  # last bound above 2B
        return ["\n".join(",".join(r) for r in rows) + "\n"]

    def _perturb_detect(self, i, job, out, outs):
        rec = json.loads(out)
        labels, want = self._naive[i]
        shifted = json.loads(out)
        shifted["scores"][0][1] *= 1 + 1e-6
        shifted["scores"][0][1] += 1e-9
        wrong = dict(rec, decision=labels[int(np.argmax(want))])
        variants = [json.dumps(shifted, sort_keys=True) + "\n"]
        if want.max() - want.min() > 2 * TIE_TOL * max(1.0, abs(want.min())):
            variants.append(json.dumps(wrong, sort_keys=True) + "\n")
        return variants


def clopper_pearson(errors: int, trials: int, alpha: float) -> tuple[float, float]:
    lo = 0.0 if errors == 0 else float(beta.ppf(alpha / 2, errors, trials - errors + 1))
    hi = 1.0 if errors == trials else float(beta.ppf(1 - alpha / 2, errors + 1, trials - errors))
    return lo, hi
