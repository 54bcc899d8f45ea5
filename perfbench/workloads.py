"""The four benchmark workloads: fixed job lists of `outliertest` argv.

Each job is one command line for `outlier_testing.cli.main`, plus what its
output check needs: a key into references.json, the previous rung of a
bound ladder, or the symbol matrix written to a detect job's file.  Job
lists are fixed; the workload seed only changes generated data (observation
files), Monte Carlo master seeds and the solver seed, never which jobs run.

The per-call costs that sized these lists were measured on a 2-core x86
container (Python 3.11, numpy 2.4, scipy 1.17); each list takes about 6 s
there, so one run of 20 s holds three passes.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Optional

import numpy as np

K2 = ("0.3,0.7", "0.7,0.3")  # (mu, pi) on a binary alphabet
K3 = ("0.2,0.3,0.5", "0.5,0.3,0.2")
PAIRS = (("0.3,0.7", "0.7,0.3"), ("0.35,0.65", "0.65,0.35"), ("0.4,0.6", "0.6,0.4"))
MC_TRIALS = 100
DETECT_N = 100


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: str  # oracle | simulate | exponent | bound | figure | detect
    key: str = ""  # entry of references.json the output is compared against
    prev: int = -1  # index of the previous rung of a bound ladder
    data: Optional[np.ndarray] = None  # detect: the (M, n) symbols in the job's file

    def opt(self, flag: str) -> Optional[str]:
        """Value following `flag` in argv, or None."""
        for i, a in enumerate(self.argv[:-1]):
            if a == flag:
                return self.argv[i + 1]
        return None


def _laws(k: int) -> tuple[str, str]:
    return K2 if k == 2 else K3


# ---------------------------------------------------------------------------
# exact-oracle: one n per job, all truths of the family per job
# ---------------------------------------------------------------------------

ORACLE_GRID = (
    # (kind, M, K, extra argv, n values)
    ("ml-single", 3, 2, (), range(2, 53, 2)),
    ("typ-single", 3, 2, (), range(3, 48, 4)),
    ("mu-only", 3, 2, (), range(4, 41, 6)),
    ("univ-single", 3, 2, (), (*range(2, 41, 2), 60, 80)),
    ("null-single", 3, 2, (), range(4, 29, 4)),
    ("typ-multi", 5, 2, ("--t", "2"), range(1, 9)),
    ("identical-univ", 5, 2, ("--sizes", "1,2"), range(1, 6)),
    ("ml-single", 3, 3, (), range(1, 10)),
    ("univ-single", 3, 3, (), range(1, 10)),
)


def oracle_key(kind: str, m: int, k: int, n: int) -> str:
    return f"oracle|{kind}|M{m}|K{k}|n{n}"


def exact_oracle_jobs(seed: int, workdir: Path) -> list[Job]:
    jobs = []
    for kind, m, k, extra, ns in ORACLE_GRID:
        mu, pi = _laws(k)
        for n in ns:
            argv = ("oracle", "--kind", kind, "--m", str(m), "--k", str(k),
                    "--n-grid", str(n), "--mus", mu, "--pi", pi, *extra)
            jobs.append(Job(argv, "oracle", key=oracle_key(kind, m, k, n)))
    return jobs


# ---------------------------------------------------------------------------
# monte-carlo: one n and one truth per job, seeded from the workload seed
# ---------------------------------------------------------------------------

_IDENTICAL_TRUTHS = ("1", "3", "5", "1,2", "2,4", "3,5", "1,5", "4,5")
MC_GRID = (
    # (kind, M, K, extra argv, [(truth, n), ...])
    *((kind, 3, 2, (), [(t, n) for t in ("1", "2", "3") for n in (10, 20, 30, 40)])
      for kind in ("ml-single", "typ-single", "mu-only", "univ-single")),
    ("null-single", 3, 2, (), [(t, n) for t in ("null", "1", "2", "3") for n in (10, 20, 30, 40)]),
    *((kind, 3, 3, (), [(t, n) for t in ("1", "2", "3") for n in (5, 10, 15, 20)])
      for kind in ("ml-single", "univ-single")),
    ("identical-univ", 5, 2, ("--sizes", "1,2"),
     [(t, 10 * (1 + i % 4)) for i, t in enumerate(_IDENTICAL_TRUTHS)]),
    ("null-identical", 5, 2, ("--sizes", "1,2"), [("null", n) for n in (10, 20, 30, 40)]),
    ("univ-single", 20, 2, (), [("1", 20), ("1", 40)]),
)


def mc_key(kind: str, m: int, k: int, truth: str, n: int) -> str:
    return f"simulate|{kind}|M{m}|K{k}|{truth}|n{n}"


def monte_carlo_jobs(seed: int, workdir: Path) -> list[Job]:
    specs = [(kind, m, k, extra, truth, n)
             for kind, m, k, extra, points in MC_GRID for truth, n in points]
    masters = np.random.SeedSequence([seed, 1]).generate_state(len(specs))
    jobs = []
    for (kind, m, k, extra, truth, n), master in zip(specs, masters):
        mu, pi = _laws(k)
        argv = ("simulate", "--kind", kind, "--m", str(m), "--k", str(k),
                "--n-grid", str(n), "--trials", str(MC_TRIALS), "--seed", str(int(master)),
                "--truth", truth, "--mus", mu, "--pi", pi, *extra)
        jobs.append(Job(argv, "simulate", key=mc_key(kind, m, k, truth, n)))
    return jobs


# ---------------------------------------------------------------------------
# exponent-solvers: closed forms, the pair-program solver, KL-ball bounds
# ---------------------------------------------------------------------------

SINGLE_BOUND_LADDER = (3, 4, 5, 6, 8, 10, 13, 17, 22, 30, 40, 55, 75, 100, 140,
                       200, 300, 450, 700, 1000, 1600, 2500, 4000, 6500, 9000, 13785)
MULTI_BOUND_MS = (5, 8, 12, 20)
MULTI_SETS = (
    ("0.3,0.7;0.2,0.8", "0.7,0.3"),
    ("0.3,0.7;0.35,0.65", "0.7,0.3"),
    ("0.2,0.3,0.5;0.3,0.2,0.5", "0.5,0.3,0.2"),
)
# Three-law K=3 sets for multi-known: every one costs three Chernoff searches
# of fixed length, so these jobs form the block the p90 latency falls in.
_K3_LAWS = ("0.2,0.3,0.5", "0.25,0.25,0.5", "0.1,0.4,0.5", "0.3,0.2,0.5",
            "0.2,0.2,0.6", "0.15,0.35,0.5", "0.35,0.15,0.5")
CHERNOFF_SETS = tuple(";".join(c) for c in combinations(_K3_LAWS, 3))[:16]
SOLVER_RESTARTS = 1
FIGURE_M_MAX = 60


def univ_key(mu: str, pi: str) -> str:
    return f"grid|univ-single|M3|{mu}|{pi}"


def exponent_jobs(seed: int, workdir: Path) -> list[Job]:
    solver_seed = str(int(np.random.SeedSequence([seed, 2]).generate_state(1)[0]))
    jobs = [Job(("exponent", "--kind", "univ-single", "--mu", mu, "--pi", pi, "--m", "3",
                 "--restarts", str(SOLVER_RESTARTS), "--solver-seed", solver_seed),
                "exponent", key=univ_key(mu, pi))
            for mu, pi in PAIRS]
    for mu, pi in (*PAIRS, K3, ("0.1,0.9", "0.9,0.1"), ("0.6,0.4", "0.5,0.5")):
        jobs.append(Job(("exponent", "--kind", "both-known", "--mu", mu, "--pi", pi), "exponent"))
    for mus, pi in MULTI_SETS:
        for kind in ("multi-known", "multi-typ-known"):
            jobs.append(Job(("exponent", "--kind", kind, "--mus", mus, "--pi", pi), "exponent"))
    for mus in CHERNOFF_SETS:
        jobs.append(Job(("exponent", "--kind", "multi-known", "--mus", mus, "--pi", K3[1]),
                        "exponent"))
    for mu, pi in PAIRS:
        for i, m in enumerate(SINGLE_BOUND_LADDER):
            prev = len(jobs) - 1 if i else -1
            jobs.append(Job(("bound", "--mu", mu, "--pi", pi, "--m", str(m)), "bound", prev=prev))
    for mus, pi in MULTI_SETS:
        for i, m in enumerate(MULTI_BOUND_MS):
            prev = len(jobs) - 1 if i else -1
            jobs.append(Job(("bound", "--mus", mus, "--pi", pi, "--t", "2", "--m", str(m)),
                            "bound", prev=prev))
    jobs.append(Job(("figure", "--m-min", "3", "--m-max", str(FIGURE_M_MAX)), "figure"))
    return jobs


# ---------------------------------------------------------------------------
# detect-files: seeded observation files with planted outliers
# ---------------------------------------------------------------------------

KNOWN_KINDS = ("ml-single", "typ-single", "mu-only")
UNIVERSAL_KINDS = ("univ-single", "null-single")


def _draw(rng: np.random.Generator, m: int, k: int, outliers) -> np.ndarray:
    mu, pi = (np.array([float(x) for x in s.split(",")]) for s in _laws(k))
    laws = np.tile(pi, (m, 1))
    laws[list(outliers)] = mu
    u = rng.random((m, DETECT_N))
    cdf = np.cumsum(laws, axis=1)
    data = (u[:, :, None] >= cdf[:, None, :-1]).sum(axis=2)
    return data.astype(np.int64)


def detect_jobs(seed: int, workdir: Path) -> list[Job]:
    from outlier_testing.detectors import ObservationMatrix

    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    jobs: list[Job] = []

    def add_file(m: int, k: int, n_out: int, fmt: str, runs) -> None:
        outliers = sorted(rng.choice(m, size=n_out, replace=False))
        data = _draw(rng, m, k, outliers)
        path = workdir / f"obs-{len(jobs)}-m{m}-k{k}.{fmt}"
        obs = ObservationMatrix(data, k)
        if fmt == "bin":
            obs.to_binary(path)
            fmt_argv = ("--binary",)
        else:
            obs.to_csv(path)
            fmt_argv = ("--k", str(k))
        mu, pi = _laws(k)
        for kind, extra in runs:
            argv = ("detect", "--file", str(path), *fmt_argv, "--kind", kind,
                    "--mu", mu, "--pi", pi, *extra)
            jobs.append(Job(argv, "detect", data=data))

    known = [(kind, ()) for kind in KNOWN_KINDS]
    universal = [(kind, ()) for kind in UNIVERSAL_KINDS]
    for fmt in ("csv", "bin"):
        for _ in range(3):
            add_file(1000, 2, 1, fmt, known)
            add_file(200, 2, 1, fmt, known)
        for _ in range(4):
            add_file(50, 2, 1, fmt, known + universal)
        # cheap known-law jobs, so that the median job is a known-law M=200 one
        for _ in range(3):
            add_file(50, 2, 1, fmt, known)
        for _ in range(2):
            add_file(50, 3, 1, fmt, known + universal)
        for _ in range(3):
            add_file(12, 2, 3, fmt, [("typ-multi", ("--t", "3")), ("univ-multi", ("--t", "3"))])
            add_file(8, 2, int(rng.integers(1, 4)), fmt, [("identical-univ", ("--sizes", "1,2,3"))])
    # universal kinds at M=200 score in O(M^2) kl calls, twice per job
    add_file(200, 2, 1, "csv", [("univ-single", ())])
    add_file(200, 2, 1, "bin", [("null-single", ())])
    return jobs


WORKLOADS = {
    "exact-oracle": exact_oracle_jobs,
    "monte-carlo": monte_carlo_jobs,
    "exponent-solvers": exponent_jobs,
    "detect-files": detect_jobs,
}


def build(name: str, seed: int, workdir: Path) -> list[Job]:
    """The job list of a workload; writes its input files into `workdir`."""
    return WORKLOADS[name](seed, workdir)
