"""Regenerate references.json, the stored values the output checks compare against.

    PYTHONPATH=src python3 perfbench/make_references.py

- `oracle|...`: the exact error row (per truth, then the max) that
  `outliertest oracle` printed for each exact-oracle job.
- `simulate|...`: the error probability each Monte Carlo job estimates.  It
  is exact (type enumeration) at M=3; elsewhere it is a Monte Carlo error
  count over REF_TRIALS trials under a master seed no benchmark run uses.
  Either way it does not depend on the benchmark's seed.
- `grid|...`: the exhaustive grid optimum (steps=400) of the universal
  single-outlier program, which the pair-program solver must match.

Takes about five minutes on two cores.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from outlier_testing import cli  # noqa: E402
from outlier_testing.cli import _family_for, _parse_truth  # noqa: E402
from outlier_testing.detectors import DetectorKind  # noqa: E402
from outlier_testing.exponents import grid_exponent_univ_single  # noqa: E402
from outlier_testing.oracle import exact_error  # noqa: E402
from outlier_testing.sim import SimConfig, estimate_error  # noqa: E402
from outlier_testing.simplex import Pmf  # noqa: E402

REF_TRIALS = 6000
REF_SEED = 20261017


def pmf(text: str) -> Pmf:
    return Pmf(np.array([float(x) for x in text.split(",")]))


def oracle_row(job) -> list[float]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(job.argv)) == 0
    return [float(x) for x in out.getvalue().strip().splitlines()[1].split(",")[1:]]


def mc_reference(job) -> dict:
    kind = DetectorKind(job.opt("--kind"))
    m, k, n = int(job.opt("--m")), int(job.opt("--k")), int(job.opt("--n-grid"))
    sizes = job.opt("--sizes")
    family = _family_for(kind, m, None, [int(s) for s in sizes.split(",")] if sizes else None)
    truth = _parse_truth(job.opt("--truth"))
    mu, pi = pmf(job.opt("--mus")), pmf(job.opt("--pi"))
    if m == 3:
        return {"p": exact_error(kind, family, truth, n, k, mu, pi).prob, "method": "exact"}
    cfg = SimConfig(kind=kind, family=family, k=k, n_grid=(n,), trials=REF_TRIALS,
                    seed=REF_SEED, mus=mu, pi=pi)
    est = estimate_error(cfg, truth, n)
    return {"p": est.estimate, "method": "monte-carlo", "errors": est.errors, "trials": est.trials}


def main() -> None:
    refs: dict = {}
    for job in workloads.exact_oracle_jobs(0, HERE):
        refs[job.key] = oracle_row(job)
        print(job.key, refs[job.key][-1], flush=True)
    for job in workloads.monte_carlo_jobs(0, HERE):
        if job.key not in refs:
            refs[job.key] = mc_reference(job)
            print(job.key, refs[job.key], flush=True)
    for mu, pi in workloads.PAIRS:
        refs[workloads.univ_key(mu, pi)] = grid_exponent_univ_single(pmf(mu), pmf(pi), 400).value
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
