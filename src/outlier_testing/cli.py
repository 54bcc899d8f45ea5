"""Command-line front end for exponents, bounds, oracles, and simulations.

Subcommands emit JSON for single results and CSV for sweeps, on stdout;
logs go to stderr.  Every command is deterministic given its arguments,
so repeated runs are byte-identical.

Exit codes: 0 success, 2 validation failure, 3 solver non-convergence,
4 enumeration cap exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .detectors import (
    NULL,
    Coordinate,
    DetectorKind,
    HypothesisFamily,
    HypothesisId,
    ObservationMatrix,
    Subset,
    decide,
    null_threshold,
    score_table,
)
from .errors import EnumerationCapError, SolverError, ValidationError, require
from .exponents import (
    SolverOptions,
    exponent_both_known,
    exponent_multi_known,
    exponent_multi_typ_known,
    exponent_univ_multi,
    exponent_univ_single,
    thm_multi_lower_bound,
    thm_single_lower_bound,
)
from .oracle import LawSpec, max_error
from .sim import RNG_ALGORITHM, SimConfig, estimate_error, exponent_sweep
from .simplex import Pmf, bhattacharyya

EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_CAP = 4


def _fmt(x: float) -> str:
    return "%.12g" % x


def _parse_pmf(text: str) -> Pmf:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"cannot parse pmf {text!r}: {exc}") from exc
    return Pmf(np.asarray(vals))


def _parse_pmfs(text: str) -> list[Pmf]:
    return [_parse_pmf(part) for part in text.split(";") if part]


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise ValidationError(f"cannot parse integer list {text!r}") from exc


def _parse_truth(text: str) -> HypothesisId:
    if text.strip().lower() == "null":
        return NULL
    members = _parse_int_list(text)
    if len(members) == 1:
        return Coordinate(members[0])
    return Subset(tuple(members))


def _solver_options(args) -> SolverOptions:
    return SolverOptions(restarts=args.restarts, seed=args.solver_seed)


def _family_for(
    kind: DetectorKind,
    m: int,
    t: Optional[int],
    sizes: Optional[Sequence[int]],
) -> HypothesisFamily:
    if kind in (DetectorKind.TYP_MULTI, DetectorKind.UNIV_MULTI):
        require(t is not None, f"{kind.value} needs --t")
        return HypothesisFamily.fixed_size(m, t)
    if kind is DetectorKind.IDENTICAL_UNIV:
        require(sizes is not None, "identical-univ needs --sizes")
        return HypothesisFamily.sized(m, sizes, include_null=False)
    if kind is DetectorKind.NULL_IDENTICAL:
        require(sizes is not None, "null-identical needs --sizes")
        return HypothesisFamily.sized(m, sizes, include_null=True)
    include_null = kind is DetectorKind.NULL_SINGLE
    return HypothesisFamily.single_outlier(m, include_null=include_null)


def _sweep_setup(args) -> tuple[DetectorKind, HypothesisFamily, LawSpec, Pmf, Optional[Pmf]]:
    """Kind, family, generating laws (mus, pi) and detector-side mu of a sweep."""
    kind = DetectorKind(args.kind)
    sizes = _parse_int_list(args.sizes) if args.sizes else None
    family = _family_for(kind, args.m, args.t, sizes)
    require(bool(args.pi), f"{args.command} needs --pi (the typical law)")
    mus = _parse_pmfs(args.mus) if args.mus else None
    if mus is not None and len(mus) == 1:
        mus = mus[0]
    mu = _parse_pmf(args.mu) if args.mu else None
    return kind, family, mus, _parse_pmf(args.pi), mu


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_exponent(args) -> int:
    kind = args.kind
    record = {"command": "exponent", "kind": kind}
    if kind == "both-known":
        require(args.mu is not None and args.pi is not None, "both-known needs --mu and --pi")
        res = exponent_both_known(_parse_pmf(args.mu), _parse_pmf(args.pi))
    elif kind == "multi-known":
        require(args.mus is not None and args.pi is not None, "multi-known needs --mus and --pi")
        res = exponent_multi_known(_parse_pmfs(args.mus), _parse_pmf(args.pi))
    elif kind == "multi-typ-known":
        require(args.mus is not None and args.pi is not None,
                "multi-typ-known needs --mus and --pi")
        res = exponent_multi_typ_known(_parse_pmfs(args.mus), _parse_pmf(args.pi))
    elif kind == "univ-single":
        require(args.mu is not None and args.pi is not None and args.m is not None,
                "univ-single needs --mu, --pi and --m")
        res = exponent_univ_single(
            _parse_pmf(args.mu), _parse_pmf(args.pi), args.m, _solver_options(args)
        )
    elif kind == "univ-multi":
        require(args.mus is not None and args.pi is not None and args.t is not None,
                "univ-multi needs --mus, --pi and --t")
        res = exponent_univ_multi(
            _parse_pmfs(args.mus), _parse_pmf(args.pi), args.t, _solver_options(args)
        )
    else:
        raise ValidationError(f"unknown exponent kind {kind!r}")
    record.update(
        value=float(res.value),
        solver=res.solver,
        iterations=res.iterations,
        feasibility_gap=float(res.feasibility_gap),
    )
    print(json.dumps(record, sort_keys=True))
    return 0


def cmd_bound(args) -> int:
    require(args.pi is not None, "bound needs --pi")
    pi = _parse_pmf(args.pi)
    if args.mus is not None:
        require(args.t is not None and args.m is not None, "multi bound needs --t and --m")
        res = thm_multi_lower_bound(_parse_pmfs(args.mus), pi, args.t, args.m)
        record = {"command": "bound", "kind": "multi", "t": args.t, "m": args.m}
    else:
        require(args.mu is not None and args.m is not None, "single bound needs --mu and --m")
        res = thm_single_lower_bound(_parse_pmf(args.mu), pi, args.m)
        record = {"command": "bound", "kind": "single", "m": args.m}
    record.update(value=float(res.value), solver=res.solver, iterations=res.iterations)
    print(json.dumps(record, sort_keys=True))
    return 0


DEFAULT_FIGURE_PAIRS = (
    ("0.3,0.7", "0.7,0.3"),
    ("0.35,0.65", "0.65,0.35"),
    ("0.4,0.6", "0.6,0.4"),
)


def cmd_figure(args) -> int:
    if args.pairs:
        pairs = []
        for spec in args.pairs.split(";"):
            parts = spec.split(":")
            require(len(parts) == 2, f"pair {spec!r} must be mu:pi")
            pairs.append((parts[0], parts[1]))
    else:
        pairs = list(DEFAULT_FIGURE_PAIRS)
    require(3 <= args.m_min <= args.m_max, "need 3 <= m-min <= m-max")
    print("pair,mu,pi,m,lower_bound,two_b")
    for idx, (mu_text, pi_text) in enumerate(pairs, start=1):
        mu, pi = _parse_pmf(mu_text), _parse_pmf(pi_text)
        two_b = 2.0 * bhattacharyya(mu, pi)
        for m in range(args.m_min, args.m_max + 1):
            bound = thm_single_lower_bound(mu, pi, m)
            print(",".join([
                str(idx), mu_text.replace(",", " "), pi_text.replace(",", " "),
                str(m), _fmt(bound.value), _fmt(two_b),
            ]))
    return 0


def cmd_detect(args) -> int:
    kind = DetectorKind(args.kind)
    if args.binary:
        obs = ObservationMatrix.from_binary(args.file)
    else:
        obs = ObservationMatrix.from_csv(args.file, k=args.k)
    mu = _parse_pmf(args.mu) if args.mu else None
    pi = _parse_pmf(args.pi) if args.pi else None
    family = None
    if kind in (DetectorKind.IDENTICAL_UNIV, DetectorKind.NULL_IDENTICAL):
        sizes = _parse_int_list(args.sizes) if args.sizes else None
        family = _family_for(kind, obs.m, args.t, sizes)
    table = score_table(kind, obs, mu=mu, pi=pi, t=args.t, family=family)
    lam = null_threshold(kind, args.lam, obs.m, obs.n, obs.k)
    decision = decide(table, lam)
    record = {
        "command": "detect",
        "kind": kind.value,
        "m": obs.m,
        "n": obs.n,
        "k": obs.k,
        "decision": str(decision),
        "scores": [[str(h), float(v)] for h, v in table.entries],
        "spread": float(table.spread()),
    }
    if lam is not None:
        record["lambda"] = lam
    print(json.dumps(record, sort_keys=True))
    return 0


def cmd_oracle(args) -> int:
    kind, family, mus, pi, mu = _sweep_setup(args)
    ns = _parse_int_list(args.n_grid)
    require(bool(ns), "oracle needs a nonempty --n-grid")

    # rows are printed only once every n has succeeded, so a failing run
    # leaves no partial CSV on stdout
    rows = ["n," + ",".join(f"err[{h}]" for h in family.hypotheses) + ",max"]
    for n in ns:
        worst, per = max_error(
            kind, family, n, args.k, mus, pi, mu=mu, t=args.t, lam=args.lam, cap=args.cap,
        )
        errs = [per[h].prob for h in family.hypotheses]
        rows.append(",".join([str(n)] + [_fmt(e) for e in errs] + [_fmt(worst.prob)]))
    print("\n".join(rows))
    return 0


def cmd_simulate(args) -> int:
    kind, family, mus, pi, mu = _sweep_setup(args)
    ns = tuple(_parse_int_list(args.n_grid))
    cfg = SimConfig(
        kind=kind, family=family, k=args.k, n_grid=ns, trials=args.trials,
        seed=args.seed, mus=mus, pi=pi, mu=mu, t=args.t, lam=args.lam,
    )
    meta = {
        "command": "simulate", "kind": kind.value, "seed": args.seed,
        "trials": args.trials, "rng": RNG_ALGORITHM, "version": __version__,
    }
    print(json.dumps(meta, sort_keys=True), file=sys.stderr)

    truth = _parse_truth(args.truth)
    sweep = exponent_sweep(cfg, truth) if len(ns) >= 4 else None
    ests = [estimate_error(cfg, truth, n) for n in ns] if sweep is None else sweep.estimates
    print("n,estimate,ci_lo,ci_hi,errors,trials")
    for n, est in zip(ns, ests):
        print(",".join([
            str(n), _fmt(est.estimate), _fmt(est.lo), _fmt(est.hi),
            str(est.errors), str(est.trials),
        ]))
    if sweep is not None:
        fit_note = {"slope_lo": sweep.slope_lo, "slope_hi": sweep.slope_hi}
        if sweep.fit is not None:
            fit_note["slope"] = sweep.fit.slope
        print(json.dumps(fit_note, sort_keys=True), file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outliertest",
        description="Outlier hypothesis tests, error exponents, and exact error sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_laws(p, with_mu=True, with_mus=True):
        if with_mu:
            p.add_argument("--mu", help="outlier pmf, comma-separated decimals")
        if with_mus:
            p.add_argument("--mus", help="per-coordinate outlier pmfs, ';'-separated")
        p.add_argument("--pi", help="typical pmf, comma-separated decimals")

    def add_solver(p):
        p.add_argument("--restarts", type=int, default=20)
        p.add_argument("--solver-seed", type=int, default=0)

    p = sub.add_parser("exponent", help="closed-form and solver-based error exponents")
    p.add_argument("--kind", required=True, choices=[
        "both-known", "multi-known", "multi-typ-known", "univ-single", "univ-multi",
    ])
    add_laws(p)
    p.add_argument("--m", type=int)
    p.add_argument("--t", type=int)
    add_solver(p)
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("bound", help="lower bounds from minimization over a KL ball")
    add_laws(p)
    p.add_argument("--m", type=int)
    p.add_argument("--t", type=int)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("figure", help="lower-bound vs 2B curves over an M sweep (CSV)")
    p.add_argument("--m-min", type=int, default=3)
    p.add_argument("--m-max", type=int, default=200)
    p.add_argument("--pairs", help="'mu:pi' specs separated by ';' (default three binary pairs)")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("detect", help="run a detector on an observation file")
    p.add_argument("--file", required=True)
    p.add_argument("--binary", action="store_true", help="file is the packed binary format")
    p.add_argument("--kind", required=True, choices=[k.value for k in DetectorKind])
    p.add_argument("--k", type=int, help="alphabet size override for CSV input")
    add_laws(p, with_mus=False)
    p.add_argument("--t", type=int)
    p.add_argument("--sizes", help="outlier-set sizes for identical-outlier families")
    p.add_argument("--lam", type=float, help="null threshold (default vanishing schedule)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("oracle", help="exact error sweep by type enumeration (CSV)")
    p.add_argument("--kind", required=True, choices=[k.value for k in DetectorKind])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-grid", required=True, help="comma-separated sample sizes")
    add_laws(p)
    p.add_argument("--t", type=int)
    p.add_argument("--sizes", help="outlier-set sizes for identical-outlier families")
    p.add_argument("--lam", type=float)
    p.add_argument("--cap", type=int, default=10**8)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="seeded Monte Carlo error sweep (CSV)")
    p.add_argument("--kind", required=True, choices=[k.value for k in DetectorKind])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-grid", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truth", required=True, help="'null', a coordinate, or 'i,j,...'")
    add_laws(p)
    p.add_argument("--t", type=int)
    p.add_argument("--sizes", help="outlier-set sizes for identical-outlier families")
    p.add_argument("--lam", type=float)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except EnumerationCapError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
