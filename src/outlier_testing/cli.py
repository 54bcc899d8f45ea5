"""Command-line front end for exponents, bounds, oracles, and simulations.

Subcommands emit JSON for single results and CSV for sweeps, on stdout;
logs go to stderr.  Every command is deterministic given its arguments,
so repeated runs are byte-identical.

Exit codes: 0 success, 2 validation failure, 3 solver non-convergence,
4 enumeration cap exceeded.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
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
from .detectors import family_for as _family_for  # the name perfbench/make_references.py imports
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
from .oracle import DEFAULT_TUPLE_CAP, LawSpec, max_error
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


#: each exponent kind: its library call, the flags it takes in call order,
#: and whether it also takes the solver options
_EXPONENTS = {
    "both-known": (exponent_both_known, ("mu", "pi"), False),
    "multi-known": (exponent_multi_known, ("mus", "pi"), False),
    "multi-typ-known": (exponent_multi_typ_known, ("mus", "pi"), False),
    "univ-single": (exponent_univ_single, ("mu", "pi", "m"), True),
    "univ-multi": (exponent_univ_multi, ("mus", "pi", "t"), True),
}
_PARSERS = {"mu": _parse_pmf, "mus": _parse_pmfs, "pi": _parse_pmf, "m": int, "t": int}


def cmd_exponent(args) -> int:
    kind = args.kind
    solve, names, uses_solver = _EXPONENTS[kind]
    record = {"command": "exponent", "kind": kind}
    opts = _solver_options(args)  # checked whether or not the kind uses the solver
    *head, last = (f"--{name}" for name in names)
    require(all(getattr(args, name) is not None for name in names),
            f"{kind} needs {', '.join(head)} and {last}")
    require(kind != "univ-multi" or args.t > 1, "univ-multi needs T > 1 (T=1 is univ-single)")
    values = [_PARSERS[name](getattr(args, name)) for name in names]
    res = solve(*values, opts) if uses_solver else solve(*values)
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
    pairs = [s.split(":") for s in args.pairs.split(";")] if args.pairs else DEFAULT_FIGURE_PAIRS
    for pair in pairs:
        require(len(pair) == 2, f"pair {':'.join(pair)!r} must be mu:pi")
    require(3 <= args.m_min <= args.m_max, "need 3 <= m-min <= m-max")
    # rows are printed only once every pair has succeeded, so a failing run
    # leaves stdout empty
    rows, ms = ["pair,mu,pi,m,lower_bound,two_b"], np.arange(args.m_min, args.m_max + 1)
    for idx, (mu_text, pi_text) in enumerate(pairs, start=1):
        mu, pi = _parse_pmf(mu_text), _parse_pmf(pi_text)
        two_b = 2.0 * bhattacharyya(mu, pi)
        for m, bound in zip(ms, thm_single_lower_bound(mu, pi, ms)):
            rows.append(",".join([str(idx), mu_text.replace(",", " "), pi_text.replace(",", " "),
                                  str(m), _fmt(bound.value), _fmt(two_b)]))
    print("\n".join(rows))
    return 0


def cmd_detect(args) -> int:
    kind = DetectorKind(args.kind)
    if args.binary:
        obs = ObservationMatrix.from_binary(args.file)
        require(args.k in (None, obs.k), f"--k {args.k} differs from the file's K={obs.k}")
    else:
        obs = ObservationMatrix.from_csv(args.file, k=args.k)
    mu = _parse_pmf(args.mu) if args.mu else None
    pi = _parse_pmf(args.pi) if args.pi else None
    sizes = _parse_int_list(args.sizes) if args.sizes else None
    family = _family_for(kind, obs.m, args.t, sizes)
    table = score_table(kind, obs, mu=mu, pi=pi, family=family)
    lam = null_threshold(kind, args.lam, obs.m, obs.n, obs.k)
    decision = decide(table, lam)
    record = {
        "command": "detect",
        "kind": kind.value,
        "m": obs.m,
        "n": obs.n,
        "k": obs.k,
        "decision": str(decision),
        "scores": [[str(h), v] for h, v in zip(table.hypotheses, table.scores.tolist())],
        "spread": table.spread(),
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
        worst, log_probs = max_error(kind, family, n, args.k, mus, pi, mu=mu, lam=args.lam,
                                     cap=args.cap)
        errs = [math.exp(e) for e in log_probs.tolist()] + [worst.prob]
        rows.append(",".join([str(n)] + [_fmt(e) for e in errs]))
    print("\n".join(rows))
    return 0


def cmd_simulate(args) -> int:
    kind, family, mus, pi, mu = _sweep_setup(args)
    ns = tuple(_parse_int_list(args.n_grid))
    cfg = SimConfig(
        kind=kind, family=family, k=args.k, n_grid=ns, trials=args.trials,
        seed=args.seed, mus=mus, pi=pi, mu=mu, lam=args.lam,
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
    """The `outliertest` parser, built once per process: parsing leaves it unchanged."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The `outliertest` parser and each subcommand's parser, by name."""
    parser = argparse.ArgumentParser(
        prog="outliertest",
        description="Outlier hypothesis tests, error exponents, and exact error sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_laws(p, with_mus=True):
        p.add_argument("--mu", help="outlier pmf, comma-separated decimals")
        if with_mus:
            p.add_argument("--mus", help="per-coordinate outlier pmfs, ';'-separated")
        p.add_argument("--pi", help="typical pmf, comma-separated decimals")

    def add_detector(p, sweep):
        """A detector kind and its inputs; a sweep also takes M, K, the n grid and --mus."""
        p.add_argument("--kind", required=True, choices=[k.value for k in DetectorKind])
        if sweep:
            p.add_argument("--m", type=int, required=True)
            p.add_argument("--k", type=int, required=True)
            p.add_argument("--n-grid", required=True, help="comma-separated sample sizes")
        add_laws(p, with_mus=sweep)
        p.add_argument("--t", type=int)
        p.add_argument("--sizes", help="outlier-set sizes for identical-outlier families")
        p.add_argument("--lam", type=float, help="null threshold (default vanishing schedule)")

    p = sub.add_parser("exponent", help="closed-form and solver-based error exponents")
    p.add_argument("--kind", required=True, choices=list(_EXPONENTS))
    add_laws(p)
    p.add_argument("--m", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--solver-seed", type=int, default=0)
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
    p.add_argument("--k", type=int, help="alphabet size (CSV override; must match a binary header)")
    add_detector(p, sweep=False)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("oracle", help="exact error sweep (CSV): per-coordinate key ranking "
                       "for certified known-law kinds, type-tuple enumeration otherwise")
    add_detector(p, sweep=True)
    p.add_argument("--cap", type=int, default=DEFAULT_TUPLE_CAP,
                   help="most type classes and enumerated type tuples per n")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="seeded Monte Carlo error sweep (CSV)")
    add_detector(p, sweep=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="master seed (>= 0); trial t of (truth, n) is block t of the PCG64 "
                   "stream of SeedSequence((seed, truth index, n))")
    p.add_argument("--truth", required=True, help="'null', a coordinate, or 'i,j,...'")
    p.set_defaults(func=cmd_simulate)

    return parser, sub.choices


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """Parse ``argv`` as the top-level parser does.

    An argv that starts with a subcommand goes straight to that subcommand's
    parser, which is the one the top-level parser would hand the rest to;
    arguments it does not know are reported by the top-level parser, as there.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subcommands = _parsers()
    if not argv or argv[0] not in subcommands:
        return parser.parse_args(argv)
    args, extras = subcommands[argv[0]].parse_known_args(argv[1:],
                                                         argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    try:
        # the library takes lam = inf (always NULL), but JSON has no infinity
        lam = getattr(args, "lam", None)
        require(lam is None or np.isfinite(lam), "lambda must be finite")
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
