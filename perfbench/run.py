"""Benchmark of the `outliertest` subcommands: one closed-loop client, in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of `outliertest` argv (see workloads.py).  A
pass runs every job once, back to back, through `outlier_testing.cli.main`
with stdout captured, and a calibration slice after each (calibration.py)
gives every time also at a fixed machine speed.  Passes repeat until the
next one would end after S seconds (at least three untraced passes; with
--trace 1, untraced and traced passes alternate).  The first pass's outputs
are checked (checks.py) and every later pass must print byte-identical
outputs.  The program is imported from the checkout's `src/`; without it
the benchmark exits 2.

The last stdout line is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1).  Lines before it are the human-readable report.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# One client, no threads of its own: BLAS must not add any either.  Set
# before numpy is first imported, here and in the set-up child processes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3  # fresh processes timed per run; setup_s is their median
MIN_PASSES = 3  # untraced passes per --trace 0 run
CEILING_S = 140.0  # never start a pass that could end after this
WORKLOAD_NAMES = ("exact-oracle", "monte-carlo", "exponent-solvers", "detect-files")

END_TO_END_UNITS = {"setup_s": "s", "wall_cal_s": "s", "job_p50_cal_ms": "ms",
                    "job_p90_cal_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this fresh process, print it as JSON and exit")
    return p.parse_args(argv)


def set_up(workload: str, seed: int, workdir: Path):
    """Import the CLI and build the workload's inputs; the time this takes is setup_s.

    Returns the CLI module, the jobs, the stored references, a calibration,
    and the set-up time in seconds and in calibrated seconds.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from outlier_testing import cli

    import workloads

    jobs = workloads.build(workload, seed, workdir)
    refs = json.loads((HERE / "references.json").read_text())
    t1 = time.perf_counter()
    from calibration import Calibration

    calibration = Calibration()
    calibration.after_job(t1 - t0)
    return cli, jobs, refs, calibration, (t1 - t0, calibration.scale(t0, t1))


def setup_in_child(workload: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_job(cli, argv) -> tuple[str, object]:
    """Run one `outliertest` command line in process; returns (stdout, exit code)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash fails this job; the benchmark carries on
        code = "crash: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    return out.getvalue(), code


def run_pass(cli, jobs, calibration, recorder=None):
    """Run every job once.

    Returns (wall seconds, per-job seconds, per-job calibrated seconds,
    stdouts, exit codes).  The wall sums the jobs, so it excludes the
    calibration slices between them.
    """
    times, outs, codes = [], [], []
    gc.collect()
    calibration.slices.clear()
    for j, job in enumerate(jobs):
        if recorder is not None:
            recorder.job = j
        t0 = time.perf_counter()
        out, code = run_job(cli, job.argv)
        t1 = time.perf_counter()
        times.append((t0, t1))
        outs.append(out)
        codes.append(code)
        calibration.after_job(t1 - t0)
    lat = [t1 - t0 for t0, t1 in times]
    return sum(lat), lat, [calibration.scale(t0, t1) for t0, t1 in times], outs, codes


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def run_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": BLAS_THREADS, "git_commit": git_commit(),
    }


def per_layer_metrics(summary: dict, speed: float) -> dict:
    """Per-layer metrics of one traced pass; times are multiplied by `speed`,
    the pass's calibrated over raw job time, so they share the end-to-end
    metrics' reference speed."""
    import spans

    groups, layers = summary["groups"], summary["layers"]

    def g(group, field):
        return groups.get(group, {}).get(field, 0 if field in ("calls", "count") else 0.0)

    def self_s(layer):
        return layers.get(layer, {}).get("self_s", 0.0)

    m = {
        "cli.calls": (g("cli", "calls"), "count"),
        "cli.self_s": (self_s("cli"), "s"),
        "detectors.score_table.calls": (g("detectors.score_table", "calls"), "count"),
        "detectors.score_table.s": (g("detectors.score_table", "s"), "s"),
        "detectors.score_table.rows": (g("detectors.score_table", "count"), "count"),
        "detectors.io.s": (g("detectors.io", "s"), "s"),
        "simplex.calls": (g("simplex", "calls"), "count"),
        "simplex.s": (g("simplex", "s"), "s"),
        "oracle.exact_error.calls": (g("oracle.exact_error", "calls"), "count"),
        "oracle.exact_error.s": (g("oracle.exact_error", "s"), "s"),
        "oracle.enumerate_types.s": (g("oracle.enumerate_types", "s"), "s"),
        "oracle.tuples": (g("oracle.exact_error", "count"), "count"),
        "sim.estimate_error.s": (g("sim.estimate_error", "s"), "s"),
        "sim.generate.calls": (g("sim.generate", "calls"), "count"),
        "sim.generate.s": (g("sim.generate", "s"), "s"),
        "sim.trials": (g("sim.estimate_error", "count"), "count"),
        "sim.clopper_pearson.s": (g("sim.clopper_pearson", "s"), "s"),
        "exponents.univ.calls": (g("exponents.univ", "calls"), "count"),
        "exponents.univ.s": (g("exponents.univ", "s"), "s"),
        "exponents.univ.iterations": (g("exponents.univ", "count"), "count"),
        "exponents.kl_ball.calls": (g("exponents.kl_ball", "calls"), "count"),
        "exponents.kl_ball.s": (g("exponents.kl_ball", "s"), "s"),
        "exponents.kl_ball.iterations": (g("exponents.kl_ball", "count"), "count"),
    }
    m = {name: (value * speed if unit == "s" else value, unit) for name, (value, unit) in m.items()}
    rate = lambda work, s: work / s if s > 0 else 0.0  # noqa: E731
    m["oracle.tuples_per_s"] = (rate(m["oracle.tuples"][0], m["oracle.exact_error.s"][0]), "1/s")
    m["sim.trials_per_s"] = (rate(m["sim.trials"][0], m["sim.estimate_error.s"][0]), "1/s")
    for layer in spans.LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = (self_s(layer) * speed, "s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "outlier_testing" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'outlier_testing'} is missing",
              file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    cli, jobs, refs, calibration, setup0 = set_up(args.workload, args.seed, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup0}))
        return 0
    import checks
    import spans

    setups = [setup0]
    if not args.trace:
        setups += [setup_in_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    checker = checks.Checker(jobs, refs)
    recorder = spans.Recorder() if args.trace else None

    passes = []  # (traced, per-job seconds, per-job calibrated seconds)
    first_outs, verdicts, failures = None, [], []
    attempted = failed = 0
    controls = caught = 0
    summaries = []
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            recorder.install()
        try:
            wall, lat, cal, outs, codes = run_pass(cli, jobs, calibration,
                                                  recorder if traced else None)
        finally:
            if traced:
                recorder.uninstall()
        if traced:
            summaries.append(spans.summarize(recorder.spans))
            recorder.reset()
        if first_outs is None:
            first_outs = outs
            verdicts = [f"exit code {c}" if c != 0 else checker.check(j, outs)
                        for j, c in enumerate(codes)]
            for j, verdict in enumerate(verdicts):
                if verdict is not None:
                    continue
                for bad in checker.perturbations(j, outs):
                    controls += 1
                    caught += checker.check(j, outs[:j] + [bad] + outs[j + 1:]) is not None
            for j, variants in checker.rerun_controls():
                controls += 1
                caught += any(run_job(cli, argv)[0] != outs[j] for argv in variants)
        for j, (out, code) in enumerate(zip(outs, codes)):
            attempted += 1
            why = verdicts[j]
            if code != 0:
                why = f"exit code {code}"
            elif why is None and out != first_outs[j]:
                why = "output differs from the first pass"
            if why is not None:
                failed += 1
                failures.append(f"pass {len(passes) + 1} job {j} "
                                f"({' '.join(jobs[j].argv[:3])} ...): {why}")
        passes.append((traced, lat, cal))

        n_traced = sum(p[0] for p in passes)
        enough = (len(passes) - n_traced >= (2 if args.trace else MIN_PASSES)
                  and n_traced >= args.trace)
        elapsed = time.perf_counter() - t_start
        if elapsed + wall > CEILING_S or (enough and elapsed + wall > args.seconds):
            break

    untraced = [p for p in passes if not p[0]]
    print(f"workload {args.workload}, seed {args.seed}, {len(jobs)} jobs, "
          f"{len(untraced)} untraced + {len(passes) - len(untraced)} traced passes "
          f"in {time.perf_counter() - t_start:.1f} s; closed loop, 1 client in 1 process")
    print("facts " + json.dumps(run_facts(), sort_keys=True))
    print("pass walls, s (calibrated s): " + ", ".join(
        f"{sum(lat):.4f} ({sum(cal):.4f}){' traced' if t else ''}" for t, lat, cal in passes))
    print(f"checks: {attempted - failed}/{attempted} job runs passed; "
          f"failed_frac {failed / attempted:.4g}; negative controls caught {caught}/{controls}")
    for line in failures[:20]:
        print("  FAIL " + line)

    if args.trace:
        metrics = trace_metrics(summaries, passes, recorder.missing)
        write_trace(args, summaries[-1])
    else:
        raw = summarize_passes([p[1] for p in untraced])
        calibrated = summarize_passes([p[2] for p in untraced])
        print("setup samples, s (calibrated s): "
              + ", ".join(f"{s:.4f} ({c:.4f})" for s, c in setups))
        print(f"per-job latency: median over {len(untraced)} passes for each of {len(jobs)} jobs; "
              f"{calibrated['beyond_p90']} jobs lie beyond the calibrated p90")
        print(f"uncalibrated: setup_s {statistics.median(s for s, _ in setups):.6g} s, "
              f"wall_s {raw['wall']:.6g} s, job_p50_ms {raw['p50_ms']:.6g} ms, "
              f"job_p90_ms {raw['p90_ms']:.6g} ms")
        values = {
            "setup_s": statistics.median(c for _, c in setups),
            "wall_cal_s": calibrated["wall"],
            "job_p50_cal_ms": calibrated["p50_ms"],
            "job_p90_cal_ms": calibrated["p90_ms"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.6g} {unit}")

    result = {
        "correct": failed == 0 and caught == controls,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def summarize_passes(latencies: list[list[float]]) -> dict:
    """Median pass wall, and p50/p90 over jobs of each job's median latency."""
    per_job = [statistics.median(column) for column in zip(*latencies)]
    p90 = statistics.quantiles(per_job, n=10)[8]
    return {"wall": statistics.median(sum(lat) for lat in latencies),
            "p50_ms": 1000 * statistics.median(per_job), "p90_ms": 1000 * p90,
            "beyond_p90": sum(x > p90 for x in per_job)}


def trace_metrics(summaries, passes, missing) -> dict:
    speeds = [sum(cal) / sum(lat) for t, lat, cal in passes if t]
    rows = [per_layer_metrics(s, speed) for s, speed in zip(summaries, speeds)]
    metrics = {name: (statistics.median(r[name][0] for r in rows), unit)
               for name, (_, unit) in rows[0].items()}
    # the first pass pays one-off costs (lazy imports, first allocations), so
    # compare traced passes with the later untraced ones
    traced = [sum(cal) for t, _, cal in passes if t]
    untraced = [sum(cal) for t, _, cal in passes if not t]
    warm = untraced[1:] or untraced
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(warm) - 1.0, "ratio")
    job_s = sum(passes[-1 if passes[-1][0] else -2][1])
    print(f"layer time in the last traced pass, as a share of its {job_s:.3f} s of job time:")
    print(f"  {'layer':10s} {'self s':>9s} {'share':>6s} {'inclusive s':>12s} {'share':>6s}")
    for layer, t in sorted(summaries[-1]["layers"].items(), key=lambda kv: -kv[1]["s"]):
        print(f"  {layer:10s} {t['self_s']:9.4f} {100 * t['self_s'] / job_s:5.1f}% "
              f"{t['s']:12.4f} {100 * t['s'] / job_s:5.1f}%")
    print("breakdown (calls, ms per call, work count):")
    for (group, key), (calls, s, count) in sorted(summaries[-1]["keyed"].items()):
        print(f"  {group} [{key}]: {calls} calls, {1000 * s / calls:.4g} ms/call, count {count}")
    if missing:
        print("not traced (absent from the program): " + ", ".join(missing))
    return metrics


def write_trace(args, summary) -> None:
    path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    keyed = {f"{g} [{k}]": v for (g, k), v in summary["keyed"].items()}
    path.write_text(json.dumps({"groups": summary["groups"], "layers": summary["layers"],
                                "keyed": keyed}, indent=1, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
