"""Command-line interface: output schemas, exit codes, determinism."""
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from outlier_testing import cli, oracle
from outlier_testing.cli import main
from outlier_testing.detectors import (
    Coordinate,
    DetectorKind,
    HypothesisFamily,
    ObservationMatrix,
    run_detector,
)
from outlier_testing.exponents import (
    SolverOptions,
    exponent_both_known,
    exponent_multi_known,
    exponent_multi_typ_known,
    exponent_univ_multi,
    exponent_univ_single,
    thm_multi_lower_bound,
)
from outlier_testing.oracle import exact_error
from outlier_testing.sim import generate
from outlier_testing.simplex import Pmf


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# generating laws of the wrong size for M=3, K=2: fewer and more pmfs than
# coordinates, and a pi or a mu on a three-letter alphabet
WRONG_SIZED_LAWS = [
    ("0.3,0.7;0.4,0.6", "0.7,0.3"),
    ("0.3,0.7;0.4,0.6;0.2,0.8;0.5,0.5", "0.7,0.3"),
    ("0.3,0.7", "0.5,0.3,0.2"),
    ("0.2,0.3,0.5", "0.7,0.3"),
]

# every exponent kind: the flags it needs (in the order its message names them)
# and the library call its record reports, at --restarts 2
MU, PI, MUS5 = "0.3,0.7", "0.7,0.3", "0.3,0.7;0.35,0.65;0.3,0.7;0.3,0.7;0.3,0.7"
OPTS2 = SolverOptions(restarts=2, seed=0)
EXPONENT_KINDS = [
    ("both-known", {"--mu": MU, "--pi": PI}, lambda mu, mus, pi: exponent_both_known(mu, pi)),
    ("multi-known", {"--mus": MUS5, "--pi": PI},
     lambda mu, mus, pi: exponent_multi_known(mus, pi)),
    ("multi-typ-known", {"--mus": MUS5, "--pi": PI},
     lambda mu, mus, pi: exponent_multi_typ_known(mus, pi)),
    ("univ-single", {"--mu": MU, "--pi": PI, "--m": "3"},
     lambda mu, mus, pi: exponent_univ_single(mu, pi, 3, OPTS2)),
    ("univ-multi", {"--mus": MUS5, "--pi": PI, "--t": "2"},
     lambda mu, mus, pi: exponent_univ_multi(mus, pi, 2, OPTS2)),
]


class TestExponentCommand:
    def test_both_known_value(self, capsys):
        code, out, _ = run(
            capsys, "exponent", "--kind", "both-known", "--mu", "0.3,0.7", "--pi", "0.7,0.3"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] == pytest.approx(0.17435338714477777, abs=1e-12)
        assert rec["solver"] == "closed_form"

    def test_univ_single_capped(self, capsys):
        code, out, _ = run(
            capsys, "exponent", "--kind", "univ-single", "--mu", "0.3,0.7",
            "--pi", "0.7,0.3", "--m", "3", "--restarts", "4",
        )
        assert code == 0
        rec = json.loads(out)
        assert 0.0 < rec["value"] <= 0.17435338714477777 + 1e-9

    @pytest.mark.parametrize("mu,pi,m", [
        *[("0.356,0.644", "0.317,0.683", m) for m in (3, 4, 6, 10)],
        ("0.48,0.52", "0.5,0.5", 3),
    ])
    def test_univ_single_close_laws(self, capsys, mu, pi, m):
        code, out, _ = run(
            capsys, "exponent", "--kind", "univ-single", "--mu", mu, "--pi", pi,
            "--m", str(m), "--restarts", "20",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["solver"] == "multistart_slsqp"
        assert rec["value"] > 0.0 and rec["feasibility_gap"] <= 1e-8

    def test_missing_law_exits_2(self, capsys):
        code, _, err = run(capsys, "exponent", "--kind", "both-known", "--mu", "0.3,0.7")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("kind,flags,call", EXPONENT_KINDS, ids=[c[0] for c in EXPONENT_KINDS])
    def test_record_is_the_library_result(self, capsys, kind, flags, call):
        argv = [a for flag in flags.items() for a in flag]
        code, out, _ = run(capsys, "exponent", "--kind", kind, *argv, "--restarts", "2")
        res = call(cli._parse_pmf(MU), cli._parse_pmfs(MUS5), cli._parse_pmf(PI))
        record = {"command": "exponent", "kind": kind, "value": float(res.value),
                  "solver": res.solver, "iterations": res.iterations,
                  "feasibility_gap": float(res.feasibility_gap)}
        assert code == 0 and out == json.dumps(record, sort_keys=True) + "\n"

    MISSING = [(kind, flags, flag) for kind, flags, _ in EXPONENT_KINDS for flag in flags]

    @pytest.mark.parametrize("kind,flags,dropped", MISSING,
                             ids=[f"{kind}-without-{flag[2:]}" for kind, _, flag in MISSING])
    def test_each_missing_flag_exits_2(self, capsys, kind, flags, dropped):
        argv = [a for flag in flags.items() if flag[0] != dropped for a in flag]
        code, out, err = run(capsys, "exponent", "--kind", kind, *argv)
        *head, last = flags
        assert (code, out) == (2, "")
        assert err == f"error: {kind} needs {', '.join(head)} and {last}\n"

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_rejected_argv_leaves_shared_parser_intact(self, capsys):
        # one parser serves every call in a process: a rejected argv must not change the next run
        assert cli.build_parser() is cli.build_parser()
        argv = ["exponent", "--kind", "both-known", "--mu", "0.3,0.7", "--pi", "0.7,0.3"]
        before = run(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            main(["exponent", "--kind", "both-known", "--mu"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == before
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.17435338714477777, abs=1e-12)


class TestParsing:
    """An argv that starts with a subcommand is parsed by that subcommand's parser alone,
    with the stderr and exit code the top-level parser gives."""

    ORACLE = ["oracle", "--kind", "univ-single", "--m", "3", "--k", "2", "--n-grid", "3",
              "--mus", MU, "--pi", PI]
    SIMULATE = ["simulate", "--kind", "univ-single", "--m", "3", "--k", "2", "--n-grid", "10",
                "--mus", MU, "--pi", PI, "--trials", "100", "--seed", "5", "--truth", "2"]
    ARGVS = {
        "oracle": ORACLE,
        "simulate": SIMULATE,
        "detect": ["detect", "--kind", "univ-single", "--file", "x.csv", "--lam", "0.5"],
        "bound": ["bound", "--mu", MU, "--pi", PI, "--m", "50"],
        "exponent": ["exponent", "--kind", "both-known", "--mu", MU, "--pi", PI],
        "figure": ["figure", "--m-max", "9"],
        "unrecognized": ORACLE + ["--bogus", "1", "extra"],
        "unrecognized-version": ["bound", "--version"],
        "missing-flag": ORACLE[:7],
        "bad-kind": ["simulate", "--kind", "nope", *SIMULATE[3:]],
    }

    @staticmethod
    def outcome(capsys, parse, argv):
        try:
            args, code = vars(parse(argv)), None
        except SystemExit as exc:
            args, code = None, exc.code
        out, err = capsys.readouterr()
        return args, code, out, err

    @pytest.mark.parametrize("argv", list(ARGVS.values()), ids=list(ARGVS))
    def test_subcommand_parser_alone(self, capsys, monkeypatch, argv):
        want = self.outcome(capsys, cli.build_parser().parse_args, argv)
        top = []
        monkeypatch.setattr(cli.build_parser(), "parse_args", lambda *a: top.append(a))
        assert self.outcome(capsys, cli._parse, argv) == want
        assert top == []

    @pytest.mark.parametrize("argv,message", [
        (ARGVS["unrecognized"], "outliertest: error: unrecognized arguments: --bogus 1 extra\n"),
        (ARGVS["missing-flag"],
         "outliertest oracle: error: the following arguments are required: --n-grid\n"),
        (ARGVS["bad-kind"], "outliertest simulate: error: argument --kind: invalid choice: 'nope'"),
    ], ids=["unrecognized", "missing-flag", "bad-kind"])
    def test_rejected_argv_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2 and message in err
        # extras are the top-level parser's to report, with its usage line
        usage = "usage: outliertest " + ("[-h] [--version]" if "unrecognized" in message
                                         else argv[0])
        assert err.startswith(usage)

    @pytest.mark.parametrize("argv,code", [([], 2), (["--help"], 0), (["--version"], 0),
                                           (["frobnicate"], 2)],
                             ids=["none", "help", "version", "unknown"])
    def test_everything_else_goes_through_the_top_level_parser(self, capsys, monkeypatch, argv,
                                                                code):
        parser, top = cli.build_parser(), []
        parse_args = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda a: top.append(a) or parse_args(a))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code and top == [argv]
        out, err = capsys.readouterr()
        if argv == ["--help"]:
            assert out.startswith("usage: outliertest [-h]")
        if code:
            assert err.startswith("usage: outliertest [-h]")


class TestBoundCommand:
    def test_single_bound_json(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--mu", "0.3,0.7", "--pi", "0.7,0.3", "--m", "50"
        )
        assert code == 0
        rec = json.loads(out)
        assert 0.0 < rec["value"] < 0.17435338714477777

    def test_bad_pmf_exits_2(self, capsys):
        code, _, _ = run(capsys, "bound", "--mu", "0.3,oops", "--pi", "0.7,0.3", "--m", "3")
        assert code == 2

    MUS = "0.1,0.9;0.15,0.85"

    def test_multi_bound_is_the_library_result(self, capsys):
        code, out, _ = run(capsys, "bound", "--mus", self.MUS, "--pi", PI, "--t", "2", "--m", "40")
        res = thm_multi_lower_bound(cli._parse_pmfs(self.MUS), cli._parse_pmf(PI), 2, 40)
        record = {"command": "bound", "kind": "multi", "t": 2, "m": 40, "value": float(res.value),
                  "solver": res.solver, "iterations": res.iterations}
        assert res.value > 0 and code == 0 and out == json.dumps(record, sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv,message", [
        (["--mus", MUS, "--pi", PI, "--m", "40"], "multi bound needs --t and --m"),
        (["--mus", MUS, "--pi", PI, "--t", "2"], "multi bound needs --t and --m"),
        (["--mus", MUS, "--t", "2", "--m", "40"], "bound needs --pi"),
        (["--mu", MU, "--pi", PI], "single bound needs --mu and --m"),
        (["--pi", PI, "--m", "40"], "single bound needs --mu and --m"),
    ])
    def test_each_missing_flag_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, "bound", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestFigureCommand:
    def test_row_count_and_schema(self, capsys):
        code, out, _ = run(capsys, "figure", "--m-min", "3", "--m-max", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "pair,mu,pi,m,lower_bound,two_b"
        assert len(lines) == 1 + 3 * 8
        bounds = {}
        for line in lines[1:]:
            pair, _, _, m, lb, two_b = line.split(",")
            bounds.setdefault(pair, []).append((int(m), float(lb), float(two_b)))
        for rows in bounds.values():
            lbs = [r[1] for r in rows]
            assert all(a <= b + 1e-9 for a, b in zip(lbs, lbs[1:]))
            assert all(r[1] <= r[2] + 1e-9 for r in rows)
            assert len({r[2] for r in rows}) == 1  # two_b constant per pair

    def test_rows_equal_single_bounds(self, capsys):
        # one batched solve per pair prints each M's own `bound --m M` value
        _, out, _ = run(capsys, "figure", "--m-min", "3", "--m-max", "70", "--pairs",
                        "0.3,0.7:0.7,0.3;0.2,0.3,0.5:0.5,0.3,0.2")
        for line in out.strip().splitlines()[1:]:
            _, mu, pi, m, lb, _ = line.split(",")
            code, single, _ = run(capsys, "bound", "--mu", mu.replace(" ", ","), "--pi",
                                  pi.replace(" ", ","), "--m", m)
            assert code == 0 and lb == "%.12g" % json.loads(single)["value"]


class TestDetectCommand:
    def test_hand_example(self, capsys, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("0,1\n0,0\n0,0\n")
        code, out, _ = run(
            capsys, "detect", "--file", str(path), "--kind", "ml-single",
            "--mu", "0.5,0.5", "--pi", "0.9,0.1", "--k", "2",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["decision"] == "coordinate 1"
        assert len(rec["scores"]) == 3

    def test_identical_rows_tie_to_first(self, capsys, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("0,1\n0,1\n0,1\n")
        code, out, _ = run(capsys, "detect", "--file", str(path), "--kind", "univ-single")
        assert json.loads(out)["decision"] == "coordinate 1" and code == 0

    def test_null_aware_large_lambda(self, capsys, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("0,1\n1,0\n0,1\n")
        code, out, _ = run(
            capsys, "detect", "--file", str(path), "--kind", "null-single",
            "--lam", "100",
        )
        assert json.loads(out)["decision"] == "null" and code == 0

    def test_scores_once(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "obs.csv"
        path.write_text("0,1,1\n0,0,1\n1,1,1\n")
        calls = []
        original = cli.score_table

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "score_table", counting)
        code, out, _ = run(capsys, "detect", "--file", str(path), "--kind", "univ-single")
        assert code == 0 and len(calls) == 1
        assert json.loads(out)["decision"] == "coordinate 3"

    def test_null_identical_scores_non_null_family(self, capsys, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("0,0,0,0\n1,1,1,1\n0,0,0,1\n0,0,1,0\n0,1,0,0\n")
        code, out, _ = run(
            capsys, "detect", "--file", str(path), "--kind", "null-identical",
            "--sizes", "1,2", "--lam", "0.1",
        )
        rec = json.loads(out)
        assert code == 0 and rec["lambda"] == 0.1
        assert len(rec["scores"]) == 5 + 10  # every size-1 and size-2 subset, no null
        assert rec["decision"] == "subset {2}"

    @pytest.mark.parametrize("kind,single", [("identical-univ", "univ-single"),
                                             ("null-identical", "null-single")])
    def test_size_one_family_labels_coordinates(self, capsys, tmp_path, kind, single):
        # 1 as the only size gives coordinates, scored as the single-outlier kind scores them
        path = tmp_path / "obs.csv"
        path.write_text("0,0,0,0\n1,1,1,1\n0,0,0,1\n0,0,1,0\n0,1,0,0\n")
        lam = ("--lam", "0.1")
        _, out, _ = run(capsys, "detect", "--file", str(path), "--kind", kind, "--sizes", "1", *lam)
        _, want, _ = run(capsys, "detect", "--file", str(path), "--kind", single, *lam)
        rec, ref = json.loads(out), json.loads(want)
        assert rec["scores"] == ref["scores"]
        assert [h for h, _ in rec["scores"]] == [f"coordinate {i}" for i in range(1, 6)]
        assert rec["decision"] == ref["decision"] == "coordinate 2"

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("not,numbers\nat,all\n")
        code, _, _ = run(capsys, "detect", "--file", str(path), "--kind", "univ-single")
        assert code == 2

    def test_binary_k_must_match_the_header(self, capsys, tmp_path):
        path = tmp_path / "obs.bin"
        ObservationMatrix(np.array([[0, 1], [0, 0], [1, 1]]), 2).to_binary(path)
        argv = ["detect", "--binary", "--file", str(path), "--kind", "univ-single"]
        code, out, err = run(capsys, *argv, "--k", "5")
        assert code == 2 and out == "" and "K=2" in err
        for extra in ([], ["--k", "2"]):
            code, out, _ = run(capsys, *argv, *extra)
            assert code == 0 and json.loads(out)["k"] == 2


    @pytest.mark.parametrize("argv", [[], ["--k", "1000000000"]], ids=["inferred", "given"])
    def test_oversized_alphabet_exits_2_before_allocating(self, capsys, tmp_path, argv):
        # K = 10^9 + 1 (inferred from the largest symbol) or 10^9 would ask
        # for a count table of M*K cells
        path = tmp_path / "obs.csv"
        path.write_text("0,1\n1,0\n0,999999999\n")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "detect", "--file", str(path), "--kind", "univ-single",
                                 *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert "M=3" in err and ("K=1000000000" in err or "K=1000000001" in err)
        assert peak < 5 << 20

    def test_constant_rows_print_positive_zeros(self, capsys, tmp_path):
        # size-1 members add a +0.0 inside dispersion to an outside one of -0.0
        path = tmp_path / "obs.csv"
        path.write_text("0,0,0,0\n" * 5)
        code, out, _ = run(capsys, "detect", "--file", str(path), "--kind", "identical-univ",
                           "--sizes", "1,2")
        members = [f"subset {{{i}}}" for i in range(1, 6)]
        members += [f"subset {{{i},{j}}}" for i in range(1, 6) for j in range(i + 1, 6)]
        scores = ", ".join(f'["{h}", 0.0]' for h in members)
        assert code == 0 and out == (
            '{"command": "detect", "decision": "subset {1}", "k": 2, "kind": "identical-univ", '
            f'"m": 5, "n": 4, "scores": [{scores}], "spread": 0.0}}\n')

    # SHA-256 of `detect` stdout on the files of `_pinned_file`, recorded from
    # the scorer that built the score table from (hypothesis, score) tuples
    PINNED = {
        (200, "ml-single"): "04e399b029721b1bb85ee22cc2dd209cd6cadd045c150390984b2b6b4dfbcff0",
        (200, "typ-single"): "d3a93faf63364e47b7bd0021f05ba4158692e265990c0958bec960aa61fa7e6b",
        (200, "mu-only"): "ba449d441a1da5a171da7eb4cde944784da538c06a30d88b15a451c55e93cd8d",
        (200, "univ-single"): "6fa1fea6a61d681b5b662d30004226b8d8da6db7787c9a9e7894925fc7bf66fb",
        (200, "null-single"): "f4b04bc40936c31d1a742fd7c4354cab1daa40fd1cc0174a011c329bf3eb836f",
        (12, "typ-multi"): "68dd16f4ca4b45ce881ef344f5e45afa5bb2ecf9710fff695a1496d1e9d5577a",
        (12, "univ-multi"): "d03d96756aec12557f518d1642f8cba9a711e43bbecafc9e1a9ffb8590cf13b4",
        (8, "identical-univ"): "221baadca90f987e74b10b898cc1573b348f258c8d0b7c9e5ac514f4a6dadd39",
        # recorded from the reader that counted with one bincount over int64 cells
        (1000, "ml-single"): "dbcc256b69b2213e6cde60a036031c2967bf453abb50e58baeae03d648b17a7a",
        (1000, "typ-single"): "9af9eef8e1023344d2b384baacf4618dce298412f388952d7404b34d0c42498e",
        (1000, "mu-only"): "81e465ae67e3ea5003787d99616ad216665c7b4678c08794a59eb654defbbfa5",
    }
    PINNED_OUTLIERS = {1000: 1, 200: 1, 12: 3, 8: 2}

    @staticmethod
    def _pinned_file(tmp_path, m, n_out, fmt):
        """n=100 binary symbols per row: 1 with probability 0.7 in n_out planted rows, else 0.3."""
        rng = np.random.default_rng([m, n_out])
        p = np.full(m, 0.3)
        p[rng.choice(m, size=n_out, replace=False)] = 0.7
        obs = ObservationMatrix((rng.random((m, 100)) < p[:, None]).astype(np.int64), 2)
        path = tmp_path / f"m{m}.{fmt}"
        obs.to_binary(path) if fmt == "bin" else obs.to_csv(path)
        return ["--file", str(path), *(["--binary"] if fmt == "bin" else ["--k", "2"])]

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    @pytest.mark.parametrize("m,kind", list(PINNED), ids=[f"{k}-M{m}" for m, k in PINNED])
    def test_record_bytes_are_pinned(self, capsys, tmp_path, fmt, m, kind):
        extra = {12: ["--t", "3"], 8: ["--sizes", "1,2,3"]}.get(m, [])
        file_argv = self._pinned_file(tmp_path, m, self.PINNED_OUTLIERS[m], fmt)
        code, out, _ = run(capsys, "detect", *file_argv, "--kind", kind,
                           "--mu", "0.3,0.7", "--pi", "0.7,0.3", *extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[m, kind]


class TestOracleCommand:
    ARGS = [
        "oracle", "--kind", "ml-single", "--m", "3", "--k", "2",
        "--n-grid", "10,20,30,40,50,60", "--mus", "0.3,0.7", "--pi", "0.7,0.3",
    ]

    def test_sweep_decreasing_max(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        maxes = [float(line.split(",")[-1]) for line in lines[1:]]
        assert all(a > b for a, b in zip(maxes, maxes[1:]))

    def test_byte_identical_rerun(self, capsys):
        _, first, _ = run(capsys, *self.ARGS)
        _, second, _ = run(capsys, *self.ARGS)
        assert first == second

    # univ-single enumerates type tuples; ml-single takes the per-coordinate route
    UNIV_ARGS = [a if a != "ml-single" else "univ-single" for a in ARGS]

    def test_cap_exits_4(self, capsys):
        code, _, err = run(capsys, *self.UNIV_ARGS, "--cap", "100")
        assert code == 4
        assert "cap" in err

    def test_decides_once_per_n(self, capsys, monkeypatch):
        calls = []
        original = oracle._block_decisions

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(oracle, "_block_decisions", counting)
        code, _, _ = run(capsys, *self.UNIV_ARGS)
        assert code == 0 and len(calls) == 6

    def test_per_coordinate_route_ignores_tuple_cap(self, capsys, monkeypatch):
        calls, routes = [], set()
        original, max_error = oracle._block_decisions, cli.max_error

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        def recording(*args, **kwargs):
            worst, log_probs = max_error(*args, **kwargs)
            routes.add(worst.route)
            return worst, log_probs

        monkeypatch.setattr(oracle, "_block_decisions", counting)
        monkeypatch.setattr(cli, "max_error", recording)
        code, out, _ = run(capsys, *self.ARGS, "--cap", "100")
        assert code == 0 and len(out.strip().splitlines()) == 7
        assert calls == [] and routes == {"per-coordinate"}

    @pytest.mark.parametrize("kind,fam,k,extra,t", [
        ("null-single", HypothesisFamily.single_outlier(3, include_null=True), 3, [], None),
        ("typ-multi", HypothesisFamily.fixed_size(5, 2), 2, ["--t", "2"], 2),
        ("identical-univ", HypothesisFamily.sized(5, [1, 2]), 2, ["--sizes", "1,2"], None),
    ])
    def test_rows_equal_exact_error(self, capsys, kind, fam, k, extra, t):
        mu, pi = ("0.2,0.3,0.5", "0.5,0.3,0.2") if k == 3 else ("0.3,0.7", "0.7,0.3")
        code, out, _ = run(
            capsys, "oracle", "--kind", kind, "--m", str(fam.m), "--k", str(k),
            "--n-grid", "2,3", "--mus", mu, "--pi", pi, *extra,
        )
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 3
        mu, pi = cli._parse_pmf(mu), cli._parse_pmf(pi)
        for n, line in zip((2, 3), lines[1:]):
            errs = [exact_error(DetectorKind(kind), fam, h, n, k, mu, pi).prob
                    for h in fam.hypotheses]
            assert line == ",".join([str(n)] + [cli._fmt(e) for e in errs] + [cli._fmt(max(errs))])

    @pytest.mark.parametrize("mus,pi", WRONG_SIZED_LAWS)
    def test_wrong_sized_laws_exit_2(self, capsys, mus, pi):
        code, _, err = run(capsys, "oracle", "--kind", "univ-single", "--m", "3", "--k", "2",
                           "--n-grid", "3", "--mus", mus, "--pi", pi)
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("extra,code", [
        (["--n-grid", "2,40", "--cap", "100"], 4),
        (["--n-grid", "2,3", "--pi", "0.5,0.3,0.2"], 2),
        (["--n-grid", "2,3", "--cap", "0"], 2),
        (["--n-grid", "2,3", "--cap", "-1"], 2),
    ])
    def test_failure_leaves_stdout_empty(self, capsys, extra, code):
        args = ["oracle", "--kind", "univ-single", "--m", "3", "--k", "2",
                "--mus", "0.3,0.7", "--pi", "0.7,0.3", *extra]
        got, out, _ = run(capsys, *args)
        assert got == code and out == ""


class TestSimulateCommand:
    ARGS = [
        "simulate", "--kind", "univ-single", "--m", "3", "--k", "2",
        "--n-grid", "10,20,30,40", "--trials", "150", "--seed", "9",
        "--truth", "2", "--mus", "0.3,0.7", "--pi", "0.7,0.3",
    ]

    def test_schema_and_determinism(self, capsys):
        code, first, err = run(capsys, *self.ARGS)
        assert code == 0
        lines = first.strip().splitlines()
        assert lines[0] == "n,estimate,ci_lo,ci_hi,errors,trials"
        assert len(lines) == 5
        meta = json.loads(err.splitlines()[0])
        assert meta["seed"] == 9
        _, second, _ = run(capsys, *self.ARGS)
        assert first == second

    def test_zero_trials_exits_2(self, capsys):
        args = list(self.ARGS)
        args[args.index("--trials") + 1] = "0"
        code, _, _ = run(capsys, *args)
        assert code == 2

    def test_null_truth(self, capsys):
        args = list(self.ARGS)
        args[args.index("--kind") + 1] = "null-single"
        args[args.index("--truth") + 1] = "null"
        code, out, _ = run(capsys, *args)
        assert code == 0
        ests = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert all(0.0 <= e <= 1.0 for e in ests)

    @pytest.mark.parametrize("mus,pi", WRONG_SIZED_LAWS)
    def test_wrong_sized_laws_exit_2(self, capsys, mus, pi):
        args = list(self.ARGS)
        args[args.index("--mus") + 1], args[args.index("--pi") + 1] = mus, pi
        code, _, err = run(capsys, *args)
        assert code == 2 and "error" in err

    def test_failure_leaves_stdout_empty(self, capsys):
        args = list(self.ARGS)
        args[args.index("--mus") + 1] = "0.3,0.7;0.4,0.6"
        code, out, err = run(capsys, *args)
        assert code == 2 and out == "" and "one outlier law per coordinate" in err

    def test_grid_of_two_distinct_n_exits_2(self, capsys):
        # four grid points ask for a slope fit, which two distinct n cannot give
        code, out, err = run(capsys, "simulate", "--kind", "ml-single", "--m", "3", "--k", "2",
                             "--n-grid", "10,10,10,20", "--trials", "200", "--seed", "1",
                             "--truth", "1", "--mus", "0.3,0.7", "--pi", "0.7,0.3")
        assert code == 2 and out == "" and "3 distinct" in err


class TestSimulateStream:
    """Full stdout of one simulate run per seed, each row's error count cross-checked.

    Trial t of truth 1 at n=10 draws `generate(..., (seed, 0, 10), t)`, block t
    of one PCG64 stream per (seed, truth, n).
    """

    ARGS = ["simulate", "--kind", "univ-single", "--m", "3", "--k", "2", "--n-grid", "10",
            "--trials", "100", "--truth", "1", "--mus", "0.3,0.7", "--pi", "0.7,0.3"]
    HEADER = "n,estimate,ci_lo,ci_hi,errors,trials\n"
    ROWS = [
        ("0", "10,0.27,0.186066422291,0.368016272909,27,100\n"),
        # a master seed of three 32-bit words
        ("99999999999999999999999", "10,0.3,0.21240642049,0.39981467618,30,100\n"),
    ]

    @pytest.mark.parametrize("seed,row", ROWS, ids=["seed-0", "seed-3-words"])
    def test_pinned_rows(self, capsys, seed, row):
        code, out, _ = run(capsys, *self.ARGS, "--seed", seed)
        assert code == 0
        assert out == self.HEADER + row

    @pytest.mark.parametrize("seed,row", ROWS, ids=["seed-0", "seed-3-words"])
    def test_pinned_errors_equal_per_trial_loop(self, seed, row):
        mu, pi = Pmf(np.array([0.3, 0.7])), Pmf(np.array([0.7, 0.3]))
        family = HypothesisFamily.single_outlier(3)
        errors = sum(
            run_detector(DetectorKind.UNIV_SINGLE,
                         generate(Coordinate(1), mu, pi, 3, 10, 2, (int(seed), 0, 10), trial),
                         family=family) != Coordinate(1)
            for trial in range(100))
        assert errors == int(row.split(",")[4])

    def test_stdout_is_the_same_in_every_process(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        outs = [subprocess.run(
            [sys.executable, "-m", "outlier_testing", *self.ARGS, "--seed", self.ROWS[1][0]],
            env={**env, "PYTHONHASHSEED": hash_seed}, capture_output=True, text=True,
            timeout=120, check=True).stdout for hash_seed in ("1", "2")]
        assert outs[0] == outs[1] == self.HEADER + self.ROWS[1][1]


class TestNegativeSeedsAndRestarts:
    @pytest.mark.parametrize("argv", [
        [*TestSimulateStream.ARGS, "--seed", "-1"],
        ["exponent", "--kind", "univ-single", "--mu", "0.3,0.7", "--pi", "0.7,0.3", "--m", "3",
         "--solver-seed", "-1"],
        ["exponent", "--kind", "univ-single", "--mu", "0.3,0.7", "--pi", "0.7,0.3", "--m", "3",
         "--restarts", "-1"],
        # the library takes T = 1 (univ-single's program); the univ-multi kind does not
        ["exponent", "--kind", "univ-multi", "--mus", MUS5, "--pi", PI, "--t", "1"],
        ["detect", "--binary", "--file", "no-such-observations.bin", "--kind", "univ-single"],
        ["detect", "--binary", "--file", ".", "--kind", "univ-single"],
        ["detect", "--file", "no-such-observations.csv", "--kind", "univ-single"],
        ["detect", "--file", ".", "--kind", "univ-single"],
        # the second pair fails after the first has produced its rows
        ["figure", "--m-min", "3", "--m-max", "4", "--pairs", "0.3,0.7:0.7,0.3;0.4,0.6:0.4,0.6"],
    ], ids=["seed", "solver-seed", "restarts", "univ-multi-t1", "binary-missing",
            "binary-directory", "csv-missing", "csv-directory", "figure-pair"])
    def test_exit_2_with_empty_stdout(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "error" in err


class TestBadLambda:
    """A NaN, infinite or negative --lam exits 2 for every kind, null-aware or not."""

    @pytest.mark.parametrize("command,kind,lam", [
        ("detect", "null-single", "nan"),
        ("detect", "null-single", "inf"),
        ("detect", "univ-single", "-5"),
        ("oracle", "null-single", "nan"),
        ("oracle", "univ-single", "nan"),
        ("simulate", "null-single", "nan"),
        ("simulate", "univ-single", "-inf"),
    ])
    def test_exit_2_with_empty_stdout(self, capsys, tmp_path, command, kind, lam):
        path = tmp_path / "obs.csv"
        path.write_text("0,1\n1,0\n0,1\n")
        argv = {
            "detect": ["detect", "--file", str(path)],
            "oracle": ["oracle", "--m", "3", "--k", "2", "--n-grid", "4",
                       "--mus", "0.3,0.7", "--pi", "0.7,0.3"],
            "simulate": TestSimulateStream.ARGS,
        }[command]
        code, out, err = run(capsys, *argv, "--kind", kind, f"--lam={lam}")
        assert code == 2 and out == "" and "lambda" in err


class TestEntryPoint:
    """`python -m outlier_testing` pins BLAS to one thread; the library does not."""

    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    SRC = str(Path(__file__).resolve().parents[1] / "src")

    def python(self, code, **env):
        base = {k: v for k, v in os.environ.items() if k not in self.VARS}
        base["PYTHONPATH"] = os.pathsep.join([self.SRC, base.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, *code], env={**base, **env},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def entry_point_env(self, **env):
        probe = (
            "import json, os, runpy, sys\n"
            "import outlier_testing\n"
            "early = 'numpy' in sys.modules\n"
            "sys.argv = ['outliertest', '--version']\n"
            "try:\n"
            "    runpy.run_module('outlier_testing', run_name='__main__')\n"
            "except SystemExit:\n"
            "    pass\n"
            f"print(json.dumps([early] + [os.environ.get(v) for v in {self.VARS!r}]))\n"
        )
        return json.loads(self.python(["-c", probe], **env).splitlines()[-1])

    def test_entry_point_defaults_to_one_thread(self):
        assert self.entry_point_env() == [False, "1", "1", "1"]

    def test_user_setting_wins(self):
        assert self.entry_point_env(OPENBLAS_NUM_THREADS="3") == [False, "3", "1", "1"]

    def test_library_import_leaves_environment(self):
        probe = ("import json, os, outlier_testing.cli\n"
                 f"print(json.dumps([os.environ.get(v) for v in {self.VARS!r}]))")
        assert json.loads(self.python(["-c", probe])) == [None, None, None]

    def test_cli_import_leaves_out_scipy_stats(self):
        probe = "import sys, outlier_testing.cli\nprint('scipy.stats' in sys.modules)"
        assert self.python(["-c", probe]).strip() == "False"

    def test_only_solving_commands_load_scipy_optimize(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("0,1\n0,0\n0,0\n")
        runs = [
            ["oracle", "--kind", "univ-single", "--m", "3", "--k", "2", "--n-grid", "4",
             "--mus", "0.3,0.7", "--pi", "0.7,0.3"],
            TestSimulateStream.ARGS,
            ["detect", "--file", str(path), "--kind", "univ-single"],
            ["bound", "--mu", "0.3,0.7", "--pi", "0.7,0.3", "--m", "50"],
            ["figure", "--m-min", "3", "--m-max", "12"],
            ["bound", "--mus", "0.3,0.7;0.2,0.8", "--pi", "0.7,0.3", "--t", "2", "--m", "8"],
            ["exponent", "--kind", "univ-single", "--mu", "0.3,0.7", "--pi", "0.7,0.3",
             "--m", "3", "--restarts", "0"],
        ]
        probe = (
            "import contextlib, io, json, sys\n"
            "from outlier_testing import cli\n"
            "loaded = ['scipy.optimize' in sys.modules]\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "    loaded.append('scipy.optimize' in sys.modules)\n"
            "print(json.dumps(loaded))\n"
        )
        # after the import, oracle, simulate, detect and the Frank-Wolfe
        # bounds (single bound, figure); then the Chernoff search of the
        # multi bound loads it
        assert json.loads(self.python(["-c", probe]).splitlines()[-1]) == [
            False, False, False, False, False, False, True, True]

    def test_univ_single_restarts_agree(self):
        # under the entry point's one BLAS thread, one of 20 starts ends 1.6e-9
        # outside the constraint, 1.5e-9 below the feasible minimum; polished
        # onto the constraint it gives the 4-start value
        argv = ["-m", "outlier_testing", "exponent", "--kind", "univ-single", "--mu", "0.356,0.644",
                "--pi", "0.317,0.683", "--m", "20", "--restarts"]
        four, twenty = (json.loads(self.python([*argv, n])) for n in ("4", "20"))
        assert abs(four["value"] - twenty["value"]) <= 1e-12
        assert max(four["feasibility_gap"], twenty["feasibility_gap"]) <= 1e-12

    @pytest.mark.parametrize("argv", [
        ["bound", "--mu", "0.3,0.7", "--pi", "0.7,0.3", "--m", "50"],
        ["figure", "--m-min", "3", "--m-max", "12"],
    ])
    def test_bounds_do_not_depend_on_blas_threads(self, argv):
        # the Frank-Wolfe bound sums rows with numpy and makes no BLAS call
        one, two = (self.python(["-m", "outlier_testing", *argv], OPENBLAS_NUM_THREADS=n)
                    for n in ("1", "2"))
        assert one == two and one

    def test_module_run_prints_as_main(self, capsys):
        argv = ["exponent", "--kind", "both-known", "--mu", "0.3,0.7", "--pi", "0.7,0.3"]
        _, want, _ = run(capsys, *argv)
        assert self.python(["-m", "outlier_testing", *argv]) == want
