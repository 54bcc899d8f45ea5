"""Command-line interface: output schemas, exit codes, determinism."""
import json

import numpy as np
import pytest

from outlier_testing import cli, oracle
from outlier_testing.cli import main
from outlier_testing.detectors import DetectorKind, HypothesisFamily
from outlier_testing.oracle import exact_error


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

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


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

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("not,numbers\nat,all\n")
        code, _, _ = run(capsys, "detect", "--file", str(path), "--kind", "univ-single")
        assert code == 2


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

    def test_cap_exits_4(self, capsys):
        code, _, err = run(capsys, *self.ARGS, "--cap", "100")
        assert code == 4
        assert "cap" in err

    def test_decides_once_per_n(self, capsys, monkeypatch):
        calls = []
        original = oracle.tuple_decisions

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(oracle, "tuple_decisions", counting)
        code, _, _ = run(capsys, *self.ARGS)
        assert code == 0 and len(calls) == 6

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
            errs = [exact_error(DetectorKind(kind), fam, h, n, k, mu, pi, t=t).prob
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
