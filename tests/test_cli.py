"""CLI behavior: JSON output, parser round-trips, exit codes, verify."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import keypoly
from keypoly.cli import main
from keypoly.diagram import skyline
from keypoly.filling import Filling, enumerate_fillings, optimize, row_index_filling
from keypoly.moves import Move, MoveChain
from keypoly.polynomial import SparsePolynomial


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKey:
    def test_partition_single_term(self, capsys):
        code, out, _ = run(capsys, ["key", "3,2,1"])
        assert code == 0
        data = json.loads(out)
        assert data == {"n": 3, "terms": [{"exp": [3, 2, 1], "coeff": 1}]}
        assert SparsePolynomial.from_json_dict(data).coefficient((3, 2, 1)) == 1

    def test_worked_five_terms(self, capsys):
        code, out, _ = run(capsys, ["key", "1,3,2"])
        assert code == 0
        data = json.loads(out)
        assert len(data["terms"]) == 5
        assert data["terms"][0] == {"exp": [3, 2, 1], "coeff": 1}

    def test_negative_part_exits_2(self, capsys):
        code, out, err = run(capsys, ["key", "1,-1"])
        assert code == 2
        assert "nonnegative" in err

    def test_garbage_exits_2(self, capsys):
        code, _, _ = run(capsys, ["key", "1,x"])
        assert code == 2

    def test_pretty_is_valid_json(self, capsys):
        code, out, _ = run(capsys, ["--pretty", "key", "0,1"])
        assert code == 0 and "\n" in out
        assert json.loads(out)["n"] == 2


class TestExponentsAndClosure:
    def test_exponents(self, capsys):
        code, out, _ = run(capsys, ["exponents", "1,3,2"])
        assert code == 0
        assert json.loads(out) == [[3, 2, 1], [3, 1, 2], [2, 3, 1], [2, 2, 2], [1, 3, 2]]

    def test_closure_bfs_order(self, capsys):
        code, out, _ = run(capsys, ["closure", "0,2"])
        assert code == 0
        assert json.loads(out) == [[0, 2], [2, 0], [1, 1]]

    def test_closure_singleton(self, capsys):
        code, out, _ = run(capsys, ["closure", "2,1"])
        assert code == 0
        assert json.loads(out) == [[2, 1]]

    def test_closure_worked_example_has_five_vectors(self, capsys):
        code, out, _ = run(capsys, ["closure", "1,3,2"])
        assert code == 0
        got = json.loads(out)
        assert len(got) == 5
        assert sorted(map(tuple, got)) == [
            (1, 3, 2),
            (2, 2, 2),
            (2, 3, 1),
            (3, 1, 2),
            (3, 2, 1),
        ]


class TestCheck:
    def test_reachable_prints_chain(self, capsys):
        code, out, _ = run(capsys, ["check", "2,2,2", "1,3,2"])
        assert code == 0
        chain = MoveChain.from_json_dict(json.loads(out))
        assert chain.start == (1, 3, 2)
        assert chain.replay() == (2, 2, 2)

    def test_reflexive_empty_chain(self, capsys):
        code, out, _ = run(capsys, ["check", "1,3,2", "1,3,2"])
        assert code == 0
        assert json.loads(out)["moves"] == []

    def test_unreachable_exits_1(self, capsys):
        code, out, _ = run(capsys, ["check", "4,1,1", "1,3,2"])
        assert code == 1
        assert "not" in out

    def test_length_mismatch_exits_2(self, capsys):
        code, _, _ = run(capsys, ["check", "1,2", "1,2,3"])
        assert code == 2

    def test_bad_alpha_exits_2_naming_it(self, capsys):
        code, out, err = run(capsys, ["check", "1,2", "1,y"])
        assert code == 2
        assert out == ""
        assert "'1,y'" in err


class TestFillings:
    def test_round_trip_through_parser(self, capsys):
        code, out, _ = run(capsys, ["fillings", "1,3,2"])
        assert code == 0
        listed = [Filling.from_json_dict(d) for d in json.loads(out)]
        assert set(listed) == set(enumerate_fillings(skyline((1, 3, 2))))

    def test_increasing_subset(self, capsys):
        code, out, _ = run(capsys, ["fillings", "0,2,2", "--increasing"])
        assert code == 0
        all_code, all_out, _ = run(capsys, ["fillings", "0,2,2"])
        assert len(json.loads(out)) < len(json.loads(all_out))

    def test_part_too_large_exits_2(self, capsys):
        code, _, err = run(capsys, ["fillings", "5,0"])
        assert code == 2

    def test_output_order_is_deterministic_golden(self, capsys):
        code, out, _ = run(capsys, ["fillings", "0,2"])
        assert code == 0
        values = [[e["val"] for e in f["entries"]] for f in json.loads(out)]
        assert values == [[1, 1], [1, 2], [2, 1], [2, 2]]


class TestOpt:
    def test_optimizes_filling_from_file(self, tmp_path, capsys):
        f = row_index_filling(skyline((1, 2)))
        path = tmp_path / "filling.json"
        path.write_text(json.dumps(f.to_json_dict()))
        code, out, _ = run(capsys, ["opt", str(path)])
        assert code == 0
        assert Filling.from_json_dict(json.loads(out)) == optimize(f)

    def test_reads_stdin_with_dash(self, capsys, monkeypatch):
        import io

        f = next(iter(enumerate_fillings(skyline((0, 2)))))
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(f.to_json_dict())))
        code, out, _ = run(capsys, ["opt", "-"])
        assert code == 0
        assert Filling.from_json_dict(json.loads(out)) == optimize(f)

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, ["opt", "/nonexistent/filling.json"])
        assert code == 2

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, ["opt", str(path)])
        assert code == 2

    @pytest.mark.parametrize(
        "data, message",
        [
            ({}, "KeyError 'diagram'"),
            ({"diagram": {"n": 2}}, "KeyError 'columns'"),
            ([1], "TypeError"),
            ({"diagram": {"n": 2, "columns": [[1], [2]]}, "entries": [{"row": 1, "val": 1}]}, "KeyError 'col'"),
            ({"diagram": {"n": 2, "columns": [[1], [2]]}, "entries": 5}, "TypeError"),
            ({"diagram": {"n": "2", "columns": [[1], [2]]}, "entries": []}, "n must be an int, got '2'"),
            ({"diagram": {"n": 1, "columns": [["1"]]}, "entries": []}, "diagram rows must be ints"),
            (
                {"diagram": {"n": 1, "columns": [[1]]}, "entries": [{"row": 1, "col": 1, "val": "1"}]},
                "filling entries must be ints",
            ),
            ({"diagram": {"n": 2, "columns": [["a", 1], []]}, "entries": []}, "diagram rows must be ints"),
        ],
    )
    def test_malformed_filling_exits_2(self, tmp_path, capsys, data, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["opt", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err, err


class TestVerify:
    def test_small_run_writes_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPORT_DIR", str(tmp_path))
        code, out, _ = run(capsys, ["verify", "--n", "2", "--parts", "2"])
        assert code == 0
        summary = json.loads(out)
        assert summary["passed"] is True
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True
        assert {s["name"] for s in report["suites"]} == {
            "kk",
            "ccc",
            "theorem11",
            "aa",
            "rado",
            "bruhat",
        }

    def test_trivial_family_passes(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        code, out, _ = run(
            capsys, ["verify", "--n", "1", "--parts", "0", "--out", str(out_path)]
        )
        assert code == 0
        assert json.loads(out_path.read_text())["passed"] is True

    def test_suite_selection(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        code, _, _ = run(
            capsys,
            ["verify", "--n", "3", "--parts", "3", "--suite", "kk", "--out", str(out_path)],
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert [s["name"] for s in report["suites"]] == ["kk"]

    def test_repeated_suite_runs_once_in_first_seen_order(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        argv = ["verify", "--n", "2", "--parts", "2", "--out", str(out_path)]
        for name in ("ccc", "kk", "ccc", "kk"):
            argv += ["--suite", name]
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = json.loads(out_path.read_text())
        assert [s["name"] for s in report["suites"]] == list(json.loads(out)["suites"]) == ["ccc", "kk"]

    def test_bruhat_suite_over_s4(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        code, _, _ = run(
            capsys,
            ["verify", "--n", "4", "--parts", "3", "--suite", "bruhat", "--out", str(out_path)],
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        suite = report["suites"][0]
        assert suite["name"] == "bruhat" and suite["passed"]
        assert suite["checked"] == 1 + 2 + 6 + 24

    def test_bruhat_suite_sweeps_up_to_n(self, tmp_path, capsys):
        # bruhat sweeps S_1..S_n like the other suites sweep lengths 1..n
        out_path = tmp_path / "r.json"
        argv = ["verify", "--n", "5", "--parts", "0", "--suite", "bruhat", "--out", str(out_path)]
        code, _, _ = run(capsys, argv)
        assert code == 0
        suite = json.loads(out_path.read_text())["suites"][0]
        assert suite["passed"] and suite["checked"] == 1 + 2 + 6 + 24 + 120

    @pytest.fixture
    def no_sweep(self, monkeypatch):
        """Fail, instead of running for hours, if a guarded sweep starts."""

        def refuse(*args, **kwargs):
            raise AssertionError("an oversized verify sweep started")

        monkeypatch.setattr("keypoly.cli.run_verification", refuse)

    def test_n_cap_without_force(self, capsys, no_sweep):
        code, _, err = run(capsys, ["verify", "--n", "6"])
        assert code == 2
        assert "--force" in err

    def test_parts_cap_without_force(self, tmp_path, capsys, no_sweep):
        out_path = tmp_path / "r.json"
        code, out, err = run(capsys, ["verify", "--n", "5", "--parts", "50", "--out", str(out_path)])
        assert code == 2
        assert "--parts beyond 5 needs --force" in err
        assert out == "" and not out_path.exists()

    def test_unwritable_out_fails_before_the_sweep(self, tmp_path, capsys, no_sweep):
        out_path = tmp_path / "missing" / "r.json"
        code, out, err = run(capsys, ["verify", "--n", "6", "--force", "--out", str(out_path)])
        assert code == 2
        assert err.startswith("error: ") and "r.json" in err
        assert out == "" and not out_path.parent.exists()

    def test_parts_beyond_5_with_force(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        argv = ["verify", "--n", "1", "--parts", "6", "--force", "--suite", "theorem11", "--out", str(out_path)]
        code, _, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out_path.read_text())["suites"][0]["checked"] == 7

    def test_report_key_order(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        code, _, _ = run(capsys, ["verify", "--n", "2", "--parts", "1", "--out", str(path)])
        assert code == 0
        report = json.loads(path.read_text())
        assert list(report) == ["n_max", "part_max", "passed", "wall_time_s", "suites"]
        for suite in report["suites"]:
            assert list(suite) == [
                "name",
                "description",
                "passed",
                "checked",
                "wall_time_s",
                "failures",
            ]

    def test_reports_are_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                capsys,
                ["verify", "--n", "2", "--parts", "2", "--suite", "kk", "--out", str(path)],
            )
            assert code == 0
        ra = json.loads(a.read_text())
        rb = json.loads(b.read_text())
        for r in (ra, rb):
            r["wall_time_s"] = None
            for s in r["suites"]:
                s["wall_time_s"] = None
        assert ra == rb

    def test_verify_passes_without_asserts(self, tmp_path):
        # python -O strips assert statements; every invariant must still hold
        src = str(Path(keypoly.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path, "REPORT_DIR": str(tmp_path)}
        script = "from keypoly.cli import main; raise SystemExit(main(['verify', '--n', '3', '--parts', '3']))"
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads((tmp_path / "report.json").read_text())["passed"] is True


@pytest.mark.parametrize(
    "reader, data, message",
    [
        (MoveChain.from_json_dict, {}, "KeyError 'start'"),
        (MoveChain.from_json_dict, {"start": [1, 2], "moves": [5]}, "TypeError"),
        (Move.from_json_dict, {"kind": "T", "i": 1}, "KeyError 'j'"),
        (SparsePolynomial.from_json_dict, {"n": 2}, "KeyError 'terms'"),
        (SparsePolynomial.from_json_dict, {"n": 2, "terms": [{"exp": [1, 0]}]}, "KeyError 'coeff'"),
        (Move.from_json_dict, {"kind": "T", "i": 1.0, "j": 2}, "must be ints"),
        (Move.from_json_dict, {"kind": "T", "i": "1", "j": 2}, "must be ints"),
        (Move.from_json_dict, {"kind": "T", "i": True, "j": 2}, "must be ints"),
        (MoveChain.from_json_dict, {"start": ["a", 2.5], "moves": []}, "must be ints"),
        (MoveChain.from_json_dict, {"start": [True, 2], "moves": []}, "must be ints"),
    ],
)
def test_json_readers_refuse_malformed_data(reader, data, message):
    with pytest.raises(ValueError, match=message):
        reader(data)


def test_src_has_no_assert_statements():
    # python -O strips assert statements, so no invariant may rest on one
    package = Path(keypoly.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert modules
    for module in modules:
        tree = ast.parse(module.read_text(), filename=str(module))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{module.name}: assert on lines {lines}"


def test_package_exports_the_layers_all():
    names = ("polynomial", "diagram", "filling", "moves", "polytope", "bruhat", "verify")
    layers = [getattr(keypoly, name) for name in names]
    assert keypoly.__all__ == [name for layer in layers for name in layer.__all__]
    assert len(set(keypoly.__all__)) == len(keypoly.__all__)
    for layer in layers:
        for name in layer.__all__:
            assert getattr(keypoly, name) is getattr(layer, name), name
    assert keypoly.CertificateError is keypoly.polytope.CertificateError


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [["verify", "--slow"], ["--json", "key", "1,2"]])
    def test_removed_options_exit_2(self, capsys, argv):
        assert main(argv) == 2
