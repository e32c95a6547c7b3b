import argparse
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import X_ONLY

import dercert.cli
import dercert.darboux
import dercert.derivation
import dercert.image
import dercert.simplicity
from dercert.cli import EXIT_INTERNAL, run_command
from dercert.darboux import NotDarboux, verify_darboux
from dercert.expr import parse_derivation, parse_poly, poly_to_str
from dercert.firstorder import FirstOrderSolution, solve_first_order
from dercert.image import Member, NotFoundUpTo
from dercert.mpoly import MultiPoly, VariableMismatch, ZeroPolynomial

POWER_GRID = Path(__file__).resolve().parents[1] / "grids" / "power_alpha2.jsonl"


def run_json(capsys, argv):
    code = run_command(["--json"] + argv)
    captured = capsys.readouterr()
    payload = captured.out or captured.err
    return code, json.loads(payload)


class TestAnalyze:
    def test_simple_quadratic(self, capsys):
        code, report = run_json(capsys, ["analyze", "deriv{x: y, y: x*y^2 + 1}"])
        assert code == 0
        assert report["results"]["simplicity"]["simple"] is True
        assert report["results"]["simplicity"]["theorem"] == "T2.1"

    def test_generic_unsupported(self, capsys):
        code, report = run_json(capsys, ["analyze", "deriv{x: x, y: y}"])
        assert code == 3

    def test_linear_family_full_report(self, capsys):
        code, report = run_json(capsys, ["analyze", "deriv{x: y, y: x*y + 1}"])
        assert code == 0
        assert report["results"]["simplicity"]["simple"] is True
        assert report["results"]["mz"]["mz"] is False
        assert report["results"]["locally_finite"] is False


class TestAnalyzePowerFamily:
    def test_necessary_conditions_reported(self, capsys):
        code, report = run_json(capsys, ["analyze", "deriv{x: y^2, y: x*y^3 + 1}"])
        assert code == 0
        assert report["family"]["name"] == "plane-power"
        assert report["family"]["alpha"] == 2
        assert report["results"]["necessary_conditions"]["passed"] is True

    def test_failing_conditions_carry_witness(self, capsys):
        code, report = run_json(
            capsys, ["analyze", "deriv{x: y^2, y: (x + 1)*y^3 + x*y^2 + 1}"]
        )
        assert code == 0
        necessary = report["results"]["necessary_conditions"]
        assert necessary["passed"] is False
        assert necessary["l"] == "1"
        assert necessary["witness"]["generators"] == ["y + 1"]


class TestImage:
    def test_member_exit_zero(self, capsys):
        code, report = run_json(
            capsys,
            ["image", "deriv{x: y, y: x*y + 1}", "--target", "1", "--bound", "3"],
        )
        assert code == 0
        assert report["results"]["membership"]["status"] == "member"

    def test_not_found_with_certificate(self, capsys):
        code, report = run_json(
            capsys,
            ["image", "deriv{x: y, y: x*y + 1}", "--target", "x", "--bound", "10"],
        )
        assert code == 4
        assert report["results"]["membership"] == {
            "status": "not-found-up-to",
            "bound": 10,
        }
        assert report["results"]["certified"]["theorem"] == "P2.2"

    @pytest.mark.parametrize(
        "derivation, target",
        [
            ("deriv{x: y, y: x*y + 1}", "-x"),
            ("deriv{x: 1, y1: x*y1, y2: y2^2}", "-2*y1^3"),
            ("deriv{x: y, y: x*y + 1}", "-1"),
        ],
    )
    def test_negative_target_as_separate_argument(self, capsys, derivation, target):
        # argparse would read a lone -x as an option; it must bind to --target
        split = run_json(capsys, ["image", derivation, "--target", target, "--bound", "3"])
        joined = run_json(capsys, ["image", derivation, f"--target={target}", "--bound", "3"])
        for code, report in (split, joined):
            assert code != 2
            report.pop("timing_ms")
        assert split == joined


class TestMz:
    def test_diag_x_not_mz(self, capsys):
        code, report = run_json(capsys, ["mz", "deriv{x: 1, y1: y1^2}"])
        assert code == 0
        assert report["results"]["mz"]["mz"] is False
        assert report["results"]["mz"]["theorem"] == "T5.1"

    def test_unsupported_family(self, capsys):
        code, report = run_json(capsys, ["mz", "deriv{x: y, y: x*y^2 + 1}"])
        assert code == 3


# a search that finds y + 1, among others
DARBOUX_FOUND = [
    "--json", "darboux", "deriv{x: y, y: (x - 1)*y^2 + x*y + 1}",
    "--n-max", "2", "--d0-deg", "2", "--cx-deg", "3",
]


class TestDarboux:
    def test_found(self, capsys):
        code = run_command(DARBOUX_FOUND)
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        search = report["results"]["search"]
        assert search["status"] == "found"
        assert any(entry["F"] == "y + 1" for entry in search["found"])

    def test_none_up_to_bounds_exit_four(self, capsys):
        code, report = run_json(
            capsys,
            ["darboux", "deriv{x: y, y: x*y^2 + 1}", "--n-max", "2"],
        )
        assert code == 4
        assert report["results"]["search"]["status"] == "none-up-to-bounds"

    def test_undecided_reports_the_solver_reason(self, capsys):
        code, report = run_json(
            capsys,
            [
                "darboux",
                "deriv{x: y^3, y: (x+1)*y^4 + (2*x-1)*y^3 + 1}",
                "--n-max", "3", "--d0-deg", "2", "--cx-deg", "4", "--effort", "0",
            ],
        )
        assert code == 4
        search = report["results"]["search"]
        assert search["status"] == "undecided-residual"
        assert search["detail"] == (
            "residual solver gave up at y-degree 3 (effort budget exhausted)"
        )

    def test_unsupported_shape(self, capsys):
        code, report = run_json(
            capsys, ["darboux", "deriv{x: y, y: y^2 + 1}"]
        )
        assert code == 3


class TestPlaneOverY1:
    """A plane derivation over (x, y1) gets its certificates over (x, y1)."""

    def replays(self, text, generators):
        D = parse_derivation(text)
        gens = [parse_poly(g, D.variables) for g in generators]
        return dercert.simplicity.verify_stable_ideal(D, gens)

    def test_condition_3_witness(self, capsys):
        text = "deriv{x: y1, y1: (2*x - 4)*y1^2 + x*y1 + 1}"
        code, report = run_json(capsys, ["analyze", text])
        assert code == 0
        cert = report["results"]["simplicity"]["certificate"]
        assert cert == {"generators": ["y1 + 1/2"], "kind": "stable_ideal", "l": "2"}
        assert self.replays(text, cert["generators"])

    def test_condition_1_pair(self, capsys):
        text = "deriv{x: y1, y1: x^2*y1 + x}"
        code, report = run_json(capsys, ["analyze", text])
        assert code == 0
        generators = report["results"]["simplicity"]["certificate"]["generators"]
        assert generators == ["y1", "x"]
        assert self.replays(text, generators)

    def test_power_family_witness(self, capsys):
        text = "deriv{x: y1^2, y1: (x + 1)*y1^3 + x*y1^2 + 1}"
        code, report = run_json(capsys, ["analyze", text])
        assert code == 0
        check = report["results"]["necessary_conditions"]
        assert check["failed_condition"] == 3 and check["l"] == "1"
        assert check["witness"]["generators"] == ["y1 + 1"]
        assert self.replays(text, check["witness"]["generators"])

    def test_found_darboux_pair(self, capsys):
        text = "deriv{x: y1, y1: (2*x - 4)*y1^2 + x*y1 + 1}"
        code, report = run_json(capsys, ["darboux", text, "--n-max", "1"])
        assert code == 0
        (entry,) = report["results"]["search"]["found"]
        assert (entry["F"], entry["cofactor"], entry["n"]) == (
            "y1 + 1/2", "2*x*y1 - 4*y1 + 2", 1
        )
        assert (entry["d1"], entry["d0"]) == ("2*x - 4", "2")
        D = parse_derivation(text)
        pair = verify_darboux(D, parse_poly(entry["F"], D.variables))
        assert poly_to_str(pair.cofactor) == entry["cofactor"]

    def test_ideal_image_names_the_variable(self, capsys):
        code, report = run_json(capsys, ["mz", "deriv{x: y1, y1: x*y1}"])
        assert code == 0
        assert report["results"]["mz"]["evidence"] == {"kind": "image-is-ideal", "value": "y1"}


def _raises(fault):
    def broken(family):
        raise fault("injected")

    return broken


def _zero_first_order_a(family):
    return solve_first_order(MultiPoly.zero(X_ONLY), MultiPoly.var(X_ONLY, "x"))


class TestInternalFault:
    def test_failed_self_check_exits_five_with_report(self, monkeypatch, capsys):
        real = dercert.image.solve_sparse

        def off_by_one(rows, rhs, ncols):
            solution = real(rows, rhs, ncols)
            solution.particular[0] += 1
            return solution

        monkeypatch.setattr(dercert.image, "solve_sparse", off_by_one)
        code = run_command(
            ["image", "deriv{x: y, y: x*y + 1}", "--target", "1", "--bound", "3", "--json"]
        )
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL == 5
        assert captured.out == ""
        report = json.loads(captured.err)
        assert report["exit_code"] == 5
        assert "does not map to the target" in report["results"]["error"]

    def test_failed_descent_self_check_exits_five(self, monkeypatch, capsys):
        real = dercert.image.solve_first_order

        def off_by_one(a, g, k=1):
            solution = real(a, g, k)
            return FirstOrderSolution(solution.c + MultiPoly.constant(solution.c.variables, 1), [])

        monkeypatch.setattr(dercert.image, "solve_first_order", off_by_one)
        # D(x^2*y + 2/3*y^2 - x) for y*dx + (3*y^2 + x*y)*dy
        target = "3*x^2*y^2 + x^3*y + 4*y^3 + 10/3*x*y^2 - y"
        code = run_command(
            ["--json", "image", "deriv{x: y, y: 3*y^2 + x*y}", "--target", target, "--bound", "4"]
        )
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert captured.out == ""
        report = json.loads(captured.err)
        assert report["exit_code"] == EXIT_INTERNAL
        assert "does not map to the target" in report["results"]["error"]

    def test_scan_fault_is_reported_without_json(self, monkeypatch, tmp_path, capsys):
        grid = tmp_path / "grid.jsonl"
        # x*y^2 + (x + 1)*y^3 + 1 fails condition 3 with l = 1, so its
        # witness is replayed
        grid.write_text('{"a2": "x + 1", "a1": "x", "a0": "1"}\n')
        monkeypatch.setattr(dercert.simplicity, "verify_stable_ideal", lambda D, gens: False)
        code = run_command(
            ["conjecture-scan", "--alpha", "2", "--grid", str(grid), "--out", str(tmp_path / "ev")]
        )
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert "exit_code" not in captured.out
        assert "internal check failed: constructed witness failed verification" in captured.err


    def test_contradicted_certificate_exits_five(self, monkeypatch, capsys):
        # the P2.2 pattern says x is never in the image; a sanity solve that
        # finds x at bound 4 contradicts it
        def membership(D, target, bound):
            if bound == 3:
                return NotFoundUpTo(bound=bound)
            return Member(preimage=target, kernel_dim=1, bound=bound)

        monkeypatch.setattr(dercert.image, "image_membership", membership)
        code = run_command(
            ["--json", "image", "deriv{x: y, y: x*y + 1}", "--target", "x", "--bound", "3"]
        )
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert captured.out == ""
        report = json.loads(captured.err)
        assert report["exit_code"] == EXIT_INTERNAL
        assert "certified pattern contradicted" in report["results"]["error"]

    def test_uncertified_obstruction_exits_five(self, monkeypatch, capsys):
        # y1^2 is not locally finite, so the verdict needs the certificate for y1
        monkeypatch.setattr(dercert.image, "_match_pattern", lambda family, target: None)
        code = run_command(["--json", "mz", "deriv{x: 1, y1: y1^2}"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert captured.out == ""
        report = json.loads(captured.err)
        assert report["exit_code"] == EXIT_INTERNAL
        assert "no proven pattern certifies" in report["results"]["error"]

    def test_residual_point_missing_the_system_exits_five(self, monkeypatch, capsys):
        real = dercert.darboux._solve_recursive

        def with_bad_point(eqs, params, path, budget):
            result = real(eqs, params, path, budget)
            result.solutions.append(dict.fromkeys(params, Fraction(7919)))
            return result

        monkeypatch.setattr(dercert.darboux, "_solve_recursive", with_bad_point)
        code = run_command(DARBOUX_FOUND)
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert captured.out == ""
        report = json.loads(captured.err)
        assert report["exit_code"] == EXIT_INTERNAL
        assert "a residual solution misses the system" in report["results"]["error"]

    def test_rejected_darboux_candidate_exits_five(self, monkeypatch, capsys):
        monkeypatch.setattr(dercert.darboux, "verify_darboux", lambda D, F: NotDarboux("injected"))
        code = run_command(DARBOUX_FOUND)
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert captured.out == ""
        report = json.loads(captured.err)
        assert report["exit_code"] == EXIT_INTERNAL
        assert "a solved candidate is not Darboux: injected" in report["results"]["error"]

    @pytest.mark.parametrize(
        "broken, message",
        [
            pytest.param(_raises(ZeroPolynomial), "injected", id="ZeroPolynomial"),
            pytest.param(_raises(VariableMismatch), "injected", id="VariableMismatch"),
            pytest.param(
                _zero_first_order_a, "coefficient polynomial must be nonzero", id="zero-a"
            ),
        ],
    )
    def test_polynomial_core_fault_exits_five(self, monkeypatch, capsys, broken, message):
        # these are ValueErrors, but never a property of the user's input
        monkeypatch.setattr(dercert.cli, "decide_simple_family_a", broken)
        code = run_command(["--json", "analyze", "deriv{x: y, y: x*y^2 + 1}"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert captured.out == ""
        report = json.loads(captured.err)
        assert report["exit_code"] == EXIT_INTERNAL
        assert message in report["results"]["error"]


class TestParseErrors:
    def test_bad_polynomial(self, capsys):
        code, report = run_json(
            capsys, ["image", "deriv{x: y, y: x*y + 1}", "--target", "x y", "--bound", "3"]
        )
        assert code == 2
        assert "error" in report["results"]

    def test_bad_derivation(self, capsys):
        code, report = run_json(capsys, ["analyze", "deriv{x: y, x: y}"])
        assert code == 2

    def test_coefficient_too_long_to_print(self, capsys):
        code, report = run_json(capsys, ["analyze", "deriv{x: y, y: x*y + 10^5000}"])
        assert code == 2
        assert report["results"]["error"] == "a coefficient has more than 4300 digits (column 16)"

    @pytest.mark.parametrize(
        "argv",
        [
            ["image", "deriv{x: 1, y: 0}", "--target", "(" * 400 + "x" + ")" * 400, "--bound", "2"],
            ["image", "deriv{x: 1, y: 0}", "--target", "-" * 1200 + "x", "--bound", "2"],
            ["analyze", "deriv{x: " + "(" * 400 + "y" + ")" * 400 + ", y: 1}"],
        ],
    )
    def test_deep_nesting_is_a_parse_error(self, capsys, argv):
        code, report = run_json(capsys, argv)
        assert code == report["exit_code"] == 2
        assert report["results"]["error"].startswith("nesting deeper than 100 (column ")

    def test_negative_bound(self, capsys):
        code, report = run_json(
            capsys,
            ["image", "deriv{x: y, y: x*y + 1}", "--target", "x", "--bound", "-1"],
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["darboux", "deriv{x: y, y: x*y^2 + 1}", "--n-max", "0"],
            ["darboux", "deriv{x: y, y: x*y^2 + 1}", "--d0-deg", "-1"],
            ["darboux", "deriv{x: y, y: x*y^2 + 1}", "--cx-deg", "-1"],
            ["darboux", "deriv{x: y, y: x*y^2 + 1}", "--effort", "-1"],
            ["conjecture-scan", "--alpha", "2", "--grid", str(POWER_GRID), "--n-max", "0"],
            ["conjecture-scan", "--alpha", "2", "--grid", str(POWER_GRID), "--d0-deg", "-1"],
        ],
    )
    def test_out_of_range_search_bounds(self, capsys, argv):
        code, report = run_json(capsys, argv)
        assert code == 2
        assert report["exit_code"] == 2
        assert "must be" in report["results"]["error"]

    def test_missing_grid_file(self, capsys):
        code, report = run_json(
            capsys, ["conjecture-scan", "--alpha", "2", "--grid", "/nonexistent.jsonl"]
        )
        assert code == 2

    def test_missing_grid_file_reported_without_json(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        code = run_command(["conjecture-scan", "--alpha", "2", "--grid", str(missing)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "command: conjecture-scan" in captured.err
        assert str(missing) in captured.err

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"a2": "x", "a1": "0"}',
            '["x", "0", "1"]',
            '{"a2": 3, "a1": "0", "a0": "1"}',
            "{",
            '{"a2": "x +", "a1": "0", "a0": "1"}',
        ],
    )
    def test_malformed_grid_line(self, tmp_path, capsys, bad_line):
        grid = tmp_path / "grid.jsonl"
        grid.write_text('{"a2": "x", "a1": "0", "a0": "1"}\n\n' + bad_line + "\n")
        code, report = run_json(capsys, ["conjecture-scan", "--alpha", "2", "--grid", str(grid)])
        assert code == report["exit_code"] == 2
        assert report["results"]["error"].startswith(f"{grid}:3: ")

    def test_unparsable_grid_coefficient_names_its_field(self, tmp_path, capsys):
        grid = tmp_path / "grid.jsonl"
        grid.write_text('{"a2": "x", "a1": "x*", "a0": "1"}\n')
        code, report = run_json(capsys, ["conjecture-scan", "--alpha", "2", "--grid", str(grid)])
        assert code == 2
        assert report["results"]["error"] == f"{grid}:1: a1: unexpected end of input (column 3)"


class TestScan:
    def test_scan_writes_jsonl(self, tmp_path, capsys):
        grid = tmp_path / "grid.jsonl"
        grid.write_text(
            "\n".join(
                [
                    json.dumps({"a2": "x", "a1": "0", "a0": "1"}),
                    json.dumps({"a2": "x + 1", "a1": "x", "a0": "1"}),
                ]
            )
        )
        out = tmp_path / "evidence.jsonl"
        code = run_command(
            [
                "conjecture-scan",
                "--alpha", "2",
                "--grid", str(grid),
                "--n-max", "2",
                "--d0-deg", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 2
        assert rows[0]["necessary"] == "pass"
        assert rows[0]["darboux_status"] == "none-up-to-bounds"
        assert rows[1]["necessary"] == "fail"
        assert rows[1]["l_witness"] == "1"
        assert rows[1]["darboux_status"] == "skipped"
        for row in rows:
            assert row["alpha"] == 2
            assert set(row) >= {"alpha", "a2", "a1", "a0", "necessary", "darboux_status", "bounds"}

    def test_counts_cover_every_cell(self, tmp_path, capsys):
        grid = tmp_path / "grid.jsonl"
        grid.write_text(
            "\n".join(
                json.dumps({"a2": a2, "a1": a1, "a0": "1"})
                for a2, a1 in [("x", "0"), ("x - 1", "x"), ("1", "x"), ("x + 1", "x")]
            )
        )
        # alpha = 3: x - 1 = l*a1 - l^4*a0 with l = 1 fails the necessary
        # conditions, constant a2 is unsupported, and effort 0 leaves
        # a2 = x + 1 undecided at y-degree 3
        code, report = run_json(
            capsys,
            [
                "conjecture-scan", "--alpha", "3", "--grid", str(grid),
                "--n-max", "3", "--cx-deg", "4", "--effort", "0",
                "--out", str(tmp_path / "evidence.jsonl"),
            ],
        )
        assert code == 0
        counts = report["results"]
        assert counts == {
            "cells": 4,
            "found": 0,
            "necessary_fail": 1,
            "none_up_to_bounds": 1,
            "undecided_residual": 1,
            "unsupported": 1,
        }
        assert sum(v for k, v in counts.items() if k != "cells") == counts["cells"]

    def test_bounds_record_the_effort(self, tmp_path, capsys):
        # effort 0 can turn a row undecided, so the report and every row say so
        grid = tmp_path / "grid.jsonl"
        grid.write_text(json.dumps({"a2": "x + 1", "a1": "x", "a0": "1"}))
        out = tmp_path / "evidence.jsonl"
        code, report = run_json(
            capsys,
            ["conjecture-scan", "--alpha", "3", "--grid", str(grid), "--effort", "0", "--out", str(out)],
        )
        assert code == 0
        bounds = {"n_max": 2, "d0_deg_max": 2, "cx_deg_max": 3, "residual_effort": 0}
        assert report["bounds"] == bounds
        assert [json.loads(line)["bounds"] for line in out.read_text().splitlines()] == [bounds]

    def test_power_grid_at_default_bounds(self, tmp_path, capsys):
        out = tmp_path / "evidence.jsonl"
        code, report = run_json(
            capsys,
            ["conjecture-scan", "--alpha", "2", "--grid", str(POWER_GRID), "--out", str(out)],
        )
        assert code == 0
        assert report["bounds"] == {
            "n_max": 2, "d0_deg_max": 2, "cx_deg_max": 3, "residual_effort": 100
        }
        assert report["results"] == {
            "cells": 96,
            "found": 0,
            "necessary_fail": 39,
            "none_up_to_bounds": 45,
            "undecided_residual": 0,
            "unsupported": 12,
        }
        assert len(out.read_text().splitlines()) == 96


class TestReportPlumbing:
    def test_out_file(self, tmp_path):
        path = tmp_path / "report.json"
        code = run_command(
            ["--json", "--out", str(path), "analyze", "deriv{x: y, y: x*y^2 + 1}"]
        )
        assert code == 0
        report = json.loads(path.read_text())
        assert report["schema"] == "dercert-report/1"
        assert report["exit_code"] == 0

    def test_text_rendering_is_function_of_json(self, capsys):
        from dercert.cli import render_text

        code, report = run_json(capsys, ["analyze", "deriv{x: y, y: x*y^2 + 1}"])
        text_once = render_text(report)
        text_twice = render_text(json.loads(json.dumps(report)))
        assert text_once == text_twice

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (["analyze", "deriv{x: y, y: x*y + 1}"], 0),
            (["image", "deriv{x: y, y: x*y + 1}", "--target", "x", "--bound", "3"], 4),
        ],
    )
    def test_module_entry_point(self, capsys, argv, exit_code):
        # `python -m dercert.cli` runs the same request as run_command
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-m", "dercert.cli", "--json", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == exit_code
        report = json.loads(run.stdout or run.stderr)
        _, expected = run_json(capsys, argv)
        assert report["exit_code"] == exit_code
        assert {**report, "timing_ms": 0} == {**expected, "timing_ms": 0}


ANALYZE = ["analyze", "deriv{x: y, y: x*y^2 + 1}"]


class TestReusedParser:
    """Requests in one process share a parser; no flag carries over."""

    def test_json_does_not_carry_over(self, capsys):
        run_json(capsys, ANALYZE)
        assert run_command(ANALYZE) == 0
        out = capsys.readouterr().out
        assert out.startswith("command: analyze\n")

    def test_darboux_bound_falls_back_to_its_default(self, capsys):
        darboux = ["darboux", "deriv{x: y, y: x*y^2 + 1}"]
        _, first = run_json(capsys, darboux + ["--n-max", "1"])
        assert first["bounds"]["n_max"] == 1
        _, second = run_json(capsys, darboux)
        assert second["bounds"]["n_max"] == 3

    def test_out_does_not_carry_over(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert run_command(["--json", "--out", str(path)] + ANALYZE) == 0
        written = path.read_text()
        assert run_command(["--json"] + ANALYZE) == 0
        assert json.loads(capsys.readouterr().out)["exit_code"] == 0
        assert path.read_text() == written

    def test_parse_error_then_valid_request(self, capsys):
        assert run_command(["analyze"]) == 2
        assert "the following arguments are required: derivation" in capsys.readouterr().err
        code, report = run_json(capsys, ANALYZE)
        assert code == 0
        assert report["results"]["simplicity"]["simple"] is True

    def test_help_then_valid_request(self, capsys):
        assert run_command(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: dercert")
        code, report = run_json(capsys, ANALYZE)
        assert code == 0
        assert report["command"] == "analyze"

    def test_parser_is_built_on_the_first_call_only(self, monkeypatch, capsys):
        monkeypatch.setattr(dercert.cli, "_parser", None, raising=False)
        built: list[int] = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built[-1] += 1
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(3):
            built.append(0)
            assert run_command(ANALYZE) == 0
        capsys.readouterr()
        assert built[0] > 0
        assert built[1:] == [0, 0]


class TestRecognizeOnce:
    """cli, decide_mz and certified_nonmembership share one recognition."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "deriv{x: y, y: x*y + 1}"],
            ["analyze", "deriv{y1: 2*y1^2, y2: y2}"],
            ["mz", "deriv{x: 1, y1: x*y1^2, y2: y2}"],
            ["mz", "deriv{y1: y1^2, y2: 3*y2}"],
            ["image", "deriv{x: y, y: x*y + 1}", "--target", "x", "--bound", "3"],
            ["image", "deriv{x: y, y: x*y^2 + 1}", "--target", "y", "--bound", "2"],
        ],
    )
    def test_one_recognition_per_request(self, monkeypatch, capsys, argv):
        calls: Counter = Counter()
        for name in ("_recognize", "_recognize_plane", "_recognize_diag_x", "_recognize_diag"):
            real = getattr(dercert.derivation, name)

            def counted(D, real=real, name=name):
                calls[name] += 1
                return real(D)

            monkeypatch.setattr(dercert.derivation, name, counted)
        assert run_command(["--json"] + argv) in (0, 4)
        capsys.readouterr()
        assert calls["_recognize"] == 1
        assert max(calls.values()) == 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


class TestEmitter:
    """--json reports are json.dumps(report, indent=2, sort_keys=True), byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_matches_json_dumps(self, value):
        assert dercert.cli._json(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_escapes_and_non_ascii(self):
        value = {"b": ["\u00e9\n\"\\", "\ud83d\ude00", "\x00"], "a": {}, "c": [], "d": -0.0}
        assert dercert.cli._json(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_golden_reports_reemit(self):
        golden = json.loads((Path(__file__).parent / "golden_reports.json").read_text())
        for case in golden:
            report = {**case["report"], "timing_ms": 12.375}
            assert dercert.cli._json(report) == json.dumps(report, indent=2, sort_keys=True)
