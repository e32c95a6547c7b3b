"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from dercert import cli  # noqa: E402


def traced_request(argv):
    tracer = tracing.Tracer()
    tracer.install()
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            tracer.request = 0
            code = cli.run_command(argv)
            tracer.request = None
    finally:
        tracer.uninstall()
    return code, json.loads(buf.getvalue()), tracer


def test_counters_on_fixed_image_instance():
    code, report, tracer = traced_request(
        ["--json", "image", "deriv{x: y, y: x*y + 1}", "--target", "1", "--bound", "10"]
    )
    assert code == 0
    assert tracer.missing == []
    metrics, _ = tracing.layer_metrics(tracer.spans, 1, 1)
    # 66 monomials of degree <= 10; their images and the target use 75;
    # the kernel up to degree 10 is the constants
    assert metrics["linalg.solve_calls"][0] == 1
    assert metrics["linalg.rows"][0] == 75
    assert metrics["linalg.cols"][0] == 66
    assert metrics["linalg.rank"][0] == 65
    assert report["results"]["membership"]["kernel_dim"] == 1


def test_spans_nest_inside_the_request():
    _, _, tracer = traced_request(
        ["--json", "darboux", "deriv{x: y, y: (x - 1)*y^2 + x*y + 1}", "--n-max", "1",
         "--d0-deg", "1", "--cx-deg", "2"]
    )
    spans = tracer.spans
    assert spans[0].name == "cli.request" and spans[0].parent == -1
    assert all(s.parent >= 0 for s in spans[1:])
    assert all(spans[s.parent].start <= s.start <= s.end <= spans[s.parent].end for s in spans[1:])
    table = tracing.span_table(spans)
    assert {"darboux.search", "darboux.residual", "firstorder.solve"} <= set(table)
    total_self = sum(row["self"] for row in table.values())
    assert total_self == pytest.approx(table["cli.request"]["total"])


def test_uninstall_restores_every_binding():
    from dercert import image, linalg

    before = (image.solve_sparse, linalg.solve_sparse, cli.run_command)
    tracer = tracing.Tracer()
    tracer.install()
    assert image.solve_sparse is not before[0]
    tracer.uninstall()
    assert (image.solve_sparse, linalg.solve_sparse, cli.run_command) == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_depend_only_on_seed_and_index(name, tmp_path):
    def argvs(seed, index):
        return [r.argv for r in workloads.generate_round(name, seed, index, str(tmp_path))]

    assert argvs(7, 3) == argvs(7, 3)
    assert argvs(7, 3) != argvs(8, 3)
    assert argvs(7, 3) != argvs(7, 4)


def test_closed_form_rules():
    x = workloads._uni
    # a2 = l*a1 - l^2*a0 with l = 2: not simple
    assert workloads.condition3_l(x([-4, 2]), x([0, 1]), Fraction(1)) == [2]
    assert not workloads.simple_plane(x([-4, 2]), x([0, 1]), x([1]))
    assert workloads.simple_plane(x([0, 1]), {}, x([1]))
    assert not workloads.simple_plane(x([0, 1]), {}, x([0, 1]))
    # beta = 2: a2 = l*a1 + l^3*a0 with l = -1
    assert workloads.condition3_l(x([-1, -1]), x([0, 1]), Fraction(1), beta=2) == [-1]
    assert workloads.uni_str(x([3, 0, -1])) == "-1*x^2 + 3"


def _image_request(target):
    d = "deriv{x: y, y: x*y + 1}"
    return workloads.Request(
        "image", "t", ["--json", "image", d, "--target", target, "--bound", "4"],
        {"status": "member"}, d,
    )


def test_check_accepts_a_true_member_and_rejects_a_wrong_preimage():
    req = _image_request("1")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run_command(req.argv)
    out = buf.getvalue()
    record = workloads.check(req, code, out)
    assert record == [0, "member", "-1/2*x^2 + y", 1]
    forged = json.loads(out)
    forged["results"]["membership"]["preimage"] = "y"
    with pytest.raises(workloads.CheckFailed):
        workloads.check(req, code, json.dumps(forged))


def test_check_rejects_found_on_a_simple_cell():
    d = "deriv{x: y, y: x*y^2 + 1}"
    req = workloads.Request("darboux", "t", [], {"simple": True}, d)
    report = {
        "exit_code": 0,
        "results": {"search": {"status": "found", "found": [], "detail": ""}},
    }
    with pytest.raises(workloads.CheckFailed):
        workloads.check(req, 0, json.dumps(report))
