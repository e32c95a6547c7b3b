"""CLI reports pinned byte for byte, timing aside.

golden_reports.json holds, per request, the argv, the exit code and the
JSON report without its `timing_ms` field.  The first seven were
recorded while MultiPoly still stored one Fraction per coefficient, and
no change to the polynomial core may alter them: the cells cover the
Darboux search (a simple and a non-simple alpha = 1 cell, and an
alpha = 3 cell), `analyze` and `mz` on a power-form coefficient, and
`image` on a member and on a certified non-member, most of them with
non-integral coefficients.

The last five are `image` requests at the size of the benchmark's
image-bounded workload, recorded while the image system was still
assembled on exponent tuples and eliminated with a column -> rows
index: a plane-quadratic member and the target x at bound 27, a
plane-linear member at bound 33, a translation-diagonal member over
x, y1, y2 at bound 10 and a three-variable diagonal member at bound 11.
They pin the canonical preimages and kernel dimensions of the systems
that the packed assembly and the singleton-pivot elimination solve.

The last nine were recorded while the plane shapes were still three
classes (linear, quadratic and power), so they pin the reports of the
paths that now branch on one family's properties: `darboux` refused on
a generic, a diagonal, an alpha != beta, a constant-a2 and a
nonconstant-a0 derivation; `mz` refused on a quadratic derivation;
`analyze` on plane-linear cells with a0 = -3/2 and a0 = 0; and
`analyze` on a plane-power cell with constant a1 and a2.

The last four are `darboux` requests at the size of the benchmark's
darboux-search workload, recorded before the descent substituted forced
zeros, on cells where it now does: a simple alpha = 1 cell at bounds
4, 3, 4, a built non-simple alpha = 1 cell at 3, 3, 4, an alpha = 2
cell at 3, 2, 3, and an alpha = 3 cell at 3, 2, 4 that is
undecided-residual at effort 0.

The last three are `image` requests at the size of the benchmark's
image-bounded workload for its non-member strata, recorded while the
image system was still eliminated under each row's leftmost column: a
diagonal derivation with target y1*y2^5 at bound 11 (T5.3), a
translation-diagonal one with target y1 at bound 10 (T5.1) and a
plane-linear one with target x at bound 33 (P2.2).  Each bounded solve
is inconsistent, so they pin where the left-to-right walk stops as
well as the certificate it backs.

The last twelve are `analyze` requests recorded while the simplicity
decision and the power-family necessary conditions were still two
copies of the three plane conditions, and condition 3 still searched
rational roots when a1 and a2 were both constant.  At alpha = beta = 1
they reach condition 1 with a pair witness, condition 2 with each
generator shape (monic quadratic, monic linear, the half square), T4.2
with l = 3/2 and a simple T4.1 cell; for the power family, condition 1,
the condition-2 half power, condition 3 with l = -2 at beta = 2 and
l = 2 at beta = 3 (the sign (-1)^beta), a passing cell, and condition 3
with alpha < beta.

golden_mz_reports.json, read after them, holds `mz` and `analyze`
requests recorded while `decide_mz` still restated each Mathieu-Zhao
rule next to the local-finiteness test and built its obstruction
targets in one helper per family: plane-linear cells with a0 = 0, with
constant a1 and with deg a1 >= 1; translation-diagonal cells with a
zero gamma (MZ and not), with k > 1 only on a later coordinate, and
with every k = 1 and one nonconstant gamma; diagonal cells with a k = 0
coordinate (MZ and not), and with the first k > 1 after or before the
coordinate raised to the fifth power.

The last case of golden_mz_reports.json is an `image` request on the
diagonal derivation y1*d1 - y2*d2 + 2*y3*d3 with a member target at
bound 6, recorded while the image system was still assembled one column
at a time and then scattered into rows.  Every D(y_i) shifts a monomial
by zero, so all three coordinates share one shift, and its summed
coefficient e1 - e2 + 2*e3 cancels on the seven kernel monomials.

The eight cases after it are `image` requests on quadratic plane
families with a2 != 0, recorded while their membership was still
decided by the bounded sparse solve: members D(g) with a constant a2,
with a0 = 0, with a nonconstant a0 and with the second variable named
y1; the target y^2, whose first-order step has no polynomial solution;
a member D(g) at a bound below deg g; the y-free target x^2; and the
target 0.

The four cases after them are `image` requests on diagonal families,
recorded while every bounded system was still solved over all its
columns, before the solve was split into the blocks of the exponents D
keeps: a diagonal member D(g) whose terms span several blocks, a
translation-diagonal member with a zero gamma, the non-member y1 + y2^7
at bound 5, whose y2^7 lies in a block with no column, and the target 0
on a diagonal family whose every coordinate is kept.

The last case is the one request here whose bounded solve reaches the
fill-in branch of `linalg._walk`, where a pivot row is subtracted from
the other rows that hold its column: `image` on y*dx + (y + 1)*dy with
target 1 at bound 3, a member with preimage y - x and kernel_dim 1.
New cases go last so that the others keep their test ids.
"""

import json
import re
from pathlib import Path

import pytest

from dercert.cli import render_text, run_command

HERE = Path(__file__).parent
GOLDEN = [
    case
    for name in ("golden_reports.json", "golden_mz_reports.json")
    for case in json.loads((HERE / name).read_text())
]


@pytest.mark.parametrize(
    "case", GOLDEN, ids=[f"{c['argv'][1]}-{i}" for i, c in enumerate(GOLDEN)]
)
def test_report_is_byte_identical(capsys, case):
    code = run_command(list(case["argv"]))
    captured = capsys.readouterr()
    out = captured.out + captured.err
    assert code == case["exit_code"]
    # the only field that may differ is the wall time
    out, count = re.subn(r'"timing_ms": [-0-9.e+]+', '"timing_ms": 0', out)
    assert count == 1
    assert out == json.dumps({**case["report"], "timing_ms": 0}, indent=2, sort_keys=True) + "\n"


TEXT_CASES = [(i, c) for i, c in enumerate(GOLDEN) if c["argv"][1] != "conjecture-scan"]


@pytest.mark.parametrize(
    "case", [c for _, c in TEXT_CASES], ids=[f"{c['argv'][1]}-{i}" for i, c in TEXT_CASES]
)
def test_text_report_renders_the_json_one(capsys, case):
    # without --json the same request prints render_text of the golden
    # report, on stdout when it exits 0 and on stderr otherwise
    code = run_command([arg for arg in case["argv"] if arg != "--json"])
    captured = capsys.readouterr()
    assert code == case["exit_code"]
    out, quiet = (captured.out, captured.err) if code == 0 else (captured.err, captured.out)
    assert quiet == ""
    # the only line that may differ is the wall time
    out, count = re.subn(r"^timing_ms: [-0-9.e+]+$", "timing_ms: 0", out, flags=re.M)
    assert count == 1
    assert out == render_text({**case["report"], "timing_ms": 0}) + "\n"
