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
"""

import json
import re
from pathlib import Path

import pytest

from dercert.cli import run_command

GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())


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
