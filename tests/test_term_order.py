"""No result depends on the order of a polynomial's terms.

Each test stores every MultiPoly's term dict in another order, reversed
or shuffled with a fixed seed, wherever one is built: in
`_from_canonical`, which every internal result goes through, and in the
validating constructor.  Every golden report must stay byte-identical,
timing aside, and every pinned Darboux search cell must keep its status,
pairs and detail.
"""

import json
import random
import re

import pytest

from dercert import MultiPoly, PlaneFamily, darboux_search_power_family, poly_to_str
from dercert.cli import run_command
from test_darboux import GOLDEN_SEARCH_CELLS
from test_golden_reports import GOLDEN

ORDERS = ["reversed", "shuffled"]


@pytest.fixture(params=ORDERS)
def reordered_terms(request, monkeypatch):
    if request.param == "reversed":
        def reorder(nums):
            return dict(reversed(nums.items()))
    else:
        rng = random.Random(20221)

        def reorder(nums):
            items = list(nums.items())
            rng.shuffle(items)
            return dict(items)

    from_canonical = MultiPoly._from_canonical
    init = MultiPoly.__init__

    def reordered_from_canonical(variables, nums, den=1):
        return from_canonical(variables, reorder(nums), den)

    def reordered_init(self, variables, terms=()):
        init(self, variables, terms)
        self.nums = reorder(self.nums)

    monkeypatch.setattr(MultiPoly, "_from_canonical", staticmethod(reordered_from_canonical))
    monkeypatch.setattr(MultiPoly, "__init__", reordered_init)
    if request.param == "reversed":
        # the patch is in force: x + 1 lists the term it added first
        one_plus_x = MultiPoly.var(("x",), "x") + MultiPoly.constant(("x",), 1)
        assert list(one_plus_x.numerators) == [(0,), (1,)]


def test_golden_reports_ignore_term_order(capsys, reordered_terms):
    for case in GOLDEN:
        code = run_command(list(case["argv"]))
        captured = capsys.readouterr()
        out = re.sub(r'"timing_ms": [-0-9.e+]+', '"timing_ms": 0', captured.out + captured.err)
        assert code == case["exit_code"], case["argv"]
        assert out == json.dumps({**case["report"], "timing_ms": 0}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("family, bounds, outcome", [(f, b, o) for f, b, _, o in GOLDEN_SEARCH_CELLS])
def test_search_cells_ignore_term_order(reordered_terms, family, bounds, outcome):
    # the family's coefficients rebuilt in the stored order
    family = PlaneFamily(
        family.alpha,
        family.beta,
        *(MultiPoly(p.variables, p.terms) for p in (family.a2, family.a1, family.a0)),
    )
    out = darboux_search_power_family(family, bounds)
    status, pairs, detail = outcome
    assert out.status == status
    assert [(poly_to_str(p.F), poly_to_str(p.cofactor)) for p in out.pairs] == pairs
    assert out.detail == detail
