"""The comparison pipeline reproduces the golden outputs in tests/golden/
(written by tests/golden/make.py)."""

import json
from pathlib import Path

import pytest

from emprint.eim import verify_determinant_identity
from emprint.numerics import error_floor_sq

from golden.make import DATASETS, RULES, build, outputs

GOLDEN = Path(__file__).resolve().parent / "golden"

# A pick whose objective lies within this relative gap of another
# candidate's may flip under a different BLAS; its node and every later one
# are then not compared, nor the floats of the orders that hold it.
NODE_GAP = 1e-8

FLOAT_REL = 1e-9

# Absolute slack on squared errors, in roundoff floors (error_floor_sq of the
# largest squared training norm). A squared error that is roundoff only,
# such as the full-order errors on the exact poly_fourier span, is a few
# floors at most, and any value of that size is as right as another.
FLOOR_MULTIPLE = 4


@pytest.fixture(scope="module", params=sorted(DATASETS))
def case(request):
    name = request.param
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    ts, rb = build(name)
    return rb, outputs(ts, rb), golden


def _trusted_orders(golden_rule: dict) -> int:
    """Number of leading picks whose gap is at least NODE_GAP."""
    for n, gap in enumerate(golden_rule["gaps"]):
        if gap is not None and gap < NODE_GAP:
            return n
    return len(golden_rule["gaps"])


def _assert_close(got, want, floor, what):
    assert len(got) == len(want), what
    for n, (g, w) in enumerate(zip(got, want), start=1):
        assert abs(g - w) <= FLOAT_REL * abs(w) + floor, f"{what} n={n}: {g!r} vs {w!r}"


def test_golden_files_describe_the_datasets():
    for name, dataset in DATASETS.items():
        golden = json.loads((GOLDEN / f"{name}.json").read_text())
        assert golden["dataset"] == json.loads(json.dumps(dataset)), name


def test_nodes_match_golden(case):
    _, got, golden = case
    for rule in RULES:
        want = golden[rule.value]
        n = _trusted_orders(want)
        assert got[rule.value]["nodes"][:n] == want["nodes"][:n], rule.value


def test_floats_match_golden(case):
    _, got, golden = case
    floor = FLOOR_MULTIPLE * error_floor_sq(golden["max_train_norm_sq"])
    _assert_close([got["max_train_norm_sq"]], [golden["max_train_norm_sq"]], 0.0,
                  "max_train_norm_sq")
    _assert_close(got["greedy_errors"], golden["greedy_errors"], floor, "greedy")
    _assert_close(got["proj_err_sq"], golden["proj_err_sq"], floor, "projection")
    for rule in RULES:
        want = golden[rule.value]
        n = _trusted_orders(want)
        for key, slack in (("kappa", 0.0), ("lambda", 0.0), ("interp_err_sq", floor)):
            _assert_close(got[rule.value][key][:n], want[key][:n], slack,
                          f"{rule.value} {key}")


def test_identity_holds_on_golden_data(case):
    rb, _, _ = case
    assert max(verify_determinant_identity(rb, rb.n)) <= 1e-13
