"""Golden cases: ``integrate`` output of the separable steps and two vprk
controls against the bit patterns stored in golden.json (regenerated by
make_golden.py).  Bit for bit when the environment key matches the file's,
otherwise to 1e-12 relative to each array's largest entry."""

import json

import numpy as np
import pytest

import make_golden

STORED = json.loads(make_golden.GOLDEN.read_text())
SAME_ENVIRONMENT = STORED["environment"] == make_golden.environment()


def _values(record):
    return np.array([float.fromhex(v) for v in record["hex"]]).reshape(record["shape"])


def test_golden_file_lists_every_case():
    assert list(STORED["cases"]) == make_golden.CASES


@pytest.mark.parametrize("name", make_golden.CASES)
def test_golden_case(name):
    expected, actual = STORED["cases"][name], make_golden.run_case(name)
    if not SAME_ENVIRONMENT:
        print(f"golden.json was made on {STORED['environment']}, "
              f"this is {make_golden.environment()}: comparing to 1e-12")
    assert actual["newton_iters"] == expected["newton_iters"]
    pairs = [(actual[f], expected[f]) for f in ("q", "p", "velocity")]
    assert len(actual["multipliers"]) == len(expected["multipliers"])
    pairs += list(zip(actual["multipliers"], expected["multipliers"]))
    for got, want in pairs:
        if SAME_ENVIRONMENT:
            assert got == want
        else:
            want = _values(want)
            np.testing.assert_allclose(_values(got), want, rtol=0,
                                       atol=1e-12 * np.max(np.abs(want)))
