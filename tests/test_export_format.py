"""The vectorised CSV formatter against printf-style `%` on hard values.

`cli._format_block` must give the bytes of `'%d'` and `'%.{p}e'` exactly;
each table here is compared line by line with a `%` reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comb_ranger import cli


def reference(precisions, table: np.ndarray) -> bytes:
    fmt = ",".join("%d" if p is None else f"%.{p}e" for p in precisions) + "\n"
    return "".join([fmt % tuple(row) for row in table.tolist()]).encode("ascii")


def assert_same_as_percent(precisions, table: np.ndarray) -> None:
    got = cli._format_block(precisions, table)
    want = reference(precisions, table)
    if got != want:
        pairs = zip(got.split(b"\n"), want.split(b"\n"), table.tolist())
        bad = [(row, g, w) for g, w, row in pairs if g != w]
        pytest.fail(f"{len(bad)} lines differ from %, first: {bad[:3]}")


def adversarial_values(p: int) -> np.ndarray:
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    # 9.99...95eN with p + 1 significant digits: the carry into the exponent
    carries = [float("9." + "9" * (p - 1) + f"95e{k}") for k in range(-300, 300)]
    # decimal ties at the last printed digit, and the neighbours of both
    ties = [float("1." + "0" * p + f"5e{k}") for k in range(-300, 300)]
    ties += [float("1." + "2" * (p - 1) + f"35e{k}") for k in range(-30, 30)]
    exact_ties = [1234567890123.5, 0.5, 2.5, 1.25, 1.125, 2.0**-10, 3.0 * 2.0**40 + 0.5]
    singles = [
        0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-280, 1e280,
        1.7976931348623157e308, 9.9999999999995e5, 9.9999999995e5, 1e22, 1e23,
        1e99, 1e100, 1e-99, 1e-100, 1e-101, 9.999999999999e99, 1e308, 1e-308,
        0.1, 0.3, 1 / 3, 2 / 3, np.pi, 123456789.0, 2.0**53, 2.0**-1074,
    ]
    base = np.concatenate([powers, carries, ties, exact_ties, singles])
    with np.errstate(over="ignore"):  # the float after the largest is inf
        above = np.nextafter(base, np.inf)
    base = np.concatenate([base, np.nextafter(base, 0.0), above])
    return np.concatenate([base, -base])


@pytest.mark.parametrize("p", [12, 9])
def test_adversarial_values(p):
    values = adversarial_values(p)
    assert_same_as_percent([p], values[:, None])


@pytest.mark.parametrize("p", [12, 9])
def test_non_finite_values(p):
    values = np.array([np.inf, -np.inf, np.nan, -np.nan, 1.0, -0.0])
    assert_same_as_percent([p, p], np.column_stack([values, values[::-1]]))


@pytest.mark.parametrize("p", [12, 9])
def test_random_bit_patterns(p):
    bits = np.random.default_rng(20260418).integers(0, 2**64, size=50_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert_same_as_percent([p], values[np.isfinite(values)][:, None])


def test_integer_column():
    index = np.array([0.0, 1, 9, 10, 99, 100, 65535, 99999, 123456, 2.0**32 - 1, 2.0**32,
                      2.0**53, 2.0**60, -0.0, -1, -100, -12345678901, 3.7, -0.5])
    values = np.linspace(-1.0, 1.0, len(index))
    assert_same_as_percent([None, 12], np.column_stack([index, values]))
    # a block of small indices gets a narrow field, one of large ones a wide field
    assert_same_as_percent([None], np.arange(7.0)[:, None])
    assert_same_as_percent([None], np.arange(99_990.0, 100_010.0)[:, None])


def test_simulate_and_modes_layouts():
    rng = np.random.default_rng(7)
    table = np.column_stack([np.arange(3000.0), rng.normal(size=(3000, 4)) * [1e-6, 1.0, 3.0, 1e-11]])
    assert_same_as_percent([None, 12, 12, 12, 12], table)
    x = np.linspace(-12.0, 12.0, 2049)
    assert_same_as_percent([9, 12, 12], np.column_stack([x, np.exp(-x * x), x * np.exp(-x * x)]))


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(finite, min_size=1, max_size=40))
def test_property_precision_12(values):
    assert_same_as_percent([12], np.array(values)[:, None])


@settings(max_examples=300, deadline=None)
@given(st.lists(finite, min_size=1, max_size=40))
def test_property_precision_9(values):
    assert_same_as_percent([9], np.array(values)[:, None])
