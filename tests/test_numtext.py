"""The csv number-cell kernel against its oracles: ``repr`` of each float, ``str`` of each int."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icelab.numtext import float_cells, int_cells


def _check(matrix: np.ndarray, expected: list[str]) -> None:
    """Each row of ``matrix`` is its cell's bytes, then 0xFF up to the longest cell."""
    width = max(map(len, expected), default=0)
    assert matrix.dtype == np.uint8 and matrix.shape == (len(expected), width)
    rows = [bytes(row) for row in matrix]
    padded = [cell.encode("ascii").ljust(width, b"\xff") for cell in expected]
    bad = [(row, want) for row, want in zip(rows, padded) if row != want]
    assert not bad, f"{len(bad)} cells differ, first {bad[:3]}"


def _check_floats(values) -> None:
    a = np.asarray(values, dtype=np.float64)
    _check(float_cells(a), [repr(v) for v in a.tolist()])


def _with_neighbours(a: np.ndarray) -> np.ndarray:
    """``a``, its values one ulp up and down, and all of those negated."""
    with np.errstate(over="ignore"):
        near = np.concatenate([a, np.nextafter(a, np.inf), np.nextafter(a, -np.inf)])
    return np.concatenate([near, -near])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_float_cells_match_repr(values):
    _check_floats(values)


@pytest.mark.parametrize("seed", range(3))
def test_float_cells_match_repr_on_random_bit_patterns(seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, 40_000, dtype=np.uint64)
    mantissa = bits & np.uint64(2**52 - 1)
    sign = bits & np.uint64(2**63)
    subnormal = sign | mantissa
    nan = sign | np.uint64(0x7FF << 52) | (mantissa | np.uint64(1))
    decades = rng.standard_normal(40_000) * 10.0 ** rng.integers(-30, 31, 40_000)
    integers = rng.integers(-2**60, 2**60, 40_000).astype(np.float64)
    _check_floats(np.concatenate([np.concatenate([bits, subnormal, nan]).view(np.float64),
                                  decades, integers]))


def test_float_cells_match_repr_on_the_deterministic_sweep():
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near_2_53 = 2.0**53 + np.arange(-300, 301)
    boundaries = np.array([9999999999999998.0, 1e16, 0.0001, 1e-05, 0.0, np.inf, np.nan,
                           5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
    _check_floats(_with_neighbours(np.concatenate(
        [powers_of_two, powers_of_ten, near_2_53, boundaries])))


def test_float_cells_of_no_values():
    assert float_cells(np.array([], dtype=np.float64)).shape == (0, 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=64))
def test_int_cells_match_str(values):
    _check(int_cells(np.array(values, dtype=np.int64)), [str(v) for v in values])


def test_int_cells_at_the_int64_bounds():
    values = [-2**63, -2**63 + 1, 2**63 - 1, 0, -1, 1, -10**18, 10**18, 9, 10, -9, -10]
    _check(int_cells(np.array(values, dtype=np.int64)), [str(v) for v in values])
