"""The CLI's float renderer writes exactly what ``float.__repr__`` writes."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdfdr.cli
from cdfdr.cli import _JSON_BLOCK, _float_text, _join_floats
from cdfdr.special import _BLOCK

SEP = ",\n  "


def _assert_repr(values, sep=SEP):
    values = np.asarray(values, dtype=float)
    expected = [repr(v) for v in values.tolist()]
    got = _join_floats(sep, values)
    if got != sep.join(expected):  # name the first lane that differs
        lanes = got.split(sep)
        bad = next(i for i, (a, b) in enumerate(zip(lanes, expected)) if a != b)
        pytest.fail(f"lane {bad}: {lanes[bad]!r} != {expected[bad]!r} ({len(lanes)} lanes)")
    assert _float_text(values) == expected


def _neighbours(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        both = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
    both = both[np.isfinite(both)]
    return np.concatenate([both, -both])


def test_powers_of_two_and_neighbours():
    _assert_repr(_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_powers_of_ten_and_neighbours():
    # The nearest double to each 10**k, which may fall on either side of it.
    _assert_repr(_neighbours([float(f"1e{k}") for k in range(-323, 309)]))


def test_subnormals_zeros_and_extremes():
    rng = np.random.default_rng(5)
    subnormal = rng.integers(1, 2**52, 2000, dtype=np.int64).view(float)
    tiny, big = sys.float_info.min, sys.float_info.max
    _assert_repr(np.concatenate([subnormal, -subnormal, [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny,
                                                        big, -big]]))


def test_zeros_are_laid_out_without_repr(monkeypatch):
    """A column of exact zeros, as p-values or an fdr at pi0 = 0 give, is
    rendered in the numpy pass: repr is called for none of its lanes."""
    calls = []
    monkeypatch.setattr(cdfdr.cli, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    _assert_repr(np.tile([0.0, -0.0, 0.5, 0.0, 1e-300, -3.0], 5000))
    assert calls == []


@pytest.mark.parametrize("switch", [1e-4, 1e16])
def test_both_sides_of_the_format_switches(switch):
    """repr is positional from 1e-4 up to below 1e16 and writes an exponent
    beyond, as 1e-05 and 1e+16."""
    steps = np.arange(-300, 301)
    around = np.concatenate([switch + steps * np.spacing(switch), switch * (1.0 + steps * 1e-3),
                             [switch, 9.999999999999999e-05, 1e-05, 9999999999999998.0]])
    _assert_repr(np.concatenate([around, -around]))


def test_integers_round_values_and_ties():
    rng = np.random.default_rng(8)
    u = rng.random(20_000)
    _assert_repr(np.concatenate([
        np.round(u, 3), np.round(u * 1e4, 2), np.round(u * 1e6), np.arange(-1000.0, 1000.0),
        # Quarters to 64ths of integers near 2**52: their 17-digit scalings
        # end in exact halves and fives, the ties of the units and the tens.
        np.ldexp(rng.integers(2**52, 2**53, (5, 2000)).astype(float),
                 np.arange(-2, -7, -1)[:, None]).ravel(),
        [1000000000000000.25, 2.5e15, 1e15 + 0.5, 0.5, 1.5, 2.5, 1e22, 1e23, 2**53, 2**53 + 2.0]]))


def test_non_finite_values_take_repr():
    assert _float_text([np.nan, np.inf, -np.inf, 1.0]) == ["nan", "inf", "-inf", "1.0"]
    assert _float_text(np.array([])) == []
    assert _join_floats(SEP, np.array([])) == ""


@settings(max_examples=40, deadline=None)
@given(pattern=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
       seed=st.integers(0, 2**32 - 1),
       size=st.sampled_from([1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, _JSON_BLOCK + 1]))
def test_matches_repr_on_any_bit_pattern(pattern, seed, size):
    """Arbitrary float64 bit patterns, random lanes between copies of the
    drawn pattern placed at the ends of each sub-block."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size, dtype=np.uint64)
    drawn = np.array(pattern, dtype=np.uint64)
    for edge in range(0, size + 1, _BLOCK):
        for start in (edge - drawn.size, edge):
            lo = max(start, 0)
            hi = min(start + drawn.size, size)
            if lo < hi:
                bits[lo:hi] = drawn[lo - start:hi - start]
    values = bits.view(np.float64)
    _assert_repr(values)
    _assert_repr(values, "\n")
