import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setmarkov import cli, floatfmt
from setmarkov.cli import format_rows
from setmarkov.floatfmt import WIDTH, format_floats


def texts(values):
    """The kernel's text of each value, as str."""
    rows = format_floats(np.asarray(values, dtype=np.float64))
    return [bytes(row).rstrip(b"\0").decode("ascii") for row in rows]


def assert_matches_repr(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    want = [repr(v) for v in values.tolist()]
    got = texts(values)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, bad[:10]


def from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


EDGE_BITS = [
    0x0000000000000000, 0x8000000000000000,  # +0.0, -0.0
    0x0000000000000001, 0x800FFFFFFFFFFFFF,  # least and largest subnormals
    0x0010000000000000, 0x7FEFFFFFFFFFFFFF,  # least normal, largest finite
    0x7FF0000000000000, 0xFFF0000000000000,  # +inf, -inf
    0x7FF8000000000000, 0xFFF8000000000000,  # quiet NaNs
    0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF,  # NaN payloads
]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 2 ** 64 - 1), st.sampled_from(EDGE_BITS)),
                min_size=1, max_size=64))
def test_random_bit_patterns_match_repr(bits):
    assert_matches_repr(from_bits(bits))


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    values = values[np.isfinite(values)]
    with np.errstate(over="ignore"):  # past the largest finite value lies inf
        both = np.concatenate([values, np.nextafter(values, -np.inf),
                               np.nextafter(values, np.inf)])
    return np.concatenate([both, -both])


def test_every_power_of_two_and_its_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_matches_repr(with_neighbours(powers))


def test_every_power_of_ten_and_its_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    assert_matches_repr(with_neighbours(powers))


LAYOUT_EDGES = [9.999999999999999e-05, 0.0001, 1e15, 9999999999999998.0, 1e16, 1e22, 1e23,
                5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]


def test_layout_boundaries():
    values = with_neighbours(LAYOUT_EDGES)
    assert_matches_repr(values)
    got = dict(zip(LAYOUT_EDGES, texts(LAYOUT_EDGES)))
    assert got[9.999999999999999e-05] == "9.999999999999999e-05"
    assert got[0.0001] == "0.0001"
    assert got[9999999999999998.0] == "9999999999999998.0"
    assert got[1e16] == "1e+16"
    assert got[1.7976931348623157e308] == "1.7976931348623157e+308"


def test_200000_random_bit_patterns_in_one_call():
    rng = np.random.default_rng(20200)
    bits = rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64, endpoint=False)
    assert_matches_repr(from_bits(bits))


def test_decimal_scales_and_short_digit_strings():
    # every decimal exponent, with 1 to 17 significant digits
    rng = np.random.default_rng(7)
    digits = [int("".join(map(str, rng.integers(1, 10, size=n)))) for n in range(1, 18)]
    values = [float(f"{d}e{e}") for d in digits for e in range(-340, 300, 7)]
    assert_matches_repr(np.array(values))


def test_rows_are_padded_with_zero_bytes():
    rows = format_floats([-1.2345678901234567e-308, 0.5, float("nan")])
    assert rows.shape == (3, WIDTH)
    assert bytes(rows[0]) == b"-1.2345678901234567e-308"
    assert bytes(rows[1]) == b"0.5" + bytes(WIDTH - 3)
    assert bytes(rows[2]) == b"nan" + bytes(WIDTH - 3)
    assert format_floats(np.empty(0)).shape == (0, WIDTH)


def test_values_past_one_chunk():
    n = floatfmt.CHUNK * 2 + 3
    rng = np.random.default_rng(3)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)
    assert_matches_repr(values)


def test_repr_formats_only_subnormals_infinities_and_nans(monkeypatch):
    calls = []

    def counting_repr(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(floatfmt, "repr", counting_repr, raising=False)
    cli._slots.cache_clear()
    special = [5e-324, -2e-310, float("inf"), float("-inf"), float("nan")]
    block = np.array([[0.0, -0.0, 1.5, special[0]],
                      [special[1], special[2], special[3], special[4]],
                      [1e300, -1e-300, special[0], special[2]]])
    want = "".join(",".join(repr(float(v)) for v in row) + "\r\n" for row in block).encode()
    assert format_rows(block) == want
    assert len(calls) == len(special)
    assert all(math.isnan(x) or not math.isfinite(x) or abs(x) < 2.2250738585072014e-308
               for x in calls)


def layout_values():
    """Values of every layout: each fixed-notation decimal point from -3 to
    16, two- and three-digit exponents of both signs, one to 17 digits,
    both signs, zeros and the values the kernel leaves to repr."""
    out = []
    for decpt in range(-8, 24):
        for digits in ("1", "12", "123456789", "1234567890123456", "12345678901234567"):
            out.append(float(f"0.{digits}e{decpt}"))
    out += [1e-100, 1.5e-200, 1e100, 2.5e300, 0.0, 5e-324, float("inf"), float("nan")]
    out += [-v for v in out]
    return out


@pytest.mark.parametrize("shape", [(1, 7), (7, 1), (2, 9), (24, 14)])
def test_format_rows_mixes_every_layout(shape):
    flat = np.resize(np.array(layout_values()), shape[0] * shape[1])
    flat = np.random.default_rng(shape[0]).permutation(flat)
    block = flat.reshape(shape)
    want = "".join(",".join(repr(float(v)) for v in row) + "\r\n" for row in block).encode()
    assert format_rows(block) == want
    assert format_rows(block) == want  # the second time from the kept slots
    assert format_rows(block, dedupe=False) == want
