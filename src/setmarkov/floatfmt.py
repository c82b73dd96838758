"""Shortest round-trip text of float64 arrays, byte for byte as ``repr``.

``format_floats`` turns an array of doubles into one row of ASCII bytes per
value, the bytes of ``repr(float(v))``, with no Python call per value.  The
shortest decimal is found by Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020), as in Java's ``DoubleToDecimal``, on uint64 arrays:

* a double is c * 2**q with an integer c; its rounding interval, scaled by
  10**-k and 4, is estimated by a 126-bit g ~ 10**-k times c shifted, rounded
  to odd (``_round_to_odd``).  Each 64 x 64 -> 128-bit product is built from
  32-bit halves;
* of the decimals in that interval the one with the fewest digits wins, and
  among those the one nearest the double, ties to an even last digit -- the
  digits ``repr`` prints.

Python's short repr then lays the digits out in fixed notation when
-4 < decpt <= 16 (``0.0001``, ``9999999999999998.0``) and in scientific
notation otherwise (``1e-05``, ``1e+16``, ``5e-324``), where the value is
0.d1d2...dn * 10**decpt.  A layout table indexed by (sign, leading digit,
digit count, decimal-point class) places the digits, ``.``, ``0`` and
``e+NN`` of each value in one gather.

The kernel covers every normal double and both zeros.  Subnormals, infinities
and NaNs are formatted by ``repr`` itself.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# Longest repr of a double: '-1.2345678901234567e-308'.
WIDTH = 24
# Values per kernel pass: a block of the CSV writer on the 6-set staircase
# (1,024 rows of 6 cells) in one pass.  ``_shortest`` holds about 40 uint64
# temporaries at once.  Timed alone it took 0.33 ms at 4,096 values and
# 1.22 ms at 6,144, where numpy's allocator stopped reusing them (best of 9);
# inside the ``sample`` jobs one pass of 6,144 beat two of 3,072, and the
# benchmark's ``sample-csv`` fell from 5.17 to 4.83 s (2-CPU x86-64 VM).
CHUNK = 6144

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U(0x7FFFFFFFFFFFFFFF)
_ONE_BITS = _U(0x3FF0000000000000)
_E8 = _U(10 ** 8)
# k = floor(log10(2**q)) over the exponents of normal doubles
_K_MIN, _K_MAX = -324, 292
# offset of the exponent-indexed tables
_E_OFF = 400

# The source row of the layout gather, 32 bytes a value: the 16 digits below
# the leading one (four groups of four), the leading digit, the fixed
# characters, the exponent's sign and three digits, and zero bytes.
_SRC = 32
_LEAD, _MINUS, _DOT, _ZERO, _E, _EXP, _PAD = 16, 17, 18, 19, 20, 24, 28
_NDIG = 17
# decimal-point classes: decpt = -3 .. 16 (fixed), 2- and 3-digit exponents
_FIXED = 20
_CLASSES = _FIXED + 2


def _g_row(k):
    """g = floor(beta) + 1, where 10**-k = beta * 2**r, 2**125 <= beta < 2**126."""
    if k <= 0:
        p = 10 ** -k
        r = p.bit_length() - 126
        return (p >> r if r >= 0 else p << -r) + 1
    d = 10 ** k
    return (1 << (125 + d.bit_length())) // d + 1


@cache
def _g_table():
    """g = g1 * 2**63 + g0 for each k, as two uint64 columns."""
    gs = [_g_row(k) for k in range(_K_MIN, _K_MAX + 1)]
    return (np.array([g >> 63 for g in gs], dtype=np.uint64),
            np.array([g & ((1 << 63) - 1) for g in gs], dtype=np.uint64))


def _layout(neg, lead, nd, cls):
    """Source positions of one repr: sign, digits, point and exponent."""
    digits = (([_LEAD] if lead else []) + list(range(16)))[:nd]
    out = [_MINUS] if neg else []
    if cls < _FIXED:
        decpt = cls - 3
        if decpt <= 0:
            out += [_ZERO, _DOT] + [_ZERO] * -decpt + digits
        elif decpt < nd:
            out += digits[:decpt] + [_DOT] + digits[decpt:]
        else:
            out += digits + [_ZERO] * (decpt - nd) + [_DOT, _ZERO]
    else:
        out += digits[:1] + ([_DOT] + digits[1:] if nd > 1 else [])
        out += [_E, _EXP] + list(range(_EXP + 1 + (cls == _FIXED), _EXP + 4))
    return out


def _key(neg, lead, nd, cls):
    """Row of the layout table; elementwise on arrays."""
    return ((neg * 2 + lead) * (_NDIG + 1) + nd) * _CLASSES + cls


@cache
def _tables():
    """The lookup tables of ``_chunk``:

    * the ASCII of 0000 .. 9999, four bytes read as one uint32;
    * the trailing zeros of 0 .. 9999 (4 for 0);
    * the ASCII of the exponents -400 .. 399 as sign and three digits;
    * the decimal-point class of decpt = -400 .. 399;
    * the layout: for each ``_key``, the WIDTH source positions of the
      repr, padded with those of zero bytes.
    """
    quads = np.frombuffer(b"".join(b"%04d" % i for i in range(10_000)), dtype=np.uint32)
    quad_tz = np.array([4] + [len(str(i)) - len(str(i).rstrip("0")) for i in range(1, 10_000)],
                       dtype=np.intp)
    exps = range(-_E_OFF, _E_OFF)
    exp_chars = np.frombuffer(b"".join(b"%+04d" % e for e in exps), dtype=np.uint32)
    classes = np.array([d + 3 if -4 < d <= 16 else _FIXED + (abs(d - 1) >= 100) for d in exps],
                       dtype=np.intp)
    index = np.full((2 * 2 * (_NDIG + 1) * _CLASSES, WIDTH), _PAD, dtype=np.intp)
    for neg in (0, 1):
        for lead in (0, 1):
            for nd in range(1, 17 + lead):
                for cls in range(_CLASSES):
                    pos = _layout(neg, lead, nd, cls)
                    index[_key(neg, lead, nd, cls), :len(pos)] = pos
    template = np.zeros(_SRC, dtype=np.uint8)
    template[[_MINUS, _DOT, _ZERO, _E]] = np.frombuffer(b"-.0e", dtype=np.uint8)
    return quads, quad_tz, exp_chars, classes, index, template


def _mul_hi(a, b_hi, b_lo):
    """High 64 bits of the 128-bit products a * b, from 32-bit halves."""
    a_hi, a_lo = a >> _U(32), a & _M32
    lo = a_lo * b_lo
    mid = a_hi * b_lo + (lo >> _U(32))
    mid2 = (mid & _M32) + a_lo * b_hi
    return a_hi * b_hi + (mid >> _U(32)) + (mid2 >> _U(32))


def _round_to_odd(x1, y0, y1):
    """floor(g * cp / 2**127) with its last bit set when the floor drops a
    nonzero fraction (Schubfach's ``rop``), from x1 = high(g0 * cp) and
    y1:y0 = g1 * cp, where g = g1 * 2**63 + g0."""
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shifted(g, s):
    """g * 2**s as high and low uint64 words, for 1 <= s < 64."""
    return g >> (_U(64) - s), g << s


def _shortest(bits):
    """Shortest decimal f * 10**k of each positive normal double: f has 16
    or 17 digits, trailing zeros included."""
    field = bits >> _U(52)
    frac = bits & _U((1 << 52) - 1)
    c = frac | _U(1 << 52)
    q = field.view(np.int64) - 1075
    # at a power of two above the least normal the lower neighbour is half
    # as far, so the interval is [c - 1/4, c + 1/2] ulps: k = floor(log10(3/4 2**q))
    irregular = (frac == 0) & (field > 1)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).view(np.uint64)
    g1, g0 = (np.take(col, k - _K_MIN) for col in _g_table())
    # the double and its interval ends, times 4 * 2**h: cp and cp -+ 2**s
    cp = c << (h + _U(2))
    cp_hi, cp_lo = cp >> _U(32), cp & _M32
    x1, x0 = _mul_hi(g0, cp_hi, cp_lo), g0 * cp
    y1, y0 = _mul_hi(g1, cp_hi, cp_lo), g1 * cp
    vb = _round_to_odd(x1, y0, y1)
    # g * (cp - 2**s) = g * cp - g * 2**s, word by word with borrows
    sl = h + _U(1) - irregular
    d1, d0 = _shifted(g0, sl)
    e1, e0 = _shifted(g1, sl)
    vbl = _round_to_odd(x1 - d1 - (x0 < d0), y0 - e0, y1 - e1 - (y0 < e0))
    sr = h + _U(1)
    d1, d0 = _shifted(g0, sr)
    e1, e0 = _shifted(g1, sr)
    yr = y0 + e0
    vbr = _round_to_odd(x1 + d1 + (x0 + d0 < d0), yr, y1 + e1 + (yr < e0))
    odd = c & _U(1)  # an endpoint belongs to the interval iff c is even
    lower = vbl + odd
    upper = vbr - odd
    s = vb >> _U(2)
    # one digit fewer: at most one multiple of 10**(k+1) lies in the interval
    sp10 = s // _U(10) * _U(10)
    upin = lower <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= upper
    # else s or s + 1, whichever lies in the interval, the nearer if both do
    # (a tie to the even one)
    s4 = vb & ~_U(3)
    uin = lower <= s4
    win = s4 + _U(4) <= upper
    nearer_t = (vb & _U(3)) + (s & _U(1)) > _U(2)
    take_t = win & (~uin | nearer_t)
    f = np.where(upin != wpin, sp10 + _U(10) * wpin, s + take_t)
    return f, k


def _chunk(values, out):
    """Write the repr bytes of ``values`` into the rows of ``out``."""
    n = len(values)
    quads, quad_tz, exp_chars, classes, index, template = _tables()
    bits = values.view(np.uint64)
    neg = (bits >> _U(63)).view(np.intp)
    mag = bits & _M63
    field = mag >> _U(52)
    special = (field == 0) | (field == 0x7FF)
    zero = mag == 0
    # 1.0 stands in for zeros, subnormals, infinities and NaNs
    f, k = _shortest(np.where(special, _ONE_BITS, mag))
    # f < 10**17: a leading digit, then four groups of four
    hi = f // _E8
    lead = hi // _E8
    eights = np.stack((hi - lead * _E8, f - hi * _E8), axis=1)
    top = eights // _U(10_000)
    groups = np.stack((top, eights - top * _U(10_000)), axis=2).reshape(n, 4).view(np.intp)
    src = np.tile(template, (n, 1))
    src.view(np.uint32)[:, :4] = np.take(quads, groups)
    src[:, _LEAD] = lead + _U(48) - zero  # '0.0' from the digits of '1.0'
    # trailing zeros of f: those of the last group, then of each group before
    # it while every later group is 0000
    tz = np.take(quad_tz, groups)
    zeros = tz[:, 3]
    for j, run in ((2, 4), (1, 8), (0, 12)):
        zeros = zeros + (zeros == run) * tz[:, j]
    has_lead = (lead != 0).astype(np.intp)
    nd = has_lead + 16 - zeros
    decpt = k + 16 + has_lead
    src.view(np.uint32)[:, _EXP // 4] = np.take(exp_chars, decpt + (_E_OFF - 1))
    key = _key(neg, has_lead, nd, np.take(classes, decpt + _E_OFF))
    flat = np.take(index, key, axis=0)
    flat += np.arange(0, n * _SRC, _SRC)[:, None]
    np.take(src.ravel(), flat, out=out)
    for i in np.flatnonzero(special & ~zero):
        text = repr(float(values[i])).encode("ascii")
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)


def format_floats(values) -> np.ndarray:
    """One row of WIDTH bytes per float64 value: the ASCII of
    ``repr(float(v))`` from the first byte on, zero bytes after it."""
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    n = len(values)
    out = np.empty((n, WIDTH), dtype=np.uint8)
    passes = -(-n // CHUNK)
    for i in range(passes):
        a, b = n * i // passes, n * (i + 1) // passes
        _chunk(values[a:b], out[a:b])
    return out
