"""Vectorized shortest round-trip formatting: the bytes of ``repr(float(v))``.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020): the decimal interval that rounds to a double is scaled by
a 126-bit approximation g(k) of 10^-k, with three 64x128-bit "round to odd"
products computed on the 32-bit halves of uint64 lanes (they wrap by
design), so each value costs a fixed number of integer array operations
instead of a bignum ``dtoa`` call.  It departs from the Java reference
where Python's ``repr`` does:

- the one-digit-shorter candidate is tried whenever the 17-digit scaled
  value s >= 10 (Java: s >= 100), and there is no two-digit subnormal
  branch, so the smallest subnormal prints as ``5e-324``;
- an exact tie between two candidates goes to the even digit;
- exponent form is used below 1e-4 and from 1e16 up, with at least two
  exponent digits (``1e-05``, ``1e+16``); fixed form always has a fraction
  (``100.0``);
- NaN of either sign prints as ``nan``; the other specials are ``-0.0``,
  ``inf`` and ``-inf``.

Cells are laid out NUL-padded in a (n, WIDTH) uint8 matrix, one byte per
column, so the result does not depend on the host's byte order.  Values
are formatted CHUNK at a time, which bounds the temporaries.
"""
from __future__ import annotations

import functools

import numpy as np

WIDTH = 24          # the longest repr: '-' + 17 digits + '.' + 'e-308'
CHUNK = 16384
_K_MIN, _K_MAX = -324, 292
_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1
_C_MIN = 1 << 52
_Q_MIN = -1074
_P10 = np.array([10 ** i for i in range(18)], dtype=np.uint64)

# Columns of the per-value source row that the layout table indexes:
# 0..16 the digits of the significand, right-aligned, then constants and
# the three exponent digits.  _NUL pads a cell to WIDTH.
_ZERO, _POINT, _MINUS, _E, _EXP_SIGN, _EXP_DIGITS, _NUL = 17, 18, 19, 20, 21, 22, 25
_SRC = 26
# layout classes: fixed form for decimal exponents -4..15, then exponent
# form with two and with three exponent digits
_N_CLASSES = 22
_SPECIALS = np.frombuffer(b"".join(w.ljust(WIDTH, b"\0") for w in (b"nan", b"inf", b"-inf")),
                          np.uint8).reshape(3, WIDTH)


@functools.cache
def _tables():
    """g(k) split as g1 * 2^63 + g0 for k in [K_MIN, K_MAX], floor(log2 10^-k),
    and the layout table; built with Python ints on first use."""
    ks = range(_K_MIN, _K_MAX + 1)
    g1, g0, log2 = [], [], []
    for k in ks:
        # 10^-k = beta * 2^r with 2^125 <= beta < 2^126, and g = floor(beta) + 1
        lg = (10 ** -k).bit_length() - 1 if k <= 0 else -(10 ** k).bit_length()
        r = lg - 125
        if k <= 0:
            beta = 10 ** -k >> r if r >= 0 else 10 ** -k << -r
        else:
            beta = (1 << -r) // 10 ** k
        g = beta + 1
        g1.append(g >> 63)
        g0.append(g & _M63)
        log2.append(lg)
    return (np.array(g1, np.uint64), np.array(g0, np.uint64),
            np.array(log2, np.int64), _layout_table())


def _layout_table() -> np.ndarray:
    """Source column of each output byte, per (sign, layout class, digit count)."""
    table = np.full((2, _N_CLASSES, 17, WIDTH), _NUL, np.intp)
    for neg in (0, 1):
        for cls in range(_N_CLASSES):
            for n in range(1, 18):
                digits = [17 - n + i for i in range(n)]
                cell = [_MINUS] if neg else []
                if cls >= 20:
                    cell += digits[:1] + ([_POINT] + digits[1:] if n > 1 else []) \
                        + [_E, _EXP_SIGN] + list(range(_EXP_DIGITS + (cls == 20), _NUL))
                elif cls >= 4:
                    point = cls - 3     # digits before the point
                    whole = (digits + [_ZERO] * point)[:point]
                    cell += whole + [_POINT] + (digits[point:] or [_ZERO])
                else:
                    cell += [_ZERO, _POINT] + [_ZERO] * (3 - cls) + digits
                table[neg, cls, n - 1, :len(cell)] = cell
    return table.reshape(-1, WIDTH)


def _mul_hi(a1, a0, b1, b0):
    """High 64 bits of (a1 * 2^32 + a0) * (b1 * 2^32 + b0), all halves < 2^32."""
    lo = a0 * b0
    m1 = a1 * b0
    m2 = a0 * b1
    lo >>= 32
    lo += m1 & _M32
    lo += m2 & _M32
    lo >>= 32
    m1 >>= 32
    m2 >>= 32
    hi = a1 * b1
    hi += m1
    hi += m2
    hi += lo
    return hi


def _rop(g, cp):
    """g * cp / 2^127 rounded to odd, as the Schubfach reference computes it
    (the low 64 bits of g0 * cp and the last bit of g1 * cp do not enter),
    for g = g1 * 2^63 + g0 given as (g1, and the 32-bit halves of g1 and g0)."""
    g1, g1h, g1l, g0h, g0l = g
    c1, c0 = cp >> 32, cp & _M32
    z = g1 * cp
    z >>= 1
    z += _mul_hi(g0h, g0l, c1, c0)
    v = _mul_hi(g1h, g1l, c1, c0)
    v += z >> 63
    z &= _M63
    z += _M63
    z >>= 63
    v |= z
    return v


def _decimal(bits):
    """The shortest decimal d * 10^e that reads back as each finite double,
    trailing zeros stripped; zero (and any non-finite value) gives d = 0."""
    g1t, g0t, log2t, _ = _tables()
    bq = ((bits >> 52) & 0x7FF).astype(np.int64)
    t = bits & (_C_MIN - 1)
    normal = bq != 0
    special = (bq == 0x7FF) | ((bq == 0) & (t == 0))
    c = np.where(special, _C_MIN, np.where(normal, t | _C_MIN, t))
    q = np.where(special, 0, np.where(normal, bq - 1075, _Q_MIN))
    # Schubfach: the rounding interval [vbl, vbr] around vb, scaled by 10^-k
    irregular = (c == _C_MIN) & (q != _Q_MIN)
    k = np.where(irregular, (q * 661971961083 - 274743187321) >> 41,
                 (q * 661971961083) >> 41)
    i = k - _K_MIN
    g1, g0 = g1t[i], g0t[i]
    g = (g1, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32)
    h = (q + log2t[i] + 2).astype(np.uint64)
    cb = c << 2
    vb = _rop(g, cb << h)
    # the interval's ends belong to it when c is even
    vbl = _rop(g, (cb - 2 + irregular) << h) + (c & 1)
    vbr = _rop(g, (cb + 2) << h) - (c & 1)
    s = vb >> 2
    # one digit shorter: at most one multiple of 10^(k+1) lies in the interval
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    wpin = (sp10 + 10) << 2 <= vbr
    shorter = (s >= 10) & (upin != wpin)
    # else s or s + 1, whichever lies in the interval; the closer if both
    # do, an exact tie going to the even one
    uin = vbl <= s << 2
    win = (s + 1) << 2 <= vbr
    up = np.where(uin == win, (vb & 3) + (s & 1) > 2, win)
    # (Java's fast path for integers below 2^53 only saves work: this path
    # yields their own digits too)
    d = np.where(special, 0, np.where(shorter, np.where(wpin, sp10 + 10, sp10), s + up))
    e = np.where(special, 0, k)
    z = np.flatnonzero((d % 10 == 0) & (d != 0))
    if len(z):
        dz, ez = d[z], e[z]
        for p in (16, 8, 4, 2, 1):
            quot = dz // _P10[p]
            hit = quot * _P10[p] == dz
            dz = np.where(hit, quot, dz)
            ez += p * hit
        d[z], e[z] = dz, ez
    return d, e


def _digits(d, dst) -> None:
    """ASCII digits of d < 10^17 into the 17 rows of `dst`, right-aligned."""
    hi = d // 10 ** 8
    x = np.empty((2, len(d)), np.uint32)
    x[0] = hi
    x[1] = d - hi * 10 ** 8
    for j in range(8):
        quot = x // 10
        r = x - quot * 10
        dst[8 - j] = r[0]
        dst[16 - j] = r[1]
        x = quot
    dst[0] = x[0]
    dst += ord("0")


def _format_chunk(v: np.ndarray, cells: np.ndarray) -> None:
    """Write the (n, WIDTH) NUL-padded cells of the float64 values `v`."""
    n_vals = len(v)
    bits = v.view(np.uint64)
    d, e = _decimal(bits)
    n = np.searchsorted(_P10[1:], d, side="right") + 1
    exp = e + n - 1
    cls = np.where((exp >= -4) & (exp < 16), exp + 4,
                   np.where(np.abs(exp) >= 100, 21, 20))
    shape = (((bits >> 63).astype(np.int16) * _N_CLASSES + cls) * 17 + n - 1) \
        .astype(np.int16)
    # one row per source column, so that each is written contiguously
    src = np.empty((_SRC, n_vals), np.uint8)
    _digits(d, src[:17])
    a = np.abs(exp)
    src[_EXP_DIGITS] = a // 100
    src[_EXP_DIGITS + 1] = a // 10 % 10
    src[_EXP_DIGITS + 2] = a % 10
    src[_EXP_DIGITS:_NUL] += ord("0")
    src[_EXP_SIGN] = np.where(exp < 0, ord("-"), ord("+"))
    src[_ZERO], src[_POINT], src[_MINUS], src[_E], src[_NUL] = b"0.-e\0"
    # lay out each run of values of one shape with that shape's row of the table
    order = np.argsort(shape, kind="stable")
    shape = shape[order]
    src = src[:, order]
    runs = [0, *(np.flatnonzero(shape[1:] != shape[:-1]) + 1).tolist(), n_vals]
    table = _tables()[3]
    laid = np.empty((WIDTH, n_vals), np.uint8)
    for lo, hi in zip(runs[:-1], runs[1:]):
        laid[:, lo:hi] = src[table[shape[lo]], lo:hi]
    cells[order] = laid.T
    nonfinite = ~np.isfinite(v)
    if nonfinite.any():
        word = np.where(np.isnan(v), 0, np.where(np.signbit(v), 2, 1))[nonfinite]
        cells[nonfinite] = _SPECIALS[word]


def cells(values) -> np.ndarray:
    """The repr of each value as a NUL-padded row of WIDTH uint8 bytes, in
    an array shaped (*values.shape, WIDTH)."""
    values = np.asarray(values, dtype=np.float64)
    v = np.ascontiguousarray(values).reshape(-1)
    out = np.empty((len(v), WIDTH), np.uint8)
    for lo in range(0, len(v), CHUNK):
        _format_chunk(v[lo:lo + CHUNK], out[lo:lo + CHUNK])
    return out.reshape(*values.shape, WIDTH)


def reprs(values) -> np.ndarray:
    """``repr(float(v)).encode()`` of each value, as a 1-D ``S24`` array."""
    return cells(values).view(f"S{WIDTH}").reshape(-1)
