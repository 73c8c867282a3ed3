"""Python's ``repr`` of every float of an array, computed a column at a time.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020): the shortest decimal in the rounding interval, the
nearer one on a tie of length, the even one on a tie of distance, as
``repr`` picks them, in 64-bit integer arithmetic only. One gather per
value from a table of layouts then spells them as ``repr`` does,
positional for 1e-4 <= |x| < 1e16 and ``d.ddde+XX`` otherwise. Zeros,
subnormals, infinities and nans go through ``repr`` itself.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 24  # the longest repr of a float64: -1.2345678901234567e-308
_CHUNK = 2048  # values per pass: a 64-bit temporary is 16 KiB
_ROWS = 512  # values per gather: its index is 96 KiB
_U = np.uint64
_M32 = _U(2**32 - 1)
# a value's source row: its 17 digits, ".0-", then "e", the exponent's sign and 3 digits
_DOT, _ZERO, _MINUS, _E, _NUL, _SOURCE = 17, 18, 19, 20, 25, 32
_MODES = 22  # decimal point after digit -3..16, then a 2- or 3-digit exponent
_POINT = 400  # the offset of the decimal point in the tables indexed by it


def _schubfach() -> np.ndarray:
    """Per biased exponent, regular then irregular spacing: k, h + 2, g and the half-gaps.

    g = floor(10^-k 2^-r) + 1 lies in [2^125, 2^126), and g c 2^(h+2) 2^-127
    is 4 v 10^-k for the significand c of v. g comes as the low then the
    high 32-bit limbs of its two words; then, a word at a time, g times the
    upper half-gap and minus g times the lower one, modulo 2^192.
    """
    q = np.clip(np.arange(2048) - 1075, -1074, 971)
    irregular = np.arange(2)[:, None] * (q > -1074)  # a power of two is nearer its lower neighbour
    k = q * 661_971_961_083 - irregular * 274_743_187_321 >> 41  # floor(log10(gap below v))
    h = q + (-k * 913_124_641_741 >> 38) + 2
    g = []
    for e in range(324, -293, -1):  # 10^e for k = -e
        p = 10 ** abs(e)
        x = p << 126 if e >= 0 else (1 << p.bit_length() + 125) // p
        g.append((x >> x.bit_length() - 126) + 1)
    g0, g1 = (np.array([x >> s & 2**64 - 1 for x in g], _U)[k + 324] for s in (0, 64))
    gaps = []
    for s in (h + 1, h + 1 - irregular):
        s = s.astype(_U)
        gaps.append([g0 << s, g1 << s | g0 >> _U(64) - s, g1 >> _U(64) - s])
    (u0, u1, u2), (l0, l1, l2) = gaps
    minus = [~l0 + _U(1), ~l1 + (l0 == 0), ~l2 + ((l0 == 0) & (l1 == 0))]
    limbs = [g0 & _M32, g1 & _M32, g0 >> _U(32), g1 >> _U(32)]
    words = [u0, minus[0], u1, minus[1], u2, minus[2]]
    return np.stack([k.astype(_U), (h + 2).astype(_U), *limbs, *words]).reshape(12, -1)


def _layouts() -> np.ndarray:
    """The source byte of each output byte, per (sign, significant digits, mode)."""
    body = np.full((17, _MODES, WIDTH + 1), _NUL, dtype=np.intp)
    for n in range(1, 18):
        for mode, p in enumerate(range(-3, 19)):
            if mode >= 20:
                row = [0, _DOT, *range(1, n)] if n > 1 else [0]
                row += [_E, _E + 1, *range(_E + 23 - mode, _E + 5)]
            elif p <= 0:
                row = [_ZERO, _DOT] + [_ZERO] * -p + list(range(n))
            else:
                row = [*range(p), _DOT, *range(p, max(n, p + 1))]
            body[n - 1, mode, 1 : len(row) + 1] = row
    negative = body.copy()
    negative[..., 0] = _MINUS
    return np.concatenate([body[..., 1:], negative[..., :-1]]).reshape(-1, WIDTH)


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The tables, built on first use: Schubfach's, the layouts, the layout mode and the
    "e" and exponent by decimal point, and each 4-digit group's ASCII and trailing zeros.
    """
    point = np.arange(-_POINT, _POINT)
    mode = np.where((point >= -3) & (point <= 16), point + 3, 20 + (abs(point - 1) >= 100))
    exponent = np.array([b"e%+04d" % (p - 1) for p in point.tolist()], dtype="S8").view("<u8")
    group = np.arange(10_000)
    ascii4 = sum(group // 10**j % 10 + 48 << 24 - 8 * j for j in range(4)).astype(_U)
    trailing = sum(group % 10**j == 0 for j in range(1, 5))
    tables = _schubfach(), _layouts(), mode, exponent, ascii4, trailing
    for table in tables:  # shared by every call
        table.setflags(write=False)
    return tables


def _rop(p2, p1):
    """Round to odd of p 2^-127, p's lowest word dropped as by Schubfach's 64-bit products."""
    return p2 << _U(1) | p1 >> _U(63) | (p1 << _U(1) != 0)


def _divmod(x: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.divmod`` by a constant, through the division numpy turns into a multiplication."""
    quotient = x // d
    return quotient, x - quotient * d


def _digits(bits: np.ndarray, schubfach: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's shortest decimal f 10^k of each normal float, f of 16 or 17 digits."""
    fraction = bits & _U(2**52 - 1)
    i = (bits >> _U(52)).astype(np.intp) & 2047
    i[fraction == 0] += 2048
    table = schubfach.take(i, axis=1)
    c = fraction | _U(2**52)
    cp = c << table[1]
    c0, c1 = cp & _M32, cp >> _U(32)
    # c g as 3 words, g's low word and high word side by side in two rows
    ll = table[2:4] * c0
    t = table[4:6] * c0 + (ll >> _U(32))
    w = table[2:4] * c1 + (t & _M32)
    top, bottom = table[4:6] * c1 + (t >> _U(32)) + (w >> _U(32)), w << _U(32) | ll & _M32
    p0, p1 = bottom[0], top[0] + bottom[1]
    p2 = top[1] + (p1 < bottom[1])
    vb = _rop(p2, p1)
    # the bounds: g times the upper half-gap added, the lower one taken away
    s0, s1 = p0 + table[6:8], p1 + table[8:10]
    w1 = s1 + (s0 < p0)
    vbr, vbl = _rop(p2 + table[10:12] + ((s1 < p1) | (w1 < s1)), w1)
    odd, s = c & _U(1), vb >> _U(2)
    sp10 = s // _U(10) * _U(10)  # one digit shorter: s' 10 and t' 10 = s' 10 + 10
    upin = vbl + odd <= sp10 << _U(2)
    wpin = (sp10 + _U(10) << _U(2)) + odd <= vbr
    uin = vbl + odd <= s << _U(2)
    win = (s + _U(1) << _U(2)) + odd <= vbr
    up = np.where(uin != win, win, vb - (s << _U(2)) + (s & _U(1)) > _U(2))  # nearer, then even
    return np.where(upin != wpin, sp10 + wpin * _U(10), s + up), table[0].view(np.int64)


def reprs(values: np.ndarray) -> np.ndarray:
    """``repr(float(v))`` of each v, ASCII in a row of ``WIDTH`` bytes padded with NUL."""
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    cells = np.empty((values.size, WIDTH), np.uint8)
    schubfach, layouts, modes, exponents, ascii4, trailing4 = _tables()
    offsets = np.arange(_ROWS)[:, None] * _SOURCE
    for start in range(0, values.size, _CHUNK):
        chunk = values[start : start + _CHUNK]
        bits = chunk.view(_U)
        f, k = _digits(bits, schubfach)  # in range, if meaningless, for the values repr spells
        short = f < _U(10**16)
        f = (f * (short * _U(9) + _U(1))).view(np.int64)  # 17 digits: d dddddddd dddddddd
        point = _POINT + k + 17 - short  # the value is 0.ddd... 10^(point - _POINT)
        lead, rest = _divmod(f, 10**16)
        halves = np.stack(_divmod(rest, 10**8))
        high, low = _divmod(halves, 10**4)
        words = ascii4[high] | ascii4[low] << _U(32)  # each half's 8 digits as ASCII
        zeros = trailing4[low] + (low == 0) * trailing4[high]  # each half's trailing zeros
        trailing = zeros[1] + (halves[1] == 0) * zeros[0]
        exponent = exponents[point]
        source = np.stack([
            lead.view(_U) + _U(48) | words[0] << _U(8),
            words[0] >> _U(56) | words[1] << _U(8),
            words[1] >> _U(56) | _U(int.from_bytes(b"\0.0-", "little")) | exponent << _U(32),
            exponent >> _U(32),
        ], axis=1).astype("<u8", copy=False).view(np.uint8)
        layout = ((bits >> _U(63)).view(np.int64) * 17 + 16 - trailing) * _MODES + modes[point]
        for row in range(0, len(chunk), _ROWS):
            index = layouts.take(layout[row : row + _ROWS], axis=0)
            index += offsets[: len(index)] + row * _SOURCE
            source.take(index, out=cells[start + row : start + row + len(index)])
        special = (bits << _U(1)) - _U(2**53) >= _U(2046 << 53)  # biased exponent 0 or 2047
        for j in np.flatnonzero(special):
            text = repr(float(chunk[j])).encode()
            cells[start + j] = 0
            cells[start + j, : len(text)] = list(text)
    return cells
