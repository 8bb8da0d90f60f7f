"""Csv number cells at array speed: the bytes of ``repr`` of a float and ``str`` of an int.

``float_cells(a)`` takes a float64 array and ``int_cells(a)`` an int64 array.
Each returns a uint8 matrix with one row per element.  A row holds exactly
the ASCII bytes of ``repr(float(x))`` or ``str(int(x))`` and is padded on the
right with ``0xFF``, a byte no cell holds, so ``bytes.translate(None,
b"\\xff")`` leaves only the cells.

``repr`` of a float is the shortest decimal that reads back as the same
double, the nearest such one to it, ties to an even last digit.  Ryu
(U. Adams, "Ryu: fast float-to-string conversion", PLDI 2018) finds exactly
those digits, and its ``d2d`` runs here on uint64 lanes.  Each lane's
significand is multiplied by a 126-bit power of five from a table, in 28-bit
limbs.  The digits Ryu removes one at a time are counted by dividing every
lane by one power of ten at a time.  Python's layout rule then places the
digits, through a table of layout templates gathered per cell.  Every table
is built from Python ints on first use.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_U64 = np.uint64
_POW10 = np.array([10**k for k in range(20)], dtype=_U64)
_LIMB = 28
_LIMB_MASK = (1 << _LIMB) - 1

# The source of a cell is one column of a matrix whose rows are slots: digit k
# of the cell's digits (units first) in slot _DIGITS - 1 - k, then constant
# bytes, then the sign and the three digits of a float's exponent.  A template
# lists the slots that a cell's bytes come from, padded with the 0xFF slot.
_DIGITS = 20
_CONST = b"-.0enaif\xff"
_MINUS, _POINT, _ZERO, _E, _N, _A, _I, _F, _PAD = range(_DIGITS, _DIGITS + len(_CONST))
_XSIGN = _DIGITS + len(_CONST)
_SLOTS = _XSIGN + 4

# Float templates are indexed by (sign * 18 + digits) * 22 + kind, where kind
# is 3 + p for the fixed form with the decimal point after p digits,
# -4 < p <= 16, and 20 or 21 for the exponent form with two or three exponent
# digits.  Three more templates after them spell inf, -inf and nan.
_KINDS = 22
_INF = 2 * 18 * _KINDS


def _float_layout(neg: bool, length: int, kind: int) -> list[int]:
    """The slots of a float cell: ``length`` digits laid out by ``kind``, as ``repr`` does."""
    digits = list(range(_DIGITS - length, _DIGITS))
    if kind >= 20:
        body = digits[:1] + ([_POINT] + digits[1:] if length > 1 else []) + [_E, _XSIGN]
        body += [_XSIGN + 1, _XSIGN + 2, _XSIGN + 3][21 - kind:]
    elif kind - 3 <= 0:
        body = [_ZERO, _POINT] + [_ZERO] * (3 - kind) + digits
    elif kind - 3 < length:
        body = digits[:kind - 3] + [_POINT] + digits[kind - 3:]
    else:
        body = digits + [_ZERO] * (kind - 3 - length) + [_POINT, _ZERO]
    return [_MINUS] * neg + body


def _template_table(layouts: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Layouts padded to one width as an intp matrix, and their lengths."""
    width = max(map(len, layouts))
    table = np.array([lay + [_PAD] * (width - len(lay)) for lay in layouts], dtype=np.intp)
    return table, np.array(list(map(len, layouts)), dtype=np.intp)


@cache
def _float_tables():
    """Ryu's constants in columns indexed by the IEEE exponent field, and the float templates.

    Rows 0 to 4 hold the 126-bit multiplier in 28-bit limbs: ``5**q``
    scaled to 125 bits below the binary point, or its inverse above it.  Row
    5 holds the shift beyond bit 112, row 6 the decimal exponent of ``vr``.
    Rows 7 to 10 hold the trailing-zero tests: the mask ``2**q - 1`` of the
    power-of-two test, the inverse of ``5**q`` modulo ``2**64`` with the
    largest quotient of a multiple for the power-of-five test, and 1 where
    ``q <= 1`` below the binary point.  A test that does not apply gets masks
    that no nonzero lane passes.  Column 2047 (inf and nan) is all zeros.
    """
    e2 = np.maximum(np.arange(2047), 1) - 1077
    above = e2 >= 0
    q = np.where(above, ((e2 * 78913) >> 18) - (e2 > 3), ((-e2 * 732923) >> 20) - (-e2 > 1))
    power = np.where(above, q, -e2 - q)
    pow5 = [5**k for k in range(power.max() + 1)]
    width = np.array([p.bit_length() for p in pow5])[power]
    inverse = [(1 << (p.bit_length() + 124)) // p + 1 for p in pow5]
    scaled = [p << 125 >> p.bit_length() for p in pow5]
    # Each multiplier (below 2**126) as two little-endian words, then as five 28-bit limbs.
    raw = b"".join(m.to_bytes(16, "little") for m in inverse + scaled)
    low, high = np.frombuffer(raw, dtype="<u8").reshape(-1, 2).T
    limbs = np.stack([low, low >> 28, low >> 56 | high << 8, high >> 20, high >> 48]) & _LIMB_MASK
    rows = np.zeros((11, 2048), dtype=_U64)
    rows[:5, :2047] = limbs[:, np.where(above, power, power + len(pow5))]
    rows[5, :2047] = np.where(above, width + 124 - e2 + q, q - width + 125) - 4 * _LIMB
    rows[6, :2047] = np.where(above, q, q + e2)
    rows[7, :2047] = np.where(above | (q >= 63), ~_U64(0), (_U64(1) << q.astype(_U64)) - _U64(1))
    by5, small_q = above & (q <= 21), np.minimum(q, 21)
    inverse5 = np.array([pow(5**k, -1, 2**64) for k in range(22)], dtype=_U64)
    quotient5 = np.array([(2**64 - 1) // 5**k for k in range(22)], dtype=_U64)
    rows[8, :2047] = np.where(by5, inverse5[small_q], 1)
    rows[9, :2047] = np.where(by5, quotient5[small_q], 0)
    rows[10, :2047] = ~above & (q <= 1)
    layouts = [_float_layout(neg, length, kind)
               for neg in (0, 1) for length in range(18) for kind in range(_KINDS)]
    layouts += [[_I, _N, _F], [_MINUS, _I, _N, _F], [_N, _A, _N]]
    return rows, *_template_table(layouts)


@cache
def _int_tables():
    """Int templates, indexed by ``sign * 20 + digits``."""
    return _template_table([[_MINUS] * neg + list(range(_DIGITS - length, _DIGITS))
                            for neg in (0, 1) for length in range(20)])


def _mul_shift(x: np.ndarray, offsets: np.ndarray, limbs: np.ndarray,
               shift: np.ndarray) -> np.ndarray:
    """``(x + d) * mul >> (112 + shift)`` for each lane and each row ``d`` of ``offsets``.

    ``x`` (int64, below ``2**56``) and ``shift`` (0 to 27) are per lane, the
    ``offsets`` (k, lanes) are small, and ``limbs`` (5, lanes) holds ``mul``
    in 28-bit limbs.  ``x + d`` is split as ``low + d + high * 2**28``, so its
    low limb may be negative.  Each column's sum of limb products fits in
    int64 and passes its carry up by an arithmetic shift; the answer is read
    from columns 4 to 6.
    """
    low, high = (x & _LIMB_MASK) + offsets, x >> _LIMB
    carry, top = 0, []
    for c in range(6):
        acc = carry + (low * limbs[c] if c < 5 else 0) + (high * limbs[c - 1] if c else 0)
        carry = acc >> _LIMB
        if c >= 4:
            top.append((acc & _LIMB_MASK).view(_U64))
    top.append(carry.view(_U64))
    shift = shift.astype(_U64)
    return top[0] >> shift | top[1] << (_U64(_LIMB) - shift) | top[2] << (_U64(2 * _LIMB) - shift)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's shortest decimal ``digits * 10**exponent`` of each finite double in ``bits``.

    Zeros and the integers below 2**53 take the small-integer path: their
    digits are the integer itself, exponent 0.  Other lanes take ``d2d``.
    Lanes of inf and nan hold values no one reads.
    """
    ieee_e = (bits >> _U64(52)).astype(np.intp) & 0x7FF
    mant = bits & _U64((1 << 52) - 1)
    m2 = np.where(ieee_e > 0, mant | _U64(1 << 52), mant)
    const = np.take(_float_tables()[0], ieee_e, axis=1)
    even = (m2 & _U64(1)) == 0
    mm_shift = (mant != 0) | (ieee_e <= 1)
    mv = m2 << _U64(2)
    offsets = np.stack([np.zeros(bits.size, dtype=np.int64), np.full(bits.size, 2), -1 - mm_shift])
    signed = const.view(np.int64)
    vr, vp, vm = _mul_shift(mv.view(np.int64), offsets, signed[:5], signed[5])

    # Trailing-zero tests: mv, mp or mm divisible by 2**q or by 5**q.
    five = mv - mv // _U64(5) * _U64(5) == 0
    by5 = np.stack([mv, mv - _U64(1) - mm_shift, mv + _U64(2)]) * const[8] <= const[9]
    low_q = const[10] == 1
    vr_zeros = ((mv & const[7]) == 0) | (five & by5[0])
    vm_zeros = even & ((~five & by5[1]) | (low_q & mm_shift))
    vp -= ~even & ((~five & by5[2]) | low_q)

    unit = (ieee_e >= 1023) & (ieee_e <= 1075)
    int_shift = np.where(unit, 1075 - ieee_e, 0).astype(_U64)
    small = ((unit & (m2 & ((_U64(1) << int_shift) - _U64(1)) == 0)) | (bits << _U64(1) == 0)
             | (ieee_e == 2047))
    live = ~small

    # Digits removed while the interval (vm, vp] still holds a multiple of
    # ten, then, where vm ends in zeros that the interval accepts, those too.
    removed = np.zeros(bits.size, dtype=np.intp)
    bounds = np.stack([vp, vm])
    for k in range(1, 20):
        q = bounds // _POW10[k]
        step = (q[0] > q[1]) & live
        if not step.any():
            break
        removed += step
    scale = _POW10[removed]
    vm_cut = vm // scale
    vm_zeros &= live & (vm_cut * scale == vm)
    more = vm_zeros.copy()
    for k in range(1, 20):
        more &= vm_cut // _POW10[k] * _POW10[k] == vm_cut
        if not more.any():
            break
        removed += more

    # Round by the last removed digit, a tie (a 5, then only zeros) to even,
    # and step up from vm where the interval excludes it.
    vr_cut, vm_cut = np.stack([vr, vm]) // _POW10[removed]
    before = _POW10[np.maximum(removed - 1, 0)]
    last = vr // before
    vr_zeros &= last * before == vr
    last = np.where(removed > 0, last - vr_cut * _U64(10), _U64(0))
    last = np.where(vr_zeros & (last == 5) & ((vr_cut & _U64(1)) == 0), _U64(4), last)
    digits = vr_cut + (((vr_cut == vm_cut) & ~(even & vm_zeros)) | (last >= 5))
    digits = np.where(small, m2 >> int_shift, digits)
    exponent = np.where(small, 0, signed[6] + removed)
    return digits, exponent


def _digit_source(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slot matrix of ``values`` (uint64) with their digits in place, and their digit counts."""
    source = np.empty((_SLOTS, values.size), dtype=np.uint8)
    source[_DIGITS:_XSIGN] = np.frombuffer(_CONST, dtype=np.uint8)[:, None]
    top = len(str(int(values.max()))) if values.size else 1
    rest = values
    for k in range(top):
        q = values // _POW10[k + 1]
        source[_DIGITS - 1 - k] = rest - q * _U64(10) + _U64(48)
        rest = q
    return source, np.maximum(np.searchsorted(_POW10, values, side="right"), 1)


def _gather(source: np.ndarray, keys: np.ndarray, templates: np.ndarray,
            lengths: np.ndarray) -> np.ndarray:
    """Each cell's bytes from its source column by its template, as rows cut to the longest cell."""
    n = source.shape[1]
    width = int(lengths[keys].max()) if n else 0
    index = np.take(templates[:, :width] * n, keys, axis=0)
    index += np.arange(n)[:, None]
    return np.take(source.reshape(-1), index)


def float_cells(a: np.ndarray) -> np.ndarray:
    """``repr(float(x))`` of each element of the float64 array ``a``, as 0xFF-padded uint8 rows."""
    _, templates, lengths = _float_tables()
    bits = np.ascontiguousarray(a, dtype=np.float64).view(_U64).reshape(-1)
    digits, exponent = _shortest(bits)
    source, length = _digit_source(digits)
    point = exponent + length
    power = np.abs(point - 1)
    source[_XSIGN] = np.where(point >= 1, ord("+"), ord("-"))
    source[_XSIGN + 1] = power // 100 + 48
    source[_XSIGN + 2] = power // 10 - power // 100 * 10 + 48
    source[_XSIGN + 3] = power - power // 10 * 10 + 48
    kind = np.where((point > -4) & (point <= 16), point + 3, np.where(power >= 100, 21, 20))
    neg = (bits >> _U64(63)).astype(np.intp)
    keys = (neg * 18 + length) * _KINDS + kind
    magnitude = bits << _U64(1)
    keys = np.where(magnitude < _U64(0x7FF << 53), keys,
                    np.where(magnitude == _U64(0x7FF << 53), _INF + neg, _INF + 2))
    return _gather(source, keys, templates, lengths)


def int_cells(a: np.ndarray) -> np.ndarray:
    """``str(int(x))`` of each element of the int64 array ``a``, as 0xFF-padded uint8 rows."""
    templates, lengths = _int_tables()
    signed = np.ascontiguousarray(a, dtype=np.int64).reshape(-1)
    bits = signed.view(_U64)
    neg = signed < 0
    source, length = _digit_source(np.where(neg, _U64(0) - bits, bits))
    return _gather(source, neg * 20 + length, templates, lengths)
