"""Exact ``"%.17g" % v`` texts of float64 arrays, a block at a time.

``simulate`` prints each jump time with ``%.17g``, and CPython makes each
text with its correctly rounded dtoa, about 300 ns a value. For a double x
in the fast range [1, 2**40) the text is fixed-point, and its 17
significant digits are the integer D = round(x * 10**(16 - E)) with
E = floor(log10 x) in [0, 12]. That rounding is exact in integer arithmetic
(Gay, "Correctly rounded binary-decimal and decimal-binary conversions",
1990; Adams, "Ryu revisited: printf floating point conversion", 2019):
x = m * 2**(e - 52) with m < 2**53 and e = floor(log2 x) in [0, 39], so

    x * 10**(16 - E) = m * 5**(16 - E) / 2**s,    s = 36 + E - e in [8, 36].

The kernel forms m * 5**(16 - E), below 2**91, as two uint64 words from
32-bit halves, shifts it right by s with round half to even, and lays out
D's 17 digits with the point after its first E + 1, the trailing zeros of
the fraction dropped, and the point too when nothing follows it. D always
has 17 digits: x >= 10**E, and the largest double below 10**(E + 1) lies at
least 10**(E + 1) * 2**-53 below it, so D <= 10**17 - 11 and never carries
into E + 1. numpy runs each step over a block of up to ``BLOCK`` values at
once, in one pool of arrays that every block reuses.

Every other value goes through ``%``: below 1 (zero, subnormals and
negatives too), at or above 2**40, nan and inf. Each text is byte for byte
what ``%`` gives. The arithmetic meets uint64 arrays only with uint64
arrays, ``np.uint64`` scalars and booleans: numpy 1.x promotes uint64 with
int64 to float64.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

# values a block, with ~200 KB of scratch; 2048 ran ~5 % faster but raised
# simulate's peak memory by ~0.3 MB more
BLOCK = 1024
WIDTH = 32  # characters per value in a block's text: 17 digits and the point,
# or a ``%`` text (at most 24), then spaces

_U = np.uint64
_EXPONENTS = range(40)  # e = floor(log2 x) over the fast range
_E_FLOOR = np.array([len(str(2 ** e)) - 1 for e in _EXPONENTS], dtype=np.uint64)
# x >= 10 ** (_E_FLOOR[e] + 1), an exact double, iff E = _E_FLOOR[e] + 1:
# [2**e, 2**(e + 1)) holds at most one power of ten
_NEXT_POWER = np.array([float(10 ** len(str(2 ** e))) for e in _EXPONENTS]).view(np.uint64)
_SHIFT = np.array([len(str(2 ** e)) + 35 - e for e in _EXPONENTS], dtype=np.uint64)
_POW5 = np.array([5 ** (16 - E) for E in range(13)], dtype=np.uint64)


def _quad_tables():
    """``"%04d" % q`` as four ASCII bytes, the first one lowest, and its
    trailing zeros (4 for q = 0), for q in [0, 10**4). Built with the uint64
    operations the kernel runs, so that it loads little numpy code of its own."""
    q = np.arange(10_000, dtype=np.uint64)
    text = np.zeros(10_000, dtype=np.uint64)
    zeros = np.zeros(10_000, dtype=np.uint64)
    for shift, unit in ((0, 1000), (8, 100), (16, 10), (24, 1)):
        higher = q // _U(10 * unit)
        digit = q // _U(unit) - higher * _U(10)
        text += (digit + _U(48)) << _U(shift)
        zeros += higher * _U(10 * unit) == q
    return text, zeros


def _span(start: int, stop: int, fill: int = 0xFF) -> int:
    """Bytes [start, stop) of a row as ``fill``, the others 0, as one int."""
    return fill * ((1 << 8 * max(stop - start, 0)) - 1) // 255 << 8 * start


def _layout_tables():
    """Three word masks per (word, E, k), flat at 221 * word + 17 * E + k,
    for the row of D's 17 digits with the point at byte E + 1 and k
    trailing zeros (0-16). The fraction's 16 - E digits lose their trailing
    zeros, and the point goes too when all of them are, so the text's
    length L is 18 - k, or E + 1 where k >= 16 - E. A digit stays at byte
    p <= E (``keep``) or moves up one byte to p >= E + 2 (``move``), each
    below L; ``mark`` holds the point at E + 1 and spaces from L on."""
    rows = []
    for E in range(13):
        for k in range(17):
            L = 18 - k if k < 16 - E else E + 1
            rows.append((_span(0, min(E + 1, L)), _span(E + 2, L),
                         _span(E + 1, min(E + 2, L), 0x2E) | _span(L, 24, 0x20)))
    return [np.array([[row[t] >> 64 * w & (2 ** 64 - 1) for row in rows] for w in range(3)],
                     dtype=np.uint64).ravel() for t in range(3)]


_QUAD_TEXT, _QUAD_ZEROS = _quad_tables()
_KEEP, _MOVE, _MARK = _layout_tables()
_WORD = np.array([[0], [221], [442]], dtype=np.uint64)  # where each word's masks start
_SPACES = _U(0x2020202020202020)


class _Pool:
    """The arrays of one block, reused by every block of a call."""

    def __init__(self):
        self.x = np.empty(BLOCK)
        self.flag = np.empty(BLOCK, dtype=bool)
        self.u = np.empty((19, BLOCK), dtype=np.uint64)
        self.rows = np.empty((BLOCK, 4), dtype="<u8")


def _block_text(pool: _Pool, n: int) -> str:
    """The texts of ``pool.x[:n]``, each padded with spaces to ``WIDTH``."""
    x, flag = pool.x[:n], pool.flag[:n]
    u = pool.u[:, :n]
    e, m, mh, E, s, p, lo, hi = u[:8]
    group = u[8:12].reshape(2, 2, n)
    quad = u[12:16].reshape(2, 2, n)
    words = u[16:19]
    rows = pool.rows[:n]

    # x = m * 2**(e - 52); x is in the fast range iff e < 40: e wraps
    # around below 1, and a set sign bit or the exponent of nan and inf
    # makes it at least 1024. The other values run through the arithmetic
    # on their bits, staying within the tables (the takes clip), and their
    # rows get their % texts at the end
    bits = x.view(np.uint64)
    np.right_shift(bits, _U(52), out=e)
    e -= _U(1023)
    np.greater_equal(e, _U(40), out=flag)
    slow = np.flatnonzero(flag)
    texts = ["%.17g" % v for v in x[slow].tolist()]
    np.bitwise_and(bits, _U(2 ** 52 - 1), out=m)
    m |= _U(2 ** 52)
    # E and s from e and one comparison, of bits: positive doubles order as
    # their bit patterns do
    np.greater_equal(bits, _NEXT_POWER.take(e, mode="clip"), out=flag)
    np.add(_E_FLOOR.take(e, mode="clip"), flag, out=E)
    np.add(_SHIFT.take(e, mode="clip"), flag, out=s)

    # m * 5**(16 - E) as hi * 2**64 + lo, from 32-bit halves. A take with
    # out= and mode "clip" writes straight into the pool, where the default
    # mode would copy through a buffer
    _POW5.take(E, out=p, mode="clip")
    np.right_shift(p, _U(32), out=e)  # e: the high half of p
    p &= _U(2 ** 32 - 1)
    np.right_shift(m, _U(32), out=mh)
    m &= _U(2 ** 32 - 1)
    np.multiply(m, p, out=lo)
    m *= e  # m: the cross products, below 2**54
    p *= mh
    m += p
    np.multiply(mh, e, out=hi)
    np.right_shift(m, _U(32), out=p)
    hi += p
    m <<= _U(32)
    lo += m
    np.less(lo, m, out=flag)  # the carry out of the low word
    hi += flag

    # D = (hi * 2**64 + lo) / 2**s, rounded half to even, in hi
    np.subtract(_U(64), s, out=p)
    hi <<= p
    np.right_shift(lo, s, out=p)
    hi |= p
    s -= _U(1)
    np.left_shift(_U(1), s, out=p)  # p: half of 2**s
    np.add(p, p, out=m)
    m -= _U(1)
    lo &= m
    np.bitwise_and(hi, _U(1), out=m)
    lo += m
    np.greater(lo, p, out=flag)
    hi += flag

    # D's digits: the first in mh, then group[j, i] = digits 1 + 8i + 4j to
    # 4 + 8i + 4j, and their texts
    np.floor_divide(hi, _U(10 ** 8), out=group[1, 0])
    np.multiply(group[1, 0], _U(10 ** 8), out=lo)
    np.subtract(hi, lo, out=group[1, 1])
    np.floor_divide(group[1, 0], _U(10 ** 8), out=mh)
    np.multiply(mh, _U(10 ** 8), out=lo)
    group[1, 0] -= lo
    np.floor_divide(group[1], _U(10 ** 4), out=group[0])
    np.multiply(group[0], _U(10 ** 4), out=quad[0])
    group[1] -= quad[0]
    _QUAD_TEXT.take(group, out=quad, mode="clip")

    # k, the trailing zeros of D, counted back from the last group while
    # the groups are all zeros, picks the layout with E
    _QUAD_ZEROS.take(group[1, 1], out=lo, mode="clip")
    deeper = np.flatnonzero(group[1, 1] == _U(0))  # rare for random times
    for g in (group[0, 1], group[1, 0], group[0, 0]):
        if not deeper.size:
            break
        zeros = _QUAD_ZEROS.take(g[deeper])
        lo[deeper] += zeros
        deeper = deeper[zeros == _U(4)]
    np.multiply(E, _U(17), out=p)
    p += lo  # p: the layout's row, 17 * E + k

    # bytes 0-16 of the row in three words, then the point after byte E,
    # the trailing zeros dropped and spaces to the end; moved, at and mask
    # reuse rows whose values are spent
    moved, at, mask = u[12:15], u[8:11], u[0:3]
    np.bitwise_or(mh, _U(48), out=words[0])
    np.left_shift(quad[0, 0], _U(8), out=lo)
    words[0] |= lo
    np.left_shift(quad[1, 0], _U(40), out=lo)
    words[0] |= lo
    np.right_shift(quad[1, 0], _U(24), out=words[1])
    np.left_shift(quad[0, 1], _U(8), out=lo)
    words[1] |= lo
    np.left_shift(quad[1, 1], _U(40), out=lo)
    words[1] |= lo
    np.right_shift(quad[1, 1], _U(24), out=words[2])
    np.left_shift(words, _U(8), out=moved)
    np.right_shift(words[:2], _U(56), out=at[1:])
    moved[1:] |= at[1:]
    np.add(p, _WORD, out=at)
    _KEEP.take(at, out=mask, mode="clip")
    words &= mask
    _MOVE.take(at, out=mask, mode="clip")
    moved &= mask
    words |= moved
    _MARK.take(at, out=mask, mode="clip")
    words |= mask

    rows[:, :3] = words.T
    rows[:, 3] = _SPACES
    if texts:
        rows[slow] = np.frombuffer("".join(t.ljust(WIDTH) for t in texts).encode("ascii"),
                                   dtype="<u8").reshape(-1, 4)
    return str(rows.data, "ascii")


def g17_texts(arrays: Iterable[np.ndarray]) -> Iterator[list]:
    """For each float64 array of ``arrays``, in order, the list of
    ``"%.17g" % v`` over its values.

    Consecutive arrays are formatted together, up to ``BLOCK`` values a
    block, in one pool of scratch arrays; an array longer than a block is
    formatted a block at a time. Each list is split from its block's text
    when its turn comes, so only one array's strings are made at a time.
    """
    pool = _Pool()
    batch: list = []
    size = 0
    for values in arrays:
        if batch and size + len(values) > BLOCK:
            yield from _batch_texts(pool, batch, size)
            batch, size = [], 0
        batch.append(values)
        size += len(values)
    if batch:
        yield from _batch_texts(pool, batch, size)


def _batch_texts(pool: _Pool, batch: list, size: int) -> Iterator[list]:
    """The lists of ``g17_texts`` for ``batch``, arrays of ``size`` values
    in all: at most ``BLOCK``, or one array."""
    if size > BLOCK:
        texts = []
        for start in range(0, size, BLOCK):
            block = batch[0][start:start + BLOCK]
            pool.x[:len(block)] = block
            texts += _block_text(pool, len(block)).split()
        yield texts
        return
    np.concatenate(batch, out=pool.x[:size])
    text = _block_text(pool, size)
    start = 0
    for values in batch:
        stop = start + WIDTH * len(values)
        yield text[start:stop].split()
        start = stop
