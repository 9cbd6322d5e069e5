"""The trajectory writer's rows: NUMBER_FORMAT's text, computed in numpy.
Only the writer imports this module, so other commands skip its tables.

For a finite double x, "%.17g" writes D = |x|*10^(16-X) rounded half-even
to an integer of 17 digits, X the decimal exponent; in fixed notation when
-4 <= X <= 16. For such X the product is exact as p + e, p = fl(|x|*10^(16-X))
and e its error (Dekker's TwoProduct, with the exact doubles 10^0..10^20),
and p >= 10^16 > 2^53 is an even integer, so D = p + rint(e). Other cells
keep NUMBER_FORMAT.
"""

import numpy as np

from .io_formats import NUMBER_FORMAT

_BLOCK_ROWS = 4096  # rows formatted per block; bounds peak memory

_POW10 = np.cumprod(np.r_[1.0, np.full(20, 10.0)])  # each product is exact


def _halves(v):
    """Veltkamp's split of v into two halves of at most 26 bits each."""
    c = 134217729.0 * v  # 2**27 + 1
    high = c - (c - v)
    return high, v - high


_POW10_HIGH, _POW10_LOW = _halves(_POW10)


def _round17(a: np.ndarray, x: np.ndarray):
    """D = a*10^(16-x) rounded half-even to an integer, for 0 <= a <= 1e17
    and -4 <= x <= 16; with whether the exact product is below 10^16 (x is
    too high) and whether D reaches 10^17 (x is too low)."""
    k = 16 - x
    a_high, a_low = _halves(a)
    b_high, b_low = _POW10_HIGH.take(k), _POW10_LOW.take(k)
    p = a * _POW10.take(k)
    e = ((a_high * b_high - p) + a_high * b_low + a_low * b_high) + a_low * b_low
    d = p.astype(np.int64) + np.rint(e).astype(np.int64)
    # p - 1e16 is exact where it is small, and the sum keeps its sign
    return d, (p - 1e16) + e < 0, d >= 10**17


# A cell is laid out in 40 bytes, five little-endian 64-bit words:
#   '-' '0' '.' '0' '0' '0' d0 '.' | d1 '.' d2 '.' d3 '.' d4 '.' | ... | d13 '.'
#   d14 '.' d15 '.' d16 <separator>
# Its text is the bytes its mask keeps, then the separator; the others are
# zeroed. The mask depends on the sign, X and the place L of the last non-zero
# digit: '-' when negative; "0." and -X - 1 zeros when X < 0; the digits up to
# place max(L, X); the '.' after dX when L > X. A cell that keeps
# NUMBER_FORMAT keeps no byte; its text, at most 24 bytes and padded with
# spaces, is written over it.
_CELL_BYTES = 40
_FALLBACK = 2 * 21 * 17  # the code after every (negative, X, L)
_PADDED_NUMBER = NUMBER_FORMAT.replace("%", f"%-{_CELL_BYTES - 1}")


def _cell_tables():
    """The words of the 4-digit groups 0000..9999, and the place of each one's
    last non-zero digit as words 1..4 (below 0 for 0000); the masks, by word
    and then by code = 357 * negative + 17 * (X + 4) + L; the first words,
    masked, by 10 * code + d0."""
    digits = np.frombuffer(b"0123456789", np.uint8)
    group_words = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)  # by digit
    group_last = np.full((10, 10, 10, 10), -100, np.int8)
    for j in range(4):  # a later non-zero digit overrides an earlier one
        shape = [1, 1, 1, 1]
        shape[j] = 10
        group_words[..., 2 * j] = digits.reshape(shape)
        group_last[(slice(None),) * j + (digits > ord("0"),)] = j + 1
    group_last = group_last.reshape(-1) + np.arange(0, 16, 4, dtype=np.int8)[:, None]
    neg, x, last, slot = np.ix_([0, 1], np.arange(-4, 17), np.arange(17),
                                np.arange(_CELL_BYTES))
    place = (slot - 6) // 2  # of the digit, or of the digit before the '.'
    keep = (((slot == 0) & (neg == 1))
            | ((slot >= 1) & (slot <= 2) & (x < 0))
            | ((slot >= 3) & (slot <= 5) & (slot >= 7 + x))
            | ((slot >= 6) & (slot % 2 == 0) & (place <= np.maximum(last, x)))
            | ((slot >= 7) & (slot % 2 == 1) & (place == x) & (last > x)))
    keep = np.vstack([keep.reshape(-1, _CELL_BYTES), np.zeros(_CELL_BYTES, bool)])
    masks = (keep * np.uint8(255)).view("<u8").T.copy()
    lead = np.frombuffer(b"-0.000d." * 10, np.uint8).reshape(10, 8).copy()
    lead[:, 6] = digits
    return (group_words.view("<u8").reshape(-1), group_last, masks,
            (masks[0][:, None] & lead.view("<u8")[:, 0]).ravel())


_GROUP_WORDS, _GROUP_LAST, _MASKS, _LEAD_WORDS = _cell_tables()


def _format_cells(values: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Lay out each value in its row of words (len(values) x 5), all but the
    separator; which cells keep NUMBER_FORMAT."""
    a = np.abs(values)
    # log10 gives X or misses it by one; it never sees 0 or a subnormal
    x = np.floor(np.log10(np.clip(a, 1e-4, 9e16))).astype(np.int64)
    a = np.minimum(a, 1e17)
    d, low, high = _round17(a, x)
    nonzero = a > 0
    low &= nonzero
    moved = np.flatnonzero(low | high)
    if len(moved):  # once more at the corrected X; a cell still off falls back
        x[moved] += high[moved].astype(np.int64) - low[moved]
        d[moved], low[moved], high[moved] = _round17(a[moved],
                                                     np.clip(x[moved], -4, 16))
    fallback = low | high
    x *= nonzero  # 0 is written as "0"
    upper = d // 10**8  # d0 and the next 8 digits
    lower = d - upper * 10**8
    d0 = upper // 10**8
    upper -= d0 * 10**8
    groups = []  # d1..d4, d5..d8, d9..d12, d13..d16
    for half in (upper, lower):
        left = half // 10**4
        groups += [left, half - left * 10**4]
    last = np.zeros(len(values), np.int8)  # place of the last non-zero digit
    for places, group in zip(_GROUP_LAST, groups):
        np.maximum(last, places.take(group), out=last)
    code = 357 * np.signbit(values) + 17 * (x + 4) + last
    code[fallback] = _FALLBACK
    d0[fallback] = 0  # in range; the mask keeps none of the cell
    words[:, 0] = _LEAD_WORDS.take(10 * code + d0)
    for j, group in enumerate(groups, start=1):
        np.bitwise_and(_GROUP_WORDS.take(group), _MASKS[j].take(code), out=words[:, j])
    return fallback


def _format_rows(columns):
    """CSV text of the rows of `columns`, in blocks of formatted rows."""
    n_rows, n_columns = len(columns[0]), len(columns)
    separators = np.array([ord(",")] * (n_columns - 1) + [ord("\n")], "<u8") << 56
    buffer = bytearray(min(_BLOCK_ROWS, n_rows) * n_columns * _CELL_BYTES)
    cells = np.frombuffer(buffer, "<u8").reshape(-1, n_columns, 5)
    cell_bytes = np.frombuffer(buffer, np.uint8).reshape(-1, _CELL_BYTES)
    for lo in range(0, n_rows, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n_rows)
        fallback = np.column_stack([_format_cells(col[lo:hi], cells[:hi - lo, j])
                                    for j, col in enumerate(columns)])
        cells[:hi - lo, :, 4] |= separators
        if fallback.any():
            values = np.column_stack([col[lo:hi] for col in columns])[fallback]
            numbers = (_PADDED_NUMBER * len(values)) % tuple(values.tolist())
            cell_bytes[np.flatnonzero(fallback), :-1] = np.frombuffer(
                numbers.encode(), np.uint8).reshape(len(values), -1)
        size = fallback.size * _CELL_BYTES  # drop the zeroed and padding bytes
        text = (buffer if size == len(buffer) else buffer[:size]).translate(None, b"\0 ")
        yield text.decode("ascii")
