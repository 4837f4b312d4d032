"""CSV text of equal-length columns: str cells as they are, numbers as the
text of ``format(float(x), ".17g")``.

A small table fills one repeated %-template.  A larger one goes through a
vectorized kernel, one numeric column of one row chunk per call:

- e = floor(log10|x|) and D = round(|x| * 10**(16 - e)), the product formed
  as Dekker's exact two-product of |x| with 10**(16 - e) held as a
  double-double (Numer. Math. 18, 1971), which fixes the 17 digits and the
  rounding direction to about 1e-14 (the powers of ten and their halves
  are one table for the process, each column formed once);
- the cells this cannot decide take the scalar formatter, as Grisu's fast
  path falls back to an exact one (Loitsch, PLDI 2010): a fraction within
  1e-9 of 1/2 (exact ties among them), NaN, the infinities and every nonzero
  |x| outside [1e-280, 1e280], subnormals included.

A column may also be a function that gives a chunk's cells when asked, so a
caller can form a long column CHUNK_ROWS rows at a time.  Each cell is laid
out in fixed slots of a column-major uint8 plane, an unused slot 0.  A
transpose and a ``translate`` deleting the 0 bytes turn EMIT_ROWS rows of a
chunk's planes at a time into one piece of text: the table is a stream of
pieces, the header line first, and its text is never held whole.
"""

from __future__ import annotations

import functools

import numpy as np

#: tables of fewer cells take the %-template, whose cost is per cell, where
#: the kernel's is mostly per numpy call: one 4-column table in a fresh
#: process, the template won 13 of 15 runs at 1,800 cells and the kernel 12 of
#: 15 at 3,600
VECTOR_CELLS = 2500
#: rows per chunk: its planes and temporaries stay in cache (of 1,024 to
#: 16,384 rows, 4,096 formatted a physical N = 256 trajectory fastest)
CHUNK_ROWS = 4096
#: rows of a chunk transposed, stripped and decoded into one piece of text,
#: so those three copies of its bytes stay a quarter of the chunk's planes
EMIT_ROWS = 1024
#: slots of a number: sign, the "0.000" before a fixed 1e-4 <= |x| < 1, 17
#: digits and the point among them, and "e+ddd"
SLOTS = 29
SPLIT = 2.0**27 + 1  # Veltkamp's splitter: a double into two 26-bit halves
TIE = 1e-9           # a fraction this close to 1/2 takes the scalar formatter

LOWEST_EXPONENT = -281  # one past 1e-280, the first row of the layout table
RANK = np.arange(1, 18, dtype=np.uint8)[:, None]
SLOT = np.arange(18, dtype=np.uint8)[:, None]
UNITS = 10 ** np.arange(8, -1, -1, dtype=np.uint32)[:, None]


#: 10**(16 - e) per exponent e from LOWEST_EXPONENT up, rows (hi, lo, hi's
#: two Veltkamp halves), one table for the process: a column is filled the
#: first time a cell needs it (filling all 563 at once costs about 2.5 ms)
POWERS = np.full((4, 2 * -LOWEST_EXPONENT + 1), np.nan)


def _power_of_ten(k: int) -> tuple[float, float, float, float]:
    """10**k as hi + lo and hi's two Veltkamp halves: hi the double nearest
    it, lo the double nearest the rest (int true division rounds correctly)."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den
    n, d = hi.as_integer_ratio()
    t = hi * SPLIT
    big = t - (t - hi)
    return hi, (num * d - n * den) / (den * d), big, hi - big


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor and fraction of a * 10**(16 - e), each a >= 0 normal, to about
    1e-14 of the exact product."""
    i = e - LOWEST_EXPONENT
    for j in set(i[np.isnan(POWERS[0].take(i))].tolist()):
        POWERS[:, j] = _power_of_ten(16 - LOWEST_EXPONENT - j)
    hi, lo, hi_big, hi_small = POWERS.take(i, axis=1)
    del i
    a_big = a * SPLIT
    a_big -= a_big - a
    a_small = a - a_big
    p = a * hi
    err = (((a_big * hi_big - p) + a_big * hi_small + a_small * hi_big)
           + a_small * hi_small + a * lo)
    del hi, lo, hi_big, hi_small, a_big, a_small
    whole = np.floor(p)
    frac = p - whole + err
    carry = np.floor(frac)
    return whole.astype(np.int64) + carry.astype(np.int64), frac - carry


@functools.cache
def _exponent_layout() -> np.ndarray:
    """Per exponent e from LOWEST_EXPONENT up, 16 bytes: the 5 slots of the
    "0.000" prefix, the 5 of the "e+ddd" suffix, the digits before the point
    and 5 unused."""
    e = np.arange(LOWEST_EXPONENT, -LOWEST_EXPONENT + 1)
    fixed = (e >= -4) & (e < 17)
    below = fixed & (e < 0)
    power = ~fixed
    size = np.abs(e)
    table = np.zeros((16, len(e)), np.uint8)
    table[:11] = [
        below * 48, below * 46, (below & (e <= -2)) * 48, (below & (e <= -3)) * 48,
        (below & (e <= -4)) * 48,
        power * 101, power * np.where(e < 0, 45, 43),
        (power & (size >= 100)) * (48 + size // 100),
        power * (48 + size // 10 % 10), power * (48 + size % 10),
        np.where(fixed, np.maximum(e, -1), 0) + 1,
    ]
    return np.ascontiguousarray(table.T).view("V16").ravel()


def _scalar_cells(values: list) -> list[str]:
    return [format(v, ".17g") for v in values]


def _number_planes(x: np.ndarray, out: np.ndarray) -> None:
    """Write the %.17g text of each float64 in ``x`` down its column of the
    (SLOTS, len(x)) uint8 ``out``.  Each temporary, ``_scaled``'s too, is
    dropped once spent, so a CHUNK_ROWS column's scratch peaks near 400 KiB:
    at 860 KiB glibc gave it back to the system after each call in some heap
    layouts, and every call paid its page faults again."""
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _scaled(a, e)
    # log10 may miss the exponent by one next to a power of ten
    low, high = d < 10**16, d >= 10**17
    miss = np.flatnonzero(low | high)
    if miss.size:
        e[miss] += high[miss].astype(np.int64) - low[miss]
        d[miss], frac[miss] = _scaled(a[miss], e[miss])
    slow = np.abs(frac - 0.5) < TIE
    d += frac > 0.5
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    zero = x == 0
    slow |= ~(fast | zero)
    d[zero] = 0
    e[zero] = 0

    upper = (d // 10**8).astype(np.uint32)
    lower = (d - upper * np.int64(10**8)).astype(np.uint32)
    digits = np.zeros((19, len(x)), np.uint8)  # a 0 above and below the 17
    # a digit of a half is floor(half / 10**j) less 10 times the row above;
    # it lies in [0, 9], so the rows can hold them mod 256; the upper half
    # goes last, over the lower half's leading 0
    for half, rows in ((lower, slice(9, 18)), (upper, slice(1, 10))):
        digits[rows] = half // UNITS
        digits[rows][1:] -= digits[rows][:-1] * np.uint8(10)
    del a, d, frac, half, upper, lower  # spent: the digits hold them
    kept = (digits[1:18].astype(bool) * RANK).max(axis=0)  # significant digits
    digits[1:18] += 48
    layout = _exponent_layout().take(e - LOWEST_EXPONENT).view(np.uint8)
    layout = layout.reshape(-1, 16).T
    whole = layout[10].copy()                    # digits before the point
    digits[1:] *= SLOT < np.maximum(kept, whole)  # trailing zeros stripped
    np.multiply(np.signbit(x), np.uint8(45), out=out[0])  # "-"
    out[1:6] = layout[:5]
    # slot s holds digit s before the point slot, digit s - 1 after it
    np.copyto(out[6:24], digits[:-1])
    step = digits[1:] - digits[:-1]
    step *= SLOT < whole
    out[6:24] += step
    point = ((kept > whole) & (whole > 0)) * np.uint8(46)  # "." unless no fraction
    np.copyto(out[6:24], point, where=SLOT == whole)
    out[24:] = layout[5:10]

    slow = np.flatnonzero(slow)
    if slow.size:
        text = np.array(_scalar_cells(x[slow].tolist()), dtype=f"S{SLOTS}")
        out[:, slow] = text.view(np.uint8).reshape(-1, SLOTS).T


def _template_text(columns: list, rows: int) -> str:
    """The rows by one % call over a repeated row template."""
    row = ",".join("%s" if isinstance(col[0], str) else "%.17g" for col in columns)
    cells = [None] * (rows * len(columns))
    for j, col in enumerate(columns):
        cells[j::len(columns)] = col.tolist() if isinstance(col, np.ndarray) else col
    return (row + "\n") * rows % tuple(cells)


def _vector_pieces(columns: list, rows: int):
    """The rows, CHUNK_ROWS at a time, each column laid out in its planes and
    a function column asked for that chunk's cells; each chunk's planes are
    yielded as text EMIT_ROWS rows at a time."""
    cells, spans, width = [], [], 0
    for col in columns:
        if callable(col):
            size = SLOTS
        elif isinstance(col[0], str):
            col = np.array([cell.encode() for cell in col])
            size = col.itemsize
        else:
            col = np.asarray(col, dtype=np.float64)
            size = SLOTS
        cells.append(col)
        spans.append(slice(width, width + size))
        width += size + 1
    planes = np.zeros((width, min(rows, CHUNK_ROWS)), np.uint8)
    for span in spans:
        planes[span.stop] = ord(",")
    planes[-1] = ord("\n")
    for start in range(0, rows, CHUNK_ROWS):
        n = min(CHUNK_ROWS, rows - start)
        for col, span in zip(cells, spans):
            chunk = col(start, start + n) if callable(col) else col[start:start + n]
            if chunk.dtype == np.float64:
                _number_planes(chunk, planes[span, :n])
            else:
                planes[span, :n] = chunk.view(np.uint8).reshape(n, -1).T
        for i in range(0, n, EMIT_ROWS):
            yield (planes[:, i:min(i + EMIT_ROWS, n)].T.tobytes()
                   .translate(None, b"\0").decode())


def csv_pieces(header: list[str], columns: list):
    """The CSV text of equal-length columns under ``header``, yielded as str
    pieces: the header line, then the rows.  A column is a list or an array,
    or, after the first, a function of (start, stop) that returns the float64
    cells of those rows, asked for at most CHUNK_ROWS rows at a time and read
    before its next call.  A column whose first cell is a str is written as it
    is, any other as format(float(x), ".17g") of each cell."""
    yield ",".join(header) + "\n"
    rows = len(columns[0])
    if rows * len(columns) >= VECTOR_CELLS:
        yield from _vector_pieces(columns, rows)
    elif rows:
        yield _template_text([col(0, rows) if callable(col) else col for col in columns],
                             rows)
