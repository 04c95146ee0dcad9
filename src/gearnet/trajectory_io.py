"""Trajectory output: the CSV format of a simulated trajectory.

One header line, then one row per time point of
`t,<shaft>.omega,<shaft>.alpha[,<element>.tau_<port>]`, every number the
text of ``"%.17g"``.  :func:`write_trajectory_csv` writes it, in chunks
of rows, and :func:`_format_cells` builds the ``%.17g`` text of a block
of cells in numpy.

The trajectory's type lives in :mod:`gearnet.dynamics`, which imports
this module; the import here is for annotations only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .dynamics import Trajectory
    from .mechanism import MechanismGraph


def _port_rows(graph: MechanismGraph) -> list[tuple[str, str, int, float]]:
    """(element, port, element row, coefficient) of every port, in graph order."""
    return [
        (e.name, port, row, coeff)
        for row, e in enumerate(graph.elements)
        for port, _, coeff in e.row()
    ]


# cells per chunk of a CSV write (at least one row per chunk): the span
# over which repeated values are found, and the cells _format_cells
# formats per call.  Larger chunks raise the peak RSS; smaller ones pay
# the formatter's per-call overhead more often.
_CSV_CELLS = 8192


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write `t,<shaft>.omega,<shaft>.alpha[,<element>.tau_<port>]` rows.

    Shafts, elements and ports appear in graph order.  The port torque
    columns are written when the scenario's ``record_torques`` is set; each
    is the product :meth:`Trajectory.port_torque` takes.  Numbers carry 17
    significant digits, the text of ``"%.17g"``, so the file round-trips
    floats exactly and reruns produce bit-identical output.

    The rows go out in chunks of about ``_CSV_CELLS`` cells (at least one
    row), so memory is bounded by one chunk, and a chunk's bytes depend
    on that chunk alone.  Every cell's text comes from
    :func:`_format_cells`.  A steady run repeats most of its values (the
    canonical equal-load run has 3.7 % distinct cells), so a chunk in
    which at most half the cells are distinct formats each distinct value
    once and looks every cell up by its bit pattern.  Keys are bit
    patterns, never floats: float equality would merge -0.0 with 0.0 and
    write "0" for "-0".  Other chunks format every cell at once.  The
    rule is a cost model, not a setting; either path writes the same
    bytes.
    """
    headers = ["t"]
    for name in traj.shaft_names:
        headers += [f"{name}.omega", f"{name}.alpha"]
    ports = _port_rows(traj.scenario.graph) if traj.scenario.options.record_torques else []
    headers += [f"{element}.tau_{port}" for element, port, _, _ in ports]
    rows_of_a = [row for _, _, row, _ in ports]
    coeffs = np.array([coeff for _, _, _, coeff in ports])
    chunk = max(1, _CSV_CELLS // len(headers))
    with open(path, "wb") as fh:
        fh.write((",".join(headers) + "\n").encode("utf-8"))
        for a in range(0, len(traj.t), chunk):
            rows = slice(a, a + chunk)
            t = traj.t[rows]
            # one line of the block per CSV column, in header order: t, the
            # omega and alpha of each shaft in turn, then the port torques
            shafts = np.stack((traj.omega[rows].T, traj.alpha[rows].T), axis=1)
            torques = traj.multipliers[rows][:, rows_of_a] * coeffs
            block = np.concatenate([t[None], shafts.reshape(-1, len(t)), torques.T])
            bits = block.view(np.int64)
            keys = np.sort(bits, axis=None)
            distinct = keys[np.append(True, keys[1:] != keys[:-1])]
            if 2 * distinct.size > keys.size:
                fh.write(_format_cells(block.T))
                continue
            # the distinct values as one row of _format_cells, newline dropped
            text = _format_cells(distinct.view(np.float64)[None])[:-1].decode("ascii")
            cells = np.array(text.split(","), dtype=object)[np.searchsorted(distinct, bits)]
            fh.write(("\n".join(map(",".join, zip(*cells.tolist()))) + "\n").encode("ascii"))


# _format_cells formats |x| in [1e-200, 1e200] itself: beyond, 10**(16 - E)
# or its product with _SPLITTER would overflow.  Its tables hold the
# exponents E in [-_E_BIAS, _E_BIAS], at index E + _E_BIAS.
_FAST_MIN, _FAST_MAX = 1e-200, 1e200
_E_BIAS = 256
_SPLITTER = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
# byte offsets in the _ROW-byte source row of a cell: digit 0, then the
# sign ("-" or NUL), "." and "0"; digits 1-16; the exponent's sign and
# two or three digits (NUL-padded); "e", the cell's delimiter, and NUL
_ROW = 28
_DIGITS = [0] + list(range(4, 20))
_SIGN, _POINT, _ZERO, _EXP, _E, _DELIM, _NUL = 1, 2, 3, 20, 24, 25, 26
_WIDTH = 25  # the longest cell: "-d.dddddddddddddddde-ddd,"
_EXP_CLASS = 21  # notation classes 0-20 are fixed with E = class - 4
_ASSEMBLE = 1024  # cells per flat take: its index is 200 bytes a cell


def _template(key: int) -> list[int]:
    """The source byte offsets of one cell's text, NUL-padded to _WIDTH.

    ``key`` is 17 * notation class + significant digits - 1.  As "%.17g"
    does, a cell is written fixed when -4 <= E < 17 and in exponent form
    otherwise, without trailing zeros after the point, and without the
    point when no digit follows it.
    """
    notation, digits = divmod(key, 17)
    digits += 1
    e = notation - 4
    if notation == _EXP_CLASS:
        fraction = _DIGITS[1:digits]
        exponent = [_E, _EXP, _EXP + 1, _EXP + 2, _EXP + 3]
        pos = [_SIGN, 0] + ([_POINT] + fraction if fraction else []) + exponent
    elif e >= 0:
        fraction = _DIGITS[e + 1 : digits]
        pos = [_SIGN] + _DIGITS[: e + 1] + ([_POINT] + fraction if fraction else [])
    else:
        pos = [_SIGN, _ZERO, _POINT] + [_ZERO] * (-e - 1) + _DIGITS[:digits]
    pos.append(_DELIM)
    return pos + [_NUL] * (_WIDTH - len(pos))


def _pow10(key: int) -> tuple[float, float, float, float]:
    """10**(16 - E), E = key - _E_BIAS, as a double-double hi + lo, and the
    two 26-bit halves of hi.  Exact rational arithmetic on ints:
    ``int / int`` and ``float(int)`` round correctly."""
    k = 16 - (key - _E_BIAS)
    if k >= 0:
        hi = float(10**k)
        lo = float(10**k - int(hi))
    else:
        den = 10**-k
        hi = 1 / den
        num, two = hi.as_integer_ratio()  # hi = num / two, two a power of 2
        lo = (two - num * den) / (two * den)
    c = hi * _SPLITTER
    big = c - (c - hi)
    return hi, lo, big, hi - big


class _CellTables:
    """Lookup tables of _format_cells, built whole on its first call."""

    def __init__(self):
        # text as the integer its bytes read little-endian, as _source
        # stores it; int32 and int8, the types _source computes in
        p = np.arange(100, dtype=np.int32)
        tens = p // 10
        units = p - tens * 10
        pair = tens + units * 2**8 + 48 * 257  # "00" to "99"
        self.group = (pair[:, None] + pair * 2**16).ravel()  # "0000" to "9999"
        # trailing zeros of the four-digit text; "0000" counts 4
        zeros = (units == 0).astype(np.int8) + (p == 0)
        self.trailing = (zeros + (p == 0) * zeros[:, None]).ravel()
        # by E + _E_BIAS: 10**(16 - E) as four doubles (see _pow10), and the
        # exponent's text, "+05" or "-123"
        keys = range(2 * _E_BIAS + 1)
        self.pow10 = np.array([_pow10(k) for k in keys]).T.copy()
        self.exponent = np.array([int.from_bytes(b"%+03d" % (k - _E_BIAS), "little") for k in keys])
        self.templates = np.array([_template(k) for k in range(22 * 17)], np.intp)

    def scaled(self, a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """floor(a * 10**(16 - e)) as int64, and the fraction above it.

        The product is Dekker's exact two-product of a and hi, plus a * lo:
        its error is below 1e-14, against a tie margin of 1e-7.
        """
        key = e + _E_BIAS
        hi, lo, hi_big, hi_small = self.pow10
        p = a * hi.take(key)
        big = a * _SPLITTER
        big -= big - a
        small = a - big
        # r = ((big * hi_big - p) + big * hi_small + small * hi_big)
        #     + small * hi_small + a * lo, summed in this order, in place
        hi_big = hi_big.take(key)
        r = big * hi_big
        r -= p
        hi_small = hi_small.take(key)
        r += big * hi_small
        r += small * hi_big
        r += small * hi_small
        r += a * lo.take(key)
        y = p.astype(np.int64)
        f = np.floor(r, out=p)
        y += f.astype(np.int64)
        r -= f
        return y, r


# built on the first call of _format_cells, so that importing gearnet
# builds nothing; what the tables hold never depends on what was formatted
_cell_tables: _CellTables | None = None


def _format_cells(block: np.ndarray) -> bytes:
    """The text of each cell of a (rows, columns) float block, as
    ``"%.17g"`` gives it, cells joined by "," and each row ended by a newline.

    Each cell's 17 significant digits D and exponent E, |x| = D * 10**(E - 16)
    rounded to nearest, come from E = floor(log10 |x|) corrected once and
    an exact scaling by a double-double power of ten (Dekker 1971).  The
    digits, sign, point and exponent of a cell are laid out in a source
    row of bytes, and a template per notation and digit count picks the
    cell's text from it in one flat ``take`` into NUL-padded rows; the
    NULs are then dropped.  Zeros are written directly.  A cell that is
    not finite, has |x| outside [1e-200, 1e200], or lies within 1e-7 of a
    rounding tie takes ``"%.17g" %`` itself.
    """
    global _cell_tables
    if _cell_tables is None:
        _cell_tables = _CellTables()
    tables = _cell_tables
    cols = block.shape[1]
    x = block.ravel()
    d, e, special = _digits(x, tables)
    src, key = _source(x, d, e, cols, tables)
    del d, e  # freed before the assembly allocates
    # the flat take, a slice of cells at a time
    n = x.size
    out = np.empty((n, _WIDTH), np.uint8)
    flat = src.view(np.uint8).ravel()
    for a in range(0, n, _ASSEMBLE):
        index = tables.templates.take(key[a : a + _ASSEMBLE], axis=0)
        index += np.arange(_ROW * a, _ROW * min(a + _ASSEMBLE, n), _ROW)[:, None]
        flat.take(index, out=out[a : a + _ASSEMBLE])
    if special.any():
        # NUL-padded before the delimiter, in the last byte of the row
        i = np.flatnonzero(special)
        text = b"".join((b"%.17g" % v).ljust(_WIDTH - 1, b"\0") for v in x[i].tolist())
        out[i, :-1] = np.frombuffer(text, np.uint8).reshape(len(i), _WIDTH - 1)
        out[i, -1] = np.where(i % cols == cols - 1, ord("\n"), ord(","))
    return out.tobytes().translate(None, b"\0")


def _digits(x: np.ndarray, tables: _CellTables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, E, special) of each cell: its 17 significant digits D as an
    integer, |x| = D * 10**(E - 16) rounded to nearest, and whether the cell
    must take ``%`` instead.  Zeros get D = 0 and E = 0."""
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    zero = a == 0
    a[~fast] = 1.0
    log = np.log10(a)
    e = np.floor(log, out=log).astype(np.int64)
    y, frac = tables.scaled(a, e)
    off = (y < 10**16) | (y >= 10**17)  # log10 rounded across a power of ten
    if off.any():
        i = np.flatnonzero(off)
        e[i] += np.where(y[i] < 10**16, -1, 1)
        y[i], frac[i] = tables.scaled(a[i], e[i])
        fast[i[(y[i] < 10**16) | (y[i] >= 10**17)]] = False
    fast &= np.abs(frac - 0.5) >= 1e-7
    y += frac > 0.5
    up = y == 10**17  # 99999999999999999.5 rounds to 1e17: one digit more
    y[up] = 10**16
    e += up
    y[zero] = 0
    e[zero] = 0
    return y, e, ~fast & ~zero


def _source(
    x: np.ndarray, d: np.ndarray, e: np.ndarray, cols: int, tables: _CellTables
) -> tuple[np.ndarray, np.ndarray]:
    """The source row of each cell and the key of its template."""
    n = x.size
    src = np.empty((n, _ROW // 4), "<u4")
    # the 17 digits: digit 0, then four groups of four, in int32 past the
    # first split
    top = d // 10**8
    bottom = (d - top * 10**8).astype(np.int32)
    top = top.astype(np.int32)
    d0 = top // 10**8
    mid = top - d0 * 10**8
    g1 = mid // 10**4
    g2 = mid - g1 * 10**4
    g3 = bottom // 10**4
    g4 = bottom - g3 * 10**4
    zeros_of = tables.trailing.take
    t = zeros_of(g4)
    t += (g4 == 0) * (zeros_of(g3) + (g3 == 0) * (zeros_of(g2) + (g2 == 0) * zeros_of(g1)))
    src[:, 0] = (d0 + 0x302E0030) | (np.signbit(x) * 0x2D00)  # digit 0, sign, ".", "0"
    for word, g in enumerate((g1, g2, g3, g4), start=1):
        src[:, word] = tables.group.take(g)
    src[:, 5] = tables.exponent.take(e + _E_BIAS)
    src[:, 6] = 0x2C65  # "e", ","
    src[cols - 1 :: cols, 6] = 0x0A65  # "e", newline
    notation = np.where((e >= -4) & (e < 17), e + 4, _EXP_CLASS)
    return src, notation * 17 + (16 - t)
