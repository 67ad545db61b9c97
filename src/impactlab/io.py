"""File formats: tape/curve/kernel/frontier CSV and config/report JSON.

Every writer is atomic (unique temp file in the target directory + rename),
creates that directory when it is missing, and serializes floats with 17
significant digits, so identical inputs produce byte-identical files and
every format round-trips losslessly. Tape CSV carries columns
`n,epsilon,volume[,price]`; when prices are present the final price p_N
rides on a trailing row with empty epsilon and volume.

CSV text is `"%.17g" % x` (`"%d" % v` in an integer column) byte for byte,
made a column at a time in numpy: Dekker's two-product gives a double's 17
digits exactly. `%` itself formats the rest, from the original value: zeros,
NaN, infinities, exponents outside -4..16 or an ulp or so from a power of
ten, and integers that are zero, inexact or of magnitude 2**53 or more.

A tape is read a block of lines at a time, each cell as the integer D of its
digits with f of them after the point, and its double is the one float()
gives. Below 2**53, D / 10**f is one correctly rounded division. Above, a
candidate is accepted only when the writer's own 17 digits of it are the
cell's: 17 significant digits read back as the double they were written from
(Matula 1968). Any other cell is read by float() alone.
"""

import csv
import hashlib
import itertools
import json
import os
import tempfile
from contextlib import contextmanager

import numpy as np

from .exceptions import FormatError, InputError, ParameterError, ensure
from .impact import Kernel
from .estimators import ConditionalResponse, LagCurve
from .orderflow import SignSeries, TradeTape, VolumeSeries

__all__ = ["write_tape", "read_tape", "write_curve", "read_curve", "write_conditional",
           "read_conditional", "write_kernel", "read_kernel", "write_frontier",
           "write_json", "read_json", "config_sha256"]


# the temp files of the writes in progress, for a process stopped by a signal to remove
_TEMP_FILES = set()


def _atomic_write(path: str, chunks):
    """Write the text chunks to a fresh temp file beside `path`, creating its
    directory, then rename it over `path`; on any failure the temp file is
    removed and an existing target keeps its old bytes. The temp file is in
    _TEMP_FILES while it exists."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".")
    _TEMP_FILES.add(tmp)
    try:
        with open(fd, "w", newline="", encoding="utf-8") as fh:
            umask = os.umask(0)  # read the umask back: mkstemp creates mode 0600
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    finally:
        _TEMP_FILES.discard(tmp)


def _open_read(path: str, binary: bool = False):
    try:
        return open(path, "rb") if binary else open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _lines(fh):
    """The lines of a file opened by _open_read, or a FormatError naming the first
    line that is not UTF-8, found in the bytes: text decodes many lines at once."""
    try:
        yield from fh
    except UnicodeDecodeError:
        with open(fh.name, "rb") as raw:
            bad = next((i for i, line in enumerate(raw, 1)
                        if line.decode("utf-8", "ignore").encode() != line), None)
        raise FormatError(f"line {bad}: not UTF-8 text") from None


@contextmanager
def _rows():
    """A failed `ensure` over a file's rows, here or in the type built from them, as a
    FormatError naming its line: row i is on line i + 2. Other errors pass as they are."""
    try:
        yield
    except ParameterError as exc:
        if exc.row is None:
            raise
        raise FormatError(f"line {exc.row + 2}: {exc}") from None


# The CSV formats, one (header, kinds) spec each for writer and reader.
# Kinds: i exact integer, f float, o float or blank (NaN) where blank on
# every row reads as absent, t text (written only); d a number written as an
# integer and F a float, either blank or not, which the tape's rules check.
_TAPES = ((("n", "epsilon", "volume"), "ddF"),  # unpriced, priced
          (("n", "epsilon", "volume", "price"), "ddFf"))
_CURVE = (("lag", "value", "count", "se"), "ifio")
_CONDITIONAL = (("v_lo", "v_hi", "value", "count", "se"), "fffio")
_KERNEL = (("lag", "G", "se_proxy"), "ifo")
_FRONTIER = (("beta", "psi", "min_cost", "argmin_strategy"), "ffft")


def _split(v):
    """Dekker's split of doubles into high and low halves of 26 bits."""
    hi = v * 134217729.0  # 2**27 + 1
    hi -= hi - v
    return hi, v - hi


# "0000".."9999" as little-endian words: a word shifted right by 8j bits
# holds its digit j in its low byte
_QUADS = np.uint8(np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + 48).view("<u4")[:, 0]
_BYTE_SHIFTS = np.arange(0, 32, 8, dtype=np.uint32)[:, None]
_POW4 = 10 ** np.arange(16, -1, -4, dtype=np.int64)
_TENS = 10.0 ** np.arange(21)  # exact doubles


def _digit_cells(neg, d, e):
    """NUL-padded text, a row of bytes per position and a column per value:
    a minus where neg, the digits of d >= 0 from the first nonzero one, a point
    before the last e ("0." when it leads) and no zeros or point ending it."""
    width = len(str(d.max())) + 3 & -4  # the largest d's digits, in whole 4-digit words
    quads = _QUADS[d // _POW4[5 - width // 4:, None] % 10000]
    digits = (quads[:, None] >> _BYTE_SHIFTS).astype(np.uint8).reshape(width, -1)
    at = np.arange(width + 1, dtype=np.uint8)[:, None]  # byte indices: cheap masks
    nonzero = digits != 48
    first = width - (nonzero * (width - at[:-1])).max(axis=0)
    last = (nonzero * at[:-1]).max(axis=0)
    pt = np.asarray(width - e, np.uint8)  # the point's position
    cells = np.zeros((width + 3, d.size), np.uint8)
    cells[0] = np.where(neg, 45, 0)
    cells[1] = np.where(pt <= first, 48, 0)
    text = cells[2:]
    text[1:] = digits  # digits behind the point move one position on
    np.copyto(text[:-1], digits, where=at[:-1] < pt)
    text *= (at >= np.minimum(first, pt)) & (at <= np.maximum(last + 1, pt))
    text[pt, np.arange(d.size)] = np.where(last >= pt, 46, 0)
    return cells


def _digits(x):
    """(d, e, slow) of doubles x: the 17 digits d of |x| * 10**e as `%.17g`
    rounds them, where %g writes fixed notation, and the mask of the rest:
    zeros, NaN, inf and exponents outside -4..16, whose d, e are 10**16, 16."""
    a = np.abs(x)
    with np.errstate(divide="ignore"):  # log10(0): zeros are masked out
        k = np.floor(np.log10(a))
    slow = ~((k >= -4) & (k <= 16))
    a[slow], k[slow] = 1.0, 0.0  # stand-ins for the masked-out values
    e = 16 - k.astype(np.intp)
    # The 17 digits D of a * 10**e, rounded as % rounds, ties to even:
    # 10**e <= 10**20 is a double, Dekker's two-product gives the rounding
    # error err of the product p exactly, and p >= 2**53 is an even integer,
    # so p + rint(err) is p + err rounded.
    p = a * _TENS[e]
    (ah, al), (th, tl) = _split(a), _split(_TENS[e])
    err = ((ah * th - p) + ah * tl + al * th) + al * tl
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)
    # k is one off where log10 rounds across a power of ten, and D rounds up
    # to 10**17 only for such a k: % writes these few
    slow |= (d < 10**16) | (d >= 10**17)
    d[slow], e[slow] = 10**16, 16
    return d, e, slow


def _cells(kind, col):
    """A column's text in its kind's format, laid out as by _digit_cells.
    The array path writes `%d` of nonzero integers of magnitude below 2**53
    and `%.17g` of the doubles it writes in fixed notation; the rest (text,
    zeros, NaN, inf, exponents outside -4..16) is formatted by `%`, from the
    original value."""
    fmt = "%d" if kind in "id" else "%s" if kind == "t" else "%.17g"
    if kind == "t":
        cells, slow = np.zeros((0, col.size), np.uint8), np.ones(col.size, bool)
    elif kind in "id":
        slow = ~((col > -2**53) & (col < 2**53) & (col == np.trunc(col)) & (col != 0))
        cells = _digit_cells(col < 0, np.abs(np.where(slow, 1, col)).astype(np.int64), 0)
    else:
        d, e, slow = _digits(col)
        cells = _digit_cells(col < 0, d, e)
    rows = np.flatnonzero(slow)
    if rows.size:
        text = np.array([(fmt % v).encode() for v in col[rows].tolist()])
        text = text.view(np.uint8).reshape(rows.size, -1).T
        cells = np.pad(cells, ((0, max(len(text) - len(cells), 0)), (0, 0)))
        cells[:, rows] = 0
        cells[:len(text), rows] = text
    return cells


def _write_csv(path: str, header, kinds, columns, tail: str = ""):
    """CSV of equally long columns, then `tail`; a None column is left blank.
    Columns are formatted in bulk, 2**13 rows a chunk, which bounds the memory
    used and keeps a chunk's temporaries small enough to reuse the memory the
    last chunk freed, not fault fresh pages in; the text of a chunk is its byte
    matrix without the NUL padding."""
    cols = [(kind, None if col is None else np.asarray(col, np.float64 if kind in "fFo" else None))
            for kind, col in zip(kinds, columns)]
    n, step = len(next(col for _, col in cols if col is not None)), 1 << 13

    def chunk(lo):
        sep = np.full((1, min(step, n - lo)), 44, np.uint8)
        fields = [sep[:0] if col is None else _cells(kind, col[lo:lo + step]) for kind, col in cols]
        text = np.concatenate([f for field in fields for f in (field, sep)])
        text[-1] = 10
        return text.T.tobytes().translate(None, b"\0").decode()  # row after row

    _atomic_write(path, itertools.chain([",".join(header) + "\n"], map(chunk, range(0, n, step)),
                                        [tail]))


def _cell(s: str, name: str, kind: str, lineno: int) -> float:
    if s == "" and kind in "dFo":
        return np.nan
    try:
        x = float(s)
    except ValueError:
        raise FormatError(f"line {lineno}: {name} '{s}' is not a number") from None
    if kind == "i":
        from decimal import Decimal  # a 2 ms import, paid by files with integer columns

        # the text's exact value is its double, within 2**53, where every integer is one
        if not (x.is_integer() and abs(x) <= 2**53 and Decimal(s) == x):
            raise FormatError(f"line {lineno}: {name} '{s}' is not an exact integer")
    return x


def _read_columns(path: str, what: str, *specs):
    """The rows of a CSV in the spec its header names: one array per column,
    every cell checked per its kind, and the mask of blank cells, kept apart
    from cells that hold the text `nan`. An `i` column is int64; an `o`
    column blank on every row is None."""
    with _open_read(path) as fh:
        reader = csv.reader(_lines(fh))
        got = next(reader, None)
        header, kinds = next((spec for spec in specs if got == list(spec[0])), (got, None))
        if kinds is None:
            raise FormatError(f"line 1: bad header {got!r}")
        cells, blanks = [], []  # the cells row after row, the rows with blank cells
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise FormatError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            cells.extend(map(_cell, row, header, kinds, itertools.repeat(lineno)))
            if "" in row:  # few rows: the tape's final-price row, or an optional column
                blanks.append((lineno - 2, [s == "" for s in row]))
    if not cells:
        raise FormatError(f"line 2: {what} has no rows")
    cells = np.array(cells).reshape(-1, len(header))
    blank = np.zeros(cells.shape, dtype=bool)
    for i, row_blank in blanks:
        blank[i] = row_blank
    return [c.astype(np.int64) if kind == "i" else None if kind == "o" and b.all() else c.copy()
            for c, b, kind in zip(cells.T, blank.T, kinds)], blank


def write_tape(tape: TradeTape, path: str):
    """Tape CSV `n,epsilon,volume[,price]`; the trailing row holds p_N."""
    priced = tape.prices is not None
    cols = [np.arange(tape.n), tape.eps, tape.v] + ([tape.prices[:-1]] if priced else [])
    tail = "%d,,,%.17g\n" % (tape.n, tape.prices[-1]) if priced else ""
    _write_csv(path, *_TAPES[priced], cols, tail)


_BLOCK = 1 << 17  # bytes read at a time: a block is the whole lines among them
_PLAIN = b"0123456789-.,\n"  # the bytes of cells written in fixed notation
_WORDS = bytes(range(65, 91)) + bytes(range(97, 123)) + b"+"  # and those float() reads besides
_NL_TO_COMMA = bytes.maketrans(b"\n", b",")
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _proven(x, a, f):
    """Where the doubles x > 0, within two ulps of the cells a * 10**-f >= 2**53,
    have the cell's 17 digits: there s is -1, 0 or 1 and no product overflows."""
    d, e, slow = _digits(x)
    s = np.where(slow, 0, e - f)
    return ~slow & (a * _POW10[np.maximum(s, 0)] == d * _POW10[np.maximum(-s, 0)])


def _block_values(block: bytes, k: int):
    """The values of a block of whole lines of k cells each, bit for bit as
    float() reads the cells; ValueError where only the row parser can tell."""
    odd = block.translate(None, _PLAIN)
    if odd.translate(None, _WORDS):  # quotes, blanks, CR, '#', '_', non-ASCII: csv or
        raise ValueError("not a canonical tape")  # float() would read these otherwise
    b = np.frombuffer(block, np.uint8)
    # the byte after each cell: ',' and newline are the only bytes below '-' but '+'
    ends = np.flatnonzero((b == 44) | (b == 10) if b"+" in odd else b < 45)
    if ends.size % k or (b[ends].reshape(-1, k) != [44] * (k - 1) + [10]).any():
        raise ValueError("not a canonical tape")
    if odd:  # e-notation, nan or inf: float() reads every cell of the block
        return np.array([float(c) for c in block.translate(_NL_TO_COMMA).split(b",")[:-1]])
    points = np.flatnonzero(b == 46)
    cell = np.searchsorted(ends, points)
    f = np.zeros(ends.size, np.intp)  # the digits after the point
    f[cell] = ends[cell] - points - 1
    # D, the cell without its point. fromstring reads a trailing separator as
    # the end, saturates a number beyond int64 and rejects a minus inside a
    # number, but not one that a point hid: so D must have one value per
    # cell, and a cell of two points, ".-" or more than 18 digits is not read.
    D = np.fromstring(block.translate(_NL_TO_COMMA, b"."), np.int64, sep=",")
    if D.size != ends.size or (cell[1:] == cell[:-1]).any() or (b[points + 1] == 45).any():
        raise ValueError("not a canonical tape")
    digits = np.diff(ends, prepend=-1) - 1 - (D < 0)  # the cell's bytes but minus and point
    digits[cell] -= 1
    slow = (D == 0) | (digits > 18)  # the cells float() reads; zeros keep their sign there
    f[slow] = 0
    a = np.abs(D)
    x = a / _TENS[f]  # below 2**53 both are doubles: one rounding (Clinger)
    i = np.flatnonzero(~slow & (a >= 2**53))
    a, f, t = a[i], f[i], _TENS[f[i]]
    hi, lo = (a & -2048).astype(np.float64), (a & 2047).astype(np.float64)  # a = hi + lo
    q = hi / t
    p = q * t
    (qh, ql), (th, tl) = _split(q), _split(t)
    err = ((qh * th - p) + qh * tl + ql * th) + ql * tl  # q * t = p + err exactly
    q += ((hi - p) - err + lo) / t  # plus (a - q * t) / t: a double-double quotient
    x[i] = q
    slow[i[~_proven(q, a, f)]] = True  # float() reads a candidate not proven
    np.copysign(x, D, out=x)
    for c in np.flatnonzero(slow):
        x[c] = float(block[(ends[c - 1] + 1 if c else 0):ends[c]])
    return x


def _read_tape_bulk(fh):
    """What the row parser returns for a tape in canonical text, bit for bit,
    parsed a block of lines at a time from a binary file. ValueError for any
    other text, which it cannot vouch for."""
    k = {b"n,epsilon,volume\n": 3, b"n,epsilon,volume,price\n": 4}.get(fh.readline())
    start = fh.tell()
    rows = k and sum(np.count_nonzero(np.frombuffer(chunk, np.uint8) == 10)
                     for chunk in iter(lambda: fh.read(_BLOCK), b""))
    if not rows:
        raise ValueError("not a canonical tape")
    end = fh.tell()
    fh.seek(start)
    cols, r, rest, final = [np.empty(rows) for _ in range(k)], 0, b"", False
    for chunk in iter(lambda: fh.read(_BLOCK), b""):
        rest += chunk
        cut = rest.rfind(b"\n") + 1
        block, rest = rest[:cut], rest[cut:]
        if k == 4 and fh.tell() == end and not rest:  # the last line: a final-price row?
            cut = block.rfind(b"\n", 0, -1) + 1
            cells = block[cut:].split(b",")
            final = len(cells) == 4 and cells[1] == cells[2] == b""
            if final:  # read with epsilon and volume 1, blanked below
                block = block[:cut] + b",1,1,".join(cells[::3])
        x = _block_values(block, k)
        for j, c in enumerate(cols):
            c[r:r + x.size // k] = x[j::k]
        r += x.size // k
    if rest or r != rows:  # text after the last newline, or a file that changed
        raise ValueError("not a canonical tape")
    blank = np.zeros((rows, k), dtype=bool)
    blank[-1, 1:3] = final
    if final:
        cols[1][-1] = cols[2][-1] = np.nan
    return cols, blank


def _tape(cols, blank) -> TradeTape:
    """The tape of parsed columns; each rule broken names the first line that breaks it."""
    n, eps, vol, *price = cols
    m = n.size - len(price)  # trades: a priced tape ends in its final-price row
    with _rows():
        ensure(n == np.arange(n.size), "n must be consecutive from 0")
        if price:
            final = blank[:, 1] & blank[:, 2]  # epsilon and volume blank
            ensure(~np.append(False, final[:-1]), "rows after the final-price row")
            # the line after the last one, where the final-price row is missing
            ensure(np.append(np.ones(n.size, bool), final[-1]), "missing trailing final-price row")
            ensure(~final[:1], "tape has no trades")  # every row of an unpriced tape is one
        return TradeTape(SignSeries(eps[:m]), VolumeSeries(vol[:m]),
                         prices=price[0] if price else None)


def read_tape(path: str) -> TradeTape:
    """Canonical text is parsed in bulk, any other row by row; the same
    rules check the columns of either."""
    with _open_read(path, binary=True) as fh:
        try:
            parsed = _read_tape_bulk(fh)
        except ValueError:
            parsed = None
    return _tape(*(parsed or _read_columns(path, "tape", *_TAPES)))


def write_curve(curve: LagCurve, path: str):
    """Lag-curve CSV `lag,value,count,se` (se blank when absent)."""
    _write_csv(path, *_CURVE, [curve.lags, curve.values, curve.counts, curve.se])


def read_curve(path: str, role_tag: str) -> LagCurve:
    (lags, vals, cnts, se), _ = _read_columns(path, "curve", _CURVE)
    with _rows():
        return LagCurve(lags, vals, cnts, role_tag, se)


def write_conditional(curve: ConditionalResponse, path: str):
    """Volume-binned response CSV `v_lo,v_hi,value,count,se`."""
    _write_csv(path, *_CONDITIONAL, [curve.bin_lo, curve.bin_hi, curve.values, curve.counts,
                                     curve.se])


def read_conditional(path: str) -> ConditionalResponse:
    (lo, hi, vals, cnts, se), _ = _read_columns(path, "curve", _CONDITIONAL)
    with _rows():
        return ConditionalResponse(lo, hi, vals, cnts, se)


def write_kernel(kernel: Kernel, path: str, se_proxy=None):
    """Kernel CSV `lag,G,se_proxy` of a tabulated kernel's table."""
    ensure(kernel.form == "tabulated", "only a tabulated kernel can be written")
    _write_csv(path, *_KERNEL, [np.arange(1, kernel.values.size + 1), kernel.values, se_proxy])


def read_kernel(path: str):
    """Returns (Kernel.tabulated, se_proxy array or None)."""
    (lags, g, se), _ = _read_columns(path, "kernel", _KERNEL)
    with _rows():
        ensure(lags == np.arange(1, lags.size + 1), "lags must be consecutive from 1")
        return Kernel.tabulated(g), se


def write_frontier(rows, path: str):
    """Frontier CSV `beta,psi,min_cost,argmin_strategy`; the strategy is
    slot:volume pairs joined by ';' (empty for the empty strategy)."""
    args = [";".join("%d:%.17g" % (s, q) for s, q in r["argmin"] or ()) for r in rows]
    _write_csv(path, *_FRONTIER, [[r[k] for r in rows] for k in ("beta", "psi", "min_cost")]
               + [args])


def _json_default(obj):
    """numpy scalars and arrays as the Python values they hold."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dumps(obj, **layout) -> str:
    """The JSON of every file written and of the config hash."""
    return json.dumps(obj, sort_keys=True, default=_json_default, **layout)


def write_json(obj, path: str):
    _atomic_write(path, [_dumps(obj, indent=2) + "\n"])


def read_json(path: str) -> dict:
    try:
        with _open_read(path) as fh:
            obj = json.loads("".join(_lines(fh)))
    except (json.JSONDecodeError, FormatError) as exc:
        raise ParameterError(f"invalid JSON in {path}: {exc}") from None
    ensure(isinstance(obj, dict), f"{path}: top-level JSON must be an object")
    return obj


def config_sha256(config_dict: dict) -> str:
    """Hash of the canonical JSON encoding; the provenance key tying every
    numeric output back to its configuration."""
    blob = _dumps(config_dict, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
