"""File formats: tape/curve/kernel/frontier CSV and config/report JSON.

Every writer is atomic (unique temp file in the target directory + rename),
creates that directory when it is missing, and serializes floats with 17
significant digits, so identical inputs produce byte-identical files and
every format round-trips losslessly. Tape CSV carries columns
`n,epsilon,volume[,price]`; when prices are present the final price p_N
rides on a trailing row with empty epsilon and volume.
"""

import csv
import hashlib
import itertools
import json
import os
import tempfile

import numpy as np

from .exceptions import FormatError, InputError, ParameterError
from .impact import Kernel
from .estimators import ConditionalResponse, LagCurve
from .orderflow import SignSeries, TradeTape, VolumeSeries

__all__ = ["write_tape", "read_tape", "write_curve", "read_curve", "write_conditional",
           "read_conditional", "write_kernel", "read_kernel", "write_frontier",
           "write_json", "read_json", "config_sha256"]


def _atomic_write(path: str, chunks):
    """Write the text chunks to a fresh temp file beside `path`, creating its
    directory, then rename it over `path`; on any failure the temp file is
    removed and an existing target keeps its old bytes."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".")
    try:
        with open(fd, "w", newline="") as fh:
            umask = os.umask(0)  # read the umask back: mkstemp creates mode 0600
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _open_read(path: str):
    try:
        return open(path, newline="")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _require(ok, rule: str, first: int = 2):
    """FormatError naming the first line where `ok` fails; row i of `ok`
    stands on line first + i."""
    if not np.all(ok):
        raise FormatError(f"line {first + int(np.argmin(ok))}: {rule}")


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


def _write_csv(path: str, header, kinds, columns, tail: str = ""):
    """CSV of equally long columns, then `tail`; a None column is left blank.
    One row format serves every row, 2**16 rows per chunk, which bounds the
    memory used."""
    row = ",".join("" if col is None else "%d" if kind in "id" else "%s" if kind == "t"
                   else "%.17g" for kind, col in zip(kinds, columns)) + "\n"
    cols = [np.asarray(col, dtype=np.float64 if kind in "fFo" else None)
            for kind, col in zip(kinds, columns) if col is not None]
    step = 1 << 16
    chunks = ("".join(row % r for r in zip(*(c[lo:lo + step].tolist() for c in cols)))
              for lo in range(0, len(cols[0]), step))
    _atomic_write(path, itertools.chain([",".join(header) + "\n"], chunks, [tail]))


def _cell(s: str, name: str, kind: str, lineno: int) -> float:
    if s == "" and kind in "dFo":
        return np.nan
    try:
        x = float(s)
    except ValueError:
        raise FormatError(f"line {lineno}: {name} '{s}' is not a number") from None
    # beyond 2**53 a float is not exact
    if kind == "i" and not (x.is_integer() and abs(x) <= 2**53):
        raise FormatError(f"line {lineno}: {name} '{s}' is not an exact integer")
    return x


def _read_columns(path: str, what: str, *specs):
    """The rows of a CSV in the spec its header names: one array per column,
    every cell checked per its kind, and the mask of blank cells, kept apart
    from cells that hold the text `nan`. An `i` column is int64; an `o`
    column blank on every row is None."""
    with _open_read(path) as fh:
        reader = csv.reader(fh)
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


def _read_tape_bulk(fh):
    """What the row parser returns for a tape in canonical text, bit for
    bit, parsed in bulk: both convert with the interpreter's float parsing.
    ValueError for any other text, which it cannot vouch for."""
    header = fh.readline()
    priced = header == "n,epsilon,volume,price\n"
    start, body = fh.tell(), fh.read()
    last = body[body.rfind("\n", 0, -1) + 1:-1].split(",")
    final = priced and len(last) == 4 and last[1] == last[2] == ""  # the final-price row
    rows = body.count("\n")
    # csv also ends lines at '\r' and reads empty lines, which loadtxt skips
    if (not priced and header != "n,epsilon,volume\n") or rows - final < 1 or "\r" in body \
            or "\n\n" in body or body[0] == "\n" or body[-1] != "\n":
        raise ValueError("not a canonical tape")
    del body  # free the text before parsing
    fh.seek(start)
    cells = np.loadtxt(fh, delimiter=",", comments=None, max_rows=rows - final, ndmin=2)
    if cells.shape != (rows - final, 3 + priced):
        raise ValueError("not a canonical tape")
    tail = [[float(last[0])], [np.nan], [np.nan], [float(last[3])]] if final else [[]] * 4
    blank = np.zeros((rows, 3 + priced), dtype=bool)
    blank[-1, 1:3] = final
    return [np.append(c, t) for c, t in zip(cells.T, tail)], blank


def _tape(cols, blank) -> TradeTape:
    """The tape of parsed columns, checked against the format's rules, each
    naming the first line that breaks it."""
    n, eps, vol, *price = cols
    m = n.size - len(price)  # trades: a priced tape ends in its final-price row
    _require(n == np.arange(n.size), "n must be consecutive from 0")
    if price:
        final = blank[:, 1] & blank[:, 2]  # epsilon and volume blank
        _require(~final[:-1], "rows after the final-price row", 3)
        _require(final[-1:], "missing trailing final-price row", n.size + 2)
    if m < 1:
        raise FormatError("line 2: tape has no trades")
    _require(np.abs(eps[:m]) == 1, "epsilon must be -1 or 1")
    _require((vol[:m] > 0) & np.isfinite(vol[:m]), "volume must be positive and finite")
    return TradeTape(SignSeries(eps[:m]), VolumeSeries(vol[:m]), prices=price[0] if price else None)


def read_tape(path: str) -> TradeTape:
    """Canonical text is parsed in bulk, any other row by row; the same
    rules check the columns of either."""
    with _open_read(path) as fh:
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
    return LagCurve(lags, vals, cnts, role_tag, se)


def write_conditional(curve: ConditionalResponse, path: str):
    """Volume-binned response CSV `v_lo,v_hi,value,count,se`."""
    _write_csv(path, *_CONDITIONAL, [curve.bin_lo, curve.bin_hi, curve.values, curve.counts,
                                     curve.se])


def read_conditional(path: str, T: int = 1) -> ConditionalResponse:
    """The lag T is not part of the CSV; pass the value recorded alongside
    (fits/meta JSON) when it matters."""
    (lo, hi, vals, cnts, se), _ = _read_columns(path, "curve", _CONDITIONAL)
    return ConditionalResponse(lo, hi, vals, cnts, T, se)


def write_kernel(kernel: Kernel, path: str, se_proxy=None):
    """Kernel CSV `lag,G,se_proxy` of a tabulated kernel's table."""
    if kernel.form != "tabulated":
        raise ParameterError("only a tabulated kernel can be written")
    _write_csv(path, *_KERNEL, [np.arange(1, kernel.values.size + 1), kernel.values, se_proxy])


def read_kernel(path: str):
    """Returns (Kernel.tabulated, se_proxy array or None)."""
    (lags, g, se), _ = _read_columns(path, "kernel", _KERNEL)
    _require(lags == np.arange(1, lags.size + 1), "lags must be consecutive from 1")
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
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ParameterError(f"{path}: top-level JSON must be an object")
    return obj


def config_sha256(config_dict: dict) -> str:
    """Hash of the canonical JSON encoding; the provenance key tying every
    numeric output back to its configuration."""
    blob = _dumps(config_dict, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
