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


def write_tape(tape: TradeTape, path: str):
    """Tape CSV `n,epsilon,volume[,price]`; the trailing row holds p_N."""
    priced = tape.prices is not None
    cols = [tape.eps, tape.v] + ([tape.prices] if priced else [])
    row = "%d,%d" + ",%.17g" * (len(cols) - 1) + "\n"
    step = 1 << 16  # rows formatted per chunk, which bounds the memory used
    chunks = ("".join(row % r for r in zip(range(lo, min(lo + step, tape.n)),
                                           *(c[lo:lo + step].tolist() for c in cols)))
              for lo in range(0, tape.n, step))
    head = "n,epsilon,volume" + (",price" if priced else "") + "\n"
    tail = ["%d,,,%.17g\n" % (tape.n, tape.prices[-1])] if priced else []
    _atomic_write(path, itertools.chain([head], chunks, tail))


def _parse_float(s: str, lineno: int, what: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise FormatError(f"line {lineno}: {what} '{s}' is not a number") from None


def _parse_int(s: str, lineno: int, what: str) -> int:
    x = _parse_float(s, lineno, what)
    if not x.is_integer() or abs(x) > 2**53:  # beyond 2**53 a float is not exact
        raise FormatError(f"line {lineno}: {what} '{s}' is not an exact integer")
    return int(x)


def _read_tape_bulk(fh):
    """Parse a tape in bulk, raising ValueError for any file it cannot vouch
    for. It accepts only files the row validator accepts, with bit-equal
    arrays: both parse with the interpreter's float conversion."""
    header = fh.readline()
    has_price = header == "n,epsilon,volume,price\n"
    start, body = fh.tell(), fh.read()
    n = body.count("\n") - has_price
    # csv also ends lines at '\r' and reads empty lines, which loadtxt skips
    if (not has_price and header != "n,epsilon,volume\n") or n < 1 or "\r" in body \
            or "\n\n" in body or body[0] == "\n" or body[-1] != "\n":
        raise ValueError("not a canonical tape")
    del body  # free the text before parsing
    fh.seek(start)
    cols = np.loadtxt(fh, delimiter=",", comments=None, max_rows=n, ndmin=2)
    final = fh.read()[:-1].split(",")  # the final-price row, if any
    if not (cols.shape == (n, 3 + has_price)
            and final == ([str(n), "", "", final[-1]] if has_price else [""])
            and np.array_equal(cols[:, 0], np.arange(n)) and np.all(np.abs(cols[:, 1]) == 1.0)
            and np.all((cols[:, 2] > 0) & np.isfinite(cols[:, 2]))):
        raise ValueError("tape fails a check")
    prices = np.append(cols[:, 3], float(final[3])) if has_price else None
    return cols[:, 1].copy(), cols[:, 2].copy(), prices


def _read_tape_rows(fh):
    """Row-by-row validator: the reference reader, and the one that names
    the offending line of a malformed tape."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("line 1: empty file") from None
    if header[:3] != ["n", "epsilon", "volume"] or header[3:] not in ([], ["price"]):
        raise FormatError(f"line 1: bad header {header!r}")
    has_price = len(header) == 4
    eps, vol, prices = [], [], []
    final_price_seen = False
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise FormatError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        if final_price_seen:
            raise FormatError(f"line {lineno}: rows after the final-price row")
        n_val = _parse_float(row[0], lineno, "n")
        if n_val != len(eps):
            raise FormatError(f"line {lineno}: n must be consecutive from 0, got {row[0]}")
        if has_price and row[1] == "" and row[2] == "":
            prices.append(_parse_float(row[3], lineno, "price"))
            final_price_seen = True
            continue
        e = _parse_float(row[1], lineno, "epsilon")
        if e not in (-1.0, 1.0):
            raise FormatError(f"line {lineno}: epsilon must be -1 or 1, got {row[1]}")
        v = _parse_float(row[2], lineno, "volume")
        if not v > 0 or not np.isfinite(v):
            raise FormatError(f"line {lineno}: volume must be positive and finite")
        eps.append(e)
        vol.append(v)
        if has_price:
            prices.append(_parse_float(row[3], lineno, "price"))
    if not eps:
        raise FormatError("line 2: tape has no trades")
    if has_price and not final_price_seen:
        raise FormatError(f"line {len(eps) + 2}: missing trailing final-price row")
    return np.array(eps), np.array(vol), np.array(prices) if has_price else None


def read_tape(path: str) -> TradeTape:
    with _open_read(path) as fh:
        try:
            cols = _read_tape_bulk(fh)
        except ValueError:  # the row validator reads it, naming any bad line
            fh.seek(0)
            cols = None
        eps, vol, prices = cols if cols is not None else _read_tape_rows(fh)
    return TradeTape(SignSeries(eps), VolumeSeries(vol), prices=prices)


# The small formats, one (header, kinds) spec each for writer and reader.
# Kinds: i exact integer, s integer consecutive from 1, f float, o float or
# blank (NaN; all blank reads as absent), t text (written only).
_CURVE = (("lag", "value", "count", "se"), "ifio")
_CONDITIONAL = (("v_lo", "v_hi", "value", "count", "se"), "fffio")
_KERNEL = (("lag", "G", "se_proxy"), "sfo")
_FRONTIER = (("beta", "psi", "min_cost", "argmin_strategy"), "ffft")


def _write_columns(path: str, header, kinds, *columns):
    """CSV of equally long columns; None writes a blank optional column."""
    cells = [[""] * len(columns[0]) if col is None else col if kind == "t"
             else [str(int(x)) for x in col] if kind in "is"
             else ["%.17g" % x for x in np.asarray(col, dtype=np.float64).tolist()]
             for kind, col in zip(kinds, columns)]
    lines = [",".join(header), *map(",".join, zip(*cells, strict=True))]
    _atomic_write(path, ["\n".join(lines) + "\n"])


def _read_columns(path: str, header, kinds, what: str) -> list:
    """One array per column, every value checked per its kind; the last
    (optional) column is None when every row leaves it blank."""
    cols = [[] for _ in header]
    with _open_read(path) as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != list(header):
            raise FormatError(f"line 1: bad header {got!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise FormatError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            for col, name, kind, s in zip(cols, header, kinds, row):
                if kind in "fo":
                    col.append(np.nan if kind == "o" and s == "" else _parse_float(s, lineno, name))
                    continue
                col.append(_parse_int(s, lineno, name))
                if kind == "s" and col[-1] != len(col):
                    raise FormatError(f"line {lineno}: lags must be consecutive from 1")
    if not cols[0]:
        raise FormatError(f"line 2: {what} has no rows")
    arrays = [np.array(c) for c in cols]
    return arrays[:-1] + [None if np.all(np.isnan(arrays[-1])) else arrays[-1]]


def write_curve(curve: LagCurve, path: str):
    """Lag-curve CSV `lag,value,count,se` (se blank when absent)."""
    _write_columns(path, *_CURVE, curve.lags, curve.values, curve.counts, curve.se)


def read_curve(path: str, role_tag: str) -> LagCurve:
    lags, vals, cnts, se = _read_columns(path, *_CURVE, "curve")
    return LagCurve(lags, vals, cnts, role_tag, se)


def write_conditional(curve: ConditionalResponse, path: str):
    """Volume-binned response CSV `v_lo,v_hi,value,count,se`."""
    _write_columns(path, *_CONDITIONAL, curve.bin_lo, curve.bin_hi, curve.values,
                   curve.counts, curve.se)


def read_conditional(path: str, T: int = 1) -> ConditionalResponse:
    """The lag T is not part of the CSV; pass the value recorded alongside
    (fits/meta JSON) when it matters."""
    lo, hi, vals, cnts, se = _read_columns(path, *_CONDITIONAL, "curve")
    return ConditionalResponse(lo, hi, vals, cnts, T, se)


def write_kernel(kernel: Kernel, path: str, se_proxy=None):
    """Kernel CSV `lag,G,se_proxy` of a tabulated kernel's table."""
    if kernel.form != "tabulated":
        raise ParameterError("only a tabulated kernel can be written")
    _write_columns(path, *_KERNEL, np.arange(1, kernel.values.size + 1), kernel.values,
                   se_proxy)


def read_kernel(path: str):
    """Returns (Kernel.tabulated, se_proxy array or None)."""
    _, g, se = _read_columns(path, *_KERNEL, "kernel")
    return Kernel.tabulated(g), se


def write_frontier(rows, path: str):
    """Frontier CSV `beta,psi,min_cost,argmin_strategy`; the strategy is
    slot:volume pairs joined by ';' (empty for the empty strategy)."""
    args = [";".join("%d:%.17g" % (s, q) for s, q in r["argmin"] or ()) for r in rows]
    cols = ([r[k] for r in rows] for k in ("beta", "psi", "min_cost"))
    _write_columns(path, *_FRONTIER, *cols, args)


def _json_default(obj):
    """numpy scalars and arrays as the Python values they hold."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(obj, path: str):
    _atomic_write(path, [json.dumps(obj, sort_keys=True, indent=2, default=_json_default) + "\n"])


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
    blob = json.dumps(config_dict, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
