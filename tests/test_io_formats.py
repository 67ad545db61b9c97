"""Property tests for the file formats: exact round trips of adversarial
floats, the chunked writers against the per-row formatting they replaced,
the bulk tape parser against the row validator, strict integer columns, and
atomic writes that leave no temp file or partial target behind."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impactlab import (
    ConditionalResponse,
    FormatError,
    Kernel,
    LagCurve,
    SignSeries,
    TradeTape,
    VolumeSeries,
    cli,
)
from impactlab import io as iolib

SETTINGS = settings(max_examples=60, deadline=None, database=None)

EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
        1.7976931348623157e308, 0.1, 1 / 3, -2.5e-310]
finite = st.one_of(st.sampled_from(EDGE), st.floats(allow_nan=False, allow_infinity=False))
positive = st.one_of(st.sampled_from([5e-324, 2.2250738585072014e-308, 1e308, 1.0]),
                     st.floats(min_value=5e-324, max_value=1.7976931348623157e308))


def _same(a, b) -> bool:
    """Bit-equal float arrays: -0.0 and 0.0 differ."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _text(path) -> str:
    """A file's text, line ends as written."""
    with open(path, newline="") as fh:
        return fh.read()


@st.composite
def tapes(draw, priced=st.booleans()):
    n = draw(st.integers(1, 30))
    eps = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    vol = draw(st.lists(positive, min_size=n, max_size=n))
    prices = draw(st.lists(finite, min_size=n + 1, max_size=n + 1)) if draw(priced) else None
    return TradeTape(SignSeries(eps), VolumeSeries(vol), prices=prices)


def _optional_se(draw, n):
    return np.array(draw(st.lists(finite, min_size=n, max_size=n))) if draw(st.booleans()) else None


# ---- the per-row writers this package used before, kept as oracles ----

def _old_fmt(x) -> str:
    return f"{float(x):.17g}"


def _old_text(header, rows) -> str:
    return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"


def _old_tape_text(tape) -> str:
    priced = tape.prices is not None
    rows = []
    for i in range(tape.n):
        row = [str(i), str(int(tape.eps[i])), _old_fmt(tape.v[i])]
        if priced:
            row.append(_old_fmt(tape.prices[i]))
        rows.append(row)
    if priced:
        rows.append([str(tape.n), "", "", _old_fmt(tape.prices[tape.n])])
    return _old_text(["n", "epsilon", "volume"] + (["price"] if priced else []), rows)


def _old_se(se, i) -> str:
    return "" if se is None else _old_fmt(se[i])


# ---- round trips and writer oracles ----

@SETTINGS
@given(tapes())
def test_tape_round_trip_and_oracle(tmp_path_factory, tape):
    path = str(tmp_path_factory.mktemp("t") / "tape.csv")
    iolib.write_tape(tape, path)
    assert _text(path) == _old_tape_text(tape)
    with open(path, newline="") as fh:
        eps, vol, prices = iolib._read_tape_bulk(fh)  # the fast path takes every written tape
    back = iolib.read_tape(path)
    for got in ((back.eps, back.v, back.prices), (eps, vol, prices)):
        assert _same(got[0], tape.eps) and _same(got[1], tape.v)
        assert (got[2] is None) == (tape.prices is None)
        assert tape.prices is None or _same(got[2], tape.prices)


@SETTINGS
@given(st.data())
def test_curve_round_trip_and_oracle(tmp_path_factory, data):
    n = data.draw(st.integers(1, 20))
    lags = np.sort(data.draw(st.lists(st.integers(1, 2**53), min_size=n, max_size=n, unique=True)))
    counts = np.array(data.draw(st.lists(st.integers(1, 2**53), min_size=n, max_size=n)))
    values = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
    se = _optional_se(data.draw, n)
    curve = LagCurve(lags, values, counts, "response", se)
    path = str(tmp_path_factory.mktemp("c") / "curve.csv")
    iolib.write_curve(curve, path)
    rows = [[str(int(lags[i])), _old_fmt(values[i]), str(int(counts[i])), _old_se(se, i)]
            for i in range(n)]
    assert _text(path) == _old_text(["lag", "value", "count", "se"], rows)
    back = iolib.read_curve(path, "response")
    assert np.array_equal(back.lags, lags) and np.array_equal(back.counts, counts)
    assert _same(back.values, values)
    assert (back.se is None) == (se is None) and (se is None or _same(back.se, se))


@SETTINGS
@given(st.data())
def test_conditional_round_trip_and_oracle(tmp_path_factory, data):
    n = data.draw(st.integers(1, 12))
    edges = st.lists(st.floats(-1e308, 1e308), min_size=n, max_size=n, unique=True)
    lo = np.sort(data.draw(edges))
    hi = np.nextafter(lo, np.inf)  # the narrowest bins a float can hold
    vals = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
    counts = np.array(data.draw(st.lists(st.integers(1, 10**9), min_size=n, max_size=n)))
    se = _optional_se(data.draw, n)
    path = str(tmp_path_factory.mktemp("k") / "cond.csv")
    iolib.write_conditional(ConditionalResponse(lo, hi, vals, counts, 3, se), path)
    rows = [[_old_fmt(lo[i]), _old_fmt(hi[i]), _old_fmt(vals[i]), str(int(counts[i])),
             _old_se(se, i)] for i in range(n)]
    assert _text(path) == _old_text(["v_lo", "v_hi", "value", "count", "se"], rows)
    back = iolib.read_conditional(path, T=3)
    assert _same(back.bin_lo, lo) and _same(back.bin_hi, hi) and _same(back.values, vals)
    assert np.array_equal(back.counts, counts) and back.T == 3
    assert (back.se is None) == (se is None) and (se is None or _same(back.se, se))


@SETTINGS
@given(st.data())
def test_kernel_round_trip_and_oracle(tmp_path_factory, data):
    n = data.draw(st.integers(1, 20))
    g = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
    se = _optional_se(data.draw, n)
    path = str(tmp_path_factory.mktemp("g") / "kernel.csv")
    iolib.write_kernel(Kernel.tabulated(g), path, se_proxy=se)
    rows = [[str(i + 1), _old_fmt(g[i]), _old_se(se, i)] for i in range(n)]
    assert _text(path) == _old_text(["lag", "G", "se_proxy"], rows)
    back, back_se = iolib.read_kernel(path)
    assert _same(back.values, g)
    assert (back_se is None) == (se is None) and (se is None or _same(back_se, se))


@SETTINGS
@given(st.lists(st.tuples(finite, finite, finite, st.one_of(
    st.none(), st.lists(st.tuples(st.integers(1, 50), finite), max_size=4))), max_size=6))
def test_frontier_round_trip_and_oracle(tmp_path_factory, cells):
    rows = [{"beta": b, "psi": p, "min_cost": c, "argmin": a} for b, p, c, a in cells]
    path = str(tmp_path_factory.mktemp("f") / "frontier.csv")
    iolib.write_frontier(rows, path)
    old = [[_old_fmt(r["beta"]), _old_fmt(r["psi"]), _old_fmt(r["min_cost"]),
            "" if r["argmin"] is None else ";".join(f"{int(s)}:{_old_fmt(q)}" for s, q in r["argmin"])]
           for r in rows]
    text = _text(path)
    assert text == _old_text(["beta", "psi", "min_cost", "argmin_strategy"], old)
    for line, (b, p, c, a) in zip(text.splitlines()[1:], cells):
        fb, fp, fc, fa = line.split(",")
        assert _same([float(fb), float(fp), float(fc)], [b, p, c])
        trades = [(int(s), float(q)) for s, q in (t.split(":") for t in fa.split(";") if t)]
        assert [s for s, _ in trades] == [s for s, _ in a or ()]
        assert _same([q for _, q in trades], [q for _, q in a or ()])


# ---- the bulk tape parser against the row validator ----

def _mutate(text: str, kind: str, i: int) -> str:
    lines = text.split("\n")[:-1]
    row = 1 + i % (len(lines) - 1)  # a data row (or the final-price row)
    fields = lines[row].split(",")
    if kind == "bad_eps":
        fields[1] = "0"
    elif kind == "not_a_number":
        fields[2] = "abc"
    elif kind == "neg_volume":
        fields[2] = "-" + fields[2]
    elif kind == "nan_volume":
        fields[2] = "nan"
    elif kind == "gap_in_n":
        fields[0] = str(int(fields[0]) + 1)
    elif kind == "n_as_float":
        fields[0] = fields[0] + ".0"
    elif kind == "short_row":
        fields = fields[:-1]
    elif kind == "quoted":
        fields[2] = f'"{fields[2]}"'
    elif kind == "comment":
        fields[-1] = fields[-1] + "#x"
    elif kind == "underscore":  # float() reads "1.5_0", loadtxt does not
        fields[2] += "_0"
    elif kind == "spaces":
        fields[2] = f" {fields[2]} "
    lines[row] = ",".join(fields)
    if kind == "rows_after_final":
        lines.append(lines[-2])
    elif kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    elif kind == "lone_cr":
        lines[row] = lines[row] + "\r" + lines[row]
    elif kind == "cr_blank_line":  # csv reads an empty line, loadtxt skips it
        lines[row] = lines[row] + "\r\r"
    elif kind == "drop_final":
        lines.pop()
    elif kind == "blank_line":
        lines.insert(row, "")
    elif kind == "no_trailing_newline":
        return "\n".join(lines)
    return "\n".join(lines) + "\n"


MUTATIONS = ["none", "bad_eps", "not_a_number", "neg_volume", "nan_volume", "gap_in_n",
             "n_as_float", "short_row", "quoted", "comment", "underscore", "spaces",
             "rows_after_final", "crlf", "lone_cr", "cr_blank_line", "drop_final", "blank_line",
             "no_trailing_newline"]


def _outcome(read, path):
    """(arrays, None) when `read` accepts the file, (None, error) when not."""
    try:
        with open(path, newline="") as fh:
            return read(fh), None
    except ValueError as exc:  # FormatError, or the bulk parser declining
        return None, f"{type(exc).__name__}: {exc}"


@SETTINGS
@given(tapes(priced=st.just(True)), st.sampled_from(MUTATIONS), st.integers(0, 10**6))
def test_bulk_reader_agrees_with_row_validator(tmp_path_factory, tape, kind, i):
    path = str(tmp_path_factory.mktemp("m") / "tape.csv")
    iolib.write_tape(tape, path)
    with open(path, newline="") as fh:
        text = fh.read()
    with open(path, "w", newline="") as fh:
        fh.write(_mutate(text, kind, i))
    rows, rows_error = _outcome(iolib._read_tape_rows, path)
    bulk, _ = _outcome(iolib._read_tape_bulk, path)
    assert bulk is not None or kind != "none"
    if bulk is not None:  # what the fast path accepts, the validator accepts alike
        assert rows is not None, rows_error
        assert all(_same(a, b) for a, b in zip(bulk, rows))
    try:
        public = iolib.read_tape(path)
    except FormatError as exc:
        assert rows_error == f"FormatError: {exc}"
    else:
        assert rows is not None, rows_error
        assert all(_same(a, b) for a, b in zip((public.eps, public.v, public.prices), rows))


# ---- strict integers ----

@pytest.mark.parametrize("row, what", [("1.5,0.1,10,", "lag '1.5'"),
                                       ("1,0.1,10.9,", "count '10.9'"),
                                       ("1,0.1,1e300,", "count '1e300'")])
def test_curve_reader_rejects_inexact_integers(tmp_path, row, what):
    path = tmp_path / "curve.csv"
    path.write_text(f"lag,value,count,se\n{row}\n")
    with pytest.raises(FormatError, match=f"line 2: {what} is not an exact integer"):
        iolib.read_curve(str(path), "response")
    ok = tmp_path / "ok.csv"
    ok.write_text("lag,value,count,se\n1,0.5,10,\n")
    rc = cli.main(["invert", "--response", str(path), "--autocorr", str(ok),
                   "--kernel-lags", "1", "--out-dir", str(tmp_path)])
    assert rc == 2


# ---- atomic writes ----

def test_atomic_write_failures_leave_no_trace(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    target.write_text("old\n")

    def broken():
        yield "partial"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        iolib._atomic_write(str(target), broken())
    assert target.read_text() == "old\n" and os.listdir(tmp_path) == ["out.json"]

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(iolib.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        iolib.write_json({"new": 1}, str(target))
    assert target.read_text() == "old\n" and os.listdir(tmp_path) == ["out.json"]
    with pytest.raises(OSError, match="rename refused"):
        iolib.write_json({"new": 1}, str(tmp_path / "fresh.json"))
    assert os.listdir(tmp_path) == ["out.json"]


def test_concurrent_writers_to_one_target_do_not_collide(tmp_path):
    target = str(tmp_path / "out.txt")

    def outer():
        yield "outer first half, "
        iolib._atomic_write(target, ["inner\n"])  # a second writer, mid-write
        yield "outer second half\n"

    iolib._atomic_write(target, outer())
    assert _text(target) == "outer first half, outer second half\n"
    assert os.listdir(tmp_path) == ["out.txt"]
