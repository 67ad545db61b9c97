"""Property tests for the file formats: exact round trips of adversarial
floats, the array formatter and the chunked writer against the per-row `%`
formatting they replaced, the bulk tape parser against the row parser under
the same tape rules, strict integer columns, and atomic writes that leave no
temp file or partial target behind."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impactlab import (
    ConditionalResponse,
    ExperimentConfig,
    FormatError,
    Kernel,
    LagCurve,
    SignSeries,
    TradeTape,
    VolumeSeries,
    cli,
    simulate,
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


def _old_csv(header, kinds, columns, tail: str = "") -> str:
    """The CSV text of the writer's row-`%` path: one row format for every
    row, applied to the values of each row."""
    row = ",".join("" if col is None else "%d" if kind in "id" else "%s" if kind == "t"
                   else "%.17g" for kind, col in zip(kinds, columns)) + "\n"
    cols = [np.asarray(col, dtype=np.float64 if kind in "fFo" else None)
            for kind, col in zip(kinds, columns) if col is not None]
    rows = "".join(row % r for r in zip(*(c.tolist() for c in cols)))
    return ",".join(header) + "\n" + rows + tail


def _csv(tmp_path_factory, header, kinds, columns) -> str:
    path = str(tmp_path_factory.mktemp("w") / "table.csv")
    iolib._write_csv(path, header, kinds, columns)
    return _text(path)


# ---- the array formatter against `%` ----

@SETTINGS
@given(st.lists(st.floats(), min_size=1, max_size=80))
def test_float_columns_match_the_row_format(tmp_path_factory, xs):
    """Every double, NaN and the infinities as `%.17g` writes it."""
    assert _csv(tmp_path_factory, ["x"], "f", [xs]) == _old_csv(["x"], "f", [xs])


@SETTINGS
@given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=40),
       st.lists(st.floats(-2.0**64, 2.0**64), min_size=40, max_size=40))
def test_integer_columns_match_the_row_format(tmp_path_factory, ints, floats):
    """`%d` of int64 values, and of doubles: exact integers and the
    fractions it truncates."""
    floats = floats[:len(ints)]
    cols = [np.array(ints, dtype=np.int64), floats]
    assert _csv(tmp_path_factory, ["i", "d"], "id", cols) == _old_csv(["i", "d"], "id", cols)


def _adversarial() -> np.ndarray:
    """Values at the edges of the array path: exact decimal ties at the 17th
    digit, powers of ten and their neighbours, where log10 may be one off
    and the digits may round up to the next power, the bounds of fixed
    notation, subnormals and the values left to `%`."""
    n = np.arange(2000.0)[:, None]
    ties = [1000000000000000.25, 1000000000000000.75, ((1e15 + n) * 4 + [1, 3]) / 4,
            ((1e14 + n) * 8 + [1, 3, 5, 7]) / 8, ((1e13 + n) * 16 + [1, 3, 13, 15]) / 16]
    tens = 10.0 ** np.arange(-330, 309, dtype=np.float64)
    near = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                           np.nextafter(np.nextafter(tens, 0), 0)])
    edges = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-5, 1e-4, 9.9999999999999999e-5, 1e16,
             1e17, 99999999999999999.0, 99999999999999984.0, 9.999999999999999e16,
             0.99999999999999999, 0.9999999999999999, 1e300, 5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, 0.1, 1 / 3, 2.0**53, 2.0**53 + 2]
    quarters = np.arange(-4000, 4000) / 4.0 * 10.0 ** np.arange(-6, 18)[:, None]
    x = np.concatenate([*(np.ravel(t) for t in ties), near, edges, quarters.ravel()])
    return np.concatenate([x, -x])


def test_adversarial_floats_match_the_row_format(tmp_path_factory):
    x = _adversarial()
    assert _csv(tmp_path_factory, ["x"], "f", [x]) == _old_csv(["x"], "f", [x])


def _tape_oracle(tape) -> str:
    priced = tape.prices is not None
    cols = [np.arange(tape.n), tape.eps, tape.v] + ([tape.prices[:-1]] if priced else [])
    tail = "%d,,,%.17g\n" % (tape.n, tape.prices[-1]) if priced else ""
    return _old_csv(*iolib._TAPES[priced], cols, tail)


@pytest.mark.parametrize("spec", [
    {"generator": {"kind": "iid"}, "volumes": {"dist": "lognormal", "sigma": 2.0},
     "model": {"kind": "propagator", "kernel": {"form": "power_law", "beta": 0.4}}},
    {"generator": {"kind": "metaorder", "alpha": 1.5},
     "volumes": {"dist": "pareto", "x_min": 1, "tail": 1.5},
     "model": {"kind": "propagator", "kernel": {"form": "power_law", "beta": 0.25}}}],
    ids=["lognormal-iid", "pareto-metaorder"])
def test_written_tapes_match_the_row_format(tmp_path, spec):
    """Over more than one chunk of rows."""
    tape, _ = simulate(ExperimentConfig(n=(1 << 16) + 4099, seed=7, **spec), 7)
    path = str(tmp_path / "tape.csv")
    iolib.write_tape(tape, path)
    assert _text(path) == _tape_oracle(tape)
    unpriced = TradeTape(SignSeries(tape.eps), VolumeSeries(tape.v))
    iolib.write_tape(unpriced, path)
    assert _text(path) == _tape_oracle(unpriced)


# ---- round trips and writer oracles ----

@SETTINGS
@given(tapes())
def test_tape_round_trip_and_oracle(tmp_path_factory, tape):
    path = str(tmp_path_factory.mktemp("t") / "tape.csv")
    iolib.write_tape(tape, path)
    assert _text(path) == _old_tape_text(tape)
    bulk = iolib._tape(*_bulk(path))  # the fast path takes every written tape
    back = iolib.read_tape(path)
    for got in ((back.eps, back.v, back.prices), (bulk.eps, bulk.v, bulk.prices)):
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
    # volume bins: positive finite edges, subnormals included
    edges = st.lists(st.floats(0.0, 1e308, exclude_min=True), min_size=n, max_size=n, unique=True)
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


def _bulk(path):
    with open(path, newline="") as fh:
        return iolib._read_tape_bulk(fh)


def _rows(path):
    return iolib._read_columns(path, "tape", *iolib._TAPES)


def _outcome(parse, path):
    """(columns and blank mask, None) when `parse` reads the file, (None,
    error) when not."""
    try:
        return parse(path), None
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
    rows, rows_error = _outcome(_rows, path)
    bulk, _ = _outcome(_bulk, path)
    assert bulk is not None or kind != "none"
    if bulk is not None:  # what the fast path parses, the row parser parses alike
        assert rows is not None, rows_error
        assert all(_same(a, b) for a, b in zip(bulk[0], rows[0]))
        assert np.array_equal(bulk[1], rows[1])
    if rows is not None:  # the tape's rules, on the row parser's columns
        rows, rows_error = _outcome(lambda _: iolib._tape(*rows), path)
    try:
        public = iolib.read_tape(path)
    except FormatError as exc:
        assert rows_error == f"FormatError: {exc}"
    else:
        assert rows is not None, rows_error
        assert all(_same(a, b) for a, b in zip((public.eps, public.v, public.prices),
                                               (rows.eps, rows.v, rows.prices)))


def _priced_text(n: int) -> str:
    rows = "".join(f"{k},{(-1) ** k},{k + 1.5},{100 + k}\n" for k in range(n))
    return f"n,epsilon,volume,price\n{rows}{n},,,{100 + n}\n"


def test_a_canonical_tape_that_breaks_a_rule_is_rejected_from_the_bulk_parse(tmp_path,
                                                                              monkeypatch):
    lines = _priced_text(40).split("\n")
    lines[18] = "17,0,18.5,117"  # trade 17, on line 19
    path = tmp_path / "tape.csv"
    path.write_text("\n".join(lines))

    def no_row_parse(*args):
        raise AssertionError("the row parser was called")

    monkeypatch.setattr(iolib.csv, "reader", no_row_parse)
    with pytest.raises(FormatError, match="line 19: epsilon must be -1 or 1"):
        iolib.read_tape(str(path))


def test_nan_epsilon_and_volume_do_not_make_a_final_price_row(tmp_path):
    path = tmp_path / "tape.csv"
    path.write_text(_priced_text(3).replace("3,,,103", "3,nan,nan,103"))
    for parse in (_bulk, _rows):
        cols, blank = parse(str(path))
        assert np.isnan(cols[1][-1]) and np.isnan(cols[2][-1]) and not blank.any()
        with pytest.raises(FormatError, match="line 6: missing trailing final-price row"):
            iolib._tape(cols, blank)
    with pytest.raises(FormatError, match="line 6: missing trailing final-price row"):
        iolib.read_tape(str(path))


def test_a_curve_whose_se_is_nan_text_reads_back_as_nan(tmp_path):
    lags = np.arange(1, 5)
    curve = LagCurve(lags, lags * 0.5, np.full(4, 7), "response", np.full(4, np.nan))
    path = str(tmp_path / "curve.csv")
    iolib.write_curve(curve, path)
    assert _text(path).splitlines()[1] == "1,0.5,7,nan"
    back = iolib.read_curve(path, "response")
    assert back.se is not None and back.se.shape == (4,) and np.all(np.isnan(back.se))


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


def _read_response(path):
    return iolib.read_curve(path, "response")


@pytest.mark.parametrize("read, text, error", [
    (_read_response, "lag,value,count,se\n1,0.5,10,\n2,nan,10,\n3,0.2,0,\n",
     "line 3: value must be finite"),
    (_read_response, "lag,value,count,se\n1,0.5,10,0.1\n2,0.4,0,0.1\n",
     "line 3: count must be >= 1"),
    (iolib.read_conditional, "v_lo,v_hi,value,count,se\n1,2,0.5,10,\n2,3,-inf,10,\n",
     "line 3: value must be finite"),
    (iolib.read_conditional, "v_lo,v_hi,value,count,se\n1,2,0.5,0,\n",
     "line 2: count must be >= 1"),
    (iolib.read_conditional, "v_lo,v_hi,value,count,se\n1,2,0.5,10,\nnan,3,0.4,10,\n",
     "line 3: bin edges must be finite"),
    (iolib.read_conditional, "v_lo,v_hi,value,count,se\n1,inf,0.5,10,\n",
     "line 2: bin edges must be finite"),
    (iolib.read_conditional, "v_lo,v_hi,value,count,se\n1,2,0.5,10,\n0,3,0.4,10,\n",
     "line 3: bin edges must be finite"),
    (iolib.read_conditional, "v_lo,v_hi,value,count,se\n1,3,0.5,10,\n2,4,0.4,10,\n",
     "line 3: bins must be increasing and disjoint"),
    (iolib.read_conditional, "v_lo,v_hi,value,count,se\n1,2,0.5,10,\n4,5,0.4,10,\n2,3,0.3,10,\n",
     "line 4: bins must be increasing and disjoint")],
    ids=["curve-nan", "curve-zero-count", "conditional-inf", "conditional-zero-count",
         "conditional-nan-lo", "conditional-inf-hi", "conditional-zero-lo",
         "conditional-overlapping", "conditional-decreasing-lo"])
def test_curve_readers_name_the_line_that_breaks_a_row_rule(tmp_path, read, text, error):
    path = tmp_path / "curve.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=error):
        read(str(path))
    if read is _read_response:  # a format error: invert exits 2
        ok = tmp_path / "ok.csv"
        ok.write_text("lag,value,count,se\n1,0.5,10,\n")
        assert cli.main(["invert", "--response", str(path), "--autocorr", str(ok),
                         "--kernel-lags", "1", "--out-dir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()


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
    assert os.listdir(tmp_path) == ["out.json"] and not iolib._TEMP_FILES


def test_concurrent_writers_to_one_target_do_not_collide(tmp_path):
    target = str(tmp_path / "out.txt")

    def outer():
        yield "outer first half, "
        iolib._atomic_write(target, ["inner\n"])  # a second writer, mid-write
        # the outer temp file is still on record, for a signal handler to remove
        assert iolib._TEMP_FILES == {os.path.join(tmp_path, name)
                                     for name in os.listdir(tmp_path) if name != "out.txt"}
        yield "outer second half\n"

    iolib._atomic_write(target, outer())
    assert _text(target) == "outer first half, outer second half\n"
    assert os.listdir(tmp_path) == ["out.txt"] and not iolib._TEMP_FILES
