import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hurstkit as hk
from hurstkit import (
    PacketTrace,
    bin_bytes,
    interarrival_series,
    parse_packet_trace,
    serialize_packet_trace,
)
from hurstkit import series
from hurstkit.series import _TRACE_LINE, _decimal_columns
from hurstkit.traces import _load_trace, _scan


def trace_of(pairs, source="t"):
    return PacketTrace([t for t, _ in pairs], [s for _, s in pairs], source=source)


def test_parse_two_records():
    trace = parse_packet_trace(io.StringIO("0.0 64\n0.5 128\n"))
    assert trace.timestamps.tolist() == [0.0, 0.5]
    assert trace.sizes.tolist() == [64, 128]


def test_parse_allows_comments_and_blanks():
    text = "# header\n\n0.0 10\n   \n0.25 20\n"
    trace = parse_packet_trace(io.StringIO(text))
    assert len(trace) == 2


def test_parse_malformed_timestamp():
    with pytest.raises(hk.MalformedLine, match="line 1"):
        parse_packet_trace(io.StringIO("abc 64\n"))


def test_parse_malformed_size():
    with pytest.raises(hk.MalformedLine, match="column 2"):
        parse_packet_trace(io.StringIO("0.0 sixty\n"))
    with pytest.raises(hk.MalformedLine):
        parse_packet_trace(io.StringIO("0.0 -4\n"))
    with pytest.raises(hk.MalformedLine):
        parse_packet_trace(io.StringIO("0.0 64 extra\n"))


def test_parse_non_monotone():
    with pytest.raises(hk.NonMonotoneTimestamp, match="record 2"):
        parse_packet_trace(io.StringIO("1.0 64\n0.5 64\n"))


def test_hand_built_trace_validates_monotonicity():
    with pytest.raises(hk.NonMonotoneTimestamp):
        trace_of([(1.0, 1), (0.5, 1)])


def test_round_trip_identity():
    trace = trace_of([(0.0, 10), (0.125, 0), (0.125, 7), (3.5, 1500)])
    buf = io.StringIO()
    serialize_packet_trace(trace, buf)
    back = parse_packet_trace(io.StringIO(buf.getvalue()))
    assert back.timestamps.tolist() == trace.timestamps.tolist()
    assert back.sizes.tolist() == trace.sizes.tolist()


def test_bin_bytes_hand_example():
    trace = trace_of([(0.1, 10), (0.2, 20), (1.5, 30)])
    series = bin_bytes(trace, 1.0)
    assert series.values.tolist() == [30.0, 30.0]


def test_bin_bytes_single_packet_is_empty():
    series = bin_bytes(trace_of([(5.0, 40)]), 1.0)
    assert len(series) == 0


@pytest.mark.parametrize(
    "pairs, width",
    [([(2.0, 40), (2.0, 1500), (2.0, 576)], 1.0), ([(0.0, 40), (5e-324, 576)], 1e300)],
    ids=["one-timestamp", "span-underflows"],
)
def test_bin_bytes_of_a_zero_span_is_an_empty_float_series(pairs, width):
    series = bin_bytes(trace_of(pairs), width)
    assert series.values.dtype == np.float64
    assert series.values.shape == (0,)


def test_bin_bytes_zero_bins_are_kept():
    trace = trace_of([(0.0, 10), (3.5, 20)])
    series = bin_bytes(trace, 1.0)
    assert series.values.tolist() == [10.0, 0.0, 0.0, 20.0]


def test_bin_bytes_conservation_across_widths():
    rng = np.random.default_rng(8)
    times = np.sort(rng.uniform(0.0, 10.0, 500))
    sizes = rng.integers(40, 1500, 500)
    trace = trace_of(list(zip(times.tolist(), (int(s) for s in sizes))))
    coarse = bin_bytes(trace, 1.0)
    fine = bin_bytes(trace, 0.1)
    # for fully covered seconds, ten fine bins sum to one coarse bin
    full = fine.values[: 10 * len(coarse)].reshape(-1, 10).sum(axis=1)
    np.testing.assert_allclose(full[: len(coarse)], coarse.values[: len(full)])


def test_bin_bytes_totals_bounded_by_trace():
    trace = trace_of([(0.0, 10), (0.4, 20), (0.9, 30), (2.3, 40)])
    series = bin_bytes(trace, 1.0)
    assert series.values.sum() <= 10 + 20 + 30 + 40
    # last packet interior to the final kept bin: every byte counted
    assert series.values.sum() == 100


def test_bin_bytes_errors():
    with pytest.raises(hk.EmptyTrace):
        bin_bytes(PacketTrace(), 1.0)
    with pytest.raises(hk.BadBinWidth):
        bin_bytes(trace_of([(0.0, 1)]), 0.0)
    with pytest.raises(hk.BadBinWidth):
        bin_bytes(trace_of([(0.0, 1)]), -2.0)


@pytest.mark.parametrize(
    "width, count", [(1e-300, "4e+299"), (5e-324, "inf")], ids=["too-many-to-index", "count-overflows"]
)
def test_bin_bytes_refuses_a_bin_count_no_array_can_hold(width, count):
    with pytest.raises(hk.BadBinWidth) as exc:
        bin_bytes(trace_of([(0.0, 40), (0.4, 576)]), width)
    assert str(exc.value) == f"bin width {width!r} cuts the 0.4 s trace into {count} bins, more than an array can index"


@pytest.mark.parametrize("failing", ["bincount", "series"])
def test_bin_bytes_refuses_a_bin_count_memory_cannot_hold(monkeypatch, failing):
    # 4e11 bins would ask for 2.91 TiB; the stand-in fails the way numpy's allocator does,
    # either in the bin totals themselves or in the series' checks of them
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.91 TiB for an array with shape (400000000000,)")

    if failing == "bincount":
        monkeypatch.setattr(np, "bincount", no_memory)
    else:
        monkeypatch.setattr(np, "bincount", lambda *args, **kwargs: np.zeros(4))
        monkeypatch.setattr(hk.traces.TimeSeries, "_from_values", no_memory)
    with pytest.raises(hk.BadBinWidth) as exc:
        bin_bytes(trace_of([(0.0, 40), (0.4, 576)]), 1e-12)
    assert str(exc.value) == "bin width 1e-12 cuts the 0.4 s trace into 400000000000 bins, more than memory can hold"


def _bins_by_floor_divide(timestamps, sizes, width):
    """The bins as ``(ts - t0) // width`` gives them, the reference rule."""
    ts = np.asarray(timestamps, dtype=np.float64)
    nbins = math.ceil(float(ts[-1] - ts[0]) / width)
    idx = ((ts - ts[0]) // width).astype(np.int64)
    keep = idx < nbins
    return np.bincount(idx[keep], weights=np.asarray(sizes)[keep], minlength=nbins)


_BIN_WIDTHS = st.sampled_from([0.1, 0.01, 1 / 3, 7e-5, 2.0**-7, 0.003, 1.0]) | st.floats(1e-4, 10.0)


@st.composite
def _binned_traces(draw):
    """A bin width and a trace whose timestamps sit on its bin edges, as
    ``t0 + i * w`` and as the decimal of ``i`` edges, or between them."""
    width = draw(_BIN_WIDTHS)
    t0 = draw(st.sampled_from([0.0, 0.37, 1234.5678, 1.16e9, 1.7e9 + 0.25]) | st.floats(0.0, 1e6))
    rows = draw(st.lists(
        st.tuples(st.integers(0, 40), st.sampled_from(["edge", "decimal", "between"]), st.floats(0.0, 1.0)),
        min_size=1, max_size=200,
    ))
    edge = 0
    stamps = []
    for step, kind, share in rows:
        edge += step
        if kind == "edge":
            stamps.append(t0 + edge * width)
        elif kind == "decimal":
            stamps.append(t0 + float(Fraction(edge) * Fraction(repr(width))))
        else:
            stamps.append(t0 + (edge + share) * width)
    ts = np.maximum.accumulate(np.array(stamps))
    sizes = draw(st.lists(st.integers(0, 1500), min_size=ts.size, max_size=ts.size))
    return width, ts, np.array(sizes, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(_binned_traces())
def test_bin_bytes_matches_floor_divide(case):
    width, ts, sizes = case
    want = _bins_by_floor_divide(ts, sizes, width)
    assert bin_bytes(PacketTrace(ts, sizes), width).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", [0.1, 0.01, 1 / 3, 7e-5, 2.0**-7])
def test_bin_bytes_on_decimal_edges_matches_floor_divide(width):
    # every timestamp is the double nearest a bin edge, where floor(d / w)
    # and d // w most often disagree
    edges = np.arange(0, 20000, 3)
    for t0 in (0.0, 1.16e9):
        ts = t0 + np.array([float(Fraction(int(i)) * Fraction(repr(width))) for i in edges])
        ts = np.maximum.accumulate(ts)
        sizes = np.arange(ts.size) % 1501
        got = bin_bytes(PacketTrace(ts, sizes), width).values
        assert got.tobytes() == _bins_by_floor_divide(ts, sizes, width).tobytes()


def test_interarrival_hand_example():
    series = interarrival_series(trace_of([(0.0, 1), (1.0, 1), (3.0, 1), (6.0, 1)]))
    assert series.values.tolist() == [1.0, 2.0, 3.0]


def test_interarrival_duplicates_allowed():
    series = interarrival_series(trace_of([(0.0, 1), (0.0, 1), (0.5, 1)]))
    assert series.values.tolist() == [0.0, 0.5]


def test_interarrival_invariants():
    rng = np.random.default_rng(9)
    times = np.cumsum(rng.exponential(1.0, 100))
    trace = trace_of([(float(t), 64) for t in times])
    series = interarrival_series(trace)
    assert len(series) == len(trace) - 1
    assert series.values.sum() == pytest.approx(times[-1] - times[0], abs=1e-9)
    assert np.all(series.values >= 0)


def test_interarrival_errors():
    with pytest.raises(hk.EmptyTrace):
        interarrival_series(PacketTrace())
    with pytest.raises(hk.TooFewRecords):
        interarrival_series(trace_of([(0.0, 1)]))


def test_columns_are_read_only_and_typed():
    trace = trace_of([(0.0, 10), (0.5, 20)])
    assert trace.timestamps is trace.timestamps
    assert trace.timestamps.dtype == np.float64 and not trace.timestamps.flags.writeable
    assert trace.sizes is trace.sizes
    assert trace.sizes.dtype == np.int64 and not trace.sizes.flags.writeable
    assert trace.sizes.tolist() == [10, 20]
    assert isinstance(vars(PacketTrace)["timestamps"], property)
    assert isinstance(vars(PacketTrace)["sizes"], property)
    with pytest.raises(ValueError):
        PacketTrace([0.0, 1.0], [1])


@pytest.mark.parametrize(
    "timestamps, sizes",
    [([0.0, np.inf], [-5, 3]), ([0.0, np.nan], [1, 2]), ([0.0, 1.0], [-1, 2])],
    ids=["inf-timestamp", "nan-timestamp", "negative-size"],
)
def test_constructor_rejects_what_the_parser_rejects(timestamps, sizes):
    with pytest.raises(ValueError):
        PacketTrace(timestamps, sizes)


def test_constructor_copies_the_callers_columns():
    ts = np.array([0.0, 0.5, 1.0])
    sizes = np.array([10, 20, 30])
    trace = PacketTrace(ts, sizes)
    ts[0] = 0.75
    sizes[1] = 99
    assert trace.timestamps.tolist() == [0.0, 0.5, 1.0]
    assert trace.sizes.tolist() == [10, 20, 30]


def test_parsed_trace_freezes_the_readers_columns():
    for text in (b"0.5 64\n0.75 32\n", b"0.5 64\n7.5e-1 32\n"):  # the kernel, then NumPy's reader
        trace = parse_packet_trace(io.BytesIO(text))
        assert not trace._timestamps.flags.writeable and not trace._sizes.flags.writeable
        assert (trace._timestamps.dtype, trace._sizes.dtype) == (np.float64, np.int64)
        for column in (trace._timestamps, trace._sizes):
            assert column.flags.c_contiguous and column.base is None  # no writable array beneath
        assert trace.timestamps.tolist() == [0.5, 0.75] and trace.sizes.tolist() == [64, 32]


@pytest.mark.parametrize(
    "timestamps, sizes, error",
    [
        ([0.0, np.inf], [1, 2], ValueError),
        ([0.0, 1.0], [1, -2], ValueError),
        ([0.0, 1.0], [1], ValueError),
        ([1.0, 0.5], [1, 2], hk.NonMonotoneTimestamp),
        ([[0.0, 1.0]], [[1, 2]], ValueError),
    ],
    ids=["inf-timestamp", "negative-size", "lengths", "decreasing", "2-d"],
)
def test_adopted_columns_are_checked(timestamps, sizes, error):
    with pytest.raises(error):
        PacketTrace._from_columns(np.array(timestamps), np.array(sizes, dtype=np.int64), "")


def test_fractional_sizes_are_rejected():
    assert PacketTrace([0.0], np.array([64.0])).sizes.tolist() == [64]
    with pytest.raises(ValueError, match="whole"):
        PacketTrace([0.0], [64.5])


def test_parse_accepts_a_list_of_lines():
    with_newlines = parse_packet_trace(["0.0 64\n", "# c\n", "0.5 128\n"])
    bare = parse_packet_trace(["0.0 64", "# c", "0.5 128"])
    for trace in (with_newlines, bare):
        assert trace.timestamps.tolist() == [0.0, 0.5] and trace.sizes.tolist() == [64, 128]
    with pytest.raises(hk.MalformedLine, match="line 3"):
        parse_packet_trace(["0.0 64", "", "x 1"])


def test_size_beyond_int64_is_rejected():
    with pytest.raises(hk.MalformedLine, match="line 2, column 2: .*does not fit in int64"):
        parse_packet_trace(io.StringIO("0.0 1\n0.5 99999999999999999999\n"))
    with pytest.raises(hk.MalformedLine, match="line 1, column 2"):
        parse_packet_trace(io.StringIO("0.5 9223372036854775808\n"))
    top = parse_packet_trace(io.StringIO("0.5 9223372036854775807\n"))
    assert top.sizes.tolist() == [2**63 - 1]


def test_largest_size_survives_parse_serialize_parse():
    first = parse_packet_trace(io.StringIO("0.5 9223372036854775807\n0.75 0\n"))
    buf = io.StringIO()
    serialize_packet_trace(first, buf)
    assert buf.getvalue() == "0.5 9223372036854775807\n0.75 0\n"
    again = parse_packet_trace(io.StringIO(buf.getvalue()))
    assert again.sizes.dtype == np.int64
    assert again.sizes.tolist() == [2**63 - 1, 0]


def test_numpy_scalars_round_trip():
    trace = PacketTrace(np.array([np.float64(0.5), np.float64(0.75)]), np.array([10, 0], dtype=np.int64))
    buf = io.StringIO()
    serialize_packet_trace(trace, buf)
    assert buf.getvalue() == "0.5 10\n0.75 0\n"
    assert parse_packet_trace(io.StringIO(buf.getvalue())).sizes.tolist() == trace.sizes.tolist()


def _outcome(parse, text):
    try:
        return parse(text)
    except hk.HurstkitError as exc:
        return (type(exc), str(exc))


def _exact(timestamps, sizes):
    return [(float(t).hex(), int(s)) for t, s in zip(timestamps, sizes)]


def _by_scanner(text):
    return _exact(*_scan(text.split("\n")))


def _by_parser(text):
    trace = parse_packet_trace(io.StringIO(text))
    return _exact(trace.timestamps.tolist(), trace.sizes.tolist())


def _by_bytes_parser(text):
    trace = parse_packet_trace(io.BytesIO(text.encode("ascii")))
    return _exact(trace.timestamps.tolist(), trace.sizes.tolist())


def _by_fast_path(text):
    trace = _load_trace(text.encode("ascii"), "")
    return None if trace is None else _exact(trace.timestamps.tolist(), trace.sizes.tolist())


@pytest.mark.parametrize(
    "text",
    [
        "0.5 1_000\n",
        "1_0.5 64\n",
        "# h\n0.5 64\n",
        "0.5 64 # c\n",
        "nan 64\n",
        "1e400 1\n",
        "0.5 \u0663\n",
        "0.5 64.0\n",
        "0.5 1e3\n",
        "0.5 -4\n",
        "0.5 0x10\n",
        "",
        "\n  \n",
        " 0.5  64 \r\n",
        "0.5\t64\n0.75\t\t32\n",
        "0.5 64\n0.75 32",
        "0.5\n",
        "0.5 64 1\n",
        "1.0 64\n0.5 64\n",
        "0.5 64\n0.5 0\n",
        "0.5 64\n\x1c\n\x1f \n",
        "\x1c\n",
        "0.5 99999999999999999999\n",
        "0.5 9223372036854775807\n",
        "0.5\x0b64\n",
        "0.5 64\r0.75 32\r",
        "0.5\x0064\n",
        "+0.5 +64\n-0.0 007\n",
    ],
)
def test_parse_matches_reference_scanner(text):
    want = _outcome(_by_scanner, text)
    assert _outcome(_by_parser, text) == want
    if text.isascii():
        fast = _by_fast_path(text)
        assert fast is None or fast == want
        # a binary stream reads \r\n and \r as \n, as a file opened as text does
        universal = text.replace("\r\n", "\n").replace("\r", "\n")
        assert _outcome(_by_bytes_parser, text) == _outcome(_by_scanner, universal)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789.-+_eEnaif #x\t\r\n\x0b\x1c", max_size=40))
def test_fast_path_never_disagrees_with_scanner(text):
    fast = _by_fast_path(text)
    assert fast is None or fast == _outcome(_by_scanner, text)


_packets = st.lists(
    st.tuples(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(1, 3),  # copies of the row: duplicate timestamps
        st.one_of(st.just(0), st.integers(0, 2**63 - 1)),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(_packets)
def test_serialize_parse_round_trip(packets):
    times, sizes = [], []
    for t, copies, size in sorted(packets):
        times += [t] * copies
        sizes += [size] * copies
    trace = PacketTrace(times, sizes)
    buf = io.StringIO()
    serialize_packet_trace(trace, buf)
    back = parse_packet_trace(io.StringIO(buf.getvalue()))
    assert back.timestamps.tobytes() == trace.timestamps.tobytes()
    assert back.sizes.tolist() == trace.sizes.tolist()


def test_serialize_formats_in_slices_with_the_same_bytes():
    for count in ((1 << 16) - 1, 1 << 16, (1 << 16) + 1):
        times = np.cumsum(np.random.default_rng(count).random(count))
        trace = PacketTrace(times, np.arange(count) % 1501)
        buf = io.StringIO()
        serialize_packet_trace(trace, buf)
        assert buf.getvalue() == "".join(f"{t!r} {i % 1501}\n" for i, t in enumerate(times.tolist()))


# --- the plain-decimal kernel against the line scanner ----------------------


def _by_kernel(text):
    columns = _decimal_columns(text.encode("ascii"), _TRACE_LINE)
    return None if columns is None else _exact(*columns)


def _check_kernel(text, must_read=True):
    """The kernel returns None or the scanner's exact columns; where it reads
    the text, so does the parser."""
    got = _by_kernel(text)
    if got is None:
        assert not must_read, text[:200]
        return
    want = _outcome(_by_scanner, text)
    assert got == want
    assert _outcome(_by_parser, text) == want


def _lines(timestamps, sizes):
    """Trace text with the timestamp strings in value order."""
    pairs = sorted(zip(timestamps, sizes), key=lambda pair: float(pair[0]))
    return "".join(f"{t} {s}\n" for t, s in pairs)


def _digits(rnd, count):
    return "".join(rnd.choice("0123456789") for _ in range(count))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(repr),
            st.integers(0, 10**18 - 1),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_kernel_reads_repr_floats_as_the_scanner_does(packets):
    packets = [(t, s) for t, s in packets if "e" not in t]
    if packets:
        _check_kernel(_lines(*zip(*packets)), must_read=all(len(t) <= 19 for t, _ in packets))


def test_kernel_reads_every_digit_count_and_dot_position():
    rnd = random.Random(12)
    stamps, sizes = [], []
    for total in range(2, 19):
        for dot in range(1, total):
            for _ in range(8):
                digits = _digits(rnd, total)
                stamps.append(f"{digits[:dot]}.{digits[dot:]}")
                sizes.append(_digits(rnd, rnd.randint(1, 18)))
    _check_kernel(_lines(stamps, sizes))


def _near_midpoints(count, seed):
    """18-digit decimals within a quarter of a 64-bit ulp of a float64
    midpoint: the quotient rounds to the midpoint first, then to even."""
    rnd = random.Random(seed)
    found = []
    while len(found) < count:
        value = rnd.uniform(0.0, 10.0 ** rnd.randint(0, 12))
        ulp = Fraction(2) ** (math.frexp(value)[1] - 53)
        midpoint = Fraction(value) + ulp / 2
        frac = 18 - len(str(int(midpoint)))
        scaled = round(midpoint * 10**frac)
        if abs(Fraction(scaled, 10**frac) - midpoint) * 2**13 < ulp:
            digits = str(scaled).rjust(frac + 1, "0")
            found.append(f"{digits[:-frac]}.{digits[-frac:]}")
    return found


@pytest.mark.parametrize(
    "stamps",
    [
        ["9007199254740993.0", "18014398509481986.0", "18014398509481990.0"],
        ["4503599627370496.5", "4503599627370497.5", "0.50000000000000005"],
        _near_midpoints(60, 3),
    ],
)
def test_kernel_rounds_float64_midpoints_as_float_does(stamps):
    _check_kernel(_lines(stamps, range(len(stamps))))


@pytest.mark.parametrize(
    "text, read",
    [
        ("123456789.123456789 1\n", True),
        ("0.5 999999999999999999\n", True),
        ("00000000000000000.1 000000000000000001\n", True),
        ("1234567890.123456789 1\n", False),
        ("0.5 1000000000000000000\n", False),
        ("0.5 9223372036854775807\n", False),
        ("0.5 64\n0.75 32", True),
        ("0.5 64", True),
        ("7.0 0\n", True),
        ("", False),
        ("0.5 64\r\n0.75 32\r\n", False),
        ("# h\n0.5 64\n", False),
        ("0.5 64\n\n0.75 32\n", False),
        ("+0.5 64\n", False),
        ("0.5 +64\n", False),
        ("0.5 -4\n", False),
        ("1e-05 64\n", False),
        ("5 64\n", False),
        (".5 64\n", False),
        ("5. 64\n", False),
        ("0.5  64\n", False),
        ("0.5\t64\n", False),
        ("0.5 64 \n", False),
        ("0..5 64\n", False),
        ("0.5 6.4\n", False),
    ],
)
def test_kernel_reads_only_its_grammar(text, read):
    got = _by_kernel(text)
    assert (got is not None) == read
    if got is not None:
        assert got == _outcome(_by_scanner, text)
    assert _outcome(_by_parser, text) == _outcome(_by_scanner, text)


@pytest.mark.parametrize("window", [40, 41, 47, 64, 100])
@pytest.mark.parametrize("final_newline", [True, False])
def test_kernel_windows_cut_anywhere(monkeypatch, window, final_newline):
    monkeypatch.setattr(series, "_WINDOW", window)
    rnd = random.Random(window)
    stamps = [f"{_digits(rnd, rnd.randint(1, 9))}.{_digits(rnd, rnd.randint(1, 9))}" for _ in range(200)]
    text = _lines(stamps, [_digits(rnd, rnd.randint(1, 18)) for _ in stamps])
    _check_kernel(text if final_newline else text[:-1])
    _check_kernel("0.25 1\n" if final_newline else "0.25 1")


def test_kernel_refuses_a_line_longer_than_a_window(monkeypatch):
    monkeypatch.setattr(series, "_WINDOW", 16)
    assert _by_kernel("0.5 64\n123456789.123456789 1\n") is None


def test_kernel_reads_a_synthetic_trace_exactly():
    rng = np.random.default_rng(11)
    ticks = (1 << 19) + np.cumsum(np.floor(273 * (1 + rng.pareto(1.5, 20000))))
    epoch = 1.16e9 + ticks * 2.0**-20
    for seconds in (ticks * 2.0**-20, epoch, np.round(epoch, 6)):
        text = "".join(f"{t!r} {s}\n" for t, s in zip(seconds.tolist(), rng.choice([40, 576, 1500], 20000).tolist()))
        _check_kernel(text)


def test_trace_without_the_extended_format_parses_the_same(monkeypatch):
    rnd = random.Random(4)
    stamps = [f"{_digits(rnd, 3)}.{_digits(rnd, rnd.randint(1, 15))}" for _ in range(500)] + _near_midpoints(20, 5)
    text = _lines(stamps, [_digits(rnd, 4) for _ in stamps])
    fast = parse_packet_trace(io.StringIO(text))
    monkeypatch.setattr(series, "_EXTENDED", False)
    assert _by_kernel(text) is None
    slow = parse_packet_trace(io.StringIO(text))
    assert slow.timestamps.tobytes() == fast.timestamps.tobytes()
    assert slow.sizes.tobytes() == fast.sizes.tobytes()
