import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hurstkit as hk
from hurstkit import (
    PacketRecord,
    PacketTrace,
    bin_bytes,
    interarrival_series,
    parse_packet_trace,
    serialize_packet_trace,
)
from hurstkit.traces import _load_columns, _scan


def trace_of(pairs, source="t"):
    return PacketTrace([t for t, _ in pairs], [s for _, s in pairs], source=source)


def test_parse_two_records():
    trace = parse_packet_trace(io.StringIO("0.0 64\n0.5 128\n"))
    assert len(trace) == 2
    assert trace.records[0] == PacketRecord(0.0, 64)
    assert trace.records[1] == PacketRecord(0.5, 128)


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
    assert back.records == trace.records


def test_bin_bytes_hand_example():
    trace = trace_of([(0.1, 10), (0.2, 20), (1.5, 30)])
    series = bin_bytes(trace, 1.0)
    assert series.values.tolist() == [30.0, 30.0]


def test_bin_bytes_single_packet_is_empty():
    series = bin_bytes(trace_of([(5.0, 40)]), 1.0)
    assert len(series) == 0


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
    assert trace.sizes.dtype == np.float64
    assert trace.sizes.tolist() == [10.0, 20.0]
    assert isinstance(vars(PacketTrace)["timestamps"], property)
    assert isinstance(vars(PacketTrace)["sizes"], property)
    with pytest.raises(ValueError):
        PacketTrace([0.0, 1.0], [1])


def test_fractional_sizes_are_rejected():
    assert PacketTrace([0.0], np.array([64.0])).records == (PacketRecord(0.0, 64),)
    with pytest.raises(ValueError, match="whole"):
        PacketTrace([0.0], [64.5])
    with pytest.raises(ValueError, match="whole"):
        PacketRecord(0.0, 64.5)


def test_parse_accepts_a_list_of_lines():
    with_newlines = parse_packet_trace(["0.0 64\n", "# c\n", "0.5 128\n"])
    bare = parse_packet_trace(["0.0 64", "# c", "0.5 128"])
    assert with_newlines.records == bare.records == (PacketRecord(0.0, 64), PacketRecord(0.5, 128))
    with pytest.raises(hk.MalformedLine, match="line 3"):
        parse_packet_trace(["0.0 64", "", "x 1"])


def test_size_beyond_int64_is_rejected():
    with pytest.raises(hk.MalformedLine, match="line 2, column 2: .*does not fit in int64"):
        parse_packet_trace(io.StringIO("0.0 1\n0.5 99999999999999999999\n"))
    with pytest.raises(hk.MalformedLine, match="line 1, column 2"):
        parse_packet_trace(io.StringIO("0.5 9223372036854775808\n"))
    top = parse_packet_trace(io.StringIO("0.5 9223372036854775807\n"))
    assert top.records == (PacketRecord(0.5, 2**63 - 1),)


def test_numpy_scalars_round_trip():
    rec = PacketRecord(np.float64(0.5), np.int64(10))
    assert type(rec.timestamp) is float and type(rec.size) is int
    assert repr(rec) == "PacketRecord(timestamp=0.5, size=10)"
    trace = PacketTrace(np.array([np.float64(0.5), np.float64(0.75)]), np.array([10, 0], dtype=np.int64))
    buf = io.StringIO()
    serialize_packet_trace(trace, buf)
    assert buf.getvalue() == "0.5 10\n0.75 0\n"
    assert parse_packet_trace(io.StringIO(buf.getvalue())).records == trace.records


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
    return _exact(trace.timestamps.tolist(), (r.size for r in trace.records))


def _by_fast_path(text):
    table = _load_columns(text.encode("ascii"))
    return None if table is None else _exact(table["t"].tolist(), table["s"].tolist())


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
    assert back.records == trace.records
