"""Which arrays a TimeSeries copies and which it adopts, and what building a
matrix row costs in memory.

``TimeSeries(values)`` copies its input; ``TimeSeries._from_values(arr)``
keeps an array the package has just built, so the generators, corruptions,
filters, ``aggregate``, the series reader's kernel and the trace derivations
hand their results over without a second copy.
"""

import io
import tracemalloc

import numpy as np
import pytest

from hurstkit import (
    Ar1Spec,
    CorruptionKind,
    FgnSpec,
    PacketTrace,
    TimeSeries,
    aggregate,
    bin_bytes,
    corrupt,
    filter_linear_detrend,
    filter_log,
    filter_poly_detrend,
    gen_ar1,
    gen_fgn,
    gen_iid_gaussian,
    interarrival_series,
    read_series,
)
from hurstkit.series import _SERIES_LINE, _decimal_columns

MIB = 1 << 20


def test_the_constructor_copies_its_input():
    arr = np.arange(5.0)
    series = TimeSeries(arr)
    arr[0] = 7.0
    assert arr.flags.writeable
    assert series.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert not series.values.flags.writeable


def test_from_values_keeps_and_freezes_the_array():
    arr = np.arange(4.0)
    series = TimeSeries._from_values(arr)
    assert series.values is arr
    assert not arr.flags.writeable
    assert type(series) is TimeSeries and len(series) == 4


@pytest.mark.parametrize(
    "arr, message",
    [
        (np.zeros((2, 3)), "expected a 1-d sequence, got shape (2, 3)"),
        (np.bincount(np.zeros(0, np.intp)), "expected float64 values, got int64"),
        (np.zeros(3, np.float32), "expected float64 values, got float32"),
        (np.arange(6.0)[::2], "expected a contiguous array that owns its data"),
        (np.arange(6.0)[1:], "expected a contiguous array that owns its data"),
    ],
    ids=["2-d", "int64", "float32", "strided", "view"],
)
def test_from_values_refuses_what_it_cannot_adopt(arr, message):
    with pytest.raises(ValueError) as refused:
        TimeSeries._from_values(arr)
    assert str(refused.value) == message
    assert arr.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_values_names_a_non_finite_value_as_the_constructor_does(bad):
    values = [1.0, 2.0, bad, 3.0]
    with pytest.raises(ValueError) as copied:
        TimeSeries(values)
    with pytest.raises(ValueError) as adopted:
        TimeSeries._from_values(np.array(values))
    assert str(adopted.value) == str(copied.value) == "non-finite value at index 2"


N = 2**17
BASE = gen_fgn(FgnSpec(hurst=0.7, n=N, seed=3))
POSITIVE = TimeSeries._from_values(np.exp(BASE.values))
# plain-decimal text, which the series reader's kernel takes
DECIMALS = b"".join(b"%d.%03d\n" % (i % 977, i % 1000) for i in range(4096))
TRACE = PacketTrace(np.arange(4096) * 0.001, np.full(4096, 576))
# (name, call, traced peak bound in MiB for a 2^17-point call)
BUILDS = [
    ("gen_fgn", lambda: gen_fgn(FgnSpec(hurst=0.7, n=N, seed=1)), 4.5),
    ("gen_ar1", lambda: gen_ar1(Ar1Spec(phi=0.9, n=N, seed=1)), 2.5),
    ("gen_iid_gaussian", lambda: gen_iid_gaussian(N, 1), None),
    ("corrupt-ar1", lambda: corrupt(BASE, CorruptionKind.ar1(), seed=2), 2.5),
    ("corrupt-sine", lambda: corrupt(BASE, CorruptionKind.sine()), None),
    ("corrupt-trend", lambda: corrupt(BASE, CorruptionKind.linear_trend()), 2.5),
    ("aggregate", lambda: aggregate(BASE, 3), None),
    ("read_series-kernel", lambda: read_series(io.BytesIO(DECIMALS)), None),
    ("bin_bytes", lambda: bin_bytes(TRACE, 0.01), None),
    ("interarrival_series", lambda: interarrival_series(TRACE), None),
    ("filter_log", lambda: filter_log(POSITIVE), None),
    ("filter_linear_detrend", lambda: filter_linear_detrend(BASE), None),
    ("filter_poly_detrend", lambda: filter_poly_detrend(BASE), None),
]


def test_the_kernel_reads_the_decimal_text():
    assert _decimal_columns(DECIMALS, _SERIES_LINE) is not None


@pytest.mark.parametrize("build", [b[1] for b in BUILDS], ids=[b[0] for b in BUILDS])
def test_built_series_are_adopted(build):
    values = build().values
    assert values.dtype == np.float64
    assert values.flags.c_contiguous and not values.flags.writeable
    assert values.base is None


@pytest.mark.parametrize("build", [b[1] for b in BUILDS], ids=[b[0] for b in BUILDS])
def test_built_series_are_not_copied(monkeypatch, build):
    copies = []
    init = TimeSeries.__init__

    def counted_init(series, values):
        copies.append(len(values))
        init(series, values)

    monkeypatch.setattr(TimeSeries, "__init__", counted_init)
    build()
    assert copies == []


@pytest.mark.parametrize(
    "build, bound",
    [(b[1], b[2]) for b in BUILDS if b[2] is not None],
    ids=[b[0] for b in BUILDS if b[2] is not None],
)
def test_building_a_row_stays_within_its_traced_peak(build, bound):
    build()  # warm: first-call caches are not the row's cost
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * MIB
