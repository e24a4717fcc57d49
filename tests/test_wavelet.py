import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import hurstkit as hk
import hurstkit.wavelet as wavelet
from hurstkit import TimeSeries, daubechies_filters, dwt


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_filters_orthonormal(order):
    h, g = daubechies_filters(order)
    assert h.sum() == pytest.approx(math.sqrt(2.0), abs=1e-14)
    # double-shift orthogonality of the scaling filter
    for k in range(1, order):
        assert float(h[: -2 * k] @ h[2 * k :]) == pytest.approx(0.0, abs=1e-14)
    assert float(h @ h) == pytest.approx(1.0, abs=1e-14)
    assert float(g @ g) == pytest.approx(1.0, abs=1e-14)
    assert float(h @ g) == pytest.approx(0.0, abs=1e-14)
    assert g.sum() == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_wavelet_filter_annihilates_linear_moment(order):
    _, g = daubechies_filters(order)
    m = np.arange(g.size)
    assert float(m @ g) == pytest.approx(0.0, abs=1e-14)


def test_unknown_order_rejected():
    with pytest.raises(ValueError):
        daubechies_filters(9)


def test_constant_series_has_zero_details():
    pyr = dwt(TimeSeries(np.full(256, 5.0)), order=2)
    for detail in pyr.details:
        assert np.max(np.abs(detail)) < 1e-10


def test_linear_ramp_annihilated_on_clean_prefix():
    n = 2048
    ramp = 3.0 * np.arange(n, dtype=float) + 11.0
    pyr = dwt(TimeSeries(ramp), order=2)
    scale = np.max(np.abs(ramp))
    for detail, clean in zip(pyr.details, pyr.clean_counts):
        if clean:
            assert np.max(np.abs(detail[:clean])) < 1e-8 * scale
        # the wrapped tail coefficients are NOT zero: the ramp is not
        # periodic, which is exactly why they are excluded
    assert any(c < d.size for d, c in zip(pyr.details, pyr.clean_counts))


def test_energy_conservation_power_of_two():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(2**14)
    pyr = dwt(TimeSeries(x), order=2, max_level=12)
    total = sum(float(d @ d) for d in pyr.details) + float(pyr.approx @ pyr.approx)
    assert total == pytest.approx(float(x @ x), rel=1e-9)


@pytest.mark.parametrize("order", [1, 3, 4])
def test_energy_conservation_other_orders(order):
    rng = np.random.default_rng(order)
    x = rng.standard_normal(4096)
    pyr = dwt(TimeSeries(x), order=order, max_level=8)
    total = sum(float(d @ d) for d in pyr.details) + float(pyr.approx @ pyr.approx)
    assert total == pytest.approx(float(x @ x), rel=1e-9)


def test_level_sizes_halve():
    pyr = dwt(TimeSeries(np.random.default_rng(1).standard_normal(1024)), max_level=6)
    sizes = [d.size for d in pyr.details]
    assert sizes == [512, 256, 128, 64, 32, 16]
    assert pyr.approx.size == 16


def test_clean_count_bookkeeping():
    # with 4 taps, level 1 wraps exactly one coefficient
    pyr = dwt(TimeSeries(np.random.default_rng(2).standard_normal(64)), order=2, max_level=3)
    assert pyr.clean_counts[0] == pyr.details[0].size - 1
    # deeper levels lose at most a couple more
    assert pyr.clean_counts[1] == pyr.details[1].size - 2
    assert all(c >= 0 for c in pyr.clean_counts)


def test_dwt_odd_lengths_truncate():
    pyr = dwt(TimeSeries(np.random.default_rng(3).standard_normal(100_000)), max_level=5)
    assert [d.size for d in pyr.details] == [50_000, 25_000, 12_500, 6_250, 3_125]


def test_dwt_precondition():
    with pytest.raises(hk.SeriesTooShort):
        dwt(TimeSeries(np.arange(31.0)), max_level=3)  # needs 2^(3+2)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_dwt_returns_every_level_it_accepts(order):
    """Each accepted (N, max_level) yields exactly max_level levels, clean counts in range."""
    rng = np.random.default_rng(order)
    for n in [*range(8, 300), 511, 1024, 1025, 3000]:
        x = TimeSeries(rng.standard_normal(n))
        for max_level in range(1, int(math.log2(n)) - 1):
            pyr = dwt(x, order=order, max_level=max_level)
            assert len(pyr.details) == len(pyr.clean_counts) == max_level
            assert all(0 <= c <= d.size for c, d in zip(pyr.clean_counts, pyr.details))


def _reference_analysis_step(approx, h, g):
    """The plain form of _analysis_step: gather approx[(2k + t) % n] by index."""
    n, taps = approx.size, h.size
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(taps)[None, :]) % n
    windows = approx[idx]
    return windows @ h, windows @ g


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_analysis_step_matches_the_index_gather(order):
    """Bit for bit, signed zeros included, also for inputs shorter than the filter."""
    h, g = daubechies_filters(order)
    rng = np.random.default_rng(order)
    for n in range(2, 301):
        approx = rng.standard_normal(n)
        approx[rng.random(n) < 0.2] = -0.0
        approx[rng.random(n) < 0.1] = 0.0
        for x in (approx, np.full(n, -0.0)):
            for got, want in zip(wavelet._analysis_step(x, h, g, np.empty(n // 2 * h.size)), _reference_analysis_step(x, h, g)):
                assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), n


# --- the work buffer against the allocate-per-level form -------------------


def _analysis_step_allocating(approx, h, g):
    """_analysis_step with a fresh cyclic copy (np.resize) and window block per level."""
    n, taps = approx.size, h.size
    windows = np.ascontiguousarray(sliding_window_view(np.resize(approx, n + taps), taps)[: n // 2 * 2 : 2])
    return windows @ h, windows @ g


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [7, 1000, 98_182, 2**17])
def test_analysis_step_matches_the_allocating_form_at_every_offset(order, n):
    """The gemv over the windows gives the same bits wherever the scratch starts in a 64-byte line."""
    h, g = daubechies_filters(order)
    approx = np.random.default_rng(n).standard_normal(n)
    want = [a.tobytes() for a in _analysis_step_allocating(approx, h, g)]
    size = n // 2 * h.size
    buf = np.empty(size + 16)
    first = (-buf.ctypes.data % 64) // 8  # the first element on a 64-byte boundary
    for offset in range(8):
        scratch = buf[first + offset : first + offset + size]
        scratch[:] = np.nan  # stale contents must not reach the output
        got = wavelet._analysis_step(approx, h, g, scratch)
        assert [a.tobytes() for a in got] == want, offset


@settings(max_examples=25, deadline=None)
@given(
    order=st.integers(1, 4),
    n=st.one_of(st.sampled_from([1000, 98_183, 2**17]), st.integers(8, 200_000)),
    seed=st.integers(0, 2**32 - 1),
)
@example(order=1, n=2**17, seed=1)
@example(order=2, n=98_183, seed=2)
@example(order=3, n=1000, seed=3)
@example(order=4, n=2**17 + 1, seed=4)
def test_dwt_work_buffer_matches_the_allocating_form(order, n, seed):
    series = TimeSeries(np.random.default_rng(seed).standard_normal(n))
    got = dwt(series, order=order)
    with mock.patch.object(wavelet, "_analysis_step", lambda a, h, g, scratch: _analysis_step_allocating(a, h, g)):
        want = dwt(series, order=order)
    assert [d.tobytes() for d in got.details] == [d.tobytes() for d in want.details]
    assert got.approx.tobytes() == want.approx.tobytes()
    assert got.clean_counts == want.clean_counts
