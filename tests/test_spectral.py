import numpy as np
import pytest

import hurstkit as hk
from hurstkit import TimeSeries, dft, periodogram


def brute_force_dft(x):
    """O(N^2) evaluation of X_k = sum_t x_t e^{-2*pi*i*t*k/N}."""
    n = len(x)
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        for t in range(n):
            out[k] += x[t] * np.exp(-2j * np.pi * t * k / n)
    return out


def brute_force_periodogram(x):
    """Direct evaluation of |sum_{t=1}^N x_t e^{i t lambda_j}|^2 / (2 pi N),
    with the mean removed, on lambda_j = 2 pi j / N for j = 1..floor((N-1)/2)."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    centered = x - x.mean()
    nfreq = (n - 1) // 2
    freqs = 2.0 * np.pi * np.arange(1, nfreq + 1) / n
    power = np.empty(nfreq)
    for j, lam in enumerate(freqs):
        t = np.arange(1, n + 1)
        total = np.sum(centered * np.exp(1j * t * lam))
        power[j] = abs(total) ** 2 / (2.0 * np.pi * n)
    return freqs, power


def test_dft_impulse():
    np.testing.assert_allclose(dft([1, 0, 0, 0]), np.ones(4), atol=1e-12)


def test_dft_constant():
    np.testing.assert_allclose(dft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-12)


def test_dft_matches_brute_force():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(16)
    got = dft(x)
    want = brute_force_dft(x)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_dft_round_trip():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(33) + 1j * rng.standard_normal(33)
    np.testing.assert_allclose(dft(np.fft.ifft(x)), x, rtol=1e-9, atol=1e-12)


def test_dft_prime_length_matches_brute_force():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(17)
    np.testing.assert_allclose(dft(x), brute_force_dft(x), rtol=1e-9, atol=1e-9)


def test_dft_scales_to_two_megapoints():
    # the contract requires O(N log N) behaviour up to at least 2^21
    import time

    rng = np.random.default_rng(7)
    x = rng.standard_normal(2**21)
    t0 = time.perf_counter()
    spec = dft(x)
    elapsed = time.perf_counter() - t0
    assert spec.size == 2**21
    assert elapsed < 5.0
    np.testing.assert_allclose(np.fft.ifft(spec).real, x, atol=1e-9)


def test_dft_rejects_empty():
    with pytest.raises(ValueError):
        dft([])


def test_periodogram_matches_brute_force():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(16)
    pg = periodogram(TimeSeries(x))
    freqs, power = brute_force_periodogram(x)
    np.testing.assert_allclose(pg.frequencies, freqs, rtol=1e-12)
    np.testing.assert_allclose(pg.power, power, rtol=1e-9, atol=1e-12)


def test_periodogram_odd_length_matches_brute_force():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(21)
    pg = periodogram(TimeSeries(x))
    freqs, power = brute_force_periodogram(x)
    assert pg.frequencies.size == 10  # floor((21-1)/2)
    np.testing.assert_allclose(pg.power, power, rtol=1e-9, atol=1e-12)


def test_periodogram_grid_excludes_nyquist_and_zero():
    pg = periodogram(TimeSeries(np.arange(16.0)))
    assert pg.frequencies[0] > 0.0
    assert pg.frequencies[-1] < np.pi
    assert np.all(np.diff(pg.frequencies) > 0)
    assert np.all(pg.power >= 0.0)


def test_periodogram_too_short():
    with pytest.raises(hk.SeriesTooShort):
        periodogram(TimeSeries(np.arange(7.0)))


def test_periodogram_flat_for_white_noise(iid_big):
    # E[I] = sigma^2 / (2 pi) for iid data
    pg = periodogram(iid_big[0])
    assert pg.power.mean() == pytest.approx(1.0 / (2.0 * np.pi), rel=0.05)


def test_periodogram_parseval():
    rng = np.random.default_rng(4)
    for n in (64, 101, 256):
        x = rng.standard_normal(n)
        centered = x - x.mean()
        two_sided = np.abs(np.fft.fft(centered)) ** 2 / (2.0 * np.pi * n)
        lhs = float(np.sum(centered**2))
        assert lhs == pytest.approx(2.0 * np.pi * float(two_sided.sum()), rel=1e-6)
        # the one-sided production bins agree with the two-sided grid
        pg = periodogram(TimeSeries(x))
        np.testing.assert_allclose(pg.power, two_sided[1 : pg.power.size + 1], rtol=1e-9)


def test_periodogram_shift_invariance():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(128)
    a = periodogram(TimeSeries(x)).power
    b = periodogram(TimeSeries(x + 123.456)).power
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


def test_fgn_low_frequency_slope(fgn07):
    # log I vs log lambda over the lowest 10% of frequencies: slope ~ 1-2H
    pg = periodogram(fgn07[0])
    k = max(3, int(0.1 * pg.frequencies.size))
    fit = hk.loglog_fit(pg.frequencies[:k], pg.power[:k])
    assert fit.slope == pytest.approx(-0.4, abs=0.1)


# --- every call computes afresh; one result may go to both spectral estimators


def _direct_power(values):
    """periodogram's power computed here, with no series object involved."""
    n = values.size
    spec = np.fft.rfft(values - values.mean())
    nfreq = (n - 1) // 2
    return (spec.real[1 : nfreq + 1] ** 2 + spec.imag[1 : nfreq + 1] ** 2) / (2.0 * np.pi * n)


def test_periodogram_of_series_a_b_a_equals_a_fresh_compute():
    rng = np.random.default_rng(8)
    a, b = TimeSeries(rng.standard_normal(999)), TimeSeries(rng.standard_normal(999))
    for series, got in [(s, periodogram(s)) for s in (a, b, a)]:
        want = periodogram(TimeSeries(series.values))
        assert got.frequencies.tobytes() == want.frequencies.tobytes()
        assert got.power.tobytes() == want.power.tobytes() == _direct_power(series.values).tobytes()
        assert periodogram(series) is not got
        for arr in (got.frequencies, got.power):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
