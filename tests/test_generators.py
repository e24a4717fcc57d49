import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hurstkit as hk
from hurstkit import (
    Ar1Spec,
    FarimaSpec,
    FgnSpec,
    acf,
    fgn_spectral_density,
    fractional_ma_coefficients,
    gen_ar1,
    gen_farima,
    gen_fgn,
    gen_iid_gaussian,
)


def exact_fgn_acf(hurst, k):
    """rho(k) = 0.5 (|k+1|^2H - 2|k|^2H + |k-1|^2H)."""
    h2 = 2.0 * hurst
    return 0.5 * (abs(k + 1) ** h2 - 2.0 * abs(k) ** h2 + abs(k - 1) ** h2)


def brute_force_alias_sum(lam, hurst, terms=20_000):
    """sum_{j>=1} (2 pi j + lam)^(-2H-1) + (2 pi j - lam)^(-2H-1) at each lam,
    with an integral bound on the remainder."""
    d = -(2.0 * hurst + 1.0)
    col = np.asarray(lam, dtype=np.float64)[:, None]
    total = np.zeros(col.shape[0])
    for start in range(1, terms + 1, 2000):  # (lam, 2000) temporaries: 8 MB at 512 frequencies
        j = 2 * np.pi * np.arange(start, min(start + 2000, terms + 1), dtype=np.float64)
        total += np.sum((j + col) ** d + (j - col) ** d, axis=1)
    # remainder < 2 * integral_{terms}^inf (2 pi x)^d dx
    tail = 2.0 * (2 * np.pi * terms) ** (d + 1) / (2 * np.pi * (-(d + 1)))
    return total + tail


# --- iid ------------------------------------------------------------------


def test_iid_moments(iid_big):
    values = iid_big[0].values
    assert abs(values.mean()) < 0.02
    assert 0.98 < values.var() < 1.02


def test_iid_deterministic():
    a = gen_iid_gaussian(1000, 42)
    b = gen_iid_gaussian(1000, 42)
    assert np.array_equal(a.values, b.values)
    c = gen_iid_gaussian(1000, 43)
    assert not np.array_equal(a.values, c.values)


# --- FGN ------------------------------------------------------------------


def test_fgn_deterministic():
    a = gen_fgn(FgnSpec(0.7, 1024, 7))
    b = gen_fgn(FgnSpec(0.7, 1024, 7))
    assert np.array_equal(a.values, b.values)


def test_fgn_normalisation(fgn07):
    for series in fgn07:
        assert abs(series.values.mean()) < 1e-12
        assert series.values.var() == pytest.approx(1.0, abs=1e-12)


def test_fgn_half_is_white(fgn07):
    series = gen_fgn(FgnSpec(0.5, 100_000, 0))
    curve = acf(series, 10)
    assert np.all(np.abs(curve.rho[1:]) < 0.02)


def test_fgn_lag1_matches_exact_acf(fgn07):
    want = exact_fgn_acf(0.7, 1)
    assert want == pytest.approx(2.0**0.4 - 1.0, abs=1e-12)
    for series in fgn07:
        got = acf(series, 1).rho[1]
        assert got == pytest.approx(want, abs=0.03)


def test_fgn_whiteness_across_seeds():
    # Ljung-Box style: no |rho(k)| > 4/sqrt(N) for k <= 20 on >= 95% of seeds
    n = 4096
    bound = 4.0 / math.sqrt(n)
    passes = 0
    for seed in range(20):
        series = gen_fgn(FgnSpec(0.5, n, seed))
        curve = acf(series, 20)
        if np.all(np.abs(curve.rho[1:]) <= bound):
            passes += 1
    assert passes >= 19


# Paxson's truncated alias sum against the brute-force one over the whole
# Fourier grid of N = 1024: the largest relative error, at lambda = pi, was
# 1.61e-3, 1.13e-3, 6.55e-4 and 5.68e-4 for these H
DENSITY_RTOL = {0.55: 1.7e-3, 0.7: 1.2e-3, 0.9: 7e-4, 0.95: 6e-4}


@pytest.mark.parametrize("hurst", list(DENSITY_RTOL))
def test_fgn_spectral_density_vs_brute_force(hurst):
    lam = 2.0 * np.pi * np.arange(1, 513) / 1024
    approx = fgn_spectral_density(lam, hurst)
    scale = 2.0 * math.sin(math.pi * hurst) * math.gamma(2.0 * hurst + 1.0) * (1.0 - np.cos(lam))
    exact = scale * (lam ** -(2.0 * hurst + 1.0) + brute_force_alias_sum(lam, hurst))
    np.testing.assert_allclose(approx, exact, rtol=DENSITY_RTOL[hurst])


def test_fgn_odd_length():
    series = gen_fgn(FgnSpec(0.7, 1001, 4))
    assert len(series) == 1001
    assert abs(series.values.mean()) < 1e-12
    assert series.values.var() == pytest.approx(1.0, abs=1e-12)


def test_fgn_spec_validation():
    with pytest.raises(hk.BadHurst):
        FgnSpec(0.49, 1024, 0)
    with pytest.raises(hk.BadHurst):
        FgnSpec(1.0, 1024, 0)
    with pytest.raises(hk.SeriesTooShort):
        FgnSpec(0.7, 15, 0)


# --- FARIMA ---------------------------------------------------------------


def test_fractional_ma_coefficients_by_hand():
    psi = fractional_ma_coefficients(0.2, 3)
    assert psi[0] == 1.0
    assert psi[1] == pytest.approx(0.2, abs=1e-15)
    assert psi[2] == pytest.approx(0.12, abs=1e-15)
    assert psi[3] == pytest.approx(0.088, abs=1e-15)


@pytest.mark.parametrize("d", [0.1, 0.2, 0.4])
def test_fractional_ma_coefficients_vs_gamma_ratio(d):
    # psi_k = Gamma(k+d) / (Gamma(d) Gamma(k+1))
    psi = fractional_ma_coefficients(d, 1000)
    k = np.arange(1001, dtype=np.float64)
    from math import lgamma

    want = np.array([math.exp(lgamma(ki + d) - lgamma(d) - lgamma(ki + 1)) for ki in k])
    np.testing.assert_allclose(psi, want, rtol=1e-10)


def test_farima_d_zero_is_innovation_stream():
    spec = FarimaSpec(d=0.0, n=64, seed=9)
    series = gen_farima(spec)
    eps = np.random.default_rng(9).standard_normal(128)
    np.testing.assert_allclose(series.values, eps[64:], rtol=1e-12)


def test_farima_equal_ar_ma_cancel():
    # with (1 - theta B) innovations and (1 - phi B) recursion, phi == theta
    # cancels exactly; pins the sign convention of both filters
    plain = gen_farima(FarimaSpec(d=0.2, n=2048, seed=21))
    cancelled = gen_farima(FarimaSpec(d=0.2, n=2048, seed=21, ar=(0.5,), ma=(0.5,)))
    np.testing.assert_allclose(cancelled.values, plain.values, rtol=1e-9, atol=1e-12)


def test_farima_deterministic():
    a = gen_farima(FarimaSpec(d=0.3, n=512, seed=5, ar=(0.5,), ma=(0.2,)))
    b = gen_farima(FarimaSpec(d=0.3, n=512, seed=5, ar=(0.5,), ma=(0.2,)))
    assert np.array_equal(a.values, b.values)


def test_farima_ar_stationarity_checks():
    with pytest.raises(hk.NonStationaryAR):
        FarimaSpec(d=0.2, n=64, seed=0, ar=(1.0,))
    with pytest.raises(hk.NonStationaryAR):
        FarimaSpec(d=0.2, n=64, seed=0, ar=(0.6, 0.5))  # phi1+phi2 >= 1
    with pytest.raises(hk.NonStationaryAR):
        FarimaSpec(d=0.2, n=64, seed=0, ar=(-0.6, 0.5))  # phi2-phi1 >= 1
    with pytest.raises(hk.NonStationaryAR):
        FarimaSpec(d=0.2, n=64, seed=0, ar=(0.0, -1.0))  # |phi2| >= 1
    with pytest.raises(hk.NonStationaryAR):
        FarimaSpec(d=0.2, n=64, seed=0, ar=(0.1, 0.1, 0.1))  # p > 2 unchecked
    for ar in [(math.nan,), (math.inf,), (0.3, math.nan), (math.nan, 0.0), (-math.inf, 0.0)]:
        with pytest.raises(hk.NonStationaryAR):
            FarimaSpec(d=0.2, n=64, seed=0, ar=ar)
    for ma in [(math.inf,), (0.1, math.nan)]:
        with pytest.raises(ValueError, match="MA coefficients must be finite"):
            FarimaSpec(d=0.2, n=64, seed=0, ma=ma)
    with pytest.raises(ValueError, match="innovation std must be finite, got inf"):
        FarimaSpec(d=0.2, n=64, seed=0, sigma=math.inf)
    spec = FarimaSpec(d=0.2, n=64, seed=0, ar=(0.1, 0.1, 0.1), allow_unchecked_ar=True)
    assert gen_farima(spec).values.shape == (64,)


def test_farima_d_validation():
    with pytest.raises(hk.BadHurst):
        FarimaSpec(d=0.5, n=64, seed=0)
    with pytest.raises(hk.BadHurst):
        FarimaSpec(d=-0.1, n=64, seed=0)


# --- AR(1) ----------------------------------------------------------------


def test_ar1_acf_matches_phi_powers():
    series = gen_ar1(Ar1Spec(phi=0.9, n=100_000, seed=0))
    curve = acf(series, 5)
    for k in range(1, 6):
        assert curve.rho[k] == pytest.approx(0.9**k, abs=0.02)


def test_ar1_stationary_variance():
    series = gen_ar1(Ar1Spec(phi=0.9, n=100_000, seed=1))
    assert series.values.var() == pytest.approx(1.0 / (1.0 - 0.81), rel=0.10)


def test_ar1_phi_zero_is_white():
    series = gen_ar1(Ar1Spec(phi=0.0, n=100_000, seed=2))
    curve = acf(series, 5)
    assert np.all(np.abs(curve.rho[1:]) < 0.02)
    assert series.values.var() == pytest.approx(1.0, rel=0.05)


def test_ar1_explosive_rejected():
    with pytest.raises(hk.ExplosiveAR):
        Ar1Spec(phi=1.0, n=100, seed=0)
    with pytest.raises(hk.ExplosiveAR):
        Ar1Spec(phi=-1.2, n=100, seed=0)
    for phi in [math.nan, math.inf, -math.inf]:
        with pytest.raises(hk.ExplosiveAR, match=f"AR\\(1\\) needs \\|phi\\| < 1, got {phi}"):
            Ar1Spec(phi=phi, n=100, seed=0)
    with pytest.raises(ValueError, match="innovation std must be finite, got inf"):
        Ar1Spec(phi=0.5, n=100, seed=0, sigma=math.inf)
    with pytest.raises(ValueError, match="innovation std must be positive, got nan"):
        Ar1Spec(phi=0.5, n=100, seed=0, sigma=math.nan)


def test_ar1_deterministic():
    a = gen_ar1(Ar1Spec(phi=0.9, n=500, seed=3))
    b = gen_ar1(Ar1Spec(phi=0.9, n=500, seed=3))
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("phi, sigma", [(0.9, 1.0), (-0.5, 2.5)])
def test_ar1_of_one_point_is_the_stationary_first_draw(seed, phi, sigma):
    x0 = np.random.default_rng(seed).standard_normal() * sigma / math.sqrt(1.0 - phi**2)
    one = gen_ar1(Ar1Spec(phi=phi, n=1, seed=seed, sigma=sigma))
    assert one.values.dtype == np.float64
    assert one.values.tolist() == [x0]
    assert gen_ar1(Ar1Spec(phi=phi, n=8, seed=seed, sigma=sigma)).values[0] == x0


# --- in-place forms against the allocating ones they replaced --------------

# gen_ar1 runs its recursion over 4096-innovation chunks: 4096, 4097, 4098 and
# 8193 points hold 4095, 4096, 4097 and 8192 innovations
PINNED_LENGTHS = (1, 2, 3, 1000, 1001, 4096, 4097, 4098, 8193, 98_183, 2**17)


def _fgn_allocating(spec):
    """gen_fgn's values as built with a new array per step; the ValueError a non-finite path raises."""
    n, hurst = spec.n, spec.hurst
    rng = np.random.default_rng(spec.seed)
    m = n // 2
    lam = 2.0 * np.pi * np.arange(1, m + 1) / n
    mags = np.sqrt(fgn_spectral_density(lam, hurst) * rng.exponential(1.0, m))
    phases = rng.uniform(0.0, 2.0 * np.pi, m)
    z = mags * np.exp(1j * phases)
    coeffs = np.zeros(n, dtype=np.complex128)
    coeffs[n - m :] = np.conj(z[::-1])
    coeffs[1 : m + 1] = z
    path = np.fft.ifft(coeffs).real
    path -= path.mean()
    with np.errstate(invalid="ignore"):
        path /= path.std()
    return hk.TimeSeries(path).values


def _ar1_listed(spec):
    """gen_ar1's values as built by appending to a list."""
    rng = np.random.default_rng(spec.seed)
    x = rng.standard_normal() * spec.sigma / math.sqrt(1.0 - spec.phi**2)
    eps = rng.standard_normal(spec.n - 1) * spec.sigma
    path = [x]
    for e in eps.tolist():
        x = e + spec.phi * x
        path.append(x)
    return np.asarray(path)


def _bits_or_refusal(fn, spec):
    try:
        return fn(spec).tobytes()
    except ValueError as exc:
        return str(exc)


def _assert_fgn_matches_allocating(n, seed, hurst=0.7):
    # FgnSpec needs N >= 16; the stand-in reaches the empty (n = 1, 2) and one-bin mirrors
    spec = SimpleNamespace(n=n, hurst=hurst, seed=seed)
    with np.errstate(invalid="ignore"):
        got = _bits_or_refusal(lambda s: gen_fgn(s).values, spec)
    assert got == _bits_or_refusal(_fgn_allocating, spec)


@pytest.mark.parametrize("n", PINNED_LENGTHS)
def test_fgn_keeps_the_bits_of_the_allocating_form(n):
    for seed in (0, 11):
        _assert_fgn_matches_allocating(n, seed)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 2**17), seed=st.integers(0, 2**63), hurst=st.floats(0.5, 0.99))
@example(n=2, seed=5, hurst=0.5)
def test_fgn_keeps_the_bits_of_the_allocating_form_property(n, seed, hurst):
    _assert_fgn_matches_allocating(n, seed, hurst)


@pytest.mark.parametrize("n", PINNED_LENGTHS)
def test_ar1_keeps_the_bits_of_the_listed_form(n):
    for phi, sigma in ((0.9, 1.0), (-0.99, 2.5)):
        spec = Ar1Spec(phi=phi, n=n, seed=n, sigma=sigma)
        assert gen_ar1(spec).values.tobytes() == _ar1_listed(spec).tobytes()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 2**17),
    seed=st.integers(0, 2**63),
    phi=st.floats(-0.999, 0.999),
    sigma=st.floats(1e-3, 1e3),
)
@example(n=4096, seed=1, phi=0.9, sigma=1.0)
@example(n=4097, seed=2, phi=-0.5, sigma=2.0)
@example(n=4098, seed=3, phi=0.99, sigma=0.5)
@example(n=8193, seed=4, phi=0.3, sigma=1.0)
def test_ar1_keeps_the_bits_of_the_listed_form_property(n, seed, phi, sigma):
    spec = Ar1Spec(phi=phi, n=n, seed=seed, sigma=sigma)
    assert gen_ar1(spec).values.tobytes() == _ar1_listed(spec).tobytes()


# --- the AR(1) block path: guessed block starts, checked against the loop --


def _spy_on_the_loop(monkeypatch):
    """(coefficient, innovation count) for each call of the scalar loop: phi
    on the path, phi**L where it carries the guessed block ends."""
    seen = []
    loop = hk.generators._ar1_loop

    def spy(out, eps, phi, x):
        seen.append((phi, eps.size))
        loop(out, eps, phi, x)

    monkeypatch.setattr(hk.generators, "_ar1_loop", spy)
    return seen


def _lengths_around_blocks(phi, blocks):
    """n = kL - 1, kL, kL + 1 and kL + 2 for k = ``blocks`` and phi's block
    length L: n around k blocks, and the n whose n - 1 innovations fill them."""
    block = (hk.generators._ar1_plan(phi, 2**20) or (hk.generators._AR1_MIN_BLOCK,))[0]
    return [blocks * block + d for d in (-1, 0, 1, 2)]


# one block more than a span holds, at phi 0.9 (L = 190) and 0 (L = 128)
SPAN_BLOCKS = {0.9: hk.generators._AR1_SPAN // 190 + 1, 0.0: hk.generators._AR1_SPAN // 128 + 1}


@pytest.mark.parametrize("phi", [0.0, -0.0, 5e-324, -5e-324, 0.5, 0.9, -0.99, 0.9999, -0.9999])
def test_ar1_keeps_the_bits_of_the_listed_form_around_block_multiples(phi):
    lengths = _lengths_around_blocks(phi, hk.generators._AR1_MIN_BLOCKS)  # the fewest the block path takes
    if phi in SPAN_BLOCKS:
        lengths += _lengths_around_blocks(phi, SPAN_BLOCKS[phi])
    for n in lengths:
        spec = Ar1Spec(phi=phi, n=n, seed=n, sigma=1.5)
        assert gen_ar1(spec).values.tobytes() == _ar1_listed(spec).tobytes()


def test_ar1_plan_follows_phi_and_n():
    assert hk.generators._ar1_plan(0.9, 2**17) == (190, 95)
    assert hk.generators._ar1_plan(0.0, 2**17) == hk.generators._ar1_plan(5e-324, 2**17) == (128, 1)
    # the cut-offs: too few points for 32 blocks, or |phi| too close to 1 at 2^17
    assert hk.generators._ar1_plan(0.9, 32 * 190) is None
    assert hk.generators._ar1_plan(0.9, 32 * 190 + 1) == (190, 95)
    assert hk.generators._ar1_plan(0.995, 2**17) == (3990, 1995)
    assert hk.generators._ar1_plan(0.996, 2**17) is None


@pytest.mark.parametrize(
    "build",
    [
        lambda: gen_ar1(Ar1Spec(phi=0.9, n=2**17, seed=1)),
        lambda: hk.corrupt(gen_fgn(FgnSpec(hurst=0.7, n=2**17, seed=3)), hk.CorruptionKind.ar1(), seed=2),
    ],
    ids=["gen_ar1", "corrupt-ar1"],
)
def test_ar1_at_2_17_takes_the_block_path(monkeypatch, build):
    seen = _spy_on_the_loop(monkeypatch)
    build()
    block = hk.generators._ar1_plan(0.9, 2**17)[0]
    path = [size for phi, size in seen if phi == 0.9]
    assert path == [(2**17 - 1) % block]  # the path's loop sees only the tail
    assert path[0] < block


@pytest.mark.parametrize("phi, n", [(0.9, 4000), (0.996, 2**17), (-0.9999, 2**17)])
def test_ar1_loop_runs_alone_where_blocks_cannot_beat_it(monkeypatch, phi, n):
    seen = _spy_on_the_loop(monkeypatch)
    gen_ar1(Ar1Spec(phi=phi, n=n, seed=1))
    assert seen == [(phi, n - 1)]


@pytest.mark.parametrize("spoil", ["middle", "last", "every", "nan"])
@pytest.mark.parametrize("phi", [0.9, -0.5])
def test_ar1_keeps_the_bits_of_the_listed_form_from_spoiled_starts(monkeypatch, spoil, phi):
    guess = hk.generators._ar1_starts

    def spoiled(eps, phi, x):
        starts = guess(eps, phi, x)
        if spoil == "middle":
            starts[starts.size // 2] += 1.0
        elif spoil == "last":
            starts[-1] += 1.0
        elif spoil == "every":
            starts += 1.0
        else:
            starts[starts.size // 2] = np.nan
        return starts

    monkeypatch.setattr(hk.generators, "_ar1_starts", spoiled)
    seen = _spy_on_the_loop(monkeypatch)
    spec = Ar1Spec(phi=phi, n=300_000, seed=7)  # two spans at both phis
    assert gen_ar1(spec).values.tobytes() == _ar1_listed(spec).tobytes()
    block, checks = hk.generators._ar1_plan(phi, spec.n)
    path = [size for coefficient, size in seen if coefficient == phi]
    assert sum(path) >= (spec.n - 1) % block + block - checks  # the loop finished a spoiled block


@pytest.mark.parametrize("spoiled", [{0}, {1}, {0, 1}])
@pytest.mark.parametrize("phi", [0.9, -0.5])
def test_ar1_loop_redoes_each_spoiled_span_once(monkeypatch, spoiled, phi):
    guess = hk.generators._ar1_starts
    spans = []  # points per span, in order

    def spoil(eps, phi, x):
        starts = guess(eps, phi, x)
        if len(spans) in spoiled:
            starts[starts.size // 2] += 1.0
        spans.append((eps.shape[0] + 1) * eps.shape[1])
        return starts

    monkeypatch.setattr(hk.generators, "_ar1_starts", spoil)
    seen = _spy_on_the_loop(monkeypatch)
    spec = Ar1Spec(phi=phi, n=300_000, seed=7)  # two spans at both phis
    assert gen_ar1(spec).values.tobytes() == _ar1_listed(spec).tobytes()
    assert len(spans) == 2
    tail = spec.n - 1 - sum(spans)
    assert [size for coefficient, size in seen if coefficient == phi] == [spans[i] for i in sorted(spoiled)] + [tail]


def test_ar1_block_check_compares_bits_not_values(monkeypatch):
    # innovations of -0.0 keep a path's zero sign: from +0.0 the path is +0.0
    # throughout, while a block guessed to start at -0.0 stays at -0.0, an equal value
    monkeypatch.setattr(hk.generators, "_ar1_starts", lambda eps, phi, x: np.full(eps.shape[0], -0.0))
    n = 32 * 128 + 1
    path = np.full(n, -0.0)
    path[0] = 0.0
    assert hk.generators._ar1_blocks(path, 0.5, *hk.generators._ar1_plan(0.5, n)) == n - 1
    assert not np.signbit(path).any()
