"""Period selection and band-noise augmentation against a naive O(n^2)
DFT oracle."""
import numpy as np
import pytest

from periflow.series import MultivariateSeries
from periflow.spectral import (SpectralError, discover_global_period,
                               intervene, periodicity_strength, top_k_periods)


def naive_dft(x):
    """Brute-force unnormalized DFT; the independent oracle."""
    x = np.asarray(x, dtype=complex)
    n = x.shape[0]
    f = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(f, f) / n)
    return basis @ x


def test_constant_signal_dc_only():
    # a constant's energy sits in the excluded DC bin: one pick, no amplitude
    ps = top_k_periods(np.full(8, 4.0), 3)
    assert ps.k == 1
    np.testing.assert_allclose(ps.weights, 0.0, atol=1e-12)


def test_cosine_peak_bin():
    n = 64
    x = np.cos(2 * np.pi * np.arange(n) / 8.0)
    ps = top_k_periods(x, 1)
    assert ps.frequencies == (8,) and ps.periods == (8,)
    # closed form: a pure cosine of integer frequency concentrates n/2 per line
    np.testing.assert_allclose(ps.weights[0], n / 2, rtol=1e-9)


def test_fft_matches_naive_dft():
    # odd length, one channel: the picked amplitudes are unnormalized DFT lines
    rng = np.random.default_rng(3)
    x = rng.normal(size=37)
    ps = top_k_periods(x, 5)
    amp = np.abs(naive_dft(x))
    np.testing.assert_allclose(ps.weights, amp[list(ps.frequencies)], atol=1e-9)
    assert min(ps.weights) >= max(np.delete(amp[1:19], np.array(ps.frequencies) - 1))


def test_roundtrip_identity():
    # one-channel input takes the squeeze path and comes back unchanged
    x = np.random.default_rng(4).normal(size=100)
    back = intervene(x, sigma=0.0, rng=np.random.default_rng(0))
    assert back.shape == x.shape
    assert np.max(np.abs(back - x)) < 1e-9


def test_fft_linearity():
    # the transform is linear, so the augmentation adds the same noise
    # whatever the window holds
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(2, 50, 2))
    dx = intervene(x, sigma=0.3, rng=np.random.default_rng(9)) - x
    dy = intervene(2.5 * y, sigma=0.3, rng=np.random.default_rng(9)) - 2.5 * y
    np.testing.assert_allclose(dx, dy, atol=1e-9)


def test_parseval():
    # a pure tone A*sin at bin f has time energy n*A^2/2 and one picked
    # line of amplitude n*A/2, so energy = 2 * weight^2 / n
    n, amp = 128, 1.7
    x = amp * np.sin(2 * np.pi * 5 * np.arange(n) / n)
    ps = top_k_periods(x, 1)
    np.testing.assert_allclose(np.sum(x ** 2), 2 * ps.weights[0] ** 2 / n, rtol=1e-9)


def _sine_series(t_l=200, period=20, amp=1.0, dims=1, extra=None):
    t = np.arange(t_l)
    base = amp * np.sin(2 * np.pi * t / period)
    if extra is not None:
        base = base + extra
    vals = np.tile(base[:, None], (1, dims))
    return MultivariateSeries(vals, t)


def test_global_period_pure_sine():
    s = _sine_series()
    assert discover_global_period(s) == 20


def test_global_period_amplitude_dominance():
    t = np.arange(200)
    mix = 3.0 * np.sin(2 * np.pi * t / 20) + 1.0 * np.sin(2 * np.pi * t / 5)
    s = MultivariateSeries(mix[:, None], t)
    # oracle: strongest non-DC line of the brute-force spectrum
    amp = np.abs(naive_dft(mix))
    f = int(np.argmax(amp[1:101])) + 1
    assert int(np.ceil(200 / f)) == 20
    assert discover_global_period(s) == 20


def test_global_period_averages_across_dims():
    t = np.arange(200)
    a = 2.0 * np.sin(2 * np.pi * t / 20)
    b = 4.0 * np.sin(2 * np.pi * t / 20 + 0.5)
    s = MultivariateSeries(np.column_stack([a, b]), t)
    assert discover_global_period(s) == 20


def test_global_period_scale_invariant():
    s = _sine_series()
    scaled = MultivariateSeries(s.values * 137.0, s.timestamps)
    assert discover_global_period(scaled) == discover_global_period(s)


def test_global_period_rejects_constant():
    s = MultivariateSeries(np.ones((50, 2)), np.arange(50))
    with pytest.raises(SpectralError, match="constant"):
        discover_global_period(s)


def test_top_k_two_lines():
    t = np.arange(120)
    x = 2.0 * np.sin(2 * np.pi * t / 30) + 1.0 * np.sin(2 * np.pi * t / 8)
    ps = top_k_periods(x, 2)
    assert set(ps.frequencies) == {4, 15}
    assert ps.periods[0] == 30  # strongest line first
    assert ps.k == 2


def test_top_k_consistent_with_global_period():
    s = _sine_series(t_l=120)
    ps = top_k_periods(s.values, 1)
    assert ps.periods[0] == discover_global_period(s)


def test_top_k_matches_sorted_spectrum_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(100, 2))
    ps = top_k_periods(x, 3)
    amp = np.mean([np.abs(naive_dft(x[:, c])) for c in range(2)], axis=0)
    oracle = np.argsort(-amp[1:51], kind="stable")[:3] + 1
    assert list(ps.frequencies) == list(oracle)
    np.testing.assert_allclose(ps.weights, amp[list(oracle)], atol=1e-9)


def test_top_k_short_count_on_pure_tone():
    t = np.arange(60)
    x = np.sin(2 * np.pi * t / 20)
    ps = top_k_periods(x, 3)
    assert ps.k == 1 and ps.periods == (20,)


def test_intervene_zero_sigma_is_roundtrip():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(60, 3))
    out = intervene(x, sigma=0.0, rng=rng)
    assert np.max(np.abs(out - x)) < 1e-9


def test_intervene_preserves_low_band():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(60, 2))
    out = intervene(x, k_h_frac=0.25, sigma=0.5, rng=rng)
    k_h = round(0.25 * 60)
    diff = np.abs(np.fft.fft(out, axis=0) - np.fft.fft(x, axis=0))
    assert np.max(diff[:k_h]) < 1e-8


def test_intervene_noise_scale():
    rng = np.random.default_rng(11)
    x = np.zeros((64, 1))
    sigma = 0.1
    k_h = round(0.25 * 64)
    reals, imags = [], []
    for _ in range(1000):
        out = intervene(x, sigma=sigma, rng=rng)
        spec = np.fft.fft(out, axis=0)
        reals.append(spec[k_h:32, 0].real)
        imags.append(spec[k_h:32, 0].imag)
    assert abs(np.std(reals) - sigma) < 0.15 * sigma
    assert abs(np.std(imags) - sigma) < 0.15 * sigma


def test_intervene_output_is_real_valued():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(59, 2))  # odd length exercises the mirroring
    out = intervene(x, sigma=1.0, rng=rng)
    assert out.dtype == np.float64 and out.shape == x.shape


def test_intervene_rejects_negative_sigma():
    with pytest.raises(SpectralError):
        intervene(np.zeros((10, 1)), sigma=-1.0)


def test_periodicity_strength_pure_sine():
    t = np.arange(400)
    x = np.sin(2 * np.pi * t / 20)
    assert periodicity_strength(x, 20) > 0.95


def test_periodicity_strength_white_noise():
    scores = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        scores.append(periodicity_strength(rng.normal(size=400), 20))
    assert np.mean(scores) < 0.2


def test_periodicity_strength_zero_signal():
    assert periodicity_strength(np.zeros(100), 10) == 0.0


def test_periodicity_strength_too_short():
    with pytest.raises(SpectralError):
        periodicity_strength(np.zeros(30), 20)

