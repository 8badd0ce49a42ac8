"""Period selection and band-noise augmentation against a naive O(n^2)
DFT oracle, and the batched paths against window-at-a-time oracles."""
import numpy as np
import pytest

from periflow.spectral import (SpectralError, discover_global_period, intervene,
                               periodicity_strength, top_k_periods)


def naive_dft(x):
    """Brute-force unnormalized DFT; the independent oracle."""
    x = np.asarray(x, dtype=complex)
    n = x.shape[0]
    f = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(f, f) / n)
    return basis @ x


def top_k_oracle(x, k):
    """One (T, C) window at a time, bin by bin: the reference picker.

    The energetic bins (amplitude above 1e-12) come first, strongest first;
    the remaining picks are the lowest other bins."""
    t = x.shape[0]
    amp = np.abs(np.fft.rfft(x, axis=0)).mean(axis=1)
    band = amp[1:t // 2 + 1]
    energetic = [int(i) + 1 for i in np.argsort(-band, kind="stable")
                 if band[i] > 1e-12]
    rest = [f for f in range(1, t // 2 + 1) if f not in energetic]
    freqs = (energetic + rest)[:k]
    return (freqs, [int(np.ceil(t / f)) for f in freqs],
            np.array([amp[f] for f in freqs]))


def intervene_oracle(x, k_h_frac, sigma, noise, rng):
    """One (T, D) window at a time, bin by bin, drawing in that order: the
    reference augmentation."""
    t, d = x.shape
    k_h = min(max(int(round(k_h_frac * t)), 1), t // 2)
    spec = np.fft.fft(x, axis=0)
    draw = rng.standard_normal if noise == "gaussian" else (
        lambda size: rng.laplace(0.0, 1.0 / np.sqrt(2.0), size=size))
    for b in range(k_h, t // 2 + 1):
        self_conjugate = b == 0 or (t % 2 == 0 and b == t // 2)
        re = sigma * draw((d,))
        im = 0.0 if self_conjugate else sigma * draw((d,))
        eta = re + 1j * im
        spec[b] += eta
        if not self_conjugate:
            spec[t - b] += np.conj(eta)
    return np.fft.ifft(spec, axis=0).real


def test_constant_signal_dc_only():
    # a constant's energy sits in the excluded DC bin: no band bin carries
    # energy, so the k picks are the lowest bins, with no amplitude
    freqs, periods, weights, _ = top_k_periods(np.full((1, 8, 1), 4.0), 3)
    assert freqs.tolist() == [[1, 2, 3]] and periods.tolist() == [[8, 4, 3]]
    np.testing.assert_allclose(weights, 0.0, atol=1e-12)


def test_cosine_peak_bin():
    n = 64
    x = np.cos(2 * np.pi * np.arange(n) / 8.0)
    freqs, periods, weights, _ = top_k_periods(x[None, :, None], 1)
    assert freqs.tolist() == [[8]] and periods.tolist() == [[8]]
    # closed form: a pure cosine of integer frequency concentrates n/2 per line
    np.testing.assert_allclose(weights[0, 0], n / 2, rtol=1e-9)


def test_fft_matches_naive_dft():
    # odd length, one channel: the picked amplitudes are unnormalized DFT lines
    rng = np.random.default_rng(3)
    x = rng.normal(size=37)
    freqs, _, weights, _ = top_k_periods(x[None, :, None], 5)
    amp = np.abs(naive_dft(x))
    np.testing.assert_allclose(weights[0], amp[freqs[0]], atol=1e-9)
    assert min(weights[0]) >= max(np.delete(amp[1:19], freqs[0] - 1))


def test_roundtrip_identity():
    # a one-channel window comes back unchanged
    x = np.random.default_rng(4).normal(size=(1, 100, 1))
    back = intervene(x, k_h_frac=0.25, sigma=0.0, noise="gaussian",
                     rng=np.random.default_rng(0))
    assert back.shape == x.shape
    assert np.max(np.abs(back - x)) < 1e-9


def test_fft_linearity():
    # the transform is linear, so the augmentation adds the same noise
    # whatever the window holds
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(2, 1, 50, 2))
    dx = intervene(x, k_h_frac=0.25, sigma=0.3, noise="gaussian",
                   rng=np.random.default_rng(9)) - x
    dy = intervene(2.5 * y, k_h_frac=0.25, sigma=0.3, noise="gaussian",
                   rng=np.random.default_rng(9)) - 2.5 * y
    np.testing.assert_allclose(dx, dy, atol=1e-9)


def test_parseval():
    # a pure tone A*sin at bin f has time energy n*A^2/2 and one picked
    # line of amplitude n*A/2, so energy = 2 * weight^2 / n
    n, amp = 128, 1.7
    x = amp * np.sin(2 * np.pi * 5 * np.arange(n) / n)
    _, _, weights, _ = top_k_periods(x[None, :, None], 1)
    np.testing.assert_allclose(np.sum(x ** 2), 2 * weights[0, 0] ** 2 / n, rtol=1e-9)


def _sine_series(t_l=200, period=20, amp=1.0, dims=1, extra=None):
    t = np.arange(t_l)
    base = amp * np.sin(2 * np.pi * t / period)
    if extra is not None:
        base = base + extra
    return np.tile(base[:, None], (1, dims))


def test_global_period_pure_sine():
    assert discover_global_period(_sine_series()) == 20


def test_global_period_amplitude_dominance():
    t = np.arange(200)
    mix = 3.0 * np.sin(2 * np.pi * t / 20) + 1.0 * np.sin(2 * np.pi * t / 5)
    # oracle: strongest non-DC line of the brute-force spectrum
    amp = np.abs(naive_dft(mix))
    f = int(np.argmax(amp[1:101])) + 1
    assert int(np.ceil(200 / f)) == 20
    assert discover_global_period(mix[:, None]) == 20


def test_global_period_averages_across_dims():
    t = np.arange(200)
    a = 2.0 * np.sin(2 * np.pi * t / 20)
    b = 4.0 * np.sin(2 * np.pi * t / 20 + 0.5)
    assert discover_global_period(np.column_stack([a, b])) == 20


def test_global_period_scale_invariant():
    values = _sine_series()
    assert discover_global_period(values * 137.0) == discover_global_period(values)


def test_global_period_rejects_constant():
    with pytest.raises(SpectralError, match="constant"):
        discover_global_period(np.ones((50, 2)))


def test_top_k_two_lines():
    t = np.arange(120)
    x = 2.0 * np.sin(2 * np.pi * t / 30) + 1.0 * np.sin(2 * np.pi * t / 8)
    freqs, periods, _, _ = top_k_periods(x[None, :, None], 2)
    assert set(freqs[0].tolist()) == {4, 15}
    assert periods[0, 0] == 30  # strongest line first
    assert freqs.shape == periods.shape == (1, 2)


def test_top_k_consistent_with_global_period():
    values = _sine_series(t_l=120)
    _, periods, _, _ = top_k_periods(values[None], 1)
    assert periods[0, 0] == discover_global_period(values)


def test_top_k_matches_sorted_spectrum_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(100, 2))
    freqs, _, weights, _ = top_k_periods(x[None], 3)
    amp = np.mean([np.abs(naive_dft(x[:, c])) for c in range(2)], axis=0)
    oracle = np.argsort(-amp[1:51], kind="stable")[:3] + 1
    assert freqs[0].tolist() == oracle.tolist()
    np.testing.assert_allclose(weights[0], amp[oracle], atol=1e-9)


def test_top_k_pure_tone_fills_lowest_bins():
    # one line on bin 3; the other two picks are the lowest other bins
    t = np.arange(60)
    x = np.sin(2 * np.pi * t / 20)
    freqs, periods, _, _ = top_k_periods(x[None, :, None], 3)
    assert freqs.tolist() == [[3, 1, 2]] and periods.tolist() == [[20, 60, 30]]


def test_intervene_zero_sigma_is_roundtrip():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 60, 3))
    out = intervene(x, k_h_frac=0.25, sigma=0.0, noise="gaussian", rng=rng)
    assert np.max(np.abs(out - x)) < 1e-9


def test_intervene_preserves_low_band():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 60, 2))
    out = intervene(x, k_h_frac=0.25, sigma=0.5, noise="gaussian", rng=rng)
    k_h = round(0.25 * 60)
    diff = np.abs(np.fft.fft(out, axis=1) - np.fft.fft(x, axis=1))
    assert np.max(diff[:, :k_h]) < 1e-8


def test_intervene_noise_scale():
    rng = np.random.default_rng(11)
    x = np.zeros((1000, 64, 1))
    sigma = 0.1
    k_h = round(0.25 * 64)
    spec = np.fft.fft(intervene(x, k_h_frac=0.25, sigma=sigma, noise="gaussian", rng=rng),
                      axis=1)
    reals, imags = spec[:, k_h:32, 0].real, spec[:, k_h:32, 0].imag
    assert abs(np.std(reals) - sigma) < 0.15 * sigma
    assert abs(np.std(imags) - sigma) < 0.15 * sigma


def test_intervene_output_is_real_valued():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 59, 2))  # odd length exercises the mirroring
    out = intervene(x, k_h_frac=0.25, sigma=1.0, noise="gaussian", rng=rng)
    assert out.dtype == np.float64 and out.shape == x.shape


def test_intervene_rejects_negative_sigma():
    with pytest.raises(SpectralError):
        intervene(np.zeros((1, 10, 1)), k_h_frac=0.25, sigma=-1.0, noise="gaussian",
                  rng=np.random.default_rng(0))


def _mixed_batch(t, c, seed):
    """Random windows with a constant one (DC only), a pure tone (one
    line) and a two-tone one among them, so some windows have fewer
    energetic bins than picks."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(9, t, c))
    steps = np.arange(t)[:, None]
    x[2] = 3.0
    x[5] = np.sin(2 * np.pi * 3 * steps / t)
    x[7] = np.cos(2 * np.pi * 2 * steps / t) + 0.5 * np.sin(2 * np.pi * 5 * steps / t)
    return x


@pytest.mark.parametrize("t", [11, 12, 60, 61])
@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_top_k_batch_matches_per_window_oracle(t, c, k):
    x = _mixed_batch(t, c, seed=t * 10 + c)
    freqs, periods, weights, spectrum = top_k_periods(x, k)
    assert freqs.shape == periods.shape == weights.shape == (len(x), k)
    assert spectrum.shape == (len(x), k, c)
    for i, window in enumerate(x):
        ref_freqs, ref_periods, ref_weights = top_k_oracle(window, k)
        assert freqs[i].tolist() == ref_freqs
        assert periods[i].tolist() == ref_periods
        np.testing.assert_array_equal(weights[i], ref_weights)
        np.testing.assert_array_equal(spectrum[i], np.fft.rfft(window, axis=0)[ref_freqs])
    assert freqs[2].tolist() == [1, 2, 3][:k]  # the constant window
    assert freqs[5].tolist() == [3, 1, 2][:k]  # the pure tone


def _c09_windows(n, seed):
    """T=60, D=3 windows of sines of period 20 (amplitude 3) and 60
    (amplitude 1) with per-channel phases and 0.3 noise."""
    rng = np.random.default_rng(seed)
    steps = np.arange(60)[None, :, None] + rng.integers(0, 4000, size=(n, 1, 1))
    phase = rng.uniform(0, 2 * np.pi, size=(1, 1, 3))
    return (3.0 * np.sin(2 * np.pi * steps / 20 + phase)
            + np.sin(2 * np.pi * steps / 60 + 2 * phase)
            + 0.3 * rng.normal(size=(n, 60, 3)))


@pytest.mark.parametrize("x", [
    _c09_windows(256, seed=1),
    np.random.default_rng(2).normal(size=(64, 60, 32)),
    np.random.default_rng(3).normal(size=(64, 61, 3)),
    _mixed_batch(60, 3, seed=4),
    _mixed_batch(11, 1, seed=5),
], ids=["c09", "embedded", "odd_t", "mixed", "short"])
def test_rfft_picks_match_full_fft_picks(x):
    # the picks of x, and of x mapped through an embedding, against a full
    # FFT's of x and of the embedded windows x @ W + b
    t, k = x.shape[1], 3
    rng = np.random.default_rng(t)
    mix = rng.normal(size=(x.shape[2], 8))
    for given, oracle in ((None, x), (mix, x @ mix + rng.normal(size=8))):
        amp = np.abs(np.fft.fft(oracle, axis=1)).mean(axis=2)
        band = amp[:, 1:t // 2 + 1]
        band = np.where(band > 1e-12, band, 0.0)
        want = np.argsort(-band, axis=1, kind="stable")[:, :k] + 1
        freqs, periods, amplitudes, spectrum = top_k_periods(x, k, given)
        np.testing.assert_array_equal(freqs, want)
        np.testing.assert_array_equal(periods, -(-t // want))
        full = np.take_along_axis(amp, want, axis=1)
        energetic = full > 1e-12
        assert np.all(np.abs(amplitudes - full)[energetic]
                      <= 1e-12 * full[energetic])
        np.testing.assert_array_equal(
            spectrum, np.take_along_axis(np.fft.rfft(x, axis=1), want[:, :, None], axis=1))


@pytest.mark.parametrize("t", [1, 2, 3, 59, 60, 61])
@pytest.mark.parametrize("noise", ["gaussian", "laplace"])
def test_intervene_batch_matches_per_bin_oracle(t, noise):
    x = np.random.default_rng(t).normal(size=(5, t, 3))
    rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
    out = intervene(x, k_h_frac=0.25, sigma=0.7, noise=noise, rng=rng)
    ref = np.stack([intervene_oracle(w, 0.25, 0.7, noise, ref_rng) for w in x])
    np.testing.assert_array_equal(out, ref)
    # the batch drew exactly as many numbers as the loop
    np.testing.assert_array_equal(rng.standard_normal(4), ref_rng.standard_normal(4))


def test_spectral_rejects_unbatched_input():
    with pytest.raises(SpectralError, match=r"\(B, T, C\)"):
        top_k_periods(np.zeros((20, 2)), 1)
    with pytest.raises(SpectralError, match=r"\(B, T, D\)"):
        intervene(np.zeros((20, 2)), k_h_frac=0.25, sigma=0.1, noise="gaussian",
                  rng=np.random.default_rng(0))


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

