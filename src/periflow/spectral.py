"""Frequency-domain utilities: period selection, band-noise augmentation,
and a seasonal-strength diagnostic.

`top_k_periods` is the one period picker: the k strongest bins of the
channel-averaged amplitude spectrum (unnormalized numpy real FFT, bins
0..T//2), exactly k per window, as (B, k) arrays. The factor miner ranks
the spectrum of its embedded windows without embedding them: it maps the
input's spectrum through the embedding weights, and gets the input's
spectrum at the picks back for the amplitude weights. The global period
of a series is its top-1 pick of the raw series. The DC bin never
participates in period selection because it encodes the mean, not a
rhythm.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .autodiff import array_mean
from .series import MultivariateSeries


# windows per rfft in `top_k_periods`: at T=60 a block's mixed spectrum
# into C=32 channels takes about 0.5 MB
_RFFT_BLOCK = 32


class SpectralError(ValueError):
    pass


class Picks(NamedTuple):
    """The k picks of each window of a batch, strongest first: bins
    (B, k), periods ceil(T/f) (B, k), channel-averaged amplitudes (B, k)
    and the unmixed input's rfft at the picked bins (B, k, C), complex."""

    frequencies: np.ndarray
    periods: np.ndarray
    amplitudes: np.ndarray
    spectrum: np.ndarray


def top_k_periods(x: np.ndarray, k: int, mix: np.ndarray | None = None) -> Picks:
    """k largest-amplitude bins (channel-averaged, DC excluded) of each
    window of a (B, T, C) batch, or of its channels mapped through a
    (C, C') matrix `mix`: the rfft is linear, so the bins of x @ mix are
    rfft(x) @ mix, and an added constant only moves the DC bin.

    Candidate bins are the non-redundant half 1..T//2; amplitudes of at
    most 1e-12 read as zero and ties resolve to the lower bin, so a window
    with fewer than k energetic bins fills its remaining picks with its
    lowest unpicked bins (a constant window picks 1..k).
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise SpectralError(f"top_k_periods expects (B, T, C), got shape {x.shape}")
    b, t, c = x.shape
    if not 1 <= k < t / 2:
        raise SpectralError(f"k must satisfy 1 <= k < T/2, got k={k}, T={t}")
    freqs = np.empty((b, k), dtype=np.intp)
    amplitudes = np.empty((b, k))
    spectrum = np.empty((b, k, c), dtype=np.complex128)
    # a block of windows at a time: its float64 copy and spectra stay in
    # cache, and no float64 copy of the whole batch is made
    for lo in range(0, b, _RFFT_BLOCK):
        spec = np.fft.rfft(np.asarray(x[lo:lo + _RFFT_BLOCK], dtype=np.float64), axis=1)
        amp = array_mean(np.abs(spec if mix is None else spec @ mix), 2)
        band = amp[:, 1:]
        # f <= T//2, so every period ceil(T/f) is at least 2
        picked = np.argsort(np.where(band > 1e-12, -band, 0.0), axis=1,
                            kind="stable")[:, :k] + 1
        at = np.arange(len(picked))[:, None], picked
        freqs[lo:lo + _RFFT_BLOCK] = picked
        amplitudes[lo:lo + _RFFT_BLOCK] = amp[at]
        spectrum[lo:lo + _RFFT_BLOCK] = spec[at]
    return Picks(freqs, -(-t // freqs), amplitudes, spectrum)


def discover_global_period(series: MultivariateSeries) -> int:
    """Dominant period of the full series: the top-1 pick of `top_k_periods`,
    ceil(T_l / f) for the strongest non-DC bin f."""
    values = series.values
    if series.length < 4:
        raise SpectralError("need at least 4 samples to discover a period")
    if np.allclose(values, values[0], rtol=0.0, atol=1e-12):
        raise SpectralError("constant series has no dominant frequency")
    return int(top_k_periods(values[None], 1)[1][0, 0])


def intervene(x: np.ndarray, k_h_frac: float, sigma: float, noise: str,
              rng: np.random.Generator) -> np.ndarray:
    """Perturb the high frequency band of each (T, D) window of a (B, T, D)
    batch and transform back.

    The spectrum splits at bin k_h = round(k_h_frac * T). Noise with
    per-component scale sigma lands on bins k_h..T//2; conjugate symmetry
    is maintained so the output stays real, which leaves the low band and
    its mirror images clean. The draws come window by window and, within a
    window, bin by bin: the real part, then the imaginary part, which a
    self-conjugate bin does not get.
    """
    if sigma < 0:
        raise SpectralError("sigma must be non-negative")
    if not 0 < k_h_frac < 1:
        raise SpectralError("k_h_frac must lie in (0, 1)")
    if noise not in ("gaussian", "laplace"):
        raise SpectralError(f"unknown noise type {noise!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise SpectralError(f"intervene expects (B, T, D), got shape {x.shape}")
    b, t, d = x.shape
    half = t // 2
    k_h = min(max(int(round(k_h_frac * t)), 1), half)
    bins = np.arange(k_h, half + 1)
    # only the last bin can be its own mirror: Nyquist for even T, DC for T=1
    n_im = len(bins) - int((t - half) % t == half)
    size = (b, len(bins) + n_im, d)
    raw = (rng.standard_normal(size) if noise == "gaussian"
           else rng.laplace(0.0, 1.0 / np.sqrt(2.0), size=size))
    re = sigma * raw[:, 0::2]
    im = np.zeros_like(re)
    im[:, :n_im] = sigma * raw[:, 1::2]
    eta = re + 1j * im

    spec = np.fft.fft(x, axis=1)
    spec[:, bins] += eta
    spec[:, t - bins[:n_im]] += np.conj(eta[:, :n_im])
    return np.fft.ifft(spec, axis=1).real


def periodicity_strength(x: np.ndarray, seasonal_period: int) -> float:
    """Seasonal-to-noise strength in [0, 1] of one channel.

    Decomposes with a centered moving-average trend and per-phase seasonal
    means, then returns max(0, 1 - Var(residual) / Var(seasonal+residual)).
    A flat decomposition (zero variance) scores 0.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    p = int(seasonal_period)
    if p < 2:
        raise SpectralError("seasonal period must be >= 2")
    if x.size < 2 * p:
        raise SpectralError(f"need at least {2 * p} samples for period {p}")

    # Centered MA of width p (classic 2xMA for even p keeps it centered).
    if p % 2 == 1:
        kernel = np.full(p, 1.0 / p)
    else:
        kernel = np.full(p + 1, 1.0 / p)
        kernel[0] = kernel[-1] = 0.5 / p
    pad = len(kernel) // 2
    padded = np.concatenate([np.full(pad, x[0]), x, np.full(pad, x[-1])])
    trend = np.convolve(padded, kernel, mode="valid")

    detrended = x - trend
    phases = np.arange(x.size) % p
    seasonal = np.zeros_like(x)
    for ph in range(p):
        idx = phases == ph
        seasonal[idx] = detrended[idx].mean()
    seasonal -= seasonal.mean()
    residual = detrended - seasonal

    denom = np.var(seasonal + residual)
    if denom < 1e-12:
        return 0.0
    return float(max(0.0, 1.0 - np.var(residual) / denom))
