"""Receiver-side DSP primitives: band-split filters, resampling, STFT, Mel.

The band split separates speech (lowpass 8 kHz) from the ultrasound band
(highpass 16 kHz) with 8th-order elliptic IIR cascades.  The ultrasound STFT
runs at 48 kHz with a 4096-point FFT (11.71875 Hz per bin); speech is
decimated to 16 kHz and reduced to 128 log-Mel bands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as sig

from .sensing import SampleBuffer, _readonly

ULTRA_N_FFT = 4096
ULTRA_WIN = 4080
ULTRA_HOP = 240
MEL_FS = 16000.0
MEL_N_FFT = 1024
MEL_WIN = 400
MEL_HOP = 80
LOG_FLOOR = 1e-10
# Complex STFT output held at once by the block paths: 255 frames at
# n_fft = 4096, 1022 at 1024.
STFT_BLOCK_BYTES = 8 * 2 ** 20


@dataclass(frozen=True)
class FilterCascade:
    """IIR filter as cascaded second-order sections.

    ``sos`` has one row per biquad: [b0, b1, b2, 1, a1, a2].  Every section
    must be stable (poles strictly inside the unit circle).
    """

    sos: np.ndarray
    fs: float
    kind: str
    cutoff: float
    passband_ripple_db: float
    stopband_atten_db: float

    def __post_init__(self):
        s = np.asarray(self.sos, dtype=np.float64)
        if s.ndim != 2 or s.shape[1] != 6:
            raise ValueError("sos must be an (n_sections, 6) array")
        for row in s:
            poles = np.roots([row[3], row[4], row[5]])
            if np.any(np.abs(poles) >= 1.0):
                raise ValueError("unstable section: pole on or outside unit circle")
        object.__setattr__(self, "sos", _readonly(s))

    @property
    def n_sections(self) -> int:
        return self.sos.shape[0]


@dataclass(frozen=True)
class ComplexSpectrogram:
    """T x F one-sided complex STFT frames with their analysis parameters."""

    frames: np.ndarray
    n_fft: int
    win_len: int
    hop: int
    fs: float
    window_kind: str

    def __post_init__(self):
        f = np.asarray(self.frames)
        if f.ndim != 2 or f.shape[1] != self.n_fft // 2 + 1:
            raise ValueError("frames must be T x (n_fft/2 + 1)")
        object.__setattr__(self, "frames", _readonly(np.ascontiguousarray(f)))

    @property
    def bin_hz(self) -> float:
        """Exact frequency resolution; 11.71875 Hz for (48 kHz, 4096)."""
        return self.fs / self.n_fft

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    def magnitude(self) -> np.ndarray:
        return np.abs(self.frames)


@dataclass(frozen=True)
class MelFeature:
    """T x n_mels matrix of log-Mel energies (natural log, floored)."""

    frames: np.ndarray
    fs: float
    hop: int
    mel_fmin: float
    mel_fmax: float

    def __post_init__(self):
        f = np.asarray(self.frames, dtype=np.float64)
        if f.ndim != 2:
            raise ValueError("frames must be 2-D")
        if not np.all(np.isfinite(f)):
            raise ValueError("Mel frames must be finite")
        object.__setattr__(self, "frames", _readonly(f))

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def design_elliptic(order: int, kind: str, cutoff: float, fs: float,
                    ripple_db: float = 0.5, atten_db: float = 60.0) -> FilterCascade:
    """Design an elliptic (Cauer) filter as a biquad cascade.

    Equiripple passband within ``ripple_db`` and stopband rejection of at
    least ``atten_db``.  ``kind`` is "lowpass" or "highpass"; ``cutoff`` is
    the passband-edge frequency.
    """
    if kind not in ("lowpass", "highpass"):
        raise ValueError("kind must be 'lowpass' or 'highpass'")
    if not 0 < cutoff < fs / 2:
        raise ValueError(f"cutoff {cutoff} Hz must lie in (0, {fs / 2}) Hz")
    if order < 1:
        raise ValueError("order must be at least 1")
    btype = "low" if kind == "lowpass" else "high"
    sos = sig.ellip(order, ripple_db, atten_db, cutoff / (fs / 2),
                    btype=btype, output="sos")
    return FilterCascade(sos, fs, kind, cutoff, ripple_db, atten_db)


def frequency_response(filt: FilterCascade, freqs_hz: np.ndarray) -> np.ndarray:
    """Evaluate H(e^{j*2*pi*f/fs}) section by section from the coefficients."""
    f = np.asarray(freqs_hz, dtype=np.float64)
    zinv = np.exp(-2j * np.pi * f / filt.fs)
    h = np.ones_like(zinv)
    for b0, b1, b2, a0, a1, a2 in filt.sos:
        h *= (b0 + b1 * zinv + b2 * zinv ** 2) / (a0 + a1 * zinv + a2 * zinv ** 2)
    return h


def filter_apply(filt: FilterCascade, x: SampleBuffer) -> SampleBuffer:
    """Run the cascade over x (direct-form II transposed, zero initial state)."""
    if x.fs != filt.fs:
        raise ValueError("sample rate of signal does not match filter design rate")
    # sosfilt needs a writable sos (ours is frozen); it copies x itself
    y = sig.sosfilt(np.array(filt.sos), x.samples)
    return SampleBuffer(x.fs, y)


def _kaiser_sinc(n_taps: int, cutoff: float, fs: float, beta: float) -> np.ndarray:
    n = np.arange(n_taps) - (n_taps - 1) / 2
    h = (2 * cutoff / fs) * np.sinc(2 * cutoff / fs * n)
    return h * np.kaiser(n_taps, beta)


def resample_rational(x: SampleBuffer, up: int, down: int,
                      atten_db: float = 80.0) -> SampleBuffer:
    """Polyphase rational resampling with a Kaiser-windowed-sinc anti-alias
    filter.

    The filter is designed at the virtual rate fs*up with unity DC gain,
    cutoff at 0.96x the output Nyquist and an 0.08x-Nyquist transition band;
    the polyphase engine compensates the group delay, so output sample j
    corresponds to input time j*down/(fs*up).  Output length is
    ceil(len(x)*up/down).
    """
    if up < 1 or down < 1:
        raise ValueError("up and down must be positive integers")
    g = np.gcd(up, down)
    up, down = up // g, down // g
    if len(x) == 0:
        return SampleBuffer(x.fs * up / down, np.zeros(0))
    fs_virtual = x.fs * up
    nyq_out = min(x.fs / 2, x.fs * up / down / 2)
    cutoff = 0.96 * nyq_out
    transition = 0.08 * nyq_out
    beta = 0.1102 * (atten_db - 8.7)
    n_taps = int(np.ceil((atten_db - 8) / (2.285 * 2 * np.pi * transition / fs_virtual)))
    n_taps |= 1  # odd length keeps the filter symmetric about one tap
    h = _kaiser_sinc(n_taps, cutoff, fs_virtual, beta)
    y = sig.resample_poly(x.samples, up, down, window=h)
    return SampleBuffer(x.fs * up / down, y)


def resample_3to1(x: SampleBuffer) -> SampleBuffer:
    """Anti-aliased decimation from 48 kHz to 16 kHz."""
    if x.fs != 48000:
        raise ValueError("resample_3to1 expects a 48 kHz input")
    return resample_rational(x, 1, 3)


def make_window(kind: str, n: int) -> np.ndarray:
    """Periodic (DFT-even) analysis windows.

    The periodic form puts a tone on an exact bin with zero leakage beyond
    its immediate neighbours, which is what the static-bin exclusion in the
    feature extractor relies on.
    """
    k = np.arange(n)
    if kind == "hann":
        return 0.5 - 0.5 * np.cos(2 * np.pi * k / n)
    if kind == "hamming":
        return 0.54 - 0.46 * np.cos(2 * np.pi * k / n)
    if kind in ("rect", "rectangular", "boxcar"):
        return np.ones(n)
    raise ValueError(f"unknown window kind {kind!r}")


def stft(x: SampleBuffer, n_fft: int = ULTRA_N_FFT, win_len: int = ULTRA_WIN,
         hop: int = ULTRA_HOP, window_kind: str = "hann") -> ComplexSpectrogram:
    """One-sided STFT without center padding.

    Frame t covers samples [t*hop, t*hop + win_len); the window is applied
    and the frame zero-padded to n_fft, giving T = (len - win_len)//hop + 1
    frames.
    """
    if win_len > n_fft:
        raise ValueError("win_len must not exceed n_fft")
    if hop < 1:
        raise ValueError("hop must be at least 1")
    if len(x) < win_len:
        raise ValueError(f"signal ({len(x)} samples) shorter than one window ({win_len})")
    w = make_window(window_kind, win_len)
    n_frames = (len(x) - win_len) // hop + 1
    strided = np.lib.stride_tricks.sliding_window_view(x.samples, win_len)[::hop]
    frames = np.fft.rfft(strided[:n_frames] * w, n=n_fft, axis=1)
    return ComplexSpectrogram(frames, n_fft, win_len, hop, x.fs, window_kind)


def _stft_blocks(x: SampleBuffer, n_fft: int, win_len: int, hop: int,
                 window_kind: str):
    """Yield ``stft(x)`` over consecutive frame blocks.

    The frames are split into the fewest equal-sized blocks (sizes differ by
    at most one) whose complex output fits STFT_BLOCK_BYTES.  Block [t0, t1)
    is the STFT of samples [t0*hop, (t1-1)*hop + win_len), so the blocks
    concatenate to the one-shot frames bit for bit.  Equal sizes leave no
    short tail block: BLAS multiplies a matrix of a few rows with another
    kernel, which would round a consumer's matmul differently from the
    one-shot call.  Arguments ``stft`` rejects (including a signal shorter
    than one window) reach it in the first block and raise the same error.
    """
    n_frames = (len(x) - win_len) // hop + 1 if hop >= 1 and len(x) >= win_len else 1
    per_block = max(1, STFT_BLOCK_BYTES // (16 * (n_fft // 2 + 1)))
    n_blocks = -(-n_frames // per_block)
    bounds = [n_frames * i // n_blocks for i in range(n_blocks + 1)]
    for t0, t1 in zip(bounds, bounds[1:]):
        block = SampleBuffer(x.fs, x.samples[t0 * hop:(t1 - 1) * hop + win_len])
        yield stft(block, n_fft=n_fft, win_len=win_len, hop=hop, window_kind=window_kind)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, fs: float,
                   fmin: float = 0.0, fmax: float | None = None) -> np.ndarray:
    """Triangular Mel filterbank, (n_mels, n_fft//2 + 1).

    Filters are triangles with peaks at Mel-spaced center frequencies;
    adjacent triangles meet exactly at each other's edges (filter m spans
    the centers of filters m-1 and m+1).  No area normalization.
    """
    if fmax is None:
        fmax = fs / 2
    if not 0 <= fmin < fmax <= fs / 2:
        raise ValueError("need 0 <= fmin < fmax <= fs/2")
    if n_mels < 1:
        raise ValueError("n_mels must be at least 1")
    edges = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    bin_freqs = np.arange(n_fft // 2 + 1) * fs / n_fft
    fb = np.zeros((n_mels, len(bin_freqs)))
    for m in range(n_mels):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        rising = (bin_freqs - lo) / (mid - lo)
        falling = (hi - bin_freqs) / (hi - mid)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


def mel_spectrogram(x: SampleBuffer, n_mels: int = 128, n_fft: int = MEL_N_FFT,
                    win_len: int = MEL_WIN, hop: int = MEL_HOP,
                    fmin: float = 0.0, fmax: float = 8000.0,
                    window_kind: str = "hann",
                    log_floor: float = LOG_FLOOR) -> MelFeature:
    """Log-Mel energies of a 16 kHz signal, one frame per hop (5 ms default).

    Power STFT -> triangular Mel filterbank -> natural log with an absolute
    floor so all values stay finite.  The STFT is taken in blocks of
    STFT_BLOCK_BYTES and each block is reduced to Mel bands before the next
    is computed, so the working set does not grow with the signal; the
    frames equal the one-shot computation bit for bit.
    """
    if x.fs != MEL_FS:
        raise ValueError("mel_spectrogram expects a 16 kHz input")
    fb = mel_filterbank(n_mels, n_fft, x.fs, fmin, fmax)
    frames = [np.log(np.maximum(np.abs(spec.frames) ** 2 @ fb.T, log_floor))
              for spec in _stft_blocks(x, n_fft, win_len, hop, window_kind)]
    return MelFeature(np.concatenate(frames), x.fs, hop, fmin, fmax)
