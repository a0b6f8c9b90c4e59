"""Objective evaluation: STOI, log-spectral distance, SSIM, SNR measurement.

STOI follows the published short-time objective intelligibility procedure:
10 kHz internal rate, removal of frames more than 40 dB below the loudest
clean frame, 15 one-third-octave bands from 150 Hz, 384 ms (30-frame)
segments with per-segment normalization and a -15 dB SDR clip, and a final
mean of band/segment envelope correlations.  PESQ is intentionally not
implemented (licensed reference algorithm); reports can merge externally
computed PESQ scores.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .sensing import SampleBuffer
from .dsp import resample_rational

STOI_FS = 10000
STOI_FRAME = 256
STOI_HOP = 128
STOI_N_FFT = 512
STOI_NUM_BANDS = 15
STOI_MIN_FREQ = 150.0
STOI_SEG_FRAMES = 30
STOI_BETA = -15.0
STOI_DYN_RANGE = 40.0
# segments per block: one bands x block x 30 float64 temporary is 1.8 MB
STOI_SEG_BLOCK = 512

LSD_EPS = 1e-10
SSIM_WINDOW = 8


def stoi(clean: SampleBuffer, processed: SampleBuffer) -> float:
    """Short-time objective intelligibility of processed speech vs clean.

    Both inputs must be 16 kHz and equally long; the clean signal decides
    which frames count as speech.  Raises if fewer than one 384 ms segment
    of active speech remains.  Segments are scored as arrays, in blocks of
    ``STOI_SEG_BLOCK``, bit-identical to scoring them one at a time.
    """
    if clean.fs != 16000 or processed.fs != 16000:
        raise ValueError("stoi expects 16 kHz inputs")
    if len(clean) != len(processed):
        raise ValueError("clean and processed must have equal length")
    if np.max(np.abs(clean.samples), initial=0.0) == 0.0:
        raise ValueError("clean signal is silent")
    x = resample_rational(clean, 5, 8).samples
    y = resample_rational(processed, 5, 8).samples
    x, y = _remove_silent_frames(x, y, STOI_DYN_RANGE, STOI_FRAME, STOI_HOP)
    spec_x = _stoi_stft(x)
    spec_y = _stoi_stft(y)
    n_frames = spec_x.shape[0]
    if n_frames < STOI_SEG_FRAMES:
        raise ValueError(
            f"input too short: {n_frames} active frames, "
            f"need {STOI_SEG_FRAMES} (one 384 ms segment)"
        )
    octband = _third_octave_bands(STOI_FS, STOI_N_FFT, STOI_NUM_BANDS, STOI_MIN_FREQ)
    xb = np.sqrt(octband @ (np.abs(spec_x) ** 2).T)  # bands x frames
    yb = np.sqrt(octband @ (np.abs(spec_y) ** 2).T)
    return _segment_score(xb, yb)


def lsd(s_ref: np.ndarray, s_est: np.ndarray, eps: float = LSD_EPS) -> float:
    """Log-spectral distance in dB between two magnitude spectrograms.

    Per frame, the RMS over frequency of 20*log10((est+eps)/(ref+eps)), then
    the mean over frames.  Symmetric in its arguments.
    """
    ref = np.asarray(s_ref, dtype=np.float64)
    est = np.asarray(s_est, dtype=np.float64)
    if ref.shape != est.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {est.shape}")
    if ref.ndim != 2:
        raise ValueError("expected T x F magnitude spectrograms")
    if np.min(ref) < 0 or np.min(est) < 0:
        raise ValueError("magnitudes must be nonnegative")
    ratio_db = 20.0 * np.log10((est + eps) / (ref + eps))
    per_frame = np.sqrt(np.mean(ratio_db ** 2, axis=1))
    return float(np.mean(per_frame))


def ssim(a: np.ndarray, b: np.ndarray, window: int = SSIM_WINDOW,
         rescale: bool = True) -> float:
    """Mean structural similarity over sliding windows (stride 1, uniform).

    With ``rescale`` the two matrices are jointly min-max scaled to [0, 1]
    before evaluation; the stability constants are C1=(0.01)^2, C2=(0.03)^2
    for dynamic range 1.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.ndim != 2 or min(x.shape) < window:
        raise ValueError(f"matrices must be 2-D with both dims >= {window}")
    if rescale:
        lo = min(x.min(), y.min())
        hi = max(x.max(), y.max())
        if hi == lo:
            return 1.0  # jointly constant and equal
        x = (x - lo) / (hi - lo)
        y = (y - lo) / (hi - lo)
    n = window * window
    mu_x = _box_sum(x, window) / n
    mu_y = _box_sum(y, window) / n
    var_x = _box_sum(x * x, window) / n - mu_x ** 2
    var_y = _box_sum(y * y, window) / n - mu_y ** 2
    cov = _box_sum(x * y, window) / n - mu_x * mu_y
    c1 = (0.01 * 1.0) ** 2
    c2 = (0.03 * 1.0) ** 2
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x ** 2 + mu_y ** 2 + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


def measure_snr(clean: SampleBuffer, noisy: SampleBuffer) -> float:
    """SNR of noisy relative to clean: 10*log10(sum c^2 / sum (noisy-c)^2).

    Returns +inf when noisy equals clean exactly (the distinguished "clean"
    result) and -inf for a silent clean reference.
    """
    if clean.fs != noisy.fs:
        raise ValueError("sample rates differ")
    if len(clean) != len(noisy):
        raise ValueError("lengths differ")
    residual = noisy.samples - clean.samples
    p_noise = float(np.sum(residual ** 2))
    p_clean = float(np.sum(clean.samples ** 2))
    if p_noise == 0.0:
        return math.inf
    if p_clean == 0.0:
        return -math.inf
    return 10.0 * math.log10(p_clean / p_noise)


@dataclass
class MetricReport:
    """Per-file metric record; serializes with a fixed field order."""

    id: str
    stoi: float | None = None
    lsd: float | None = None
    ssim: float | None = None
    snr_db: float | None = None
    pesq: float | None = None

    def to_record(self) -> dict:
        rec = {"id": self.id}
        for key in ("stoi", "lsd", "ssim", "snr_db"):
            val = getattr(self, key)
            if val is not None and math.isinf(val):
                val = "clean" if val > 0 else "silent-reference"
            rec[key] = None if val is None else val
        if self.pesq is not None:
            rec["pesq"] = self.pesq
        return rec

    def to_json_line(self) -> str:
        return json.dumps(self.to_record(), ensure_ascii=False)


# -- STOI internals ----------------------------------------------------------

def _matlab_hanning(n: int) -> np.ndarray:
    # symmetric Hann without the zero endpoints, as the reference uses
    return np.hanning(n + 2)[1:-1]


def _frame_signal(x: np.ndarray, frame: int, hop: int) -> np.ndarray:
    if len(x) < frame:
        return np.zeros((0, frame))
    n = (len(x) - frame) // hop + 1
    return np.lib.stride_tricks.sliding_window_view(x, frame)[::hop][:n]


def _remove_silent_frames(x, y, dyn_range, frame, hop):
    """Drop frames more than dyn_range dB below the loudest clean frame and
    overlap-add the kept windowed frames of both signals.

    The overlap-add is ``frame // hop`` strided slab adds (``frame`` must be
    a multiple of ``hop``), bit-identical to adding the frames one by one.
    """
    w = _matlab_hanning(frame)
    xf = _frame_signal(x, frame, hop) * w
    yf = _frame_signal(y, frame, hop) * w
    if xf.shape[0] == 0:
        return x, y
    energies = 20.0 * np.log10(np.linalg.norm(xf, axis=1) + np.finfo(np.float64).eps)
    mask = energies > energies.max() - dyn_range
    return _overlap_add(xf[mask], hop), _overlap_add(yf[mask], hop)


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    n, frame = frames.shape
    k = frame // hop
    assert k * hop == frame, "frame length must be a multiple of hop"
    out = np.zeros((n + k - 1 if n else 0, hop))
    # slice j of frame i lands on row i + j; adding the slices in descending
    # j adds each sample's terms in ascending frame order, as the frame loop did
    for j in reversed(range(k)):
        out[j:j + n] += frames[:, j * hop:(j + 1) * hop]
    return out.ravel()


def _stoi_stft(x: np.ndarray) -> np.ndarray:
    w = _matlab_hanning(STOI_FRAME)
    frames = _frame_signal(x, STOI_FRAME, STOI_HOP) * w
    return np.fft.rfft(frames, n=STOI_N_FFT, axis=1)


def _third_octave_bands(fs: int, n_fft: int, num_bands: int,
                        min_freq: float) -> np.ndarray:
    f = np.linspace(0, fs, n_fft + 1)[: n_fft // 2 + 1]
    k = np.arange(num_bands, dtype=np.float64)
    cf = min_freq * 2.0 ** (k / 3.0)
    f_low = cf * 2.0 ** (-1.0 / 6.0)
    f_high = cf * 2.0 ** (1.0 / 6.0)
    bands = np.zeros((num_bands, len(f)))
    for i in range(num_bands):
        lo = int(np.argmin((f - f_low[i]) ** 2))
        hi = int(np.argmin((f - f_high[i]) ** 2))
        bands[i, lo:hi] = 1.0
    return bands


def _segment_score(xb: np.ndarray, yb: np.ndarray) -> float:
    """Mean correlation over all 30-frame segments of the bands x frames
    envelopes xb (clean) and yb (processed, normalised and clipped per
    segment).  Each block of at most ``STOI_SEG_BLOCK`` segments is one pass
    over bands x segments x 30 window views, so no temporary grows with the
    input; the result is bit-identical to a loop over single segments.
    """
    clip = 10.0 ** (-STOI_BETA / 20.0)
    xw = np.lib.stride_tricks.sliding_window_view(xb, STOI_SEG_FRAMES, axis=1)
    yw = np.lib.stride_tricks.sliding_window_view(yb, STOI_SEG_FRAMES, axis=1)
    rows = []
    for s in range(0, xw.shape[1], STOI_SEG_BLOCK):
        xs = xw[:, s:s + STOI_SEG_BLOCK]
        ys = yw[:, s:s + STOI_SEG_BLOCK]
        nx = np.linalg.norm(xs, axis=-1, keepdims=True)
        ny = np.linalg.norm(ys, axis=-1, keepdims=True)
        alpha = np.divide(nx, ny, out=np.zeros_like(nx), where=ny > 0)
        ys_n = np.minimum(ys * alpha, xs * (1.0 + clip))
        rows.append(_band_correlations(xs, ys_n))
    # the mean of a C-contiguous segments x bands array sums in the order
    # np.mean(list of per-segment rows) does; a transposed view does not
    return float(np.mean(np.ascontiguousarray(np.concatenate(rows, axis=1).T)))


def _band_correlations(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Correlation of xs and ys along the last axis (frames of a segment).

    Takes bands x frames or bands x segments x frames; each correlation is
    computed exactly as for a single segment.  Two constant envelopes
    correlate as 1.0, one constant envelope as 0.0.
    """
    xm = xs - xs.mean(axis=-1, keepdims=True)
    ym = ys - ys.mean(axis=-1, keepdims=True)
    nx = np.linalg.norm(xm, axis=-1)
    ny = np.linalg.norm(ym, axis=-1)
    den = nx * ny
    num = np.sum(xm * ym, axis=-1)
    r = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    both_flat = (nx == 0) & (ny == 0)
    r[both_flat] = 1.0
    return r


def _box_sum(x: np.ndarray, window: int) -> np.ndarray:
    """Sliding-window sums via an integral image (stride 1, valid region)."""
    c = np.zeros((x.shape[0] + 1, x.shape[1] + 1))
    np.cumsum(np.cumsum(x, axis=0), axis=1, out=c[1:, 1:])
    w = window
    return (c[w:, w:] - c[:-w, w:] - c[w:, :-w] + c[:-w, :-w])
