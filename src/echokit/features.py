"""Model-facing feature tensors: Doppler band features and aligned Mel pairs.

The ultrasound feature keeps, for every transmitted tone, the 7 STFT bins on
each side of the carrier at offsets +-2..+-8 (the carrier and its immediate
neighbours are dropped to suppress static reflections), converts to dB and
averages across tones, yielding a T x 14 matrix.  The Mel chain (lowpass,
48->16 kHz decimation, 128-band log-Mel) runs on the same 5 ms frame clock;
its edge frames are trimmed so Mel frame centers coincide with ultrasound
frame centers, which keeps the two frame counts within a frame or two of
each other on any capture.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .sensing import SampleBuffer, ToneConfig, _readonly
from . import dsp
from .dsp import ComplexSpectrogram, FilterCascade, MelFeature

DOPPLER_OFFSETS = tuple(range(-8, -1)) + tuple(range(2, 9))
DB_FLOOR = -120.0

UFT1_MAGIC = b"UFT1"


@dataclass(frozen=True)
class UltrasoundFeature:
    """T x 14 dB log-magnitudes at the retained Doppler offsets.

    ``per_tone`` keeps the pre-aggregation T x n_tones x 14 stack for
    diagnostics.  Channel order follows ``offsets`` = (-8..-2, +2..+8).
    """

    frames: np.ndarray
    tone_plan: ToneConfig
    fs: float
    hop: int
    offsets: tuple = DOPPLER_OFFSETS
    per_tone: np.ndarray | None = None

    def __post_init__(self):
        f = np.asarray(self.frames, dtype=np.float64)
        if f.ndim != 2 or f.shape[1] != len(self.offsets):
            raise ValueError(f"frames must be T x {len(self.offsets)}")
        if not np.all(np.isfinite(f)):
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "frames", _readonly(f))
        if self.per_tone is not None:
            object.__setattr__(self, "per_tone",
                               _readonly(np.asarray(self.per_tone, dtype=np.float64)))

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True)
class AlignedPair:
    """Mel and ultrasound features cropped to a common frame count."""

    mel: MelFeature
    ultra: UltrasoundFeature

    @property
    def n_frames(self) -> int:
        return self.mel.n_frames


def carrier_bins(cfg: ToneConfig, n_fft: int, fs: float) -> np.ndarray:
    """Integer STFT bin of each tone; errors if any carrier is off-grid."""
    bins = cfg.tone_freqs * n_fft / fs
    rounded = np.round(bins)
    if np.any(np.abs(bins - rounded) > 1e-9):
        raise ValueError(
            "tone plan incompatible with n_fft: carriers do not fall on integer bins"
        )
    return rounded.astype(int)


def extract_ultrasound_feature(spec: ComplexSpectrogram, cfg: ToneConfig,
                               db_floor: float = DB_FLOOR) -> UltrasoundFeature:
    """Reduce an ultrasound spectrogram to the T x 14 Doppler feature.

    Per tone, bins {carrier-1, carrier, carrier+1} are excluded and offsets
    +-2..+-8 retained; magnitudes go to dB (20*log10 with ``db_floor``) and
    are averaged across tones offset by offset.
    """
    if spec.fs != cfg.fs:
        raise ValueError("spectrogram sample rate does not match tone config")
    bins = carrier_bins(cfg, spec.n_fft, spec.fs)
    n_bins = spec.frames.shape[1]
    offs = np.asarray(DOPPLER_OFFSETS)
    if bins.min() + offs.min() < 0 or bins.max() + offs.max() >= n_bins:
        raise ValueError("retained offsets fall outside the spectrogram")
    mag = np.abs(spec.frames[:, bins[:, None] + offs[None, :]])  # T x tones x 14
    floor_lin = 10.0 ** (db_floor / 20.0)
    per_tone = 20.0 * np.log10(np.maximum(mag, floor_lin))
    frames = per_tone.mean(axis=1)
    return UltrasoundFeature(frames, cfg, spec.fs, spec.hop, per_tone=per_tone)


def ultrasound_feature_from_capture(x: SampleBuffer, cfg: ToneConfig,
                                    n_fft: int = dsp.ULTRA_N_FFT,
                                    win_len: int = dsp.ULTRA_WIN,
                                    hop: int = dsp.ULTRA_HOP,
                                    window_kind: str = "hann",
                                    db_floor: float = DB_FLOOR) -> UltrasoundFeature:
    """Full chain from a raw 48 kHz capture: STFT then Doppler-band reduction.

    The STFT is taken in blocks of ``dsp.STFT_BLOCK_BYTES`` and each block is
    reduced to its retained bins before the next is computed, so the full
    T x (n_fft/2 + 1) spectrogram never exists; ``frames`` and ``per_tone``
    equal the one-shot reduction bit for bit.
    """
    if x.fs != cfg.fs:
        raise ValueError("capture sample rate does not match tone config")
    parts = [extract_ultrasound_feature(spec, cfg, db_floor=db_floor)
             for spec in dsp._stft_blocks(x, n_fft, win_len, hop, window_kind)]
    return UltrasoundFeature(np.concatenate([p.frames for p in parts]), cfg, x.fs, hop,
                             per_tone=np.concatenate([p.per_tone for p in parts]))


def extract_mel_feature(x: SampleBuffer, lowpass: FilterCascade | None = None,
                        n_mels: int = 128, n_fft: int = dsp.MEL_N_FFT,
                        win_len: int = dsp.MEL_WIN, hop: int = dsp.MEL_HOP,
                        fmin: float = 0.0, fmax: float = 8000.0,
                        ultra_win_len: int = dsp.ULTRA_WIN) -> MelFeature:
    """Speech feature chain for a raw 48 kHz capture.

    Lowpass (8 kHz elliptic unless a cascade is supplied) -> decimate to
    16 kHz -> log-Mel.  Edge frames are trimmed symmetrically so that Mel
    frame t is centered on the same capture time as ultrasound frame t; with
    the default geometry that trims (4080/3 - 400) / (2*80) = 6 frames per
    side.
    """
    if x.fs != 48000:
        raise ValueError("extract_mel_feature expects a 48 kHz capture")
    if lowpass is None:
        lowpass = dsp.design_elliptic(8, "lowpass", 8000.0, x.fs)
    filtered = dsp.filter_apply(lowpass, x)
    x16 = dsp.resample_3to1(filtered)
    mel = dsp.mel_spectrogram(x16, n_mels=n_mels, n_fft=n_fft, win_len=win_len,
                              hop=hop, fmin=fmin, fmax=fmax)
    trim = max(0, int(round((ultra_win_len / 3 - win_len) / (2 * hop))))
    if mel.n_frames <= 2 * trim:
        raise ValueError("capture too short for the aligned Mel feature")
    frames = mel.frames[trim:mel.n_frames - trim] if trim else mel.frames
    return MelFeature(frames, mel.fs, mel.hop, mel.mel_fmin, mel.mel_fmax)


def align(mel: MelFeature, ultra: UltrasoundFeature,
          max_gap: int = 2) -> AlignedPair:
    """Crop both features of one capture to a common T.

    The frame periods must match (5 ms by construction); a frame-count gap
    beyond ``max_gap`` indicates a misconfigured pipeline and raises.
    """
    period_mel = mel.hop / mel.fs
    period_ultra = ultra.hop / ultra.fs
    if abs(period_mel - period_ultra) > 1e-12:
        raise ValueError(
            f"frame periods differ: {period_mel} s vs {period_ultra} s"
        )
    gap = abs(mel.n_frames - ultra.n_frames)
    if gap > max_gap:
        raise ValueError(
            f"frame counts differ by {gap} (> {max_gap}); pipelines misconfigured"
        )
    t = min(mel.n_frames, ultra.n_frames)
    mel_c = MelFeature(mel.frames[:t], mel.fs, mel.hop, mel.mel_fmin, mel.mel_fmax)
    ultra_c = UltrasoundFeature(
        ultra.frames[:t], ultra.tone_plan, ultra.fs, ultra.hop, ultra.offsets,
        per_tone=None if ultra.per_tone is None else ultra.per_tone[:t],
    )
    return AlignedPair(mel_c, ultra_c)


def temporal_diff(m: np.ndarray) -> np.ndarray:
    """Forward first difference along time: row t is m[t+1] - m[t]."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a T x F matrix")
    if a.shape[0] < 2:
        raise ValueError("temporal_diff needs at least 2 frames")
    return np.diff(a, axis=0)


class FeatureRecord(NamedTuple):
    frames: np.ndarray
    fs: int
    hop: int


def save_feature(path, feature: MelFeature | UltrasoundFeature) -> None:
    """Write a feature matrix as UFT1.

    Layout: magic "UFT1", then uint32-LE {rows, cols, fs, hop}, then
    rows*cols float32-LE values in row-major order.
    """
    frames = np.asarray(feature.frames, dtype=np.float32)
    rows, cols = frames.shape
    with open(path, "wb") as f:
        f.write(UFT1_MAGIC)
        f.write(struct.pack("<4I", rows, cols, int(round(feature.fs)), int(feature.hop)))
        f.write(frames.astype("<f4").tobytes(order="C"))


def load_feature(path) -> FeatureRecord:
    """Read a UFT1 feature file back as (frames, fs, hop)."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 20 or raw[:4] != UFT1_MAGIC:
        raise ValueError("not a UFT1 feature file")
    rows, cols, fs, hop = struct.unpack("<4I", raw[4:20])
    expected = 20 + rows * cols * 4
    if len(raw) != expected:
        raise ValueError(f"UFT1 payload truncated: {len(raw)} bytes, expected {expected}")
    frames = np.frombuffer(raw[20:], dtype="<f4").reshape(rows, cols).astype(np.float64)
    return FeatureRecord(frames, fs, hop)
