"""Multi-tone continuous-wave synthesis and Doppler reflection simulation.

The transmit side emits N simultaneous near-ultrasonic tones; each tone acts
as an independent velocity measurement.  A reflector at one-way distance d(t)
returns a delayed copy of each tone,

    cos(2*pi*f_i*(t - 2*d(t)/c) + phi_i),

so a radial closing speed v shifts tone i by 2*f_i*v/c.  The quasi-static
narrowband model here applies the round-trip delay to the phase only (no
waveform resampling), which is accurate for articulatory speeds (|v| below
a couple of m/s).

Velocity conventions: the simulator works with the physical one-way closing
speed and applies the round-trip factor 2 through d(t).  ``doppler_shift``
instead takes an already-folded bi-directional velocity, i.e. it returns
f*delta_v/c with delta_v = 2*v for a physical closing speed v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

SOUND_SPEED = 340.0  # m/s in air at ~15 C
SYNTH_BLOCK = 2 ** 16  # samples per block of the tone generators


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ToneConfig:
    """Tone plan of the transmitted continuous wave.

    Defaults place 8 tones at 17.25 kHz + i*750 Hz, sampled at 48 kHz.
    ``amplitude_norm`` is the per-tone scale; None means 1/n_tones so the
    transmit sum stays within [-1, 1].
    """

    f0: float = 17250.0
    delta_f: float = 750.0
    n_tones: int = 8
    fs: float = 48000.0
    amplitude_norm: float | None = None

    def __post_init__(self):
        if self.f0 <= 0:
            raise ValueError("f0 must be positive")
        if self.delta_f <= 0:
            raise ValueError("delta_f must be positive")
        if self.n_tones < 1:
            raise ValueError("n_tones must be at least 1")
        if self.fs <= 0:
            raise ValueError("fs must be positive")
        top = self.f0 + (self.n_tones - 1) * self.delta_f
        if top >= self.fs / 2:
            raise ValueError(
                f"highest tone {top} Hz is not below Nyquist {self.fs / 2} Hz"
            )
        if self.amplitude_norm is not None and self.amplitude_norm <= 0:
            raise ValueError("amplitude_norm must be positive")

    @property
    def tone_freqs(self) -> np.ndarray:
        """Tone frequencies in Hz, lowest first."""
        return self.f0 + self.delta_f * np.arange(self.n_tones)

    @property
    def amplitude(self) -> float:
        return (
            self.amplitude_norm
            if self.amplitude_norm is not None
            else 1.0 / self.n_tones
        )


@dataclass(frozen=True)
class SampleBuffer:
    """Uniformly sampled real-valued waveform plus its sample rate."""

    fs: float
    samples: np.ndarray

    def __post_init__(self):
        if self.fs <= 0:
            raise ValueError("fs must be positive")
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        object.__setattr__(self, "samples", _readonly(s))

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.fs

    def times(self) -> np.ndarray:
        return np.arange(len(self.samples)) / self.fs


@dataclass(frozen=True)
class MotionProfile:
    """One reflector: one-way range over time, reflectivity, sound speed.

    ``range_m`` maps time in seconds to one-way distance in meters and must
    stay positive over the simulated span; it should accept ndarray input
    (scalar-only callables are vectorized automatically).
    """

    range_m: Callable[[np.ndarray], np.ndarray]
    reflectivity: float = 1.0
    c: float = SOUND_SPEED

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("sound speed c must be positive")

    @classmethod
    def static(cls, distance_m: float, reflectivity: float = 1.0,
               c: float = SOUND_SPEED) -> "MotionProfile":
        return cls(lambda t: np.full_like(np.asarray(t, dtype=float), distance_m),
                   reflectivity, c)

    @classmethod
    def constant_velocity(cls, start_m: float, speed_mps: float,
                          reflectivity: float = 1.0,
                          c: float = SOUND_SPEED) -> "MotionProfile":
        """Reflector closing at ``speed_mps`` (positive speed reduces range)."""
        return cls(lambda t: start_m - speed_mps * np.asarray(t, dtype=float),
                   reflectivity, c)

    def ranges(self, t: np.ndarray) -> np.ndarray:
        d = self.range_m(t)
        d = np.asarray(d, dtype=np.float64)
        if d.shape != t.shape:  # scalar-only callable
            d = np.asarray([self.range_m(ti) for ti in t], dtype=np.float64)
        if np.any(d <= 0):
            raise ValueError("range_m must stay positive over the simulated span")
        return d


def synth_multitone(cfg: ToneConfig, duration: float,
                    phases: Sequence[float] | None = None) -> SampleBuffer:
    """Generate the multi-tone transmit waveform.

    samples[k] = amplitude * sum_i cos(2*pi*f_i*k/fs + phi_i); phases default
    to zero for every tone.  Samples are generated in blocks of SYNTH_BLOCK,
    so temporaries stay a fixed size whatever the duration.
    """
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    phi = _check_phases(cfg, phases)
    n = int(round(duration * cfg.fs))
    out = np.zeros(n)
    for seg, t in _time_blocks(out, cfg.fs):
        for f_i, p_i in zip(cfg.tone_freqs, phi):
            seg += np.cos(2 * np.pi * f_i * t + p_i)
    out *= cfg.amplitude
    return SampleBuffer(cfg.fs, out)


def simulate_reflection(tx: SampleBuffer,
                        profile: MotionProfile | Iterable[MotionProfile],
                        cfg: ToneConfig,
                        phases: Sequence[float] | None = None) -> SampleBuffer:
    """Simulate the received signal for one or more moving reflectors.

    Per reflector p and tone i the output accumulates

        reflectivity_p * cos(2*pi*f_i*(t - 2*d_p(t)/c) + phi_i)

    i.e. the narrowband quasi-static model with round-trip delay.  Multiple
    reflectors superpose linearly.  The output is built in blocks of
    SYNTH_BLOCK samples; ``range_m`` is called once per block with that
    block's times, which is why it must be elementwise.
    """
    if tx.fs != cfg.fs:
        raise ValueError("tx sample rate does not match tone config")
    phi = _check_phases(cfg, phases)
    profiles = [profile] if isinstance(profile, MotionProfile) else list(profile)
    out = np.zeros(len(tx))
    for seg, t in _time_blocks(out, tx.fs):
        for p in profiles:
            delayed = t - 2.0 * p.ranges(t) / p.c
            for f_i, p_i in zip(cfg.tone_freqs, phi):
                seg += p.reflectivity * np.cos(2 * np.pi * f_i * delayed + p_i)
    return SampleBuffer(tx.fs, out)


def _time_blocks(out: np.ndarray, fs: float):
    """Yield (view of out, sample times) over consecutive SYNTH_BLOCK blocks.

    Times are k/fs for the block's sample indices k, the same values as the
    full-length ``np.arange(len(out)) / fs``.
    """
    for k0 in range(0, len(out), SYNTH_BLOCK):
        k1 = min(k0 + SYNTH_BLOCK, len(out))
        yield out[k0:k1], np.arange(k0, k1) / fs


def doppler_shift(delta_v: float, f_c: float, c: float = SOUND_SPEED) -> float:
    """Doppler shift f_c*delta_v/c for an already-folded velocity delta_v.

    delta_v folds the round trip (delta_v = 2*v for physical closing speed
    v), matching how the received-signal model writes its Doppler factor.
    """
    if c <= 0:
        raise ValueError("sound speed c must be positive")
    return f_c * delta_v / c


def mix_at_snr(clean: SampleBuffer, noise: SampleBuffer, snr_db: float,
               noise_offset: int = 0) -> SampleBuffer:
    """Mix noise into clean at an exact target SNR.

    Noise shorter than clean is tiled cyclically; longer noise is read from
    ``noise_offset`` (cyclically as well, so any offset is valid).  The gain
    g = (rms_clean/rms_noise) * 10**(-snr_db/20) is computed on the aligned
    noise segment, so re-measuring the mixture reproduces snr_db exactly.
    """
    if clean.fs != noise.fs:
        raise ValueError("clean and noise sample rates differ")
    if len(clean) == 0:
        raise ValueError("clean signal is empty")
    if len(noise) == 0:
        raise ValueError("noise signal is empty")
    idx = (noise_offset + np.arange(len(clean))) % len(noise)
    n = noise.samples[idx]
    rms_c = np.sqrt(np.mean(clean.samples ** 2))
    rms_n = np.sqrt(np.mean(n ** 2))
    if rms_c == 0:
        raise ValueError("clean signal is silent; SNR undefined")
    if rms_n == 0:
        raise ValueError("noise segment is silent; SNR undefined")
    g = (rms_c / rms_n) * 10.0 ** (-snr_db / 20.0)
    return SampleBuffer(clean.fs, clean.samples + g * n)


def _check_phases(cfg: ToneConfig, phases: Sequence[float] | None) -> np.ndarray:
    if phases is None:
        return np.zeros(cfg.n_tones)
    phi = np.asarray(phases, dtype=np.float64)
    if phi.shape != (cfg.n_tones,):
        raise ValueError(f"phases must have length {cfg.n_tones}")
    return phi
