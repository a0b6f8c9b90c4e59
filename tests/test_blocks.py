"""Block paths against their one-shot references, bit for bit.

The feature chain evaluates the STFT in blocks of ``dsp.STFT_BLOCK_BYTES``
and the tone generators in blocks of ``sensing.SYNTH_BLOCK`` samples.  The
reference functions below are the one-shot bodies those paths replaced;
every comparison is ``np.array_equal``, at drawn lengths around the block
edges.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echokit import MotionProfile, SampleBuffer, ToneConfig, dsp, features, sensing

CFG = ToneConfig()
PROPERTY = settings(deadline=None, max_examples=25)


# -- one-shot references ------------------------------------------------------

def ref_ultrasound(x, cfg):
    spec = dsp.stft(x, n_fft=dsp.ULTRA_N_FFT, win_len=dsp.ULTRA_WIN, hop=dsp.ULTRA_HOP)
    return features.extract_ultrasound_feature(spec, cfg)


def ref_mel(x, n_mels=128, n_fft=dsp.MEL_N_FFT, win_len=dsp.MEL_WIN, hop=dsp.MEL_HOP,
            fmin=0.0, fmax=8000.0, window_kind="hann", log_floor=dsp.LOG_FLOOR):
    spec = dsp.stft(x, n_fft=n_fft, win_len=win_len, hop=hop, window_kind=window_kind)
    power = np.abs(spec.frames) ** 2
    fb = dsp.mel_filterbank(n_mels, n_fft, x.fs, fmin, fmax)
    energies = power @ fb.T
    return np.log(np.maximum(energies, log_floor))


def ref_synth(cfg, duration, phases=None):
    phi = np.zeros(cfg.n_tones) if phases is None else np.asarray(phases, dtype=np.float64)
    n = int(round(duration * cfg.fs))
    t = np.arange(n) / cfg.fs
    out = np.zeros(n)
    for f_i, p_i in zip(cfg.tone_freqs, phi):
        out += np.cos(2 * np.pi * f_i * t + p_i)
    out *= cfg.amplitude
    return out


def ref_reflection(tx, profiles, cfg, phases=None):
    phi = np.zeros(cfg.n_tones) if phases is None else np.asarray(phases, dtype=np.float64)
    t = tx.times()
    out = np.zeros(len(t))
    for p in profiles:
        d = p.ranges(t)
        delayed = t - 2.0 * d / p.c
        for f_i, p_i in zip(cfg.tone_freqs, phi):
            out += p.reflectivity * np.cos(2 * np.pi * f_i * delayed + p_i)
    return out


# -- lengths ------------------------------------------------------------------

def frames_per_block(n_fft):
    return dsp.STFT_BLOCK_BYTES // (16 * (n_fft // 2 + 1))


def block_edge(win_len, hop, n_fft, k=1):
    """Longest signal whose STFT is taken in k blocks; one hop more takes k+1."""
    return win_len + hop * (k * frames_per_block(n_fft) - 1)


def stft_lengths(win_len, hop, n_fft):
    return st.integers(win_len, block_edge(win_len, hop, n_fft, 3) + hop)


def signal(n, fs, seed):
    return SampleBuffer(fs, np.random.default_rng(seed).standard_normal(n))


ULTRA_EDGE = block_edge(dsp.ULTRA_WIN, dsp.ULTRA_HOP, dsp.ULTRA_N_FFT)
MEL_EDGE = block_edge(dsp.MEL_WIN, dsp.MEL_HOP, dsp.MEL_N_FFT)
SEEDS = st.integers(0, 2 ** 32 - 1)


def test_block_sizes_follow_the_byte_budget():
    assert frames_per_block(dsp.ULTRA_N_FFT) == 255
    assert frames_per_block(dsp.MEL_N_FFT) == 1022


# -- STFT consumers -----------------------------------------------------------

@PROPERTY
@given(n=stft_lengths(dsp.ULTRA_WIN, dsp.ULTRA_HOP, dsp.ULTRA_N_FFT), seed=SEEDS)
@example(n=dsp.ULTRA_WIN, seed=0)
@example(n=ULTRA_EDGE - 1, seed=1)
@example(n=ULTRA_EDGE, seed=2)
@example(n=ULTRA_EDGE + 1, seed=3)
@example(n=ULTRA_EDGE + dsp.ULTRA_HOP, seed=4)
@example(n=block_edge(dsp.ULTRA_WIN, dsp.ULTRA_HOP, dsp.ULTRA_N_FFT, 2), seed=5)
def test_ultrasound_feature_matches_one_shot(n, seed):
    x = signal(n, CFG.fs, seed)
    got = features.ultrasound_feature_from_capture(x, CFG)
    want = ref_ultrasound(x, CFG)
    assert np.array_equal(got.frames, want.frames)
    assert np.array_equal(got.per_tone, want.per_tone)
    assert (got.fs, got.hop, got.offsets) == (want.fs, want.hop, want.offsets)


@PROPERTY
@given(n=stft_lengths(dsp.MEL_WIN, dsp.MEL_HOP, dsp.MEL_N_FFT), seed=SEEDS)
@example(n=dsp.MEL_WIN, seed=0)
@example(n=MEL_EDGE - 1, seed=1)
@example(n=MEL_EDGE, seed=2)
@example(n=MEL_EDGE + 1, seed=3)
@example(n=MEL_EDGE + dsp.MEL_HOP, seed=4)
@example(n=block_edge(dsp.MEL_WIN, dsp.MEL_HOP, dsp.MEL_N_FFT, 2) + 1, seed=5)
def test_mel_spectrogram_matches_one_shot(n, seed):
    x = signal(n, dsp.MEL_FS, seed)
    assert np.array_equal(dsp.mel_spectrogram(x).frames, ref_mel(x))


@PROPERTY
@given(n=st.integers(0, dsp.ULTRA_WIN - 1))
def test_short_capture_raises_as_before(n):
    x = signal(n, CFG.fs, n)
    with pytest.raises(ValueError) as want:
        ref_ultrasound(x, CFG)
    with pytest.raises(ValueError) as got:
        features.ultrasound_feature_from_capture(x, CFG)
    assert str(got.value) == str(want.value)
    y = signal(min(n, dsp.MEL_WIN - 1), dsp.MEL_FS, n)
    with pytest.raises(ValueError) as want:
        ref_mel(y)
    with pytest.raises(ValueError) as got:
        dsp.mel_spectrogram(y)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("kwargs", [{"hop": 0}, {"win_len": 2048}, {"window_kind": "tri"}])
def test_bad_stft_arguments_raise_as_before(kwargs):
    x = signal(20000, dsp.MEL_FS, 0)
    with pytest.raises(ValueError) as want:
        ref_mel(x, **kwargs)
    with pytest.raises(ValueError) as got:
        dsp.mel_spectrogram(x, **kwargs)
    assert str(got.value) == str(want.value)


# -- tone generators ----------------------------------------------------------

def sway(t):
    return 0.4 + 0.02 * np.sin(2 * np.pi * 3.0 * np.asarray(t) + 0.3)


def articulator(t):
    knots = [0.0, 0.08, 0.2, 0.45, 0.6]
    w = np.interp(np.mod(np.asarray(t), knots[-1]), knots, [0, 1, 1, 0, 0])
    return 0.3 - 0.01 * (w - 0.5)


REFLECTORS = [MotionProfile.static(0.25), MotionProfile(sway, 0.6),
              MotionProfile(articulator, 0.8)]
BLOCK = sensing.SYNTH_BLOCK
SYNTH_LENGTHS = (st.integers(0, 3 * BLOCK)
                 | st.sampled_from([k * BLOCK + d for k in (1, 2, 3) for d in (-1, 0, 1)]))


@PROPERTY
@given(n=SYNTH_LENGTHS,
       phases=st.none() | st.lists(st.floats(-np.pi, np.pi), min_size=8, max_size=8),
       which=st.lists(st.sampled_from(range(len(REFLECTORS))), min_size=1, max_size=3))
@example(n=BLOCK, phases=None, which=[0, 1, 2])
@example(n=BLOCK + 1, phases=None, which=[2, 1])
@example(n=2 * BLOCK - 1, phases=None, which=[1])
@example(n=0, phases=None, which=[0])
def test_tone_generators_match_one_shot(n, phases, which):
    duration = n / CFG.fs
    tx = sensing.synth_multitone(CFG, duration, phases)
    assert np.array_equal(tx.samples, ref_synth(CFG, duration, phases))
    profiles = [REFLECTORS[i] for i in which]
    rx = sensing.simulate_reflection(tx, profiles, CFG, phases)
    assert np.array_equal(rx.samples, ref_reflection(tx, profiles, CFG, phases))


def test_reflector_range_checked_in_every_block():
    tx = sensing.synth_multitone(CFG, 3 * BLOCK / CFG.fs)
    closing = MotionProfile(lambda t: 1.0 - np.asarray(t) / (2.5 * BLOCK / CFG.fs))
    with pytest.raises(ValueError, match="range_m must stay positive"):
        sensing.simulate_reflection(tx, closing, CFG)
