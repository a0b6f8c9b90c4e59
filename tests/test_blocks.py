"""Block paths against their one-shot references, bit for bit.

The feature chain evaluates the STFT in blocks of ``dsp.STFT_BLOCK_BYTES``,
the tone generators in blocks of ``sensing.SYNTH_BLOCK`` samples, and STOI
its 30-frame segments in blocks of ``metrics.STOI_SEG_BLOCK``.  The
reference functions below are the one-shot or per-segment bodies those
paths replaced; every comparison is exact (``np.array_equal`` or ``==``),
at drawn lengths around the block edges.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echokit import MotionProfile, SampleBuffer, ToneConfig, dsp, features, metrics, sensing

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


# -- STOI ---------------------------------------------------------------------

def ref_remove_silent_frames(x, y, dyn_range, frame, hop):
    w = metrics._matlab_hanning(frame)
    xf = metrics._frame_signal(x, frame, hop) * w
    yf = metrics._frame_signal(y, frame, hop) * w
    if xf.shape[0] == 0:
        return x, y
    energies = 20.0 * np.log10(np.linalg.norm(xf, axis=1) + np.finfo(np.float64).eps)
    mask = energies > energies.max() - dyn_range
    xf, yf = xf[mask], yf[mask]
    out_len = (xf.shape[0] - 1) * hop + frame if xf.shape[0] else 0
    x_sil = np.zeros(out_len)
    y_sil = np.zeros(out_len)
    for i in range(xf.shape[0]):
        x_sil[i * hop:i * hop + frame] += xf[i]
        y_sil[i * hop:i * hop + frame] += yf[i]
    return x_sil, y_sil


def ref_band_correlations(xs, ys):
    xm = xs - xs.mean(axis=1, keepdims=True)
    ym = ys - ys.mean(axis=1, keepdims=True)
    nx = np.linalg.norm(xm, axis=1)
    ny = np.linalg.norm(ym, axis=1)
    den = nx * ny
    num = np.sum(xm * ym, axis=1)
    r = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    both_flat = (nx == 0) & (ny == 0)
    r[both_flat] = 1.0
    return r


def ref_segment_score(xb, yb):
    clip = 10.0 ** (-metrics.STOI_BETA / 20.0)
    scores = []
    for m in range(metrics.STOI_SEG_FRAMES, xb.shape[1] + 1):
        xs = xb[:, m - metrics.STOI_SEG_FRAMES:m]
        ys = yb[:, m - metrics.STOI_SEG_FRAMES:m]
        nx = np.linalg.norm(xs, axis=1)
        ny = np.linalg.norm(ys, axis=1)
        alpha = np.divide(nx, ny, out=np.zeros_like(nx), where=ny > 0)
        ys_n = np.minimum(ys * alpha[:, None], xs * (1.0 + clip))
        scores.append(ref_band_correlations(xs, ys_n))
    return float(np.mean(scores))


def ref_stoi(clean, processed):
    if clean.fs != 16000 or processed.fs != 16000:
        raise ValueError("stoi expects 16 kHz inputs")
    if len(clean) != len(processed):
        raise ValueError("clean and processed must have equal length")
    if np.max(np.abs(clean.samples), initial=0.0) == 0.0:
        raise ValueError("clean signal is silent")
    x = dsp.resample_rational(clean, 5, 8).samples
    y = dsp.resample_rational(processed, 5, 8).samples
    x, y = ref_remove_silent_frames(x, y, metrics.STOI_DYN_RANGE,
                                    metrics.STOI_FRAME, metrics.STOI_HOP)
    spec_x = metrics._stoi_stft(x)
    spec_y = metrics._stoi_stft(y)
    n_frames = spec_x.shape[0]
    if n_frames < metrics.STOI_SEG_FRAMES:
        raise ValueError(
            f"input too short: {n_frames} active frames, "
            f"need {metrics.STOI_SEG_FRAMES} (one 384 ms segment)"
        )
    octband = metrics._third_octave_bands(metrics.STOI_FS, metrics.STOI_N_FFT,
                                          metrics.STOI_NUM_BANDS, metrics.STOI_MIN_FREQ)
    xb = np.sqrt(octband @ (np.abs(spec_x) ** 2).T)
    yb = np.sqrt(octband @ (np.abs(spec_y) ** 2).T)
    return ref_segment_score(xb, yb)


def outcome(fn, *args):
    """The value fn returns, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


SEG = metrics.STOI_SEG_BLOCK
SEG_FRAMES = metrics.STOI_SEG_FRAMES
# frame counts whose segment count (frames - 29) is 1, or a block edge +-1
EDGE_FRAMES = [SEG_FRAMES] + [k * SEG + SEG_FRAMES - 1 + d for k in (1, 2) for d in (-1, 0, 1)]


def stoi_length(frames):
    """16 kHz length that gives exactly ``frames`` STOI frames when every
    frame is active: ceil(5n/8) samples at 10 kHz hold frames + 1 hops."""
    return -(-8 * metrics.STOI_HOP * (frames + 1) // 5)


def stoi_pair(n, seed, silences, snr_db, scale):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 16000
    clean = rng.standard_normal(n) * (1.1 + np.sin(2 * np.pi * 3.0 * t))
    if silences:
        clean[: n // 3] = 0.0
        clean[n // 2: n // 2 + n // 10] = 0.0
    noise = rng.standard_normal(n)
    gain = np.sqrt(np.sum(clean ** 2) / max(np.sum(noise ** 2), 1e-300)) * 10 ** (-snr_db / 20)
    return SampleBuffer(16000, clean), SampleBuffer(16000, scale * (clean + gain * noise))


def test_stoi_lengths_hit_the_segment_block_edges():
    for frames in EDGE_FRAMES:
        clean, _ = stoi_pair(stoi_length(frames), 0, False, 5.0, 1.0)
        x = dsp.resample_rational(clean, 5, 8).samples
        x, _ = metrics._remove_silent_frames(x, x, metrics.STOI_DYN_RANGE,
                                             metrics.STOI_FRAME, metrics.STOI_HOP)
        assert metrics._stoi_stft(x).shape[0] == frames


@PROPERTY
@given(n=st.integers(stoi_length(SEG_FRAMES), stoi_length(3 * SEG + SEG_FRAMES))
       | st.sampled_from([stoi_length(f) for f in EDGE_FRAMES]),
       seed=SEEDS, silences=st.booleans(), snr_db=st.sampled_from([-10.0, 5.0, 20.0]),
       scale=st.sampled_from([1.0, 0.25, 8.0, 0.0]))
@example(n=stoi_length(SEG_FRAMES), seed=0, silences=False, snr_db=5.0, scale=1.0)
@example(n=stoi_length(SEG + SEG_FRAMES - 2), seed=1, silences=False, snr_db=-10.0, scale=1.0)
@example(n=stoi_length(SEG + SEG_FRAMES - 1), seed=2, silences=False, snr_db=20.0, scale=0.25)
@example(n=stoi_length(SEG + SEG_FRAMES), seed=3, silences=False, snr_db=5.0, scale=8.0)
@example(n=stoi_length(2 * SEG + SEG_FRAMES - 2), seed=4, silences=False, snr_db=5.0, scale=1.0)
@example(n=stoi_length(2 * SEG + SEG_FRAMES), seed=5, silences=True, snr_db=-10.0, scale=0.0)
def test_stoi_matches_per_segment_loop(n, seed, silences, snr_db, scale):
    clean, processed = stoi_pair(n, seed, silences, snr_db, scale)
    assert outcome(metrics.stoi, clean, processed) == outcome(ref_stoi, clean, processed)


@PROPERTY
@given(frames=st.integers(SEG_FRAMES, 3 * SEG + SEG_FRAMES) | st.sampled_from(EDGE_FRAMES),
       seed=SEEDS, flat_x=st.integers(0, 2 ** 15 - 1), flat_y=st.integers(0, 2 ** 15 - 1))
@example(frames=SEG + SEG_FRAMES, seed=0, flat_x=2 ** 15 - 1, flat_y=2 ** 15 - 1)
@example(frames=SEG_FRAMES, seed=1, flat_x=0b101, flat_y=0b110)
def test_segment_score_matches_per_segment_loop(frames, seed, flat_x, flat_y):
    rng = np.random.default_rng(seed)
    xb = rng.random((metrics.STOI_NUM_BANDS, frames))
    yb = rng.random((metrics.STOI_NUM_BANDS, frames)) * rng.uniform(0.1, 10.0)
    for band in range(metrics.STOI_NUM_BANDS):
        if flat_x >> band & 1:  # constant envelopes: the both-flat branch
            xb[band] = rng.choice([0.0, 0.5, 2.0])
        if flat_y >> band & 1:
            yb[band] = rng.choice([0.0, 0.25])
    assert metrics._segment_score(xb, yb) == ref_segment_score(xb, yb)


def test_segment_score_of_flat_envelopes_is_one():
    xb = np.full((metrics.STOI_NUM_BANDS, SEG + SEG_FRAMES), 0.5)
    yb = np.zeros_like(xb)
    assert metrics._segment_score(xb, yb) == ref_segment_score(xb, yb) == 1.0


@PROPERTY
@given(n=st.integers(0, 40 * 128), seed=SEEDS, frame=st.sampled_from([128, 256, 384]),
       silences=st.booleans())
def test_silent_frame_removal_matches_frame_loop(n, seed, frame, silences):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    if silences:
        x[n // 4: n // 2] *= 1e-3
    got = metrics._remove_silent_frames(x, y, 40.0, frame, 128)
    want = ref_remove_silent_frames(x, y, 40.0, frame, 128)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@PROPERTY
@given(n=st.integers(0, stoi_length(SEG_FRAMES - 1)), silent=st.booleans())
def test_short_or_silent_stoi_raises_as_before(n, silent):
    clean, processed = stoi_pair(n, n, False, 5.0, 1.0)
    if silent:
        clean = SampleBuffer(16000, np.zeros(n))
    got = outcome(metrics.stoi, clean, processed)
    assert isinstance(got, str) and got == outcome(ref_stoi, clean, processed)
