"""Seeded input generator for the echokit benchmark.

Runs in its own process, before the measured one, and never imports echokit:
the inputs of a seed are the same whatever the program under test does.
Usage:

    python3 perfbench/inputs.py --workload NAME --seed N --out DIR

It writes WAV files, JSON manifests and ``.npy`` arrays into DIR, plus
``inputs.json`` describing them.  A fixed reference item (seed-independent)
is written beside the seeded items; its outputs are compared against
``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import struct
from pathlib import Path

import numpy as np

REFERENCE_SEED = 20240822

CAPTURE_FS = 48000
SPEECH_FS = 16000
TEST_FRACTION = 0.2  # the split protocol's default test share


def write_wav(path, samples, fs: int) -> None:
    """Mono IEEE float-32 RIFF/WAVE, the layout echokit's load_wav reads."""
    payload = np.asarray(samples, dtype="<f4").tobytes()
    fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 3, 1, fs, fs * 4, 4, 32)
    fact = struct.pack("<4sII", b"fact", 4, len(samples))
    data = struct.pack("<4sI", b"data", len(payload)) + payload
    body = fmt + fact + data
    Path(path).write_bytes(struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body)


# -- speech-like audio --------------------------------------------------------

def _formants(x: np.ndarray, fs: int, formants) -> np.ndarray:
    """``x`` through a cascade of two-pole resonators ``(fc, bandwidth)``.

    Applied in the frequency domain with enough zero padding for the
    impulse responses to decay, which avoids importing scipy here."""
    tail = int(10 * fs / (np.pi * min(bw for _, bw in formants)))
    n = 1 << int(np.ceil(np.log2(len(x) + tail)))
    z1 = np.exp(-2j * np.pi * np.fft.rfftfreq(n))
    h = np.ones_like(z1)
    for fc, bw in formants:
        r = np.exp(-np.pi * bw / fs)
        h *= (1.0 - r) / (1.0 - 2.0 * r * np.cos(2 * np.pi * fc / fs) * z1 + r * r * z1 * z1)
    return np.fft.irfft(np.fft.rfft(x, n) * h, n)[:len(x)]


def speechlike(rng: np.random.Generator, seconds: float, fs: int,
               f0_hz: float, level: float = 0.3) -> np.ndarray:
    """Voiced syllables from a glottal pulse train through three formant
    resonators, with onset/offset envelopes and silent gaps between them."""
    n = int(round(seconds * fs))
    out = np.zeros(n)
    t = int(rng.uniform(0.03, 0.12) * fs)
    while t < n:
        seg = min(int(rng.uniform(0.15, 0.28) * fs), n - t)
        f0 = f0_hz * rng.uniform(0.9, 1.1) * np.linspace(
            rng.uniform(0.92, 1.08), rng.uniform(0.92, 1.08), seg)
        cycles = np.floor(np.cumsum(f0 / fs))
        y = np.diff(cycles, prepend=cycles[0]) + 0.02 * rng.standard_normal(seg)
        y = _formants(y, fs, [(rng.uniform(lo, hi), bw) for lo, hi, bw in
                              ((300, 900, 90), (900, 2400, 120), (2400, 3600, 180))])
        ramp = min(seg // 4, int(0.03 * fs))
        env = np.ones(seg)
        if ramp:
            env[:ramp] = np.linspace(0.0, 1.0, ramp)
            env[seg - ramp:] = np.linspace(1.0, 0.0, ramp)
        out[t:t + seg] = rng.uniform(0.4, 1.0) * env * y / (np.max(np.abs(y)) + 1e-12)
        t += seg + int(rng.uniform(0.05, 0.18) * fs)
    return level * out / (np.max(np.abs(out)) + 1e-12)


# -- reflectors ---------------------------------------------------------------

def articulator(rng: np.random.Generator, sign: int) -> dict:
    """Asymmetric gesture: a fast stroke, a hold, a slow return, a hold.

    The fast stroke moves at 0.35-0.55 m/s (3-6 STFT bins of Doppler), the
    return at 0.015-0.03 m/s (under one bin, inside the excluded carrier
    neighbourhood).  The first stroke starts at ``t0`` (under 0.5 s), so a
    one-second clip holds one.  ``sign`` +1 makes the fast stroke a closing one, so the
    Doppler energy sits on the positive-offset side of the feature.
    """
    v_fast = rng.uniform(0.35, 0.55)
    t_fast = rng.uniform(0.12, 0.2)
    v_slow = rng.uniform(0.015, 0.03)
    stroke = v_fast * t_fast
    return {"kind": "articulator", "sign": sign, "d0": rng.uniform(0.15, 0.35),
            "stroke": stroke, "t_fast": t_fast, "t_slow": stroke / v_slow,
            "t_hold": rng.uniform(0.1, 0.3), "t0": rng.uniform(0.15, 0.5),
            "reflectivity": rng.uniform(0.6, 1.0)}


def jaw(rng: np.random.Generator) -> dict:
    """Weak slow sinusoidal sway (peak speed under 0.03 m/s)."""
    rate = rng.uniform(0.5, 1.5)
    return {"kind": "sway", "d0": rng.uniform(0.3, 0.6), "rate_hz": rate,
            "amp": rng.uniform(0.01, 0.03) / (2 * np.pi * rate),
            "phase": rng.uniform(0.0, 1.0), "reflectivity": rng.uniform(0.1, 0.3)}


def static(rng: np.random.Generator) -> dict:
    return {"kind": "static", "d0": rng.uniform(0.1, 1.0),
            "reflectivity": rng.uniform(0.5, 1.0)}


def session_params(rng: np.random.Generator, n_reflectors: int) -> dict:
    """A static reflector, the articulator and, for three, a weak sway.

    The count is fixed by the caller, not drawn, so the simulation work of a
    round does not change with the seed."""
    sign = int(rng.choice((-1, 1)))
    reflectors = [static(rng), articulator(rng, sign)]
    if n_reflectors == 3:
        reflectors.append(jaw(rng))
    return {"doppler_sign": sign, "reflectors": reflectors,
            "echo_snr_db": float(rng.choice((-5.0, 0.0, 5.0)))}


# -- noise pool ---------------------------------------------------------------

def _shaped_noise(rng: np.random.Generator, n: int, exponent: float) -> np.ndarray:
    """Gaussian noise with a 1/f**exponent power spectrum."""
    spec = np.fft.rfft(rng.standard_normal(n))
    f = np.arange(len(spec), dtype=np.float64)
    f[0] = 1.0
    return np.fft.irfft(spec / f ** (exponent / 2.0), n)


def noise(rng: np.random.Generator, kind: str, seconds: float, fs: int) -> np.ndarray:
    n = int(round(seconds * fs))
    t = np.arange(n) / fs
    if kind == "white":
        x = rng.standard_normal(n)
    elif kind == "pink":
        x = _shaped_noise(rng, n, 1.0)
    elif kind == "brown":
        x = _shaped_noise(rng, n, 2.0)
    elif kind == "babble":
        x = sum(speechlike(rng, seconds, fs, rng.uniform(90, 260)) for _ in range(4))
    elif kind == "hum":
        base = rng.choice((50.0, 60.0))
        x = sum(np.cos(2 * np.pi * base * k * t + rng.uniform(0, 2 * np.pi)) / k
                for k in range(1, 8)) + 0.1 * rng.standard_normal(n)
    else:  # "fan": broadband noise under a slow amplitude modulation
        x = _shaped_noise(rng, n, 0.5) * (1.0 + 0.5 * np.sin(
            2 * np.pi * rng.uniform(2, 8) * t))
    return 0.3 * x / np.max(np.abs(x))


NOISE_KINDS = ("white", "pink", "brown", "babble", "hum", "fan")


# -- workload inputs ----------------------------------------------------------

def _capture_items(rng, out: Path, prefix: str, n: int, seconds: float,
                   reflectors: tuple) -> list:
    """``n`` speech tracks with echo parameters; item i has
    ``reflectors[i % len(reflectors)]`` reflectors."""
    items = []
    for i in range(n):
        name = f"{prefix}{i:02d}"
        write_wav(out / f"{name}.speech.wav",
                  speechlike(rng, seconds, CAPTURE_FS, rng.uniform(90, 260)), CAPTURE_FS)
        items.append({"id": name, "speech": f"{name}.speech.wav", "seconds": seconds,
                      **session_params(rng, reflectors[i % len(reflectors)])})
    return items


def _corpus(rng, out: Path, prefix: str, speakers: int, per_speaker: int,
            noises: int, noises_per_clean: int) -> dict:
    """Clean 3 s recordings in chronological order plus a noise pool.

    ``mixtures`` is how many mixtures the split -> mix protocol must yield:
    the earliest TEST_FRACTION of each speaker's recordings, each mixed with
    ``noises_per_clean`` noises."""
    clean, pool = [], []
    f0 = {s: rng.uniform(90, 260) for s in range(speakers)}
    for k in range(per_speaker):
        for s in range(speakers):
            rid = f"{prefix}spk{s}_utt{k}"
            write_wav(out / f"{rid}.wav", speechlike(rng, 3.0, SPEECH_FS, f0[s]), SPEECH_FS)
            clean.append({"id": rid, "speaker_id": f"{prefix}spk{s}", "path": f"{rid}.wav",
                          "duration_s": 3.0, "kind": "clean"})
    for j in range(noises):
        kind = NOISE_KINDS[j % len(NOISE_KINDS)]
        nid = f"{prefix}noise{j:02d}_{kind}"
        write_wav(out / f"{nid}.wav", noise(rng, kind, 4.0, SPEECH_FS), SPEECH_FS)
        pool.append({"id": nid, "speaker_id": "noise", "path": f"{nid}.wav",
                     "duration_s": 4.0, "kind": "noise"})
    for name, rows in ((f"{prefix}clean.jsonl", clean), (f"{prefix}noise.jsonl", pool)):
        (out / name).write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    test_per_speaker = int(np.ceil(TEST_FRACTION * per_speaker))
    return {"clean": f"{prefix}clean.jsonl", "noise": f"{prefix}noise.jsonl",
            "mix_seed": int(rng.integers(0, 2 ** 31)),
            "noises_per_clean": noises_per_clean,
            "mixtures": speakers * test_per_speaker * noises_per_clean}


def _loss_batch(rng, out: Path, prefix: str, n_seq: int, frames: int, dim: int,
                ragged: tuple) -> dict:
    """Equal-length and ragged embedding/spectrogram batches.

    Audio-side embeddings are noisy copies of the visual side, so the
    positives on the diagonal are the most similar pairs, as in training.
    """
    def pair(shape):
        v = rng.standard_normal(shape)
        return v + 0.7 * rng.standard_normal(shape), v

    a, v = pair((n_seq, frames, dim))
    syn, gt = pair((n_seq, frames, dim))
    # a seeded order of evenly spaced lengths: the total work is seed-free
    lengths = rng.permutation(np.linspace(ragged[0], ragged[1], n_seq).round().astype(int))
    ra, rv = pair((int(lengths.sum()), dim))
    rsyn, rgt = pair((int(lengths.sum()), dim))
    arrays = {"a": a, "v": v, "syn": syn, "gt": gt,
              "ragged_a": ra, "ragged_v": rv, "ragged_syn": rsyn, "ragged_gt": rgt}
    for key, arr in arrays.items():
        np.save(out / f"{prefix}{key}.npy", arr)
    return {"arrays": {k: f"{prefix}{k}.npy" for k in arrays},
            "lengths": [int(x) for x in lengths],
            "losscheck_seed": int(rng.integers(0, 2 ** 31))}


def generate(workload: str, seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ref = np.random.default_rng(REFERENCE_SEED)
    if workload == "featurize_long":
        spec = {"jobs": 1, "round_items": 1, "items": _capture_items(rng, out, "s", 3, 60.0, (3,)),
                "reference": _capture_items(ref, out, "ref", 1, 2.0, (3,))}
    elif workload == "featurize_short":
        spec = {"jobs": 2, "round_items": 16,
                "items": _capture_items(rng, out, "c", 16, 1.0, (3, 2)),
                "reference": _capture_items(ref, out, "ref", 2, 1.0, (3, 2))}
    elif workload == "eval_corpus":
        spec = {"jobs": 2, **_corpus(rng, out, "", 4, 5, 24, 20),
                "reference": _corpus(ref, out, "ref_", 1, 2, 2, 2)}
    elif workload == "train_objective":
        spec = {"jobs": 1, **_loss_batch(rng, out, "", 32, 200, 128, (120, 280)),
                "reference": _loss_batch(ref, out, "ref_", 4, 40, 16, (20, 60))}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    spec.update(workload=workload, seed=seed)
    (out / "inputs.json").write_text(json.dumps(spec, indent=1), encoding="utf-8")
    return spec


WORKLOADS = ("featurize_long", "featurize_short", "eval_corpus", "train_objective")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
