"""Dataset protocol: manifests, per-speaker temporal splits, SNR mixing.

Manifests are UTF-8 JSON-lines files, one record per entry.  The temporal
split sends the earliest ceil(fraction * k) recordings of every speaker to
the test set.  Mixture construction pairs each clean recording with a drawn
set of distinct noises at SNRs sampled from the grid, all driven by one
seeded generator so a manifest is reproducible byte for byte.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .sensing import SampleBuffer, mix_at_snr

KINDS = ("clean", "noise", "noisy", "ultrasound-feature", "mel-feature")
RECORD_KEYS = ("id", "speaker_id", "path", "duration_s", "kind")
DEFAULT_SNR_GRID = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0)


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    speaker_id: str
    path: str
    duration_s: float
    kind: str
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.duration_s <= 0:
            raise ValueError(f"entry {self.id!r}: duration must be positive")

    def to_record(self) -> dict:
        rec = {"id": self.id, "speaker_id": self.speaker_id, "path": self.path,
               "duration_s": self.duration_s, "kind": self.kind}
        for key in sorted(self.extra):
            rec[key] = self.extra[key]
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "ManifestEntry":
        extra = {k: v for k, v in rec.items() if k not in RECORD_KEYS}
        return cls(rec["id"], rec["speaker_id"], rec["path"],
                   float(rec["duration_s"]), rec["kind"], extra)


class Manifest:
    """Ordered collection of entries with unique ids."""

    def __init__(self, entries):
        self.entries = list(entries)
        seen = set()
        for e in self.entries:
            if e.id in seen:
                raise ValueError(f"duplicate manifest id {e.id!r}")
            seen.add(e.id)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def by_speaker(self) -> dict:
        groups: dict = {}
        for e in self.entries:
            groups.setdefault(e.speaker_id, []).append(e)
        return groups

    def save(self, path) -> None:
        lines = [json.dumps(e.to_record(), ensure_ascii=False) for e in self.entries]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""),
                              encoding="utf-8")

    @classmethod
    def load(cls, path, check_paths: bool = True) -> "Manifest":
        base = Path(path).parent
        entries = []
        for ln, rec in read_json_lines(path, RECORD_KEYS, numbers=("duration_s",)):
            entry = ManifestEntry.from_record(rec)
            if check_paths:
                p = Path(entry.path)
                resolved = p if p.is_absolute() else base / p
                if not resolved.exists():
                    raise ValueError(f"{path}:{ln}: path {entry.path!r} does not resolve")
            entries.append(entry)
        return cls(entries)

    def resolve_path(self, entry: ManifestEntry, base) -> Path:
        p = Path(entry.path)
        return p if p.is_absolute() else Path(base) / p


def read_json_lines(path, keys=(), numbers=()) -> list:
    """(line number, record) for every nonblank line of a JSON-lines file.

    A line that is not a JSON object, that lacks one of ``keys``, or whose
    value under one of ``numbers`` is not a finite JSON number (null, a
    string, a bool, NaN) raises ValueError naming PATH:LINE.
    """
    records = []
    for ln, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{ln}: bad JSON record: {exc}") from exc
        if not isinstance(rec, dict):
            raise ValueError(f"{path}:{ln}: record is not a JSON object")
        for key in keys:
            if key not in rec:
                raise ValueError(f"{path}:{ln}: missing key {key!r}")
        for key in numbers:
            if key in rec and not _is_number(rec[key]):
                raise ValueError(f"{path}:{ln}: key {key!r} must be a number")
        records.append((ln, rec))
    return records


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class MixSpec:
    """Mixing protocol: SNR grid, seed, and optional clean/noise restriction."""

    snr_grid: tuple = DEFAULT_SNR_GRID
    seed: int = 0
    clean_id: str | None = None
    noise_ids: tuple | None = None

    def __post_init__(self):
        if len(self.snr_grid) == 0:
            raise ValueError("snr_grid must be nonempty")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


def temporal_split(manifest: Manifest, test_fraction: float = 0.2):
    """Per-speaker chronological split; the earliest entries become the test set.

    Entries must already be in chronological order per speaker (the manifest
    order is taken as the clock).  Returns (train, test).
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    train, test = [], []
    for speaker, group in manifest.by_speaker().items():
        k = len(group)
        if k < 2:
            raise ValueError(f"speaker {speaker!r} has a single recording; cannot split")
        n_test = math.ceil(test_fraction * k)
        if n_test >= k:
            raise ValueError(
                f"speaker {speaker!r}: test fraction {test_fraction} leaves no training data"
            )
        test.extend(group[:n_test])
        train.extend(group[n_test:])
    order = {e.id: i for i, e in enumerate(manifest)}
    train.sort(key=lambda e: order[e.id])
    test.sort(key=lambda e: order[e.id])
    return Manifest(train), Manifest(test)


def build_mixtures(clean: Manifest, noise: Manifest, spec: MixSpec,
                   noises_per_clean: int = 20, out_dir=None,
                   clean_base=".", noise_base=".") -> Manifest:
    """Mix every clean entry with drawn noises at SNRs from the grid.

    For each clean entry, ``noises_per_clean`` distinct noises are drawn and
    one SNR per mixture is sampled from ``spec.snr_grid``, all from a single
    generator seeded with ``spec.seed``.  Mixture WAVs are written to
    ``out_dir`` as float32 and the returned manifest records the provenance
    (clean id, noise id, SNR, seed) of every file.  Noises are loaded when
    first drawn; if any load or write fails, the mixtures this call already
    wrote are removed before the error propagates.
    """
    if out_dir is None:
        raise ValueError("out_dir is required")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    noise_by_id = {e.id: e for e in noise}
    pool = list(spec.noise_ids) if spec.noise_ids is not None else [e.id for e in noise]
    missing = [nid for nid in pool if nid not in noise_by_id]
    if missing:
        raise ValueError(f"noise ids not in manifest: {missing}")
    if len(pool) < noises_per_clean:
        raise ValueError(
            f"noise pool has {len(pool)} entries; need at least {noises_per_clean}"
        )
    clean_entries = [e for e in clean
                     if spec.clean_id is None or e.id == spec.clean_id]
    if spec.clean_id is not None and not clean_entries:
        raise ValueError(f"clean id {spec.clean_id!r} not in manifest")
    rng = np.random.default_rng(spec.seed)
    grid = np.asarray(spec.snr_grid, dtype=np.float64)
    noise_cache: dict = {}
    out_entries = []
    written = []
    try:
        for c in clean_entries:
            chosen = rng.choice(len(pool), size=noises_per_clean, replace=False)
            snr_picks = rng.integers(0, len(grid), size=noises_per_clean)
            clean_buf = load_wav(clean.resolve_path(c, clean_base))
            for j, snr_i in zip(chosen, snr_picks):
                nid = pool[int(j)]
                snr_db = float(grid[int(snr_i)])
                if nid not in noise_cache:
                    noise_cache[nid] = load_wav(
                        noise.resolve_path(noise_by_id[nid], noise_base))
                mixture = mix_at_snr(clean_buf, noise_cache[nid], snr_db)
                name = f"{c.id}__{nid}__snr{snr_db:+g}.wav"
                written.append(out_dir / name)
                save_wav(out_dir / name, mixture, encoding="float32")
                out_entries.append(ManifestEntry(
                    id=f"{c.id}__{nid}",
                    speaker_id=c.speaker_id,
                    path=name,
                    duration_s=len(mixture) / mixture.fs,
                    kind="noisy",
                    extra={"clean_id": c.id, "noise_id": nid,
                           "snr_db": snr_db, "seed": spec.seed},
                ))
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return Manifest(out_entries)


# -- WAV I/O ------------------------------------------------------------------

_FMT_PCM = 1
_FMT_FLOAT = 3


def save_wav(path, buf: SampleBuffer, encoding: str = "float32") -> None:
    """Write a mono RIFF/WAVE file, PCM 16-bit or IEEE float-32.

    PCM samples are clipped to [-1, 1] and quantized as round(x * 32768),
    so a save/load round trip moves no sample by more than 1/32768.
    """
    if encoding == "pcm16":
        q = np.clip(np.round(buf.samples * 32768.0), -32768, 32767)
        payload = q.astype("<i2").tobytes()
        fmt, bits = _FMT_PCM, 16
    elif encoding == "float32":
        payload = buf.samples.astype("<f4").tobytes()
        fmt, bits = _FMT_FLOAT, 32
    else:
        raise ValueError("encoding must be 'pcm16' or 'float32'")
    fs = int(round(buf.fs))
    block = bits // 8
    fmt_chunk = struct.pack("<4sIHHIIHH", b"fmt ", 16, fmt, 1, fs,
                            fs * block, block, bits)
    fact_chunk = b""
    if fmt == _FMT_FLOAT:
        fact_chunk = struct.pack("<4sII", b"fact", 4, len(buf))
    data_chunk = struct.pack("<4sI", b"data", len(payload)) + payload
    if len(payload) % 2:
        data_chunk += b"\x00"
    body = fmt_chunk + fact_chunk + data_chunk
    riff = struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body
    Path(path).write_bytes(riff)


def load_wav(path) -> SampleBuffer:
    """Read a mono RIFF/WAVE file (PCM16 or float32); fs comes from the header.

    NaN or infinite samples raise ValueError, so they never reach a feature
    or a mixture.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt_info = None
    data = None
    while pos + 8 <= len(raw):
        cid, size = struct.unpack("<4sI", raw[pos:pos + 8])
        body = raw[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise ValueError(f"{path}: truncated {cid!r} chunk")
        if cid == b"fmt ":
            if size < 16:
                raise ValueError(f"{path}: malformed fmt chunk")
            fmt_info = struct.unpack("<HHIIHH", body[:16])
        elif cid == b"data":
            data = body
        pos += 8 + size + (size % 2)
    if fmt_info is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    audio_fmt, channels, fs, _, _, bits = fmt_info
    if channels != 1:
        raise ValueError(f"{path}: only mono supported, got {channels} channels")
    if audio_fmt == _FMT_PCM and bits == 16:
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    elif audio_fmt == _FMT_FLOAT and bits == 32:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
    else:
        raise ValueError(
            f"{path}: unsupported format (fmt={audio_fmt}, bits={bits}); "
            "expected PCM16 or float32"
        )
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"{path}: {np.count_nonzero(~np.isfinite(samples))} "
                         "non-finite samples")
    return SampleBuffer(float(fs), samples)
