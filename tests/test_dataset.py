import numpy as np
import pytest

from echokit import (
    Manifest,
    ManifestEntry,
    MixSpec,
    SampleBuffer,
    build_mixtures,
    load_wav,
    measure_snr,
    save_wav,
    temporal_split,
)


def entry(i, speaker="s1", kind="clean", path=None):
    return ManifestEntry(id=f"{speaker}-r{i}", speaker_id=speaker,
                         path=path or f"{speaker}-r{i}.wav",
                         duration_s=1.0, kind=kind)


class TestManifest:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Manifest([entry(1), entry(1)])

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ManifestEntry("x", "s", "x.wav", 1.0, "unknown")

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            ManifestEntry("x", "s", "x.wav", 0.0, "clean")

    def test_save_load_round_trip(self, tmp_path):
        m = Manifest([entry(i) for i in range(3)])
        p = tmp_path / "m.jsonl"
        m.save(p)
        loaded = Manifest.load(p, check_paths=False)
        assert [e.to_record() for e in loaded] == [e.to_record() for e in m]

    def test_load_checks_paths(self, tmp_path):
        m = Manifest([entry(1)])
        p = tmp_path / "m.jsonl"
        m.save(p)
        with pytest.raises(ValueError, match="resolve"):
            Manifest.load(p)
        (tmp_path / "s1-r1.wav").write_bytes(b"")
        assert len(Manifest.load(p)) == 1

    def test_extra_fields_round_trip(self, tmp_path):
        e = ManifestEntry("m1", "s1", "m1.wav", 0.5, "noisy",
                          extra={"snr_db": -5.0, "clean_id": "c9"})
        p = tmp_path / "m.jsonl"
        Manifest([e]).save(p)
        back = Manifest.load(p, check_paths=False).entries[0]
        assert back.extra == {"snr_db": -5.0, "clean_id": "c9"}


class TestTemporalSplit:
    def test_ten_recordings_first_two_to_test(self):
        m = Manifest([entry(i) for i in range(10)])
        train, test = temporal_split(m, 0.2)
        assert [e.id for e in test] == ["s1-r0", "s1-r1"]
        assert [e.id for e in train] == [f"s1-r{i}" for i in range(2, 10)]

    def test_five_recordings_first_one_to_test(self):
        m = Manifest([entry(i) for i in range(5)])
        train, test = temporal_split(m, 0.2)
        assert [e.id for e in test] == ["s1-r0"]
        assert len(train) == 4

    def test_single_recording_speaker_rejected(self):
        m = Manifest([entry(0)])
        with pytest.raises(ValueError, match="single recording"):
            temporal_split(m, 0.2)

    def test_disjoint_and_complete_per_speaker(self):
        entries = []
        for s, count in (("a", 7), ("b", 4), ("c", 11)):
            entries.extend(entry(i, speaker=s) for i in range(count))
        m = Manifest(entries)
        train, test = temporal_split(m, 0.2)
        train_ids = {e.id for e in train}
        test_ids = {e.id for e in test}
        assert not train_ids & test_ids
        assert train_ids | test_ids == {e.id for e in m}

    def test_interleaved_speakers_keep_chronology(self):
        entries = []
        for i in range(4):
            entries.append(entry(i, speaker="a"))
            entries.append(entry(i, speaker="b"))
        train, test = temporal_split(Manifest(entries), 0.2)
        assert {e.id for e in test} == {"a-r0", "b-r0"}

    def test_fraction_bounds(self):
        m = Manifest([entry(i) for i in range(4)])
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="fraction"):
                temporal_split(m, bad)


class TestWavIO:
    def test_float32_bitwise_round_trip(self, tmp_path, rng):
        buf = SampleBuffer(16000, rng.standard_normal(777).astype(np.float32)
                           .astype(np.float64))
        p = tmp_path / "f.wav"
        save_wav(p, buf, encoding="float32")
        back = load_wav(p)
        assert back.fs == 16000
        np.testing.assert_array_equal(back.samples, buf.samples)

    def test_pcm16_quantization_bound(self, tmp_path, rng):
        buf = SampleBuffer(48000, rng.uniform(-1.0, 1.0, size=5000))
        p = tmp_path / "q.wav"
        save_wav(p, buf, encoding="pcm16")
        back = load_wav(p)
        assert np.max(np.abs(back.samples - buf.samples)) <= 1.0 / 32768

    def test_truncated_file_rejected(self, tmp_path, rng):
        buf = SampleBuffer(8000, rng.standard_normal(100))
        p = tmp_path / "t.wav"
        save_wav(p, buf)
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            load_wav(p)

    def test_non_finite_samples_rejected(self, tmp_path):
        p = tmp_path / "nan.wav"
        save_wav(p, SampleBuffer(16000, np.array([0.1, np.nan, 0.2, -np.inf])))
        with pytest.raises(ValueError, match=r"nan\.wav: 2 non-finite samples"):
            load_wav(p)

    def test_not_a_wav(self, tmp_path):
        p = tmp_path / "x.wav"
        p.write_bytes(b"this is not audio")
        with pytest.raises(ValueError, match="RIFF"):
            load_wav(p)

    def test_stereo_rejected(self, tmp_path):
        import struct
        payload = np.zeros(4, dtype="<i2").tobytes()
        fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, 2, 8000, 32000, 4, 16)
        data = struct.pack("<4sI", b"data", len(payload)) + payload
        body = fmt + data
        p = tmp_path / "st.wav"
        p.write_bytes(struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body)
        with pytest.raises(ValueError, match="mono"):
            load_wav(p)

    def test_odd_length_pcm_padding(self, tmp_path):
        buf = SampleBuffer(8000, np.array([0.5]))
        p = tmp_path / "odd.wav"
        save_wav(p, buf, encoding="pcm16")
        back = load_wav(p)
        assert len(back) == 1


class TestBuildMixtures:
    @pytest.fixture
    def corpus(self, tmp_path, rng):
        clean_entries, noise_entries = [], []
        for i in range(10):
            name = f"clean{i}.wav"
            save_wav(tmp_path / name,
                     SampleBuffer(16000, 0.3 * rng.standard_normal(4800) + 0.01))
            clean_entries.append(ManifestEntry(f"c{i}", f"spk{i % 3}", name, 0.3, "clean"))
        for i in range(25):
            name = f"noise{i}.wav"
            save_wav(tmp_path / name, SampleBuffer(16000, rng.standard_normal(6400)))
            noise_entries.append(ManifestEntry(f"n{i}", "noise", name, 0.4, "noise"))
        clean = Manifest(clean_entries)
        noise = Manifest(noise_entries)
        clean.save(tmp_path / "clean.jsonl")
        noise.save(tmp_path / "noise.jsonl")
        return tmp_path, clean, noise

    def test_twenty_mixtures_per_clean(self, corpus, tmp_path):
        base, clean, noise = corpus
        out = build_mixtures(clean, noise, MixSpec(seed=3), noises_per_clean=20,
                             out_dir=tmp_path / "mix", clean_base=base, noise_base=base)
        assert len(out) == 200
        per_clean = {}
        for e in out:
            per_clean.setdefault(e.extra["clean_id"], set()).add(e.extra["noise_id"])
        assert all(len(v) == 20 for v in per_clean.values())

    def test_single_noise_variant(self, corpus, tmp_path):
        base, clean, noise = corpus
        out = build_mixtures(clean, noise, MixSpec(seed=3), noises_per_clean=1,
                             out_dir=tmp_path / "mix1", clean_base=base, noise_base=base)
        assert len(out) == 10

    def test_deterministic_for_fixed_seed(self, corpus, tmp_path):
        base, clean, noise = corpus
        manifests = []
        for run in ("a", "b"):
            out = build_mixtures(clean, noise, MixSpec(seed=7), noises_per_clean=5,
                                 out_dir=tmp_path / f"run_{run}",
                                 clean_base=base, noise_base=base)
            mp = tmp_path / f"manifest_{run}.jsonl"
            out.save(mp)
            manifests.append(mp.read_bytes())
        assert manifests[0] == manifests[1]
        a = sorted((tmp_path / "run_a").iterdir())
        b = sorted((tmp_path / "run_b").iterdir())
        assert [p.name for p in a] == [p.name for p in b]
        assert all(x.read_bytes() == y.read_bytes() for x, y in zip(a, b))

    def test_different_seed_changes_draws(self, corpus, tmp_path):
        base, clean, noise = corpus
        outs = []
        for seed in (1, 2):
            out = build_mixtures(clean, noise, MixSpec(seed=seed), noises_per_clean=5,
                                 out_dir=tmp_path / f"seed{seed}",
                                 clean_base=base, noise_base=base)
            outs.append([(e.extra["noise_id"], e.extra["snr_db"]) for e in out])
        assert outs[0] != outs[1]

    def test_mixture_snr_round_trip(self, corpus, tmp_path):
        base, clean, noise = corpus
        out_dir = tmp_path / "rt"
        out = build_mixtures(clean, noise, MixSpec(seed=11), noises_per_clean=3,
                             out_dir=out_dir, clean_base=base, noise_base=base)
        clean_by_id = {e.id: e for e in clean}
        for e in out.entries[:12]:
            noisy = load_wav(out_dir / e.path)
            ref = load_wav(base / clean_by_id[e.extra["clean_id"]].path)
            assert measure_snr(ref, noisy) == pytest.approx(e.extra["snr_db"], abs=0.01)

    def test_insufficient_noise_pool(self, corpus, tmp_path):
        base, clean, noise = corpus
        with pytest.raises(ValueError, match="pool"):
            build_mixtures(clean, noise, MixSpec(seed=0), noises_per_clean=100,
                           out_dir=tmp_path / "nope", clean_base=base, noise_base=base)

    def test_snr_values_come_from_grid(self, corpus, tmp_path):
        base, clean, noise = corpus
        out = build_mixtures(clean, noise, MixSpec(seed=5), noises_per_clean=8,
                             out_dir=tmp_path / "grid", clean_base=base, noise_base=base)
        grid = {-10.0, -5.0, 0.0, 5.0, 10.0, 15.0}
        assert {e.extra["snr_db"] for e in out} <= grid
