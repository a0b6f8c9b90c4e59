import json

import numpy as np
import pytest

from echokit import (
    Manifest,
    ManifestEntry,
    SampleBuffer,
    load_feature,
    load_wav,
    mix_at_snr,
    save_wav,
)
from echokit.cli import main

from conftest import speechlike


class TestGlobalOptions:
    def test_print_config_defaults(self, capsys):
        assert main(["--print-config"]) == 0
        out = capsys.readouterr().out
        assert "f0 = 17250" in out
        assert "tau = 0.07" in out
        assert "snr_grid = -10, -5, 0, 5, 10, 15" in out

    def test_no_subcommand_is_input_error(self, capsys):
        assert main([]) == 1

    def test_bad_flag_is_input_error(self):
        assert main(["--no-such-flag"]) == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("frobnicate = 1\n")
        assert main(["--config", str(cfg), "synth", "--duration", "0.1",
                     "--out", str(tmp_path / "x.wav")]) == 1
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, jobs, tmp_path, capsys):
        assert main(["--jobs", jobs, "split", "--manifest", str(tmp_path / "m.jsonl"),
                     "--train-out", str(tmp_path / "a.jsonl"),
                     "--test-out", str(tmp_path / "b.jsonl")]) == 1
        assert "--jobs: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "a.jsonl").exists()

    def test_config_round_trips_through_print(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("f0 = 18000\nn_tones = 4\n")
        assert main(["--config", str(cfg), "--print-config"]) == 0
        assert "f0 = 18000" in capsys.readouterr().out


class TestSynthSimulate:
    def test_synth_writes_wav_and_config(self, tmp_path):
        out = tmp_path / "tx.wav"
        assert main(["synth", "--duration", "0.5", "--out", str(out)]) == 0
        buf = load_wav(out)
        assert len(buf) == 24000
        assert buf.fs == 48000
        assert (tmp_path / "tx.wav.config.txt").exists()

    def test_synth_pcm16(self, tmp_path):
        out = tmp_path / "tx16.wav"
        assert main(["synth", "--duration", "0.1", "--out", str(out), "--pcm16"]) == 0
        assert load_wav(out).fs == 48000

    def test_simulate_reflectors(self, tmp_path):
        out = tmp_path / "rx.wav"
        rc = main(["simulate", "--duration", "0.25", "--out", str(out),
                   "--reflector", "static:0.3",
                   "--reflector", "linear:1.0:0.5:0.7"])
        assert rc == 0
        assert len(load_wav(out)) == 12000

    def test_simulate_bad_reflector_spec(self, tmp_path, capsys):
        rc = main(["simulate", "--duration", "0.1", "--out", str(tmp_path / "x.wav"),
                   "--reflector", "orbit:1:2"])
        assert rc == 1
        assert "reflector" in capsys.readouterr().err


class TestExtract:
    def test_static_scene_feature_at_floor(self, tmp_path):
        # win == n_fft puts static carriers on exact bins; every retained
        # channel lands on the -120 dB floor
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("ultra_win = 4096\n")
        rx = tmp_path / "rx.wav"
        assert main(["simulate", "--duration", "0.5", "--out", str(rx),
                     "--reflector", "static:0.25"]) == 0
        out = tmp_path / "rx.uft"
        assert main(["--config", str(cfg), "extract-ultra", str(rx),
                     "--out", str(out)]) == 0
        rec = load_feature(out)
        assert rec.frames.shape[1] == 14
        np.testing.assert_allclose(rec.frames, -120.0)

    def test_extract_mel_shape(self, tmp_path):
        rx = tmp_path / "speech.wav"
        rng = np.random.default_rng(0)
        save_wav(rx, SampleBuffer(48000, 0.1 * rng.standard_normal(48000)))
        out = tmp_path / "mel.uft"
        assert main(["extract-mel", str(rx), "--out", str(out)]) == 0
        rec = load_feature(out)
        assert rec.frames.shape[1] == 128
        assert rec.fs == 16000
        assert rec.hop == 80

    def test_batch_with_failure_continues(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        good = tmp_path / "good.wav"
        save_wav(good, SampleBuffer(48000, 0.1 * rng.standard_normal(48000)))
        bad = tmp_path / "missing.wav"
        out_dir = tmp_path / "feats"
        rc = main(["extract-mel", str(good), str(bad), "--out-dir", str(out_dir)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "missing.wav" in captured.err
        assert "1/2" in captured.out
        assert (out_dir / "good.uft").exists()

    def test_out_with_multiple_inputs_rejected(self, tmp_path, capsys):
        rc = main(["extract-mel", "a.wav", "b.wav", "--out", "x.uft"])
        assert rc == 1


class TestMixSplit:
    @pytest.fixture
    def corpus(self, tmp_path):
        rng = np.random.default_rng(42)
        clean_entries, noise_entries = [], []
        for i in range(3):
            name = f"c{i}.wav"
            save_wav(tmp_path / name,
                     SampleBuffer(16000, 0.2 * rng.standard_normal(3200) + 0.01))
            clean_entries.append(ManifestEntry(f"c{i}", f"s{i}", name, 0.2, "clean"))
        for i in range(6):
            name = f"n{i}.wav"
            save_wav(tmp_path / name, SampleBuffer(16000, rng.standard_normal(3200)))
            noise_entries.append(ManifestEntry(f"n{i}", "noise", name, 0.2, "noise"))
        Manifest(clean_entries).save(tmp_path / "clean.jsonl")
        Manifest(noise_entries).save(tmp_path / "noise.jsonl")
        return tmp_path

    def test_mix_deterministic_trees(self, corpus):
        args = lambda run: ["mix", "--clean", str(corpus / "clean.jsonl"),
                            "--noise", str(corpus / "noise.jsonl"),
                            "--out-dir", str(corpus / f"mix_{run}"),
                            "--manifest-out", str(corpus / f"mix_{run}.jsonl"),
                            "--seed", "7", "--noises-per-clean", "4"]
        assert main(args("a")) == 0
        assert main(args("b")) == 0
        assert (corpus / "mix_a.jsonl").read_bytes() == (corpus / "mix_b.jsonl").read_bytes()
        wavs_a = sorted(p.name for p in (corpus / "mix_a").glob("*.wav"))
        wavs_b = sorted(p.name for p in (corpus / "mix_b").glob("*.wav"))
        assert wavs_a == wavs_b and len(wavs_a) == 12
        for name in wavs_a:
            assert (corpus / "mix_a" / name).read_bytes() == \
                (corpus / "mix_b" / name).read_bytes()

    def test_mix_insufficient_pool_is_input_error(self, corpus, capsys):
        rc = main(["mix", "--clean", str(corpus / "clean.jsonl"),
                   "--noise", str(corpus / "noise.jsonl"),
                   "--out-dir", str(corpus / "m"), "--manifest-out",
                   str(corpus / "m.jsonl"), "--noises-per-clean", "50"])
        assert rc == 1
        assert "pool" in capsys.readouterr().err

    def test_mix_nan_noise_is_input_error(self, corpus, capsys):
        save_wav(corpus / "n0.wav", SampleBuffer(16000, np.r_[np.ones(3199), np.nan]))
        Manifest([ManifestEntry("n0", "noise", "n0.wav", 0.2, "noise")]).save(
            corpus / "nan.jsonl")
        rc = main(["mix", "--clean", str(corpus / "clean.jsonl"),
                   "--noise", str(corpus / "nan.jsonl"),
                   "--out-dir", str(corpus / "m"), "--manifest-out",
                   str(corpus / "m.jsonl"), "--noises-per-clean", "1"])
        assert rc == 1
        assert "n0.wav: 1 non-finite samples" in capsys.readouterr().err
        assert not list((corpus / "m").glob("*.wav"))
        assert not (corpus / "m.jsonl").exists()

    def test_mix_failure_removes_written_mixtures(self, corpus, capsys):
        save_wav(corpus / "n1.wav", SampleBuffer(16000, np.r_[np.ones(3199), np.nan]))
        Manifest([ManifestEntry(f"n{i}", "noise", f"n{i}.wav", 0.2, "noise")
                  for i in range(2)]).save(corpus / "bad.jsonl")
        # with this seed the first clean draws n0, then the bad n1
        assert list(np.random.default_rng(1).choice(2, size=2, replace=False)) == [0, 1]
        rc = main(["mix", "--clean", str(corpus / "clean.jsonl"),
                   "--noise", str(corpus / "bad.jsonl"),
                   "--out-dir", str(corpus / "m"), "--manifest-out",
                   str(corpus / "m.jsonl"), "--seed", "1", "--noises-per-clean", "2"])
        assert rc == 1
        assert "n1.wav: 1 non-finite samples" in capsys.readouterr().err
        assert not list((corpus / "m").glob("*.wav"))
        assert not (corpus / "m.jsonl").exists()

    @pytest.mark.parametrize("duration", [None, "abc"])
    def test_manifest_non_numeric_duration_is_one_line_error(self, duration, tmp_path,
                                                            capsys):
        manifest = tmp_path / "all.jsonl"
        manifest.write_text(
            json.dumps({"id": "a", "speaker_id": "s", "path": "a.wav",
                        "duration_s": 1.0, "kind": "clean"}) + "\n"
            + json.dumps({"id": "b", "speaker_id": "s", "path": "b.wav",
                          "duration_s": duration, "kind": "clean"}) + "\n")
        rc = main(["split", "--manifest", str(manifest),
                   "--train-out", str(tmp_path / "train.jsonl"),
                   "--test-out", str(tmp_path / "test.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: {manifest}:2: key 'duration_s' must be a number\n"

    def test_manifest_missing_key_is_one_line_error(self, tmp_path, capsys):
        manifest = tmp_path / "all.jsonl"
        manifest.write_text(
            json.dumps({"id": "a", "speaker_id": "s", "path": "a.wav",
                        "duration_s": 1.0, "kind": "clean"}) + "\n\n"
            + json.dumps({"speaker_id": "s", "path": "b.wav",
                          "duration_s": 1.0, "kind": "clean"}) + "\n")
        rc = main(["split", "--manifest", str(manifest),
                   "--train-out", str(tmp_path / "train.jsonl"),
                   "--test-out", str(tmp_path / "test.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {manifest}:3: missing key 'id'\n"

    def test_split(self, tmp_path):
        entries = [ManifestEntry(f"s{s}-r{i}", f"s{s}", f"s{s}-r{i}.wav", 1.0, "clean")
                   for s in range(2) for i in range(5)]
        Manifest(entries).save(tmp_path / "all.jsonl")
        rc = main(["split", "--manifest", str(tmp_path / "all.jsonl"),
                   "--train-out", str(tmp_path / "train.jsonl"),
                   "--test-out", str(tmp_path / "test.jsonl")])
        assert rc == 0
        train = Manifest.load(tmp_path / "train.jsonl", check_paths=False)
        test = Manifest.load(tmp_path / "test.jsonl", check_paths=False)
        assert len(train) == 8 and len(test) == 2
        assert {e.id for e in test} == {"s0-r0", "s1-r0"}


class TestEvaluate:
    @pytest.fixture
    def pairs(self, tmp_path, rng):
        clean = speechlike(rng, seconds=1.0)
        noise = SampleBuffer(16000, rng.standard_normal(len(clean)))
        noisy = mix_at_snr(clean, noise, 5.0)
        save_wav(tmp_path / "clean.wav", clean)
        save_wav(tmp_path / "noisy.wav", noisy)
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps(
            {"id": "p0", "clean": "clean.wav", "processed": "noisy.wav"}) + "\n")
        return tmp_path, pairs

    def test_report_fields_and_order(self, pairs):
        base, pairs_file = pairs
        out = base / "report.jsonl"
        assert main(["evaluate", "--pairs", str(pairs_file), "--out", str(out)]) == 0
        rec = json.loads(out.read_text().splitlines()[0])
        assert list(rec.keys()) == ["id", "stoi", "lsd", "ssim", "snr_db"]
        assert 0.0 <= rec["stoi"] <= 1.0
        assert rec["lsd"] > 0.0
        assert -1.0 <= rec["ssim"] <= 1.0
        assert abs(rec["snr_db"] - 5.0) < 0.05

    def test_pesq_merge(self, pairs):
        base, pairs_file = pairs
        pesq = base / "pesq.jsonl"
        pesq.write_text(json.dumps({"id": "p0", "pesq": 3.35}) + "\n")
        out = base / "report.jsonl"
        assert main(["evaluate", "--pairs", str(pairs_file), "--out", str(out),
                     "--pesq", str(pesq)]) == 0
        rec = json.loads(out.read_text().splitlines()[0])
        assert rec["pesq"] == 3.35

    def test_partial_failure(self, pairs, capsys):
        base, pairs_file = pairs
        with open(pairs_file, "a") as f:
            f.write(json.dumps({"id": "p1", "clean": "nope.wav",
                                "processed": "noisy.wav"}) + "\n")
        out = base / "report.jsonl"
        assert main(["evaluate", "--pairs", str(pairs_file), "--out", str(out)]) == 1
        assert len(out.read_text().splitlines()) == 1
        assert "p1" in capsys.readouterr().err

    def test_pairs_missing_key_is_one_line_error(self, pairs, capsys):
        base, pairs_file = pairs
        pairs_file.write_text(json.dumps({"id": "p0", "clean": "clean.wav"}) + "\n")
        out = base / "report.jsonl"
        assert main(["evaluate", "--pairs", str(pairs_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: {pairs_file}:1: missing key 'processed'\n"
        assert not out.exists()

    def test_pesq_missing_key_is_one_line_error(self, pairs, capsys):
        base, pairs_file = pairs
        pesq = base / "pesq.jsonl"
        pesq.write_text(json.dumps({"id": "p0", "pesq": 3.1}) + "\n"
                        + json.dumps({"id": "p1"}) + "\n")
        out = base / "report.jsonl"
        assert main(["evaluate", "--pairs", str(pairs_file), "--out", str(out),
                     "--pesq", str(pesq)]) == 1
        assert capsys.readouterr().err == f"error: {pesq}:2: missing key 'pesq'\n"

    @pytest.mark.parametrize("value", [None, "abc"])
    def test_pesq_non_numeric_is_one_line_error(self, value, pairs, capsys):
        base, pairs_file = pairs
        pesq = base / "pesq.jsonl"
        pesq.write_text(json.dumps({"id": "p0", "pesq": value}) + "\n")
        out = base / "report.jsonl"
        assert main(["evaluate", "--pairs", str(pairs_file), "--out", str(out),
                     "--pesq", str(pesq)]) == 1
        assert capsys.readouterr().err == f"error: {pesq}:1: key 'pesq' must be a number\n"
        assert not out.exists()

    def test_jobs_flag(self, pairs):
        base, pairs_file = pairs
        out = base / "report.jsonl"
        assert main(["--jobs", "2", "evaluate", "--pairs", str(pairs_file),
                     "--out", str(out)]) == 0


class TestLosscheck:
    def test_dual_mse_passes(self, capsys):
        assert main(["losscheck", "--loss", "dual-mse", "--trials", "20"]) == 0
        out = capsys.readouterr().out
        assert "loss=dual-mse" in out and "PASS" in out

    def test_all_losses_quick(self, capsys):
        assert main(["losscheck", "--loss", "all", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4

    def test_unreachable_tolerance_exits_2(self, capsys):
        rc = main(["losscheck", "--loss", "dual-mse", "--trials", "2",
                   "--tol", "1e-18"])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out
