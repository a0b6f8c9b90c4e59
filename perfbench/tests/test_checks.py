"""The benchmark's output checks pass on real outputs and fail on corrupted ones."""

import numpy as np
import pytest

import checks
import inputs
import workloads
from echokit import features, metrics, sensing


@pytest.fixture(scope="module", params=[0, 1, 2, 3])
def capture_item(request):
    """A 1 s featurize_short item through the library chain."""
    rng = np.random.default_rng(request.param)
    item = {"id": f"c{request.param}", **inputs.session_params(rng, 2 + request.param % 2)}
    tone = sensing.ToneConfig()
    speech = sensing.SampleBuffer(48000, inputs.speechlike(rng, 1.0, 48000, 150.0))
    tx = sensing.synth_multitone(tone, 1.0)
    echo = sensing.simulate_reflection(
        tx, [sensing.MotionProfile(workloads._range_fn(p), p["reflectivity"])
             for p in item["reflectors"]], tone)
    capture = sensing.mix_at_snr(echo, speech, item["echo_snr_db"])
    ultra = features.ultrasound_feature_from_capture(capture, tone).frames
    mel = features.extract_mel_feature(capture).frames
    return item, np.array(ultra), np.array(mel)


def failed(problems):
    return sum(1 for _, found in problems if found)


def test_real_features_pass(capture_item):
    item, ultra, mel = capture_item
    assert workloads.Featurize.check([(item, ultra, mel, None)]) == [(item["id"], [])]


def test_nan_feature_fails(capture_item):
    item, ultra, mel = capture_item
    bad = ultra.copy()
    bad[3, 5] = np.nan
    assert failed(workloads.Featurize.check([(item, bad, mel, None)])) == 1
    bad_mel = mel.copy()
    bad_mel[0, 0] = np.inf
    assert failed(workloads.Featurize.check([(item, ultra, bad_mel, None)])) == 1


def test_flipped_doppler_channels_fail(capture_item):
    item, ultra, mel = capture_item
    assert failed(workloads.Featurize.check([(item, ultra[:, ::-1], mel, None)])) == 1


def test_wrong_shape_and_frame_gap_fail(capture_item):
    item, ultra, mel = capture_item
    assert checks.check_features(ultra[:, :13], mel, item["doppler_sign"])
    assert checks.check_features(ultra[:-3], mel, item["doppler_sign"])
    assert not checks.check_features(ultra[:-2], mel, item["doppler_sign"])


def test_item_error_counts_as_failed(capture_item):
    item, _, _ = capture_item
    assert failed(workloads.Featurize.check([(item, None, None, "ValueError: x")])) == 1


def evaluate_row(snr_db):
    rng = np.random.default_rng(7)
    clean = sensing.SampleBuffer(16000, inputs.speechlike(rng, 3.0, 16000, 120.0))
    noise = sensing.SampleBuffer(16000, inputs.noise(rng, "pink", 4.0, 16000))
    mixture = sensing.mix_at_snr(clean, noise, snr_db)
    # the evaluate pipeline stores mixtures as float32
    mixture = sensing.SampleBuffer(16000, mixture.samples.astype(np.float32))
    return {"id": "m", "stoi": metrics.stoi(clean, mixture), "lsd": 1.0, "ssim": 0.5,
            "snr_db": metrics.measure_snr(clean, mixture)}


def test_report_row_checks():
    row = evaluate_row(-5.0)
    mixtures = [{"id": "m", "snr_db": -5.0}]
    ok = {"split": 0, "mix": 0, "evaluate": 0}
    assert failed(workloads.EvalCorpus.check((mixtures, {"m": row}, 1, ok))) == 0
    wrong_snr = [{"id": "m", "snr_db": 0.0}]
    assert failed(workloads.EvalCorpus.check((wrong_snr, {"m": row}, 1, ok))) == 1
    assert failed(workloads.EvalCorpus.check((mixtures, {}, 1, ok))) == 1
    assert failed(workloads.EvalCorpus.check((mixtures, {"m": row}, 2, ok))) == 1
    assert failed(workloads.EvalCorpus.check((mixtures, {"m": row}, 1,
                                               {**ok, "evaluate": 1}))) == 1
    assert checks.check_report_row({**row, "stoi": 1.2}, -5.0)
    assert checks.check_report_row({**row, "lsd": float("nan")}, -5.0)


def test_loss_equality_check():
    assert not checks.check_loss_batch_equal(1.25, 1.25)
    assert checks.check_loss_batch_equal(1.25, 1.26)
    assert checks.check_loss_batch_equal(float("nan"), 1.0)


def test_compare_reference_tolerance():
    want = {"a": {"mean": 10.0, "rows": 3}, "b": [1.0, 2.0]}
    assert not checks.compare_reference({"a": {"mean": 10.0 + 1e-8, "rows": 3},
                                         "b": [1.0, 2.0]}, want)
    assert checks.compare_reference({"a": {"mean": 10.001, "rows": 3},
                                     "b": [1.0, 2.0]}, want)
    assert checks.compare_reference({"a": {"mean": 10.0, "rows": 4},
                                     "b": [1.0, 2.0]}, want)
    assert checks.compare_reference({"a": {"mean": 10.0, "rows": 3}, "b": [1.0]}, want)
