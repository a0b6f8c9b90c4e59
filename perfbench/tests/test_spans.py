"""Self-time and accounting arithmetic of the benchmark's span tracer."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import spans
from spans import Span, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_spans_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.active = True

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        inner()
        inner()
        clock.now += 0.5

    inner = tracer.wrap(leaf, "dsp.stft")
    outer = tracer.wrap(middle, "features.extract_mel_feature")
    outer()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (mid,) = by_name["features.extract_mel_feature"]
    assert mid.duration == pytest.approx(5.5)
    assert all(s.parent == mid.id for s in by_name["dsp.stft"])
    self_of = spans.self_times(tracer.spans)
    assert self_of[mid.id] == pytest.approx(1.5)
    assert [self_of[s.id] for s in by_name["dsp.stft"]] == pytest.approx([2.0, 2.0])
    # self times of a single thread add up to the wall time they cover
    assert sum(self_of.values()) == pytest.approx(5.5)


def two_thread_trace():
    """A --jobs 2 command in thread 1 whose library work runs in threads 2, 3.

    cli.evaluate   [0, 10]  thread 1
    config.validate [0, 0.5] thread 1, child of the command
    metrics.stoi   [1, 6]   thread 2, root of its thread, parent the command
    dsp.stft       [2, 3]   thread 2, child of stoi
    metrics.stoi   [2, 9]   thread 3
    """
    return [
        Span(1, "cli.evaluate", 0.0, 10.0, None, 1, 0),
        Span(2, "config.validate", 0.0, 0.5, 1, 1, 0),
        Span(3, "metrics.stoi", 1.0, 6.0, 1, 2, 0),
        Span(4, "dsp.stft", 2.0, 3.0, 3, 2, 0),
        Span(5, "metrics.stoi", 2.0, 9.0, 1, 3, 0),
    ]


def test_two_thread_self_times_are_per_thread():
    self_of = spans.self_times(two_thread_trace())
    # worker spans do not reduce the command's self time: other threads
    assert self_of[1] == pytest.approx(9.5)
    assert self_of[3] == pytest.approx(4.0)
    assert self_of[4] == pytest.approx(1.0)
    assert self_of[5] == pytest.approx(7.0)


def test_two_thread_cli_accounting():
    acc = spans.cli_accounting(two_thread_trace(), {1: 2})
    # library spans cover [0, 0.5] and [1, 9] of the command's 10 s
    assert acc["self_s"] == pytest.approx(1.5)
    # 0.5 + 5 + 7 thread-seconds of library work in 8.5 s of wall time
    assert acc["overlap_s"] == pytest.approx(4.0)
    assert acc["busy_s"] == pytest.approx(12.5)
    assert acc["capacity_s"] == pytest.approx(20.0)


def test_derive_accounts_for_wall_time():
    tracer = Tracer()
    tracer.spans = two_thread_trace()
    tracer.command_jobs = {1: 2}
    out = spans.derive(tracer, rounds=1, traced_wall=10.0, untraced_wall=8.0)
    layer_sum = sum(out[f"{layer}.self_s"][0] for layer in spans.LAYERS)
    assert layer_sum - out["trace.overlap_s"][0] == pytest.approx(10.0)
    assert out["trace.accounted_frac"][0] == pytest.approx(1.0)
    assert out["trace.overhead_frac"][0] == pytest.approx(1.25)
    assert out["cli.self_s"][0] == pytest.approx(1.5)
    assert out["metrics.stoi.calls"][0] == 2
    assert out["metrics.stoi.self_s"][0] == pytest.approx(11.0)
    assert out["cli.worker_busy_frac"][0] == pytest.approx(12.5 / 20.0)
    assert out["cli.evaluate.wall_s"][0] == pytest.approx(10.0)


def test_worker_thread_spans_take_the_command_as_parent():
    tracer = Tracer()
    tracer.active = True
    barrier = threading.Barrier(2, timeout=10)

    def work(x):
        barrier.wait()
        return x * 2

    traced_work = tracer.wrap(work, "dsp.stft")

    def command(argv):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return sum(pool.map(traced_work, [1, 2]))

    main = tracer.wrap_command(command)
    assert main(["--jobs", "2", "evaluate"]) == 6
    (cmd,) = [s for s in tracer.spans if s.name == "cli.evaluate"]
    workers = [s for s in tracer.spans if s.name == "dsp.stft"]
    assert len(workers) == 2
    assert all(s.parent == cmd.id and s.thread != cmd.thread for s in workers)
    assert len({s.thread for s in workers}) == 2
    assert tracer.command_jobs[cmd.id] == 2
    assert spans.self_times(tracer.spans)[cmd.id] == pytest.approx(cmd.duration)


def test_inactive_tracer_records_nothing():
    tracer = Tracer()
    traced = tracer.wrap(lambda: 3, "dsp.stft")
    assert traced() == 3
    assert tracer.spans == []


def test_install_wraps_every_binding():
    import echokit
    from echokit import dataset, dsp, metrics, sensing

    tracer = Tracer()
    spans.install(tracer)
    assert metrics.resample_rational is dsp.resample_rational
    assert dataset.mix_at_snr is sensing.mix_at_snr
    assert echokit.stft is dsp.stft
    rng = np.random.default_rng(0)
    clean = sensing.SampleBuffer(16000, rng.standard_normal(16000))
    noisy = sensing.SampleBuffer(16000, clean.samples + rng.standard_normal(16000))
    tracer.active = True
    metrics.stoi(clean, noisy)
    tracer.active = False
    (stoi,) = [s for s in tracer.spans if s.name == "metrics.stoi"]
    resample = [s for s in tracer.spans if s.name == "dsp.resample_rational"]
    assert len(resample) == 2 and all(s.parent == stoi.id for s in resample)
    assert tracer.maxima["dsp.resample_rational.peak_mb"] > 0
