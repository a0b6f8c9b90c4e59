"""Span tracer for the echokit benchmark, installed from outside the package.

``install`` wraps every public function of the library modules (and the
``PipelineConfig`` methods and ``cli.main``) by rebinding module attributes
at run time, in every echokit module that binds the same function object,
so ``metrics.resample_rational`` and ``dataset.mix_at_snr`` are traced too.
No file of the package changes.

A span is ``(id, name, start, end, parent, thread, item)``.  Spans stay in
memory and are written out once, at the end of the traced run.  A span's
layer is the part of its name before the first dot.

Self time is a span's duration minus the time its children in the same
thread cover.  A library span that starts with an empty stack in a worker
thread gets the open CLI command as its parent, but does not reduce that
command's self time.  ``cli.self_s`` is instead the command wall time during
which no library span runs on any thread: the CLI's own overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import threading
import time
import tracemalloc
from collections import defaultdict
from typing import NamedTuple

LIBRARY_LAYERS = ("sensing", "dsp", "features", "metrics", "losses", "dataset")
LAYERS = LIBRARY_LAYERS + ("config", "cli")
CONFIG_METHODS = ("from_file", "validate", "to_text", "tone_config")
CLI_COMMANDS = ("extract-ultra", "extract-mel", "split", "mix", "evaluate", "losscheck")

# Functions whose per-call peak of traced allocations is reported.
PEAK_FUNCTIONS = ("dsp.stft", "dsp.filter_apply", "dsp.resample_rational",
                  "features.extract_mel_feature")

# Per-function metrics reported by the traced run, by layer.
REPORTED = {
    "sensing": ("synth_multitone", "simulate_reflection", "mix_at_snr"),
    "dsp": ("design_elliptic", "filter_apply", "resample_rational", "stft",
            "mel_filterbank", "mel_spectrogram"),
    "features": ("ultrasound_feature_from_capture", "extract_ultrasound_feature",
                 "extract_mel_feature", "align", "save_feature", "load_feature"),
    "metrics": ("stoi", "lsd", "ssim", "measure_snr"),
    "losses": ("contrastive_loss", "temporal_infonce", "semantic_infonce",
               "dual_mse", "grad_check"),
    "dataset": ("load_wav", "save_wav", "build_mixtures", "temporal_split"),
}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    item: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _PeakFrame:
    __slots__ = ("base", "seen")


class Tracer:
    """In-memory span recorder; inactive until ``active`` is set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.sums: dict = defaultdict(float)
        self.maxima: dict = defaultdict(float)
        self.command_jobs: dict = {}
        self.active = False
        self.item: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._command: int | None = None
        self._lock = threading.Lock()
        self._peak_frames: list[_PeakFrame] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, fn, args, kwargs, peak: bool = False,
               jobs: int | None = None):
        """Call ``fn`` inside a span named ``name``; return its result.

        ``jobs`` marks the span as a CLI command run with that many workers;
        spans that other threads start while it is open take it as parent."""
        stack = self._stack()
        parent = stack[-1] if stack else self._command
        sid = next(self._ids)
        stack.append(sid)
        if jobs is not None:
            self._command = sid
            self.command_jobs[sid] = jobs
        start = self.clock()
        frame = self._peak_start() if peak else None
        try:
            return fn(*args, **kwargs)
        finally:
            if frame is not None:
                self.add_max(f"{name}.peak_mb", self._peak_end(frame) / 2 ** 20)
            end = self.clock()
            stack.pop()
            if jobs is not None:
                self._command = None
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident(), self.item))

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.sums[key] += value

    def add_max(self, key: str, value: float) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima[key], value)

    # tracemalloc runs only while some peak-measured call is open; a frame's
    # peak is the traced high-water mark above the level at its start.  The
    # peak is process-wide, so under --jobs 2 it includes the other thread.
    def _peak_start(self) -> _PeakFrame:
        with self._lock:
            if not self._peak_frames:
                tracemalloc.start()
            current, peak = tracemalloc.get_traced_memory()
            for f in self._peak_frames:
                f.seen = max(f.seen, peak)
            tracemalloc.reset_peak()
            frame = _PeakFrame()
            frame.base = frame.seen = current
            self._peak_frames.append(frame)
            return frame

    def _peak_end(self, frame: _PeakFrame) -> float:
        with self._lock:
            peak = tracemalloc.get_traced_memory()[1]
            for f in self._peak_frames:
                f.seen = max(f.seen, peak)
            self._peak_frames.remove(frame)
            if not self._peak_frames:
                tracemalloc.stop()
            return frame.seen - frame.base

    def wrap(self, fn, name: str, peak: bool = False, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            result = self.record(name, fn, args, kwargs, peak=peak)
            if measure is not None:
                measure(self, args, kwargs, result)
            return result
        return traced

    def wrap_command(self, main):
        """Trace ``cli.main(argv)`` as one ``cli.<command>`` span."""
        @functools.wraps(main)
        def traced(argv=None):
            if not self.active:
                return main(argv)
            command = next(tok for tok in argv if tok in CLI_COMMANDS)
            jobs = int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1
            return self.record(f"cli.{command}", main, (argv,), {}, jobs=jobs)
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s._asdict()) + "\n")


# -- counters recorded at layer boundaries ------------------------------------

def _samples_out(tracer, args, kwargs, result):
    tracer.add("sensing.samples_out", len(result))


def _stft_out(tracer, args, kwargs, result):
    frames = result.frames
    tracer.add("dsp.stft.frames_out", frames.shape[0])
    # computed from the shape: T x (n_fft/2 + 1) complex128 values
    tracer.add("dsp.stft.bytes_out", frames.shape[0] * frames.shape[1] * 16)


def _align_gap(tracer, args, kwargs, result):
    mel = args[0] if args else kwargs["mel"]
    ultra = args[1] if len(args) > 1 else kwargs["ultra"]
    tracer.add_max("features.align.frame_gap_max", abs(mel.n_frames - ultra.n_frames))


def _file_bytes(key):
    def measure(tracer, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        tracer.add(key, os.path.getsize(path))
    return measure


MEASURES = {
    "sensing.synth_multitone": _samples_out,
    "sensing.simulate_reflection": _samples_out,
    "sensing.mix_at_snr": _samples_out,
    "dsp.stft": _stft_out,
    "features.align": _align_gap,
    "dataset.load_wav": _file_bytes("dataset.bytes_read"),
    "dataset.save_wav": _file_bytes("dataset.bytes_written"),
}


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions in place; see the module doc."""
    pkg = importlib.import_module("echokit")
    cli = importlib.import_module("echokit.cli")
    config = importlib.import_module("echokit.config")
    libs = {layer: importlib.import_module(f"echokit.{layer}") for layer in LIBRARY_LAYERS}
    wrapped = {}
    for layer, mod in libs.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped[obj] = tracer.wrap(obj, name, peak=name in PEAK_FUNCTIONS,
                                       measure=MEASURES.get(name))
    for mod in (pkg, cli, config, *libs.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    cls = config.PipelineConfig
    for attr in CONFIG_METHODS:
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, f"config.{attr}")))
        else:
            setattr(cls, attr, tracer.wrap(raw, f"config.{attr}"))
    cli.main = tracer.wrap_command(cli.main)


# -- derivation ---------------------------------------------------------------

def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _clip(intervals, lo: float, hi: float) -> list:
    return [(max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi]


def self_times(spans) -> dict:
    """Span id -> duration minus the time of its same-thread children."""
    thread_of = {s.id: s.thread for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None and thread_of.get(s.parent) == s.thread:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def cli_accounting(spans, jobs: dict) -> dict:
    """``cli.self_s``, library busy time per command, and thread overlap.

    ``self_s``: command wall during which no library span runs anywhere.
    ``busy_s``: library span time summed over threads, inside commands.
    ``overlap_s``: library time counted twice because threads ran at once,
    over the whole trace; it is what the per-thread self times of all layers
    add up to beyond the wall time they cover.
    """
    lib = [s for s in spans if s.layer != "cli"]
    lib_iv = [(s.start, s.end) for s in lib]
    by_thread = defaultdict(list)
    for s in lib:
        by_thread[s.thread].append((s.start, s.end))
    overlap = sum(_union(iv) for iv in by_thread.values()) - _union(lib_iv)
    self_s = busy = capacity = 0.0
    for c in (s for s in spans if s.layer == "cli"):
        self_s += c.duration - _union(_clip(lib_iv, c.start, c.end))
        busy += sum(_union(_clip(iv, c.start, c.end)) for iv in by_thread.values())
        capacity += jobs.get(c.id, 1) * c.duration
    return {"self_s": self_s, "busy_s": busy, "capacity_s": capacity,
            "overlap_s": overlap}


def derive(tracer: Tracer, rounds: int, traced_wall: float,
           untraced_wall: float) -> dict:
    """Per-layer metrics ``{name: (value, unit)}`` from the recorded spans.

    Additive quantities are per round of the workload, so runs of different
    lengths compare; peaks and gaps are maxima over the run.
    """
    spans = tracer.spans
    self_of = self_times(spans)
    per_fn = defaultdict(lambda: [0, 0.0])
    per_layer = defaultdict(float)
    for s in spans:
        per_fn[s.name][0] += 1
        per_fn[s.name][1] += self_of[s.id]
        per_layer[s.layer] += self_of[s.id]
    acc = cli_accounting(spans, tracer.command_jobs)
    per_layer["cli"] = acc["self_s"]
    r = float(rounds)
    out = {}
    for layer, names in REPORTED.items():
        for fn in names:
            calls, self_s = per_fn[f"{layer}.{fn}"]
            out[f"{layer}.{fn}.calls"] = (calls / r, "calls/round")
            out[f"{layer}.{fn}.self_s"] = (self_s / r, "s/round")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (per_layer[layer] / r, "s/round")
    out["config.calls"] = (sum(n for name, (n, _) in per_fn.items()
                               if name.startswith("config.")) / r, "calls/round")
    out["sensing.samples_out"] = (tracer.sums["sensing.samples_out"] / r, "samples/round")
    out["dsp.stft.frames_out"] = (tracer.sums["dsp.stft.frames_out"] / r, "frames/round")
    out["dsp.stft.bytes_out"] = (tracer.sums["dsp.stft.bytes_out"] / r, "B-computed/round")
    for name in PEAK_FUNCTIONS:
        out[f"{name}.peak_mb"] = (tracer.maxima[f"{name}.peak_mb"], "MB")
    out["features.align.frame_gap_max"] = (tracer.maxima["features.align.frame_gap_max"],
                                           "frames")
    out["dataset.bytes_read"] = (tracer.sums["dataset.bytes_read"] / r, "B/round")
    out["dataset.bytes_written"] = (tracer.sums["dataset.bytes_written"] / r, "B/round")
    for command in CLI_COMMANDS:
        walls = [s.duration for s in spans if s.name == f"cli.{command}"]
        out[f"cli.{command}.wall_s"] = (statistics.median(walls) if walls else 0.0, "s")
    out["cli.items"] = (tracer.sums["cli.items"] / r, "items/round")
    out["cli.items_failed"] = (tracer.sums["cli.items_failed"] / r, "items/round")
    out["cli.worker_busy_frac"] = (acc["busy_s"] / acc["capacity_s"]
                                   if acc["capacity_s"] else 0.0, "ratio")
    accounted = sum(per_layer.values()) - acc["overlap_s"]
    out["trace.wall_s"] = (traced_wall / r, "s/round")
    out["trace.overlap_s"] = (acc["overlap_s"] / r, "s/round")
    out["trace.accounted_frac"] = (accounted / traced_wall, "ratio")
    out["trace.overhead_frac"] = (traced_wall / untraced_wall, "ratio")
    return out
