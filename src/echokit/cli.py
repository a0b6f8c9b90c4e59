"""Batch command-line front end for the sensing/evaluation library.

Subcommands: synth, simulate, extract-ultra, extract-mel, mix, split,
evaluate, losscheck.  Every run is deterministic given (inputs, config,
seed); commands that produce files also write the resolved configuration
beside their outputs.  Exit codes: 0 success, 1 input error, 2
numerical-check failure.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import dataset, dsp, features, losses, metrics, sensing
from .config import PipelineConfig


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echokit",
        description="Ultrasound articulatory-sensing toolkit",
    )
    parser.add_argument("--config", help="pipeline config file (key = value lines)")
    parser.add_argument("--print-config", action="store_true",
                        help="echo the resolved configuration and continue")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="parallel workers for batch subcommands (at least 1)")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="write the multi-tone transmit waveform")
    p.add_argument("--duration", type=float, required=True, help="seconds")
    p.add_argument("--out", required=True)
    p.add_argument("--pcm16", action="store_true", help="write PCM16 instead of float32")

    p = sub.add_parser("simulate", help="simulate Doppler reflections to a WAV")
    p.add_argument("--duration", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reflector", action="append", required=True,
                   metavar="SPEC",
                   help="static:DIST[:REFL] or linear:START:SPEED[:REFL]; repeatable")

    p = sub.add_parser("extract-ultra", help="WAV (48 kHz) -> T x 14 UFT1 feature")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", help="output file (single input only)")
    p.add_argument("--out-dir", help="output directory (any number of inputs)")

    p = sub.add_parser("extract-mel", help="WAV (48 kHz) -> T x 128 UFT1 feature")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", help="output file (single input only)")
    p.add_argument("--out-dir", help="output directory (any number of inputs)")

    p = sub.add_parser("mix", help="build the noisy mixture set from manifests")
    p.add_argument("--clean", required=True, help="clean manifest (JSON lines)")
    p.add_argument("--noise", required=True, help="noise manifest (JSON lines)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--manifest-out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--noises-per-clean", type=int, default=None)

    p = sub.add_parser("split", help="per-speaker temporal train/test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    p.add_argument("--test-fraction", type=float, default=None)

    p = sub.add_parser("evaluate", help="metric report for clean/processed pairs")
    p.add_argument("--pairs", required=True,
                   help='JSON lines: {"id":..., "clean":..., "processed":...}')
    p.add_argument("--out", required=True)
    p.add_argument("--pesq", help="JSON lines with externally computed {id, pesq}")
    p.add_argument("--lsd-mel", action="store_true",
                   help="compute LSD on Mel-band magnitudes instead of linear STFT")

    p = sub.add_parser("losscheck", help="verify analytic loss gradients")
    p.add_argument("--loss", default="all",
                   choices=["temporal", "semantic", "contrastive", "dual-mse", "all"])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors; remap
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
        cfg.validate()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.print_config:
        print(cfg.to_text(), end="")
    if args.command is None:
        if args.print_config:
            return 0
        parser.print_help()
        return 1
    handler = _COMMANDS[args.command]
    try:
        return handler(args, cfg)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _write_run_config(cfg: PipelineConfig, target) -> None:
    target = Path(target)
    if target.is_dir():
        out = target / "echokit-config.txt"
    else:
        out = target.with_name(target.name + ".config.txt")
    out.write_text(cfg.to_text(), encoding="utf-8")


def _cmd_synth(args, cfg: PipelineConfig) -> int:
    tx = sensing.synth_multitone(cfg.tone_config(), args.duration)
    encoding = "pcm16" if args.pcm16 else "float32"
    dataset.save_wav(args.out, tx, encoding=encoding)
    _write_run_config(cfg, args.out)
    print(f"wrote {args.out}: {len(tx)} samples at {tx.fs:g} Hz")
    return 0


def _parse_reflector(spec: str, c: float) -> sensing.MotionProfile:
    parts = spec.split(":")
    try:
        if parts[0] == "static" and len(parts) in (2, 3):
            refl = float(parts[2]) if len(parts) == 3 else 1.0
            return sensing.MotionProfile.static(float(parts[1]), refl, c)
        if parts[0] == "linear" and len(parts) in (3, 4):
            refl = float(parts[3]) if len(parts) == 4 else 1.0
            return sensing.MotionProfile.constant_velocity(
                float(parts[1]), float(parts[2]), refl, c)
    except ValueError as exc:
        raise ValueError(f"bad reflector spec {spec!r}: {exc}") from exc
    raise ValueError(f"bad reflector spec {spec!r}; "
                     "use static:DIST[:REFL] or linear:START:SPEED[:REFL]")


def _cmd_simulate(args, cfg: PipelineConfig) -> int:
    tone = cfg.tone_config()
    profiles = [_parse_reflector(s, cfg.sound_speed) for s in args.reflector]
    tx = sensing.synth_multitone(tone, args.duration)
    rx = sensing.simulate_reflection(tx, profiles, tone)
    dataset.save_wav(args.out, rx, encoding="float32")
    _write_run_config(cfg, args.out)
    print(f"wrote {args.out}: {len(rx)} samples, {len(profiles)} reflector(s)")
    return 0


def _resolve_batch_outputs(args, suffix: str):
    if args.out and len(args.inputs) > 1:
        raise ValueError("--out only works with a single input; use --out-dir")
    if not args.out and not args.out_dir:
        raise ValueError("one of --out / --out-dir is required")
    outs = []
    for inp in args.inputs:
        if args.out:
            outs.append(Path(args.out))
        else:
            outs.append(Path(args.out_dir) / (Path(inp).stem + suffix))
    if args.out_dir:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    return outs


def _run_batch(pairs, worker, jobs: int):
    """Run worker over (label, item) pairs, containing per-item failures."""
    failures = []
    def guarded(pair):
        label, item = pair
        try:
            return label, worker(item), None
        except (OSError, ValueError) as exc:
            return label, None, str(exc)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(guarded, pairs))
    else:
        results = [guarded(p) for p in pairs]
    for label, _, err in results:
        if err is not None:
            print(f"error: {label}: {err}", file=sys.stderr)
            failures.append(label)
    return results, failures


def _cmd_extract_ultra(args, cfg: PipelineConfig) -> int:
    outs = _resolve_batch_outputs(args, ".uft")
    tone = cfg.tone_config()

    def work(pair):
        inp, out = pair
        buf = dataset.load_wav(inp)
        feat = features.ultrasound_feature_from_capture(
            buf, tone, n_fft=cfg.ultra_n_fft, win_len=cfg.ultra_win,
            hop=cfg.ultra_hop, window_kind=cfg.window)
        features.save_feature(out, feat)
        return out

    results, failures = _run_batch(
        [(str(i), (i, o)) for i, o in zip(args.inputs, outs)], work, args.jobs)
    _write_run_config(cfg, Path(args.out_dir) if args.out_dir else outs[0])
    done = len(results) - len(failures)
    print(f"extracted {done}/{len(results)} ultrasound feature file(s)")
    return 1 if failures else 0


def _cmd_extract_mel(args, cfg: PipelineConfig) -> int:
    outs = _resolve_batch_outputs(args, ".uft")
    lowpass = dsp.design_elliptic(cfg.filter_order, "lowpass", cfg.lowpass_cutoff,
                                  cfg.fs, cfg.passband_ripple_db, cfg.stopband_atten_db)

    def work(pair):
        inp, out = pair
        buf = dataset.load_wav(inp)
        feat = features.extract_mel_feature(
            buf, lowpass=lowpass, n_mels=cfg.n_mels, n_fft=cfg.mel_n_fft,
            win_len=cfg.mel_win, hop=cfg.mel_hop, fmin=cfg.mel_fmin,
            fmax=cfg.mel_fmax, ultra_win_len=cfg.ultra_win)
        features.save_feature(out, feat)
        return out

    results, failures = _run_batch(
        [(str(i), (i, o)) for i, o in zip(args.inputs, outs)], work, args.jobs)
    _write_run_config(cfg, Path(args.out_dir) if args.out_dir else outs[0])
    done = len(results) - len(failures)
    print(f"extracted {done}/{len(results)} Mel feature file(s)")
    return 1 if failures else 0


def _cmd_mix(args, cfg: PipelineConfig) -> int:
    clean = dataset.Manifest.load(args.clean)
    noise = dataset.Manifest.load(args.noise)
    spec = dataset.MixSpec(
        snr_grid=tuple(cfg.snr_grid),
        seed=cfg.seed if args.seed is None else args.seed,
    )
    n_per = cfg.noises_per_clean if args.noises_per_clean is None else args.noises_per_clean
    out = dataset.build_mixtures(
        clean, noise, spec, noises_per_clean=n_per, out_dir=args.out_dir,
        clean_base=Path(args.clean).parent, noise_base=Path(args.noise).parent)
    out.save(args.manifest_out)
    _write_run_config(cfg, Path(args.out_dir))
    print(f"wrote {len(out)} mixtures to {args.out_dir} "
          f"(manifest: {args.manifest_out}, seed {spec.seed})")
    return 0


def _cmd_split(args, cfg: PipelineConfig) -> int:
    manifest = dataset.Manifest.load(args.manifest, check_paths=False)
    frac = cfg.test_fraction if args.test_fraction is None else args.test_fraction
    train, test = dataset.temporal_split(manifest, frac)
    train.save(args.train_out)
    test.save(args.test_out)
    _write_run_config(cfg, Path(args.train_out))
    print(f"split {len(manifest)} entries -> train {len(train)}, test {len(test)}")
    return 0


def _spectrogram_for_lsd(buf, cfg: PipelineConfig, use_mel: bool) -> np.ndarray:
    if use_mel:
        mel = dsp.mel_spectrogram(buf, n_mels=cfg.n_mels, n_fft=cfg.mel_n_fft,
                                  win_len=cfg.mel_win, hop=cfg.mel_hop,
                                  fmin=cfg.mel_fmin, fmax=cfg.mel_fmax)
        return np.sqrt(np.exp(mel.frames))
    spec = dsp.stft(buf, n_fft=512, win_len=400, hop=160)
    return spec.magnitude()


def _cmd_evaluate(args, cfg: PipelineConfig) -> int:
    base = Path(args.pairs).parent
    records = dataset.read_json_lines(args.pairs, ("id", "clean", "processed"))
    pairs = [(rec["id"], base / rec["clean"], base / rec["processed"])
             for _, rec in records]
    pesq_by_id = {}
    if args.pesq:
        for _, rec in dataset.read_json_lines(args.pesq, ("id", "pesq"),
                                              numbers=("pesq",)):
            pesq_by_id[rec["id"]] = float(rec["pesq"])

    def work(item):
        pid, clean_path, proc_path = item
        clean = dataset.load_wav(clean_path)
        proc = dataset.load_wav(proc_path)
        if clean.fs != proc.fs:
            raise ValueError("sample rates differ within a pair")
        n = min(len(clean), len(proc))
        clean = sensing.SampleBuffer(clean.fs, clean.samples[:n])
        proc = sensing.SampleBuffer(proc.fs, proc.samples[:n])
        s_ref = _spectrogram_for_lsd(clean, cfg, args.lsd_mel)
        s_est = _spectrogram_for_lsd(proc, cfg, args.lsd_mel)
        return metrics.MetricReport(
            id=pid,
            stoi=metrics.stoi(clean, proc),
            lsd=metrics.lsd(s_ref, s_est),
            ssim=metrics.ssim(s_ref, s_est),
            snr_db=metrics.measure_snr(clean, proc),
            pesq=pesq_by_id.get(pid),
        )

    results, failures = _run_batch([(pid, (pid, c, p)) for pid, c, p in pairs],
                                   work, args.jobs)
    lines = [rep.to_json_line() for _, rep, err in results if err is None]
    Path(args.out).write_text("\n".join(lines) + ("\n" if lines else ""),
                              encoding="utf-8")
    _write_run_config(cfg, Path(args.out))
    print(f"evaluated {len(lines)}/{len(pairs)} pair(s) -> {args.out}")
    return 1 if failures else 0


def _losscheck_instances(name: str, rng: np.random.Generator, cfg: PipelineConfig):
    """One random probe point per call: (fn, inputs) for grad_check."""
    def unit_rows(n, d):
        m = rng.standard_normal((n, d))
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    if name == "temporal":
        return (lambda e_a, e_v: losses.temporal_infonce(e_a, e_v, cfg.tau),
                {"e_a": unit_rows(5, 8), "e_v": unit_rows(5, 8)})
    if name == "semantic":
        def fn(a0, a1, a2, v0, v1, v2):
            out = losses.semantic_infonce([a0, a1, a2], [v0, v1, v2], cfg.tau)
            ga, gv = out.gradients["batch_a"], out.gradients["batch_v"]
            return losses.LossValue(out.value, {
                "a0": ga[0], "a1": ga[1], "a2": ga[2],
                "v0": gv[0], "v1": gv[1], "v2": gv[2]})
        return fn, {k: rng.standard_normal((4, 6)) for k in
                    ("a0", "a1", "a2", "v0", "v1", "v2")}
    if name == "contrastive":
        def fn(a0, a1, v0, v1):
            out = losses.contrastive_loss([a0, a1], [v0, v1], cfg.tau, cfg.lam)
            ga, gv = out.gradients["batch_a"], out.gradients["batch_v"]
            return losses.LossValue(out.value, {
                "a0": ga[0], "a1": ga[1], "v0": gv[0], "v1": gv[1]})
        return fn, {k: rng.standard_normal((3, 5)) for k in ("a0", "a1", "v0", "v1")}
    if name == "dual-mse":
        return (lambda d_syn, d_gt: losses.dual_mse(d_syn, d_gt, cfg.alpha),
                {"d_syn": rng.standard_normal((6, 4)),
                 "d_gt": rng.standard_normal((6, 4))})
    raise ValueError(f"unknown loss {name!r}")


def _cmd_losscheck(args, cfg: PipelineConfig) -> int:
    names = ["temporal", "semantic", "contrastive", "dual-mse"] \
        if args.loss == "all" else [args.loss]
    seed = cfg.seed if args.seed is None else args.seed
    rng = np.random.default_rng(seed)
    all_ok = True
    for name in names:
        worst = 0.0
        for _ in range(args.trials):
            fn, inputs = _losscheck_instances(name, rng, cfg)
            worst = max(worst, losses.grad_check(fn, inputs, eps=args.eps))
        ok = worst < args.tol
        all_ok &= ok
        print(f"loss={name} trials={args.trials} max_rel_err={worst:.3e} "
              f"tol={args.tol:g}: {'PASS' if ok else 'FAIL'}")
    return 0 if all_ok else 2


_COMMANDS = {
    "synth": _cmd_synth,
    "simulate": _cmd_simulate,
    "extract-ultra": _cmd_extract_ultra,
    "extract-mel": _cmd_extract_mel,
    "mix": _cmd_mix,
    "split": _cmd_split,
    "evaluate": _cmd_evaluate,
    "losscheck": _cmd_losscheck,
}


if __name__ == "__main__":
    sys.exit(main())
