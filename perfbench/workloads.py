"""Measured process of the echokit benchmark: one workload, closed loop.

    python3 perfbench/workloads.py --probe
    python3 perfbench/workloads.py --workload NAME --inputs DIR --seconds S --trace 0|1

The process prints ``READY`` once echokit is imported and ready for its first
item (the end of set-up), then runs the workload over the inputs that
``inputs.py`` wrote.  One client runs rounds back to back, each after the
previous one ends, until ``--seconds`` have passed; every round's outputs
are checked outside the timed region.  The last line of output is a JSON
object with the round-level results.

With ``--trace 1`` the process runs rounds untraced for half the time, then
installs the span tracer and runs the same rounds again, so the ratio of the
two walls is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import spans

clock = time.perf_counter
REFERENCE = Path(__file__).with_name("reference.json")
MIN_ROUNDS = 2
# Layer self times plus cli.self_s, less thread overlap, must cover the
# traced wall time to within this share; the rest is the benchmark's glue.
ACCOUNTED_TOL = 0.05


def setup():
    """What a user's process pays before its first item: import the package
    and the CLI, resolve the default configuration, build the parser."""
    import echokit
    import echokit.cli
    echokit.PipelineConfig().validate()
    echokit.cli.build_parser()
    return echokit


class Harness:
    """Shared plumbing: work directory, in-process CLI calls, item counts."""

    def __init__(self, echokit, spec: dict, inputs: Path, tracer: spans.Tracer):
        self.ek = echokit
        self.spec = spec
        self.inputs = inputs
        self.work = inputs / "work"
        self.work.mkdir(exist_ok=True)
        self.jobs = spec["jobs"]
        self.tracer = tracer

    def clear_work(self) -> None:
        """Remove the previous round's outputs, so every round creates its
        files afresh instead of overwriting some of them."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir()

    def cli(self, argv: list, items: int):
        """Run ``echokit --jobs J <argv>`` in-process; return (code, stdout).

        ``items`` is how many inputs the command handles; in a traced round
        it and the ``error:`` lines on stderr feed ``cli.items`` and
        ``cli.items_failed``."""
        argv = ["--jobs", str(self.jobs), *map(str, argv)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.ek.cli.main(argv)
        failed = sum(line.startswith("error:") for line in err.getvalue().splitlines())
        if code != 0 and not failed:
            failed = items
        if self.tracer.active:
            self.tracer.add("cli.items", items)
            self.tracer.add("cli.items_failed", failed)
        return code, out.getvalue()


def _jsonl(path: Path) -> list:
    """Records of a JSON-lines file; none if a failed command left no file."""
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


# -- featurize ----------------------------------------------------------------

def _range_fn(p: dict):
    """One-way range over time for a reflector described by inputs.py."""
    if p["kind"] == "static":
        return lambda t: np.full_like(np.asarray(t, dtype=float), p["d0"])
    if p["kind"] == "sway":
        return lambda t: p["d0"] + p["amp"] * np.sin(
            2 * np.pi * (p["rate_hz"] * np.asarray(t) + p["phase"]))
    tf, th, ts = p["t_fast"], p["t_hold"], p["t_slow"]
    knots = [0.0, tf, tf + th, tf + th + ts, tf + ts + 2 * th]
    period = knots[-1]

    def articulator(t):
        w = np.interp(np.mod(np.asarray(t) - p["t0"], period), knots, [0, 1, 1, 0, 0])
        return p["d0"] - p["sign"] * p["stroke"] * (w - 0.5)
    return articulator


class Featurize:
    """Simulate captures, write them, featurize them with the CLI, align.

    A round is ``round_items`` of the generated captures: one 60 s session
    (featurize_long) or all sixteen 1 s clips (featurize_short).
    """

    RATES = (("capture_s_per_s", "capture-s/s", "whole chain"),
             ("sense_capture_s_per_s", "capture-s/s", "synth+simulate+mix+save_wav"),
             ("extract_capture_s_per_s", "capture-s/s",
              "extract-ultra+extract-mel+load_feature+align"))

    def __init__(self, h: Harness):
        self.h = h
        ek = h.ek
        self.tone = ek.PipelineConfig().tone_config()

    def _items(self, i: int) -> list:
        items, k = self.h.spec["items"], self.h.spec["round_items"]
        start = (i * k) % len(items)
        return items[start:start + k]

    def _capture(self, item: dict, path: Path) -> None:
        ek, h = self.h.ek, self.h
        speech = ek.dataset.load_wav(h.inputs / item["speech"])
        tx = ek.sensing.synth_multitone(self.tone, item["seconds"])
        profiles = [ek.sensing.MotionProfile(_range_fn(p), p["reflectivity"])
                    for p in item["reflectors"]]
        echo = ek.sensing.simulate_reflection(tx, profiles, self.tone)
        capture = ek.sensing.mix_at_snr(echo, speech, item["echo_snr_db"])
        ek.dataset.save_wav(path, capture, encoding="float32")

    def _load(self, path: Path):
        rec = self.h.ek.features.load_feature(path)
        return np.asarray(rec.frames), rec

    def _align(self, mel_rec, ultra_rec) -> None:
        # load_feature returns a plain record today; accept the feature
        # classes too, which is what it is planned to return.
        ek = self.h.ek
        mel = mel_rec if isinstance(mel_rec, ek.dsp.MelFeature) else ek.dsp.MelFeature(
            mel_rec.frames, float(mel_rec.fs), int(mel_rec.hop), 0.0, 8000.0)
        ultra = ultra_rec if isinstance(ultra_rec, ek.features.UltrasoundFeature) else \
            ek.features.UltrasoundFeature(ultra_rec.frames, self.tone,
                                          float(ultra_rec.fs), int(ultra_rec.hop))
        ek.features.align(mel, ultra)

    def run_round(self, i: int, items=None):
        items = items if items is not None else self._items(i)
        work = self.h.work
        caps = [work / f"{it['id']}.wav" for it in items]
        errors = {}
        t0 = clock()
        for it, cap in zip(items, caps):
            try:
                self._capture(it, cap)
            except (OSError, ValueError) as exc:
                errors[it["id"]] = f"capture: {type(exc).__name__}: {exc}"
        t1 = clock()
        n = len(items)
        self.h.cli(["extract-ultra", *caps, "--out-dir", work / "ultra"], n)
        self.h.cli(["extract-mel", *caps, "--out-dir", work / "mel"], n)
        outputs = []
        for it in items:
            if it["id"] in errors:
                outputs.append((it, None, None, errors[it["id"]]))
                continue
            try:
                ultra, ultra_rec = self._load(work / "ultra" / f"{it['id']}.uft")
                mel, mel_rec = self._load(work / "mel" / f"{it['id']}.uft")
                self._align(mel_rec, ultra_rec)
                outputs.append((it, ultra, mel, None))
            except (OSError, ValueError) as exc:
                outputs.append((it, None, None, f"{type(exc).__name__}: {exc}"))
        t2 = clock()
        seconds = sum(it["seconds"] for it in items)
        stages = {"sense": (t1 - t0, seconds), "extract": (t2 - t1, seconds)}
        return stages, seconds, outputs

    def rates(self, stages: dict, wall: float, units: float) -> tuple:
        return (units / wall, units / stages["sense"][0], units / stages["extract"][0])

    @staticmethod
    def check(outputs) -> list:
        problems = []
        for it, ultra, mel, err in outputs:
            found = [err] if err else checks.check_features(ultra, mel, it["doppler_sign"])
            problems.append((it["id"], found))
        return problems

    def reference(self) -> dict:
        _, _, outputs = self.run_round(0, items=self.h.spec["reference"])
        summary = {}
        for it, ultra, mel, err in outputs:
            if err:
                raise ValueError(f"reference item {it['id']}: {err}")
            energy = np.mean(10.0 ** (ultra / 10.0), axis=0)
            summary[it["id"]] = {"ultra": checks.summarize(ultra),
                                 "mel": checks.summarize(mel),
                                 "strongest_channel": int(np.argmax(energy))}
        return summary


# -- eval_corpus --------------------------------------------------------------

class EvalCorpus:
    """split -> mix (20 noises per clean) -> evaluate, all through the CLI.

    A round mixes and scores the test split of the whole corpus.
    """

    RATES = (("corpus_mixtures_per_s", "mixtures/s", "split+mix+evaluate"),
             ("mixtures_per_s", "mixtures/s", "split+mix"),
             ("pairs_per_s", "pairs/s", "evaluate"))

    def __init__(self, h: Harness):
        self.h = h

    def run_round(self, i: int, corpus=None):
        h = self.h
        corpus = corpus or h.spec
        clean = h.inputs / corpus["clean"]
        stem = clean.name[:-len("clean.jsonl")]
        train, test = (h.inputs / f"{stem}split_{k}.jsonl" for k in ("train", "test"))
        for path in (train, test):  # split writes beside the clean manifest
            path.unlink(missing_ok=True)
        mix_dir = h.work / f"{stem}mix"
        manifest = mix_dir / "mixtures.jsonl"
        report = h.work / f"{stem}report.jsonl"
        codes = {}
        t0 = clock()
        codes["split"] = h.cli(["split", "--manifest", clean, "--train-out", train,
                                "--test-out", test], 1)[0]
        test_rows = _jsonl(test)
        codes["mix"] = h.cli(["mix", "--clean", test, "--noise", h.inputs / corpus["noise"],
                              "--out-dir", mix_dir, "--manifest-out", manifest,
                              "--seed", corpus["mix_seed"],
                              "--noises-per-clean", corpus["noises_per_clean"]],
                             len(test_rows))[0]
        t1 = clock()
        mixtures = _jsonl(manifest)
        clean_path = {r["id"]: r["path"] for r in test_rows}
        pairs = mix_dir / "pairs.jsonl"
        if mixtures:
            pairs.write_text("".join(json.dumps({
                "id": m["id"], "processed": m["path"],
                "clean": os.path.relpath(h.inputs / clean_path[m["clean_id"]], mix_dir),
            }) + "\n" for m in mixtures))
        t2 = clock()
        codes["evaluate"] = h.cli(["evaluate", "--pairs", pairs, "--out", report],
                                  len(mixtures))[0]
        t3 = clock()
        rows = {r["id"]: r for r in _jsonl(report)}
        stages = {"mix": (t1 - t0, len(mixtures)), "evaluate": (t3 - t2, len(mixtures))}
        return stages, len(mixtures), (mixtures, rows, corpus["mixtures"], codes)

    def rates(self, stages: dict, wall: float, units: float) -> tuple:
        return (units / wall, stages["mix"][1] / stages["mix"][0],
                stages["evaluate"][1] / stages["evaluate"][0])

    @staticmethod
    def check(outputs) -> list:
        mixtures, rows, want, codes = outputs
        problems = [(m["id"], checks.check_report_row(rows[m["id"]], m["snr_db"])
                     if m["id"] in rows else ["no evaluate record"]) for m in mixtures]
        problems += [(f"missing{k}", ["mixture not written"])
                     for k in range(len(mixtures), want)]
        problems += [(command, [f"exit code {code}"] if code else [])
                     for command, code in codes.items()]
        return problems

    def reference(self) -> dict:
        _, _, (mixtures, rows, want, codes) = self.run_round(0, corpus=self.h.spec["reference"])
        if len(rows) != want or any(codes.values()):
            raise ValueError(f"reference corpus: {len(rows)} of {want} records, "
                             f"exit codes {codes}")
        return {k: rows[k] for k in sorted(rows)}


# -- train_objective ----------------------------------------------------------

class TrainObjective:
    """contrastive_loss + dual_mse training steps, then ``losscheck``.

    A round is STEPS steps on the equal-length 3-D batch, STEPS on the
    ragged list batch, and one ``losscheck --loss all --trials TRIALS``.
    """

    STEPS = 2
    TRIALS = 2
    LOSSES = 4  # losscheck --loss all checks four losses
    RATES = (("batch_steps_per_s", "steps/s", "contrastive_loss+dual_mse, 3-D batch"),
             ("ragged_steps_per_s", "steps/s", "contrastive_loss+dual_mse, ragged list"),
             ("gradcheck_trials_per_s", "trials/s", "losscheck --loss all"))

    def __init__(self, h: Harness):
        self.h = h
        self.batches = {"main": self._load(h.spec), "ref": self._load(h.spec["reference"])}

    def _load(self, spec: dict) -> dict:
        arr = {k: np.load(self.h.inputs / v) for k, v in spec["arrays"].items()}
        cuts = np.cumsum(spec["lengths"])[:-1]
        for k in ("a", "v", "syn", "gt"):
            arr[f"ragged_{k}"] = np.split(arr[f"ragged_{k}"], cuts)
        arr["seed"] = spec["losscheck_seed"]
        return arr

    def _step(self, a, v, syn, gt):
        """One step's loss, or the error it raised."""
        losses = self.h.ek.losses
        try:
            value = losses.contrastive_loss(a, v).value
            return value + sum(losses.dual_mse(s, g).value for s, g in zip(syn, gt))
        except ValueError as exc:
            return f"{type(exc).__name__}: {exc}"

    def run_round(self, i: int, which: str = "main"):
        b = self.batches[which]
        t0 = clock()
        batch = [self._step(b["a"], b["v"], b["syn"], b["gt"]) for _ in range(self.STEPS)]
        t1 = clock()
        ragged = [self._step(b["ragged_a"], b["ragged_v"], b["ragged_syn"], b["ragged_gt"])
                  for _ in range(self.STEPS)]
        t2 = clock()
        code, out = self.h.cli(["losscheck", "--loss", "all", "--trials", self.TRIALS,
                                   "--seed", b["seed"]], self.TRIALS * self.LOSSES)
        t3 = clock()
        stages = {"batch": (t1 - t0, self.STEPS), "ragged": (t2 - t1, self.STEPS),
                  "gradcheck": (t3 - t2, self.TRIALS * self.LOSSES)}
        return stages, 2 * self.STEPS + 1, (batch, ragged, code, out)

    def rates(self, stages: dict, wall: float, units: float) -> tuple:
        return tuple(stages[k][1] / stages[k][0] for k in ("batch", "ragged", "gradcheck"))

    def check(self, outputs) -> list:
        batch, ragged, code, out = outputs
        problems = []
        for kind, values in (("batch", batch), ("ragged", ragged)):
            for k, x in enumerate(values):
                if isinstance(x, str):
                    found = [x]
                else:
                    found = checks.check_finite(f"{kind} step loss", x)
                    if x != values[0]:
                        found.append("step loss changed between steps")
                problems.append((f"{kind}{k}", found))
        bad = code != 0 or "FAIL" in out or out.count("PASS") != self.LOSSES
        problems.append(("losscheck", [f"losscheck exit {code}: {out.strip()}"] if bad else []))
        return problems

    def batch_equality(self, which: str = "main") -> tuple:
        """contrastive_loss of the 3-D batch and of the same sequences as a list."""
        b, losses = self.batches[which], self.h.ek.losses
        return (losses.contrastive_loss(b["a"], b["v"]).value,
                losses.contrastive_loss(list(b["a"]), list(b["v"])).value)

    def reference(self) -> dict:
        _, _, (batch, ragged, code, out) = self.run_round(0, which="ref")
        if code != 0:
            raise ValueError(f"reference losscheck exit {code}")
        loss_3d, loss_list = self.batch_equality("ref")
        return {"batch_step": batch[0], "ragged_step": ragged[0],
                "contrastive_3d": loss_3d, "contrastive_list": loss_list}

    def final_checks(self) -> list:
        return [("batch_vs_list", checks.check_loss_batch_equal(*self.batch_equality()))]


WORKLOADS = {"featurize_long": Featurize, "featurize_short": Featurize,
             "eval_corpus": EvalCorpus, "train_objective": TrainObjective}


# -- the loop -----------------------------------------------------------------

def run_rounds(wl, tracer: spans.Tracer, traced: bool, seconds: float = 0.0,
               count: int | None = None) -> list:
    """Closed loop: rounds back to back, for ``seconds`` or ``count`` rounds.

    Returns ``(wall, rates, problems)`` per round; checks run untimed and
    untraced after each round.
    """
    results = []
    deadline = clock() + seconds
    i = 0
    while (i < count) if count is not None else (i < MIN_ROUNDS or clock() < deadline):
        wl.h.clear_work()
        tracer.item = i
        tracer.active = traced
        t0 = clock()
        stages, units, outputs = wl.run_round(i)
        wall = clock() - t0
        tracer.active = False
        results.append((wall, wl.rates(stages, wall, units), wl.check(outputs)))
        i += 1
    return results


def reference_problems(wl, workload: str, record: Path | None) -> list:
    """Run the fixed reference item and compare its summary with the stored
    one, or store it when ``record`` names the file to write."""
    try:
        summary = json.loads(json.dumps(wl.reference()))
    except (OSError, ValueError) as exc:
        return [f"reference item: {type(exc).__name__}: {exc}"]
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if record:
        stored[workload] = summary
        record.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        return []
    if workload not in stored:
        return ["no stored reference summary"]
    return checks.compare_reference(summary, stored[workload])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true",
                        help="only set up, print READY and exit")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path, help="where the traced run writes spans")
    parser.add_argument("--record-reference", type=Path,
                        help="write the reference summary here instead of checking it")
    args = parser.parse_args(argv)
    echokit = setup()
    print("READY", flush=True)
    if args.probe:
        return 0

    spec = json.loads((args.inputs / "inputs.json").read_text())
    tracer = spans.Tracer()
    h = Harness(echokit, spec, args.inputs, tracer)
    wl = WORKLOADS[args.workload](h)

    # Warm-up on the fixed reference item, untimed: fills lazy state and
    # checks the outputs against the stored summaries.
    ref_problems = reference_problems(wl, args.workload, args.record_reference)

    if args.trace:
        untraced = run_rounds(wl, tracer, False, seconds=args.seconds / 2)
        spans.install(tracer)
        traced = run_rounds(wl, tracer, True, count=len(untraced))
        results = untraced + traced
    else:
        results = run_rounds(wl, tracer, False, seconds=args.seconds)
    final = wl.final_checks() if hasattr(wl, "final_checks") else []

    problems = [p for _, _, probs in results for p in probs] + final
    problems.append(("reference", ref_problems))
    out = {"workload": args.workload, "jobs": h.jobs, "rounds": len(results),
           "rate_names": [list(r) for r in wl.RATES]}
    if args.trace:
        walls = [w for w, _, _ in untraced], [w for w, _, _ in traced]
        layer = spans.derive(tracer, len(traced), sum(walls[1]), sum(walls[0]))
        out["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        accounted = layer["trace.accounted_frac"][0]
        problems.append(("trace accounting", [] if abs(accounted - 1.0) <= ACCOUNTED_TOL
                         else [f"spans account for {accounted:.3f} of the traced wall"]))
        if args.spans_out:
            tracer.write(args.spans_out)
    else:
        rates = list(zip(*[r for _, r, _ in results]))
        out["rates"] = [statistics.median(r) for r in rates]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = [(item, found) for item, found in problems if found]
    for item, found in failed[:10]:
        print(f"check failed: {item}: {'; '.join(found)}", file=sys.stderr)
    out.update(attempted=len(problems), failed=len(failed))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
