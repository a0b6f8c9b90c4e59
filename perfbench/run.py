"""Run one workload of the echokit benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is ``src/echokit``,
imported from there and nowhere else.  Steps, each in its own process:

1. ``inputs.py`` writes the seeded inputs under ``.perfbench/`` (untimed);
2. with ``--trace 0``, ``SETUP_PROBES`` processes only set up, to sample
   ``setup_s`` (process start to echokit ready) more than once;
3. ``workloads.py`` runs the workload in a fresh process and checks every
   output.

The last line printed is the result object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of the traced
run.  Every process runs with ``BLAS_THREADS`` BLAS threads; the workload's
``--jobs`` value is printed beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
from inputs import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 2
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 150
RATE_METRICS = ("rate_1", "rate_2", "rate_3")


class BenchError(Exception):
    pass


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(args: list, env: dict, deadline: float):
    """Start a workloads.py process; return (setup seconds, stdout lines).

    Set-up ends when the child prints READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "workloads.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise BenchError(f"workloads.py {' '.join(args)} exited with code {code}")
    return ready, lines


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    env = _env(root)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    scratch = root / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
    inputs = scratch / "inputs"
    try:
        subprocess.run([sys.executable, str(HERE / "inputs.py"), "--workload", workload,
                        "--seed", str(seed), "--out", str(inputs)],
                       env=env, check=True, timeout=CHILD_TIMEOUT_S)
        setups = [] if trace else [_spawn(["--probe"], env, deadline)[0]
                                   for _ in range(SETUP_PROBES)]
        args = ["--workload", workload, "--inputs", str(inputs),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        if trace:
            args += ["--spans-out", str(root / ".perfbench" / f"spans-{workload}.jsonl")]
        ready, lines = _spawn(args, env, deadline)
    except subprocess.SubprocessError as exc:
        raise BenchError(str(exc)) from exc
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setups.append(ready)
    if not lines:
        raise BenchError("workloads.py printed no result")
    child = json.loads(lines[-1])
    if trace:
        metrics = child["per_layer"]
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"}}
        for key, value in zip(RATE_METRICS, child["rates"]):
            metrics[key] = {"value": value, "unit": "1/s"}
    child["metrics"] = metrics
    return child


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "echokit" / "__init__.py").is_file():
        print("error: run from the root of an echokit checkout (no src/echokit here)",
              file=sys.stderr)
        return 2
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# {args.workload}: seed={args.seed} jobs={res['jobs']} "
          f"blas_threads={BLAS_THREADS} nproc={os.cpu_count()} rounds={res['rounds']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    if not args.trace:
        for key, (name, unit, what) in zip(RATE_METRICS, res["rate_names"]):
            print(f"{key} = {name} = {res['metrics'][key]['value']:.6g} {unit} ({what})")
    for key, m in res["metrics"].items():
        if key not in RATE_METRICS:
            print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
