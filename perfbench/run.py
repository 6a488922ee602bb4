"""afferentsim benchmark: one CLI command per operation, in a closed loop.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1] [--out RESULTS.jsonl]

Run from the repository root.  Each operation is one `afferentsim` command
in a fresh child process (perfbench/child.py), started only after the
previous one has exited; the runner and its children are pinned to one
core.  Operations are issued until --seconds have passed; the last one runs
to completion.

Before and after every operation the runner times calibrate.py, a fixed
reference job that does not use afferentsim, and the end-to-end times are
given in multiples of the mean of the two ("ref"); the times as measured
are printed beside them and kept in the --out record.

With --trace 0 the last line of standard output holds the end-to-end
metrics.  With --trace 1 untraced and traced operations alternate; the
traced ones wrap each layer's functions from outside the program, and the
last line holds the per-layer metrics, including `trace.overhead_s`, the
traced minus the untraced median wall time.  Every operation's output is
checked (see check.py); `failed` counts the operations that did not pass.

Workloads (inputs in inputs.py):
  sim-cold       simulate appendixA into an empty directory: FEM-bound.
  fit-warm       fit SA, RA and PC (budget 500, population 100) against the
                 appendixA stress cache filled in prep: LIF-count-bound.
  sim-warm       simulate appendixA against that cache: import, cache reads,
                 exports and the neural chain.
  sim-fine-cold  simulate four sinusoids on a 0.1 mm surface mesh: assembly,
                 factorization and per-contact-set costs at 2.8x the DOFs.
BENCHMARK.json gates only sim-cold and fit-warm, which between them reach
every traced layer.  On a shared two-core host the timings of the two short
workloads spread too widely between runs for a regression bound, and four
workloads do not fit the run budget; they stay for paired comparisons.

--out appends the full record (environment, per-operation samples and
metrics) as one JSON line; compare.py reads such files.
--record-reference stores the outputs of a run at the default seed as the
reference every later run is checked against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import check
import inputs
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
WORK = os.path.join(HERE, "_work")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("sim-cold", "sim-warm", "fit-warm", "sim-fine-cold")
WARM = ("sim-warm", "fit-warm")  # run against the appendixA cache filled in prep
DEFAULT_SEED = 0
MIN_SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # an operation still running this long after start is killed
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end metrics.  Times are in multiples of the reference runs
# (calibrate.py) made beside each operation: on a shared host the speed of a
# core swings by up to 2x over minutes, which moves wall times between runs
# by more than a regression bound; the ratio cancels much of that swing.
E2E_UNITS = {
    "wall_ref.p50": "ref",
    "cpu_ref.p50": "ref",
    "work_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
RAW_UNITS = {
    "wall_s.p50": "s",
    "wall_s.tail": "s",
    "cpu_s": "s",
    "work_per_s": "1/s",
    "reference_s": "s",
}


@dataclass
class Sample:
    """One child process, timed from outside."""

    wall: float
    cpu: float
    rss_mb: float
    code: int
    setup: float | None  # None when the child died before importing the CLI
    info: dict


def child_env() -> tuple[dict, str | None]:
    """The child's environment, and the AFFERENTSIM_THREADS value it dropped."""
    env = dict(os.environ)
    removed = env.pop("AFFERENTSIM_THREADS", None)
    env["PYTHONPATH"] = SRC
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env, removed


def spawn(env: dict, work: str, cli_argv: list[str], trace_path: str | None,
          deadline: float) -> Sample:
    info_path = os.path.join(work, "info.json")
    if os.path.exists(info_path):
        os.unlink(info_path)
    cmd = [sys.executable, CHILD, info_path, trace_path or "-", *cli_argv]
    with open(os.path.join(work, "child.log"), "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(deadline - spawned, 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.monotonic() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    info = {}
    try:
        with open(info_path) as fh:
            info = json.load(fh)
    except (OSError, ValueError):
        pass
    setup = info["main_start"] - spawned if "main_start" in info else None
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, setup, info)


def calibrate(env: dict, work: str, deadline: float) -> dict:
    """Run calibrate.py: its import time from spawn, and its kernel times."""
    out = os.path.join(work, "calibration.json")
    spawned = time.monotonic()
    subprocess.run([sys.executable, CALIBRATE, out], env=env, cwd=ROOT, check=True,
                   timeout=max(deadline - spawned, 1.0))
    wall = time.monotonic() - spawned
    with open(out) as fh:
        cal = json.load(fh)
    return {"wall": wall, "import_s": cal["imported"] - spawned,
            "solve_s": cal["solve_s"], "loop_s": cal["loop_s"]}


def log_tail(work: str, lines: int = 5) -> str:
    try:
        with open(os.path.join(work, "child.log"), errors="replace") as fh:
            return "".join(fh.readlines()[-lines:])
    except OSError:
        return ""


def src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "afferentsim")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read() + b"\0")
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def prepared_cache(env: dict, work: str, digest: str, deadline: float) -> str:
    """A directory holding the stress cache of an appendixA `simulate`.

    Filled once per source digest and kept under _work, so later runs in the
    same checkout skip the cold simulation.  Whatever `cache` directory the
    program writes is kept; if it writes none, the warm workloads run cold.
    """
    final = os.path.join(WORK, f"prep-{digest}")
    if os.path.isdir(final):
        return final
    prep = os.path.join(work, "prep")
    _, config = inputs.write_inputs("sim-warm", DEFAULT_SEED, prep)
    out = os.path.join(prep, "out")
    sample = spawn(env, work, inputs.cli_args("simulate", config, DEFAULT_SEED, out), None,
                   deadline)
    if sample.code != 0:
        raise RuntimeError(f"preparing the stress cache failed:\n{log_tail(work)}")
    keep = os.path.join(prep, "keep")
    os.makedirs(keep)
    if os.path.isdir(os.path.join(out, "cache")):
        shutil.move(os.path.join(out, "cache"), os.path.join(keep, "cache"))
    for stale in os.listdir(WORK):
        if stale.startswith("prep-"):
            shutil.rmtree(os.path.join(WORK, stale), ignore_errors=True)
    os.replace(keep, final)
    return final


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with 10 samples beyond it.

    Below 20 samples that percentile would lie under the median, so the
    maximum (percentile 100, no sample beyond) is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= 20:
        return 100.0 * (n - 10) / n, ordered[n - 11]
    return 100.0, ordered[-1]


def environment(removed_threads: str | None, info: dict, digest: str) -> dict:
    return {
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": info.get("numpy"),
        "scipy": info.get("scipy"),
        "have_numba": info.get("have_numba"),
        "git_commit": git_commit(),
        "src_sha256": digest,
        "afferentsim_threads_removed": removed_threads,
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
    }


def run(args) -> dict:
    env, removed_threads = child_env()
    digest = src_digest()
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    work = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        command, config = inputs.write_inputs(args.workload, args.seed,
                                              os.path.join(work, "inputs"))
        observed = {a: {} for a in inputs.AFFERENTS}
        for atype, freq, amp, rate in inputs.observed_rates(args.seed):
            observed[atype][(freq, amp)] = rate
        prep = prepared_cache(env, work, digest, deadline) if args.workload in WARM else None
        reference = None
        if not args.record_reference and (
            args.workload != "fit-warm" or args.seed == DEFAULT_SEED
        ):
            # simulate outputs do not depend on the seed; a fit front does
            with open(REFERENCE) as fh:
                reference = json.load(fh)["workloads"][args.workload]

        # untimed warm-up: byte-compiles the sources and fills the page cache
        spawn(env, work, [], None, deadline)

        units, work_name = inputs.work_units(args.workload)
        ops, setups, failures = [], [], []  # ops: (Sample, traced) in run order
        layer_rows = []
        missing_spans = set()  # traced functions the program no longer has
        calibrations = []
        first_sig = None
        loop_start = time.monotonic()
        i = 0
        while (time.monotonic() - loop_start < args.seconds
               or (args.trace and len(ops) < 2)):  # odd operations are traced
            out = os.path.join(work, f"op-{i}")
            if prep is not None:
                shutil.copytree(prep, out)
            trace_path = os.path.join(work, "trace.json") if args.trace and i % 2 else None
            calibrations.append(calibrate(env, work, deadline))
            sample = spawn(env, work, inputs.cli_args(command, config, args.seed, out),
                           trace_path, deadline)
            ops.append((sample, trace_path is not None))
            if sample.setup is not None:
                setups.append(sample.setup)
            try:
                if sample.code != 0:
                    raise check.CheckError(
                        f"exit code {sample.code}:\n{log_tail(work)}")
                sig = check.signature(args.workload, out, observed)
                if first_sig is None:
                    first_sig = sig
                    if reference is not None:
                        check.against_reference(args.workload, sig, reference)
                elif sig != first_sig:
                    raise check.CheckError("outputs differ from the run's first operation")
                if trace_path:
                    with open(trace_path) as fh:
                        trace = json.load(fh)
                    layer_rows.append(layers.layer_metrics(trace, out))
                    missing_spans.update(trace["missing"])
            except check.CheckError as exc:
                failures.append(f"operation {i}: {exc}")
            shutil.rmtree(out, ignore_errors=True)
            i += 1
        calibrations.append(calibrate(env, work, deadline))
        while len(setups) < MIN_SETUP_SAMPLES and time.monotonic() < deadline:
            sample = spawn(env, work, [], None, deadline)
            if sample.setup is not None:
                setups.append(sample.setup)
        if args.record_reference:
            if failures or first_sig is None or args.seed != DEFAULT_SEED:
                raise RuntimeError("a reference is recorded from a clean run at the default seed")
            ref = {"seed": DEFAULT_SEED, "workloads": {}}
            if os.path.exists(REFERENCE):
                with open(REFERENCE) as fh:
                    ref = json.load(fh)
            ref["workloads"][args.workload] = check.reference_subset(args.workload, first_sig)
            with open(REFERENCE, "w") as fh:
                json.dump(ref, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # each operation is scaled by the mean of the reference runs beside it
    refs = [(a["wall"] + b["wall"]) / 2 for a, b in zip(calibrations, calibrations[1:])]
    plain = [(s, r) for (s, t), r in zip(ops, refs) if not t]
    traced = [s for s, t in ops if t]
    walls = [s.wall for s, _ in plain]
    tail_pct, tail = tail_percentile(walls)
    timed = [(s, r) for s, r in plain if s.setup is not None]
    e2e = {
        "wall_ref.p50": statistics.median(s.wall / r for s, r in plain),
        "cpu_ref.p50": statistics.median(s.cpu / r for s, r in plain),
        "work_per_ref": statistics.median(units * r / (s.wall - s.setup) for s, r in timed)
        if timed else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(s.rss_mb for s, _ in plain),
    }
    raw = {
        "wall_s.p50": statistics.median(walls),
        "wall_s.tail": tail,
        "cpu_s": statistics.median(s.cpu for s, _ in plain),
        "work_per_s": statistics.median(units / (s.wall - s.setup) for s, _ in timed)
        if timed else 0.0,
        "reference_s": statistics.median(refs),
    }
    per_layer = {}
    if args.trace and layer_rows:
        per_layer = {name: statistics.median(row[name] for row in layer_rows)
                     for name in layer_rows[0]}
        per_layer["trace.overhead_s"] = (
            statistics.median(s.wall for s in traced) - raw["wall_s.p50"]
        )
    info = next((s.info for s, _ in ops if "numpy" in s.info), {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(removed_threads, info, digest),
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "end_to_end": e2e,
        "raw": raw,
        "per_layer": per_layer,
        "traced_work_s": statistics.median(s.wall - s.setup for s in traced
                                           if s.setup is not None) if traced else None,
        "missing_spans": sorted(missing_spans),
        "work_name": work_name,
        "tail_percentile": tail_pct,
        "samples": {
            "untraced_wall_s": walls,
            "traced_wall_s": [s.wall for s in traced],
            "setup_s": setups,
            "calibration": calibrations,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one core for the runner and every child, so each operation and the
    # reference runs beside it meet the same contention from other tenants
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "afferentsim", "cli.py")):
        print(f"error: no afferentsim sources under {SRC}", file=sys.stderr)
        return 2

    record = run(args)
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    n = len(record["samples"]["untraced_wall_s"])
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{record['attempted']} operations, {record['failed']} failed "
          f"(failed_ratio {record['failed'] / record['attempted']:.3f}); "
          f"medians over {n} untraced operations")
    for name, value in record["end_to_end"].items():
        print(f"  {name:24s} {value:14.6f} {E2E_UNITS[name]}")
    print("  as measured, before scaling by the reference run:")
    for name, value in record["raw"].items():
        note = {
            "wall_s.tail": f"  (p{record['tail_percentile']:.1f})",
            "work_per_s": f"  ({record['work_name']})",
        }.get(name, "")
        print(f"  {name:24s} {value:14.6f} {RAW_UNITS[name]}{note}")
    if record["missing_spans"]:
        print("  spans not traced, their functions are gone: "
              + ", ".join(record["missing_spans"]))
    for name, value in record["per_layer"].items():
        print(f"  {name:24s} {value:14.6f} {layers.UNITS[name]}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    if args.trace:
        metrics = {k: {"value": v, "unit": layers.UNITS[k]}
                   for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in record["end_to_end"].items()}
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
