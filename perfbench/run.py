"""moebudget benchmark: one workload per invocation, in a closed loop.

    python3 perfbench/run.py --workload draft_router --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. ``--trace 0`` prints every end-to-end metric, ``--trace 1`` makes a
separate traced run and prints every per-layer metric. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Exit status: 0 when every output check passed, 1 when one failed (the result
is still printed), 2 when the benchmark could not run (nothing is printed).

Each measurement runs in a fresh child process of this one: set-up time is
only meaningful in a process whose model cache is cold, and peak memory is
only the workload's own in a process that did nothing else. An untraced run
sets up in ``SETUP_SAMPLES`` fresh processes and reports the median.

Every host time is wall-clock scaled to a nominal host by the reference probe
of ``hostref``, timed next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-out"

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5  # fresh processes whose set-up time is measured
SETUP_PROBES = 5  # host probes right after set-up, whose median scales it


class BenchError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "timed", "traced"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def emit(obj) -> None:
    print(json.dumps(obj), flush=True)


# ---------------------------------------------------------------------------
# Child processes: the measurements themselves
# ---------------------------------------------------------------------------


def deadline_s(seconds: float) -> float:
    """Time allowed for the whole invocation, children included: a traced
    run makes two timed loops, an untraced one a loop and its checks, and
    either has set-up processes around them."""
    return 3.0 * seconds + 60.0


def child(args) -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads as wl  # numpy and moebudget load here, inside set-up

    runner = wl.Runner(wl.WORKLOADS[args.workload], args.seed)
    runner.setup()
    setup_wall_s = time.perf_counter() - start
    ref = wl.HostRef(runner.w.probe)
    setup_s = setup_wall_s / statistics.median(ref.probe() for _ in range(SETUP_PROBES))
    if args.child == "setup":
        emit({"setup_s": setup_s})
        return 0

    items = runner.inputs()
    raw = wl.timed_loop(runner, items, args.seconds, ref)
    records = wl.to_records(runner, items, raw)
    first = wl.by_key(records)
    wl.mark_mismatches(records, first)
    if args.child == "traced":
        return traced_child(args, wl, ref, runner, items, records, first)

    check_items = runner.check_inputs()
    checks = wl.run_checks(runner, check_items)
    outputs = {**first, **wl.by_key(checks)}
    prompts = {("measured", i): p for i, p in enumerate(items)}
    prompts.update({("check", i): p for i, p in enumerate(check_items)})
    references = runner.ar_references(outputs, prompts)
    runner.check_ar(outputs, references)
    runner.check_replay(items, first)
    attempted, failed, problems = wl.failure_counts(records + checks)
    host = wl.host_metrics(records)
    metrics = {
        "tokens_per_s": host["tokens_per_s"],
        "gen_ms_p50": host["gen_ms_p50"],
        "gen_ms_tail": host["gen_ms_tail"],
        "setup_s": setup_s,
        "peak_rss_mb": wl.peak_rss_mb(),
        **wl.modeled_metrics(runner, first, references),
    }
    emit({
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": metrics,
        "tail_pct": host["gen_ms_tail_pct"],
        "n": host["gen_n"],
        "passes": host["passes"],
        "host_speed": host["host_speed"],
        "outputs_sha256": wl.outputs_sha256(outputs),
    })
    return 0


def traced_child(args, wl, ref, runner, items, records, first) -> int:
    """Repeat the untraced passes with spans installed, then derive the
    per-layer metrics; the traced outputs must equal the untraced ones."""
    import spans

    recorder = spans.Recorder()
    before = spans.snapshot()
    restore, missing = spans.install(recorder)
    try:
        raw = wl.timed_loop(runner, items, args.seconds, ref, passes=len(records) // len(items))
    finally:
        restore()
    traced = wl.to_records(runner, items, raw)
    wl.mark_mismatches(traced, first)
    attempted, failed, problems = wl.failure_counts(records + traced)
    # A traced function that is gone from where it was defined would leave
    # its layer reading 0; each counts as a failed check.
    failed += len(missing)
    problems += [f"traced function not found: {name}" for name in missing]
    if not spans.restored(before):
        failed += 1
        problems.append("traced bindings were not restored")

    tokens = sum(len(o.tokens) for r in traced for o in r.outputs)
    metrics = spans.span_metrics(recorder.spans, tokens)
    metrics.update(wl.report_counts(runner, first))
    untraced_s = sum(r.wall_s for r in records)
    metrics["trace.overhead_frac"] = sum(r.wall_s for r in traced) / untraced_s - 1.0
    TRACE_DIR.mkdir(exist_ok=True)
    trace_file = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    recorder.write(trace_file)
    emit({
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": metrics,
        "spans": len(recorder.spans),
        "trace_file": str(trace_file.relative_to(ROOT)),
    })
    return 0


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def run_child(args, kind: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", repr(args.seconds), "--child", kind,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{kind} run did not finish in time") from None
    finally:
        # The child's process group holds any pool worker it left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{kind} run exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{kind} run printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "moebudget" / "__init__.py").is_file():
        print(f"perfbench: no moebudget sources under {SRC}", file=sys.stderr)
        return 2
    # Single-threaded BLAS, pinned before numpy loads here or in a child:
    # threaded BLAS on a shared 2-core machine only adds jitter at these
    # matrix sizes, and leaves every modeled number unchanged.
    for var in BLAS_THREADS:
        os.environ[var] = "1"
    if args.child:
        return child(args)
    sys.path.insert(0, str(SRC))
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    # Turn termination into an exit, so run_child still stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + deadline_s(args.seconds)
    try:
        if args.trace:
            result = run_child(args, "traced", deadline)
            catalogue = PER_LAYER
        else:
            setups = [run_child(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
            result = run_child(args, "timed", deadline)
            setups.append(result["metrics"]["setup_s"])
            result["metrics"]["setup_s"] = statistics.median(setups)
            catalogue = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("  " + "  ".join(f"{v}={os.environ[v]}" for v in BLAS_THREADS))
    metrics = {}
    for name, (unit, _) in catalogue.items():
        value = float(result["metrics"][name])
        metrics[name] = {"value": value, "unit": unit}
        note = ""
        if name == "gen_ms_tail":
            note = f"  (p{result['tail_pct']:.1f} of n={result['n']} timed generations, {result['passes']} passes)"
        elif name == "setup_s":
            note = f"  (median of {len(setups)} fresh processes)"
        print(f"  {name:<48} {value:>14.6g} {unit}{note}")
    print(f"  {'failed_frac':<48} {failed / attempted:>14.6g} share  ({failed}/{attempted})")
    for key in ("outputs_sha256", "host_speed", "spans", "trace_file"):
        if key in result:
            print(f"  {key:<48} {result[key]}")
    for problem in result["problems"]:
        print(f"  check failed: {problem}")
    correct = failed == 0
    emit({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
