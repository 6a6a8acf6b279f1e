"""Stage-by-stage benchmark of the commcheck pipeline.

    python3 bench/run.py                          # all four workloads, untraced
    python3 bench/run.py --trace 1                # all four, traced (per-layer figures)
    python3 bench/run.py --workload chain --seed 7 --seconds 15 --trace 0

A single workload runs in this process; `--workload all` runs each one
in a fresh process, one after another. Every run is a closed loop: one
caller issues each operation after the previous one has returned,
passes over the workload's operations until `--seconds` have gone by,
and checks every output. The last line of standard output is the
result as one JSON object; a record with the git SHA, Python version
and CPU count goes to `.bench_work/` in the repository root.

See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("fdiff-cli", "chain", "pairs", "corpus")
SETUP_PROBES = 6  # extra fresh processes that only set up, for the setup_s median
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "lexer.busy_ms": "ms",
    "lexer.tokens": "count",
    "parser.busy_ms": "ms",
    "parser.nodes": "count",
    "program.busy_ms": "ms",
    "program.stmts": "count",
    "wf.busy_ms": "ms",
    "projection.busy_ms": "ms",
    "projection.local_atoms": "count",
    "projection.failed": "count",
    "projection.peak_kib": "KiB",
    "checker.busy_ms": "ms",
    "checker.ranks": "count",
    "checker.peak_kib": "KiB",
    "sim.busy_ms": "ms",
    "sim.searches": "count",
    "sim.states": "count",
    "sim.us_per_state": "us",
    "sim.witness_steps": "count",
    "sim.replay_ms": "ms",
    "sim.peak_kib": "KiB",
    "printer.busy_ms": "ms",
    "printer.bytes": "count",
    "cli.busy_ms": "ms",
    "cli.calls": "count",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "commcheck" / "__init__.py").is_file():
        print(f"error: no commcheck sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return _run_one(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_one(args, work: Path) -> int:
    # Set-up: import the package, generate the inputs, write the files.
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import commcheck
    import workloads

    ops = workloads.build(args.workload, args.seed, work)
    setup = perf_counter() - start
    if not Path(commcheck.__file__).resolve().is_relative_to(SRC):
        print(f"error: commcheck was imported from {commcheck.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0
    probes = 0 if args.trace else SETUP_PROBES
    setups = [setup] + [_probe_setup(args) for _ in range(probes)]

    import spans
    from checks import CheckFailed

    api = spans.load_api()
    tracer = spans.Tracer(api) if args.trace else None
    # Traced runs alternate plain and traced passes, so the difference of
    # their walls is the tracing overhead. tracemalloc slows a pass five-
    # to twentyfold, so the memory peaks come from one last pass.
    kinds = ("plain", "spans") if tracer else ("plain",)
    run = _Run(ops, tracer, CheckFailed)
    # The benchmark's own inputs and expectations stay alive all run; keep
    # them out of the program's collections, as they would be in a CLI run.
    gc.collect()
    gc.freeze()
    deadline = perf_counter() + args.seconds
    while True:
        for kind in kinds:
            run.one_pass(kind, api)
        if perf_counter() >= deadline:
            break
    if tracer:
        run.one_pass("memory", api)
        metrics = _per_layer(run, tracer, spans)
    else:
        metrics = _end_to_end(run, setups)
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": {kind: len(walls) for kind, walls in run.walls.items() if walls},
        "ops_per_pass": len(ops),
    }
    _write_record(args, meta, result, run, tracer)
    print(f"# {args.workload} seed={args.seed} sha={meta['sha'][:12]} python={meta['python']}"
          f" nproc={meta['nproc']} passes={meta['passes']} ops/pass={len(ops)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# attempted={run.attempted} failed={run.failed} correct={run.correct}")
    print(json.dumps(result))
    return 0


class _Run:
    """Passes over one workload's operations, with their timings."""

    def __init__(self, ops, tracer, check_failed):
        self.ops = ops
        self.tracer = tracer
        self.check_failed = check_failed
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.walls: dict[str, list[float]] = {"plain": [], "spans": [], "memory": []}
        # Per plain pass, each operation's time; None where it failed.
        self.op_times: list[list[float | None]] = []
        self.span_ranges: list[tuple[int, int]] = []
        self._reported: set[str] = set()

    def one_pass(self, kind: str, api) -> None:
        tracer = self.tracer
        if kind in ("spans", "memory"):
            context = tracer.active(memory=kind == "memory")
        else:
            context = nullcontext(api)
        first_span = len(tracer.spans) if tracer else 0
        wall = 0.0
        times: list[float | None] = []
        with context as call_api:
            for op in self.ops:
                if tracer:
                    tracer.op += 1
                self.attempted += 1
                error = None
                # Each operation starts right after a full collection, so the
                # collections it pays for are those its own garbage triggers,
                # wherever it sits in the pass.
                gc.collect()
                t0 = perf_counter()
                try:
                    result = op.call(call_api)
                except Exception as err:  # an operation that fails is counted, not fatal
                    error = err
                elapsed = perf_counter() - t0
                wall += elapsed
                if tracer:
                    tracer.end_op()
                times.append(None if error else elapsed)
                if error is not None:
                    self.failed += 1
                    self._note(op.label, f"failed: {type(error).__name__}: {str(error)[:200]}")
                    continue
                try:
                    op.check(result)
                except self.check_failed as err:
                    self.correct = False
                    self._note(op.label, f"wrong output: {err}")
        self.walls[kind].append(wall)
        if kind == "plain":
            self.op_times.append(times)
        if kind == "spans":
            self.span_ranges.append((first_span, len(tracer.spans)))

    def _note(self, label: str, message: str) -> None:
        if label not in self._reported:
            self._reported.add(label)
            print(f"{label}: {message}", file=sys.stderr)


def _probe_setup(args) -> float:
    """Set-up time of one more fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _end_to_end(run: _Run, setups: list[float]) -> dict[str, tuple[float, str]]:
    times_ms = [t * 1e3 for times in run.op_times for t in times if t is not None]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(run.walls["plain"]),
        "verdict_p50_ms": statistics.median(times_ms),
        "verdict_p90_ms": statistics.quantiles(times_ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def _per_layer(run: _Run, tracer, spans) -> dict[str, tuple[float, str]]:
    span_passes = len(run.span_ranges)
    busy = [tracer.busy_seconds(a, b) for a, b in run.span_ranges]
    values = {
        f"{layer}.busy_ms": statistics.median(b[layer] for b in busy) * 1e3
        for layer in spans.LAYERS
    }
    for name in PER_LAYER_UNITS:
        if PER_LAYER_UNITS[name] == "count":
            values[name] = tracer.counts[name] / span_passes
    for layer in spans.MEMORY_LAYERS:
        values[f"{layer}.peak_kib"] = tracer.peak_bytes[layer] / 1024
    states = tracer.counts["sim.states"]
    values["sim.us_per_state"] = tracer.state_time / states * 1e6 if states else 0.0
    values["sim.replay_ms"] = tracer.replay_time / span_passes * 1e3
    values["trace.overhead_s"] = statistics.median(run.walls["spans"]) - statistics.median(run.walls["plain"])
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def _write_record(args, meta, result, run: _Run, tracer) -> None:
    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {"meta": meta, "result": result, "pass_walls_s": run.walls, "op_times_s": run.op_times,
              "op_labels": [op.label for op in run.ops]}
    if tracer:
        spans_path = WORK / f"spans_{stem}.json"
        spans_path.write_text(json.dumps([list(s.__dict__.values()) for s in tracer.spans]))
        record["spans"] = str(spans_path.relative_to(ROOT))
    (WORK / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1) + "\n")


def git_sha() -> str:
    """HEAD of the repository at ROOT, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# all workloads, each in a fresh process
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"{name}: exited {done.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        rows.append((name, result))
    for name, result in rows:
        print(f"\n{name}: attempted={result['attempted']} failed={result['failed']}"
              f" correct={result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:24s} {m['value']:14.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
