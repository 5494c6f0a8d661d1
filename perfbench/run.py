"""bdnsat benchmark: seeded workloads through the public CLI, verdicts checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

One process, one thread, closed loop with one client: each operation is one
in-process call of bdnsat.cli.main on a generated .lp file and starts when
the previous one returns.  Every verdict is compared with a reference that
perfbench/workloads.py computes without bdnsat; a disagreement aborts the
run.  With --trace 0 the run times the program unmodified, scales each
time to a reference machine speed (see speed.py) and prints the end-to-end
metrics; with --trace 1 it alternates untraced and traced calls of each
operation and prints the per-layer metrics (unscaled), the tracing overhead
and a determinism check of the size counts.  The last line of standard
output is one JSON object with the metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))

# Setup is repeated and its median reported, so one slow import or warm-up
# does not decide the figure.
SETUP_REPEATS = 5
# Inputs traced a second time after the timed loop, for the determinism check.
DETERMINISM_OPS = 8


def import_cli():
    """A fresh import of bdnsat from this checkout's src/ (never an installed copy)."""
    for name in [m for m in sys.modules if m == "bdnsat" or m.startswith("bdnsat.")]:
        del sys.modules[name]
    cli = importlib.import_module("bdnsat.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"bdnsat imported from {cli.__file__}, not {SRC}")
    return cli


def write_cases(cases, directory: Path) -> dict[str, str]:
    directory.mkdir(parents=True)
    paths = {}
    for case in cases:
        path = directory / f"{case.name}.lp"
        path.write_text(case.text, encoding="utf-8")
        paths[case.name] = str(path)
    return paths


class Runner:
    """Runs operations through one entry point, checks them, and keeps score."""

    def __init__(self, paths: dict[str, str], limit: float):
        self.paths = paths
        self.limit = limit
        self.attempted = 0
        self.failed = 0
        self.first_failure = ""

    def run(self, main, op) -> float:
        argv = op.argv(self.paths[op.case.name], self.limit)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        elapsed = time.perf_counter() - start
        try:
            workloads.check(op, code, out.getvalue())
        except workloads.WrongVerdict as exc:
            raise workloads.WrongVerdict(
                f"{exc}\ncommand: bdnsat {' '.join(argv)}\n"
                f"output: {out.getvalue()}{err.getvalue()}"
                f"input {op.case.name}.lp:\n{op.case.text}") from None
        self.attempted += 1
        if code not in ((10, 20) if op.mode else (0,)) or elapsed > self.limit:
            self.failed += 1
            self.first_failure = self.first_failure or (
                f"bdnsat {' '.join(argv)}: exit {code} after {elapsed:.3f}s "
                f"{err.getvalue().strip()}")
        return elapsed


def set_up(cases, ops, work: Path, limit: float):
    """Import bdnsat, write the programs and run one warm-up operation, timed.

    Each time is scaled to the reference speed measured just before it.
    """
    times = []
    for rep in range(SETUP_REPEATS):
        scale = speed.scale_now()
        start = time.perf_counter()
        cli = import_cli()
        runner = Runner(write_cases(cases, work / f"setup{rep}"), limit)
        runner.run(cli.main, ops[0])
        times.append((time.perf_counter() - start) * scale)
    return cli, runner, statistics.median(times)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def measure(runner: Runner, main, ops, seconds: float) -> speed.Clock:
    clock = speed.Clock()
    deadline = time.perf_counter() + seconds
    while not clock.ops or time.perf_counter() < deadline:
        start = time.perf_counter()
        clock.record(start, runner.run(main, ops[len(clock.ops) % len(ops)]))
    return clock


def end_to_end(runner, latencies, spec, setup_s) -> dict[str, tuple[float, str]]:
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "ops/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (percentile(latencies, spec["tail_percentile"]) * 1e3,
                            "ms"),
        "failed_ratio": (runner.failed / runner.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "setup_s": (setup_s, "s"),
    }


def measure_traced(runner: Runner, main, ops, seconds: float):
    """Untraced then traced call of each operation in turn, until time is up."""
    tracer = spans.Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        op = ops[len(traced) % len(ops)]
        untraced.append(runner.run(main, op))
        tracer.op = len(traced)
        with spans.installed(tracer) as traced_main:
            traced.append(runner.run(traced_main, op))
    return tracer, untraced, traced


def size_counts(tracer: spans.Tracer, op_id: int) -> tuple[float, ...]:
    counts = tracer.counts.get(op_id, {})
    return tuple(counts.get(name, 0.0) for name in spans.SIZE_COUNTS)


def determinism(runner: Runner, main, ops, tracer: spans.Tracer):
    """Trace the first inputs again; every size count must repeat exactly."""
    again = spans.Tracer()
    drifts = []
    with spans.installed(again) as traced_main:
        for op_id in range(min(DETERMINISM_OPS, len(ops))):
            again.op = op_id
            runner.run(traced_main, ops[op_id])
            if op_id not in tracer.counts:
                continue  # the timed loop ended before this input
            first, second = size_counts(tracer, op_id), size_counts(again, op_id)
            drifts += [f"{ops[op_id].case.name}: {name} {a:g} then {b:g}"
                       for name, a, b in zip(spans.SIZE_COUNTS, first, second)
                       if a != b]
    digest = hashlib.sha256(repr([size_counts(again, i) for i in
                                  sorted(again.counts)]).encode()).hexdigest()
    return drifts, digest


def per_layer(tracer, untraced, traced, drifts) -> dict[str, tuple[float, str]]:
    n = len(traced)
    own = tracer.self_times()
    total: dict[str, float] = {}
    for counts in tracer.counts.values():
        for name, value in counts.items():
            total[name] = total.get(name, 0.0) + value
    ms = lambda span: (own.get(span, 0.0) / n * 1e3, "ms")
    per_op = lambda name: (total.get(name, 0.0) / n, "count")
    ratio = lambda a, b: (a / b if b else 0.0, "ratio")
    solved = sum(total.get(f"solver.{s}", 0.0) for s in ("sat", "unsat"))
    calls = solved + total.get("solver.unknown", 0.0)
    return {
        "cli.self_ms": ms("cli"),
        "program.parse_ms": ms("program.parse"),
        "program.atoms": per_op("program.atoms"),
        "program.rules": per_op("program.rules"),
        "backdoor.detect_ms": ms("backdoor.detect"),
        "backdoor.cover_calls": per_op("backdoor.cover_calls"),
        "backdoor.cover_hit_ratio": ratio(total.get("backdoor.cover_hits", 0.0),
                                          total.get("backdoor.cover_calls", 0.0)),
        "backdoor.k": per_op("backdoor.k"),
        "backdoor.verify_ms": ms("backdoor.verify"),
        "encoding.build_ms": ms("encoding.build"),
        "encoding.blocks": per_op("encoding.blocks"),
        "encoding.layers": per_op("encoding.layers"),
        "encoding.reserved_vars": per_op("encoding.reserved_vars"),
        "encoding.builds_per_op": per_op("encoding.builds"),
        "encoding.names_ms": ms("encoding.names"),
        "formula.tseitin_ms": ms("formula.tseitin"),
        "formula.cnf_vars": per_op("formula.cnf_vars"),
        "formula.cnf_clauses": per_op("formula.cnf_clauses"),
        "formula.cnf_literals": per_op("formula.cnf_literals"),
        "solver.solve_ms": ms("solver.solve"),
        "solver.sat": per_op("solver.sat"),
        "solver.unsat": per_op("solver.unsat"),
        "solver.unknown": per_op("solver.unknown"),
        "solver.decided_ratio": ratio(solved, calls),
        "mincheck.recheck_ms": ms("mincheck.recheck"),
        "mincheck.subsets": per_op("mincheck.subsets"),
        "trace.overhead_ms": ((sum(traced) - sum(untraced)) / n * 1e3, "ms"),
        "determinism.drifts": (float(len(drifts)), "count"),
    }


def group_table(runner: Runner, main, ops, tracer, untraced) -> list[str]:
    """Per input group: untraced median latency, CNF size and allocation peak.

    The allocation peak comes from one extra call per group under
    tracemalloc, outside every timed loop.
    """
    rows = {}
    for i, latency in enumerate(untraced):
        op = ops[i % len(ops)]
        row = rows.setdefault(op.case.group, {"lat": [], "clauses": [], "op": op})
        row["lat"].append(latency)
        row["clauses"].append(tracer.counts[i].get("formula.cnf_clauses", 0.0))
    lines = [f"{'group':<12} {'ops':>5} {'p50_ms':>9} {'cnf_clauses':>11} "
             f"{'op_peak_mb':>10}"]
    for group in sorted(rows, key=lambda g: (len(g), g)):
        row = rows[group]
        tracemalloc.start()
        runner.run(main, row["op"])
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        lines.append(f"{group:<12} {len(row['lat']):>5} "
                     f"{statistics.median(row['lat']) * 1e3:>9.2f} "
                     f"{statistics.mean(row['clauses']):>11.0f} {peak:>10.2f}")
    return lines


def report(title: str, metrics: dict[str, tuple[float, str]], runner: Runner,
           wanted: list[str]) -> None:
    """Every metric as a table line, then the result line with the wanted ones.

    A wrong verdict aborts the run before this point, so a printed result
    is always correct.
    """
    print(title)
    if runner.first_failure:
        print(f"first failure: {runner.first_failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>14.4f} {unit}")
    print(json.dumps({
        "correct": True, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted}}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bdnsat" / "__init__.py").is_file():
        print(f"error: no bdnsat sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("BDNSAT_SOLVER", None)  # always the internal solver
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = SPEC[args.workload]
    cases, ops = workloads.generate(args.workload, args.seed, spec["generator"])
    limit = spec["op_time_limit_s"]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    title = f"workload {args.workload} seed {args.seed} trace {args.trace}"
    try:
        cli, runner, setup_s = set_up(cases, ops, work, limit)
        runner.attempted = runner.failed = 0
        if not args.trace:
            clock = measure(runner, cli.main, ops, args.seconds)
            latencies = clock.scaled()
            metrics = end_to_end(runner, latencies, spec, setup_s)
            raw = [elapsed for _, elapsed in clock.ops]
            print(f"{title}: {len(raw)} operations, tail = "
                  f"p{spec['tail_percentile']}; machine {clock.slowdown():.2f}x "
                  "slower than the reference; unscaled percentiles (ms) "
                  + " ".join(f"p{p}={percentile(raw, p) * 1e3:.1f}"
                             for p in (50, 90, 95, 98, 99)))
            report(title, metrics, runner,
                   [m["name"] for m in bench["end_to_end"]])
            return 0
        tracer, untraced, traced = measure_traced(runner, cli.main, ops,
                                                  args.seconds)
        drifts, digest = determinism(runner, cli.main, ops, tracer)
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-{args.seed}.jsonl")
        print(f"{title}: {len(traced)} traced operations")
        for line in group_table(runner, cli.main, ops, tracer, untraced):
            print("  " + line)
        print(f"determinism digest {digest}")
        for drift in drifts:
            print(f"determinism drift: {drift}")
        metrics = per_layer(tracer, untraced, traced, drifts)
        report(title, metrics, runner, [m["name"] for m in bench["per_layer"]])
        return 0
    except workloads.WrongVerdict as exc:
        print(f"wrong verdict: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
