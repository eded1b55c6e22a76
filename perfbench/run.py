"""The hexaudit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  The benchmark drives hexaudit from
outside, through ``hexaudit.cli.main([...])``, as one client in a closed
loop: each op (one CLI command) starts when the previous one returns.
Every repetition of a workload is a fresh Python process that imports
hexaudit from the checkout's ``src/`` with ``HEXAUDIT_THREADS`` removed
from its environment, so it pays the cold caches a CLI user pays and the
audit uses the CLI's default worker count.

``--trace 0`` repeats the workload for about ``--seconds`` seconds and
reports the end-to-end metrics.  ``--trace 1`` runs the workload once
untraced and once traced (plus the single-worker probe of
``workloads.probe``) and reports the per-layer metrics; the spans go to
``perfbench/out/trace-<workload>-seed<N>.json``.  The last line of
standard output is the JSON result; the lines before it name the machine
and the numbers that are not gated.  Exit code 2 means the benchmark
could not run (no ``src/hexaudit`` in the checkout, bad arguments).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PER_REP = 1        # set-up-only processes started before each repetition
SETUP_SAMPLES = 9        # at least this many set-up-only processes per run
REP_TIMEOUT_S = 150.0
TAIL_PERCENTILES = (99.9, 99, 95, 90)


@dataclass
class Rep:
    """One repetition: a fresh process that ran the workload's ops once."""

    setup_s: float
    maxrss_mb: float
    wall_s: float                       # sum of the timed ops
    attempted: int
    ops: list = field(default_factory=list)   # (op, OpResult) pairs
    errors: list = field(default_factory=list)
    counters: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    trace: dict | None = None
    workers: int | None = None


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def substitute(argv, run_dir: Path, rep_dir: Path):
    return [a.replace("{run}", str(run_dir)).replace("{rep}", str(rep_dir)) for a in argv]


def spawn(plan: dict, rep_dir: Path) -> tuple[dict | None, float, float, str]:
    """Run rep.py on the plan; (result, setup seconds, peak RSS MB, error)."""
    plan_path, result_path = rep_dir / "plan.json", rep_dir / "result.json"
    plan_path.write_text(json.dumps(plan))
    env = dict(os.environ)
    env.pop("HEXAUDIT_THREADS", None)
    with open(rep_dir / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-I", str(HERE / "rep.py"), str(plan_path), str(result_path)],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True,
        )
        # A blocking wait, not a polling loop, so that the benchmark wakes
        # no CPU while the repetition runs; a timer ends a stuck one.
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(REP_TIMEOUT_S, kill)
        timer.start()
        pid = 0
        try:
            pid, status, rusage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if not pid:
                # The benchmark itself is being stopped: end the repetition
                # with its pool workers, and reap it.
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
    if timed_out.is_set():
        proc.returncode = -signal.SIGKILL
        return None, 0.0, 0.0, f"repetition timed out after {REP_TIMEOUT_S:.0f} s"
    proc.returncode = os.waitstatus_to_exitcode(status)
    maxrss_mb = rusage.ru_maxrss / 1024.0
    if proc.returncode != 0 or not result_path.exists():
        last = (rep_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        return None, 0.0, maxrss_mb, f"repetition exited {proc.returncode}: {' | '.join(last)}"
    result = json.loads(result_path.read_text())
    where = Path(result["hexaudit_file"])
    if SRC.resolve() not in where.parents:
        return None, 0.0, maxrss_mb, f"imported hexaudit from {where}, not from {SRC}"
    return result, result["t_ready"] - t_spawn, maxrss_mb, ""


def run_rep(wl, run_dir: Path, index: int, trace: bool = False, extra_ops=()) -> Rep:
    rep_dir = run_dir / f"rep{index}"
    rep_dir.mkdir()
    ops = list(wl.ops) + list(extra_ops)
    plan = {
        "src": str(SRC),
        "trace": trace,
        "spaces": wl.spaces,
        "ops": [{"kind": op.kind, "argv": substitute(op.argv, run_dir, rep_dir), "env": op.env}
                for op in ops],
    }
    result, setup_s, maxrss_mb, error = spawn(plan, rep_dir)
    if result is None:
        return Rep(setup_s, maxrss_mb, 0.0, len(ops), errors=[f"rep {index}: {error}"] * len(ops))
    rep = Rep(setup_s, maxrss_mb, 0.0, len(ops), trace=result.get("trace"),
              workers=result["workers"])
    for i, (op, raw) in enumerate(zip(ops, result["ops"])):
        res = workloads.OpResult(raw["rc"], raw["s"], raw["stdout"], raw["stderr"], raw["cpu_s"])
        if i < len(wl.ops):
            rep.wall_s += res.seconds
        rep.ops.append((op, res))
        try:
            rep.counters.append(op.check(res, rep_dir))
        except (workloads.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            rep.errors.append(f"rep {index} op {i} ({' '.join(op.argv[:3])}): {exc}")
            rep.counters.append(None)
        rep.outputs.append([res.stdout.replace(str(rep_dir), "{rep}")] + [
            workloads.sha256((rep_dir / name).read_bytes()) if (rep_dir / name).exists() else None
            for name in op.outputs
        ])
    return rep


def setup_only(wl, run_dir: Path, index: int) -> float | None:
    rep_dir = run_dir / f"setup{index}"
    rep_dir.mkdir()
    plan = {"src": str(SRC), "trace": False, "spaces": wl.spaces, "ops": []}
    result, setup_s, _, _ = spawn(plan, rep_dir)
    return setup_s if result is not None else None


def tail(latencies: list[float]) -> tuple[float, str, int]:
    """The highest percentile with at least ten samples beyond it (nearest
    rank); the maximum when the sample supports none of them."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return xs[rank - 1], f"p{p:g}", n - rank
    return xs[-1], "max", 0


def provenance(reps: list[Rep]) -> dict:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "hexaudit").glob("*.py")))
    workers = sorted({r.workers for r in reps if r.workers is not None})
    return {
        "hexaudit_src": str(SRC / "hexaudit"),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers[0] if len(workers) == 1 else workers,
        "python": platform.python_version(),
        "cpu": cpu,
        "src_lines": src_lines,
    }


def check_counters(reps: list[Rep]) -> list[str]:
    """Exact work counters must repeat across the repetitions of one seed."""
    errors = []
    first = reps[0].counters
    for i, rep in enumerate(reps[1:], 1):
        for j, (a, b) in enumerate(zip(first, rep.counters)):
            if a is not None and b is not None and a != b:
                errors.append(f"rep {i} op {j}: counters drifted: {a} != {b}")
    return errors


def measure(wl, run_dir: Path, seconds: float) -> tuple[dict, dict, list[Rep], list[str]]:
    setup: list[float] = []

    def sample_setup(count):
        for _ in range(count):
            setup.append(setup_only(wl, run_dir, len(setup)))

    reps: list[Rep] = []
    rounds: list[float] = []
    t0 = time.monotonic()
    # Start another round while it would end nearer the mark than stopping
    # now does, so that a run lasts about ``seconds`` however long a round is.
    while not reps or time.monotonic() - t0 + statistics.median(rounds) / 2 < seconds:
        t_round = time.monotonic()
        # Set-up samples are spread over the run, not taken in one burst,
        # because the host's speed drifts over seconds.
        sample_setup(SETUP_PER_REP)
        reps.append(run_rep(wl, run_dir, len(reps)))
        rounds.append(time.monotonic() - t_round)
    sample_setup(max(0, SETUP_SAMPLES - len(setup)))
    setup = [s for s in setup if s is not None] + [r.setup_s for r in reps if not r.errors]
    errors = [e for r in reps for e in r.errors] + check_counters(reps)
    n = len(wl.ops)
    timed = [r for r in reps if len(r.ops) >= n]
    latencies = [res.seconds for r in timed for _, res in r.ops[:n]]
    # Other tenants of the host stall an op (a stolen CPU, a pool worker
    # waiting for the other), in episodes of seconds to a minute, so each
    # op's fastest repetition is the steadiest estimate of its wall time.
    # CPU time does not count stalls, only a slower CPU, so its median is.
    best = [min(r.ops[i][1].seconds for r in timed) for i in range(n)] if timed else []
    cpu = [statistics.median(r.ops[i][1].cpu_seconds for r in timed) for i in range(n)] \
        if timed else []
    tail_s, tail_p, beyond = tail(latencies) if latencies else (0.0, "max", 0)
    metrics = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "wall_s": sum(best),
        "cpu_s": sum(cpu),
        "peak_rss_mb": statistics.median(r.maxrss_mb for r in reps),
    }
    phases: dict[str, list[float]] = {}
    for r in timed:
        per_rep: dict[str, float] = {}
        for op, res in r.ops:
            per_rep[op.kind] = per_rep.get(op.kind, 0.0) + res.seconds
        for kind, s in per_rep.items():
            phases.setdefault(f"{kind}_s", []).append(s)
    best_phases: dict[str, float] = {}
    for op, s in zip(wl.ops, best):
        best_phases[f"{op.kind}_s"] = best_phases.get(f"{op.kind}_s", 0.0) + s
    rep_walls = [r.wall_s for r in timed]
    info = {
        "repetitions": len(reps),
        "median_rep_wall_s": statistics.median(rep_walls) if rep_walls else 0.0,
        "ops_per_s": n / sum(best) if best else 0.0,
        "op_p50_ms": 1000 * statistics.median(latencies) if latencies else 0.0,
        "op_tail_ms": 1000 * tail_s,
        "op_tail": f"{tail_p} ({beyond} samples beyond, of {len(latencies)})",
        "setup_samples": len(setup),
        "phases_best_s": best_phases,
        "phases_median_s": {k: statistics.median(v) for k, v in sorted(phases.items())},
        "spread": {
            "rep_wall_s": [min(rep_walls), max(rep_walls)] if rep_walls else [],
            "setup_s": [min(setup), max(setup)] if setup else [],
        },
    }
    return metrics, info, reps, errors


def traced(wl, probe, run_dir: Path, seed: int, per_layer: list[str]):
    plain = run_rep(wl, run_dir, 0)
    traced_rep = run_rep(wl, run_dir, 1, trace=True, extra_ops=probe.ops)
    reps = [plain, traced_rep]
    errors = plain.errors + traced_rep.errors + check_counters(reps)
    for i in range(len(wl.ops)):
        if i < len(plain.outputs) and i < len(traced_rep.outputs) \
                and plain.outputs[i] != traced_rep.outputs[i]:
            errors.append(f"op {i}: output bytes differ with tracing on")
    if traced_rep.trace is None:
        return {}, {}, reps, errors + ["traced repetition left no trace"]
    metrics = tracing.layer_metrics(traced_rep.trace)
    if sorted(metrics) != sorted(per_layer):
        fail(f"per-layer metrics {sorted(set(metrics) ^ set(per_layer))} do not match BENCHMARK.json")
    summary = tracing.summary(traced_rep.trace)
    info = {
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced_rep.wall_s,
        "tracing_overhead_s": traced_rep.wall_s - plain.wall_s,
        "probe_ops": len(probe.ops),
        "spans": len(traced_rep.trace["spans"]),
        "top_self_s": [(n, c, round(t, 4), round(s, 4)) for n, c, t, s in summary[:8]],
    }
    trace_file = OUT / f"trace-{wl.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": wl.name,
        "ops": [" ".join(op.argv) for op in wl.ops + probe.ops],
        "workload_op_ids": list(range(len(wl.ops))),
        "summary": summary,
        "info": info,
        **traced_rep.trace,
    }))
    info["trace_file"] = str(trace_file.relative_to(ROOT))
    return metrics, info, reps, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    args = parser.parse_args(argv)
    # Stopping the benchmark stops its repetition too (see spawn).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "hexaudit" / "__init__.py").is_file():
        fail(f"no hexaudit package under {SRC}; run from the root of a hexaudit checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import hexaudit

    if SRC.resolve() not in Path(hexaudit.__file__).resolve().parents:
        fail(f"imported hexaudit from {hexaudit.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir()
    try:
        wl = workloads.prepare(args.workload, args.seed, args.smoke)
        probe = workloads.probe(args.smoke)
        for name, text in {**wl.inputs, **(probe.inputs if args.trace else {})}.items():
            (run_dir / name).write_text(text)
        if args.trace:
            names = [m["name"] for m in bench["per_layer"]]
            metrics, info, reps, errors = traced(wl, probe, run_dir, args.seed, names)
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        else:
            metrics, info, reps, errors = measure(wl, run_dir, args.seconds)
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in reps)
    failed = min(attempted, len(errors))
    info["provenance"] = provenance(reps)
    info["error_rate"] = failed / attempted if attempted else 1.0
    for e in errors[:20]:
        print(f"FAILED: {e}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "info": info,
        "counters": reps[0].counters if reps else [], "errors": errors,
        "op_s": [[res.seconds for _, res in r.ops] for r in reps],
        "op_cpu_s": [[res.cpu_seconds for _, res in r.ops] for r in reps],
    }
    suffix = "-trace" if args.trace else ""
    (OUT / f"result-{args.workload}-seed{args.seed}{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
