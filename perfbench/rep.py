"""One repetition of a workload, in a fresh Python process.

    python3 -I perfbench/rep.py PLAN.json RESULT.json

Imports hexaudit from the checkout's ``src/`` named in the plan, builds
the workload's spaces and fields (the end of set-up), then runs each op
through ``hexaudit.cli.main`` one after the other and writes the op
timings, exit codes and captured output to RESULT.json.  With tracing
on, the spans and hot-leaf aggregates go into the result as well.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children
    (the audit's pool workers are joined before the op returns)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_op(cli, op: dict, tracer, index: int) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved = {k: os.environ.get(k) for k in op["env"]}
    os.environ.update(op["env"])
    span = None
    if tracer is not None:
        tracer.op = index
        span = tracer.open(f"cli.{op['kind']}")
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(op["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed op, not a crashed benchmark
            traceback.print_exc()
            rc = 1
    seconds = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    if span is not None:
        tracer.close(span)
        tracer.op = None
    for k, v in saved.items():
        if v is None:
            os.environ.pop(k, None)
        else:
            os.environ[k] = v
    return {"rc": rc, "s": seconds, "cpu_s": cpu, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import hexaudit
    import hexaudit.cli as cli
    from hexaudit.audit import default_threads
    from hexaudit.pg import projective_space

    tracer = None
    if plan["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        setup_span = tracer.open("bench.setup")
    for n, q in plan["spaces"]:
        projective_space(n, q)
    if tracer is not None:
        tracer.close(setup_span)
    result = {
        "t_ready": time.monotonic(),
        "hexaudit_file": str(Path(hexaudit.__file__).resolve()),
        "workers": default_threads(),
        "ops": [],
    }
    for i, op in enumerate(plan["ops"]):
        result["ops"].append(run_op(cli, op, tracer, i))
    if tracer is not None:
        result["trace"] = tracing.dump(tracer)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
