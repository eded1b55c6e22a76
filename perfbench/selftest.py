"""Self-tests of the benchmark, on tiny inputs.

    python3 perfbench/selftest.py

Checks that the same seed makes byte-identical inputs and another seed
different ones; that every workload runs correctly in smoke mode with
tracing off and on (tracing on also checks that every report and PGLS
byte is the same as with tracing off); that the work counters of two runs
of one seed agree; and that a directory holding only ``BENCHMARK.json``
and ``perfbench/`` makes the benchmark exit non-zero without a result.
Kept out of the repository's pytest suite on purpose: it times nothing
itself but starts dozens of processes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_seeded_inputs() -> None:
    a, b, c = (workloads.candidate_inputs(seed, False) for seed in (5, 5, 6))
    assert a == b, "candidate-sets: same seed, different inputs"
    assert a != c, "candidate-sets: different seeds, same inputs"
    assert [op.argv for op in workloads.prepare("hexagon-q3", 5).ops] == \
        [op.argv for op in workloads.prepare("hexagon-q3", 6).ops]


def test_smoke_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in workloads.WORKLOADS:
        counters = []
        for trace, kind in ((0, "end_to_end"), (1, "per_layer"), (0, "end_to_end")):
            res = result_of(bench("--workload", name, "--seed", "3", "--seconds", "1",
                                  "--trace", str(trace), "--smoke"))
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            assert sorted(res["metrics"]) == sorted(m["name"] for m in spec[kind]), name
            record = json.loads((HERE / "out" / (
                f"result-{name}-seed3" + ("-trace" if trace else "") + ".json")).read_text())
            if not trace:
                counters.append(record["counters"])
                assert all(res["metrics"][m]["value"] > 0 for m in res["metrics"]), res
        assert counters[0] == counters[1], f"{name}: counters differ between runs of one seed"
        print(f"ok: {name} smoke, traced and untraced", file=sys.stderr)


def test_bare_directory_fails() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = bench("--workload", "hexagon-q3", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for test in (test_seeded_inputs, test_bare_directory_fails, test_smoke_runs):
        test()
        print(f"ok: {test.__name__}", file=sys.stderr)
