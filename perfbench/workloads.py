"""The benchmark's workloads: seeded inputs, CLI ops and output checks.

Each workload is a list of hexaudit CLI ops (one op = one
``hexaudit.cli.main([...])`` call) plus the files those ops read.  The
files are made here from the benchmark seed; hexaudit sees only them.
Every op has a check, run by the parent process after the op's process
has exited, that raises ``CheckFailed`` on a wrong exit code or a wrong
output and otherwise returns the op's exact work counters.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
GOLDENS_FILE = HERE / "goldens.json"

WORKLOADS = ("hexagon-q3", "candidate-sets")

# Random candidate sets: (n, q) and line counts, chosen so that the
# full-enumeration oracle stays well under a second per set.
CANDIDATE_SPACES = ((4, 2), (5, 2), (4, 3))
CANDIDATE_SIZES = (4, 8, 12, 16, 20, 6, 10, 14, 18)
FIXED_CANDIDATES = ("h2", "h2-proj5", "h2-minus-pencil")



class CheckFailed(Exception):
    pass


@dataclass
class OpResult:
    rc: int
    seconds: float
    stdout: str
    stderr: str
    cpu_seconds: float = 0.0


@dataclass
class Op:
    """One CLI call.  ``{run}`` and ``{rep}`` in argv name the run's input
    directory and the repetition's output directory."""

    kind: str
    argv: list[str]
    check: Callable[[OpResult, Path], dict]
    outputs: tuple[str, ...] = ()
    env: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    spaces: list[tuple[int, int]]
    ops: list[Op]
    inputs: dict[str, str]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_goldens: dict | None = None


def goldens() -> dict:
    global _goldens
    if _goldens is None:
        _goldens = json.loads(GOLDENS_FILE.read_text())
    return _goldens


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _expect_rc(res: OpResult, rc: int) -> None:
    _expect(res.rc == rc, f"exit code {res.rc}, expected {rc}; stderr: {res.stderr.strip()[:200]}")


def golden_report(name: str) -> str:
    return json.dumps(goldens()["reports"][name], indent=2)


def without_version(text: str) -> str:
    doc = json.loads(text)
    doc.pop("version", None)
    return json.dumps(doc, indent=2)


def histogram_counters(doc: dict) -> dict:
    """Incidences (sum of count x multiplicity) and distinct subspaces per d."""
    out = {"lines": doc["totals"]["lines"], "points": doc["totals"]["points"]}
    for d, hist in doc["histograms"].items():
        out[f"incidences.d{d}"] = sum(int(c) * m for c, m in hist.items())
        out[f"distinct.d{d}"] = sum(hist.values())
    return out


def audit_stdout(doc: dict) -> str:
    """What ``hexaudit audit`` prints for a report document."""
    lines = []
    for a in doc["axioms"]:
        ok = doc["verdicts"][a]
        lines.append(f"{a}: {'pass' if ok else 'FAIL'}")
        w = doc["witnesses"][a]
        if not ok and w is not None:
            lines.append(f"  witness: {tuple(tuple(r) for r in w)}")
    return "".join(s + "\n" for s in lines)


# -- op constructors --


def build_op(q: int, out: str) -> Op:
    def check(res: OpResult, rep: Path) -> dict:
        _expect_rc(res, 0)
        n = (q**6 - 1) // (q - 1)
        _expect(res.stdout == f"H({q}): {n} lines, {n} points\n", f"stdout {res.stdout!r}")
        digest = sha256((rep / out).read_bytes())
        _expect(digest == goldens()["pgls_sha256"][str(q)], f"H({q}) PGLS digest {digest}")
        return {"lines": n, "points": n}

    return Op("build", ["build", "--q", str(q), "--out", "{rep}/" + out], check, (out,))


def audit_op(infile: str, out: str, expected_report: str, env=None) -> Op:
    """``expected_report`` is the report JSON with the version field removed."""
    expected_doc = json.loads(expected_report)
    expected_rc = 0 if all(expected_doc["verdicts"].values()) else 1
    expected_stdout = audit_stdout(expected_doc)

    def check(res: OpResult, rep: Path) -> dict:
        _expect_rc(res, expected_rc)
        text = (rep / out).read_text()
        _expect(without_version(text) == expected_report, f"report {out} differs from expected")
        _expect(res.stdout == expected_stdout, f"stdout {res.stdout[:200]!r}")
        return histogram_counters(json.loads(text))

    return Op("audit", ["audit", "--in", infile, "--out", "{rep}/" + out], check, (out,),
              dict(env or {}))


def polygon_op(infile: str, k: int, graph: bool, expected_stdout: str) -> Op:
    def check(res: OpResult, rep: Path) -> dict:
        _expect_rc(res, 0)
        _expect(res.stdout == expected_stdout, f"stdout {res.stdout!r}")
        first = res.stdout.splitlines()[0]
        out = {"vertices": 0 if first == "none" else len(first.split())}
        for line in res.stdout.splitlines()[1:]:
            key, _, value = line.partition(": ")
            out[key.replace(" ", "_")] = int(value)
        return out

    argv = ["polygon", "--in", infile, "--k", str(k)] + (["--graph"] if graph else [])
    return Op("polygon", argv, check)


def classify4_op(q: int) -> Op:
    expected = goldens()["classify4"][str(q)]

    def check(res: OpResult, rep: Path) -> dict:
        _expect_rc(res, 0)
        hist = {}
        for line in res.stdout.splitlines():
            key, _, value = line.partition(": ")
            hist[key] = int(value)
        _expect(hist == expected, f"classify4 histogram {hist}")
        return hist

    return Op("classify4", ["classify4", "--q", str(q)], check)


def search_op(spec_name: str, spec: dict, prefix: str) -> Op:
    header = [
        "hexaudit search log",
        "generator: python-random-mt19937",
        f"seed: {spec['seed']}",
        f"spec: n={spec['n']} q={spec['q']} mode={spec['mode']} budget={spec['budget']} "
        f"target={spec['target']} axioms={','.join(spec['axioms'])}",
    ]

    def check(res: OpResult, rep: Path) -> dict:
        _expect_rc(res, 0)
        log = (rep / (prefix + ".log")).read_text().splitlines()
        _expect(log[:4] == header, f"log header {log[:4]}")
        counters = {}
        for line in log[4:]:
            key, _, value = line.partition(": ")
            if key in ("iterations", "restarts", "candidates_checked", "best_score"):
                counters[key] = int(value)
            elif key == "outcome":
                counters["found"] = int(value == "found")
        _expect(len(counters) == 5 and log[-1].startswith("outcome: "), "log counters missing")
        log_path = str(rep / (prefix + ".log"))
        if counters["found"]:
            lines = (rep / (prefix + ".lines")).read_text()
            _expect(res.stdout.startswith("found: "), f"stdout {res.stdout!r}")
            counters["lines"] = len(lines.splitlines()) - 3
        else:
            _expect(counters["iterations"] == spec["budget"], "none before the budget ran out")
            _expect(res.stdout == f"none\nlog: {log_path}\n", f"stdout {res.stdout!r}")
        _expect(0 <= counters["best_score"], "negative best score")
        return counters

    argv = ["search", "--spec", "{run}/" + spec_name, "--out-prefix", "{rep}/" + prefix]
    return Op("search", argv, check, (prefix + ".log",))


# -- seeded inputs --


def _normalize(v, q):
    lead = next(x for x in v if x)
    inv = pow(lead, q - 2, q)
    return tuple(x * inv % q for x in v)


def _random_point(rng, width, q):
    while True:
        v = [rng.randrange(q) for _ in range(width)]
        if any(v):
            return _normalize(v, q)


def _line_points(a, b, q):
    pts = {_normalize(b, q)}
    for c in range(q):
        pts.add(_normalize([(x + c * y) % q for x, y in zip(a, b)], q))
    return frozenset(pts)


def random_lineset(rng: random.Random, n: int, q: int, count: int) -> str:
    """A PGLS file of ``count`` distinct random lines of PG(n, q), q prime."""
    seen, body = set(), []
    while len(body) < count:
        a, b = _random_point(rng, n + 1, q), _random_point(rng, n + 1, q)
        if a == b:
            continue
        key = _line_points(a, b, q)
        if key in seen:
            continue
        seen.add(key)
        body.append(" ".join(map(str, a)) + ", " + " ".join(map(str, b)))
    return "\n".join(["PGLS 1", f"n {n}", f"q {q}"] + body) + "\n"


def candidate_inputs(seed: int, smoke: bool) -> dict[str, str]:
    """File name -> PGLS text: the fixed inputs, then the seeded random ones."""
    files = {f"{name}.pgls": (INPUTS / f"{name}.pgls").read_text() for name in FIXED_CANDIDATES}
    rng = random.Random(f"candidate-sets/{seed}")
    sizes = CANDIDATE_SIZES[:1] if smoke else CANDIDATE_SIZES
    for n, q in CANDIDATE_SPACES:
        for i, count in enumerate(sizes):
            files[f"rand-pg{n}-{q}-{i}.pgls"] = random_lineset(rng, n, q, count)
    return files


def oracle_report(text: str) -> str:
    """The expected report (version removed) from the naive full-enumeration audit."""
    from hexaudit.audit import AxiomConfig, naive_audit
    from hexaudit.formats import load_lineset

    rep = naive_audit(load_lineset(text), AxiomConfig.all())
    doc = {"tool": "hexaudit", "kind": "audit", "input_digest": sha256(text.encode())}
    doc.update(rep.to_dict())
    return json.dumps(doc, indent=2)


# -- workloads --


def prepare(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload's ops and input files for one seed."""
    g = goldens()
    if name == "hexagon-q3":
        q = 2 if smoke else 3
        pgls = f"h{q}.pgls"
        return Workload(name, [(6, q)], [
            build_op(q, pgls),
            audit_op("{rep}/" + pgls, f"h{q}-report.json", golden_report(f"h{q}")),
            polygon_op("{rep}/" + pgls, 6, True, g["polygon"][f"h{q}-k6-graph"]),
        ], {})
    if name == "candidate-sets":
        files = candidate_inputs(seed, smoke)
        ops = []
        for fname, text in files.items():
            stem = fname[: -len(".pgls")]
            expected = golden_report(stem) if stem in FIXED_CANDIDATES else oracle_report(text)
            ops.append(audit_op("{run}/" + fname, stem + "-report.json", expected))
        return Workload(name, sorted({*CANDIDATE_SPACES, (6, 2)}), ops, files)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def probe(smoke: bool = False) -> Workload:
    """Ops appended to every traced run, all single-worker, so that every
    layer's per-layer metrics are measured on every workload.  The H(3)
    audit here is the single-worker baseline and the source of the
    per-dimension ``subspaces_through_rows`` numbers, which the default
    fork pool hides from the tracer."""
    g = goldens()
    q = 2 if smoke else 3
    spec = {"n": 6, "q": 2, "axioms": ["Pt", "Pl", "Sd"], "mode": "randomized-greedy",
            "seed": 1, "budget": 20 if smoke else 50, "target": "pentagon"}
    return Workload("probe", [], [
        build_op(q, f"probe-h{q}.pgls"),
        audit_op(f"{{rep}}/probe-h{q}.pgls", f"probe-h{q}-report.json", golden_report(f"h{q}"),
                 env={"HEXAUDIT_THREADS": "1"}),
        classify4_op(2),
        polygon_op("{run}/probe-h2.pgls", 6, True, g["polygon"]["h2-k6-graph"]),
        search_op("probe-spec.json", spec, "probe-search"),
    ], {"probe-h2.pgls": (INPUTS / "h2.pgls").read_text(), "probe-spec.json": json.dumps(spec)})
