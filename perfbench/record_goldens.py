"""Record the fixed inputs and golden outputs the benchmark checks against.

    python3 perfbench/record_goldens.py

Writes ``perfbench/inputs/*.pgls`` (H(2), H(2) projected from the nucleus
into PG(5, 2), and H(2) minus the pencil of its first point) and
``perfbench/goldens.json``: PGLS digests of H(2), H(3), H(4), the audit
reports (version field removed) of H(2), H(3) and the fixed candidates,
the ``polygon`` outputs and the ``classify4 --q 2`` histogram.  Each
fixed-candidate report is cross-checked against the naive
full-enumeration audit before it is written.  Run it only on a commit
whose outputs are trusted; the benchmark fails every op that disagrees.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hexaudit import cli  # noqa: E402
from hexaudit.audit import AxiomConfig, naive_audit  # noqa: E402
from hexaudit.formats import dump_lineset, load_lineset  # noqa: E402
from hexaudit.hexagon import build  # noqa: E402
from hexaudit.lineset import LineSet  # noqa: E402
from hexaudit.pg import projective_space  # noqa: E402

import workloads  # noqa: E402


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def main() -> None:
    work = HERE / "out" / "record"
    work.mkdir(parents=True, exist_ok=True)
    inputs = workloads.INPUTS
    inputs.mkdir(exist_ok=True)

    h2 = build(2)
    (inputs / "h2.pgls").write_text(dump_lineset(h2))
    proj = LineSet(
        projective_space(5, 2),
        [tuple(row[:3] + row[4:] for row in key) for key in h2.lines],
    )
    (inputs / "h2-proj5.pgls").write_text(dump_lineset(proj))
    first = next(iter(h2.point_lines.values()))
    rest = [key for i, key in enumerate(h2.lines) if i not in first]
    (inputs / "h2-minus-pencil.pgls").write_text(dump_lineset(LineSet(h2.space, rest)))

    g = {"pgls_sha256": {}, "reports": {}, "polygon": {}, "classify4": {}}
    for q in (2, 3, 4):
        path = work / f"h{q}.pgls"
        rc, _ = run_cli(["build", "--q", str(q), "--out", str(path)])
        assert rc == 0
        g["pgls_sha256"][str(q)] = workloads.sha256(path.read_bytes())

    def report(name, path):
        out = work / f"{name}-report.json"
        run_cli(["audit", "--in", str(path), "--out", str(out)])
        g["reports"][name] = json.loads(workloads.without_version(out.read_text()))

    report("h3", work / "h3.pgls")
    for name in workloads.FIXED_CANDIDATES:
        path = inputs / f"{name}.pgls"
        report(name, path)
        expected = json.loads(workloads.oracle_report(path.read_text()))
        if expected != g["reports"][name]:
            raise SystemExit(f"{name}: audit report disagrees with naive_audit")
        print(f"{name}: report matches naive_audit", file=sys.stderr)

    for name, argv in {
        "h2-k6-graph": ["polygon", "--in", str(inputs / "h2.pgls"), "--k", "6", "--graph"],
        "h3-k6-graph": ["polygon", "--in", str(work / "h3.pgls"), "--k", "6", "--graph"],
    }.items():
        rc, text = run_cli(argv)
        assert rc == 0
        g["polygon"][name] = text
    rc, text = run_cli(["classify4", "--q", "2"])
    assert rc == 0
    g["classify4"]["2"] = {k: int(v) for k, _, v in (ln.partition(": ") for ln in text.splitlines())}
    # The benchmark's own expectations, which the recorded outputs must meet.
    assert g["classify4"]["2"] == {"line-cone-over-conic": 315, "parabolic-Q4": 1344,
                                   "cone-over-elliptic": 378, "cone-over-hyperbolic": 630,
                                   "total": 2667}, g["classify4"]["2"]
    assert g["polygon"]["h3-k6-graph"].endswith("incidence girth: 12\nincidence diameter: 6\n")
    rc, text = run_cli(["polygon", "--in", str(work / "h4.pgls"), "--k", "5"])
    assert (rc, text) == (0, "none\n"), text
    assert load_lineset((inputs / "h2-proj5.pgls").read_text()).span_dim() == 5
    assert naive_audit(load_lineset((inputs / "h2.pgls").read_text()), AxiomConfig.all()).passed

    workloads.GOLDENS_FILE.write_text(json.dumps(g, indent=1) + "\n")
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
