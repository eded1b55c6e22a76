"""Command-line surface.

Exit codes: 0 = pass, 1 = property violation / infeasible, 2 = usage or
parse error.  All commands are deterministic given their inputs and
declared seeds; reports embed the tool version and an input digest.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from functools import cache
from pathlib import Path

from . import __version__
from .audit import AXIOMS, AxiomConfig, audit
from .errors import InternalConsistencyError
from .formats import dump_lineset, dumps_report, load_lineset, report_document
from .gf import MAX_Q, is_prime_power
from .hexagon import SUPPORTED_Q, build
from .pg import projective_space
from .polygon import find_kgon, girth_and_diameter
from .quadric import parabolic_quadric
from .search import SearchSpec, run as run_search
from .srg import (
    eigenvalues,
    eigenvalues_displayed_sign,
    pencil_graph_params,
    q_feasible,
    q_to_u,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _check_writable(path: str) -> None:
    """Raise the OSError that writing ``path`` ("-": stdout) would raise, leaving no new file."""
    if path == "-":
        return
    try:
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
        os.unlink(path)
    except FileExistsError:
        os.close(os.open(path, os.O_WRONLY))


def _write_out(path: str, text: str) -> None:
    """Write a whole output checked by ``_check_writable`` ("-" is stdout)."""
    if path == "-":
        sys.stdout.write(text)
    else:
        sys.stdout.flush()  # lines printed before the output stay before it
        Path(path).write_text(text)


def cmd_build(args) -> int:
    if args.q not in SUPPORTED_Q:
        print(
            f"error: unsupported q={args.q}"
            + ("" if args.q > MAX_Q or is_prime_power(args.q) else " (not a prime power)")
            + f"; supported: {', '.join(map(str, SUPPORTED_Q))}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    _check_writable(args.out)
    ls = build(args.q)
    _write_out(args.out, dump_lineset(ls))
    print(f"H({args.q}): {len(ls)} lines, {len(ls.point_lines)} points")
    return EXIT_OK


def _load_nonempty(path: str):
    text = Path(path).read_text()
    ls = load_lineset(text)
    if not ls.lines:
        raise ValueError(f"{path}: the line set is empty")
    return ls, text


def cmd_audit(args) -> int:
    try:
        ls, text = _load_nonempty(args.infile)
        if args.axioms is not None:
            cfg = AxiomConfig.from_names(args.axioms.split(","))
        else:
            cfg = AxiomConfig.all()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _check_writable(args.out)
    rep = audit(ls, cfg)
    doc = report_document("audit", rep.to_dict(), source_text=text)
    _write_out(args.out, dumps_report(doc))
    for a in rep.axioms:
        status = "pass" if rep.verdicts[a] else "FAIL"
        print(f"{a}: {status}")
        if not rep.verdicts[a] and rep.witnesses.get(a) is not None:
            print(f"  witness: {rep.witnesses[a]}")
    return EXIT_OK if rep.passed else EXIT_VIOLATION


def cmd_polygon(args) -> int:
    try:
        ls, _ = _load_nonempty(args.infile)
        gon = find_kgon(ls, args.k)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if gon is None:
        print("none")
    else:
        print(" ".join(str(v) for v in gon.vertices))
    if args.graph:
        girth, diameter = girth_and_diameter(ls)
        print(f"incidence girth: {'none' if girth == float('inf') else girth}")
        print(f"incidence diameter: {diameter}")
    return EXIT_OK


def cmd_classify4(args) -> int:
    if args.q not in (2, 3):
        print("error: classify4 supports q in {2, 3}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        _check_writable(args.out)
    quad = parabolic_quadric(args.q)
    space = projective_space(6, args.q)
    hist: dict[str, int] = {}
    for sub in space.enumerate_subspaces(4):
        kind, _ = quad.classify_section(sub)
        hist[kind.value] = hist.get(kind.value, 0) + 1
    for kind in sorted(hist):
        print(f"{kind}: {hist[kind]}")
    print(f"total: {sum(hist.values())}")
    if args.out:
        doc = report_document("classify4", {"q": args.q, "histogram": dict(sorted(hist.items()))})
        _write_out(args.out, dumps_report(doc))
    return EXIT_OK


def cmd_srg(args) -> int:
    q = args.q
    if q < 2:
        print("error: need q >= 2", file=sys.stderr)
        return EXIT_USAGE
    params = pencil_graph_params(q)
    feasible = q_feasible(q)
    try:
        ev, ev_disp = eigenvalues(params), eigenvalues_displayed_sign(params)
    except OverflowError:
        print("error: q is too large: its eigenvalues overflow a float", file=sys.stderr)
        return EXIT_USAGE
    print(f"parameters: (v, k, lambda, mu) = ({params.v}, {params.k}, {params.lam}, {params.mu})")
    print(f"eigenvalues (standard sign): {ev[0]:g}, {ev[1]:g}")
    print(f"eigenvalues (displayed sign): {ev_disp[0]:g}, {ev_disp[1]:g}")
    if feasible:
        print(f"feasible: q={q} (u={q_to_u(q)})")
        return EXIT_OK
    print(f"infeasible: 1+4q={1 + 4 * q} not an odd square")
    return EXIT_VIOLATION


def cmd_search(args) -> int:
    try:
        spec_doc = json.loads(Path(args.spec).read_text())
        spec = SearchSpec.from_dict(spec_doc)
        projective_space(spec.n, spec.q)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: bad search spec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    prefix = args.out_prefix or "search"
    _check_writable(prefix + ".lines")
    _check_writable(prefix + ".log")
    result = run_search(spec)
    _write_out(prefix + ".log", result.log)
    if result.found is not None:
        _write_out(prefix + ".lines", dump_lineset(result.found))
        print(f"found: {len(result.found)} lines -> {prefix}.lines")
    else:
        print("none")
    print(f"log: {prefix}.log")
    return EXIT_OK


@cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexaudit",
        description="Split Cayley hexagon construction and intersection-number audits.",
    )
    parser.add_argument("--version", action="version", version=f"hexaudit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="construct the H(q) line set")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_build)

    p = subs.add_parser("audit", help="audit a line-set file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--axioms", default=None, help=f"comma list of {','.join(AXIOMS)} (default: all)")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_audit)

    p = subs.add_parser("polygon", help="find a k-gon in a line-set file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--graph", action="store_true",
                   help="also print incidence girth and diameter")
    p.set_defaults(func=cmd_polygon)

    p = subs.add_parser("classify4", help="classify all 4-space quadric sections")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify4)

    p = subs.add_parser("srg", help="pencil-graph SRG feasibility for q")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_srg)

    p = subs.add_parser("search", help="run the line-set search harness")
    p.add_argument("--spec", required=True, help="JSON search spec file")
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_search)

    return parser


def _parse(argv) -> argparse.Namespace:
    """``parse_args``, writing what argparse prints itself (--help,
    --version) to stdout here: argparse drops a failed write, which an
    unbuffered stdout would meet inside it."""
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        return make_parser().parse_args(argv)
    finally:
        text, sys.stdout = sys.stdout.getvalue(), stdout
        if text:
            stdout.write(text)
            stdout.flush()


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left early: the output is cut, so no pass, but no usage
        # error either.  Quiet the flush at exit, as the signal docs advise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VIOLATION
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
