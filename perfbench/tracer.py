"""In-memory spans around hexaudit's public functions, for the traced run.

The tracer wraps functions from the outside: it replaces the class or
module attribute that callers look up, including every ``from x import f``
binding inside the hexaudit package.  Nothing under ``src/`` changes.

Two kinds of record:

* spans: name, start, end, parent span and op id, one per call of a
  coarse function (an audit, a build, a file parse);
* hot leaves: functions called thousands of times (``rref``,
  ``subspaces_through_rows``, ...) get no span per call; their count and
  total time are summed per parent span instead.

A span's self time is its duration minus the time its child spans and its
outermost hot leaves cover.  Work done inside fork-pool workers is not
seen: the workers inherit the wrappers, but their records die with them.
"""

from __future__ import annotations

import functools
import sys
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        # (parent span id, leaf name) -> [calls, seconds, extra counters]
        self.leaves: dict[tuple[int, str], list] = {}
        self.leaf_depth = 0
        self.op = None

    # -- recording --

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self.stack[-1] if self.stack else None,
            "op": self.op,
            "start": _clock(),
            "end": None,
            "covered": 0.0,
            "counters": {},
        }
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = _clock()
        popped = self.stack.pop()
        if popped != span["id"]:
            raise RuntimeError(f"span stack out of order: {popped} != {span['id']}")
        if span["parent"] is not None:
            self.spans[span["parent"]]["covered"] += span["end"] - span["start"]

    def leaf(self, name: str, seconds: float, top: bool, **extra) -> None:
        parent = self.stack[-1] if self.stack else -1
        rec = self.leaves.get((parent, name))
        if rec is None:
            rec = self.leaves[(parent, name)] = [0, 0.0, {}]
        rec[0] += 1
        rec[1] += seconds
        for k, v in extra.items():
            rec[2][k] = rec[2].get(k, 0) + v
        if top and parent >= 0:
            self.spans[parent]["covered"] += seconds

    # -- wrappers --

    def span_wrapper(self, name, fn, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if post is not None:
                post(span["counters"], args, kwargs, result)
            return result

        return wrapper

    def leaf_wrapper(self, name, fn, extra=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = tracer.leaf_depth == 0
            tracer.leaf_depth += 1
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                tracer.leaf_depth -= 1
            counters = extra(args, result) if extra is not None else {}
            if isinstance(counters, tuple):
                sub, counters = counters
                tracer.leaf(f"{name}.{sub}", dt, False, **counters)
            tracer.leaf(name, dt, top, **counters)
            return result

        return wrapper

    def generator_wrapper(self, name, fn):
        """Time only the work done inside the generator's own steps."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                top = tracer.leaf_depth == 0
                tracer.leaf_depth += 1
                t0 = _clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = _clock() - t0
                    tracer.leaf_depth -= 1
                    tracer.leaf(name, dt, top)
                yield item

        return wrapper


def patch_function(package: str, module, attr: str, new) -> None:
    """Replace ``module.attr`` and every ``from module import attr`` binding
    of it in the package's loaded modules."""
    old = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def install(tracer: Tracer) -> None:
    """Wrap the hexaudit functions the per-layer metrics are read from."""
    import hexaudit.cli  # noqa: F401  (imports every module that binds names)
    from hexaudit import audit, formats, gf, hexagon, lineset, pg, polygon, quadric, search

    def leaf(module, attr, name, extra=None):
        patch_function("hexaudit", module, attr,
                       tracer.leaf_wrapper(name, getattr(module, attr), extra))

    def span(module, attr, name, post=None):
        patch_function("hexaudit", module, attr,
                       tracer.span_wrapper(name, getattr(module, attr), post))

    PG, Quadric, LineSet = pg.PG, quadric.ParabolicQuadric, lineset.LineSet

    # Hot leaves, aggregated per parent span.
    leaf(gf, "field", "gf.field")
    leaf(pg, "projective_space", "pg.projective_space")
    leaf(hexagon, "hexagon_line_predicate", "hexagon.line_predicate",
         lambda args, result: {"accept": int(bool(result))})
    PG.rref = tracer.leaf_wrapper("pg.rref", PG.rref)
    PG.nullspace = tracer.leaf_wrapper("pg.nullspace", PG.nullspace)
    PG.line_point_indices = tracer.leaf_wrapper("pg.line_point_indices", PG.line_point_indices)
    PG.subspaces_through_rows = tracer.leaf_wrapper(
        "pg.subspaces_through_rows", PG.subspaces_through_rows,
        lambda args, result: (f"d{args[2]}", {"bases": len(result)}))
    PG.enumerate_subspaces = tracer.generator_wrapper(
        "pg.enumerate_subspaces", PG.enumerate_subspaces)
    Quadric.classify_section = tracer.leaf_wrapper(
        "quadric.classify_section", Quadric.classify_section)

    # Spans, with counters read from arguments and results.
    def iso_post(counters, args, kwargs, result):
        counters["found"] = len(result)

    def text_bytes(counters, args, kwargs, result):
        text = result if isinstance(result, str) else args[0]
        counters["bytes"] = len(text.encode())

    def audit_post(counters, args, kwargs, report):
        counters["workers"] = kwargs.get("threads", args[2] if len(args) > 2 else 1)
        counters["failed_verdicts"] = sum(1 for ok in report.verdicts.values() if not ok)
        for d, hist in report.histograms.items():
            if d >= 2:
                counters[f"incidences.d{d}"] = sum(c * m for c, m in hist.items())
                counters[f"distinct.d{d}"] = sum(hist.values())

    def girth_post(counters, args, kwargs, result):
        counters["nodes"] = len(args[0].lines) + len(args[0].point_lines)

    def search_post(counters, args, kwargs, result):
        for key in ("iterations", "restarts", "candidates_checked", "best_score"):
            counters[key] = getattr(result, key)

    Quadric.isotropic_lines = tracer.span_wrapper(
        "quadric.isotropic_lines", Quadric.isotropic_lines, iso_post)
    LineSet.__init__ = tracer.span_wrapper("lineset.LineSet", LineSet.__init__)
    LineSet.span_dim = tracer.span_wrapper("lineset.span_dim", LineSet.span_dim)
    span(hexagon, "build", "hexagon.build")
    span(formats, "load_lineset", "formats.load_lineset", text_bytes)
    span(formats, "dump_lineset", "formats.dump_lineset")
    span(formats, "dumps_report", "formats.dumps_report", text_bytes)
    span(audit, "audit", "audit.audit", audit_post)
    span(polygon, "find_kgon", "polygon.find_kgon")
    span(polygon, "girth_and_diameter", "polygon.girth_and_diameter", girth_post)
    span(search, "run", "search.run", search_post)


def dump(tracer: Tracer) -> dict:
    """Spans with self times, and the hot-leaf aggregates, as plain data."""
    spans = []
    for s in tracer.spans:
        dur = (s["end"] or s["start"]) - s["start"]
        spans.append({
            "id": s["id"], "name": s["name"], "parent": s["parent"], "op": s["op"],
            "start": s["start"], "end": s["end"], "self_s": dur - s["covered"],
            "counters": s["counters"],
        })
    leaves = [
        {"parent": parent, "name": name, "calls": rec[0], "s": rec[1], "counters": rec[2]}
        for (parent, name), rec in tracer.leaves.items()
    ]
    return {"spans": spans, "leaves": leaves}


def layer_metrics(trace: dict) -> dict[str, float]:
    """The per-layer metrics, summed over the whole traced process."""
    spans, leaves = trace["spans"], trace["leaves"]

    def leaf(name):
        calls = secs = 0
        extra: dict[str, int] = {}
        for rec in leaves:
            if rec["name"] == name:
                calls += rec["calls"]
                secs += rec["s"]
                for k, v in rec["counters"].items():
                    extra[k] = extra.get(k, 0) + v
        return calls, secs, extra

    def span(name):
        chosen = [s for s in spans if s["name"] == name]
        counters: dict[str, float] = {}
        for s in chosen:
            for k, v in s["counters"].items():
                counters[k] = counters.get(k, 0) + v
        return {
            "calls": len(chosen),
            "s": sum(s["end"] - s["start"] for s in chosen),
            "self_s": sum(s["self_s"] for s in chosen),
            "ids": {s["id"] for s in chosen},
            "counters": counters,
            "all": chosen,
        }

    m: dict[str, float] = {}
    m["gf.field.s"] = leaf("gf.field")[1]
    m["pg.projective_space.s"] = leaf("pg.projective_space")[1]
    for name in ("rref", "nullspace", "line_point_indices"):
        calls, secs, _ = leaf(f"pg.{name}")
        m[f"pg.{name}.calls"] = calls
        m[f"pg.{name}.s"] = secs
    calls, secs, extra = leaf("pg.subspaces_through_rows")
    m["pg.subspaces_through_rows.calls"] = calls
    m["pg.subspaces_through_rows.s"] = secs
    m["pg.subspaces_through_rows.bases"] = extra.get("bases", 0)
    for d in (2, 3, 4, 5):
        _, secs, extra = leaf(f"pg.subspaces_through_rows.d{d}")
        m[f"pg.subspaces_through_rows.d{d}.s"] = secs
        m[f"pg.subspaces_through_rows.d{d}.bases"] = extra.get("bases", 0)
    m["pg.enumerate_subspaces.s"] = leaf("pg.enumerate_subspaces")[1]

    iso = span("quadric.isotropic_lines")
    pairs = sum(r["calls"] for r in leaves if r["name"] == "pg.rref" and r["parent"] in iso["ids"])
    found = iso["counters"].get("found", 0)
    m["quadric.isotropic_lines.s"] = iso["s"]
    m["quadric.isotropic_lines.pairs"] = pairs
    m["quadric.isotropic_lines.found"] = found
    m["quadric.isotropic_lines.yield"] = found / pairs if pairs else 0.0
    calls, secs, _ = leaf("quadric.classify_section")
    m["quadric.classify_section.calls"] = calls
    m["quadric.classify_section.s"] = secs

    m["hexagon.build.s"] = span("hexagon.build")["s"]
    calls, secs, extra = leaf("hexagon.line_predicate")
    m["hexagon.line_predicate.calls"] = calls
    m["hexagon.line_predicate.s"] = secs
    m["hexagon.line_predicate.accept"] = extra.get("accept", 0) / calls if calls else 0.0

    ls = span("lineset.LineSet")
    m["lineset.LineSet.calls"] = ls["calls"]
    m["lineset.LineSet.s"] = ls["s"]
    m["lineset.span_dim.s"] = span("lineset.span_dim")["s"]

    load = span("formats.load_lineset")
    m["formats.load_lineset.s"] = load["s"]
    m["formats.load_lineset.bytes"] = load["counters"].get("bytes", 0)
    m["formats.dump_lineset.s"] = span("formats.dump_lineset")["s"]
    rep = span("formats.dumps_report")
    m["formats.dumps_report.s"] = rep["s"]
    m["formats.dumps_report.bytes"] = rep["counters"].get("bytes", 0)

    au = span("audit.audit")
    m["audit.audit.calls"] = au["calls"]
    m["audit.audit.s"] = au["s"]
    m["audit.audit.self_s"] = au["self_s"]
    incidences = distinct = 0
    for d in (2, 3, 4, 5):
        inc = au["counters"].get(f"incidences.d{d}", 0)
        dis = au["counters"].get(f"distinct.d{d}", 0)
        m[f"audit.incidences.d{d}"] = inc
        m[f"audit.distinct.d{d}"] = dis
        incidences += inc
        distinct += dis
    m["audit.dedup_ratio"] = distinct / incidences if incidences else 0.0
    m["audit.incidences_per_s"] = incidences / au["s"] if au["s"] else 0.0
    m["audit.workers"] = max((s["counters"]["workers"] for s in au["all"]), default=0)
    m["audit.failed_verdicts"] = au["counters"].get("failed_verdicts", 0)

    kg = span("polygon.find_kgon")
    m["polygon.find_kgon.calls"] = kg["calls"]
    m["polygon.find_kgon.s"] = kg["s"]
    gd = span("polygon.girth_and_diameter")
    m["polygon.girth_and_diameter.s"] = gd["s"]
    m["polygon.girth_and_diameter.nodes"] = gd["counters"].get("nodes", 0)

    sr = span("search.run")
    m["search.run.s"] = sr["s"]
    for key in ("iterations", "restarts", "candidates_checked"):
        m[f"search.{key}"] = sr["counters"].get(key, 0)
    m["search.best_score"] = min((s["counters"]["best_score"] for s in sr["all"]), default=0)
    m["search.moves_per_s"] = m["search.iterations"] / sr["s"] if sr["s"] else 0.0
    return m


def summary(trace: dict) -> list[tuple[str, int, float, float]]:
    """(name, calls, total seconds, self seconds) per span name, by total."""
    rows: dict[str, list] = {}
    for s in trace["spans"]:
        r = rows.setdefault(s["name"], [0, 0.0, 0.0])
        r[0] += 1
        r[1] += s["end"] - s["start"]
        r[2] += s["self_s"]
    return sorted(((k, *v) for k, v in rows.items()), key=lambda r: -r[2])
