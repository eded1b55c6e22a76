"""k-gon detection and the pentagon-structure checks.

A k-gon of a line set is a cyclically ordered tuple of k distinct
points, consecutive ones joined by lines of the set, with all k edge
lines distinct.  Search is a DFS over the collinearity structure with a
canonical minimal start vertex and breadth-first distance pruning, so
the returned k-gon is deterministic ("first in canonical order").
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .lineset import LineSet
from .pg import Subspace


@dataclass(frozen=True)
class KGon:
    """Vertices in cyclic order plus the edge line ids (edge i = v_i v_{i+1})."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.vertices)


def _collinearity(ls: LineSet):
    """Neighbor lists and the (point pair) -> line id map."""
    nbrs: dict[int, set[int]] = {}
    pair_line: dict[tuple[int, int], int] = {}
    for li, pts in enumerate(ls.line_points):
        for i, a in enumerate(pts):
            for b in pts[i + 1:]:
                pair_line[(a, b)] = li
                pair_line[(b, a)] = li
                nbrs.setdefault(a, set()).add(b)
                nbrs.setdefault(b, set()).add(a)
    return {p: sorted(s) for p, s in nbrs.items()}, pair_line


def _bfs_dist(nbrs, start: int, limit: int) -> dict[int, int]:
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        v = frontier.popleft()
        d = dist[v]
        if d >= limit:
            continue
        for w in nbrs.get(v, ()):
            if w not in dist:
                dist[w] = d + 1
                frontier.append(w)
    return dist


def _kgon_dfs(ls: LineSet, k: int, collect: list | None = None) -> KGon | None:
    """First k-gon in canonical order, or all of them when collecting."""
    nbrs, pair_line = _collinearity(ls)
    for start in sorted(nbrs):
        dist = _bfs_dist(nbrs, start, k // 2 + 1)
        path = [start]
        lines_used: list[int] = []
        found = _extend(ls, k, nbrs, pair_line, dist, start, path, lines_used, collect)
        if found is not None and collect is None:
            return found
    if collect is not None and collect:
        return collect[0]
    return None


def _extend(ls, k, nbrs, pair_line, dist, start, path, lines_used, collect):
    v = path[-1]
    if len(path) == k:
        li = pair_line.get((v, start))
        if li is None or li in lines_used:
            return None
        gon = KGon(tuple(path), tuple(lines_used) + (li,))
        if collect is not None:
            collect.append(gon)
            return None
        return gon
    remaining = k - len(path)
    for w in nbrs[v]:
        # Canonical start = minimal vertex; remaining steps must reach back.
        if w <= start or w in path:
            continue
        if dist.get(w, k + 1) > remaining:
            continue
        li = pair_line[(v, w)]
        if li in lines_used:
            continue
        path.append(w)
        lines_used.append(li)
        got = _extend(ls, k, nbrs, pair_line, dist, start, path, lines_used, collect)
        path.pop()
        lines_used.pop()
        if got is not None:
            return got
    return None


def find_kgon(ls: LineSet, k: int) -> KGon | None:
    """Some k-gon of the line set if one exists, else None (deterministic)."""
    if not 2 <= k <= 6:
        raise ValueError(f"k must be in [2, 6], got {k}")
    return _kgon_dfs(ls, k)


def all_kgons(ls: LineSet, k: int) -> list[KGon]:
    """Every k-gon, as directed started tuples, deduplicated up to symmetry."""
    if not 2 <= k <= 6:
        raise ValueError(f"k must be in [2, 6], got {k}")
    raw: list[KGon] = []
    _kgon_dfs(ls, k, collect=raw)
    seen = {}
    for gon in raw:
        vs = gon.vertices
        rotations = [vs[i:] + vs[:i] for i in range(len(vs))]
        rotations += [tuple(reversed(r)) for r in rotations]
        key = min(rotations)
        if key not in seen:
            seen[key] = gon
    return [seen[key] for key in sorted(seen)]


def is_kgon_of(ls: LineSet, gon: KGon) -> bool:
    if len(set(gon.vertices)) != gon.k or len(set(gon.edges)) != gon.k:
        return False
    nbrs, pair_line = _collinearity(ls)
    vs = gon.vertices
    for i in range(gon.k):
        a, b = vs[i], vs[(i + 1) % gon.k]
        if pair_line.get((a, b)) != gon.edges[i]:
            return False
    return True


def girth_and_diameter(ls: LineSet):
    """Girth and diameter of the point-line incidence graph.

    One breadth-first search from every node at once: node v keeps int
    bitmasks over the sources, ``reach[v]`` (distance <= k) and
    ``layer[v]`` (distance exactly k).  The diameter is the last round k
    that adds a bit.  The graph is bipartite, so the shortest cycle has
    even length 2k, where k is the first round in which a source first
    reaches some node through two of its neighbours at once.

    Acyclic graphs report girth ``math.inf``.  On a disconnected graph
    the diameter is the maximum over components.
    """
    nlines = len(ls.line_points)
    node = {p: nlines + i for i, p in enumerate(ls.point_lines)}
    adj = [[node[p] for p in pts] for pts in ls.line_points]
    adj += [list(lines) for lines in ls.point_lines.values()]
    reach = [1 << v for v in range(len(adj))]
    layer = reach[:]
    girth = math.inf
    diameter = 0
    k = 0
    while True:
        k += 1
        nxt = []
        for v, nbrs in enumerate(adj):
            once = twice = 0
            for w in nbrs:
                twice |= once & layer[w]
                once |= layer[w]
            new = once & ~reach[v]
            if twice & new and girth == math.inf:
                girth = 2 * k
            reach[v] |= new
            nxt.append(new)
        if not any(nxt):
            return girth, diameter
        layer = nxt
        diameter = k


@dataclass
class PentagonSpanReport:
    dim_u: int
    lines_in_u: int
    dim_is_4: bool
    at_least_5q: bool
    at_least_cubic_bound: bool
    span: Subspace


def pentagon_span_check(ls: LineSet, gon: KGon) -> PentagonSpanReport:
    """Span and line-count report for a pentagon's 4-space.

    For any pentagon of a set satisfying the point/plane/solid axioms the
    span must be 4-dimensional with at least 5q lines inside (and in fact
    at least q^3 - q^2 + 4q + 1); the caller is responsible for having
    checked those axioms.
    """
    if gon.k != 5 or not is_kgon_of(ls, gon):
        raise ValueError("not a pentagon of this line set")
    space = ls.space
    q = ls.q
    rows = [space.points[v] for v in gon.vertices]
    u = space.subspace(rows)
    count = len(ls.lines_in(u))
    return PentagonSpanReport(
        dim_u=u.projdim,
        lines_in_u=count,
        dim_is_4=u.projdim == 4,
        at_least_5q=count >= 5 * q,
        at_least_cubic_bound=count >= q**3 - q**2 + 4 * q + 1,
        span=u,
    )


def _full_pencil_points(ls: LineSet, u: Subspace) -> set[int]:
    """Points whose full pencil of q+1 set lines lies inside ``u``."""
    q = ls.q
    in_u = ls.lines_in(u)
    out = set()
    for pi, line_ids in ls.point_lines.items():
        if sum(1 for li in line_ids if li in in_u) == q + 1:
            out.add(pi)
    return out


def qp1_points_on_line(ls: LineSet, u: Subspace, s) -> int:
    """Number of points of the line ``s`` whose pencil count inside u is q+1."""
    if not isinstance(s, Subspace):
        s = ls.space.subspace(s)
    if not u.contains(s):
        raise ValueError("line is not contained in the subspace")
    special = _full_pencil_points(ls, u)
    pts = ls.space.line_point_indices(s.rows)
    return sum(1 for p in pts if p in special)


def pencil_plane_qp1_bound(ls: LineSet, m: Subspace):
    """For each full-pencil point P of m, count such points inside the
    pencil plane; the structural bound is q + 2.  Returns (ok, counts)."""
    space = ls.space
    q = ls.q
    special = _full_pencil_points(ls, m)
    counts = {}
    for p in sorted(special):
        rows = [r for li in ls.point_lines[p] for r in ls.lines[li]]
        plane = space.subspace(rows)
        inside = sum(
            1 for x in special if plane.contains_vec(space.points[x])
        )
        counts[p] = inside
    ok = all(c <= q + 2 for c in counts.values())
    return ok, counts


@dataclass
class PentagonExtensionReport:
    num_pentagons: int
    num_special_points: int
    violations_a: list
    violations_b: list
    violations_c: list

    @property
    def ok(self) -> bool:
        return not (self.violations_a or self.violations_b or self.violations_c)


def pentagon_extension_check(ls: LineSet, u: Subspace) -> PentagonExtensionReport:
    """Verify the pentagon-extension properties inside the 4-space ``u``:

    (a) a full-pencil point adjacent to a pentagon vertex shares a
        pentagon with it, (b) every full-pencil point is a pentagon
        vertex, (c) full-pencil points Q, R inside the pencil plane of P
        (R == Q, or R off the line PQ) lie on a common pentagon with P.

    Requires the point/plane/solid axioms; the caller must have audited
    them (the build entry points do).
    """
    from .audit import AxiomConfig, audit

    rep = audit(ls, AxiomConfig.from_names(["Pt", "Pl", "Sd"]))
    if not rep.passed:
        raise ValueError("line set fails (Pt)/(Pl)/(Sd); refusing the check")
    restricted = ls.restrict_to(u)
    pentagons = all_kgons(restricted, 5)
    if not pentagons:
        raise ValueError("subspace contains no pentagon")
    special = _full_pencil_points(ls, u)
    space = ls.space
    _, pair_line = _collinearity(ls)

    vertex_sets = [set(g.vertices) for g in pentagons]
    in_pentagon = set().union(*vertex_sets)

    violations_a = []
    for p in sorted(special):
        for g, vs in zip(pentagons, vertex_sets):
            for v in vs:
                if v != p and (p, v) in pair_line:
                    if not any(p in ws and v in ws for ws in vertex_sets):
                        violations_a.append((p, v))
    violations_b = [p for p in sorted(special) if p not in in_pentagon]
    violations_c = []
    for p in sorted(special):
        rows = [r for li in ls.point_lines[p] for r in ls.lines[li]]
        plane = space.subspace(rows)
        in_plane = [
            x for x in sorted(special) if plane.contains_vec(space.points[x])
        ]
        for qpt in in_plane:
            if qpt == p:
                continue
            for rpt in in_plane:
                if rpt == p:
                    continue
                if rpt != qpt:
                    li = pair_line.get((p, qpt))
                    if li is not None and rpt in ls.line_points[li]:
                        continue  # R on line PQ: hypothesis not met
                if not any(
                    p in ws and qpt in ws and rpt in ws for ws in vertex_sets
                ):
                    violations_c.append((p, qpt, rpt))
    return PentagonExtensionReport(
        num_pentagons=len(pentagons),
        num_special_points=len(special),
        violations_a=sorted(set(violations_a)),
        violations_b=violations_b,
        violations_c=sorted(set(violations_c)),
    )
