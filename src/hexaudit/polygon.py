"""k-gon detection and the pentagon-structure checks.

A k-gon of a line set is a cyclically ordered tuple of k distinct
points, consecutive ones joined by lines of the set, with all k edge
lines distinct.  Search is a DFS over the set's own incidence indexes
(``LineSet.point_lines`` and ``line_points``) with a canonical minimal
start vertex and breadth-first distance pruning, so the returned k-gon
is deterministic ("first in canonical order").
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

from .audit import AxiomConfig, audit, axiom_allowed
from .lineset import LineSet
from .pg import Subspace


class KGon(NamedTuple):
    """Vertices in cyclic order plus the edge line ids (edge i = v_i v_{i+1})."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.vertices)


def _kgons(ls: LineSet, k: int):
    """Every k-gon, in canonical order: the smallest vertex starts, then
    neighbours ascending, so vertex tuples come lexicographically.  Each
    point's neighbours are (w, line id) pairs sorted by w; a breadth-first
    distance bound prunes paths that cannot close within the remaining
    steps."""
    if not 2 <= k <= 6:
        raise ValueError(f"k must be in [2, 6], got {k}")
    nbrs = {
        p: sorted((w, li) for li in lines for w in ls.line_points[li] if w != p)
        for p, lines in ls.point_lines.items()
    }
    for start in nbrs:  # point_lines is sorted by point
        dist = {start: 0}
        frontier = deque([start])
        while frontier:
            v = frontier.popleft()
            if dist[v] <= k // 2:
                for w, _ in nbrs[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        frontier.append(w)
        path, used = [start], []

        def extend(v):
            remaining = k - len(path)
            if not remaining:
                li = ls.line_through(v, start)
                if li is not None and li not in used:
                    yield KGon(tuple(path), tuple(used) + (li,))
                return
            for w, li in nbrs[v]:
                if w > start and w not in path and li not in used and (
                    dist.get(w, k) <= remaining
                ):
                    path.append(w)
                    used.append(li)
                    yield from extend(w)
                    path.pop()
                    used.pop()

        yield from extend(start)


def find_kgon(ls: LineSet, k: int) -> KGon | None:
    """The first k-gon of the line set in canonical order, or None."""
    return next(_kgons(ls, k), None)


def all_kgons(ls: LineSet, k: int) -> list[KGon]:
    """Every k-gon up to symmetry: the walk meets each cycle once per
    direction from its smallest vertex, and the one kept has its second
    vertex below its last.  Two lines share one point at most: no 2-gon."""
    return [g for g in _kgons(ls, k) if g.vertices[1] < g.vertices[-1]]


def is_kgon_of(ls: LineSet, gon: KGon) -> bool:
    if len(set(gon.vertices)) != gon.k or len(set(gon.edges)) != gon.k:
        return False
    vs = gon.vertices
    return all(
        ls.line_through(vs[i], vs[(i + 1) % gon.k]) == gon.edges[i]
        for i in range(gon.k)
    )


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


class PentagonSpanReport(NamedTuple):
    dim_u: int
    lines_in_u: int
    dim_is_4: bool
    at_least_5q: bool
    at_least_cubic_bound: bool
    span: Subspace


def pentagon_span_check(ls: LineSet, gon: KGon) -> PentagonSpanReport:
    """Span and line-count report for a pentagon's 4-space.

    For any pentagon of a set satisfying the point/plane/solid axioms the
    span must be 4-dimensional with at least 5q lines inside, and in fact
    more than the (4d) bound allows; the caller is responsible for having
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
        at_least_cubic_bound=count >= max(axiom_allowed("4d", q)) + 1,
        span=u,
    )


def _full_pencil_points(ls: LineSet, in_u: set[int]) -> list[int]:
    """The points, sorted, whose q+1 set lines are all among ``in_u``, the
    ids of the set lines inside some subspace U."""
    return [
        p for p, line_ids in ls.point_lines.items()
        if len(in_u.intersection(line_ids)) == ls.q + 1
    ]


def _pencil_plane_points(ls: LineSet, special: list[int]) -> dict[int, list[int]]:
    """Each full-pencil point -> the full-pencil points in its pencil plane."""
    pts = ls.space.points
    planes = {p: ls.pencil_span(p) for p in special}
    return {p: [x for x in special if planes[p].contains_vec(pts[x])] for p in special}


def qp1_points_on_line(ls: LineSet, u: Subspace, s) -> int:
    """Number of points of the line with basis rows ``s`` whose pencil count
    inside u is q+1."""
    line = ls.space.subspace(s)
    if not u.contains(line):
        raise ValueError("line is not contained in the subspace")
    pts = ls.space.points
    special = _full_pencil_points(ls, ls.lines_in(u))
    return sum(1 for p in special if line.contains_vec(pts[p]))


def pencil_plane_qp1_bound(ls: LineSet, m: Subspace):
    """For each full-pencil point P of m, count such points inside the
    pencil plane; the structural bound is q + 2.  Returns (ok, counts)."""
    planes = _pencil_plane_points(ls, _full_pencil_points(ls, ls.lines_in(m)))
    counts = {p: len(in_plane) for p, in_plane in planes.items()}
    return all(c <= ls.q + 2 for c in counts.values()), counts


class PentagonExtensionReport(NamedTuple):
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
    rep = audit(ls, AxiomConfig.from_names(["Pt", "Pl", "Sd"]))
    if not rep.passed:
        raise ValueError("line set fails (Pt)/(Pl)/(Sd); refusing the check")
    pentagons = all_kgons(ls.restrict_to(u), 5)
    if not pentagons:
        raise ValueError("subspace contains no pentagon")
    special = _full_pencil_points(ls, ls.lines_in(u))
    planes = _pencil_plane_points(ls, special)
    # Every ordered vertex triple of a pentagon; a pair (a, b) on a common
    # pentagon is the triple (a, b, b).
    vertex_sets = [set(g.vertices) for g in pentagons]
    together = {(a, b, c) for vs in vertex_sets for a in vs for b in vs for c in vs}
    in_pentagon = set().union(*vertex_sets)

    violations_a = sorted(
        (p, v)
        for p in special
        for v in in_pentagon
        if v != p and (p, v, v) not in together and ls.line_through(p, v) is not None
    )
    violations_b = [p for p in special if p not in in_pentagon]
    violations_c = []
    for p in special:
        in_plane = [x for x in planes[p] if x != p]
        for qpt in in_plane:
            pq = ls.line_through(p, qpt)
            for rpt in in_plane:
                if rpt != qpt and pq is not None and rpt in ls.line_points[pq]:
                    continue  # R on line PQ: hypothesis not met
                if (p, qpt, rpt) not in together:
                    violations_c.append((p, qpt, rpt))
    return PentagonExtensionReport(
        len(pentagons), len(special), violations_a, violations_b, violations_c
    )


class ExpansionReport(NamedTuple):
    lines_in_m: int
    meets_unique_s: bool | None
    alpha: int | None
    alpha_at_most_q: bool | None
    bound: int
    holds: bool


def expansion_bound(ls: LineSet, m: Subspace, l) -> ExpansionReport:
    """Check the line-count expansion inequality for a line leaving ``m``.

    With L_M the lines inside m and l a line of L meeting m in exactly
    one point: if l meets no line of L_M, |L| >= q|L_M| + 1; if it meets
    a line s with a (alpha = number of full-pencil points of m on s),
    |L| >= q|L_M| - alpha q^2 + alpha q + 1.
    """
    lrows = ls.space.line_basis(l)
    if lrows not in ls:
        raise ValueError("l is not a line of the set")
    if ls.space.meet(Subspace(ls.space, lrows, canonical=True), m).projdim != 0:
        raise ValueError("l must meet the subspace in exactly one point")
    q = ls.q
    in_m = ls.lines_in(m)
    lm = len(in_m)
    l_pts = ls.line_points[ls.lines.index(lrows)]
    meeting = sorted(in_m.intersection(li for p in l_pts for li in ls.point_lines[p]))
    if not meeting:
        bound = q * lm + 1
        return ExpansionReport(lm, None, None, None, bound, len(ls.lines) >= bound)
    special = _full_pencil_points(ls, in_m)
    alpha = len(set(ls.line_points[meeting[0]]).intersection(special))
    bound = q * lm - alpha * q**2 + alpha * q + 1
    return ExpansionReport(lm, len(meeting) == 1, alpha, alpha <= q, bound, len(ls.lines) >= bound)


class HyperplaneConsequenceReport(NamedTuple):
    vacuous: bool
    bound: int
    best_count: int | None
    hyperplane: Subspace | None
    span_dim_at_most_6: bool

    @property
    def ok(self) -> bool:
        return self.vacuous or (
            self.best_count is not None and self.best_count >= self.bound
        )


def hyperplane_consequence_check(ls: LineSet) -> HyperplaneConsequenceReport:
    """If the set has a pentagon, a 5-space through its span must carry
    more lines than the (Hp') bound allows; also the whole set must span at
    most a 6-space.  Preconditions (Pt), (Pl), (Sd), (To) are the caller's.
    """
    bound = max(axiom_allowed("Hp'", ls.q)) + 1
    sdim_ok = ls.span_dim() <= 6
    gon = find_kgon(ls, 5)
    if gon is None:
        return HyperplaneConsequenceReport(True, bound, None, None, sdim_ok)
    u = pentagon_span_check(ls, gon).span
    best, best_h = -1, None
    if u.projdim < 5 <= ls.n:
        for h in ls.space.subspaces_through(u, 5):
            c = len(ls.lines_in(h))
            if c > best:
                best, best_h = c, h
    return HyperplaneConsequenceReport(False, bound, best, best_h, sdim_ok)
