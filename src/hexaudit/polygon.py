"""k-gon detection, and the girth and diameter of the incidence graph.

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

from .lineset import LineSet


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

