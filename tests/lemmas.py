"""The paper's proof steps as checks that only the tests run.

The pentagon span lemma, pentagon extension, the expansion bound and the
hyperplane consequence, with the full-pencil counts they rest on, the
k-gon enumeration they read, and the strongly-regular-graph feasibility
tests of the pencil-graph argument.  Acceptance criteria 2, 5 and 7 and the
unit tests import them from here; no command of ``hexaudit`` runs them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from hexaudit.audit import AxiomConfig, audit, axiom_allowed
from hexaudit.gf import is_prime_power
from hexaudit.lineset import LineSet
from hexaudit.polygon import KGon, _kgons, find_kgon
from hexaudit.srg import SrgParams, q_feasible
from referees import contains

# (Pt), (Pl), (Sd), (4d), (Hp), (Hp'), (To): the main theorem's hypotheses.
MAIN_THEOREM = AxiomConfig(frozenset(("Pt", "Pl", "Sd", "4d", "Hp", "Hp'", "To")))


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


class PentagonSpanReport(NamedTuple):
    dim_u: int
    lines_in_u: int
    dim_is_4: bool
    at_least_5q: bool
    at_least_cubic_bound: bool
    span: tuple


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
    u = space.rref(space.points[v] for v in gon.vertices)
    count = len(ls.lines_in(u))
    return PentagonSpanReport(
        dim_u=len(u) - 1,
        lines_in_u=count,
        dim_is_4=len(u) == 5,
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
    return {p: [x for x in special if contains(ls.space, planes[p], pts[x])] for p in special}


def qp1_points_on_line(ls: LineSet, u, s) -> int:
    """Number of points of the line with basis rows ``s`` whose pencil count
    inside the subspace spanned by ``u`` is q+1."""
    space = ls.space
    u, line = space.rref(u), space.rref(s)
    if not all(contains(space, u, r) for r in line):
        raise ValueError("line is not contained in the subspace")
    special = _full_pencil_points(ls, ls.lines_in(u))
    return sum(1 for p in special if contains(space, line, space.points[p]))


def pencil_plane_qp1_bound(ls: LineSet, m):
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


def pentagon_extension_check(ls: LineSet, u) -> PentagonExtensionReport:
    """Verify the pentagon-extension properties inside the 4-space spanned
    by ``u``:

    (a) a full-pencil point adjacent to a pentagon vertex shares a
        pentagon with it, (b) every full-pencil point is a pentagon
        vertex, (c) full-pencil points Q, R inside the pencil plane of P
        (R == Q, or R off the line PQ) lie on a common pentagon with P.

    Refuses a set that fails the point/plane/solid axioms.
    """
    rep = audit(ls, AxiomConfig.from_names(["Pt", "Pl", "Sd"]))
    if not rep.passed:
        raise ValueError("line set fails (Pt)/(Pl)/(Sd); refusing the check")
    in_u = ls.lines_in(u)
    pentagons = all_kgons(LineSet(ls.space, [ls.lines[li] for li in in_u], canonical=True), 5)
    if not pentagons:
        raise ValueError("subspace contains no pentagon")
    special = _full_pencil_points(ls, in_u)
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


def expansion_bound(ls: LineSet, m, l) -> ExpansionReport:
    """Check the line-count expansion inequality for a line leaving the
    subspace m spanned by the rows ``m``.

    With L_M the lines inside m and l a line of L meeting m in exactly
    one point: if l meets no line of L_M, |L| >= q|L_M| + 1; if it meets
    a line s with a (alpha = number of full-pencil points of m on s),
    |L| >= q|L_M| - alpha q^2 + alpha q + 1.
    """
    space = ls.space
    m = space.rref(m)
    lrows = space.line_basis(l)
    if lrows not in ls:
        raise ValueError("l is not a line of the set")
    # l meets m in one point exactly when it adds one dimension to m's span.
    if len(space.rref(lrows + m)) != len(m) + 1:
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
    hyperplane: tuple | None
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
    if len(u) - 1 < 5 <= ls.n:
        for rows in sorted(ls.space.subspaces_through_rows(u, 5)):
            c = len(ls.lines_in(rows))
            if c > best:
                best, best_h = c, rows
    return HyperplaneConsequenceReport(False, bound, best, best_h, sdim_ok)


def is_conference(p: SrgParams) -> bool:
    """Conference-graph parameters (4mu+1, 2mu, mu-1, mu)."""
    mu = p.mu
    return (p.v, p.k, p.lam, p.mu) == (4 * mu + 1, 2 * mu, mu - 1, mu)


def integrality_feasible(p: SrgParams) -> bool:
    """True iff p is conference-exempt or both eigenvalues are integers."""
    if is_conference(p):
        return True
    d = p.lam - p.mu
    disc = d * d + 4 * (p.k - p.mu)
    r = math.isqrt(disc)
    if r * r != disc:
        return False
    return (d + r) % 2 == 0


def feasible_prime_powers(limit: int) -> list[int]:
    """Prime powers q <= limit with 1 + 4q an odd perfect square (expected: [2])."""
    return [q for q in range(2, limit + 1) if is_prime_power(q) and q_feasible(q)]


def local_count_check(v_observed: int, q: int) -> bool:
    """Vertex count forced by girth 5, diameter 2, degree q+1."""
    return v_observed == q * q + 2 * q + 2
