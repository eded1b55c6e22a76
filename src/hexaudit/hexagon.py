"""The natural embedding of the split Cayley hexagon H(q) in PG(6, q).

The point set is the parabolic quadric Q(6, q); the lines are the
totally isotropic lines whose Grassmann coordinates satisfy

    p12 = p34,  p54 = p32,  p20 = p35,  p65 = p30,  p01 = p36,  p46 = p31,

read with the antisymmetric convention p(j, i) = -p(i, j).  For a fixed
point x, p_ij(x, y) = x_i y_j - x_j y_i is linear in y, so the points y
joined to x by a hexagon line, together with x, form the plane pi_x cut
out by these six equations and the polar equation b(x, y) = 0.  The
line set is built point by point from these planes rather than by
filtering the isotropic lines or by orbit generation.  Each line is
built once, by one row operation, at the point that is its second
canonical row.  That row has its pivot after column 0, so only the
(q^5 - 1) / (q - 1) quadric points with x0 = 0 build lines, and only
they cost a 7x7 ``nullspace``: 121 of the 364 points of Q(6, 3).
``LineSet`` drops a line built twice.  The built set is then checked on
its own indexes: every point it covers must lie on the quadric, so that
every line is totally isotropic, every line must satisfy the six
equations above, each plane must be a plane, and the line and point
counts must equal (q^6 - 1) / (q - 1); any failure indicates a broken
sign convention and aborts construction.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalConsistencyError
from .lineset import LineSet
from .quadric import ParabolicQuadric, parabolic_quadric

SUPPORTED_Q = (2, 3, 4, 5)

# The six line conditions as ((i, j), (k, l)) meaning p(i,j) == p(k,l).
_LINE_CONDITIONS = (
    ((1, 2), (3, 4)),
    ((5, 4), (3, 2)),
    ((2, 0), (3, 5)),
    ((6, 5), (3, 0)),
    ((0, 1), (3, 6)),
    ((4, 6), (3, 1)),
)


def _meets_line_conditions(gf, x, y) -> bool:
    """True iff the rows x, y satisfy the six Plücker equations.

    They compare p_ij = x_i y_j - x_j y_i of any basis (x, y) of a line
    unscaled: a change of basis scales every p_ij alike.
    """
    mul, sub = gf.mul_table, gf.sub_table

    def p(i, j):
        return sub[mul[x[i]][y[j]]][mul[x[j]][y[i]]]

    return all(p(i, j) == p(k, l) for (i, j), (k, l) in _LINE_CONDITIONS)


def hexagon_line_predicate(quad: ParabolicQuadric, rows) -> bool:
    """True iff the totally isotropic line spanned by ``rows``, any basis,
    satisfies the six Plücker equations."""
    if not quad.line_is_isotropic(rows):
        raise ValueError("line is not totally isotropic on Q(6, q)")
    x, y = rows
    return _meets_line_conditions(quad.gf, x, y)


def _plane_equations(quad: ParabolicQuadric, x) -> list:
    """The seven linear equations in y of the plane pi_x: one
    p_ij(x, y) - p_kl(x, y) per line condition, then b(x, y)."""
    add, neg = quad.gf.add_table, quad.gf.neg_table
    rows = []
    for (i, j), (k, l) in _LINE_CONDITIONS:
        row = [0] * 7
        for col, c in ((j, x[i]), (i, neg[x[j]]), (l, neg[x[k]]), (k, x[l])):
            row[col] = add[row[col]][c]
        rows.append(row)
    rows.append(quad.polar(x))
    return rows


def _lines_through(quad: ParabolicQuadric, x) -> list:
    """Canonical bases of the lines of H(q) through the quadric point x whose
    second row is x, so that ``build`` makes each line once.

    Each line through x meets the line of pi_x that misses x in one point
    z.  The second row of its basis is its point of latest pivot, which is
    x exactly when z's pivot comes before x's; the basis is then
    (z - z[p_x] x, x).  No pivot comes before column 0, so a point with
    x0 = 1 gets ``[]``.
    """
    space = quad.space
    plane = space.nullspace(_plane_equations(quad, x))
    if len(plane) != 3:
        raise InternalConsistencyError(
            f"H({quad.gf.q}): the plane of point {x} has {len(plane)} rows, expected 3"
        )
    px, pts = x.index(1), space.points
    line = space.line_point_indices(space.missing_line(x, plane))
    return [space.join(z, x) for z in map(pts.__getitem__, line) if z.index(1) < px]


def build(q: int) -> LineSet:
    """Construct the line set of H(q) naturally embedded in PG(6, q)."""
    if q not in SUPPORTED_Q:
        raise ValueError(f"unsupported field order {q}; supported: {SUPPORTED_Q}")
    quad = parabolic_quadric(q)
    # Only a point with x0 = 0 can be a line's second canonical row.
    born = (key for x in quad.points() if not x[0] for key in _lines_through(quad, x))
    ls = LineSet(quad.space, born)
    pts = quad.space.points
    off_quadric = (ls.lines[ids[0]] for pi, ids in ls.point_lines.items() if quad.form(pts[pi]))
    unsplit = (rows for rows in ls.lines if not _meets_line_conditions(quad.gf, *rows))
    bad = next(off_quadric, None) or next(unsplit, None)
    if bad is not None:
        raise InternalConsistencyError(f"H({q}) construction built a non-hexagon line {bad}")
    expected = (q**6 - 1) // (q - 1)
    if len(ls) != expected:
        raise InternalConsistencyError(
            f"H({q}) construction produced {len(ls)} lines, expected {expected}"
        )
    if len(ls.point_lines) != expected:
        raise InternalConsistencyError(
            f"H({q}) covers {len(ls.point_lines)} points, expected {expected}"
        )
    return ls


class FlatFullReport(NamedTuple):
    flat: bool
    full: bool
    order: tuple[int, int] | None
    non_planar_pencils: list
    degree_histogram: dict

    @property
    def ok(self) -> bool:
        return self.flat and self.full and self.order is not None


def verify_flat_full(ls: LineSet) -> FlatFullReport:
    """Check flatness (pencils coplanar), fullness, and uniform order (q, t).

    Every line carries all q+1 projective points by construction, so the
    embedding is full; the order check additionally requires a common
    point degree.
    """
    non_planar = []
    degrees: dict[int, int] = {}
    for pi, line_ids in ls.point_lines.items():
        degrees[len(line_ids)] = degrees.get(len(line_ids), 0) + 1
        if len(ls.pencil_span(pi)) > 3:
            non_planar.append(pi)
    flat = not non_planar
    order = None
    if len(degrees) == 1:
        t_plus_1 = next(iter(degrees))
        order = (ls.q, t_plus_1 - 1)
    return FlatFullReport(
        flat=flat,
        full=True,
        order=order,
        non_planar_pencils=non_planar,
        degree_histogram=dict(sorted(degrees.items())),
    )

