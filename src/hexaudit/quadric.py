"""The parabolic quadric Q(6, q) and classification of its 4-space sections.

The quadratic form is fixed as ``x0*x4 + x1*x5 + x2*x6 - x3**2``.  A
4-space can meet the quadric in exactly four ways: a parabolic quadric
Q(4, q), a cone over an elliptic or hyperbolic 3-space quadric, or a
cone with line vertex over a conic.  Classification goes through the
radical of the restricted form.

In characteristic 2 the bilinearization ``b(x, y) = Q(x+y) - Q(x) - Q(y)``
is the symplectic form and the x3 term drops out, so a vector in the
bilinear radical need not be singular.  The singular radical is therefore
computed as the set of bilinear-radical vectors on which Q itself
vanishes; on the bilinear radical Q is additive, so this set is a
subspace in every characteristic.
"""

from __future__ import annotations

import enum
from functools import cache

from .errors import InternalConsistencyError
from .pg import PG, projective_space


class SectionType(enum.Enum):
    PARABOLIC_Q4 = "parabolic-Q4"
    CONE_OVER_ELLIPTIC = "cone-over-elliptic"
    CONE_OVER_HYPERBOLIC = "cone-over-hyperbolic"
    LINE_CONE_OVER_CONIC = "line-cone-over-conic"


class ParabolicQuadric:
    """Q(6, q) in PG(6, q) for the fixed form x0x4 + x1x5 + x2x6 - x3^2."""

    def __init__(self, space: PG):
        if space.n != 6:
            raise ValueError(f"parabolic quadric needs ambient PG(6, q), got PG{space.key}")
        self.space = space
        self.gf = space.gf
        self._points: list[tuple[int, ...]] | None = None
        self._iso_lines: tuple | None = None

    def form(self, v) -> int:
        """Evaluate Q(v) as an element code."""
        if len(v) != 7:
            raise ValueError("expected 7 coordinates")
        gf = self.gf
        add, mul, sub = gf.add_table, gf.mul_table, gf.sub_table
        s = add[add[mul[v[0]][v[4]]][mul[v[1]][v[5]]]][mul[v[2]][v[6]]]
        return sub[s][mul[v[3]][v[3]]]

    def bilinear(self, x, y) -> int:
        gf = self.gf
        s = tuple(gf.add_table[a][b] for a, b in zip(x, y))
        return gf.sub_table[gf.sub_table[self.form(s)][self.form(x)]][self.form(y)]

    def polar(self, x) -> tuple[int, ...]:
        """Coefficients b(x, e_k) of the linear form b(x, .), k = 0..6."""
        neg, add = self.gf.neg_table, self.gf.add_table
        return (x[4], x[5], x[6], neg[add[x[3]][x[3]]], x[0], x[1], x[2])

    def points(self) -> list[tuple[int, ...]]:
        """All quadric points, in point-table order (cached)."""
        if self._points is None:
            self._points = [p for p in self.space.points if self.form(p) == 0]
        return self._points

    def line_is_isotropic(self, rows) -> bool:
        """True iff all q+1 points of the line spanned by ``rows`` lie on the quadric."""
        space = self.space
        line = space.line_point_indices(space.rref(rows))
        return not any(self.form(space.points[i]) for i in line)

    def isotropic_lines(self) -> tuple:
        """Canonical bases of all totally isotropic lines, sorted (cached).

        The definition, kept as the referee for ``build``: since
        Q(x + cy) = Q(x) + c^2 Q(y) + c b(x, y), two quadric points span
        an isotropic line if and only if b(x, y) = 0.
        """
        if self._iso_lines is None:
            pts, rref = self.points(), self.space.rref
            pairs = ((x, y) for i, x in enumerate(pts) for y in pts[i + 1:])
            self._iso_lines = tuple(sorted({rref(p) for p in pairs if self.bilinear(*p) == 0}))
        return self._iso_lines

    def section_points(self, rows) -> list[tuple[int, ...]]:
        """The quadric points of the subspace spanned by ``rows``, any basis."""
        return [p for p in self.space.subspace_points(rows) if self.form(p) == 0]

    def singular_radical(self, rows) -> tuple:
        """Vertex of the section cone: the RREF basis of the singular points
        of Q restricted to the subspace spanned by ``rows``.

        The bilinear radical is U ∩ U^⊥, the nullspace of the annihilator
        rows of U together with the polar rows of its basis; the vertex is
        the span of its points on which Q vanishes.
        """
        space = self.space
        rad = space.nullspace(space.nullspace(rows) + tuple(map(self.polar, rows)))
        return space.rref(p for p in space.subspace_points(rad) if self.form(p) == 0)

    def classify_section(self, rows) -> tuple[SectionType, int]:
        """Classify the section by the 4-space with RREF basis ``rows``;
        returns (type, quadric point count)."""
        if len(rows) != 5 or any(len(r) != 7 for r in rows):
            raise ValueError("expected the 5 rows of width 7 of a 4-space of PG(6, q)")
        q = self.gf.q
        npoints = len(self.section_points(rows))
        rdim = len(self.singular_radical(rows)) - 1
        if rdim == -1:
            if npoints != (q**4 - 1) // (q - 1):
                raise InternalConsistencyError(
                    f"nondegenerate 4-space section with {npoints} points"
                )
            return SectionType.PARABOLIC_Q4, npoints
        if rdim == 0:
            if npoints == q**3 + q + 1:
                return SectionType.CONE_OVER_ELLIPTIC, npoints
            if npoints == q**3 + 2 * q**2 + q + 1:
                return SectionType.CONE_OVER_HYPERBOLIC, npoints
            raise InternalConsistencyError(
                f"point-vertex cone section with {npoints} points"
            )
        if rdim == 1:
            if npoints != (q + 1) * (q**2 + 1):
                raise InternalConsistencyError(
                    f"line-vertex cone section with {npoints} points"
                )
            return SectionType.LINE_CONE_OVER_CONIC, npoints
        raise InternalConsistencyError(f"section radical has projdim {rdim}")


@cache
def parabolic_quadric(q: int) -> ParabolicQuadric:
    return ParabolicQuadric(projective_space(6, q))
