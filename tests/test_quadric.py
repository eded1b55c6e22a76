import itertools
import random

import pytest

from hexaudit.pg import Subspace, projective_space
from hexaudit.quadric import SectionType, parabolic_quadric

# Frozen classification of all 2667 4-spaces of PG(6, 2), first derived
# by running classify_section over the full enumeration.
CLASSIFY4_Q2 = {
    "parabolic-Q4": 1344,
    "cone-over-elliptic": 378,
    "cone-over-hyperbolic": 630,
    "line-cone-over-conic": 315,
}


class TestForm:
    def test_examples(self):
        quad = parabolic_quadric(2)
        assert quad.form((1, 0, 0, 0, 0, 0, 0)) == 0
        assert quad.form((0, 0, 0, 1, 0, 0, 0)) == 1
        assert quad.form((1, 0, 0, 0, 1, 0, 0)) == 1
        assert quad.form((1, 1, 0, 0, 0, 0, 0)) == 0

    def test_form_q3(self):
        quad = parabolic_quadric(3)
        # Q(0,0,0,1,0,0,0) = -1 = 2 in GF(3).
        assert quad.form((0, 0, 0, 1, 0, 0, 0)) == 2
        assert quad.form((1, 0, 0, 1, 1, 0, 0)) == 0

    def test_wrong_width(self):
        quad = parabolic_quadric(2)
        with pytest.raises(ValueError):
            quad.form((1, 0, 0))

    def test_wrong_ambient(self):
        with pytest.raises(ValueError):
            from hexaudit.quadric import ParabolicQuadric

            ParabolicQuadric(projective_space(4, 2))


class TestPoints:
    @pytest.mark.parametrize("q", [2, 3])
    def test_point_count(self, q):
        # A parabolic quadric in PG(6, q) has (q^6 - 1)/(q - 1) points.
        quad = parabolic_quadric(q)
        assert len(quad.points()) == (q**6 - 1) // (q - 1)

    def test_oracle_full_scan(self):
        quad = parabolic_quadric(2)
        oracle = [p for p in quad.space.points if quad.form(p) == 0]
        assert quad.points() == oracle
        assert len(oracle) == 63


def dot(gf, u, v) -> int:
    s = 0
    for a, b in zip(u, v):
        s = gf.add_table[s][gf.mul_table[a][b]]
    return s


class TestPolar:
    def test_all_pairs_q2(self):
        quad = parabolic_quadric(2)
        pts = quad.space.points
        for x in pts:
            px = quad.polar(x)
            for y in pts:
                assert dot(quad.gf, px, y) == quad.bilinear(x, y)

    @pytest.mark.parametrize("q", [3, 4])
    def test_random_pairs(self, q):
        """q = 4 has characteristic 2, where the x3 coefficient -2*x3 is 0."""
        quad = parabolic_quadric(q)
        rng = random.Random(q)
        pts = quad.space.points
        for _ in range(2000):
            x, y = rng.choice(pts), rng.choice(pts)
            assert dot(quad.gf, quad.polar(x), y) == quad.bilinear(x, y)


class TestIsotropicLines:
    def test_line_is_isotropic_examples(self):
        quad = parabolic_quadric(2)
        rows = quad.space.rref(((1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0)))
        assert quad.line_is_isotropic(rows)
        rows = quad.space.rref(((1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0)))
        assert not quad.line_is_isotropic(rows)

    def test_count_against_enumeration_oracle(self):
        """Pair construction must agree with filtering all lines of PG(6,2)."""
        quad = parabolic_quadric(2)
        oracle = sum(
            1
            for line in quad.space.enumerate_subspaces(1)
            if quad.line_is_isotropic(line.rows)
        )
        lines = quad.isotropic_lines()
        assert len(lines) == oracle == 315
        assert list(lines) == sorted(set(lines))

    def test_count_q3(self):
        # Each of the (q^6-1)/(q-1) quadric points lies on (q+1)(q^2+1)
        # isotropic lines, so double counting gives the total below.
        quad = parabolic_quadric(3)
        q = 3
        expected = (q**6 - 1) // (q - 1) * (q**2 + 1)
        assert len(quad.isotropic_lines()) == expected == 3640

    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_all_pairs_enumeration(self, q):
        """The perp-pair filter against rref on every pair of quadric points."""
        quad = parabolic_quadric(q)
        pts = quad.points()
        seen = set()
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                rows = quad.space.rref((pts[i], pts[j]))
                if rows not in seen and quad.line_is_isotropic(rows):
                    seen.add(rows)
        assert quad.isotropic_lines() == tuple(sorted(seen))


class TestClassifySection:
    def test_histogram_fixture_q2(self):
        quad = parabolic_quadric(2)
        hist = {}
        total = 0
        for sub in quad.space.enumerate_subspaces(4):
            kind, npoints = quad.classify_section(sub)
            hist[kind.value] = hist.get(kind.value, 0) + 1
            total += 1
        assert total == 2667
        assert hist == CLASSIFY4_Q2

    def test_point_counts_by_type(self):
        quad = parabolic_quadric(2)
        q = 2
        expected = {
            SectionType.PARABOLIC_Q4: (q**4 - 1) // (q - 1),
            SectionType.CONE_OVER_ELLIPTIC: q**3 + q + 1,
            SectionType.CONE_OVER_HYPERBOLIC: q**3 + 2 * q**2 + q + 1,
            SectionType.LINE_CONE_OVER_CONIC: (q + 1) * (q**2 + 1),
        }
        seen = set()
        for sub in quad.space.enumerate_subspaces(4):
            kind, npoints = quad.classify_section(sub)
            assert npoints == expected[kind]
            seen.add(kind)
            if len(seen) == 4:
                break
        assert seen == set(SectionType)

    def test_elliptic_cone_iso_lines_through_vertex(self):
        """An elliptic-cone section carries q^2+1 isotropic lines, all
        through the cone vertex."""
        quad = parabolic_quadric(2)
        for sub in quad.space.enumerate_subspaces(4):
            kind, _ = quad.classify_section(sub)
            if kind is SectionType.CONE_OVER_ELLIPTIC:
                iso = [
                    rows for rows in quad.isotropic_lines()
                    if all(map(sub.contains_vec, rows))
                ]
                assert len(iso) == 2**2 + 1
                vertex = quad.singular_radical(sub)
                assert vertex.projdim == 0
                for rows in iso:
                    line = quad.space.subspace(rows)
                    assert line.contains_vec(vertex.rows[0])
                break

    def test_rejects_wrong_dimension(self):
        quad = parabolic_quadric(2)
        line = quad.space.subspace(((1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0)))
        with pytest.raises(ValueError):
            quad.classify_section(line)


class TestRadical:
    def test_nondegenerate_section_has_empty_radical(self):
        quad = parabolic_quadric(2)
        for sub in quad.space.enumerate_subspaces(4):
            kind, _ = quad.classify_section(sub)
            if kind is SectionType.PARABOLIC_Q4:
                assert quad.singular_radical(sub).projdim == -1
                break

    def test_radical_points_are_singular(self):
        quad = parabolic_quadric(3)
        sub = quad.space.subspace(
            [
                (1, 0, 0, 0, 0, 0, 0),
                (0, 1, 0, 0, 0, 0, 0),
                (0, 0, 1, 0, 0, 0, 0),
                (0, 0, 0, 1, 0, 0, 0),
                (0, 0, 0, 0, 1, 0, 0),
            ]
        )
        rad = quad.singular_radical(sub)
        for p in ([] if rad.projdim == -1 else rad.points()):
            assert quad.form(p) == 0
            for row in sub.rows:
                assert quad.bilinear(p, row) == 0


def combine(gf, coeffs, rows):
    """The sum of c * row over the coefficients and rows, over GF(q)."""
    add, mul = gf.add_table, gf.mul_table
    v = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            v = [add[a][mul[c][b]] for a, b in zip(v, row)]
    return v


def brute_points(space, u):
    """The points of u from every nonzero combination of its rows."""
    return {
        space.normalize(v)
        for coeffs in itertools.product(range(space.q), repeat=len(u.rows))
        if any(v := combine(space.gf, coeffs, u.rows))
    }


def brute_radical(quad, u):
    """The span of the points p of u with Q(p) = 0 and b(p, r) = 0 for every row r."""
    return quad.space.subspace([
        p for p in brute_points(quad.space, u)
        if quad.form(p) == 0 and all(quad.bilinear(p, r) == 0 for r in u.rows)
    ])


def random_subspace(space, rng, k, through=(), inside=None):
    """A random subspace of k rows through the given rows, inside the span
    of the rows ``inside`` (default: the whole space)."""
    inside = inside or space.whole_space().rows
    while True:
        rows = list(through) + [
            combine(space.gf, [rng.randrange(space.q) for _ in inside], inside)
            for _ in range(k - len(through))
        ]
        u = Subspace(space, rows)
        if len(u.rows) == k:
            return u


class TestRadicalReferee:
    """singular_radical and classify_section against brute force."""

    @staticmethod
    def four_spaces(quad, rng, count):
        """In turn: random 4-spaces, 4-spaces through a quadric point x inside
        x^perp, and the perps of lines xy with y a quadric point of x^perp."""
        space, pts = quad.space, quad.points()
        for i in range(count):
            x = pts[rng.randrange(len(pts))]
            perp = space.nullspace([quad.polar(x)])
            if i % 3 == 0:
                yield random_subspace(space, rng, 5)
            elif i % 3 == 1:
                yield random_subspace(space, rng, 5, through=[x], inside=perp)
            else:
                line = random_subspace(space, rng, 2, through=[x], inside=perp)
                while quad.form(line.rows[0]) or quad.form(line.rows[1]):
                    line = random_subspace(space, rng, 2, through=[x], inside=perp)
                yield Subspace(space, space.nullspace(list(map(quad.polar, line.rows))))

    @pytest.mark.parametrize("q", [3, 4])
    def test_four_spaces(self, q):
        quad = parabolic_quadric(q)
        rng = random.Random(4000 + q)
        kinds = set()
        for u in self.four_spaces(quad, rng, 210):
            rad = brute_radical(quad, u)
            npoints = sum(1 for p in brute_points(quad.space, u) if quad.form(p) == 0)
            kind = {
                -1: SectionType.PARABOLIC_Q4,
                1: SectionType.LINE_CONE_OVER_CONIC,
            }.get(rad.projdim)
            if rad.projdim == 0:
                kind = (
                    SectionType.CONE_OVER_ELLIPTIC
                    if npoints == q**3 + q + 1
                    else SectionType.CONE_OVER_HYPERBOLIC
                )
            assert quad.singular_radical(u) == rad
            assert quad.classify_section(u) == (kind, npoints)
            kinds.add(kind)
        assert kinds == set(SectionType)

    @pytest.mark.parametrize("q", [3, 4])
    def test_random_subspaces(self, q):
        quad = parabolic_quadric(q)
        rng = random.Random(5000 + q)
        for i in range(120):
            u = random_subspace(quad.space, rng, 1 + i % 6)
            assert quad.singular_radical(u) == brute_radical(quad, u)
        empty = Subspace(quad.space, (), canonical=True)
        assert quad.singular_radical(empty) == empty
