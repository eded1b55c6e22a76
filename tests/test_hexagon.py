import hashlib

import pytest

import hexaudit.hexagon as hexagon_module
from hexaudit.errors import InternalConsistencyError
from hexaudit.formats import dump_lineset
from hexaudit.hexagon import (
    _LINE_CONDITIONS,
    _lines_through,
    _plane_equations,
    build,
    hexagon_line_predicate,
    verify_flat_full,
)
from hexaudit.lineset import LineSet
from hexaudit.pg import projective_space
from hexaudit.quadric import parabolic_quadric
from referees import PluckerCoords

# SHA-256 of dump_lineset(H(5)), recorded from the isotropic lines of
# Q(6, 5) filtered by hexagon_line_predicate.
H5_PGLS_SHA256 = "a97a030086eeffbb76c360aae698b1d9ba3b9e27c4ec96602c3a9f43c60cae67"


class TestBuild:
    def test_counts_q2(self, h2):
        assert len(h2) == 63
        assert len(h2.point_lines) == 63

    def test_counts_q3(self, h3):
        assert len(h3) == 364
        assert len(h3.point_lines) == 364

    def test_unsupported_q(self):
        with pytest.raises(ValueError):
            build(7)
        with pytest.raises(ValueError):
            build(6)

    def test_lines_are_isotropic(self, h2):
        quad = parabolic_quadric(2)
        for rows in h2.lines:
            assert quad.line_is_isotropic(rows)

    def test_points_are_all_quadric_points(self, h2):
        quad = parabolic_quadric(2)
        space = h2.space
        covered = {space.points[i] for i in h2.point_lines}
        assert covered == set(quad.points())


class TestPlaneConstruction:
    """``build`` against the filter it replaced: every isotropic line that
    passes the predicate, and nothing else."""

    @pytest.mark.parametrize("q", [2, 3])
    def test_equals_filtered_isotropic_lines(self, q):
        quad = parabolic_quadric(q)
        filtered = tuple(
            r for r in quad.isotropic_lines() if hexagon_line_predicate(quad, r)
        )
        assert build(q).lines == filtered

    @pytest.mark.parametrize("fixture", ["h2", "h3"])
    def test_each_plane_gives_the_lines_through_its_point(self, fixture, request):
        ls = request.getfixturevalue(fixture)
        quad = parabolic_quadric(ls.q)
        space = quad.space
        for x in quad.points():
            plane = space.nullspace(_plane_equations(quad, x))
            assert len(plane) == 3
            through = [ls.lines[li] for li in ls.point_lines[space.point_index[x]]]
            assert space.pencil(x, plane) == through
            assert sorted(_lines_through(quad, x)) == [key for key in through if key[1] == x]

    @pytest.mark.parametrize("q", [2, 3])
    def test_each_line_is_built_once(self, q):
        quad = parabolic_quadric(q)
        built = [key for x in quad.points() for key in _lines_through(quad, x)]
        assert len(built) == len(set(built)) == (q**6 - 1) // (q - 1)

    def test_without_the_polar_row_build_raises(self, monkeypatch):
        equations = hexagon_module._plane_equations
        monkeypatch.setattr(
            hexagon_module, "_plane_equations", lambda quad, x: equations(quad, x)[:-1]
        )
        with pytest.raises(InternalConsistencyError):
            build(2)

    def test_non_isotropic_line_build_raises(self, monkeypatch):
        """The predicate's ValueError surfaces as an internal error."""
        space = parabolic_quadric(2).space
        stray = space.rref(((1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0)))
        pencil = hexagon_module._lines_through
        monkeypatch.setattr(
            hexagon_module, "_lines_through", lambda quad, x: pencil(quad, x) + [stray]
        )
        with pytest.raises(InternalConsistencyError, match="non-hexagon line"):
            build(2)

    def test_line_built_twice_build_raises(self, monkeypatch):
        """A line built twice, in place of another, is dropped by the set,
        and the line count falls short."""
        pencil = hexagon_module._lines_through

        def twice(quad, x):
            lines = pencil(quad, x)
            return lines[:-1] + lines[:1]

        monkeypatch.setattr(hexagon_module, "_lines_through", twice)
        with pytest.raises(InternalConsistencyError, match="produced .* lines, expected 63"):
            build(2)

    def test_h5(self):
        """H(5): counts, and the PGLS bytes recorded from the isotropic-line
        filter that built H(q) before the plane construction."""
        ls = build(5)
        assert len(ls) == 3906
        assert len(ls.point_lines) == 3906
        assert hashlib.sha256(dump_lineset(ls).encode()).hexdigest() == H5_PGLS_SHA256


class TestLinePredicate:
    def test_accepts_hexagon_lines(self, h2):
        quad = parabolic_quadric(2)
        for rows in h2.lines[:10]:
            assert hexagon_line_predicate(quad, rows)

    def test_rejects_some_isotropic_lines(self, h2):
        """The 315 isotropic lines properly contain the 63 hexagon lines."""
        quad = parabolic_quadric(2)
        chosen = set(h2.lines)
        rejected = [
            rows
            for rows in quad.isotropic_lines()
            if rows not in chosen
        ]
        assert len(rejected) == 315 - 63
        for rows in rejected[:10]:
            assert not hexagon_line_predicate(quad, rows)

    @pytest.mark.parametrize("q", [2, 3])
    def test_equals_scaled_plucker_referee(self, q):
        """On every isotropic line, the unscaled comparison agrees with the
        six equations read on the rescaled Plücker vector."""
        quad = parabolic_quadric(q)
        for x, y in quad.isotropic_lines():
            p = PluckerCoords(quad.gf, x, y)
            expected = all(p(i, j) == p(k, l) for (i, j), (k, l) in _LINE_CONDITIONS)
            assert hexagon_line_predicate(quad, (x, y)) == expected

    @pytest.mark.parametrize("fixture", ["h2", "h3"])
    def test_any_basis_of_a_line(self, fixture, request):
        """Both take any basis of a line: here (x + y, c*y), c the element
        coded q - 1, never reduced, for the canonical (x, y) of every
        hexagon line, of some rejected isotropic lines and of a
        non-isotropic line."""
        ls = request.getfixturevalue(fixture)
        quad = parabolic_quadric(ls.q)
        add, scale = quad.gf.add_table, quad.gf.mul_table[ls.q - 1]

        def skew(rows):
            x, y = rows
            return (tuple(add[a][b] for a, b in zip(x, y)), [scale[c] for c in y])

        for rows in ls.lines:
            assert quad.line_is_isotropic(skew(rows))
            assert hexagon_line_predicate(quad, skew(rows))
        chosen = set(ls.lines)
        rejected = [rows for rows in quad.isotropic_lines() if rows not in chosen][:50]
        assert rejected
        for rows in rejected:
            assert quad.line_is_isotropic(skew(rows))
            assert not hexagon_line_predicate(quad, skew(rows))
        stray = skew(((1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0)))
        assert not quad.line_is_isotropic(stray)

    def test_non_isotropic_line_raises(self):
        quad = parabolic_quadric(2)
        rows = quad.space.rref(((1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0)))
        with pytest.raises(ValueError):
            hexagon_line_predicate(quad, rows)

    @pytest.mark.parametrize(
        "rows, projdim",
        [
            (((0, 0, 1, 0, 0, 0, 0),), 0),
            (((1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0)), 2),
        ],
        ids=["point", "plane"],
    )
    def test_non_line_raises_the_lineset_message(self, rows, projdim):
        """Rows that span a point or a plane are refused after ``rref``, as
        ``LineSet`` refuses them, not by a failed unpacking."""
        quad = parabolic_quadric(2)
        message = f"^not a line: projdim {projdim}$"
        with pytest.raises(ValueError, match=message):
            quad.line_is_isotropic(rows)
        with pytest.raises(ValueError, match=message):
            hexagon_line_predicate(quad, rows)
        with pytest.raises(ValueError, match=message):
            LineSet(quad.space, [rows])


class TestFlatFull:
    @pytest.mark.parametrize("fixture", ["h2", "h3"])
    def test_hexagon_is_flat_full_of_order_q_q(self, fixture, request):
        ls = request.getfixturevalue(fixture)
        rep = verify_flat_full(ls)
        assert rep.ok
        assert rep.flat and rep.full
        assert rep.order == (ls.q, ls.q)
        assert rep.non_planar_pencils == []
        assert rep.degree_histogram == {ls.q + 1: len(ls.point_lines)}

    def test_non_flat_set_detected(self):
        """Three concurrent lines spanning a solid are not a planar pencil."""
        space = projective_space(3, 2)
        e = [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]
        ls = LineSet(
            space,
            [(e[0], e[1]), (e[0], e[2]), (e[0], e[3])],
        )
        rep = verify_flat_full(ls)
        assert not rep.flat
        assert space.point_index[e[0]] in rep.non_planar_pencils
        assert not rep.ok

    def test_mixed_degrees_have_no_order(self):
        space = projective_space(3, 2)
        e = [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]
        ls = LineSet(space, [(e[0], e[1]), (e[0], e[2])])
        rep = verify_flat_full(ls)
        assert rep.order is None


class TestSpan:
    def test_hexagon_spans_everything(self, h2, h3):
        assert h2.span_dim() == 6
        assert h3.span_dim() == 6
