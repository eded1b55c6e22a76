import hashlib
import math
import random
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from hexaudit.lineset import LineSet
from hexaudit.pg import projective_space
from hexaudit.polygon import KGon, find_kgon, girth_and_diameter
import lemmas
from lemmas import (
    all_kgons,
    expansion_bound,
    is_kgon_of,
    pencil_plane_qp1_bound,
    pentagon_extension_check,
    pentagon_span_check,
    qp1_points_on_line,
)
from referees import contains, whole_space


def unit(space, i):
    return tuple(1 if j == i else 0 for j in range(space.width))


def lineset_from_pairs(space_key, pairs):
    """The lines joining pairs of point indices (taken modulo the number of
    points; a pair of equal points is dropped)."""
    space = projective_space(*space_key)
    pts = space.points
    keys = set()
    for a, b in pairs:
        a, b = a % len(pts), b % len(pts)
        if a != b:
            keys.add(space.rref((pts[a], pts[b])))
    return LineSet(space, keys)


@pytest.fixture(scope="module")
def pentagon_ls():
    """Five coordinate points of PG(4, 2) joined cyclically: one pentagon."""
    space = projective_space(4, 2)
    e = [unit(space, i) for i in range(5)]
    pairs = [(e[i], e[(i + 1) % 5]) for i in range(5)]
    return LineSet(space, pairs)


@pytest.fixture(scope="module")
def two_pencil_ls():
    """Two full pencils in PG(4, 2) sharing the line AB.

    Pencil at A = e0 in the plane <e0, e1, e2> and pencil at B = e1 in the
    plane <e0, e1, e3>.  A and B are the only points of degree q+1 = 3.
    """
    space = projective_space(4, 2)
    e0, e1, e2, e3 = (unit(space, i) for i in range(4))
    gf_add = lambda x, y: tuple(space.gf.add_table[a][b] for a, b in zip(x, y))  # noqa: E731
    pairs = [
        (e0, e1),
        (e0, e2),
        (e0, gf_add(e1, e2)),
        (e1, e3),
        (e1, gf_add(e0, e3)),
    ]
    return LineSet(space, pairs)


class TestLineSetPrimitives:
    def test_line_through_matches_point_pairs(self, h2):
        pair_line = {
            (a, b): li
            for li, pts in enumerate(h2.line_points)
            for a in pts
            for b in pts
            if a != b
        }
        for a in h2.point_lines:
            for b in h2.point_lines:
                if a != b:
                    assert h2.line_through(a, b) == pair_line.get((a, b))

    def test_line_through_uncovered_point(self, pentagon_ls):
        covered = set(pentagon_ls.point_lines)
        free = next(p for p in range(len(pentagon_ls.space.points)) if p not in covered)
        assert pentagon_ls.line_through(free, min(covered)) is None
        assert pentagon_ls.line_through(min(covered), free) is None

    def test_pencil_span_is_the_pencil_plane(self, h2):
        for p, line_ids in h2.point_lines.items():
            span = h2.pencil_span(p)
            assert len(span) == 3 and h2.space.rref(span) == span
            for li in line_ids:
                assert all(contains(h2.space, span, r) for r in h2.lines[li])


class TestFindKGon:
    def test_pentagon_found(self, pentagon_ls):
        gon = find_kgon(pentagon_ls, 5)
        assert gon is not None and gon.k == 5
        assert is_kgon_of(pentagon_ls, gon)

    def test_no_short_polygons_in_pentagon(self, pentagon_ls):
        assert find_kgon(pentagon_ls, 3) is None
        assert find_kgon(pentagon_ls, 4) is None

    def test_digon_needs_two_lines_through_two_points(self, pentagon_ls):
        assert find_kgon(pentagon_ls, 2) is None

    def test_hexagon_has_no_small_gons(self, h2):
        for k in (3, 4, 5):
            assert find_kgon(h2, k) is None

    def test_hexagon_has_hexagons(self, h2):
        gon = find_kgon(h2, 6)
        assert gon is not None and gon.k == 6
        assert is_kgon_of(h2, gon)
        assert len(set(gon.vertices)) == 6
        assert len(set(gon.edges)) == 6

    def test_deterministic(self, h2):
        assert find_kgon(h2, 6) == find_kgon(h2, 6)

    def test_k_range_checked(self, h2):
        with pytest.raises(ValueError):
            find_kgon(h2, 1)
        with pytest.raises(ValueError):
            find_kgon(h2, 7)
        with pytest.raises(ValueError):
            all_kgons(h2, 1)
        with pytest.raises(ValueError):
            all_kgons(h2, 7)


class TestAllKGons:
    def test_single_pentagon_up_to_symmetry(self, pentagon_ls):
        gons = all_kgons(pentagon_ls, 5)
        assert len(gons) == 1
        assert is_kgon_of(pentagon_ls, gons[0])

    def test_no_triangles(self, pentagon_ls):
        assert all_kgons(pentagon_ls, 3) == []


class TestKGonRecord:
    def test_compares_by_value(self):
        gon = KGon((0, 1, 2), (3, 4, 5))
        assert gon == KGon((0, 1, 2), (3, 4, 5)) and gon.k == 3
        assert hash(gon) == hash(KGon((0, 1, 2), (3, 4, 5)))
        assert gon != KGon((0, 1, 2), (3, 5, 4))
        assert len({gon, KGon((0, 1, 2), (3, 4, 5))}) == 1


class TestIsKGon:
    def test_bogus_gon_rejected(self, pentagon_ls):
        assert not is_kgon_of(pentagon_ls, KGon((0, 1, 2), (0, 1, 2)))
        gon = find_kgon(pentagon_ls, 5)
        broken = KGon(gon.vertices, (gon.edges[0],) * 5)
        assert not is_kgon_of(pentagon_ls, broken)

    def test_edge_line_missing_an_endpoint_rejected(self, pentagon_ls):
        """Edge i must be the line through v_i and v_(i+1); a line of the
        set through v_i alone does not count."""
        gon = find_kgon(pentagon_ls, 5)
        v0, v1 = gon.vertices[:2]
        # The pentagon's other line through v0 is the closing edge v4 v0.
        other = next(li for li in pentagon_ls.point_lines[v0] if li != gon.edges[0])
        assert v1 not in pentagon_ls.line_points[other]
        swapped = KGon(gon.vertices, (other,) + gon.edges[1:4] + (gon.edges[0],))
        assert len(set(swapped.edges)) == 5
        assert not is_kgon_of(pentagon_ls, swapped)


def reference_kgons(ls, k, collect=None):
    """First k-gon in canonical order, or all of them when collecting, by a
    DFS over a (point pair) -> line map: the referee for the search over
    the LineSet's own incidence indexes."""
    nbrs: dict = {}
    pair_line: dict = {}
    for li, pts in enumerate(ls.line_points):
        for i, a in enumerate(pts):
            for b in pts[i + 1:]:
                pair_line[(a, b)] = li
                pair_line[(b, a)] = li
                nbrs.setdefault(a, set()).add(b)
                nbrs.setdefault(b, set()).add(a)
    nbrs = {p: sorted(s) for p, s in nbrs.items()}

    def extend(start, dist, path, lines_used):
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
            if w <= start or w in path or dist.get(w, k + 1) > remaining:
                continue
            li = pair_line[(v, w)]
            if li in lines_used:
                continue
            got = extend(start, dist, path + [w], lines_used + [li])
            if got is not None:
                return got
        return None

    for start in sorted(nbrs):
        dist = {start: 0}
        frontier = deque([start])
        while frontier:
            v = frontier.popleft()
            if dist[v] >= k // 2 + 1:
                continue
            for w in nbrs[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    frontier.append(w)
        found = extend(start, dist, [start], [])
        if found is not None:
            return found
    return collect[0] if collect else None


def reference_all_kgons(ls, k):
    raw: list = []
    reference_kgons(ls, k, collect=raw)
    seen = {}
    for gon in raw:
        vs = gon.vertices
        rotations = [vs[i:] + vs[:i] for i in range(len(vs))]
        rotations += [tuple(reversed(r)) for r in rotations]
        seen.setdefault(min(rotations), gon)
    return [seen[key] for key in sorted(seen)]


class TestKGonsAgainstReference:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_h2(self, h2, k):
        assert find_kgon(h2, k) == reference_kgons(h2, k)
        assert all_kgons(h2, k) == reference_all_kgons(h2, k)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_h3(self, h3, k):
        assert find_kgon(h3, k) == reference_kgons(h3, k)

    @settings(max_examples=100, deadline=None)
    @given(
        space_key=st.sampled_from([(3, 2), (4, 2), (4, 3)]),
        pairs=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
            max_size=16,
        ),
        k=st.integers(2, 6),
    )
    def test_random_sets_match_reference(self, space_key, pairs, k):
        ls = lineset_from_pairs(space_key, pairs)
        assert find_kgon(ls, k) == reference_kgons(ls, k)
        assert all_kgons(ls, k) == reference_all_kgons(ls, k)


class TestGirthDiameter:
    def test_hexagon_incidence_graph(self, h2):
        assert girth_and_diameter(h2) == (12, 6)

    def test_pentagon_incidence_graph(self, pentagon_ls):
        girth, diameter = girth_and_diameter(pentagon_ls)
        assert girth == 10
        # Farthest pairs are antipodal free points of the 5 lines.
        assert diameter >= 5

    def test_tree_has_no_girth(self):
        space = projective_space(3, 2)
        e = [unit(space, i) for i in range(4)]
        star = LineSet(space, [(e[0], e[1]), (e[0], e[2])])
        girth, diameter = girth_and_diameter(star)
        assert girth == math.inf
        assert diameter == 4


def reference_girth_and_diameter(ls):
    """Per-source BFS over the incidence graph: the referee for the
    all-sources bitset search."""
    adj = {}
    for li, pts in enumerate(ls.line_points):
        lnode = ("l", li)
        adj[lnode] = [("p", p) for p in pts]
        for p in pts:
            adj.setdefault(("p", p), []).append(lnode)
    girth = math.inf
    diameter = 0
    for src in adj:
        dist = {src: 0}
        parent = {src: None}
        frontier = deque([src])
        while frontier:
            v = frontier.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    frontier.append(w)
                elif parent[v] != w:
                    girth = min(girth, dist[v] + dist[w] + 1)
        diameter = max(diameter, max(dist.values()))
    return girth, diameter


class TestGirthDiameterAgainstReference:
    def test_h3(self, h3):
        assert girth_and_diameter(h3) == (12, 6)

    def test_empty_set(self):
        assert girth_and_diameter(LineSet(projective_space(3, 2), [])) == (math.inf, 0)

    def test_disconnected_triangle_and_line(self):
        space = projective_space(4, 2)
        e = [unit(space, i) for i in range(5)]
        ls = LineSet(space, [(e[0], e[1]), (e[1], e[2]), (e[0], e[2]), (e[3], e[4])])
        assert girth_and_diameter(ls) == reference_girth_and_diameter(ls) == (6, 4)

    @settings(max_examples=60, deadline=None)
    @given(
        space_key=st.sampled_from([(3, 2), (4, 2), (4, 3), (5, 2)]),
        pairs=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
            max_size=16,
        ),
    )
    # Two disjoint lines of PG(3, 2): acyclic and disconnected.
    @example(space_key=(3, 2), pairs=[(0, 1), (3, 7)])
    def test_random_sets_match_reference(self, space_key, pairs):
        ls = lineset_from_pairs(space_key, pairs)
        assert girth_and_diameter(ls) == reference_girth_and_diameter(ls)


class TestPentagonSpan:
    def test_span_report_mechanics(self, pentagon_ls):
        gon = find_kgon(pentagon_ls, 5)
        rep = pentagon_span_check(pentagon_ls, gon)
        assert rep.dim_u == 4
        assert rep.dim_is_4
        assert rep.lines_in_u == 5
        # The fixture is far below the structural thresholds on purpose.
        assert not rep.at_least_5q
        assert not rep.at_least_cubic_bound
        assert len(rep.span) == 5

    def test_rejects_non_pentagon(self, pentagon_ls, h2):
        gon = find_kgon(h2, 6)
        with pytest.raises(ValueError):
            pentagon_span_check(h2, gon)
        fake = KGon((0, 1, 2, 3, 4), (0, 1, 2, 3, 4))
        with pytest.raises(ValueError):
            pentagon_span_check(pentagon_ls, fake)


class TestFullPencilCounts:
    def test_two_pencil_line_counts(self, two_pencil_ls):
        ls = two_pencil_ls
        space = ls.space
        u = whole_space(space)
        a = space.point_index[unit(space, 0)]
        b = space.point_index[unit(space, 1)]
        assert len(ls.point_lines[a]) == len(ls.point_lines[b]) == 3
        line_ab = space.rref((unit(space, 0), unit(space, 1)))
        # Both endpoints of AB carry a full pencil inside u.
        assert qp1_points_on_line(ls, u, line_ab) == 2
        line_ac = space.rref((unit(space, 0), unit(space, 2)))
        assert qp1_points_on_line(ls, u, line_ac) == 1

    def test_line_outside_subspace_rejected(self, two_pencil_ls):
        ls = two_pencil_ls
        space = ls.space
        solid = (unit(space, 0), unit(space, 1), unit(space, 2), unit(space, 3))
        outside = (unit(space, 0), unit(space, 4))
        with pytest.raises(ValueError):
            qp1_points_on_line(ls, solid, outside)

    def test_pencil_plane_bound(self, two_pencil_ls):
        ls = two_pencil_ls
        ok, counts = pencil_plane_qp1_bound(ls, whole_space(ls.space))
        assert ok
        a = ls.space.point_index[unit(ls.space, 0)]
        b = ls.space.point_index[unit(ls.space, 1)]
        # B = e1 lies in the pencil plane of A and vice versa.
        assert counts == {a: 2, b: 2}


class TestPentagonExtension:
    def test_refuses_axiom_violating_set(self, pentagon_ls):
        u = whole_space(pentagon_ls.space)
        with pytest.raises(ValueError):
            pentagon_extension_check(pentagon_ls, u)

    def test_refuses_pentagon_free_subspace(self, h2):
        u = next(iter(h2.space.enumerate_subspaces(4)))
        with pytest.raises(ValueError):
            pentagon_extension_check(h2, u)

    def test_violations_on_small_set(self, monkeypatch):
        """The checks themselves, on a set that fails (Pt): the axiom guard
        is stubbed.  A pentagon e0..e4 of PG(4, 2), x = e1 + e4 joined to
        e0, e2 and e3, and two more lines; the report was recorded from
        the (point pair) -> line map version of the check."""

        class Passed:
            passed = True

        monkeypatch.setattr(lemmas, "audit", lambda ls, cfg: Passed())
        space = projective_space(4, 2)
        e = [unit(space, i) for i in range(5)]
        x = (0, 1, 0, 0, 1)
        pairs = [(e[i], e[(i + 1) % 5]) for i in range(5)]
        pairs += [(e[0], x), (x, e[2]), (x, e[3])]
        pairs += [(x, (0, 0, 0, 1, 1)), ((1, 0, 1, 0, 0), (0, 0, 0, 1, 1))]
        rep = pentagon_extension_check(LineSet(space, pairs), whole_space(space))
        assert (rep.num_pentagons, rep.num_special_points) == (3, 4)
        assert rep.violations_a == [(2, 0), (2, 1), (2, 8)]
        assert rep.violations_b == [2]
        assert rep.violations_c == [
            (1, 2, 2), (1, 2, 3), (1, 3, 2), (2, 1, 1), (3, 1, 2), (3, 2, 1), (3, 2, 2)
        ]
        assert not rep.ok


def outcome(fn, *args):
    """The result of a call, or the type of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def pentagon_plus(pairs):
    """The pentagon e0..e4 of PG(4, 2) and the lines joining the point
    pairs, as in ``lineset_from_pairs``."""
    space = projective_space(4, 2)
    idx = space.point_index
    e = [idx[unit(space, i)] for i in range(5)]
    return lineset_from_pairs((4, 2), [(e[i], e[(i + 1) % 5]) for i in range(5)] + pairs)


def subspace_from_points(space, picks):
    """The whole space if ``picks`` is empty, else the span of those points."""
    if not picks:
        return whole_space(space)
    return space.rref([space.points[i % len(space.points)] for i in picks])


# SHA-256 of the outputs of ``pinned_outputs`` on the set of
# ``test_violations_on_small_set`` and on each seeded set of
# ``test_dense_seeded_sets``, recorded when a second copy of each check,
# over a (point pair) -> line map, gave the same outputs.
SMALL_SET_SHA256 = "05ba147d8c04baa18cf3f427cd44249efca90d19ac45e9fd3f17ef2cda91d84a"
DENSE_SET_SHA256 = [
    "a9039cb7ab33ab812ee5a384d5b60e3c76544794c22c6634b13ba335c3e59592",
    "7bb166143407e50fc15e30c62ab53ec374231cc68f1ce79f1f370430c7764cf8",
    "47dcda9be294831299bde50a5cf1c4f2f3dc4028a7dffe9e86ff06560716f16b",
    "c59bf7a67479f05a2218cd523665c60e686a75e80cea778959f7807c56f90e31",
    "e1712bf39ba0e874f6414eb8fcad62b88b18ea19e7ae2e192a3dd8a53101668f",
    "909059b5f878930d5da124c3deffdd8ef04e3740e2e7066ab67ea4bf908a0522",
    "2394c0bfc61a1469e9c290e847704bf9545fef5f3c20e3fafbce05aa271b0d29",
    "ad3790d65b8a6d0e4e071ede96ba870469e0197fb21fd13af63510fbd009c8a7",
    "f09dc895027ca7c854461589c79869372bcbbb10f5914ba295be29218d89ed33",
    "50e863a77895b7d91bbd02aa9294fa454e233e7f2996b0ed60e4321b10f0802b",
    "abfaf7507f4c77fa67c5f7b9db713bf23d976484ad842ac789ee9c8830a586d3",
    "0ce368e868a643d8e420a94939c6c74461ce4d7a0c7060a3496f58fda1b0e513",
]


def pinned_outputs(ls, subspaces):
    """SHA-256 of the repr of every check's output on the set inside each
    subspace: ``qp1_points_on_line`` per line, ``pencil_plane_qp1_bound``,
    ``pentagon_extension_check`` and ``expansion_bound`` per line."""
    out = []
    for u in subspaces:
        out += [outcome(qp1_points_on_line, ls, u, key) for key in ls.lines]
        out.append(pencil_plane_qp1_bound(ls, u))
        out.append(outcome(pentagon_extension_check, ls, u))
        out += [outcome(expansion_bound, ls, u, key) for key in ls.lines]
    return hashlib.sha256(repr(out).encode()).hexdigest()


class TestPentagonChecksAgainstReference:
    """The checks' outputs against the recorded ones."""

    @pytest.fixture(autouse=True)
    def no_axiom_guard(self, monkeypatch):
        """Run the checks on sets that fail (Pt): the guard is stubbed."""

        class Passed:
            passed = True

        monkeypatch.setattr(lemmas, "audit", lambda ls, cfg: Passed())

    def test_small_set(self):
        """The set of ``test_violations_on_small_set``: violations of all
        three kinds."""
        space = projective_space(4, 2)
        e = [unit(space, i) for i in range(5)]
        x = (0, 1, 0, 0, 1)
        pairs = [(e[i], e[(i + 1) % 5]) for i in range(5)]
        pairs += [(e[0], x), (x, e[2]), (x, e[3])]
        pairs += [(x, (0, 0, 0, 1, 1)), ((1, 0, 1, 0, 0), (0, 0, 0, 1, 1))]
        ls = LineSet(space, pairs)
        assert pinned_outputs(ls, [whole_space(space)]) == SMALL_SET_SHA256

    @pytest.mark.parametrize("seed", range(12))
    def test_dense_seeded_sets(self, seed):
        """24 random lines beside the pentagon: 71 to 229 pentagons and 6
        to 13 full-pencil points in the whole space; in a random plane or
        solid, 12 to 22 lines that meet it in one point."""
        rng = random.Random(seed)
        ls = pentagon_plus([(rng.randrange(31), rng.randrange(31)) for _ in range(24)])
        solid = subspace_from_points(ls.space, [rng.randrange(31) for _ in range(4)])
        assert pinned_outputs(ls, [whole_space(ls.space), solid]) == DENSE_SET_SHA256[seed]
