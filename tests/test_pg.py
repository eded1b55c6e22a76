import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import hexaudit.pg as pg_module
from hexaudit.audit import AxiomConfig, audit
from hexaudit.lineset import LineSet
from hexaudit.pg import (
    MAX_COORDINATES,
    PG,
    gaussian_binomial,
    projective_space,
)
from referees import PluckerCoords, contains, plucker, whole_space


def oracle_gaussian(n_dim, k, q):
    """Independent oracle via the q-Pascal recurrence."""
    if k < 0 or k > n_dim:
        return 0
    if k == 0 or k == n_dim:
        return 1
    return oracle_gaussian(n_dim - 1, k - 1, q) + q**k * oracle_gaussian(
        n_dim - 1, k, q
    )


class TestGaussianBinomial:
    def test_against_recurrence_oracle(self):
        for n_dim in range(8):
            for k in range(n_dim + 1):
                for q in (2, 3, 4, 5):
                    assert gaussian_binomial(n_dim, k, q) == oracle_gaussian(
                        n_dim, k, q
                    )

    def test_known_values(self):
        # Lines of PG(6,2) and of PG(6,3).
        assert gaussian_binomial(7, 2, 2) == 2667
        assert gaussian_binomial(7, 2, 3) == 99463
        # Planes of PG(3,3) equal its points by duality.
        assert gaussian_binomial(4, 3, 3) == gaussian_binomial(4, 1, 3) == 40

    def test_out_of_range(self):
        assert gaussian_binomial(3, 5, 2) == 0
        assert gaussian_binomial(3, -1, 2) == 0


class TestPointTable:
    def test_point_count(self):
        for n, q in ((2, 2), (3, 3), (4, 2), (6, 2)):
            space = projective_space(n, q)
            assert len(space.points) == (q ** (n + 1) - 1) // (q - 1)

    def test_points_normalized_sorted_unique(self):
        space = projective_space(3, 4)
        pts = space.points
        assert pts == sorted(set(pts))
        for p in pts:
            assert next(x for x in p if x) == 1

    def test_normalize(self):
        space = projective_space(2, 3)
        assert space.normalize((2, 1, 0)) == (1, 2, 0)
        assert space.normalize((0, 2, 2)) == (0, 1, 1)
        with pytest.raises(ValueError):
            space.normalize((0, 0, 0))


class TestRref:
    def test_idempotent_on_random_matrices(self):
        rng = random.Random(20260823)
        for n, q in ((3, 2), (4, 3), (3, 4)):
            space = projective_space(n, q)
            for _ in range(200):
                rows = [
                    [rng.randrange(q) for _ in range(n + 1)]
                    for _ in range(rng.randrange(1, n + 2))
                ]
                rr = space.rref(rows)
                assert space.rref(rr) == rr
                for r in rows:
                    assert contains(space, rr, r)

    def test_pivot_shape(self):
        space = projective_space(4, 3)
        rr = space.rref([(0, 1, 2, 0, 1), (0, 2, 1, 1, 0), (0, 0, 0, 0, 0)])
        pivots = [next(j for j, x in enumerate(r) if x) for r in rr]
        assert pivots == sorted(set(pivots))
        for i, pc in enumerate(pivots):
            assert rr[i][pc] == 1
            for other in range(len(rr)):
                if other != i:
                    assert rr[other][pc] == 0

    def test_width_mismatch(self):
        space = projective_space(3, 2)
        with pytest.raises(ValueError):
            space.rref([(1, 0, 0)])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 2), min_size=5, max_size=5),
            min_size=1,
            max_size=5,
        )
    )
    def test_row_space_invariance(self, rows):
        """Permuting and scaling the rows never changes the canonical form."""
        space = projective_space(4, 3)
        rr = space.rref(rows)
        shuffled = list(reversed(rows)) + [rows[0]]
        assert space.rref(shuffled) == rr


# Spaces for ``reduce``; GF(4) exercises the extension-field tables.
REDUCE_SPACES = [(3, 4), (4, 3), (5, 2)]


def unreduced(space, rows, data):
    """Rows as ``LineSet.span_dim`` keeps them, each leading with 1 and 0 at
    the pivots of the rows before it, but neither in pivot order nor cleared
    above its own pivot: the RREF rows in a drawn order, each plus drawn
    multiples of the later rows whose pivot comes after its own."""
    add, mul = space.gf.add_table, space.gf.mul_table
    rows = data.draw(st.permutations(rows))
    out = []
    for i, row in enumerate(rows):
        for later in rows[i + 1:]:
            if later.index(1) > row.index(1):
                c = data.draw(st.integers(0, space.q - 1))
                row = tuple(add[a][mul[c][b]] for a, b in zip(row, later))
        out.append(row)
    return tuple(out)


class TestReduce:
    """``reduce`` against ``rref``, for RREF rows and for rows that are
    only normalized and 0 at earlier pivots."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), key=st.sampled_from(REDUCE_SPACES), cleared=st.booleans())
    def test_reduce_against_rref(self, data, key, cleared):
        space = projective_space(*key)
        vec = st.lists(st.integers(0, space.q - 1), min_size=space.width, max_size=space.width)
        rows = space.rref(data.draw(st.lists(vec, max_size=space.width)))
        if not cleared:
            rows = unreduced(space, rows, data)
        w = tuple(data.draw(vec))
        r = tuple(space.reduce(w, rows))
        assert all(r[row.index(1)] == 0 for row in rows)
        assert space.rref(rows + (w,)) == space.rref(rows + (r,))
        assert (not any(r)) == (len(space.rref(rows + (w,))) == len(rows))


def two_rref_nullspace(space, rows):
    """Referee: RREF the rows, put a basis vector on every free column,
    then RREF that basis."""
    rr = space.rref(rows)
    pivots = [next(j for j, x in enumerate(r) if x) for r in rr]
    basis = []
    for free in range(space.width):
        if free in pivots:
            continue
        v = [0] * space.width
        v[free] = 1
        for row, pc in zip(rr, pivots):
            v[pc] = space.gf.neg_table[row[free]]
        basis.append(v)
    return space.rref(basis)


NULLSPACE_SPACES = [(3, 7), (4, 2), (4, 3), (5, 2), (6, 3), (6, 5)]


class TestNullspace:
    @pytest.mark.parametrize("n, q", NULLSPACE_SPACES)
    def test_edge_cases_match_referee(self, n, q):
        space = projective_space(n, q)
        w = space.width
        unit = [tuple(int(i == j) for j in range(w)) for i in range(w)]
        last = tuple(q - 1 for _ in range(w))
        cases = [
            [],  # empty input: the whole space
            [(0,) * w],  # a zero row only
            [(0,) * w, unit[1], (0,) * w],  # zero rows around a point
            [last, last, unit[0]],  # a repeated row
            [unit[0], unit[2], [space.gf.add_table[a][b] for a, b in zip(unit[0], unit[2])]],  # a sum
            unit,  # full rank: the empty subspace
            unit[::-1] + [last],  # full rank, reversed, plus a dependent row
        ]
        for rows in cases:
            assert space.nullspace(rows) == two_rref_nullspace(space, rows), rows

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), key=st.sampled_from(NULLSPACE_SPACES))
    def test_random_rows_match_referee(self, data, key):
        space = projective_space(*key)
        row = st.lists(
            st.integers(0, space.q - 1), min_size=space.width, max_size=space.width
        )
        rows = data.draw(st.lists(row, max_size=space.width + 2))
        assert space.nullspace(rows) == two_rref_nullspace(space, rows)

    def test_double_complement(self):
        rng = random.Random(7)
        space = projective_space(4, 2)
        for _ in range(100):
            rows = [
                [rng.randrange(2) for _ in range(5)]
                for _ in range(rng.randrange(1, 5))
            ]
            rr = space.rref(rows)
            assert space.nullspace(space.nullspace(rows)) == rr

    def test_orthogonality(self):
        space = projective_space(3, 3)
        add, mul = space.gf.add_table, space.gf.mul_table
        rows = [(1, 2, 0, 1), (0, 1, 1, 2)]
        for v in space.nullspace(rows):
            for r in rows:
                dot = 0
                for a, b in zip(r, v):
                    dot = add[dot][mul[a][b]]
                assert dot == 0

    def test_dimension(self):
        space = projective_space(4, 2)
        rows = space.rref([(1, 0, 1, 0, 1), (0, 1, 0, 1, 0)])
        assert len(space.nullspace(rows)) == 5 - len(rows)


class TestAmbient:
    def test_point_bound(self):
        with pytest.raises(ValueError, match="more than 2097151 point coordinates"):
            projective_space(10, 13)
        with pytest.raises(ValueError, match="more than 2097151 point coordinates"):
            projective_space(6, 13)

    def test_coordinate_bound(self):
        """The bound is PG(6, 8)'s coordinate count, 299 593 points of 7
        coordinates, which builds; PG(15, 2) (65 535 points of 16) builds,
        and PG(16, 2) (131 071 points of 17) is refused."""
        assert gaussian_binomial(7, 1, 8) * 7 == MAX_COORDINATES
        assert len(PG(6, 8).points) == 299_593
        assert len(PG(15, 2).points) == 2**16 - 1
        message = r"^PG\(16, 2\) has more than 2097151 point coordinates$"
        with pytest.raises(ValueError, match=message):
            PG(16, 2)

    def test_dimension_bounds(self):
        """The coordinate bound alone limits n: PG(13, 2) builds, and from
        n = 16 every PG(n, q) is past the bound."""
        assert projective_space(0, 3).points == [(1,)]
        assert len(projective_space(13, 2).points) == 2**14 - 1
        with pytest.raises(ValueError, match="ambient dimension"):
            projective_space(-1, 2)
        with pytest.raises(ValueError, match="more than 2097151 point coordinates"):
            projective_space(20, 2)


class TestEnumeration:
    @pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 2)])
    def test_counts_match_gaussian_binomial(self, n, q):
        space = projective_space(n, q)
        for d in range(n + 1):
            got = sum(1 for _ in space.enumerate_subspaces(d))
            assert got == gaussian_binomial(n + 1, d + 1, q)

    def test_canonical_sorted_unique(self):
        space = projective_space(3, 3)
        subs = list(space.enumerate_subspaces(1))
        assert subs == sorted(set(subs))
        for rows in subs:
            assert space.rref(rows) == rows

    def test_dimension_range_checked(self):
        space = projective_space(3, 2)
        with pytest.raises(ValueError):
            list(space.enumerate_subspaces(4))
        with pytest.raises(ValueError):
            list(space.enumerate_subspaces(-1))

    def test_rref_matrices_full_rank(self):
        mats = list(projective_space(3, 2).rref_bases(2))
        assert len(mats) == gaussian_binomial(4, 2, 2) == 35
        assert len(set(mats)) == len(mats)

    @pytest.mark.parametrize("n, q", [(0, 2), (3, 2), (3, 3), (4, 2)])
    def test_rref_bases_equal_rref_of_point_subsets(self, n, q):
        """Every k: the sorted distinct RREFs of the k-sets of points of rank k."""
        space = projective_space(n, q)
        for k in range(space.width + 1):
            want = {
                rows
                for pts in itertools.combinations(space.points, k)
                if len(rows := space.rref(pts)) == k
            }
            assert list(space.rref_bases(k)) == sorted(want)

    def test_rref_shapes(self):
        space = projective_space(3, 2)
        assert list(space.rref_shapes(2))[:2] == [
            ((0, (2, 3)), (1, (2, 3))),
            ((0, (1, 3)), (2, (3,))),
        ]
        assert len(list(space.rref_shapes(2))) == 6
        assert list(space.rref_shapes(0)) == [()]


def random_subspace(space, rng, max_rows):
    """The RREF basis of the span of up to ``max_rows`` random rows."""
    rows = [
        [rng.randrange(space.q) for _ in range(space.width)]
        for _ in range(rng.randrange(1, max_rows + 1))
    ]
    return space.rref(rows)


def meet(space, a, b):
    """The intersection of two subspaces: the nullspace of both
    annihilators."""
    return space.nullspace(space.nullspace(a) + space.nullspace(b))


def includes(space, u, v):
    """True iff the subspace v lies in the subspace u, both RREF bases."""
    return all(contains(space, u, r) for r in v)


class TestSpanMeet:
    """The span is the RREF of both bases, and the meet the nullspace of
    both annihilators."""

    @pytest.mark.parametrize("n,q", [(4, 2), (3, 3)])
    def test_modular_dimension_law(self, n, q):
        """dim span + dim meet == dim a + dim b, over random pairs."""
        space = projective_space(n, q)
        rng = random.Random(1000 * n + q)
        for _ in range(300):
            a = random_subspace(space, rng, n)
            b = random_subspace(space, rng, n)
            sp = space.rref(a + b)
            mt = meet(space, a, b)
            assert len(sp) + len(mt) == len(a) + len(b)
            assert includes(space, sp, a) and includes(space, sp, b)
            assert includes(space, a, mt) and includes(space, b, mt)

    def test_hyperplane_meets_every_line(self):
        """In PG(3,2) a plane meets each line in a point or contains it."""
        space = projective_space(3, 2)
        plane = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
        for line in space.enumerate_subspaces(1):
            inter = meet(space, plane, line)
            if includes(space, plane, line):
                assert inter == line
            else:
                assert len(inter) == 1

    def test_disjoint_meet_is_empty(self):
        space = projective_space(3, 2)
        a = ((1, 0, 0, 0), (0, 1, 0, 0))
        b = ((0, 0, 1, 0), (0, 0, 0, 1))
        assert meet(space, a, b) == ()
        assert len(space.rref(a + b)) == 4

    def test_ambient_mismatch(self):
        """A row tuple carries no space: only a basis of another width is
        refused."""
        space = projective_space(3, 2)
        with pytest.raises(ValueError, match="row width"):
            LineSet(space, []).lines_in([(1, 0, 0, 0, 0)])


class TestMemo:
    def test_rref_bases_same_tuple_after_other_spaces(self):
        """The table lives in its space: the bases of 70 other (space, k)
        pairs do not push it out, as they did from a 64-entry LRU."""
        first = projective_space(4, 2).rref_bases(2)
        for q in (2, 3, 4, 5, 7, 8, 9):
            for n in range(4):
                for k in range(1, n + 2):
                    projective_space(n, q).rref_bases(k)
        assert projective_space(4, 2).rref_bases(2) is first

    def test_rref_bases_does_not_pin_its_space(self):
        space = PG(3, 2)
        space.rref_bases(2)
        ref = weakref.ref(space)
        del space
        gc.collect()
        assert ref() is None


class TestPointSlices:
    """The point table's bit slices are a table of the space, built on
    first use, as the search's in-run audits of one space need them."""

    def test_not_built_by_init(self):
        assert "point_slices" not in vars(PG(4, 2))

    def test_two_audits_build_them_once(self, monkeypatch):
        space = PG(4, 3)
        built = []
        real = pg_module.bit_slices

        def counted(vectors, width, q):
            built.append(vectors is space.points)
            return real(vectors, width, q)

        monkeypatch.setattr(pg_module, "bit_slices", counted)
        pts = space.points
        for pairs in (((0, 1), (0, 2)), ((3, 40), (5, 77), (6, 100))):
            ls = LineSet(space, [(pts[a], pts[b]) for a, b in pairs])
            audit(ls, AxiomConfig.all())
        assert built == [True]
        assert space.point_slices == real(pts, space.width, space.q)
        for k, col in enumerate(space.point_slices):
            for a, mask in enumerate(col):
                assert mask == sum(1 << i for i, p in enumerate(pts) if p[k] == a)


class TestRrefRowIndices:
    @pytest.mark.parametrize("n, q", [(2, 3), (4, 2), (3, 4), (4, 5)])
    def test_equals_filtered_point_table(self, n, q):
        """Every pivot and free-column set: the points with a 1 at the pivot,
        0 at every other column that is not free, in point order."""
        space = projective_space(n, q)
        w = space.width
        for pivot in range(w):
            after = range(pivot + 1, w)
            for size in range(len(after) + 1):
                for free in itertools.combinations(after, size):
                    want = tuple(
                        i
                        for i, p in enumerate(space.points)
                        if p[pivot] == 1
                        and all(p[j] == 0 for j in range(w) if j not in free + (pivot,))
                    )
                    assert space.rref_row_indices(pivot, free) == want

    def test_same_tuple_on_every_call(self):
        space = projective_space(4, 3)
        assert space.rref_row_indices(1, (2, 4)) is space.rref_row_indices(1, (2, 4))


class TestLines:
    def test_line_through(self):
        space = projective_space(3, 3)
        assert len(space.rref(((1, 0, 0, 0), (0, 1, 2, 0)))) == 2
        assert space.rref(((1, 0, 0, 0), (2, 0, 0, 0))) == ((1, 0, 0, 0),)
        with pytest.raises(ValueError, match="not a line: projdim 0"):
            LineSet(space, [((1, 0, 0, 0), (2, 0, 0, 0))])

    def test_line_point_indices(self):
        space = projective_space(3, 3)
        line = space.rref(((1, 0, 0, 0), (0, 0, 1, 1)))
        idx = space.line_point_indices(line)
        assert len(idx) == space.q + 1
        assert list(idx) == sorted(set(idx))
        for i in idx:
            assert contains(space, line, space.points[i])


# Spaces for the two-point line properties: n <= 6, GF(4) among the fields.
LINE_SPACES = [(1, 2), (2, 4), (3, 3), (4, 5), (5, 4), (6, 2), (6, 3), (6, 4), (6, 5)]


def sorted_line_points(space, rows):
    """Referee: y and every x + c*y, normalized, looked up and sorted."""
    x, y = rows
    add, mul = space.gf.add_table, space.gf.mul_table
    vecs = [y] + [tuple(add[a][mul[c][b]] for a, b in zip(x, y)) for c in range(space.q)]
    return tuple(sorted(space.point_index[space.normalize(v)] for v in vecs))


def two_distinct_points(data, space):
    i, j = data.draw(
        st.lists(st.integers(0, len(space.points) - 1), min_size=2, max_size=2, unique=True)
    )
    return space.points[i], space.points[j]


def eliminated(space, rows):
    """Referee: ``rref`` of the rows plus a zero row, the same span, which
    takes elimination rather than the two-point ``join``."""
    return space.rref(list(rows) + [(0,) * space.width])


def combine(space, s, x, t, y):
    """The vector s*x + t*y."""
    add, mul = space.gf.add_table, space.gf.mul_table
    return tuple(add[mul[s][a]][mul[t][b]] for a, b in zip(x, y))


class TestTwoPointLines:
    """``join`` and ``line_point_indices`` against elimination and the
    normalize-and-sort definition."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), key=st.sampled_from(LINE_SPACES))
    def test_join_equals_rref(self, data, key):
        space = projective_space(*key)
        u, v = two_distinct_points(data, space)
        assert space.join(u, v) == eliminated(space, (u, v))
        assert space.join(v, u) == eliminated(space, (u, v))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), key=st.sampled_from(LINE_SPACES))
    def test_line_point_indices_equal_sorted_definition(self, data, key):
        space = projective_space(*key)
        rows = space.join(*two_distinct_points(data, space))
        assert space.line_point_indices(rows) == sorted_line_points(space, rows)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), key=st.sampled_from(LINE_SPACES))
    def test_lineset_from_any_basis(self, data, key):
        """Scaled, swapped or unreduced bases (a, b) = M (x, y), M any
        invertible 2x2 matrix, give the sorted distinct canonical bases,
        and each such basis is found by ``in``."""
        space = projective_space(*key)
        sub, mul = space.gf.sub_table, space.gf.mul_table
        element = st.integers(0, space.q - 1)
        keys, bases = [], []
        for _ in range(data.draw(st.integers(1, 4))):
            x, y = space.join(*two_distinct_points(data, space))
            m = data.draw(
                st.lists(element, min_size=4, max_size=4).filter(
                    lambda m: sub[mul[m[0]][m[3]]][mul[m[1]][m[2]]]
                )
            )
            a, b = (combine(space, s, x, t, y) for s, t in (m[:2], m[2:]))
            keys.append((x, y))
            bases.append((list(a), b))
        ls = LineSet(space, bases)
        assert ls.lines == tuple(sorted(set(keys)))
        assert all(basis in ls for basis in bases)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), key=st.sampled_from(LINE_SPACES))
    def test_contains_any_basis_of_a_member(self, data, key):
        """``in`` finds a member line (x, y) given as (y, x), as scaled
        rows and as (x, x + y), and refuses a line through x that is not
        a member."""
        space = projective_space(*key)
        x, y = space.join(*two_distinct_points(data, space))
        s, t = data.draw(st.lists(st.integers(1, space.q - 1), min_size=2, max_size=2))
        ls = LineSet(space, [(x, y)])
        assert (y, x) in ls
        assert (combine(space, s, x, 0, y), combine(space, 0, x, t, y)) in ls
        assert (x, combine(space, 1, x, 1, y)) in ls
        p = space.points[data.draw(st.integers(0, len(space.points) - 1))]
        if len(space.rref((x, y, p))) == 3:
            assert (x, p) not in ls

    @pytest.mark.parametrize(
        "rows",
        [
            [(1, 0, 2, 1), (1, 0, 2, 1)],  # a repeated point
            [(2, 0, 0, 0), (1, 0, 0, 0)],  # a scalar multiple
            [(0, 0, 0, 0), (0, 1, 1, 0)],  # a zero row
            [(0, 0, 0, 0), (0, 0, 0, 0)],
            [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)],  # three rows on a line
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)],
        ],
    )
    def test_line_basis_is_rref_on_any_rows(self, rows):
        """Rows that are not two distinct points skip ``rref``'s join and
        get the basis that elimination gives."""
        space = projective_space(3, 3)
        assert space.rref(rows) == eliminated(space, rows)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), key=st.sampled_from([(3, 3), (4, 4), (5, 2)]))
    def test_rref_of_two_rows_equals_elimination(self, data, key):
        """Any two rows, a second row that is a multiple of the first
        among them, through ``rref``'s join and through elimination."""
        space = projective_space(*key)
        vec = st.lists(st.integers(0, space.q - 1), min_size=space.width, max_size=space.width)
        u = data.draw(vec)
        if data.draw(st.booleans()):
            v = combine(space, data.draw(st.integers(0, space.q - 1)), u, 0, u)
        else:
            v = data.draw(vec)
        assert space.rref([u, v]) == eliminated(space, [u, v])


class TestSpanDim:
    @pytest.mark.parametrize("n,q", [(3, 4), (4, 3), (5, 2), (6, 2)])
    def test_equals_rank_of_all_rows(self, n, q):
        """Lines drawn inside random subspaces, so that spans below n occur
        as well as the whole space."""
        space = projective_space(n, q)
        rng = random.Random(100 * n + q)
        seen = set()
        for _ in range(60):
            pts = list(space.subspace_points(random_subspace(space, rng, n + 1)))
            if len(pts) < 2:
                continue
            lines = [space.join(*rng.sample(pts, 2)) for _ in range(rng.randrange(1, 6))]
            ls = LineSet(space, lines)
            want = len(space.rref([r for key in ls.lines for r in key])) - 1
            assert ls.span_dim() == want
            seen.add(want)
        assert n in seen and any(d < n for d in seen)


def brute_pencil(space, x, plane_rows):
    """Referee: join x to every other point of the plane, reduce by
    elimination, dedupe."""
    return sorted({eliminated(space, (x, y)) for y in space.subspace_points(plane_rows) if y != x})


class TestPencil:
    @pytest.mark.parametrize("n, q", [(3, 2), (3, 3), (3, 4), (4, 3)])
    def test_equals_brute_force_on_every_plane(self, n, q):
        space = projective_space(n, q)
        rng = random.Random(n * 100 + q)
        picks = {0, len(space.points) - 1, *rng.sample(range(len(space.points)), 4)}
        for i in sorted(picks):
            x = space.points[i]
            for plane_rows in space.subspaces_through_rows((x,), 2):
                pencil = space.pencil(x, plane_rows)
                assert len(pencil) == q + 1
                assert pencil == brute_pencil(space, x, plane_rows)


class TestSubspacesThrough:
    def test_count_matches_quotient_oracle(self):
        space = projective_space(4, 2)
        line = space.rref(((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)))
        for d in (2, 3, 4):
            mats = space.subspaces_through_rows(line, d)
            # Oracle: subspaces through a fixed k-space of PG(n,q) biject
            # with (d-k)-subspaces of the quotient PG(n-k-1, q).
            expected = gaussian_binomial(space.width - 2, d - 1, 2)
            assert len(set(mats)) == len(mats) == expected
            for rows in mats:
                assert len(rows) == d + 1
                assert includes(space, rows, line)

    def test_equals_filtered_enumeration(self):
        space = projective_space(4, 2)
        point = (0, 1, 0, 1, 1)
        via_lift = set(space.subspaces_through_rows((point,), 2))
        via_filter = {
            rows
            for rows in space.enumerate_subspaces(2)
            if contains(space, rows, point)
        }
        assert via_lift == via_filter

    def test_canonical_and_sorted(self):
        """Canonical bases, which sorted come in the enumeration's order."""
        space = projective_space(3, 3)
        line = space.rref(((1, 0, 0, 1), (0, 1, 1, 0)))
        mats = space.subspaces_through_rows(line, 2)
        for rows in mats:
            assert space.rref(rows) == rows
        want = [rows for rows in space.enumerate_subspaces(2) if includes(space, rows, line)]
        assert sorted(mats) == want

    def test_bad_dimension_rejected(self):
        space = projective_space(3, 2)
        line = space.rref(((1, 0, 0, 0), (0, 1, 0, 0)))
        with pytest.raises(ValueError):
            space.subspaces_through_rows(line, 1)
        with pytest.raises(ValueError):
            space.subspaces_through_rows(line, 4)


class TestPlucker:
    def test_antisymmetry_and_diagonal(self):
        space = projective_space(3, 3)
        p = plucker(space, ((1, 0, 2, 1), (0, 1, 1, 1)))
        for i in range(4):
            assert p(i, i) == 0
            for j in range(4):
                assert p(i, j) == space.gf.neg_table[p(j, i)]

    def test_basis_invariance(self):
        space = projective_space(3, 3)
        gf = space.gf
        x, y = (1, 0, 2, 1), (0, 1, 1, 1)
        p_ref = PluckerCoords(gf, x, y).vector()
        # Every other basis of the same line gives the same coordinates.
        pts = [space.points[i] for i in space.line_point_indices(space.rref((x, y)))]
        for a, b in itertools.permutations(pts, 2):
            assert PluckerCoords(gf, a, b).vector() == p_ref

    def test_canonical_scaling(self):
        space = projective_space(2, 5)
        p = plucker(space, ((1, 0, 3), (0, 1, 4)))
        vec = p.vector()
        assert next(x for x in vec if x) == 1

    def test_degenerate_basis_rejected(self):
        gf = projective_space(2, 2).gf
        with pytest.raises(ValueError):
            PluckerCoords(gf, (1, 0, 1), (1, 0, 1))

    def test_non_line_rejected(self):
        space = projective_space(3, 2)
        plane = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
        with pytest.raises(ValueError):
            plucker(space, plane)


class TestSubspaceObject:
    """A subspace is its RREF row tuple: ``subspace_points`` against the
    points that ``reduce`` puts inside it, and tuple equality."""

    def test_points_of_subspace(self):
        space = projective_space(4, 3)
        sub = space.rref([(1, 0, 0, 1, 2), (0, 1, 1, 0, 0), (0, 0, 1, 1, 1)])
        pts = list(space.subspace_points(sub))
        assert len(pts) == (3 ** len(sub) - 1) // 2
        assert sorted(pts) == [p for p in space.points if contains(space, sub, p)]

    def test_points_of_any_basis(self):
        """A basis that is not in RREF gives the points of its RREF, each
        normalized: the two rows of a line of PG(2, 3) and random bases."""
        space = projective_space(2, 3)
        rows = ((1, 1, 0), (1, 0, 0))
        assert list(space.subspace_points(rows)) == [(0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0)]
        rng = random.Random(25)
        for n, q in ((2, 3), (3, 4), (4, 3), (5, 2)):
            space = projective_space(n, q)
            for _ in range(40):
                rows = [
                    [rng.randrange(q) for _ in range(n + 1)] for _ in range(rng.randrange(1, n + 2))
                ]
                pts = list(space.subspace_points(rows))
                assert pts == list(space.subspace_points(space.rref(rows)))
                assert all(p in space.point_index for p in pts)

    def test_points_of_empty_point_and_plane(self):
        space = projective_space(3, 3)
        assert list(space.subspace_points(())) == []
        assert list(space.subspace_points(space.rref([(0, 2, 1, 0)]))) == [(0, 1, 2, 0)]
        plane = space.rref([(1, 0, 0, 2), (0, 1, 0, 1), (0, 0, 1, 1)])
        want = [p for p in space.points if contains(space, plane, p)]
        assert sorted(space.subspace_points(plane)) == want
        assert len(want) == 13

    def test_eq_hash_order(self):
        space = projective_space(3, 2)
        a = space.rref([(1, 0, 0, 0), (0, 1, 0, 0)])
        b = space.rref([(0, 1, 0, 0), (1, 0, 0, 0)])
        c = space.rref([(1, 0, 0, 0), (0, 0, 1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_empty_and_whole(self):
        space = projective_space(3, 2)
        assert space.rref([(0, 0, 0, 0)]) == ()
        whole = whole_space(space)
        assert space.rref_bases(space.width) == (whole,)
        assert list(space.subspace_points(whole)) == space.points
