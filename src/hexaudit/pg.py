"""Projective space PG(n, q): canonical subspaces, nullspaces, enumeration.

Conventions, fixed once for the whole package:

* A projective point is a normalized coordinate tuple: the leftmost
  nonzero coordinate equals 1, giving a unique representative.
* A subspace is the reduced row echelon form (RREF) of any basis matrix
  of its underlying vector subspace, a tuple of row tuples; there is no
  other subspace type.  ``rref``, the one canonicalizer, makes it from
  any basis, and each line or subspace an entry point takes goes through
  it.  Projective dimension is ``len(rows) - 1``; ``()`` is the empty
  subspace (projdim -1), and the identity rows are the whole space.
* Enumeration order is lexicographic on the RREF matrix read row-major
  by integer element code, so all streams and file outputs are stable.
* ``PG.reduce`` is the one row step of ``join``, ``LineSet.lines_in`` and
  ``LineSet.span_dim``: v lies in the subspace ``rows`` exactly when
  ``not any(reduce(v, rows))``.  ``rref`` and ``subspaces_through_rows``
  keep their own loops, which measured faster.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property

from .gf import GF, field


def gaussian_binomial(n_dim: int, k: int, q: int) -> int:
    """Number of k-dimensional vector subspaces of GF(q)^n_dim.

    Equivalently the number of (k-1)-dimensional projective subspaces of
    PG(n_dim - 1, q).  Exact integer product formula.
    """
    if k < 0 or k > n_dim:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n_dim - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def bit_slices(vectors, width: int, q: int) -> list[list[int]]:
    """``sl[k][a]``: the bitmask of the vectors whose coordinate k is a."""
    sl = [[0] * q for _ in range(width)]
    for i, v in enumerate(vectors):
        bit = 1 << i
        for col, a in zip(sl, v):
            col[a] |= bit
    return sl


# Bounds the point table before it is built, and with it n, by its
# coordinate count, points times n + 1: that of PG(6, 8), 299 593 points of
# 7 coordinates, adds 50 MB of peak RSS and takes 0.2 s (2-core VM, Python
# 3.11.7), and the table grows linearly in its coordinates.
MAX_COORDINATES = (1 << 21) - 1


class PG:
    """PG(n, q) with interned point table and subspace machinery."""

    def __init__(self, n: int, q: int):
        if n < 0:
            raise ValueError(f"ambient dimension {n} not supported")
        self.n = n
        self.q = q
        self.gf: GF = field(q)
        # PG(n, q) has at least 2^(n+1) - 1 points of n + 1 coordinates,
        # past the bound from n = 16, so an n of 20 or more is refused
        # before q^(n+1), a number of n bits or more, is computed.
        self.width = n + 1
        if n >= 20 or gaussian_binomial(self.width, 1, q) * self.width > MAX_COORDINATES:
            raise ValueError(f"PG({n}, {q}) has more than {MAX_COORDINATES} point coordinates")
        pts = []
        for lead in range(self.width):
            prefix = (0,) * lead + (1,)
            for tail in itertools.product(range(q), repeat=self.width - lead - 1):
                pts.append(prefix + tail)
        pts.sort()
        self.points: list[tuple[int, ...]] = pts
        self.point_index: dict[tuple[int, ...], int] = {
            p: i for i, p in enumerate(pts)
        }
        self.key = (n, q)
        self._rref_rows: dict = {}
        self._rref_bases: dict = {}

    @cached_property
    def point_slices(self) -> list[list[int]]:
        """``bit_slices`` of the point table, built on first use."""
        return bit_slices(self.points, self.width, self.q)

    # -- vectors --

    def normalize(self, v) -> tuple[int, ...]:
        gf = self.gf
        for x in v:
            if x:
                if x == 1:
                    return tuple(v)
                mt = gf.mul_table[gf.inv(x)]
                return tuple(mt[c] for c in v)
        raise ValueError("cannot normalize the zero vector")

    def reduce(self, w, rows):
        """w minus, for each row in turn, w's entry at the row's pivot times
        the row (w itself if no row touches it).  Each row leads with 1 and
        is 0 at the pivots of the rows before it, as in echelon order, so
        the result is 0 at every pivot, and all 0 exactly when w is in the
        rows' span."""
        sub, mul = self.gf.sub_table, self.gf.mul_table
        for row in rows:
            c = w[row.index(1)]
            if c:
                mt = mul[c]
                w = [sub[a][mt[b]] for a, b in zip(w, row)]
        return w

    def rref(self, rows) -> tuple[tuple[int, ...], ...]:
        """Canonical reduced row echelon form; zero rows are dropped.  Two
        nonzero rows that are not proportional, the usual basis of a line,
        are normalized and joined; other rows go through elimination."""
        rows = tuple(rows)
        if len(rows) == 2:
            u, v = rows
            if len(u) == len(v) == self.width and any(u) and any(v):
                u, v = self.normalize(u), self.normalize(v)
                if u != v:
                    return self.join(u, v)
        if any(len(r) != self.width for r in rows):
            raise ValueError("row width does not match ambient space")
        m = [list(r) for r in rows]
        gf = self.gf
        mul, sub, inv = gf.mul_table, gf.sub_table, gf.inv_table
        nrows = len(m)
        prow = 0
        for col in range(self.width):
            sel = None
            for r in range(prow, nrows):
                if m[r][col]:
                    sel = r
                    break
            if sel is None:
                continue
            m[prow], m[sel] = m[sel], m[prow]
            row = m[prow]
            c = row[col]
            if c != 1:
                mt = mul[inv[c]]
                for j in range(col, self.width):
                    row[j] = mt[row[j]]
            for r in range(nrows):
                if r != prow and m[r][col]:
                    mt = mul[m[r][col]]
                    other = m[r]
                    for j in range(col, self.width):
                        if row[j]:
                            other[j] = sub[other[j]][mt[row[j]]]
            prow += 1
            if prow == nrows:
                break
        return tuple(tuple(r) for r in m[:prow])

    def nullspace(self, rows) -> tuple[tuple[int, ...], ...]:
        """Canonical basis of ``{x : rows @ x == 0}`` (w.r.t. the dot form).

        One reduction, from the right: in the RREF of the column-reversed
        rows, each row ends in a 1 at a column where the other rows are 0.
        For every other column j, e_j - sum(row[j] * e_end) is then already
        the canonical basis row with pivot j.
        """
        w = self.width
        neg = self.gf.neg_table
        ends = {w - 1 - r.index(1): r[::-1] for r in self.rref([r[::-1] for r in rows])}
        basis = []
        for j in range(w):
            if j not in ends:
                v = [0] * w
                v[j] = 1
                for end, row in ends.items():
                    v[end] = neg[row[j]]
                basis.append(tuple(v))
        return tuple(basis)

    def rref_shapes(self, k: int):
        """Yield the shape of every k-row RREF matrix: per pivot set, in
        ``itertools.combinations`` order, its rows as (pivot, free columns)
        pairs, the free columns being those after the pivot that hold no
        other pivot."""
        for pivots in itertools.combinations(range(self.width), k):
            yield tuple(
                (p, tuple(j for j in range(p + 1, self.width) if j not in pivots))
                for p in pivots
            )

    def rref_bases(self, k: int) -> tuple:
        """Sorted canonical bases of all (k-1)-dimensional subspaces, each row
        a tuple of the point table.  Memoized per space."""
        if k not in self._rref_bases:
            pts = self.points
            self._rref_bases[k] = tuple(sorted(
                tuple(map(pts.__getitem__, rows))
                for shape in self.rref_shapes(k)
                for rows in itertools.product(
                    *(self.rref_row_indices(p, free) for p, free in shape)
                )
            ))
        return self._rref_bases[k]

    def rref_row_indices(self, pivot: int, free: tuple[int, ...]) -> tuple[int, ...]:
        """Point indices, in point order, of the RREF rows with a 1 at ``pivot``,
        any values at the columns ``free`` (all after it) and 0 elsewhere.
        Memoized per space."""
        key, w = (pivot, free), self.width
        if key not in self._rref_rows:
            head = (0,) * pivot + (1,)
            cols = [range(self.q) if j in free else (0,) for j in range(pivot + 1, w)]
            self._rref_rows[key] = tuple(
                self.point_index[head + tail] for tail in itertools.product(*cols)
            )
        return self._rref_rows[key]

    # -- subspaces --

    def join(self, u, v) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Canonical basis of the line through the distinct points u and v,
        normalized tuples.

        With equal pivots, v is first replaced by v reduced by u, normalized,
        whose pivot comes later.  Of two normalized points with pivots
        a < b, the later one is already the second RREF row, and the earlier
        one reduced by it, the only other row operation, is the first.
        """
        pu, pv = u.index(1), v.index(1)
        if pu == pv:
            v = self.normalize(self.reduce(v, (u,)))
            pv = v.index(1)
        if pv < pu:
            u, v = v, u
        return (tuple(self.reduce(u, (v,))), v)

    def line_point_indices(self, rows) -> tuple[int, ...]:
        """Indices, ascending, of the q+1 points on the line with canonical
        basis ``rows``.

        For an RREF basis (x, y), y and every x + c*y lead with a 1, so none
        needs normalizing, and they are listed in point-table order: y has
        a 0 at x's pivot, and x + c*y holds c at y's pivot.
        """
        x, y = rows
        add, mul = self.gf.add_table, self.gf.mul_table
        idx = self.point_index
        out = [idx[y], idx[x]]
        for c in range(1, self.q):
            mt = mul[c]
            out.append(idx[tuple([add[a][mt[b]] for a, b in zip(x, y)])])
        return tuple(out)

    def missing_line(self, x, plane) -> tuple:
        """Two of the three RREF rows of a plane through the point x, spanning
        a line of the plane that misses x.

        x has its pivot coordinates as coefficients on the rows (each row
        leads with 1), so the two rows left after dropping one that x uses
        do not span x.
        """
        drop = next(r for r in plane if x[r.index(1)])
        return tuple(r for r in plane if r is not drop)

    def pencil(self, x, plane) -> list:
        """Sorted canonical bases of the q+1 lines through the point x in a plane:
        x joined to each point of ``missing_line(x, plane)``.

        ``plane`` must be the three RREF rows of a plane that contains x.
        """
        pts = self.points
        line = self.line_point_indices(self.missing_line(x, plane))
        return sorted(self.join(x, pts[z]) for z in line)

    def enumerate_subspaces(self, d: int):
        """The RREF bases of all d-dimensional subspaces, in lexicographic order."""
        if not 0 <= d <= self.n:
            raise ValueError(f"dimension {d} out of range for PG({self.n}, {self.q})")
        yield from self.rref_bases(d + 1)

    def subspace_points(self, rows):
        """Yield the points of the subspace spanned by ``rows``, any basis,
        each exactly once (none for no rows).

        They are the combinations of the RREF rows by the points of
        PG(k-1, q).  A point's first nonzero coefficient is a 1, on a row
        whose pivot column is 0 in every later row, so each combination
        leads with that 1 and is already normalized.
        """
        rows = self.rref(rows)
        if not rows:
            return
        add, mul = self.gf.add_table, self.gf.mul_table
        for coeffs in projective_space(len(rows) - 1, self.q).points:
            v = [0] * self.width
            for c, row in zip(coeffs, rows):
                if c:
                    mt = mul[c]
                    for j, x in enumerate(row):
                        if x:
                            v[j] = add[v[j]][mt[x]]
            yield tuple(v)

    def subspaces_through_rows(self, frows, d: int):
        """Canonical bases of all d-subspaces containing the RREF basis ``frows``.

        Unsorted.  Each is ``frows`` plus the rows of a subspace of the
        quotient space, on the columns that are not pivots of ``frows``,
        lifted; only the pivot columns of the lifted rows need clearing from
        the fixed rows -- no full Gaussian elimination.
        """
        k = len(frows)
        r = d + 1 - k
        if r <= 0:
            raise ValueError("target dimension must exceed the subspace dimension")
        if d > self.n:
            raise ValueError(f"dimension {d} out of range for PG({self.n}, {self.q})")
        width = self.width
        fpivots = [row.index(1) for row in frows]
        comp = [j for j in range(width) if j not in fpivots]
        mul, sub = self.gf.mul_table, self.gf.sub_table
        out = []
        for qrows in projective_space(width - k - 1, self.q).rref_bases(r):
            fr = [list(row) for row in frows]
            tagged = list(zip(fpivots, fr))
            for u in qrows:
                w = [0] * width
                for j, c in enumerate(comp):
                    w[c] = u[j]
                pc = comp[u.index(1)]
                for row in fr:
                    c = row[pc]
                    if c:
                        mt = mul[c]
                        for j in comp:
                            if w[j]:
                                row[j] = sub[row[j]][mt[w[j]]]
                tagged.append((pc, w))
            tagged.sort(key=lambda t: t[0])
            out.append(tuple(tuple(row) for _, row in tagged))
        return out

    def __repr__(self):
        return f"PG({self.n}, {self.q})"


@cache
def projective_space(n: int, q: int) -> PG:
    """Shared PG(n, q) instance; geometry tables are immutable."""
    return PG(n, q)
