"""Line sets under audit, with point/line incidence indexes."""

from __future__ import annotations

from .pg import PG


class LineSet:
    """An immutable set of projective lines with incidence indexes.

    Lines are stored as canonical RREF basis pairs, deduplicated and
    sorted, so equal sets always serialize identically.  The indexes map
    point indices (into the ambient point table) to the incident lines
    of the set and back.
    """

    def __init__(self, space: PG, lines, *, canonical: bool = False):
        self.space = space
        keys = set()
        for rows in lines:
            rows = tuple(map(tuple, rows)) if canonical else space.line_basis(rows)
            if len(rows) != 2:
                raise ValueError(f"not a line: projdim {len(rows) - 1}")
            keys.add(rows)
        self.lines: tuple = tuple(sorted(keys))
        self.line_points: tuple = tuple(
            space.line_point_indices(rows) for rows in self.lines
        )
        point_lines: dict[int, list[int]] = {}
        for li, pts in enumerate(self.line_points):
            for pi in pts:
                point_lines.setdefault(pi, []).append(li)
        self.point_lines: dict[int, tuple[int, ...]] = {
            pi: tuple(ls) for pi, ls in sorted(point_lines.items())
        }
        self._keys = frozenset(self.lines)

    @property
    def q(self) -> int:
        return self.space.q

    @property
    def n(self) -> int:
        return self.space.n

    def __len__(self):
        return len(self.lines)

    def __contains__(self, rows) -> bool:
        return tuple(tuple(r) for r in rows) in self._keys

    def line_through(self, a: int, b: int) -> int | None:
        """Id of the line of the set through the distinct points a and b, or None."""
        for li in self.point_lines.get(a, ()):
            if b in self.line_points[li]:
                return li
        return None

    def pencil_span(self, point_index: int) -> tuple:
        """The RREF basis of the span of the lines of the set through the point."""
        return self.space.rref(r for li in self.point_lines[point_index] for r in self.lines[li])

    def span_dim(self) -> int:
        """Projective dimension of the span of all covered points.

        The lines' rows are reduced one at a time (``PG.reduce``) against
        the basis so far, whose rows, normalized reductions in the order
        found, are each 0 at the pivots of the rows before it; the
        reduction stops at full rank.
        """
        space = self.space
        basis: list[tuple] = []
        for row in (r for key in self.lines for r in key):
            w = space.reduce(row, basis)
            if any(w):
                basis.append(space.normalize(w))
                if len(basis) == space.width:
                    break
        return len(basis) - 1

    def lines_in(self, rows) -> set[int]:
        """Ids of the lines of the set inside the subspace spanned by
        ``rows``, any basis; |L_U| is its size."""
        space = self.space
        rows = space.rref(rows)
        return {
            li
            for li, (x, y) in enumerate(self.lines)
            if not any(space.reduce(x, rows)) and not any(space.reduce(y, rows))
        }

    def __eq__(self, other):
        return (
            isinstance(other, LineSet)
            and other.space.key == self.space.key
            and other.lines == self.lines
        )

    def __hash__(self):
        return hash((self.space.key, self.lines))

    def __repr__(self):
        return f"LineSet(PG{self.space.key}, {len(self.lines)} lines)"
