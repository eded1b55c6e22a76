"""Slow referees that only the tests call: the closure enumeration of the
audit's counts and Plücker coordinates of a line.

Plücker coordinates are stored for i < j; the signed accessor returns
``-p_ij`` when asked for ``p(j, i)``.  In characteristic 2 the sign is
immaterial, but the convention is applied uniformly.
"""

from __future__ import annotations

from collections import Counter

from hexaudit.gf import GF
from hexaudit.lineset import LineSet
from hexaudit.pg import PG, Subspace


def closure_counts(ls: LineSet, d: int) -> Counter:
    """Map canonical basis -> |L_U| over d-subspaces meeting L, by hashing
    every d-subspace through every line."""
    counts: Counter = Counter()
    for key in ls.lines:
        counts.update(ls.space.subspaces_through_rows(key, d))
    return counts


class PluckerCoords:
    """Grassmann coordinates of a line, canonically rescaled.

    Stores ``p_ij`` for i < j with the first nonzero coordinate (in
    lexicographic (i, j) order) scaled to 1.  The call accessor applies
    the antisymmetric convention ``p(j, i) == -p(i, j)``.
    """

    __slots__ = ("gf", "raw")

    def __init__(self, gf: GF, x, y):
        mul, sub = gf.mul_table, gf.sub_table
        width = len(x)
        raw = {}
        for i in range(width):
            for j in range(i + 1, width):
                raw[(i, j)] = sub[mul[x[i]][y[j]]][mul[x[j]][y[i]]]
        scale = None
        for key in sorted(raw):
            if raw[key]:
                scale = gf.inv(raw[key])
                break
        if scale is None:
            raise ValueError("degenerate basis: all Plücker coordinates vanish")
        if scale != 1:
            mt = mul[scale]
            raw = {key: mt[v] for key, v in raw.items()}
        self.gf = gf
        self.raw = raw

    def __call__(self, i: int, j: int) -> int:
        if i == j:
            return 0
        if i < j:
            return self.raw[(i, j)]
        return self.gf.neg_table[self.raw[(j, i)]]

    def vector(self) -> tuple[int, ...]:
        return tuple(self.raw[key] for key in sorted(self.raw))


def plucker(space: PG, line: Subspace) -> PluckerCoords:
    """The Plücker coordinates of a line of ``space``."""
    space.check_ambient(line.space)
    if line.projdim != 1:
        raise ValueError(f"expected a line, got projdim {line.projdim}")
    return PluckerCoords(space.gf, line.rows[0], line.rows[1])
