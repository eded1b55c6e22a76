"""Slow referees that only the tests call: the closure enumeration of the
audit's counts, Plücker coordinates of a line and the bit-sliced vectors
orthogonal to one form; and, for a subspace given by its RREF rows,
membership of a vector and the rows of the whole space.

Plücker coordinates are stored for i < j; the signed accessor returns
``-p_ij`` when asked for ``p(j, i)``.  In characteristic 2 the sign is
immaterial, but the convention is applied uniformly.
"""

from __future__ import annotations

from collections import Counter

from hexaudit.audit import _step
from hexaudit.gf import GF
from hexaudit.lineset import LineSet
from hexaudit.pg import PG


def contains(space: PG, rows, v) -> bool:
    """True iff the vector v lies in the subspace with RREF basis ``rows``."""
    return not any(space.reduce(v, rows))


def whole_space(space: PG) -> tuple:
    """The RREF basis of the whole space: the identity rows."""
    w = space.width
    return tuple(tuple(int(i == j) for j in range(w)) for i in range(w))


def orthogonal(sl, form, gf: GF) -> int:
    """The bitmask of the vectors v with form . v == 0, the vectors being
    those of the slices ``sl``: one sum over every coordinate of the form
    (the slices of one coordinate sum to all vectors)."""
    part = [sum(sl[0])] + [0] * (gf.q - 1)
    for col, f in zip(sl, form):
        part = _step(part, col, f, gf)
    return part[0]


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


def plucker(space: PG, rows) -> PluckerCoords:
    """The Plücker coordinates of the line of ``space`` spanned by ``rows``."""
    rows = space.rref(rows)
    if len(rows) != 2:
        raise ValueError(f"expected a line, got projdim {len(rows) - 1}")
    return PluckerCoords(space.gf, *rows)
