"""Strongly-regular-graph feasibility tests.

The restriction used downstream: a girth-5, diameter-2, (q+1)-regular
graph arising from the full-pencil points of a 4-space is strongly
regular with parameters (q^2 + 2q + 2, q + 1, 0, 1); unless it is a
conference graph its eigenvalues must be integers, which forces 1 + 4q
to be an odd perfect square, i.e. q = u(u+1).  All feasibility
decisions use exact integer arithmetic.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class SrgParams(NamedTuple("SrgParams", [("v", int), ("k", int), ("lam", int), ("mu", int)])):
    """Parameters (v, k, lambda, mu) that pass the basic feasibility checks."""

    __slots__ = ()

    def __new__(cls, v: int, k: int, lam: int, mu: int):
        if min(v, k, lam, mu) < 0:
            raise ValueError("parameters must be non-negative")
        if k >= v:
            raise ValueError("need k < v")
        if mu > k:
            raise ValueError("need mu <= k")
        if mu > 0 and k * (k - lam - 1) != (v - k - 1) * mu:
            raise ValueError("parameter identity k(k-lam-1) = (v-k-1)mu violated")
        return super().__new__(cls, v, k, lam, mu)

    @classmethod
    def _make(cls, iterable):
        """Build through ``__new__``'s checks; ``_replace`` calls this too."""
        return cls(*iterable)


def eigenvalues(p: SrgParams) -> tuple[float, float]:
    """The two non-principal eigenvalues, standard sign convention.

    ((lam - mu) +/- sqrt((lam - mu)^2 + 4(k - mu))) / 2, returned as
    (r, s) with r >= s; for the Petersen parameters (10, 3, 0, 1) this
    gives (1, -2).  See also :func:`eigenvalues_displayed_sign`.
    """
    d = p.lam - p.mu
    disc = math.sqrt(d * d + 4 * (p.k - p.mu))
    return (d + disc) / 2, (d - disc) / 2


def eigenvalues_displayed_sign(p: SrgParams) -> tuple[float, float]:
    """The same expression with (mu - lam) in place of (lam - mu): the pair
    (-s, -r) of :func:`eigenvalues`, bit for bit, as IEEE subtraction is
    antisymmetric.  Both conventions yield the same integrality verdict."""
    r, s = eigenvalues(p)
    return -s, -r


def pencil_graph_params(q: int) -> SrgParams:
    """Parameters forced on the full-pencil-point graph of a 4-space."""
    return SrgParams(q * q + 2 * q + 2, q + 1, 0, 1)


def q_feasible(q: int) -> bool:
    """True iff 1 + 4q is an odd perfect square, i.e. q = u(u+1)."""
    if q < 2:
        raise ValueError("need q >= 2")
    s = math.isqrt(1 + 4 * q)
    return s * s == 1 + 4 * q


def q_to_u(q: int) -> int | None:
    """The u with q = u(u+1), if any."""
    if not q_feasible(q):
        return None
    return (math.isqrt(1 + 4 * q) - 1) // 2

