"""Arithmetic in GF(q) for small prime powers.

Field elements are plain integer codes in ``[0, q)``.  A code is read
base-p, little-endian, as the coefficient vector of a polynomial over
GF(p), so code ``0`` is the additive and code ``1`` the multiplicative
identity.  Extension fields use a fixed irreducible modulus, which keeps
the integer encoding (and therefore every file format) stable across
runs and machines.

Multiplication reads a full q x q table of the polynomial products, and
the inverse of a is the column of the 1 in row a of that table; the
audit inner loops are dominated by field operations.  All tables are
immutable after construction; every operation is pure.
"""

from __future__ import annotations

from functools import cache

MAX_Q = 16

# Fixed moduli, little-endian coefficients (constant term first).
_MODULI = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
}


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return ``(p, e)`` with ``q == p**e``, or raise ``ValueError``."""
    if q < 2:
        raise ValueError(f"field order must be at least 2, got {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def is_prime_power(q: int) -> bool:
    try:
        factor_prime_power(q)
    except ValueError:
        return False
    return True


class GF:
    """The finite field GF(q) with precomputed operation tables, q <= 16."""

    def __init__(self, q: int):
        if q > MAX_Q:  # before factoring: trial division of a large prime runs for minutes
            raise ValueError(f"GF({q}) not supported, need q <= {MAX_Q}")
        p, e = factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        self.modulus: tuple[int, ...] | None = _MODULI[(p, e)] if e > 1 else None

        self.neg_table = [self._neg_raw(a) for a in range(q)]
        self.add_table = [[self._add_raw(a, b) for b in range(q)] for a in range(q)]
        self.sub_table = [
            [self.add_table[a][self.neg_table[b]] for b in range(q)] for a in range(q)
        ]
        self.mul_table = [[self._mul_raw(a, b) for b in range(q)] for a in range(q)]
        self.inv_table: list[int | None] = [None] + [
            self.mul_table[a].index(1) for a in range(1, q)
        ]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.inv_table[a]  # type: ignore[return-value]

    # -- raw coefficient arithmetic, used only to build the tables --

    def _digits(self, code: int) -> list[int]:
        d = []
        for _ in range(self.e):
            code, r = divmod(code, self.p)
            d.append(r)
        return d

    def _code(self, digits: list[int]) -> int:
        c = 0
        for d in reversed(digits):
            c = c * self.p + d
        return c

    def _add_raw(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        return self._code([(x + y) % self.p for x, y in zip(da, db)])

    def _neg_raw(self, a: int) -> int:
        return self._code([(-x) % self.p for x in self._digits(a)])

    def _mul_raw(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        if e > 1:
            mod = self.modulus
            for i in range(len(prod) - 1, e - 1, -1):
                c = prod[i]
                if c:
                    prod[i] = 0
                    for j in range(e):
                        prod[i - e + j] = (prod[i - e + j] - c * mod[j]) % p
        return self._code(prod[: max(e, 1)])

    def __repr__(self):
        return f"GF({self.q})"


@cache
def field(q: int) -> GF:
    """Shared GF(q) instance; tables are immutable, so caching is safe."""
    return GF(q)
