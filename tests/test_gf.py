import itertools

import pytest

from hexaudit.gf import GF, factor_prime_power, field, is_prime_power

SUPPORTED = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_factor_prime_power():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(16) == (2, 4)
    with pytest.raises(ValueError):
        factor_prime_power(6)
    with pytest.raises(ValueError):
        factor_prime_power(1)
    assert is_prime_power(27)
    assert not is_prime_power(12)


def test_unsupported_order():
    with pytest.raises(ValueError):
        GF(32)


@pytest.mark.parametrize("q", SUPPORTED)
def test_field_axioms_exhaustive(q):
    """All field axioms, checked over every element (finite, so assertable)."""
    gf = field(q)
    add, sub, neg, mul = gf.add_table, gf.sub_table, gf.neg_table, gf.mul_table
    els = range(q)
    for a in els:
        assert add[a][0] == a
        assert mul[a][1] == a
        assert mul[a][0] == 0
        assert add[a][neg[a]] == 0
        if a:
            assert mul[a][gf.inv(a)] == 1
    for a, b in itertools.product(els, repeat=2):
        assert add[a][b] == add[b][a]
        assert mul[a][b] == mul[b][a]
        assert sub[a][b] == add[a][neg[b]]
    for a, b, c in itertools.product(els, repeat=3):
        assert add[add[a][b]][c] == add[a][add[b][c]]
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


@pytest.mark.parametrize("q", SUPPORTED)
def test_frobenius_fixes_everything(q):
    mul = field(q).mul_table
    for a in range(q):
        power = 1
        for _ in range(q):
            power = mul[power][a]
        assert power == a


def test_known_sums():
    assert field(2).add_table[1][1] == 0
    assert field(3).add_table[2][2] == 1
    # GF(4) with modulus x^2+x+1: x + (x+1) = 1, coefficientwise XOR.
    assert field(4).add_table[2][3] == 1


def test_known_products():
    assert field(2).mul_table[1][1] == 1
    # GF(4): x*x = x+1 is forced by the modulus.
    assert field(4).mul_table[2][2] == 3
    # GF(9) with modulus x^2+1: x*x = -1 = 2.
    assert field(9).mul_table[3][3] == 2


def test_known_inverses():
    assert field(3).inv(2) == 2
    assert field(5).inv(3) == 2
    # Oracle: exhaustive multiplication table of GF(4).
    gf4 = field(4)
    table = {
        (a, b): gf4.mul_table[a][b] for a in range(4) for b in range(4)
    }
    oracle_inv = next(b for b in range(4) if table[(2, b)] == 1)
    assert oracle_inv == 3
    assert gf4.inv(2) == 3


def test_inverse_of_zero_fails():
    with pytest.raises(ZeroDivisionError):
        field(7).inv(0)


def test_fixed_moduli():
    assert field(4).modulus == (1, 1, 1)
    assert field(8).modulus == (1, 1, 0, 1)
    assert field(9).modulus == (1, 0, 1)
    assert field(16).modulus == (1, 1, 0, 0, 1)
    assert field(5).modulus is None
