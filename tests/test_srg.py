import itertools

import numpy as np
import pytest

from hexaudit.srg import (
    SrgParams,
    eigenvalues,
    eigenvalues_displayed_sign,
    pencil_graph_params,
    q_feasible,
    q_to_u,
)
from lemmas import feasible_prime_powers, integrality_feasible, is_conference, local_count_check


def petersen_adjacency():
    """Kneser graph K(5,2): vertices are 2-subsets, adjacent iff disjoint."""
    verts = list(itertools.combinations(range(5), 2))
    a = np.zeros((10, 10), dtype=int)
    for i, u in enumerate(verts):
        for j, v in enumerate(verts):
            if not set(u) & set(v):
                a[i, j] = 1
    return a


def cycle_adjacency(n):
    a = np.zeros((n, n), dtype=int)
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1
    return a


class TestParams:
    def test_identity_enforced(self):
        SrgParams(10, 3, 0, 1)
        SrgParams(5, 2, 0, 1)
        with pytest.raises(ValueError):
            SrgParams(10, 3, 0, 2)
        with pytest.raises(ValueError):
            SrgParams(3, 3, 0, 1)
        with pytest.raises(ValueError):
            SrgParams(10, 3, 0, 4)

    @pytest.mark.parametrize(
        "params, message",
        [
            ((10, 3, -1, 1), "parameters must be non-negative"),
            ((3, 3, 0, 1), "need k < v"),
            ((10, 3, 0, 4), "need mu <= k"),
            ((10, 3, 0, 2), "parameter identity k(k-lam-1) = (v-k-1)mu violated"),
        ],
        ids=["negative", "k-v", "mu-k", "identity"],
    )
    def test_messages(self, params, message):
        with pytest.raises(ValueError) as exc:
            SrgParams(*params)
        assert str(exc.value) == message

    def test_value_semantics(self):
        p = SrgParams(v=10, k=3, lam=0, mu=1)
        assert p == SrgParams(10, 3, 0, 1) and hash(p) == hash(SrgParams(10, 3, 0, 1))
        assert p != SrgParams(5, 2, 0, 1)
        assert repr(p) == "SrgParams(v=10, k=3, lam=0, mu=1)"

    def test_replace_and_make_run_the_checks(self):
        with pytest.raises(ValueError, match="^need k < v$"):
            SrgParams._make((1, 5, 0, 0))
        with pytest.raises(ValueError, match="^need mu <= k$"):
            SrgParams(10, 3, 0, 1)._replace(mu=4)
        p = SrgParams(10, 3, 0, 1)._replace(v=5, k=2)
        assert p == SrgParams(5, 2, 0, 1) and type(p) is SrgParams

    def test_pencil_graph_params(self):
        assert pencil_graph_params(2) == SrgParams(10, 3, 0, 1)
        assert pencil_graph_params(3) == SrgParams(17, 4, 0, 1)


class TestEigenvalues:
    def test_petersen_against_spectrum_oracle(self):
        """The non-principal adjacency eigenvalues of the Petersen graph."""
        spec = np.linalg.eigvalsh(petersen_adjacency())
        distinct = sorted(set(np.round(spec).astype(int)))
        assert distinct == [-2, 1, 3]
        r, s = eigenvalues(SrgParams(10, 3, 0, 1))
        assert (r, s) == (1.0, -2.0)

    def test_c5_against_spectrum_oracle(self):
        """C5 is the (5,2,0,1) conference graph; eigenvalues (-1 +/- sqrt5)/2."""
        spec = np.linalg.eigvalsh(cycle_adjacency(5))
        r, s = eigenvalues(SrgParams(5, 2, 0, 1))
        assert np.isclose(sorted(spec)[-2], r)
        assert np.isclose(min(spec), s)

    def test_displayed_sign_negates(self):
        p = SrgParams(10, 3, 0, 1)
        r, s = eigenvalues(p)
        rd, sd = eigenvalues_displayed_sign(p)
        assert {rd, sd} == {-r, -s}


class TestIntegrality:
    def test_petersen_feasible(self):
        assert integrality_feasible(SrgParams(10, 3, 0, 1))

    def test_conference_exemption(self):
        p = SrgParams(5, 2, 0, 1)
        assert is_conference(p)
        assert integrality_feasible(p)

    def test_q3_infeasible(self):
        p = pencil_graph_params(3)
        assert not is_conference(p)
        assert not integrality_feasible(p)


class TestQFeasible:
    def test_q2(self):
        assert q_feasible(2)
        assert q_to_u(2) == 1

    def test_triangular_numbers(self):
        # q = u(u+1) is exactly the feasible pattern.
        for u in range(1, 20):
            assert q_feasible(u * (u + 1))
        for q in (3, 4, 5, 7, 8, 9, 11, 13, 16, 25):
            assert not q_feasible(q)
        assert q_to_u(3) is None

    def test_matches_integrality(self):
        for q in range(2, 200):
            assert q_feasible(q) == integrality_feasible(pencil_graph_params(q))

    def test_range_checked(self):
        with pytest.raises(ValueError):
            q_feasible(1)

    def test_prime_power_scan(self):
        assert feasible_prime_powers(1000) == [2]


class TestLocalCount:
    def test_forced_vertex_count(self):
        assert local_count_check(10, 2)
        assert local_count_check(17, 3)
        assert not local_count_check(11, 2)
